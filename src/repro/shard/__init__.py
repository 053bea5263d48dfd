"""repro.shard -- sharded campaigns: split, run, merge bit-identical.

A sharded campaign splits the global die-index range into contiguous
shards, dispatches them to workers over a JSON line protocol, and
merges the rows they send home in global-index order --
**bit-identical** to the monolithic run, even when a worker is killed
or partitioned mid-shard.  Workers send each screened chunk's rows
home as a one-record :class:`~repro.campaign.checkpoint.StreamCheckpoint`
log and write no file; the coordinator holds every row, so a
reassigned shard resumes at the first row it does not hold, never
from zero.

Workers reach the coordinator through a
:class:`~repro.shard.transport.Transport`: subprocesses the
coordinator spawned over stdio pipes (the default), or processes on
any machine that dialed a TCP ``--listen`` endpoint with ``repro
shard-worker --connect HOST:PORT`` -- multi-node campaigns; both
carriers send rows home the same way.

Layers:

* :mod:`repro.shard.planner` -- range tiling with uneven tails, plus
  :class:`ShardAutotuner` feedback sizing from observed die rates.
* :mod:`repro.shard.fleets` -- picklable fleet descriptions that
  rebuild any die range on demand.
* :mod:`repro.shard.protocol` -- the coordinator <-> worker wire.
* :mod:`repro.shard.transport` -- the carriers under the wire (pipe
  and TCP socket), byte accounting, and the network fault points.
* :mod:`repro.shard.worker` -- the ``repro shard-worker`` loop.
* :mod:`repro.shard.coordinator` -- dispatch, accept loop, heartbeat
  watching, reassignment, merge.

Entry points: :meth:`CampaignEngine.run_sharded`, or
``repro campaign --shards N`` (add ``--listen HOST:PORT`` for
multi-node).  See ``docs/sharding.md``.
"""

from repro.shard.coordinator import (
    STARTUP_GRACE,
    ShardCoordinator,
    ShardWorkerError,
    WORKER_FAULTS_ENV,
)
from repro.shard.fleets import (
    MonteCarloFleet,
    PopulationFleet,
    ShardFleet,
    as_fleet,
)
from repro.shard.planner import Shard, ShardAutotuner, plan_shards
from repro.shard.transport import (
    PipeTransport,
    SocketListener,
    SocketTransport,
    Transport,
    TransportClosed,
    dial,
    parse_endpoint,
)
from repro.shard.worker import connect_main, worker_cli, worker_main

__all__ = [
    "MonteCarloFleet",
    "PipeTransport",
    "PopulationFleet",
    "STARTUP_GRACE",
    "Shard",
    "ShardAutotuner",
    "ShardCoordinator",
    "ShardFleet",
    "ShardWorkerError",
    "SocketListener",
    "SocketTransport",
    "Transport",
    "TransportClosed",
    "WORKER_FAULTS_ENV",
    "as_fleet",
    "connect_main",
    "dial",
    "parse_endpoint",
    "plan_shards",
    "worker_cli",
    "worker_main",
]
