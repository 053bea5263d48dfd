"""Line protocol between the shard coordinator and its workers.

One JSON object per line -- the identical framing over a stdio pipe
(:class:`~repro.shard.transport.PipeTransport`) or a TCP socket
(:class:`~repro.shard.transport.SocketTransport`), which is why the
worker entry point is a CLI command rather than a pool function.
Binary payloads (the pickled :class:`CampaignConfig` and fleet) ride
base64-encoded inside the ``init`` message; everything after that is
plain JSON.

Coordinator -> worker
---------------------
``init``      config_b64, threshold, fleet_b64, checkpoint_every,
              heartbeat, trace (a ``TraceContext`` dict or null),
              remote (true when no shared filesystem can be assumed:
              the worker must return checkpoints inline); sent again
              by every campaign that leases a warm worker
``assign``    shard (index), lo, hi, checkpoint (path); remote
              assignments add resume_b64 (base64 ``.npz`` bytes of
              the shard's last known checkpoint, or absent) so a
              reassigned shard resumes without a shared filesystem
``shutdown``  --

Worker -> coordinator
---------------------
``hello``     pid, host (after every init: ready for assignments)
``ping``      -- (heartbeat, every ``heartbeat/2`` seconds)
``progress``  shard, next_index (after each screened chunk); remote
              workers add checkpoint_b64 whenever the shard's
              checkpoint advanced, so the coordinator always holds
              the partial state a reassignment would resume from
``done``      shard, num_dies, checkpoint, spans (pid/host-stamped
              span rows when the campaign is traced); remote workers
              add checkpoint_b64 (the completed shard's ``.npz``)
``error``     shard (or null), message (the worker then exits 1)

The pickles only ever travel coordinator -> worker within one
invocation (same code, same interpreter); results come back as
checkpoint archives -- files on a shared filesystem, base64 ``.npz``
bytes over a socket -- never pickled arrays: the merge reads the same
atomic ``.npz`` format crash recovery uses.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Dict, Optional


def encode_message(message: Dict[str, object]) -> str:
    """One wire line (no trailing newline)."""
    return json.dumps(message, separators=(",", ":"))


def decode_message(line: str) -> Dict[str, object]:
    """Parse one wire line; raises ``ValueError`` on junk."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"undecodable protocol line {line!r}: "
                         f"{error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ValueError(f"protocol line without a type: {line!r}")
    return message


def pack_payload(obj: object) -> str:
    """Pickle + base64 an object for the ``init`` message."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_payload(data: str) -> object:
    """Inverse of :func:`pack_payload`."""
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def init_message(config, threshold: Optional[float], fleet,
                 checkpoint_every: int, heartbeat: float,
                 trace: Optional[Dict[str, object]],
                 remote: bool = False) -> Dict[str, object]:
    return {"type": "init", "config_b64": pack_payload(config),
            "threshold": threshold, "fleet_b64": pack_payload(fleet),
            "checkpoint_every": int(checkpoint_every),
            "heartbeat": float(heartbeat), "trace": trace,
            "remote": bool(remote)}


def assign_message(shard_index: int, lo: int, hi: int,
                   checkpoint: str,
                   resume_b64: Optional[str] = None
                   ) -> Dict[str, object]:
    message: Dict[str, object] = {
        "type": "assign", "shard": int(shard_index),
        "lo": int(lo), "hi": int(hi),
        "checkpoint": str(checkpoint)}
    if resume_b64 is not None:
        message["resume_b64"] = str(resume_b64)
    return message


def shutdown_message() -> Dict[str, object]:
    return {"type": "shutdown"}


__all__ = ["assign_message", "decode_message", "encode_message",
           "init_message", "pack_payload", "shutdown_message",
           "unpack_payload"]
