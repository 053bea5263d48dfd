"""Line protocol between the shard coordinator and its workers.

One JSON object per line -- the identical framing over a stdio pipe
(:class:`~repro.shard.transport.PipeTransport`) or a TCP socket
(:class:`~repro.shard.transport.SocketTransport`), which is why the
worker entry point is a CLI command rather than a pool function.
Binary payloads ride base64-encoded: the pickled
:class:`CampaignConfig` and fleet in ``init``, and each screened
chunk's rows in ``progress``.

Coordinator -> worker
---------------------
``init``      config_b64, threshold, fleet_b64, heartbeat, trace (a
              ``TraceContext`` dict or null); sent again by every
              campaign that leases a warm worker
``assign``    shard (index), lo, hi, resume_at (the first die of
              ``[lo, hi)`` whose row the coordinator does not hold:
              ``lo`` on a first dispatch)
``shutdown``  --

Worker -> coordinator
---------------------
``hello``     pid, host (after every init: ready for assignments)
``ping``      -- (heartbeat, every ``heartbeat/2`` seconds)
``progress``  shard, next_index, rows_b64 (after each screened chunk:
              base64 of the chunk's rows as a one-record
              :class:`~repro.campaign.checkpoint.StreamCheckpoint`
              log, ``to_bytes`` format -- a CRC-checked flat record
              -- covering dies up to next_index)
``done``      shard, num_dies, spans (pid/host-stamped span rows when
              the campaign is traced)
``error``     shard (or null), message (the worker then exits 1)

The coordinator holds every row: it accepts a shard's records in
index order only, so a record that does not start at the shard's
next index, or a ``done`` before the shard's last row, is a desync
that loses the worker, like an undecodable line, and so is a record
whose CRC fails or whose arrays disagree in length.  The pickles only
ever travel coordinator -> worker within one invocation (same code,
same interpreter); rows come back in the record format crash
recovery uses, never as pickled arrays.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Dict, List, Optional


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
                 heartbeat: float,
                 trace: Optional[Dict[str, object]]
                 ) -> Dict[str, object]:
    return {"type": "init", "config_b64": pack_payload(config),
            "threshold": threshold, "fleet_b64": pack_payload(fleet),
            "heartbeat": float(heartbeat), "trace": trace}


def assign_message(shard_index: int, lo: int, hi: int,
                   resume_at: int) -> Dict[str, object]:
    return {"type": "assign", "shard": int(shard_index),
            "lo": int(lo), "hi": int(hi), "resume_at": int(resume_at)}


def progress_message(shard_index: int, next_index: int,
                     rows: bytes) -> Dict[str, object]:
    """One screened chunk's rows (a ``StreamCheckpoint`` log)."""
    return {"type": "progress", "shard": int(shard_index),
            "next_index": int(next_index),
            "rows_b64": base64.b64encode(rows).decode("ascii")}


def unpack_rows(message: Dict[str, object]) -> bytes:
    """The record bytes of a ``progress`` message; raises
    ``ValueError`` (or ``KeyError``/``TypeError`` on a malformed
    message) rather than decoding junk."""
    return base64.b64decode(str(message["rows_b64"]), validate=True)


def done_message(shard_index: int, num_dies: int,
                 spans: List[Dict[str, object]]) -> Dict[str, object]:
    return {"type": "done", "shard": int(shard_index),
            "num_dies": int(num_dies), "spans": spans}


def shutdown_message() -> Dict[str, object]:
    return {"type": "shutdown"}


__all__ = ["assign_message", "decode_message", "done_message",
           "encode_message", "init_message", "pack_payload",
           "progress_message", "shutdown_message", "unpack_payload",
           "unpack_rows"]
