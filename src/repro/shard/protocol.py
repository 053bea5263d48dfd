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
              ``TraceContext`` dict or null), campaign (an id drawn
              once per campaign); sent again by every campaign that
              leases a warm worker
``assign``    shard (index), lo, hi, resume_at (the first die of
              ``[lo, hi)`` whose row the coordinator does not hold:
              ``lo`` on a first dispatch)
``shutdown``  --

Worker -> coordinator
---------------------
``hello``     pid, host (after every init: ready for assignments)
``ping``      -- (only while the worker holds a shard, and only when
              nothing else went out for ``heartbeat/2`` seconds)
``progress``  shard, campaign (echoes the last ``init``), rows_b64
              (after each screened chunk: base64 of the chunk's rows
              as a one-record
              :class:`~repro.campaign.checkpoint.StreamCheckpoint`
              log, ``to_bytes`` format -- a CRC-checked flat record),
              spans (the shard's last record only: pid/host-stamped
              span rows, empty when the campaign is untraced)
``error``     shard (or null), message (the worker then exits 1)

The coordinator holds every row: it accepts a shard's records in
index order only, and the record that brings the held rows to the
shard's ``hi`` completes the shard -- there is no separate end line.
A record that does not start at the shard's next index, that names
another campaign, whose CRC fails or whose arrays disagree in length
is a desync that loses the worker, like an undecodable line; an
assigned worker that falls silent past the heartbeat is lost too.
The pickles only ever travel coordinator -> worker within one
invocation (same code, same interpreter); rows come back in the
record format crash recovery uses, never as pickled arrays.
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
                 trace: Optional[Dict[str, object]],
                 campaign: str) -> Dict[str, object]:
    return {"type": "init", "config_b64": pack_payload(config),
            "threshold": threshold, "fleet_b64": pack_payload(fleet),
            "heartbeat": float(heartbeat), "trace": trace,
            "campaign": campaign}


def assign_message(shard_index: int, lo: int, hi: int,
                   resume_at: int) -> Dict[str, object]:
    return {"type": "assign", "shard": int(shard_index),
            "lo": int(lo), "hi": int(hi), "resume_at": int(resume_at)}


def progress_message(shard_index: int, campaign: str, rows: bytes,
                     spans: Optional[List[Dict[str, object]]] = None
                     ) -> Dict[str, object]:
    """One screened chunk's rows (a ``StreamCheckpoint`` log); a
    shard's last record also carries the worker's ``spans``."""
    message = {"type": "progress", "shard": int(shard_index),
               "campaign": campaign,
               "rows_b64": base64.b64encode(rows).decode("ascii")}
    if spans is not None:
        message["spans"] = spans
    return message


def unpack_rows(message: Dict[str, object]) -> bytes:
    """The record bytes of a ``progress`` message; raises
    ``ValueError`` (or ``KeyError``/``TypeError`` on a malformed
    message) rather than decoding junk."""
    return base64.b64decode(str(message["rows_b64"]), validate=True)


def shutdown_message() -> Dict[str, object]:
    return {"type": "shutdown"}


__all__ = ["assign_message", "decode_message", "encode_message",
           "init_message", "pack_payload", "progress_message",
           "shutdown_message", "unpack_payload", "unpack_rows"]
