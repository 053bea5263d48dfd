"""Fresh-interpreter starts, timed from outside.

Each start runs in a new process from the checkout, bracketed by host
probes, and counts until the process reports that it can screen.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

#: Seconds a start may take before it is killed and reported failed.
START_TIMEOUT = 120.0

#: Probes on each side of a start: a start is long and probed rarely,
#: so it gets enough neighbours for a median of its own.
PROBES_PER_SIDE = 3

_SERVE_LINE = re.compile(r"serving at (http://\S+)")

# Start scripts, formatted with ``samples`` and ``tolerance``.
# Fleet: import, engine with a 2-process pool, golden, band, and a
# 2-die pass that starts the pool workers.
FLEET_START = """
import sys
from repro.campaign import ProcessPoolExecutor, ScreeningRequest, montecarlo_dies
from repro.paper import paper_setup
setup = paper_setup(samples_per_period={samples})
engine = setup.campaign_engine(tolerance={tolerance}, executor=ProcessPoolExecutor(2))
engine.golden()
threshold = engine.band().threshold
engine.submit(ScreeningRequest(population=montecarlo_dies(setup.golden_spec, 2, seed=0), band=threshold))
print("ready", flush=True)
sys.stdin.read()
"""

# Sharded: the coordinator side before its first campaign (workers
# start inside every campaign and are timed there).
SHARDED_START = """
import sys
from repro.paper import paper_setup
engine = paper_setup(samples_per_period={samples}).campaign_engine(tolerance={tolerance})
engine.golden()
engine.band()
print("ready", flush=True)
sys.stdin.read()
"""

IMPORT_COUNT = """
import json, sys, time
start = time.perf_counter()
import repro.cli
elapsed = time.perf_counter() - start
print(json.dumps({"import_s": elapsed, "modules": len(sys.modules),
                  "scipy_modules": sum(1 for m in sys.modules
                                       if m.split(".")[0] == "scipy")}))
"""


def serve_args(samples: int, tolerance: float) -> List[str]:
    return ["-m", "repro", "serve", "--samples", str(samples),
            "--tolerance", repr(tolerance), "--port", "0"]


class StartFailed(RuntimeError):
    pass


def _watchdog(proc: subprocess.Popen) -> threading.Timer:
    timer = threading.Timer(START_TIMEOUT, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def _read_until(proc: subprocess.Popen, pattern) -> re.Match:
    for line in proc.stdout:
        match = pattern.search(line)
        if match:
            return match
    raise StartFailed(f"process exited with {proc.wait()} before ready")


def start(args: List[str], ready: "re.Pattern", probe,
          stderr=subprocess.DEVNULL
          ) -> Tuple[subprocess.Popen, re.Match, float, float]:
    """Start ``python <args>`` and wait for ``ready`` on its stdout.

    Returns ``(process, match, raw_seconds, corrected_seconds)``; the
    process is left running.
    """
    probe.measure(PROBES_PER_SIDE)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + args,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=stderr, text=True, bufsize=1)
    timer = _watchdog(proc)
    try:
        match = _read_until(proc, ready)
    except BaseException:
        stop(proc)
        raise
    finally:
        timer.cancel()
    t1 = time.perf_counter()
    probe.measure(PROBES_PER_SIDE)
    raw = t1 - t0
    return proc, match, raw, raw * probe.factor(t0, t1)


def stop(proc: subprocess.Popen, sig: Optional[int] = None) -> int:
    """End a started process (stdin EOF, or ``sig``) and reap it."""
    if proc.poll() is None:
        if sig is not None:
            proc.send_signal(sig)
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None and not stream.closed:
            stream.close()
    return proc.returncode


_READY = re.compile(r"^ready$")


def script_starts(script: str, reps: int, probe) -> List[Tuple[float, float]]:
    """``reps`` timed starts of a ``-c`` script; ``(raw, corrected)`` each."""
    times = []
    for _ in range(reps):
        proc, _, raw, corrected = start(["-c", script], _READY, probe)
        stop(proc)
        times.append((raw, corrected))
    return times


def serve_starts(args: List[str], reps: int, probe, log_path: str):
    """``reps`` timed starts of ``python <args>`` (``repro serve``); the
    last server keeps running and is returned with its URL."""
    times = []
    for rep in range(reps):
        with open(log_path, "a") as log:
            proc, match, raw, corrected = start(args, _SERVE_LINE, probe,
                                                stderr=log)
        times.append((raw, corrected))
        if rep < reps - 1:
            stop(proc, signal.SIGTERM)
    return proc, match.group(1), times


def import_counts(reps: int, probe):
    """Fresh ``import repro.cli`` timings and exact module counts."""
    rows = []
    for _ in range(reps):
        probe.measure(PROBES_PER_SIDE)
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", IMPORT_COUNT],
                             capture_output=True, text=True,
                             timeout=START_TIMEOUT, check=True).stdout
        t1 = time.perf_counter()
        probe.measure(PROBES_PER_SIDE)
        row = json.loads(out.strip().splitlines()[-1])
        row["import_s_corrected"] = row["import_s"] * probe.factor(t0, t1)
        rows.append(row)
    return rows
