"""Thread-safe in-process metrics: counters, gauges, histograms, windows.

The registry grew up in the service layer (PR 6) and moved here so the
*engine* can record whether or not a server is running: engine-level
stage histograms, cache/store counters and checkpoint timings land in
the process-default registry (:func:`default_registry`), which
``repro serve`` scrapes on ``/metrics`` and ``repro campaign
--profile`` prints directly.

Every operation is nanosecond-scale against millisecond-scale
requests, so one lock per registry is simpler and plenty.  The
registry renders to a Prometheus-style text exposition (``/metrics``)::

    >>> registry = MetricsRegistry(namespace="repro")
    >>> registry.counter("requests_total", endpoint="campaign").inc()
    >>> registry.window("batch_size").observe(3)
    >>> print(registry.render())   # doctest: +ELLIPSIS
    repro_requests_total{endpoint="campaign"} 1
    repro_batch_size_count 1
    repro_batch_size_sum 3
    ...

Label values are rendered escaped and sorted, so scrapes are stable
across runs.  :meth:`MetricsRegistry.observe_timings` records **any**
stage key a timing dict carries -- new pipeline stages appear on
``/metrics`` without registry edits.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        '%s="%s"' % (name, value.replace("\\", "\\\\")
                     .replace('"', '\\"').replace("\n", "\\n"))
        for name, value in key)
    return "{" + inner + "}"


def _render_value(value: float) -> str:
    # Integers render bare (counter idiom); floats keep full repr so
    # scrapes round-trip.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    """Bucket bound label value (``+Inf`` for the overflow bucket)."""
    if bound == float("inf"):
        return "+Inf"
    return _render_value(bound)


class Counter:
    """Monotonic counter (one labelled series of a counter family)."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value


class Gauge:
    """Set-or-adjust instantaneous value (in-flight, queue depth)."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust up (or down with a negative amount)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust down."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class RollingWindow:
    """Last-N observations plus lifetime count/sum.

    Keeps a bounded deque of recent observations (stage timings,
    coalesced batch sizes) so the scrape can report recent min / mean /
    max / last without unbounded memory, alongside lifetime ``count``
    and ``sum`` for rate math on the scraper side.
    """

    def __init__(self, lock: threading.Lock, size: int = 256) -> None:
        if size < 1:
            raise ValueError("window needs room for one observation")
        self._lock = lock
        self._recent: deque = deque(maxlen=int(size))
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._recent.append(value)
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        """Lifetime observation count."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Lifetime sum."""
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, float]:
        """Stats of the rolling window (empty dict when unobserved)."""
        with self._lock:
            if not self._count:
                return {}
            recent = list(self._recent)
            return {
                "count": float(self._count),
                "sum": self._sum,
                "last": recent[-1],
                "recent_min": min(recent),
                "recent_mean": sum(recent) / len(recent),
                "recent_max": max(recent),
            }


#: Default latency buckets (seconds): 100 us .. 10 s, roughly
#: logarithmic -- wide enough for a golden compile, fine enough for a
#: packed NDF pass.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Histogram:
    """Fixed-bucket cumulative histogram (the Prometheus idiom).

    Renders as ``name_bucket{le="..."}`` cumulative counts plus
    ``name_sum`` / ``name_count``, so standard histogram_quantile
    queries work on the scrape.  Buckets are fixed at creation; the
    overflow (``+Inf``) bucket is implicit.
    """

    def __init__(self, lock: threading.Lock,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be distinct and ascending")
        self._lock = lock
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._counts[bisect.bisect_left(self.buckets, value)] += 1

    @property
    def count(self) -> int:
        """Lifetime observation count."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Lifetime sum."""
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, float]:
        """Cumulative ``{le: count}`` plus ``sum``/``count``."""
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        cumulative: Dict[str, float] = {}
        running = 0
        for bound, count in zip(self.buckets + (float("inf"),), counts):
            running += count
            cumulative[_format_bound(bound)] = float(running)
        cumulative["sum"] = total
        cumulative["count"] = float(n)
        return cumulative


class MetricsRegistry:
    """Namespace of counters, gauges, histograms and rolling windows.

    ``counter`` / ``gauge`` / ``histogram`` / ``window`` get-or-create
    a series, so call sites never pre-register; families are rendered
    sorted by name then labels.  One registry instance backs one
    server; the engine records into :func:`default_registry`.
    """

    def __init__(self, namespace: str = "repro",
                 window_size: int = 256) -> None:
        self.namespace = str(namespace)
        self.window_size = int(window_size)
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], Histogram] = {}
        self._windows: Dict[Tuple[str, _LabelKey], RollingWindow] = {}
        self._started = time.time()

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        """The counter series ``name{labels}`` (created on first use)."""
        key = (str(name), _label_key(labels))
        with self._lock:
            series = self._counters.get(key)
            if series is None:
                series = self._counters[key] = Counter(self._lock)
        return series

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge series ``name{labels}`` (created on first use)."""
        key = (str(name), _label_key(labels))
        with self._lock:
            series = self._gauges.get(key)
            if series is None:
                series = self._gauges[key] = Gauge(self._lock)
        return series

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels: str) -> Histogram:
        """The histogram ``name{labels}`` (created on first use).

        ``buckets`` applies on creation only; later callers share the
        first caller's bucket layout.
        """
        key = (str(name), _label_key(labels))
        with self._lock:
            series = self._histograms.get(key)
            if series is None:
                series = self._histograms[key] = Histogram(
                    self._lock,
                    buckets if buckets is not None else DEFAULT_BUCKETS)
        return series

    def window(self, name: str, **labels: str) -> RollingWindow:
        """The rolling window ``name{labels}`` (created on first use)."""
        key = (str(name), _label_key(labels))
        with self._lock:
            series = self._windows.get(key)
            if series is None:
                series = self._windows[key] = RollingWindow(
                    self._lock, self.window_size)
        return series

    def observe_timings(self, timing: Dict[str, float],
                        **labels: str) -> None:
        """Record an engine result's per-stage timing dict.

        Every stage key the dict carries becomes one ``stage_seconds``
        window labelled by stage name (plus any extra labels, e.g. the
        mode) -- there is deliberately no stage whitelist, so a new
        engine stage appears on ``/metrics`` the first time a result
        reports it.
        """
        for stage, seconds in timing.items():
            self.window("stage_seconds", stage=stage,
                        **labels).observe(seconds)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view of every series (tests, JSON health)."""
        with self._lock:
            counters = {name + _render_labels(labels): series._value
                        for (name, labels), series
                        in self._counters.items()}
            gauges = {name + _render_labels(labels): series._value
                      for (name, labels), series in self._gauges.items()}
            histogram_items = list(self._histograms.items())
            window_items = list(self._windows.items())
        histograms = {name + _render_labels(labels): series.snapshot()
                      for (name, labels), series in histogram_items}
        windows = {name + _render_labels(labels): series.snapshot()
                   for (name, labels), series in window_items}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms, "windows": windows}

    def render(self) -> str:
        """Prometheus-style text exposition of every series."""
        prefix = self.namespace + "_" if self.namespace else ""
        lines: List[str] = []

        def emit(kind: Iterable[Tuple[Tuple[str, _LabelKey], float]],
                 suffix: str = "") -> None:
            for (name, labels), value in sorted(kind,
                                                key=lambda kv: kv[0]):
                lines.append(f"{prefix}{name}{suffix}"
                             f"{_render_labels(labels)} "
                             f"{_render_value(value)}")

        with self._lock:
            counter_rows = [(key, series._value)
                            for key, series in self._counters.items()]
            gauge_rows = [(key, series._value)
                          for key, series in self._gauges.items()]
            histogram_keys = list(self._histograms.items())
            window_keys = list(self._windows.items())
        emit(counter_rows)
        emit(gauge_rows)
        histogram_rows = sorted(
            ((key, series) for key, series in histogram_keys),
            key=lambda kv: kv[0])
        for (name, labels), series in histogram_rows:
            stats = series.snapshot()
            total = stats.pop("sum")
            count = stats.pop("count")
            for bound, value in stats.items():
                bucket_labels = tuple(sorted(labels + (("le", bound),)))
                lines.append(f"{prefix}{name}_bucket"
                             f"{_render_labels(bucket_labels)} "
                             f"{_render_value(value)}")
            lines.append(f"{prefix}{name}_sum{_render_labels(labels)} "
                         f"{_render_value(total)}")
            lines.append(f"{prefix}{name}_count"
                         f"{_render_labels(labels)} "
                         f"{_render_value(count)}")
        window_rows: List[Tuple[Tuple[str, _LabelKey], Dict]] = sorted(
            ((key, series.snapshot()) for key, series in window_keys),
            key=lambda kv: kv[0])
        for (name, labels), stats in window_rows:
            for stat, value in stats.items():
                lines.append(f"{prefix}{name}_{stat}"
                             f"{_render_labels(labels)} "
                             f"{_render_value(value)}")
        lines.append(f"{prefix}uptime_seconds "
                     f"{_render_value(time.time() - self._started)}")
        return "\n".join(lines) + "\n"


def timed(window: RollingWindow):
    """Context manager observing a block's wall-clock seconds."""
    return _Timer(window)


class _Timer:
    def __init__(self, window: RollingWindow) -> None:
        self._window = window
        self._start: Optional[float] = None

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._window.observe(time.perf_counter() - self._start)


# ----------------------------------------------------------------------
# The process-default registry (engine-level metrics land here)
# ----------------------------------------------------------------------
_DEFAULT_LOCK = threading.Lock()
_DEFAULT: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry engine-level metrics record into.

    Created lazily on first use; ``repro serve`` adopts it as the
    server registry by default, so engine/cache/store/checkpoint
    series appear on ``/metrics`` without any wiring.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = MetricsRegistry()
        return _DEFAULT


def set_default_registry(registry: Optional[MetricsRegistry]
                         ) -> Optional[MetricsRegistry]:
    """Replace the process-default registry (tests, embedding apps).

    Returns the previous default (None if it was never created);
    passing None resets to lazy re-creation.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous = _DEFAULT
        _DEFAULT = registry
        return previous


def record_engine_timings(timing: Dict[str, float],
                          **labels: str) -> None:
    """Record one campaign's per-stage timings into the default registry.

    Each stage lands in the ``engine_stage_seconds`` histogram family
    labelled by stage (any stage key -- no whitelist), and
    ``engine_campaigns_total`` counts the campaign.  Called by the
    engine at result-packaging time whether or not a server exists.
    """
    registry = default_registry()
    registry.counter("engine_campaigns_total", **labels).inc()
    for stage, seconds in timing.items():
        registry.histogram("engine_stage_seconds", stage=stage,
                           **labels).observe(seconds)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RollingWindow",
    "default_registry",
    "record_engine_timings",
    "set_default_registry",
    "timed",
]
