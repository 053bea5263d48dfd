"""The batched test-campaign engine.

One :class:`CampaignEngine` runs the paper's full signature flow --
stimulus, Lissajous composition, zone encoding, signature capture, NDF,
verdict -- over an entire *population* of CUTs in a single call,
instead of once per die through
:class:`repro.core.testflow.SignatureTester`:

* golden signatures and calibrated decision bands are computed once per
  configuration and content-cached (:mod:`repro.campaign.cache`);
* the hot path is array-resident end to end: spec populations
  synthesize their ``(N, samples)`` trace stacks straight from stacked
  ``(omega0, q, gain, kind)`` parameter arrays (no per-die
  ``BiquadFilter``/``Multitone`` objects), a cut list becomes trace
  rows through one kernel (:func:`~repro.campaign.batch.cut_traces`:
  fault-dictionary netlists solve as one stacked MNA sweep) and then
  scores like a measured trace stack, the fused shared-branch encoder
  emits packed codes (:mod:`repro.campaign.batch`), and each chunk
  flows into one packed
  :class:`~repro.core.signature_batch.SignatureBatch` scored by the
  flat fleet-NDF kernel -- per-die ``Signature`` objects exist only
  at the diagnosis edges;
* spec chunks of :data:`CERTIFIED_MIN_ROWS` dies or more take the
  certified front half: a cached golden frame and each die's proven
  reach from the golden trace pick the columns where its code can
  differ from the golden's, one basis product per row block
  synthesizes only those, cached per-column y thresholds encode them
  into golden-filled rows, and only the dies the error bound cannot
  certify re-run on the exact kernels -- the codes, and everything
  after them, stay the exact ones (``docs/paper_map.md``);
* an executor layer chunks the population serially or over a process
  pool (:mod:`repro.campaign.executors`) with deterministic per-die
  seeding, so every executor yields bit-identical verdict vectors;
  spec chunks travel as parameter arrays, never as pickled specs;
* every clean campaign runs one parts loop: a monolithic run is one
  part, a stream (:meth:`CampaignEngine.run_stream`, or a list or
  generator of chunks passed to :meth:`run`) one part per chunk,
  keeping RSS bounded by the chunk size; the parts accumulate into one
  :class:`~repro.campaign.checkpoint.StreamCheckpoint`, the state a
  sharded run merges from its shards, and one packager builds the
  result from it;
* :meth:`CampaignEngine.run_noise` repeats every die's measurement
  under fresh Section IV-C noise as one ``(N * repeats, samples)``
  stack with per-die deterministic seeding;
* multi-signature screening (``run(..., encoders=[enc0, enc1])``;
  sharded runs too) re-encodes the same trace stacks through extra
  monitor banks -- per-channel NDFs/verdicts plus a combined
  OR-verdict, channel 0 bit-identical to the single-channel flow (see
  ``docs/paper_map.md`` for the contract and ``docs/ambiguity.md`` for
  why a second channel exists).

Worked example (mirrors ``examples/campaign_fleet.py``)::

    from repro.campaign import CampaignEngine, montecarlo_dies
    from repro.monitor.configurations import table1_encoder
    from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD)
    dies = montecarlo_dies(PAPER_BIQUAD, count=500, sigma_f0=0.03,
                           seed=7)
    result = engine.run(dies, band="auto")   # Fig. 8-calibrated band
    print(result.summary())                  # verdicts, escapes, timing
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.campaign.batch import (
    GoldenFrame,
    TraceBasis,
    batch_biquad_traces,
    batch_codes,
    batch_extract,
    certified_spec_codes,
    cut_traces,
    golden_frame,
    sample_times,
    trace_basis,
)
from repro.campaign.cache import (
    GoldenArtifacts,
    GoldenCache,
    _FRONT_HALF_CACHE,
    _PROCESS_CACHE,
    encoder_key,
    spec_key,
    stimulus_key,
)
from repro.campaign.executors import SerialExecutor
from repro.campaign.request import ScreeningRequest
from repro.campaign.result import CampaignResult, NoiseCampaignResult
from repro.campaign.scenarios import (
    CutListPopulation,
    EncoderPopulation,
    SpecPopulation,
    TracePopulation,
    deviation_sweep_population,
)
from repro.core.decision import DecisionBand, ThresholdCalibration
from repro.core.multi_signature_batch import MultiSignatureBatch
from repro.core.scratch import SCRATCH
from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch
from repro.core.zones import ZoneEncoder
from repro.filters.biquad import BiquadSpec, spec_arrays
from repro.monitor.bank_encode import (
    ZoneThresholdTable,
    build_threshold_table,
    kernel_key,
)
from repro.obs.metrics import default_registry, record_engine_timings
from repro.obs.profile import STAGE_PREFIX
from repro.obs.trace import span
from repro.signals.multitone import Multitone
from repro.signals.noise import NoiseModel

#: Default Fig. 8 calibration sweep for "auto" decision bands.
DEFAULT_CALIBRATION_DEVIATIONS: Tuple[float, ...] = tuple(
    np.linspace(-0.10, 0.10, 9))

#: Entropy-domain tag ("Nois") mixed into the noise campaign's seed
#: root, so run_noise(seed=s) never draws from the same per-die
#: streams as montecarlo_dies(seed=s) -- measurement noise must stay
#: statistically independent of the process deviations it is measured
#: against, even when both use the same user-facing seed.
NOISE_SEED_DOMAIN = 0x4E6F6973

Population = Union[SpecPopulation, CutListPopulation, EncoderPopulation,
                   TracePopulation, Sequence[BiquadSpec]]

#: The population objects; anything else is raw specs or chunks.
_POPULATION_TYPES = (SpecPopulation, CutListPopulation, EncoderPopulation,
                     TracePopulation)

#: Guards each engine's lazily created shard worker set.
_WORKER_SET_LOCK = threading.Lock()


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that identifies one test configuration.

    Instances are picklable (they travel to pool workers) and define
    the content key under which golden artifacts are cached.
    """

    encoder: ZoneEncoder
    stimulus: Multitone
    golden_spec: BiquadSpec
    samples_per_period: int = 2048
    tolerance: float = 0.05
    calibration_deviations: Tuple[float, ...] = \
        DEFAULT_CALIBRATION_DEVIATIONS
    chunk_size: int = 256
    #: Additional observation channels: each extra encoder re-encodes
    #: the same trace stacks (the front half runs once), producing a
    #: multi-signature campaign whose channel 0 is bit-identical to
    #: the single-channel flow with ``encoder`` alone.
    extra_encoders: Tuple[ZoneEncoder, ...] = ()

    def golden_key(self) -> Tuple:
        """Content key of the golden artifacts for this configuration.

        Golden artifacts depend only on the *primary* encoder -- the
        extra channels have their own goldens keyed through their own
        single-channel configs -- so a multi-signature engine shares
        its channel-0 cache entries with the plain engine.
        """
        return ("golden", stimulus_key(self.stimulus),
                encoder_key(self.encoder), spec_key(self.golden_spec),
                int(self.samples_per_period))

    def checkpoint_key(self) -> str:
        """The ``config_key`` a :class:`StreamCheckpoint` of this
        configuration records.

        ``golden_key()`` names channel 0's bank only, so a
        multi-channel key holds every channel's; a single-channel key
        is the plain golden key.
        """
        keys = tuple(self.channel_config(k).golden_key()
                     for k in range(self.num_channels))
        return repr(keys[0] if len(keys) == 1 else keys)

    @property
    def num_channels(self) -> int:
        """Observation channels (1 + the extra encoders)."""
        return 1 + len(self.extra_encoders)

    def channel_config(self, k: int) -> "CampaignConfig":
        """Single-channel config of channel ``k`` (0 = primary)."""
        if k == 0:
            return replace(self, extra_encoders=()) \
                if self.extra_encoders else self
        return replace(self, encoder=self.extra_encoders[k - 1],
                       extra_encoders=())


class _stage:
    """One pipeline stage: a timing-dict bucket plus a ``stage.*`` span.

    The span and the accumulated ``timing[name]`` measure the same
    block at the same nesting level, which is what makes the
    ``--profile`` cross-check (span sums within 10% of
    ``CampaignResult.timing``) hold by construction.  With tracing
    disabled the span side is the shared no-op span, so the cost over
    the old bare ``perf_counter`` chains is a branch.
    """

    __slots__ = ("_timing", "_name", "_span", "_start")

    def __init__(self, timing: Dict[str, float], name: str,
                 **attributes: object) -> None:
        self._timing = timing
        self._name = name
        self._span = span(STAGE_PREFIX + name, **attributes)

    def __enter__(self) -> "_stage":
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        self._timing[self._name] = \
            self._timing.get(self._name, 0.0) + elapsed
        return self._span.__exit__(exc_type, exc, tb)

    def set(self, **attributes: object) -> "_stage":
        """Attach attributes to the stage's span (no-op untraced)."""
        self._span.set(**attributes)
        return self


#: Smallest spec chunk that takes the certified front half.  A build
#: costs about as much as the exact front half of a hundred or two dies
#: (once per process); a few-die stack -- a calibration sweep, a one-die
#: service lot -- is cheaper to screen exactly than to build for.
CERTIFIED_MIN_ROWS = 64


# ----------------------------------------------------------------------
# Chunk workers (module level: pool executors pickle them).  Each takes
# ``(payload, cache=None)``: pool processes leave ``cache`` unset and
# use the process-wide default cache; in-process executors get the
# engine's own cache (bound by :meth:`CampaignEngine._map`).
# ----------------------------------------------------------------------
def _compute_golden(config: CampaignConfig) -> GoldenArtifacts:
    """Golden trace, codes and signature for one configuration."""
    stimulus = config.stimulus
    period = stimulus.period()
    times = sample_times(period, config.samples_per_period)
    x = np.asarray(stimulus(times), dtype=float)
    y = batch_biquad_traces([config.golden_spec], stimulus, times)[0]
    codes = batch_codes(config.encoder, x, y[None, :])[0]
    signature = Signature.from_samples(times, codes, period)
    return GoldenArtifacts(times, x, y, codes, signature, period)


def _golden_artifacts(config: CampaignConfig,
                      cache: GoldenCache) -> GoldenArtifacts:
    return cache.get_or_compute(config.golden_key(),
                                lambda: _compute_golden(config))


def _channel_encoders(config: CampaignConfig) -> List[ZoneEncoder]:
    return [config.encoder, *config.extra_encoders]


def _zone_tables(config: CampaignConfig, golden: GoldenArtifacts,
                 rows: int) -> List[Optional[ZoneThresholdTable]]:
    """Per-channel threshold tables on the golden grid (None: exact).

    Built once per process per (stimulus, samples, bank) and kept in
    the in-memory :data:`~repro.campaign.cache._FRONT_HALF_CACHE`,
    keyed on the bank's exact kernel inputs
    (:func:`~repro.monitor.bank_encode.kernel_key`).  Spec chunks of
    fewer than :data:`CERTIFIED_MIN_ROWS` dies keep the exact kernels
    and never trigger a build.
    """
    if rows < CERTIFIED_MIN_ROWS:
        return [None] * config.num_channels
    prefix = ("zone_table", stimulus_key(config.stimulus),
              int(config.samples_per_period))
    tables: List[Optional[ZoneThresholdTable]] = []
    for encoder in _channel_encoders(config):
        key = kernel_key(encoder)
        tables.append(None if key is None else
                      _FRONT_HALF_CACHE.get_or_compute(
                          prefix + (key,),
                          lambda encoder=encoder: build_threshold_table(
                              encoder, golden.x)))
    return tables


def _trace_basis(config: CampaignConfig,
                 golden: GoldenArtifacts) -> TraceBasis:
    return _FRONT_HALF_CACHE.get_or_compute(
        ("trace_basis", stimulus_key(config.stimulus),
         int(config.samples_per_period)),
        lambda: trace_basis(config.stimulus, golden.times))


def _golden_frame(config: CampaignConfig, golden: GoldenArtifacts,
                  tables: Sequence[ZoneThresholdTable],
                  basis: TraceBasis) -> GoldenFrame:
    """The golden-relative certificate's golden side (in memory only).

    Keyed like the threshold tables, on the exact kernel inputs of
    every channel, plus the golden spec: two banks a rounding apart
    share a golden cache entry but never a frame, whose golden codes
    come from each bank's own exact kernel.
    """
    key = ("golden_frame", stimulus_key(config.stimulus),
           int(config.samples_per_period), spec_key(config.golden_spec),
           tuple(kernel_key(encoder)
                 for encoder in _channel_encoders(config)))
    return _FRONT_HALF_CACHE.get_or_compute(key, lambda: golden_frame(
        config.golden_spec, config.stimulus, golden.times, golden.x,
        _channel_encoders(config), tables, basis))


def _count_fallback(dies: int) -> None:
    """Dies the certificate could not cover (recomputed exactly).

    Called in the process that owns the campaign (result packaging,
    calibration): chunk workers hand their counts back with their
    outputs, shard workers in the rows they send home.
    """
    default_registry().counter("front_half_fallback_rows_total").inc(
        float(dies))


def _score_code_stack(config: CampaignConfig, golden: GoldenArtifacts,
                      x: np.ndarray, y: np.ndarray,
                      timing: Dict[str, float], collect: bool = False,
                      cache: Optional[GoldenCache] = None
                      ) -> Tuple[np.ndarray,
                                 Union[None, SignatureBatch,
                                       MultiSignatureBatch]]:
    """Encode -> pack -> fleet-NDF one trace stack, timing each stage.

    Every channel encodes the *same* stack through the exact fused
    kernel (:func:`~repro.campaign.batch.batch_codes`), one channel at
    a time as :func:`_score_codes` asks for it.
    """
    dies = int(y.shape[0])

    def planes():
        for k, encoder in enumerate(_channel_encoders(config)):
            channel = {"channel": k} if k else {}
            with _stage(timing, "encode", dies=dies, **channel):
                codes = batch_codes(encoder, x, y)
            yield codes

    return _score_codes(config, golden, planes(), timing, collect, cache)


def _score_codes(config: CampaignConfig, golden: GoldenArtifacts,
                 planes: Iterable[np.ndarray], timing: Dict[str, float],
                 collect: bool = False,
                 cache: Optional[GoldenCache] = None
                 ) -> Tuple[np.ndarray,
                            Union[None, SignatureBatch,
                                  MultiSignatureBatch]]:
    """Pack -> fleet-NDF the code planes of one stack, one per channel.

    ``planes`` yields channel 0's plane, then one per extra encoder; it
    is drawn one channel at a time, so a lazy producer keeps only one
    channel's plane alive.

    With ``collect`` the packed :class:`SignatureBatch` of the stack is
    returned alongside the NDFs (the diagnosis subsystem consumes it);
    otherwise the batch is released with the chunk.

    When the config carries ``extra_encoders``, every extra channel's
    plane (encoded from the *same* traces, so the expensive front half
    runs once) scores against its own cached golden signature.  The
    return then becomes an ``(n, K)`` NDF matrix and, with ``collect``,
    a :class:`MultiSignatureBatch`; channel 0 is computed by exactly
    the single-channel operations, so it stays bit-identical to a
    plain run.
    """
    planes = iter(planes)
    codes = next(planes)
    dies = int(codes.shape[0])
    with _stage(timing, "signature", dies=dies):
        batch = batch_extract(golden.times, codes, golden.period)
    with _stage(timing, "ndf", dies=dies):
        values = batch.ndf_to(golden.signature)
    if not config.extra_encoders:
        return values, (batch if collect else None)
    cache = cache if cache is not None else _PROCESS_CACHE
    columns = [values]
    channels = [batch]
    for k in range(1, config.num_channels):
        sub_golden = _golden_artifacts(config.channel_config(k), cache)
        sub_codes = next(planes)
        with _stage(timing, "signature", dies=dies, channel=k):
            sub_batch = batch_extract(golden.times, sub_codes,
                                      golden.period)
        with _stage(timing, "ndf", dies=dies, channel=k):
            columns.append(sub_batch.ndf_to(sub_golden.signature))
        channels.append(sub_batch)
    stacked = np.stack(columns, axis=1)
    return stacked, (MultiSignatureBatch(channels) if collect else None)


def _spec_chunk_ndfs(payload, cache: Optional[GoldenCache] = None
                     ) -> Tuple[np.ndarray, Dict[str, float],
                                Optional[SignatureBatch], int]:
    """NDFs of a chunk of Biquad design points, object-free.

    ``payload`` is ``(config, specs, collect)``, the specs as
    :class:`~repro.filters.biquad.SpecArrays` (parameter arrays pickle
    cheaply) or a spec list (the kernels convert it through
    :func:`~repro.filters.biquad.spec_arrays`).  When every channel
    has a threshold table, the front half is the certified one
    (:func:`~repro.campaign.batch.certified_spec_codes`: only the
    columns where a die can differ from the golden are synthesized and
    encoded by per-column y thresholds, and every die the error bound
    cannot certify is recomputed exactly); otherwise the exact
    closed-form synthesis
    (:func:`~repro.campaign.batch.batch_biquad_traces`) feeds the
    fused encoders.  Either way the codes, and so everything after
    them, are the exact ones.  The fourth output counts the dies the
    certified path recomputed exactly (0 on the exact path); the
    caller counts it where it packages the result.
    """
    config, specs, collect = payload
    cache = _PROCESS_CACHE if cache is None else cache
    timing: Dict[str, float] = {}
    with _stage(timing, "golden"):
        golden = _golden_artifacts(config, cache)
        tables = _zone_tables(config, golden, len(specs))
        certified = all(table is not None for table in tables)
        if certified:
            basis = _trace_basis(config, golden)
            frame = _golden_frame(config, golden, tables, basis)
    if not certified:
        with _stage(timing, "traces", dies=len(specs)):
            y = batch_biquad_traces(specs, config.stimulus, golden.times)
        values, batch = _score_code_stack(config, golden, golden.x, y,
                                          timing, collect, cache)
        SCRATCH.give(y)  # trace stacks ride pooled buffers; codes are out
        return values, timing, batch, 0
    planes, fallback = certified_spec_codes(
        specs, config.stimulus, golden.times, golden.x,
        _channel_encoders(config), tables, basis, frame,
        stage=lambda name, **attributes: _stage(timing, name,
                                                **attributes))
    values, batch = _score_codes(config, golden, planes, timing, collect,
                                 cache)
    return values, timing, batch, int(fallback.size)


def _trace_rows_ndfs(payload, cache: Optional[GoldenCache] = None
                     ) -> Tuple[np.ndarray, Dict[str, float],
                                Optional[SignatureBatch], int]:
    """NDFs of a slice of trace rows on the shared grid.

    ``payload`` is ``(config, y_rows, collect)``: measured traces, or
    the rows a cut list synthesized.  Rows are encoded exactly, so no
    die is ever recomputed (the fourth output is 0, as
    :func:`_spec_chunk_ndfs` reports it).
    """
    config, y_rows, collect = payload
    cache = _PROCESS_CACHE if cache is None else cache
    timing: Dict[str, float] = {}
    with _stage(timing, "golden"):
        golden = _golden_artifacts(config, cache)
    values, batch = _score_code_stack(config, golden, golden.x,
                                      np.asarray(y_rows), timing,
                                      collect, cache)
    return values, timing, batch, 0


def _noise_chunk_ndfs(payload, cache: Optional[GoldenCache] = None
                      ) -> Tuple[np.ndarray, Dict[str, float]]:
    """Noisy-repeat NDFs of a chunk of dies: an ``(n * R, T)`` stack.

    ``payload`` is ``(config, specs, children, repeats, three_sigma)``.
    Die ``i`` draws all of its ``repeats`` noise realizations (X then Y
    per repeat) from its own spawned seed child, so the matrix is a
    pure function of ``(seed, die index)`` -- chunking, streaming and
    the executor never reshuffle noise, and pool and serial runs are
    bit-identical.
    """
    config, specs, children, repeats, three_sigma = payload
    cache = _PROCESS_CACHE if cache is None else cache
    timing: Dict[str, float] = {}
    with _stage(timing, "golden"):
        golden = _golden_artifacts(config, cache)
    with _stage(timing, "traces", dies=len(specs)):
        y = batch_biquad_traces(specs, config.stimulus, golden.times)
    n, t = y.shape
    with _stage(timing, "noise", dies=n, repeats=repeats):
        sigma = three_sigma / 3.0
        x_stack = np.broadcast_to(golden.x, (n * repeats, t))
        if sigma > 0.0:
            noise = np.empty((n, repeats, 2, t))
            for i, child in enumerate(children):
                rng = np.random.default_rng(child)
                noise[i] = rng.normal(0.0, sigma, size=(repeats, 2, t))
            x_stack = x_stack + noise[:, :, 0, :].reshape(n * repeats, t)
            y_stack = (np.repeat(y, repeats, axis=0)
                       + noise[:, :, 1, :].reshape(n * repeats, t))
        else:
            y_stack = np.repeat(y, repeats, axis=0)
        SCRATCH.give(y)  # repeated stack supersedes the clean traces
    values, __ = _score_code_stack(config, golden, x_stack, y_stack,
                                   timing)
    return values.reshape(n, repeats), timing


def _merge_timing(total: Dict[str, float],
                  section: Dict[str, float]) -> None:
    for key, value in section.items():
        total[key] = total.get(key, 0.0) + value


class CampaignEngine:
    """Runs signature-test campaigns over CUT populations.

    Parameters
    ----------
    config:
        The test configuration (stimulus, encoder, golden nominal).
    cache:
        Golden/calibration cache.  Defaults to a fresh per-engine
        :class:`~repro.campaign.cache.GoldenCache`; pass one
        explicitly to share warm artifacts between engines (channel
        engines and service sessions do); engines share no state
        implicitly.
    executor:
        Chunk scheduler; :class:`SerialExecutor` when omitted.

    The first pipe-mode :meth:`run_sharded` starts the engine's shard
    workers, and every later one leases the same warm processes;
    so do the engines :meth:`with_encoders` and :meth:`channel_engine`
    derive from it (their campaigns re-``init`` the workers with
    their own configuration).  :meth:`close` (or leaving a ``with``
    block) stops them; so does garbage collection of the engine, or
    interpreter exit.  A derived engine's :meth:`close` leaves them
    running.
    """

    def __init__(self, config: CampaignConfig,
                 cache: Optional[GoldenCache] = None,
                 executor=None) -> None:
        self.config = config
        self.cache = cache if cache is not None else GoldenCache()
        self.executor = executor if executor is not None \
            else SerialExecutor()
        self._workers = None  # a repro.shard WorkerSet, once sharded
        self._close_workers = None
        #: The engine whose shard workers this one leases (derived
        #: engines only).
        self._parent: Optional["CampaignEngine"] = None

    def close(self) -> None:
        """Stop the shard workers this engine keeps warm.

        Closes only what the engine owns: a caller's executor and
        cache stay open, and so do the workers a derived engine
        leases from its parent.  The engine stays usable; a later
        sharded campaign starts new workers.
        """
        with _WORKER_SET_LOCK:
            close, self._close_workers = self._close_workers, None
            self._workers = None
        if close is not None:
            close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _worker_set(self):
        """The engine's warm shard workers (created on first use); a
        derived engine's are its parent's."""
        if self._parent is not None:
            return self._parent._worker_set()
        with _WORKER_SET_LOCK:
            if self._workers is None:
                from repro.shard.coordinator import WorkerSet

                self._workers = WorkerSet()
                # Stops the workers at garbage collection or exit too;
                # it holds the set, never the engine.
                self._close_workers = weakref.finalize(
                    self, self._workers.close)
            return self._workers

    @classmethod
    def from_parts(cls, encoder: ZoneEncoder, stimulus: Multitone,
                   golden_spec: BiquadSpec,
                   samples_per_period: int = 2048,
                   tolerance: float = 0.05, **kwargs) -> "CampaignEngine":
        """Engine from loose bench parts (the common construction)."""
        config = CampaignConfig(encoder, stimulus, golden_spec,
                                samples_per_period, tolerance)
        return cls(config, **kwargs)

    # ------------------------------------------------------------------
    # Cached golden artifacts / calibration
    # ------------------------------------------------------------------
    def golden(self) -> GoldenArtifacts:
        """Golden trace + signature (content-cached)."""
        return _golden_artifacts(self.config, self.cache)

    def calibration(self,
                    deviations: Optional[Sequence[float]] = None
                    ) -> ThresholdCalibration:
        """Fig. 8 sweep for this configuration (content-cached).

        Calibration is a property of one channel: the sweep always
        runs through the *primary* encoder alone, so a multi-signature
        engine shares its channel-0 calibration cache entry with the
        plain engine (per-channel thresholds come from
        :meth:`channel_thresholds`).
        """
        config = self.config.channel_config(0)
        devs = tuple(float(d) for d in (
            deviations if deviations is not None
            else config.calibration_deviations))
        key = ("calibration", config.golden_key(), devs)

        def compute() -> ThresholdCalibration:
            population = deviation_sweep_population(
                config.golden_spec, devs)
            values, __, __, fallback = _spec_chunk_ndfs(
                (config, population.specs, False), self.cache)
            _count_fallback(fallback)
            return ThresholdCalibration(np.asarray(devs), values)

        return self.cache.get_or_compute(key, compute)

    def band(self, tolerance: Optional[float] = None) -> DecisionBand:
        """Decision band calibrated for a ground-truth tolerance."""
        tol = float(tolerance) if tolerance is not None \
            else self.config.tolerance
        return self.calibration().band_for_tolerance(tol)

    def channel_engine(self, k: int) -> "CampaignEngine":
        """Single-channel engine of channel ``k`` (shared cache)."""
        return self._derive(self.config.channel_config(k))

    def with_encoders(self, encoders: Sequence[ZoneEncoder]
                      ) -> "CampaignEngine":
        """Engine screening through a list of monitor banks at once.

        ``encoders[0]`` becomes the primary channel (pass the current
        encoder there to keep the channel-0 bit-identity with this
        engine's single-channel results); the rest become extra
        signature channels encoded from the same trace stacks.
        """
        encoders = list(encoders)
        if not encoders:
            raise ValueError("need at least one encoder")
        return self._derive(replace(self.config, encoder=encoders[0],
                                    extra_encoders=tuple(encoders[1:])))

    def _derive(self, config: CampaignConfig) -> "CampaignEngine":
        """An engine over ``config`` that shares this one's cache,
        executor and shard workers."""
        engine = CampaignEngine(config, cache=self.cache,
                                executor=self.executor)
        engine._parent = self._parent or self
        return engine

    def channel_thresholds(self, band: Union[None, str, float,
                                             DecisionBand] = "auto"
                           ) -> Optional[np.ndarray]:
        """Per-channel NDF thresholds under one band policy.

        ``"auto"`` calibrates every channel's own Fig. 8 sweep (each
        encoder sees deviations differently, so thresholds differ per
        channel); a float or :class:`DecisionBand` applies one raw
        threshold to every channel; None disables verdicts.
        """
        if band is None:
            return None
        if band == "auto":
            return np.asarray([
                self.channel_engine(k)._resolve_threshold("auto")
                for k in range(self.config.num_channels)])
        threshold = self._resolve_threshold(band)
        return np.full(self.config.num_channels, float(threshold))

    # ------------------------------------------------------------------
    # Campaign entry points
    # ------------------------------------------------------------------
    def _campaign(self, mode: str):
        """The one ``campaign.submit`` span of a campaign; ``mode``
        names the method that placed it."""
        return span("campaign.submit", mode=mode,
                    executor=getattr(self.executor, "name", "custom"))

    def submit(self, request: ScreeningRequest) -> CampaignResult:
        """Screen one :class:`~repro.campaign.request.ScreeningRequest`
        in process.

        The request is the workload; the method is the placement.
        ``submit`` (and :meth:`run`, its keyword form) screens the lot
        through the parts loop: a population object is one part, and
        any other population is peeked at, so a list or iterator of
        chunks streams like an uncheckpointed :meth:`run_stream`.
        :meth:`run_stream`, :meth:`resume`, :meth:`run_noise` and
        :meth:`run_sharded` place a campaign elsewhere and take their
        placement options as parameters.  Service sessions and the
        coalescing batcher submit requests directly; ``request.client``
        is ignored here -- it is service-layer bookkeeping.

        With tracing enabled (:func:`repro.obs.tracing`) every campaign
        runs under one ``campaign.submit`` span, whose ``mode`` names
        its placement (``run``, ``stream``, ``noise`` or ``sharded``),
        and every pipeline stage opens a ``stage.*`` child; per-campaign
        stage timings also land in the process-default metrics registry
        (``engine_stage_seconds`` histograms) either way.
        """
        if request.encoders is not None:
            # Multi-signature screening is an engine over the listed
            # banks; it leases this engine's workers.
            return self.with_encoders(request.encoders).submit(
                replace(request, encoders=None))
        with self._campaign("run"):
            return self._submit_parts(request.population, request.band,
                                      request.keep_signatures)

    def run(self, population: Union[Population, Iterable],
            band: Union[None, str, float, DecisionBand] = "auto",
            keep_signatures: bool = False,
            encoders: Optional[Sequence[ZoneEncoder]] = None
            ) -> CampaignResult:
        """Screen a whole population and collect fleet statistics.

        ``band`` selects the verdict policy: ``"auto"`` calibrates the
        Fig. 8 band for the configured tolerance, a float is a raw NDF
        threshold, a :class:`DecisionBand` is used as-is and ``None``
        skips verdicts (NDFs only).

        ``keep_signatures`` retains the fleet's packed
        :class:`~repro.core.signature_batch.SignatureBatch` on the
        result (one row per die, in population order), which
        :meth:`CampaignResult.diagnose` feeds to the fault-dictionary
        matcher of :mod:`repro.diagnosis`.

        ``encoders`` switches the campaign to multi-signature
        screening: the population's trace stacks synthesize once and
        every listed monitor bank encodes its own signature channel
        (``encoders[0]`` replaces the configured encoder as channel 0
        -- pass the engine's own encoder there to keep channel 0
        bit-identical to the plain run).  The result then carries
        per-channel NDFs/verdicts, a combined OR-verdict and, with
        ``keep_signatures``, a packed
        :class:`~repro.core.multi_signature_batch.MultiSignatureBatch`.

        The configured executor parallelizes *spec* populations (the
        chunkable fast path), trace stacks and cut lists (their traces
        synthesize in process, then chunk like a trace stack); encoder
        populations always run in process, and the result's
        ``executor`` field reports what actually ran.  Any population
        that is not a population object follows one rule: a first item
        that is a :class:`BiquadSpec` (or no item at all) makes one lot
        of raw specs, and anything else -- a list, generator or
        iterator of population *chunks* -- streams exactly like
        :meth:`run_stream` (bounded memory).
        """
        return self.submit(ScreeningRequest(
            population=population, band=band,
            keep_signatures=keep_signatures, encoders=encoders))

    def run_stream(self, chunks: Iterable,
                   band: Union[None, str, float, DecisionBand] = "auto",
                   keep_signatures: bool = False,
                   encoders: Optional[Sequence[ZoneEncoder]] = None,
                   checkpoint: Optional[str] = None) -> CampaignResult:
        """Screen a stream of population chunks at bounded memory.

        ``chunks`` yields :class:`SpecPopulation` instances (or raw
        spec sequences), e.g. from
        :func:`repro.campaign.scenarios.stream_montecarlo_dies`.  Each
        chunk runs through the configured executor and is released
        before the next is drawn, so peak RSS scales with the chunk
        size, not the fleet size; verdict vectors are bit-identical to
        the monolithic run over the concatenated population.  (With
        ``keep_signatures`` the retained batch grows with the fleet,
        trading the memory bound for diagnosability.)  ``encoders``
        enables multi-signature screening exactly as in :meth:`run`;
        streamed multi-channel results are bit-identical per channel
        to the monolithic multi-channel run.

        ``checkpoint`` names a file making the stream crash-safe:
        accumulated fleet stats plus the next global die index persist
        there after every chunk (one appended, fsynced record), and a
        run that finds an existing checkpoint continues behind it,
        fast-forwarding past the already-screened prefix of the chunk
        stream, which restarts from die 0.  The merged result is
        bit-identical to the uninterrupted run; see :meth:`resume` and
        ``docs/persistence.md``.
        """
        if encoders is not None:
            return self.with_encoders(encoders).run_stream(
                chunks, band, keep_signatures, checkpoint=checkpoint)
        with self._campaign("stream"):
            return self._submit_parts(
                chunks, band, keep_signatures, streamed=True,
                checkpoint=checkpoint)

    def resume(self, checkpoint: str, chunks: Iterable,
               band: Union[None, str, float, DecisionBand] = "auto"
               ) -> CampaignResult:
        """Continue an interrupted checkpointed streamed campaign.

        ``checkpoint`` must exist (an interrupted :meth:`run_stream`
        left it); a missing file raises ``FileNotFoundError`` rather
        than silently starting over -- start-over is what a plain
        checkpointed :meth:`run_stream` does.  ``chunks`` re-supplies
        the population stream restarted from die 0; the engine skips
        the screened prefix.  The returned result is bit-identical
        (NDFs, verdicts, deviations, labels) to the uninterrupted
        run's -- global-index-stable seeding plus chunk-boundary-
        independent scoring make the merge exact.
        """
        from repro.campaign.checkpoint import StreamCheckpoint

        state = StreamCheckpoint.load(checkpoint)  # must exist and parse
        with self._campaign("stream"):
            return self._submit_parts(
                chunks, band, False, streamed=True,
                checkpoint=checkpoint, state=state)

    @staticmethod
    def _lot_or_stream(population) -> Tuple[Iterable, bool]:
        """``(parts, streamed)`` for a population argument.

        A population object is one part.  Anything else is peeked at:
        a first item that is a :class:`BiquadSpec`, or no item, makes
        one part of raw specs; any other first item makes a stream,
        one part per item.
        """
        if isinstance(population, _POPULATION_TYPES):
            return [population], False
        items = iter(population)
        peek = list(itertools.islice(items, 1))
        if peek and not isinstance(peek[0], BiquadSpec):
            return itertools.chain(peek, items), True
        if isinstance(population, Iterator):
            population = list(itertools.chain(peek, items))
        return [population], False

    def _submit_parts(self, population, band, keep_signatures: bool,
                      streamed: bool = False,
                      checkpoint: Optional[str] = None,
                      state=None) -> CampaignResult:
        """The parts loop behind every in-process campaign.

        ``streamed`` takes ``population`` as an iterable of chunks (a
        :meth:`run_stream`); otherwise :meth:`_lot_or_stream` decides.
        A lot is one part and a stream one part per chunk;
        :meth:`_screen_parts` turns each into a one-part record, and
        the loop folds the records into a :class:`StreamCheckpoint`,
        which only a stream with a ``checkpoint`` path ever persists.
        ``state`` is ``checkpoint``'s content when the caller already
        loaded it (:meth:`resume`); otherwise the file is loaded here,
        damage degrading to a fresh start.
        """
        from repro.campaign.checkpoint import StreamCheckpoint
        from repro.testing.faultinject import fail_if_armed

        start = time.perf_counter()
        parts = population
        if not streamed:
            parts, streamed = self._lot_or_stream(population)
        threshold = self._resolve_threshold(band)
        config_key = self.config.checkpoint_key()
        if checkpoint is not None:
            if keep_signatures:
                raise ValueError(
                    "checkpointed streams cannot keep signatures: the "
                    "packed batch is not part of the mergeable "
                    "checkpoint state (run without checkpoint=, or "
                    "without keep_signatures)")
            if state is None:
                state = StreamCheckpoint.load_if_valid(checkpoint)
            if state is not None:
                state.validate(config_key, threshold)
        if state is None:
            state = StreamCheckpoint(config_key, threshold)
        elif state.start_index != 0:
            # Outside input, e.g. a workdir's shard_NNNN.npz.
            raise ValueError(
                f"the checkpoint covers dies from {state.start_index}, "
                "but a stream starts at die 0: its prefix would merge "
                "into a checkpoint that does not contain it")
        # Only spec populations carry ground-truth deviations; encoder
        # populations run in process (their per-die work is one vector
        # op, not worth shipping to a pool).
        deviations = True
        executor = getattr(self.executor, "name", "custom")
        batches: List[Union[SignatureBatch, MultiSignatureBatch]] = []
        # Skip the dies a previous (interrupted) run already screened:
        # the restarted chunk stream re-yields them.
        for part, record, part_batches in self._screen_parts(
                parts, config_key, threshold, skip=state.next_index,
                collect=keep_signatures, specs_only=streamed):
            if not isinstance(part, SpecPopulation):
                deviations = False
                if isinstance(part, EncoderPopulation):
                    executor = "serial"
            batches += part_batches
            state.append(record)
            if checkpoint is not None:
                state.save(checkpoint)
                # Robustness-suite injection point: die *after* the
                # checkpoint landed, before the next chunk is drawn.
                fail_if_armed("stream.chunk.crash")
        if checkpoint is not None:
            state.complete = True
            state.save(checkpoint)
        return self._package_result(
            state, band, start,
            executor + ("+stream" if streamed else ""),
            batches if keep_signatures else None, deviations)

    def _screen_parts(self, parts: Iterable, config_key: str,
                      threshold: Optional[float], offset: int = 0,
                      skip: int = 0, collect: bool = False,
                      specs_only: bool = True) -> Iterator[Tuple]:
        """Screen parts in order: the one per-part screening body.

        A campaign folds what it yields; a shard worker sends each
        record home.  Records carry ``config_key``
        (:meth:`CampaignConfig.checkpoint_key`) and ``threshold``.
        ``offset`` is the global index of the first die
        ``parts`` yields: raw spec-sequence parts number their
        placeholder labels from it, so labels stay unique across a
        stream and its resumed runs.  The first ``skip`` dies are
        dropped unscreened (a resumed stream); ``specs_only`` refuses
        anything but spec populations.  Yields ``(part, record,
        batches)``: the screened population, a one-part
        :class:`StreamCheckpoint` of its rows from their global start
        index (no deviations without ground truth), and its packed
        batches (each None unless ``collect``).
        """
        from repro.campaign.checkpoint import StreamCheckpoint

        seen = 0  # dies drawn from the iterable so far
        for part in parts:
            part = self._as_population(part, first_index=offset + seen)
            if specs_only and not isinstance(part, SpecPopulation):
                raise TypeError("streamed campaigns consume spec "
                                "population chunks")
            n = len(part)
            seen += n
            if skip > 0:
                if n <= skip:  # whole chunk already screened
                    skip -= n
                    continue
                # Partially-screened chunk: resume mid-chunk.  Per-die
                # rows are chunk-boundary independent, so the sliced
                # tail scores bit-identically to its uninterrupted
                # position.
                part = part[skip:]
                skip = 0
            values, timing, batches, fallback = self._score(part, collect)
            record = StreamCheckpoint(config_key, threshold,
                                      start_index=offset + seen - len(part))
            devs = ((part.f0_deviations, part.q_deviations)
                    if isinstance(part, SpecPopulation) else ((), ()))
            record.extend(values, *devs, part.labels, timing,
                          fallback_dies=fallback)
            yield part, record, batches

    def _package_result(self, state, band, start: float, executor: str,
                        batches=None, deviations: bool = True
                        ) -> CampaignResult:
        """Assemble a :class:`CampaignResult` from accumulated state.

        ``state`` is a :class:`StreamCheckpoint`: the parts loop's own,
        or a sharded run's merged one.  ``batches`` are the kept
        packed batches in die order (None: signatures not kept);
        ``deviations=False`` reports no ground truth (trace, cut and
        encoder populations).

        Single-channel values pass through untouched.  An ``(N, K)``
        multi-channel matrix is split: column 0 becomes the result's
        primary ``ndfs``/``verdicts`` (the same floats the
        single-channel flow produces -- the channel-0 contract), the
        full matrix plus per-channel thresholds/verdicts and the
        packed multi batch ride the ``channel_*`` fields.
        """
        values = state.values(self._empty_values())
        threshold = state.threshold
        batch = (None if batches is None
                 else self._concatenate_batches(batches))
        channel_ndfs = channel_thresholds = channel_verdicts = None
        multi_batch = None
        if values.ndim == 2:
            channel_ndfs = values
            channel_thresholds = self.channel_thresholds(band)
            if channel_thresholds is not None:
                channel_verdicts = (channel_ndfs
                                    <= channel_thresholds[None, :])
            values = np.ascontiguousarray(channel_ndfs[:, 0])
            multi_batch = batch
            batch = multi_batch.channel(0) \
                if multi_batch is not None else None
        verdicts = None if threshold is None else values <= threshold
        timing = dict(state.timing)
        timing["total"] = time.perf_counter() - start
        # Terminal result constructor: every run, stream and sharded
        # campaign funnels through here exactly once, so engine-level
        # metrics record here, not in submit().  ``fallback_dies`` came
        # home with the chunk outputs (or the merged checkpoint), so
        # pool and sharded runs count into this process's registry too.
        record_engine_timings(timing)
        _count_fallback(state.fallback_dies)
        return CampaignResult(
            ndfs=values, threshold=threshold, verdicts=verdicts,
            f0_deviations=state.f0_deviations() if deviations else None,
            q_deviations=state.q_deviations() if deviations else None,
            labels=state.labels, tolerance=self.config.tolerance,
            timing=timing, executor=executor,
            cache_info=self.cache.info, signature_batch=batch,
            channel_ndfs=channel_ndfs,
            channel_thresholds=channel_thresholds,
            channel_verdicts=channel_verdicts,
            multi_signature_batch=multi_batch)

    def run_noise(self, population: Union[SpecPopulation,
                                          Sequence[BiquadSpec]],
                  repeats: int = 20,
                  noise: Union[None, float, NoiseModel] = None,
                  seed: int = 0,
                  band: Union[None, str, float, DecisionBand] = "auto"
                  ) -> NoiseCampaignResult:
        """Batched Section IV-C noise campaign: N dies x R repeats.

        Every die is signatured ``repeats`` times under fresh additive
        measurement noise (``noise``: a :class:`NoiseModel`, a raw
        3-sigma volt spread, or None for the paper's 0.015 V).  The
        repeats run as one ``(n * repeats, samples)`` stack per chunk
        through the same packed signature pipeline as the clean
        campaign; the golden signature stays the noise-free reference.
        Noise is seeded per die from
        ``SeedSequence([seed, NOISE_SEED_DOMAIN])`` children -- a
        pure function of ``(seed, die index)``, so results are
        independent of chunking, and a distinct entropy domain from
        the population builders, so noise never correlates with the
        process deviations drawn from the same user seed.

        The ``(die, repeat)`` chunks fan out over the configured
        executor exactly like the clean campaign's spec chunks; since
        chunking never reshuffles the per-die seed children, pool and
        serial runs produce bit-identical NDF matrices (and hence
        detection rates).
        """
        with self._campaign("noise"):
            return self._submit_noise(population, repeats, noise, seed,
                                      band)

    def _submit_noise(self, population, repeats: int, noise, seed: int,
                      band) -> NoiseCampaignResult:
        if self.config.extra_encoders:
            raise ValueError(
                "noise campaigns are single-channel; run them on the "
                "primary engine (channel_engine(0)) -- the "
                "multi-signature dictionary rows stay noise-free "
                "references either way")
        if repeats < 1:
            raise ValueError("need at least one noisy repeat")
        if noise is None:
            three_sigma = NoiseModel().three_sigma
        elif isinstance(noise, NoiseModel):
            three_sigma = noise.three_sigma
        else:
            three_sigma = float(noise)
        start = time.perf_counter()
        population = self._as_population(population)
        if not isinstance(population, SpecPopulation):
            raise TypeError("noise campaigns run over spec populations")
        threshold = self._resolve_threshold(band)
        n = len(population)
        children = np.random.SeedSequence(
            [seed, NOISE_SEED_DOMAIN]).spawn(n)
        size = self._pool_chunk_size(
            n, max(1, self.config.chunk_size // repeats))
        specs = spec_arrays(population.specs)
        outputs = self._map(_noise_chunk_ndfs, [
            (self.config, specs[lo:lo + size],
             tuple(children[lo:lo + size]), repeats, three_sigma)
            for lo in range(0, n, size)])
        timing: Dict[str, float] = {}
        for __, section in outputs:
            _merge_timing(timing, section)
        matrix = (np.concatenate([v for v, __ in outputs], axis=0)
                  if outputs else np.empty((0, repeats)))
        timing["total"] = time.perf_counter() - start
        record_engine_timings(timing)
        return NoiseCampaignResult(
            ndf_matrix=matrix, threshold=threshold,
            labels=list(population.labels),
            tolerance=self.config.tolerance, timing=timing,
            executor=getattr(self.executor, "name", "custom"))

    def run_sharded(self, fleet, shards: int = 2,
                    band: Union[None, str, float, DecisionBand] = "auto",
                    workdir: Optional[str] = None,
                    heartbeat: float = 5.0,
                    workers: Optional[int] = None,
                    listen: Optional[str] = None,
                    autotune_s: Optional[float] = None
                    ) -> CampaignResult:
        """Screen a fleet split across subprocess shard workers.

        ``fleet`` is a :class:`repro.shard.ShardFleet` (or anything
        :func:`repro.shard.as_fleet` accepts: a
        :class:`SpecPopulation` works directly).  The global die-index
        range splits into ``shards`` near-equal shards dispatched to
        ``workers`` subprocess workers (default: one per shard, capped
        at ``shards``), which the engine keeps warm for its next
        sharded campaign (:meth:`close` stops them).  More shards than
        workers gives finer-grained reassignment on worker loss.
        Workers send each screened chunk's rows home; the coordinator
        holds them and merges them in global-index order
        **bit-identical** to the monolithic :meth:`run` /
        :meth:`run_stream` over the same fleet.  A worker that dies or
        stalls past the ``heartbeat`` deadline has its shard
        reassigned, resuming at the first row the coordinator does not
        hold.  See ``docs/sharding.md``.  Extra channels
        (:meth:`with_encoders`) shard too; the result carries no
        packed signatures.

        The band policy resolves *once* here (the coordinator
        process); workers receive the raw threshold, so calibration
        never runs N times.  ``workdir`` names a directory that
        receives each shard's merged checkpoint log
        (``shard_NNNN.npz``) after a clean campaign; with None nothing
        is written.

        ``listen="HOST:PORT"`` runs the campaign multi-node: instead
        of spawning subprocesses the coordinator accepts ``repro
        shard-worker --connect`` processes over TCP; an explicit
        ``workers`` then holds dispatch until that many workers have
        connected.  ``autotune_s`` replaces the static plan with shards
        carved to roughly that many seconds of each worker's observed
        rate.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if autotune_s is not None and autotune_s <= 0:
            raise ValueError("autotune_s must be positive")
        with self._campaign("sharded"):
            return self._submit_sharded(fleet, shards, band, workdir,
                                        heartbeat, workers, listen,
                                        autotune_s)

    def _submit_sharded(self, fleet, shards: int, band,
                        workdir: Optional[str], heartbeat: float,
                        workers: Optional[int], listen: Optional[str],
                        autotune_s: Optional[float]) -> CampaignResult:
        from repro.shard import as_fleet
        from repro.shard.coordinator import ShardCoordinator

        start = time.perf_counter()
        fleet = as_fleet(fleet)
        threshold = self._resolve_threshold(band)
        endpoint = None
        if listen is not None:
            from repro.shard.transport import parse_endpoint
            endpoint = parse_endpoint(listen)
        coordinator = ShardCoordinator(
            config=self.config, threshold=threshold, fleet=fleet,
            shards=shards, workers=workers, workdir=workdir,
            heartbeat=heartbeat, listen=endpoint,
            autotune_target_s=autotune_s,
            worker_set=None if endpoint is not None
            else self._worker_set())
        merged, stats = coordinator.run()
        merged.timing["merge"] = float(stats.get("merge_seconds", 0.0))
        mode = "sharded-tcp" if endpoint is not None else "sharded"
        result = self._package_result(
            merged, band, start, f"{mode}[{coordinator.num_workers}]")
        result.shard_stats = stats
        return result

    # ------------------------------------------------------------------
    # Population runners
    # ------------------------------------------------------------------
    @staticmethod
    def _as_population(population, first_index: int = 0):
        """Wrap raw spec sequences; pass population objects through.

        ``first_index`` numbers the placeholder labels globally when a
        stream wraps one raw chunk after another.
        """
        if isinstance(population, _POPULATION_TYPES):
            return population
        return SpecPopulation.from_specs(population, first_index)

    def _resolve_threshold(self, band) -> Optional[float]:
        if band is None:
            return None
        if isinstance(band, DecisionBand):
            return band.threshold
        if band == "auto":
            return self.band().threshold
        return float(band)

    def _pool_chunk_size(self, n: int, chunk_size: int) -> int:
        """Shrink chunks so a pool's workers all get work.

        Chunking never changes results -- populations are pre-seeded
        per die -- only scheduling; serial executors keep the
        configured chunk size.
        """
        workers = getattr(self.executor, "max_workers", None)
        if workers and workers > 1:
            per_worker = -(-n // workers)  # ceil division
            chunk_size = max(1, min(chunk_size, per_worker))
        return chunk_size

    def _empty_values(self) -> np.ndarray:
        """NDF array of an empty population (1-D or ``(0, K)``)."""
        if self.config.extra_encoders:
            return np.empty((0, self.config.num_channels))
        return np.empty(0)

    def _concatenate_batches(self, parts
                             ) -> Union[SignatureBatch,
                                        MultiSignatureBatch]:
        """Row-stack kept chunk batches, channel-shape aware.

        A lone batch is returned as-is; no batches give the empty
        batch of this engine's channel count.
        """
        if len(parts) == 1:
            return parts[0]
        if not self.config.extra_encoders:
            return SignatureBatch.concatenate(parts)
        if not parts:
            return MultiSignatureBatch.empty(self.config.num_channels)
        return MultiSignatureBatch.concatenate(parts)

    def _map(self, worker, payloads: Sequence) -> List:
        """Run a chunk worker over its payloads on the executor.

        Results come back in payload order.  Pool workers use their
        process-wide cache; in-process executors share this engine's.
        """
        if not getattr(self.executor, "needs_picklable_work", False):
            worker = functools.partial(worker, cache=self.cache)
        return self.executor.map(worker, payloads)

    def _score(self, part, collect: bool = False
               ) -> Tuple[np.ndarray, Dict[str, float], List, int]:
        """Screen one part: NDFs, stage timings, batches, fallbacks.

        Spec and trace rows chunk over the executor through
        :meth:`_map`: specs travel as parameter arrays
        (:class:`~repro.filters.biquad.SpecArrays`), so no per-die
        object is pickled.  A cut list becomes trace rows here
        (:func:`~repro.campaign.batch.cut_traces`, in process) and
        then chunks like any measured stack.  Encoder populations run
        in process.  The third output lists the chunks' packed batches
        in die order (each None unless ``collect``); the last sums the
        dies the certified front half recomputed exactly.
        """
        if isinstance(part, EncoderPopulation) \
                and self.config.extra_encoders:
            raise ValueError(
                "encoder populations vary the primary monitor bank "
                "per die; extra signature channels are ambiguous here "
                "-- run them single-channel")
        if len(part) == 0:
            return self._empty_values(), {"golden": 0.0}, [], 0
        if isinstance(part, EncoderPopulation):
            return self._run_encoders(part, collect)
        timing: Dict[str, float] = {}
        stack = None
        if isinstance(part, CutListPopulation):
            with _stage(timing, "traces", dies=len(part)):
                stack = cut_traces(part.cuts, self.config.stimulus,
                                   self.golden().times)
            part = TracePopulation(stack, part.labels)
        if isinstance(part, SpecPopulation):
            rows, worker = spec_arrays(part.specs), _spec_chunk_ndfs
        else:
            rows, worker = part.y_stack, _trace_rows_ndfs
        size = self._pool_chunk_size(len(rows), self.config.chunk_size)
        outputs = self._map(worker, [
            (self.config, rows[lo:lo + size], collect)
            for lo in range(0, len(rows), size)])
        if stack is not None:
            SCRATCH.give(stack)  # the codes are out; recycle the stack
        for output in outputs:
            _merge_timing(timing, output[1])
        values = np.concatenate([output[0] for output in outputs])
        return (values, timing, [output[2] for output in outputs],
                sum(output[3] for output in outputs))

    def _run_encoders(self, population: EncoderPopulation,
                      collect: bool = False
                      ) -> Tuple[np.ndarray, Dict[str, float],
                                 List[Optional[SignatureBatch]], int]:
        """One fault-free CUT seen through N varied monitor banks.

        The golden signature stays the *nominal*-bank reference, so the
        returned NDFs quantify the test margin the monitor's own
        variability consumes (the seed's per-die loop re-derived the
        golden through each varied bank and therefore measured exactly
        zero).  Encoding still runs per bank (each bank draws its own
        boundaries), but the signatures of all banks pack into one
        batch and score through the fleet-NDF kernel
        (:func:`_score_codes`).  Returns :meth:`_score`'s outputs for a
        non-empty population.
        """
        timing: Dict[str, float] = {}
        with _stage(timing, "golden"):
            golden = self.golden()
        with _stage(timing, "encode", dies=len(population)):
            code_stack = np.stack(
                [batch_codes(encoder, golden.x, golden.y[None, :])[0]
                 for encoder in population.encoders])
        values, batch = _score_codes(self.config, golden, [code_stack],
                                     timing, collect, self.cache)
        return values, timing, [batch], 0
