"""Population builders: what a campaign iterates over.

A campaign screens one of four population kinds:

* :class:`SpecPopulation` -- N Biquad design points (Monte Carlo dies,
  deviation sweeps, parameter grids, corner lists).  This is the
  vectorized fast path: the closed-form transfer of all N dies
  broadcasts per tone and the whole ``(N, samples)`` trace stack
  synthesizes in one buffered pass
  (:func:`repro.campaign.batch.batch_biquad_traces`) -- no per-die
  filter or signal objects exist anywhere.
* :class:`CutListPopulation` -- N linear CUT objects with
  ``response()``.  :func:`repro.campaign.batch.cut_traces` turns them
  into trace rows (fault dictionaries and other same-topology netlist
  stacks through one batched MNA sweep per tone frequency), which then
  score exactly like a :class:`TracePopulation`.
* :class:`EncoderPopulation` -- one fault-free CUT observed through N
  varied monitor banks (process Monte Carlo, temperature corners).  The
  trace is computed once and re-encoded per bank.
* :class:`TracePopulation` -- N already-measured response traces on the
  shared capture grid (instrument dumps, transient simulations).  Only
  the encode/signature/NDF back half runs, and the stack's rows
  chunk over the executor like spec chunks do.

All Monte Carlo builders use :class:`numpy.random.SeedSequence` spawning
for per-die seeding: die ``i`` of seed ``s`` draws the same parameters
regardless of the population size or of how the executor chunks the
work.  For fleets larger than memory, :func:`stream_montecarlo_dies`
yields the same dies as :func:`montecarlo_dies` -- same seeds, same
order -- in bounded-size :class:`SpecPopulation` chunks that a
streaming campaign consumes one at a time.

numpy's per-die path (:func:`_per_die_deviations`) defines die ``i``.
Ranges of :data:`ARRAY_MIN_DIES` dies or more evaluate the same draws
as arrays over the whole range: the ``SeedSequence`` hash, PCG64's
seeding, LCG steps and XSL-RR output as ``uint64`` arithmetic, then
the first try of numpy's normal ziggurat, with tables read from numpy
itself once per process.  Only a die with a draw not proven accepted
on that first try (1.5-3.5% of dies) is redrawn through numpy's own
``normal()``.  A probe checks the array evaluation
against the per-die path once per process; on a mismatch every later
range draws per die and counts its dies in
``montecarlo_fallback_dies_total``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.zones import ZoneEncoder
from repro.devices.mos_model import NMOS_65NM
from repro.devices.process import MonteCarloSampler
from repro.devices.temperature import at_temperature
from repro.filters.biquad import BIQUAD_KINDS, BiquadSpec, SpecSequence
from repro.filters.faults import Fault, catastrophic_fault_universe
from repro.filters.towthomas import TowThomasValues
from repro.monitor.comparator import MonitorBoundary
from repro.monitor.configurations import table1_bank
from repro.monitor.montecarlo import bank_samples
from repro.obs.metrics import default_registry
from repro.obs.trace import NULL_SPAN, span


@dataclass
class SpecPopulation:
    """N Biquad design points plus per-die ground-truth metadata.

    ``specs`` keeps the design points as parameter columns (a spec
    list converts on construction; see
    :class:`~repro.filters.biquad.SpecSequence`), so a population
    slices and concatenates as arrays and builds a
    :class:`BiquadSpec` only where one is indexed.
    """

    specs: SpecSequence
    f0_deviations: np.ndarray
    q_deviations: np.ndarray
    labels: List[str]

    def __post_init__(self) -> None:
        self.specs = SpecSequence.from_specs(self.specs)
        n = len(self.specs)
        self.f0_deviations = np.asarray(self.f0_deviations, dtype=float)
        self.q_deviations = np.asarray(self.q_deviations, dtype=float)
        if (self.f0_deviations.shape != (n,)
                or self.q_deviations.shape != (n,)
                or len(self.labels) != n):
            raise ValueError("metadata must align with the spec list")

    @classmethod
    def from_specs(cls, specs: Sequence[BiquadSpec],
                   first_index: int = 0) -> "SpecPopulation":
        """Raw specs with NaN deviations and labels ``die{i:05d}``
        numbered from ``first_index``."""
        specs = list(specs)
        return cls(specs, np.full(len(specs), np.nan),
                   np.full(len(specs), np.nan),
                   [f"die{first_index + i:05d}"
                    for i in range(len(specs))])

    @classmethod
    def concatenate(cls, parts: Sequence["SpecPopulation"]
                    ) -> "SpecPopulation":
        """One population from many, rows in order."""
        parts = list(parts)
        return cls(SpecSequence.concatenate([p.specs for p in parts]),
                   np.concatenate([p.f0_deviations for p in parts]
                                  or [np.empty(0)]),
                   np.concatenate([p.q_deviations for p in parts]
                                  or [np.empty(0)]),
                   [label for p in parts for label in p.labels])

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, rows: slice) -> "SpecPopulation":
        """Dies ``rows`` (a slice), every per-die field sliced alike."""
        if not isinstance(rows, slice):
            raise TypeError("a population slices by die range only")
        return SpecPopulation(self.specs[rows], self.f0_deviations[rows],
                              self.q_deviations[rows], self.labels[rows])


@dataclass
class CutListPopulation:
    """N linear CUTs with ``response()`` (lissajous-only CUTs screen
    die by die with :class:`repro.core.testflow.SignatureTester`)."""

    cuts: List[object]
    labels: List[str]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.cuts):
            raise ValueError("labels must align with the cut list")

    def __len__(self) -> int:
        return len(self.cuts)


@dataclass
class TracePopulation:
    """N captured response traces ``(N, samples)`` on the shared grid.

    ``y_stack`` rows are Y-channel samples on the campaign's capture
    grid (the X channel is the shared stimulus).  This is the entry
    point for screening *measured* waveforms: no CUT model is
    evaluated, only the encode -> signature -> NDF back half runs.
    """

    y_stack: np.ndarray
    labels: List[str]

    def __post_init__(self) -> None:
        self.y_stack = np.atleast_2d(np.asarray(self.y_stack,
                                                dtype=float))
        if len(self.labels) != self.y_stack.shape[0]:
            raise ValueError("labels must align with the trace stack")

    def __len__(self) -> int:
        return self.y_stack.shape[0]


def trace_population(y_stack: np.ndarray,
                     labels: Optional[Sequence[str]] = None
                     ) -> TracePopulation:
    """Wrap a measured ``(N, samples)`` stack as a population."""
    y_stack = np.atleast_2d(np.asarray(y_stack, dtype=float))
    if labels is None:
        labels = [f"trace{i:05d}" for i in range(y_stack.shape[0])]
    return TracePopulation(y_stack, list(labels))


@dataclass
class EncoderPopulation:
    """N varied zone encoders observing one fault-free CUT."""

    encoders: List[ZoneEncoder]
    labels: List[str]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.encoders):
            raise ValueError("labels must align with the encoder list")

    def __len__(self) -> int:
        return len(self.encoders)


# ----------------------------------------------------------------------
# Monte Carlo dies
# ----------------------------------------------------------------------
#: Smallest die range drawn as arrays.  The array evaluation costs a
#: fixed ~35 us of numpy dispatch per range (33-37 us at 1-8 dies,
#: redraws included), numpy's per-die path ~13 us per die: they break
#: even at 3 dies (2 vCPUs, numpy 2.4; `_array_deviations` against
#: `_per_die_deviations`, interleaved, 64 ranges per size).
ARRAY_MIN_DIES = 3

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the
# PCG64 LCG multiplier (numpy/random/src/pcg64/pcg64.h), with its
# inverse mod 2**128.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)

# Array operands are 0-d arrays, numpy's cheapest kind of scalar.
_MIX_L, _MIX_R, _16 = (np.array(v, np.uint32)
                       for v in (0xCA01F9DD, 0x4973F715, 16))
_U9, _U32, _U58, _U63, _U64 = (np.array(v, np.uint64)
                               for v in (9, 32, 58, 63, 64))
_SIGNED_LAYER, _MAGNITUDE = (np.array(v, np.uint64)
                              for v in (0x1FF, (1 << 52) - 1))


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, first: int,
                    calls: int) -> np.ndarray:
    """``(2, calls, 1)`` xor and multiply words of hash calls
    ``first..first+calls-1`` (the multiplier advances once per call)."""
    const = init * pow(mult, first, 1 << 32) & _MASK32
    out = np.empty((2, calls, 1), np.uint32)
    for t in range(calls):
        out[0, t] = const
        const = const * mult & _MASK32
        out[1, t] = const
    out.flags.writeable = False
    return out


#: ``generate_state``'s constants for PCG64's eight seed words, as two
#: rounds over the four pool words.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 0, 8).reshape(
    2, 2, 4, 1)


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    value = (value ^ constants[0]) * constants[1]
    return value ^ (value >> _16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _16)


def _entropy_words(entropy) -> int:
    """How many ``uint32`` words numpy's SeedSequence makes of
    ``entropy`` (an int, or a sequence of ints)."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, (int(entropy).bit_length() + 31) // 32)
    return sum(_entropy_words(part) for part in entropy)


@functools.lru_cache(maxsize=16)
def _root_pool(seed) -> Tuple[np.ndarray, np.ndarray]:
    """``SeedSequence(seed)``'s pool as a ``(4, 1)`` column, and the
    hash constants its children's spawn keys mix with (an int seed's
    are cached)."""
    root = np.random.SeedSequence(seed)
    calls = 16 + 4 * max(0, _entropy_words(root.entropy) - 4)
    pool = root.pool[:, None]
    pool.flags.writeable = False
    return pool, _hash_constants(_INIT_A, _MULT_A, calls, 8)


def _pcg64_seeds(seed, lo: int, hi: int) -> np.ndarray:
    """What PCG64 seeds from, for every die of ``lo..hi-1`` at once:
    ``(n, 4)`` ``uint64``, row ``k`` the words of
    ``generate_state(4, np.uint64)`` on ``seed_children(seed, lo,
    hi)[k]``.

    A child's pool is the root pool mixed further with its spawn-key
    words (one below ``2**32``, two from there), the hash multiplier
    carrying on where the root's mixing left it; each ``uint32`` pass
    here covers every die of the range.
    """
    root, key = _root_pool(seed) if type(seed) is int \
        else _root_pool.__wrapped__(seed)
    index = np.arange(lo, hi, dtype=np.uint64)
    pool = _mix(root, _hashmix(index.astype(np.uint32), key[:, :4]))
    wide = max(0, min(hi, 1 << 32) - lo)  # first two-word key
    if wide < hi - lo:
        pool[:, wide:] = _mix(pool[:, wide:], _hashmix(
            (index[wide:] >> _U32).astype(np.uint32), key[:, 4:]))
    words = _hashmix(pool, _STATE_CONSTANTS).reshape(8, -1)
    return words.T.astype("<u4", order="C").view("<u8")


@functools.lru_cache(maxsize=2)
def _state_map(draws: int) -> Tuple[np.ndarray, np.ndarray]:
    """The PCG64 states of a generator's first ``draws`` draws as one
    linear map of its seed words: a ``(4 draws, 16)`` matrix and a
    ``(4 draws, 1)`` offset.

    ``pcg64_set_seed`` then ``d`` LCG steps take state ``s`` and
    stream ``i`` (``inc = 2 i + 1``) to ``s M**(d+1) + inc (1 + M +
    ... + M**(d+1))`` mod ``2**128``.  Row ``4 (d-1) + u`` weights the
    16-bit limbs of a :func:`_pcg64_seeds` row by what their multiplier
    adds to the state's 32-bit digit ``u``, and the offset adds the
    constant term's digit.  Each product is below ``2**48`` and each
    row sum below ``2**53``, so a float64 product forms the digits'
    sums exactly.
    """
    # Where each 16-bit limb of a seed row (s_hi, s_lo, i_hi, i_lo,
    # little-endian) sits in its 128-bit number, in 16-bit places.
    place = [limb % 4 + 4 * (limb // 4 % 2 == 0) for limb in range(16)]
    matrix = np.zeros((4 * draws, 16))
    offset = np.zeros((4 * draws, 1))
    power, total = _PCG_MULT, 1 + _PCG_MULT  # after pcg64_set_seed
    for draw in range(draws):
        power = power * _PCG_MULT & _MASK128
        total = (total + power) & _MASK128
        for digit in range(4):
            row = 4 * draw + digit
            offset[row] = total >> 32 * digit & _MASK32
            for limb in range(16):
                weight = power if limb < 8 else 2 * total
                matrix[row, limb] = (weight << 16 * place[limb]
                                     >> 32 * digit) & _MASK32
    matrix.flags.writeable = offset.flags.writeable = False
    return matrix, offset


def _pcg64_words(seeds: np.ndarray, draws: int) -> np.ndarray:
    """``(draws, n)`` ``uint64``: the first ``draws`` words numpy's
    PCG64 outputs after seeding from each row of ``seeds``.

    The states' 32-bit digit sums (:func:`_state_map`) carry into
    64-bit halves, which XSL-RR turns into each draw's output.
    """
    matrix, offset = _state_map(draws)
    digits = (matrix @ seeds.view("<u2").T + offset).astype(np.uint64)
    digits = digits.reshape(draws, 4, -1)
    carry = ((digits[:, 0] >> _U32) + digits[:, 1]) >> _U32
    halves = digits[:, 0::2] + (digits[:, 1::2] << _U32)
    low, high = halves[:, 0], halves[:, 1] + carry
    low ^= high
    rot = high >> _U58
    return (low >> rot) | (low << ((_U64 - rot) & _U63))


def _first_try_normal(generator: np.random.Generator,
                      word: int) -> Optional[float]:
    """``generator.standard_normal()`` with ``word`` as its PCG64's next
    output, or None when that draw read more than the one word (numpy's
    ziggurat did not accept it on its first try)."""
    bits = generator.bit_generator
    # With inc 1 the next step lands on ``word`` itself; its high half
    # of 0 makes XSL-RR output the low half unrotated.
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": (word - 1) * _PCG_MULT_INV & _MASK128,
                            "inc": 1},
                  "has_uint32": 0, "uinteger": 0}
    value = generator.standard_normal()
    return value if bits.state["state"]["state"] == word else None


#: How far below ``wi[i-1] / wi[i]`` a layer's proven bound is taken.
_KI_MARGIN = 1 << 20
_ziggurat_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _ziggurat() -> Tuple[np.ndarray, np.ndarray]:
    """numpy's normal ziggurat as the array path draws from it:
    ``wi`` and ``limit`` per layer, read from numpy once per process.

    ``random_standard_normal`` (numpy/random/src/distributions/
    distributions.c) takes layer ``i = word & 0xff``, sign bit 8 and
    the 52-bit magnitude above it, and on its first try returns
    ``magnitude * wi[i]`` iff the magnitude is below ``ki[i]``;
    otherwise it reads more words.  Layer ``i``'s ``wi`` is the draw of
    magnitude 1.  ``ki[i]`` is ``wi[i-1] / wi[i]`` (``wi[255] / wi[0]``
    for the base) in 52-bit fixed point, so ``limit`` is taken a margin
    below that and kept only if the draw of magnitude ``limit - 1`` took
    one word and returned its product: every magnitude below it is then
    accepted on the first try.  A layer whose probe fails keeps limit 0
    and is always redrawn.
    """
    global _ziggurat_tables
    if _ziggurat_tables is None:
        # A private generator: service handler threads draw lots at once.
        first = functools.partial(_first_try_normal,
                                  np.random.Generator(np.random.PCG64(0)))
        wi = np.array([first(1 << 9 | layer) for layer in range(256)],
                      dtype=float)
        limit = np.zeros(256, np.uint64)
        for layer in range(256):
            bound = min(wi[layer - 1] / wi[layer], 1.0) * 2.0 ** 52 \
                - _KI_MARGIN
            if bound >= 2 and first(int(bound) - 1 << 9 | layer) \
                    == (int(bound) - 1) * wi[layer]:
                limit[layer] = int(bound)
        # Indexed by the word's low 9 bits: layer, then sign.
        _ziggurat_tables = np.concatenate([wi, -wi]), \
            np.concatenate([limit, limit])
    return _ziggurat_tables


def _array_deviations(seed, lo: int, hi: int, sigma_f0: float,
                      sigma_q: float, build=NULL_SPAN) -> np.ndarray:
    """Dies ``lo..hi-1`` drawn like :func:`_per_die_deviations`.

    Every die's PCG64 words (:func:`_pcg64_words`) and numpy's first
    ziggurat try on them (:func:`_ziggurat`) run as arrays over the
    range.  A die with a draw not proven accepted on that first try is
    redrawn through numpy's own ``normal()`` from its seeded state;
    ``build`` (the range's span) records how many as ``redrawn``.
    """
    sigmas = [sigma for sigma in (sigma_f0, sigma_q) if sigma > 0]
    devs = np.zeros((2, hi - lo))
    redraw: List[int] = []
    if sigmas and hi > lo:
        seeds = _pcg64_seeds(seed, lo, hi)
        words = _pcg64_words(seeds, len(sigmas))
        wi, limit = _ziggurat()
        layer = words & _SIGNED_LAYER
        magnitude = (words >> _U9) & _MAGNITUDE
        normals = magnitude.astype(float) * wi[layer]
        normals *= np.array(sigmas)[:, None]
        normals += 0.0  # numpy's loc: a -0.0 draw gives +0.0
        first = 0 if sigma_f0 > 0 else 1
        devs[first:first + len(sigmas)] = normals
        unproven = magnitude >= limit[layer]
        if unproven.any():
            redraw = np.flatnonzero(unproven.any(axis=0)).tolist()
            _redraw(devs, redraw, seeds[redraw].tolist(), sigma_f0,
                    sigma_q)
    build.set(redrawn=len(redraw))
    return devs


def _redraw(devs: np.ndarray, dies: List[int], seeds: List[List[int]],
            sigma_f0: float, sigma_q: float) -> None:
    """Draw ``dies`` (columns of ``devs``) through numpy's own
    ``normal()``, each from the PCG64 state ``pcg64_set_seed`` makes of
    its seed words (``seeds``, one row per die)."""
    # A private generator: service handler threads draw lots at once.
    generator = np.random.Generator(np.random.PCG64(0))
    bits, normal = generator.bit_generator, generator.normal
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
             "uinteger": 0}
    for die, (s_hi, s_lo, i_hi, i_lo) in zip(dies, seeds):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        pcg["state"] = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT
                        + inc) & _MASK128
        pcg["inc"] = inc
        bits.state = state
        if sigma_f0 > 0:
            devs[0, die] = normal(0.0, sigma_f0)
        if sigma_q > 0:
            devs[1, die] = normal(0.0, sigma_q)


def _per_die_deviations(seed, lo: int, hi: int, sigma_f0: float,
                        sigma_q: float) -> np.ndarray:
    """Dies ``lo..hi-1`` the way that defines them: each die's own
    ``default_rng``, ``normal(0, sigma_f0)`` then ``normal(0,
    sigma_q)``, each only when its sigma is positive."""
    draws: List[float] = []
    for child in seed_children(seed, lo, hi):
        rng = np.random.default_rng(child)
        draws.append(rng.normal(0.0, sigma_f0) if sigma_f0 > 0 else 0.0)
        draws.append(rng.normal(0.0, sigma_q) if sigma_q > 0 else 0.0)
    return np.array([draws[0::2], draws[1::2]], dtype=float)


#: Ranges the array evaluation must reproduce before a process uses
#: it: a small seed whose range redraws a die, a seed beyond 128 bits,
#: indices on both sides of ``2**32``; drawn with ``sigma_q`` on.
_PROBES = ((12, 0, 3), (2 ** 160 + 12345, 2 ** 32 - 2, 2 ** 32 + 2))
_arrays_agree: Optional[bool] = None


def _array_draws_agree() -> bool:
    """Whether the array evaluation matched numpy's per-die path on
    :data:`_PROBES` (checked once per process)."""
    global _arrays_agree
    if _arrays_agree is None:
        try:
            _arrays_agree = all(
                _array_deviations(*probe, 0.03, 0.02).tobytes()
                == _per_die_deviations(*probe, 0.03, 0.02).tobytes()
                for probe in _PROBES)
        except (AttributeError, KeyError, TypeError, ValueError):
            _arrays_agree = False  # a numpy whose seeding API moved
    return _arrays_agree


def _die_population(golden_spec: BiquadSpec, seed, lo: int, hi: int,
                    sigma_f0: float, sigma_q: float) -> SpecPopulation:
    """Dies ``lo..hi-1`` of ``seed``, labelled globally."""
    count = hi - lo
    with span("population.build", dies=count, lo=lo) as build:
        arrays = False
        if count >= ARRAY_MIN_DIES:
            arrays = _array_draws_agree()
            default_registry().counter(
                "montecarlo_fallback_dies_total").inc(
                    0.0 if arrays else float(count))
        build.set(path="arrays" if arrays else "per_die")
        devs = _array_deviations(seed, lo, hi, sigma_f0, sigma_q, build) \
            if arrays else _per_die_deviations(seed, lo, hi, sigma_f0,
                                               sigma_q)
        # Elementwise, the float operations of with_f0_deviation and
        # with_q_deviation; where a die is invalid (or NaN), those
        # methods run die by die and raise their own errors.
        columns = np.array([[golden_spec.f0_hz], [golden_spec.q]]) \
            * (1.0 + devs)
        if count and not columns.min() > 0:
            for f0_dev, q_dev in devs.T.tolist():
                golden_spec.with_f0_deviation(f0_dev) \
                    .with_q_deviation(q_dev)
        gain = np.empty(count)
        gain.fill(golden_spec.gain)
        kind = np.empty(count, np.int8)
        kind.fill(BIQUAD_KINDS.index(golden_spec.kind))
        labels = [f"die{i:05d}" for i in range(lo, hi)]
    return SpecPopulation(SpecSequence(columns[0], columns[1], gain, kind),
                          devs[0], devs[1], labels)


def montecarlo_dies(golden_spec: BiquadSpec, count: int,
                    sigma_f0: float = 0.03, sigma_q: float = 0.0,
                    seed: int = 0) -> SpecPopulation:
    """Process-spread production dies, deterministically seeded.

    Die ``i`` draws from ``SeedSequence(seed).spawn()[i]``, so its
    deviations are a pure function of ``(seed, i)`` -- growing the
    population or re-chunking the executor never reshuffles dies.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return _die_population(golden_spec, seed, 0, count, sigma_f0,
                           sigma_q)


def seed_children(seed: int, lo: int, hi: int) -> List:
    """Seed children ``lo..hi`` of root ``seed``, by global index.

    ``SeedSequence.spawn`` numbers its children globally -- child
    ``i`` is ``SeedSequence(entropy=seed, spawn_key=(i,))`` no matter
    how the spawn calls were batched -- so any contiguous range of a
    fleet's per-die seeds can be reconstructed directly.  This is what
    makes checkpoint/resume bit-identical: a campaign resumed at die
    ``k`` draws exactly the dies the uninterrupted run would have
    (equivalence is locked down by
    ``tests/robustness/test_checkpoint_resume.py``).
    """
    # A non-negative int is its own entropy; anything else (None, a
    # list) resolves through a root SeedSequence.
    entropy = seed if isinstance(seed, (int, np.integer)) and seed >= 0 \
        else np.random.SeedSequence(seed).entropy
    return [np.random.SeedSequence(entropy=entropy, spawn_key=(i,))
            for i in range(lo, hi)]


def fixed_seed(seed):
    """``seed``, with None resolved to fresh root entropy (an int).

    A ``seed=None`` fleet is one fleet only if its entropy is drawn
    once: every range drawn under ``None`` itself would start from new
    OS entropy.
    """
    return int(np.random.SeedSequence().entropy) if seed is None \
        else seed


def stream_montecarlo_dies(golden_spec: BiquadSpec, count: int,
                           chunk_size: int = 1024,
                           sigma_f0: float = 0.03, sigma_q: float = 0.0,
                           seed: int = 0, start: int = 0):
    """Generator form of :func:`montecarlo_dies` for bounded memory.

    Yields :class:`SpecPopulation` chunks of at most ``chunk_size``
    dies.  :class:`numpy.random.SeedSequence` numbers its spawned
    children across successive ``spawn`` calls, so die ``i`` of the
    stream draws from exactly the same child as die ``i`` of the
    monolithic builder -- a streamed campaign's verdict vector is
    bit-identical to the one-shot run, while only ``chunk_size``
    dies ever exist at once.

    ``start`` begins the stream mid-fleet: dies ``start..count-1``
    are yielded with the same seeds and labels they would have had
    from die 0 (children reconstruct by global index via
    :func:`seed_children`).  A resumed checkpointed campaign uses
    this to skip the already-screened prefix without re-drawing it.
    ``seed=None`` draws one root entropy for the whole stream.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk size must be >= 1")
    if start < 0:
        raise ValueError("start must be non-negative")
    seed = fixed_seed(seed)
    emitted = start
    while emitted < count:
        take = min(chunk_size, count - emitted)
        yield _die_population(golden_spec, seed, emitted, emitted + take,
                              sigma_f0, sigma_q)
        emitted += take


# ----------------------------------------------------------------------
# Spec population builders
# ----------------------------------------------------------------------
def deviation_sweep_population(golden_spec: BiquadSpec,
                               deviations: Sequence[float],
                               parameter: str = "f0") -> SpecPopulation:
    """The Fig. 8 sweep as a population (one die per deviation)."""
    devs = [float(d) for d in deviations]
    if parameter == "f0":
        specs = [golden_spec.with_f0_deviation(d) for d in devs]
        f0_devs, q_devs = devs, [0.0] * len(devs)
    elif parameter == "q":
        specs = [golden_spec.with_q_deviation(d) for d in devs]
        f0_devs, q_devs = [0.0] * len(devs), devs
    elif parameter == "gain":
        specs = [golden_spec.with_gain_deviation(d) for d in devs]
        f0_devs, q_devs = [0.0] * len(devs), [0.0] * len(devs)
    else:
        raise ValueError(f"unknown parameter {parameter!r}")
    labels = [f"{parameter}{d:+.4f}" for d in devs]
    return SpecPopulation(specs, np.asarray(f0_devs),
                          np.asarray(q_devs), labels)


def parameter_grid(golden_spec: BiquadSpec,
                   f0_deviations: Sequence[float],
                   q_deviations: Sequence[float]) -> SpecPopulation:
    """The (f0, Q) deviation grid, row-major in Q (multiparam layout)."""
    f0_axis = [float(d) for d in f0_deviations]
    q_axis = [float(d) for d in q_deviations]
    specs = []
    f0_devs = []
    q_devs = []
    labels = []
    for q_dev in q_axis:
        for f0_dev in f0_axis:
            specs.append(golden_spec.with_f0_deviation(f0_dev)
                         .with_q_deviation(q_dev))
            f0_devs.append(f0_dev)
            q_devs.append(q_dev)
            labels.append(f"f0{f0_dev:+.4f}_q{q_dev:+.4f}")
    return SpecPopulation(specs, np.asarray(f0_devs),
                          np.asarray(q_devs), labels)


# ----------------------------------------------------------------------
# Generic-CUT population builders
# ----------------------------------------------------------------------
def fault_dictionary(values: TowThomasValues,
                     faults: Optional[Sequence[Fault]] = None
                     ) -> Tuple[CutListPopulation, List[Fault]]:
    """Every catastrophic open/short of the Tow-Thomas CUT.

    Returns the population plus the aligned fault list (reports want
    the fault objects back next to the verdicts).
    """
    fault_list = list(faults) if faults is not None \
        else catastrophic_fault_universe()
    cuts = [f.apply_to_biquad(values) for f in fault_list]
    return CutListPopulation(cuts, [f.label for f in fault_list]), fault_list


# ----------------------------------------------------------------------
# Encoder population builders
# ----------------------------------------------------------------------
def montecarlo_monitor_banks(bank: Sequence[MonitorBoundary],
                             num_dies: int,
                             sampler: Optional[MonteCarloSampler] = None,
                             seed: int = 0) -> EncoderPopulation:
    """Process+mismatch-varied copies of a monitor bank, one per die."""
    sampler = sampler if sampler is not None \
        else MonteCarloSampler(rng=seed)
    encoders = [ZoneEncoder(b)
                for b in bank_samples(bank, sampler, num_dies)]
    labels = [f"mcdie{i:05d}" for i in range(num_dies)]
    return EncoderPopulation(encoders, labels)


def temperature_corners(temperatures_k: Sequence[float]
                        ) -> EncoderPopulation:
    """Table I banks re-evaluated at junction-temperature corners."""
    encoders = []
    labels = []
    for t in temperatures_k:
        params = at_temperature(NMOS_65NM, float(t))
        encoders.append(ZoneEncoder(table1_bank(params)))
        labels.append(f"{float(t) - 273.15:+.0f}C")
    return EncoderPopulation(encoders, labels)
