"""Biquad filter specification and analytic transfer functions.

The paper's case study is a low-pass Biquad whose *natural frequency*
``f0`` is the parameter under verification.  The second-order transfer
functions are the textbook forms::

    LP:  H(s) = G w0^2            / (s^2 + (w0/Q) s + w0^2)
    BP:  H(s) = G (w0/Q) s        / (s^2 + (w0/Q) s + w0^2)
    HP:  H(s) = G s^2             / (s^2 + (w0/Q) s + w0^2)

The behavioural model evaluates these exactly; the structural
Tow-Thomas netlist (:mod:`repro.filters.towthomas`) realizes the same
LP/BP responses with ideal op-amps and is cross-checked against this
module in the integration tests.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from repro.signals.lissajous import LissajousTrace
from repro.signals.multitone import Multitone


class BiquadKind(enum.Enum):
    """Which second-order response the output tap realizes."""

    LOWPASS = "lowpass"
    BANDPASS = "bandpass"
    HIGHPASS = "highpass"


@dataclass(frozen=True)
class BiquadSpec:
    """Design parameters of a Biquad section.

    Attributes
    ----------
    f0_hz:
        Natural frequency in hertz -- the parameter the paper verifies.
    q:
        Quality factor.
    gain:
        In-band gain G (DC gain for the low-pass tap).
    kind:
        Which response the observable output realizes.
    """

    f0_hz: float = 13e3
    q: float = 1.5
    gain: float = 1.0
    kind: BiquadKind = BiquadKind.LOWPASS

    def __post_init__(self) -> None:
        if self.f0_hz <= 0:
            raise ValueError("f0 must be positive")
        if self.q <= 0:
            raise ValueError("Q must be positive")

    @property
    def omega0(self) -> float:
        """Natural frequency in rad/s."""
        return 2.0 * math.pi * self.f0_hz

    def with_f0_deviation(self, fraction: float) -> "BiquadSpec":
        """Spec with ``f0`` shifted by a relative fraction (+0.10 = +10 %).

        This is the paper's fault model for Figs. 1, 6, 7 and 8.
        """
        if fraction <= -1.0:
            raise ValueError("deviation must keep f0 positive")
        return replace(self, f0_hz=self.f0_hz * (1.0 + fraction))

    def with_q_deviation(self, fraction: float) -> "BiquadSpec":
        """Spec with Q shifted by a relative fraction."""
        if fraction <= -1.0:
            raise ValueError("deviation must keep Q positive")
        return replace(self, q=self.q * (1.0 + fraction))

    def with_gain_deviation(self, fraction: float) -> "BiquadSpec":
        """Spec with gain shifted by a relative fraction."""
        return replace(self, gain=self.gain * (1.0 + fraction))


class BiquadFilter:
    """Behavioural (exact) Biquad model.

    The filter is linear, so its steady-state response to a multitone is
    computed tone-by-tone from ``H(j w)`` with no numerical integration
    -- see :meth:`repro.signals.multitone.Multitone.through`.
    """

    def __init__(self, spec: BiquadSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    # Frequency domain
    # ------------------------------------------------------------------
    def transfer_s(self, s: complex) -> complex:
        """H(s) at a complex frequency."""
        w0 = self.spec.omega0
        den = s * s + (w0 / self.spec.q) * s + w0 * w0
        if self.spec.kind is BiquadKind.LOWPASS:
            num = self.spec.gain * w0 * w0
        elif self.spec.kind is BiquadKind.BANDPASS:
            num = self.spec.gain * (w0 / self.spec.q) * s
        else:
            num = self.spec.gain * s * s
        return num / den

    def transfer(self, freq_hz: float) -> complex:
        """H(j 2 pi f); accepts f = 0 (DC)."""
        return self.transfer_s(1j * 2.0 * math.pi * freq_hz)

    def magnitude(self, freq_hz) -> Union[float, np.ndarray]:
        """|H| at frequency/frequencies in hertz.

        ``transfer_s`` is written in element-wise operations, so the
        whole frequency grid evaluates as one complex broadcast -- no
        Python call per point.
        """
        freq_arr = np.asarray(freq_hz, dtype=float)
        s = 1j * 2.0 * math.pi * freq_arr
        vals = np.abs(self.transfer_s(s))
        if freq_arr.ndim == 0:
            return float(vals)
        return vals

    # ------------------------------------------------------------------
    # Time domain (exact steady state)
    # ------------------------------------------------------------------
    def response(self, stimulus: Multitone) -> Multitone:
        """Exact steady-state output for a multitone stimulus."""
        return stimulus.through(self.transfer)

    def lissajous(self, stimulus: Multitone,
                  samples_per_period: int = 4096) -> LissajousTrace:
        """Compose stimulus (X) against filter output (Y), one period.

        This is the paper's Fig. 1: "Lissajous composition of a
        multitone input signal and the low pass output of a Biquad
        filter."
        """
        return LissajousTrace.from_multitones(stimulus,
                                              self.response(stimulus),
                                              samples_per_period)

    # ------------------------------------------------------------------
    # Characteristics
    # ------------------------------------------------------------------
    def pole_pair(self) -> complex:
        """Upper-half-plane pole of the section."""
        w0 = self.spec.omega0
        q = self.spec.q
        re = -w0 / (2.0 * q)
        im_sq = w0 * w0 - re * re
        return complex(re, math.sqrt(im_sq)) if im_sq > 0 else complex(
            re + math.sqrt(-im_sq), 0.0)

    def settling_time(self, tolerance: float = 1e-3) -> float:
        """Time for transients to decay to ``tolerance`` of initial size.

        Used by the structural simulation path to decide how many
        periods to discard before capturing the steady-state signature.
        """
        re = abs(self.pole_pair().real)
        return math.log(1.0 / tolerance) / re


# ----------------------------------------------------------------------
# Batched (population-wide) transfer evaluation
# ----------------------------------------------------------------------
def _cpython_complex_quot(num_r: np.ndarray, num_i: np.ndarray,
                          den_r: np.ndarray, den_i: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """CPython's ``_Py_c_quot`` (Smith's method), vectorized.

    :func:`batch_transfer` must be bit-identical to the per-die
    ``transfer_s``, which runs on Python ``complex`` scalars -- and
    numpy's own complex division rounds differently from CPython's, so
    ``num / den`` on ``complex128`` arrays is *not* an option.  This
    replays CPython's exact branch structure and expression order with
    real-array IEEE ops, which numpy and CPython round identically.
    """
    first = np.abs(den_r) >= np.abs(den_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        # |den.real| >= |den.imag|: divide top and bottom by den.real.
        r1 = den_i / den_r
        d1 = den_r + den_i * r1
        q1_r = (num_r + num_i * r1) / d1
        q1_i = (num_i - num_r * r1) / d1
        # Otherwise divide top and bottom by den.imag.
        r2 = den_r / den_i
        d2 = den_r * r2 + den_i
        q2_r = (num_r * r2 + num_i) / d2
        q2_i = (num_i * r2 - num_r) / d2
    return np.where(first, q1_r, q2_r), np.where(first, q1_i, q2_i)


#: The kind of each :class:`SpecArrays` code (its index here).
BIQUAD_KINDS: Tuple[BiquadKind, ...] = tuple(BiquadKind)
_KIND_CODES = {kind: code for code, kind in enumerate(BIQUAD_KINDS)}


@dataclass(frozen=True)
class SpecArrays:
    """A spec population as stacked parameter arrays.

    ``omega0`` replicates :attr:`BiquadSpec.omega0` exactly (``2.0 * pi
    * f0``), so downstream array math matches the per-die scalar path
    bit for bit; ``kind`` holds ``int8`` codes into
    :data:`BIQUAD_KINDS`.  Four arrays pickle far cheaper than the
    spec objects they stand for, so spec chunks travel to pool workers
    in this form.  Indexing (a slice, an index array) selects dies.
    """

    omega0: np.ndarray
    q: np.ndarray
    gain: np.ndarray
    kind: np.ndarray

    def __len__(self) -> int:
        return int(self.omega0.shape[0])

    def __getitem__(self, index) -> "SpecArrays":
        return SpecArrays(self.omega0[index], self.q[index],
                          self.gain[index], self.kind[index])


@dataclass(frozen=True, eq=False)
class SpecSequence(SequenceABC):
    """A spec list held as parameter columns.

    ``f0_hz``, ``q`` and ``gain`` are float arrays and ``kind`` holds
    ``int8`` codes into :data:`BIQUAD_KINDS`.  Indexing one element
    builds its :class:`BiquadSpec` on access; a slice, ``+`` and
    :meth:`concatenate` stay columns.  Equality compares the specs
    with any other spec sequence.
    """

    f0_hz: np.ndarray
    q: np.ndarray
    gain: np.ndarray
    kind: np.ndarray

    @classmethod
    def from_specs(cls, specs: Sequence[BiquadSpec]) -> "SpecSequence":
        """Columns of a spec sequence (a :class:`SpecSequence` passes
        through)."""
        if isinstance(specs, SpecSequence):
            return specs
        n = len(specs)
        return cls(np.fromiter((spec.f0_hz for spec in specs), float, n),
                   np.fromiter((spec.q for spec in specs), float, n),
                   np.fromiter((spec.gain for spec in specs), float, n),
                   np.fromiter((_KIND_CODES[spec.kind] for spec in specs),
                               np.int8, n))

    @classmethod
    def concatenate(cls, parts: Sequence[Sequence[BiquadSpec]]
                    ) -> "SpecSequence":
        """One sequence from many, in order."""
        parts = [cls.from_specs(part) for part in parts] \
            or [cls.from_specs([])]
        return cls(*(np.concatenate([getattr(part, name)
                                     for part in parts])
                     for name in ("f0_hz", "q", "gain", "kind")))

    def __len__(self) -> int:
        return int(self.f0_hz.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SpecSequence(self.f0_hz[index], self.q[index],
                                self.gain[index], self.kind[index])
        i = operator.index(index)
        return BiquadSpec(float(self.f0_hz[i]), float(self.q[i]),
                          float(self.gain[i]), BIQUAD_KINDS[self.kind[i]])

    def __iter__(self) -> Iterator[BiquadSpec]:
        for f0_hz, q, gain, kind in zip(
                self.f0_hz.tolist(), self.q.tolist(), self.gain.tolist(),
                self.kind.tolist()):
            yield BiquadSpec(f0_hz, q, gain, BIQUAD_KINDS[kind])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return list(self) == list(other)

    def __add__(self, other: Sequence[BiquadSpec]) -> "SpecSequence":
        return SpecSequence.concatenate([self, other])


def spec_arrays(specs: Union[Sequence[BiquadSpec], SpecArrays]
                ) -> SpecArrays:
    """Stacked parameter arrays of a population (arrays pass through)."""
    if isinstance(specs, SpecArrays):
        return specs
    columns = SpecSequence.from_specs(specs)
    return SpecArrays(2.0 * math.pi * columns.f0_hz, columns.q,
                      columns.gain, columns.kind)


def batch_transfer_arrays(omega0: np.ndarray, q: np.ndarray,
                          gain: np.ndarray, kind: BiquadKind,
                          freq_hz: float
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """``H(j 2 pi f)`` from pre-stacked parameter arrays, one kind.

    The array-native core of :func:`batch_transfer`: callers that
    evaluate several frequencies for the same population (the trace
    synthesizer does, once per tone plus DC) stack the parameters once
    with :func:`spec_arrays` instead of re-walking the spec list per
    frequency.
    """
    n = omega0.shape[0]
    # transfer() forms s = 1j * 2 pi f, i.e. exactly (0.0, w).
    w = 2.0 * math.pi * freq_hz
    k = omega0 / q
    # den = s*s + (w0/q)*s + w0*w0 evaluated on Python complex:
    #   real: (0*0 - w*w) + 0 + w0*w0     imag: 0 + (w0/q)*w + 0
    den_r = (0.0 - w * w) + omega0 * omega0
    den_i = k * w
    if kind is BiquadKind.LOWPASS:
        num_r = gain * omega0 * omega0
        num_i = np.zeros(n)
    elif kind is BiquadKind.BANDPASS:
        num_r = np.zeros(n)
        num_i = (gain * k) * w
    else:  # highpass: gain*s*s -> ((gain*w)*w negated, 0)
        num_r = 0.0 - (gain * w) * w
        num_i = np.zeros(n)
    return _cpython_complex_quot(num_r, num_i, den_r, den_i)


def batch_transfer(specs: Sequence[BiquadSpec], freq_hz: float
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``H(j 2 pi f)`` of N specs at one frequency -> ``(real, imag)``.

    Bit-identical to ``[BiquadFilter(s).transfer(freq_hz) for s in
    specs]``: the scalar path evaluates ``transfer_s`` with Python
    ``complex`` arithmetic, so the naive complex product and Smith
    division are replayed here component-wise on real arrays (including
    the exactly-zero real/imaginary parts the scalar expressions
    produce).  Accepts ``freq_hz = 0`` for the DC gain; mixed response
    kinds in one population are evaluated group by group.
    """
    n = len(specs)
    if n == 0:
        return np.empty(0), np.empty(0)
    kinds = [spec.kind for spec in specs]
    if any(kind is not kinds[0] for kind in kinds):
        out_r = np.empty(n)
        out_i = np.empty(n)
        for kind in set(kinds):
            idx = [i for i, k in enumerate(kinds) if k is kind]
            sub_r, sub_i = batch_transfer([specs[i] for i in idx], freq_hz)
            out_r[idx] = sub_r
            out_i[idx] = sub_i
        return out_r, out_i
    arrays = spec_arrays(specs)
    return batch_transfer_arrays(arrays.omega0, arrays.q, arrays.gain,
                                 kinds[0], freq_hz)
