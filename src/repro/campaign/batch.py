"""Vectorized kernels of the campaign engine.

The per-die test flow (:class:`repro.core.testflow.SignatureTester`)
evaluates one trace, one zone encoding and one capture at a time.  At
fleet scale the same work is batched over stacked ``(N, samples)``
arrays and a packed signature representation:

* :func:`batch_biquad_traces` synthesizes the whole ``(N, T)`` response
  stack of a Biquad spec population in one pass: the closed-form
  ``H(j w)`` of every die evaluates as a real-array broadcast
  (:func:`repro.filters.biquad.batch_transfer`, replicating Python's
  scalar complex arithmetic bit for bit) and the tone accumulation of
  :func:`batch_through_eval` reuses one scratch buffer -- no per-die
  ``BiquadFilter``/``Multitone`` objects on the hot path;
* :func:`batch_netlist_traces` does the same for stacks of
  same-topology linear netlist CUTs (fault dictionaries): one
  :func:`repro.circuits.ac.ac_analysis_batch` sweep solves every
  circuit per frequency through a single batched ``np.linalg.solve``,
  one :func:`repro.circuits.dc.dc_solve_batch` pass supplies the DC
  gains;
* :func:`batch_multitone_eval` evaluates N same-frequency multitones on
  a shared time grid in one broadcast pass, and
  :func:`batch_responses` propagates one stimulus through N linear CUTs
  object by object -- both retained as the per-die reference the
  equivalence tests and benchmarks compare the fused kernels against;
* :func:`batch_codes` pushes the whole ``(N, samples)`` point stack
  through the zone encoder at once -- monitor banks take the fused
  shared-branch path of
  :func:`repro.monitor.bank_encode.monitor_bank_codes` (one in-place
  EKV table per model card per gate signal, per-boundary balances in
  reused scratch, packed code accumulation);
* :func:`batch_extract` run-length extracts the whole code stack into
  one packed :class:`repro.core.signature_batch.SignatureBatch` (CSR
  ``codes``/``durations``/``row_offsets``) in a single pass -- per-die
  :class:`~repro.core.signature.Signature` objects exist only at the
  diagnosis edges;
* :meth:`SignatureBatch.ndf_to` scores every row against the golden in
  one flat kernel (no per-die ``np.unique`` breakpoint merges);
  :func:`batch_signatures`/:func:`batch_ndf` remain as the unpacked
  per-die reference implementations;
* :func:`certified_spec_codes` is the engine's fast front half for
  spec chunks, golden-relative: a die's proven reach from the golden
  trace (:func:`trace_reach`) against each column's margin to the
  nearest band edge (:class:`GoldenFrame`) shows where its code must
  equal the golden code; only the rest -- a prefix of the columns
  sorted by margin -- is synthesized, by a ``(rows, 2K+1) @ (2K+1,
  width)`` product against the permuted :func:`trace_basis` to within
  a proven per-die bound (:func:`trace_error_bound`), and encoded
  against per-column y thresholds
  (:class:`~repro.monitor.bank_encode.ZoneThresholdTable`) while the
  block is still in cache.

Spec populations enter every kernel as
:class:`~repro.filters.biquad.SpecArrays` (a spec list converts
through :func:`~repro.filters.biquad.spec_arrays`), which is also how
spec chunks travel to pool workers.

The exact kernels replicate the floating-point expression order of the
per-die path (same complex quotient and ``hypot``/``arctan2`` rounding
in the transfer evaluation, same offset-then-tone accumulation, same
``w*t + phase`` association, same run-length subtractions and NDF
interval sums), so they produce **bit-identical** traces, codes,
signatures, NDFs and verdicts to a serial :class:`SignatureTester` with
``refine=False``.  The certified front half gives up bit-identical
*traces* -- its traces are within ``eps`` of the exact ones -- but not
codes: a sample is only encoded from the table when its distance to
every threshold exceeds ``eps`` plus the threshold's proven band, and
every other die is recomputed on the exact kernels, so its code planes
equal the exact ones; the columns it skips carry the golden's exact
codes by the same band argument (``docs/paper_map.md`` gives both
derivations).
The campaign equivalence tests assert the end result for every
population kind and executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ndf import ndf
from repro.core.scratch import SCRATCH
from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch
from repro.core.zones import ZoneEncoder
from repro.filters.biquad import (
    BIQUAD_KINDS,
    BiquadSpec,
    SpecArrays,
    batch_transfer_arrays,
    spec_arrays,
)
from repro.monitor.bank_encode import (
    BLOCK_SAMPLES,
    UNIT_ROUNDOFF,
    ZoneThresholdTable,
    monitor_bank_codes,
)
from repro.obs.trace import NULL_SPAN
from repro.signals.multitone import Multitone


def sample_times(period: float, samples_per_period: int) -> np.ndarray:
    """The uniform capture grid ``[0, period)`` of the test flow.

    Matches :meth:`repro.signals.waveform.Waveform.from_function` with
    ``t_start=0`` bit for bit, so batched and per-die captures land on
    the same instants.
    """
    if samples_per_period < 2:
        raise ValueError("need at least 2 samples per period")
    return period * np.arange(samples_per_period) / samples_per_period


def batch_multitone_eval(signals: Sequence[Multitone],
                         times: np.ndarray) -> np.ndarray:
    """Evaluate N multitones sharing tone frequencies -> ``(N, T)``.

    All signals must carry the same tone count and, tone for tone, the
    same frequency (the campaign populations are LTI responses to one
    stimulus, so this holds by construction).  The accumulation order
    replicates :meth:`Multitone.__call__` exactly: start from the DC
    offset, then add tones in sequence.  This is the per-die-object
    reference path; spec populations synthesize through
    :func:`batch_biquad_traces` instead.
    """
    times = np.asarray(times, dtype=float)
    if not signals:
        return np.empty((0, times.size))
    num_tones = len(signals[0].tones)
    for signal in signals:
        if len(signal.tones) != num_tones:
            raise ValueError("signals must share the tone layout")
    offsets = np.asarray([s.offset for s in signals])
    total = np.repeat(offsets[:, None], times.size, axis=1)
    for k in range(num_tones):
        freqs = np.asarray([s.tones[k].freq_hz for s in signals])
        if np.any(freqs != freqs[0]):
            raise ValueError(
                f"tone {k} frequencies differ across the population; "
                "batched evaluation needs a common tone grid")
        w_t = 2.0 * math.pi * freqs[0] * times
        amps = np.asarray([s.tones[k].amplitude for s in signals])
        phases = np.asarray([s.tones[k].phase_rad for s in signals])
        total = total + amps[:, None] * np.sin(w_t[None, :]
                                               + phases[:, None])
    return total


def batch_through_eval(stimulus: Multitone,
                       tone_transfers: Sequence[Tuple[np.ndarray,
                                                      np.ndarray]],
                       dc_gains: np.ndarray,
                       times: np.ndarray) -> np.ndarray:
    """``(N, T)`` steady-state stack from per-die transfer samples.

    ``tone_transfers[k]`` carries the ``(real, imag)`` arrays of every
    die's ``H`` at tone ``k``'s frequency; ``dc_gains`` the (exactly
    real) ``H(0)`` per die.  Replicates
    :meth:`repro.signals.multitone.Multitone.through` --
    ``|H|`` via the C-library ``hypot`` (`np.hypot` rounds
    identically), phase via the ``arctan2 -> degrees -> + phase_deg ->
    radians`` round trip -- followed by :func:`batch_multitone_eval`'s
    offset-then-tone accumulation, all staged through one scratch
    buffer so no fresh ``(N, T)`` temporaries are allocated per tone.
    """
    times = np.asarray(times, dtype=float)
    dc_gains = np.asarray(dc_gains, dtype=float)
    offsets = stimulus.offset * dc_gains
    shape = (dc_gains.shape[0], times.size)
    # The result rides a pooled buffer: callers that are done with the
    # stack may hand it back via SCRATCH.give (the engine's chunk
    # workers do, once the codes are extracted).
    total = SCRATCH.take(shape)
    np.copyto(total, offsets[:, None])  # == np.repeat, value for value
    buf = SCRATCH.take(shape)
    for tone, (h_re, h_im) in zip(stimulus.tones, tone_transfers):
        amps, phases = _tone_amp_phase(tone, h_re, h_im)
        w_t = 2.0 * math.pi * tone.freq_hz * times
        np.add(w_t[None, :], phases[:, None], out=buf)
        np.sin(buf, out=buf)
        np.multiply(amps[:, None], buf, out=buf)
        np.add(total, buf, out=total)
    SCRATCH.give(buf)
    return total


def batch_biquad_traces(specs: Union[Sequence[BiquadSpec], SpecArrays],
                        stimulus: Multitone,
                        times: np.ndarray) -> np.ndarray:
    """Response stack of a Biquad spec population, fully vectorized.

    Bit-identical to ``batch_multitone_eval([BiquadFilter(s).response(
    stimulus) for s in specs], times)`` -- i.e. to the per-die
    reference flow -- without constructing a single per-die object:
    the closed-form transfer of all N dies evaluates per tone as one
    real-array broadcast and the trace accumulates through
    :func:`batch_through_eval`.  ``specs`` is a spec list or its
    :class:`~repro.filters.biquad.SpecArrays`.
    """
    times = np.asarray(times, dtype=float)
    arrays = spec_arrays(specs)
    if not len(arrays):
        return np.empty((0, times.size))
    tone_transfers, dc_re = _biquad_transfers(arrays, stimulus)
    return batch_through_eval(stimulus, tone_transfers, dc_re, times)


def _biquad_transfers(arrays: SpecArrays, stimulus: Multitone
                      ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]],
                                 np.ndarray]:
    """Per-tone ``(real, imag)`` transfers and DC gains of N specs.

    The stacked parameters serve every tone frequency plus DC; a
    mixed-kind population evaluates once per kind group.  H(0) of a
    Biquad is exactly real (the quotient's imaginary part is a signed
    zero), so Multitone.through's DC-realness guard can never trip on
    the spec paths.
    """
    n = len(arrays)
    tone_transfers = [(np.empty(n), np.empty(n))
                      for __ in stimulus.tones]
    dc_re = np.empty(n)
    for code in np.unique(arrays.kind):
        idx = np.flatnonzero(arrays.kind == code)
        group = arrays[idx]
        kind = BIQUAD_KINDS[code]
        for slot, tone in enumerate(stimulus.tones):
            h_re, h_im = batch_transfer_arrays(
                group.omega0, group.q, group.gain, kind, tone.freq_hz)
            tone_transfers[slot][0][idx] = h_re
            tone_transfers[slot][1][idx] = h_im
        dc_re[idx], __ = batch_transfer_arrays(
            group.omega0, group.q, group.gain, kind, 0.0)
    return tone_transfers, dc_re


def _tone_amp_phase(tone, h_re: np.ndarray, h_im: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """One tone's amplitude and phase (radians) through N transfers.

    ``|H|`` via the C-library ``hypot`` and the phase via the
    ``arctan2 -> degrees -> + phase_deg -> radians`` round trip of
    :meth:`Multitone.through`; the exact and the certified synthesis
    share these floats.
    """
    amps = tone.amplitude * np.hypot(h_re, h_im)
    phase_deg = tone.phase_deg + np.degrees(np.arctan2(h_im, h_re))
    return amps, np.radians(phase_deg)


#: Attributes a netlist CUT class exposes to join the stacked MNA fast
#: path (see :class:`repro.filters.towthomas.TowThomasBiquad`, which
#: defines them for the Tow-Thomas realization).
_NETLIST_PROTOCOL = ("system", "circuit", "ac_output_node",
                     "ac_input_node", "ac_input_source")


def batch_netlist_traces(cuts: Sequence, stimulus: Multitone,
                         times: np.ndarray) -> Optional[np.ndarray]:
    """Response stack of same-topology linear netlist CUTs, or None.

    Qualifying cuts -- linear, shared topology, and publishing the
    batched-synthesis protocol (``system``/``circuit`` plus the
    ``ac_output_node``/``ac_input_node``/``ac_input_source``
    attributes that :class:`~repro.filters.towthomas.TowThomasBiquad`
    defines) -- are solved through
    :func:`repro.circuits.ac.ac_analysis_batch` -- one stacked MNA
    solve per tone frequency -- plus one batched DC pass for the
    offsets, then synthesized by :func:`batch_through_eval`.
    Bit-identical to ``[cut.response(stimulus) for cut in cuts]``
    pushed through :func:`batch_multitone_eval`, because the batched
    LAPACK solves, the numpy transfer quotient and the through()
    replication all round exactly like the per-cut path.

    Returns ``None`` when the stack does not qualify (mixed
    topologies or observation nodes, nonlinear members, non-netlist
    cuts); callers fall back to the per-cut reference.
    """
    from repro.circuits.ac import ac_analysis_batch, systems_share_topology
    from repro.circuits.dc import dc_solve_batch
    from repro.filters.towthomas import TowThomasBiquad

    times = np.asarray(times, dtype=float)
    cuts = list(cuts)
    if not cuts or not all(
            all(hasattr(cut, name) for name in _NETLIST_PROTOCOL)
            for cut in cuts):
        return None
    # A protocol class warrants that its response()/transfer()/dc_gain
    # semantics are exactly what this kernel replicates; a Tow-Thomas
    # subclass that overrides response() breaks that warranty, so it
    # falls back to the per-cut loop.
    if any(isinstance(cut, TowThomasBiquad)
           and type(cut).response is not TowThomasBiquad.response
           for cut in cuts):
        return None
    head = cuts[0]
    out_node = head.ac_output_node
    in_node = head.ac_input_node
    source_name = head.ac_input_source
    if any(cut.ac_output_node != out_node
           or cut.ac_input_node != in_node
           or cut.ac_input_source != source_name for cut in cuts[1:]):
        return None
    systems = [cut.system for cut in cuts]
    first = systems[0]
    if first.has_nonlinear or not all(
            systems_share_topology(first, s) for s in systems[1:]):
        return None

    # AC transfer at every tone frequency, all cuts per solve.
    sweep = ac_analysis_batch(systems,
                              [tone.freq_hz for tone in stimulus.tones])
    transfer = sweep.transfer(out_node, in_node)  # (M, K) complex

    # DC gains replicate the per-cut dc_gain protocol: drive the input
    # source with 1 V, solve the (linear) operating point, read the
    # output node.
    sources = [cut.circuit.element(source_name) for cut in cuts]
    saved = [source.dc for source in sources]
    for source in sources:
        source.dc = 1.0
    try:
        solutions = dc_solve_batch(systems)
    finally:
        for source, value in zip(sources, saved):
            source.dc = value
    out_idx = first.circuit.node_index(out_node)
    dc_gains = (solutions[:, out_idx] if out_idx >= 0
                else np.zeros(len(cuts)))

    tone_transfers = [
        (np.ascontiguousarray(transfer[:, k].real),
         np.ascontiguousarray(transfer[:, k].imag))
        for k in range(len(stimulus.tones))]
    return batch_through_eval(stimulus, tone_transfers, dc_gains, times)


def batch_responses(cuts: Sequence, stimulus: Multitone) -> List[Multitone]:
    """Exact steady-state output multitone of each linear CUT.

    Every CUT must expose ``response(stimulus) -> Multitone``.  This is
    the per-cut reference path: spec populations go through
    :func:`batch_biquad_traces`, netlist stacks through
    :func:`batch_netlist_traces`; only heterogeneous cut lists pay the
    per-object loop.
    """
    return [cut.response(stimulus) for cut in cuts]


def batch_codes(encoder: ZoneEncoder, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """Zone codes of a stacked point set; ``x`` broadcasts over rows.

    Monitor banks encode through the fused shared-branch path (one
    in-place EKV evaluation per model card per gate signal, reused
    balance scratch, packed bit accumulation -- with the shared ``x``
    kept one-dimensional); any other boundary family falls back to the
    generic per-boundary evaluation on a broadcast view.  Both produce
    bit-identical codes to ``encoder.code`` point by point.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    fast = monitor_bank_codes(encoder, x, y)
    if fast is not None:
        return np.asarray(fast, dtype=np.int64)
    x = np.broadcast_to(x, y.shape)
    return np.asarray(encoder.code(x, y), dtype=np.int64)


def batch_extract(times: np.ndarray, codes: np.ndarray,
                  period: float) -> SignatureBatch:
    """One-pass packed run-length extraction of a whole code stack."""
    return SignatureBatch.from_code_stack(times, codes, period)


def batch_signatures(times: np.ndarray, codes: np.ndarray,
                     period: float) -> List[Signature]:
    """Per-die :class:`Signature` objects for a code stack.

    Diagnosis-edge convenience: packs the stack once
    (:func:`batch_extract`) and unpacks every row.  Hot paths should
    stay on the :class:`SignatureBatch` instead.
    """
    return batch_extract(times, codes, period).to_signatures()


def batch_ndf(signatures: Sequence[Signature],
              golden: Signature) -> np.ndarray:
    """Per-die reference NDF loop (exact, unpacked).

    Kept as the equivalence baseline for
    :meth:`SignatureBatch.ndf_to`; campaign hot paths use the packed
    kernel.
    """
    return np.asarray([ndf(s, golden) for s in signatures], dtype=float)


# ----------------------------------------------------------------------
# Certified front half: basis-synthesized traces + threshold tables
# ----------------------------------------------------------------------
#: Stated worst-case error, in ulps, of numpy's float64 ``sin``/``cos``
#: (the trace error bound rests on it; the bound tests check it).
SIN_ULPS = 4.0

#: Dies whose trace bound exceeds this many volts skip the certified
#: encode (they would widen every band of their chunk).
MAX_TRACE_EPS = 1e-9


@dataclass(frozen=True)
class TraceBasis:
    """The per-configuration basis of the fast trace synthesis.

    ``matrix`` is ``(2K+1, T)``: ``sin w_k t`` and ``cos w_k t`` for
    every stimulus tone (``w_k t`` formed exactly like the exact path's
    ``2 pi f t``), then a row of ones for the DC offset; ``wt_max[k]``
    is ``max |w_k t|`` on the grid, which the error bound needs.
    """

    matrix: np.ndarray
    wt_max: np.ndarray


def trace_basis(stimulus: Multitone, times: np.ndarray) -> TraceBasis:
    """The sin/cos/1 synthesis basis of ``stimulus`` on ``times``."""
    times = np.asarray(times, dtype=float)
    tones = stimulus.tones
    matrix = np.empty((2 * len(tones) + 1, times.size))
    wt_max = np.empty(len(tones))
    for k, tone in enumerate(tones):
        w_t = 2.0 * math.pi * tone.freq_hz * times
        matrix[2 * k] = np.sin(w_t)
        matrix[2 * k + 1] = np.cos(w_t)
        wt_max[k] = float(np.abs(w_t).max())
    matrix[-1] = 1.0
    matrix.setflags(write=False)
    return TraceBasis(matrix, wt_max)


def trace_error_bound(offsets: np.ndarray, amps: np.ndarray,
                      phases: np.ndarray, wt_max: np.ndarray
                      ) -> np.ndarray:
    """Per-die bound ``eps`` on ``|y_fast - y_exact|`` (volts).

    ``amps``/``phases`` are ``(K, N)``; both paths share them and the
    offsets, so both approximate the same real trace ``Y = off + sum_k
    A_k sin(w_k t + P_k)``.  With ``u = 2**-53`` and ``e`` =
    :data:`SIN_ULPS` ulps of 1 (the absolute error allowance of
    ``sin``/``cos`` on ``[-1, 1]``):

    * **exact path** (:func:`batch_through_eval`): ``fl(w t + P)`` is
      off by at most ``u (|w t| + |P|)``, ``sin`` adds ``e`` and the
      amplitude product rounds once, so each tone term is within
      ``|A| (u (W + |P|) + e + u (1 + e))``; the offset-then-tone
      accumulation of K sums adds ``gamma_K (|off| + (1 + e)(1 + u)
      sum |A|)``;
    * **fast path** (``coef @ basis``): ``fl(A cos P)`` is within
      ``|A| (e + u (1 + e))`` of ``A cos P`` and the basis entry within
      ``e`` of ``sin w t``, so each of the 2K products is within
      ``|A| ((e + u (1 + e))(1 + e) + e)``; the length-(2K+1) dot
      product adds at most ``gamma_{2K+1} (|off| + 2 (1 + e)^2 (1 + u)
      sum |A|)`` in *any* summation order (FMA only tightens it), so
      the BLAS kernel's order does not matter.

    ``gamma_n = n u / (1 - n u)``.  The sum of both bounds is doubled to
    absorb second-order terms and the rounding of this evaluation.
    """
    u = UNIT_ROUNDOFF
    e = SIN_ULPS * 2.0 * UNIT_ROUNDOFF
    tones = amps.shape[0]

    def gamma(n: int) -> float:
        return n * u / (1.0 - n * u)

    a = np.abs(amps)
    p = np.abs(phases)
    off = np.abs(offsets)
    sum_a = a.sum(axis=0)
    exact = (a * (u * (wt_max[:, None] + p) + e + u * (1.0 + e))).sum(
        axis=0) + gamma(tones) * (off + (1.0 + e) * (1.0 + u) * sum_a)
    fast = 2.0 * ((e + u * (1.0 + e)) * (1.0 + e) + e) * sum_a \
        + gamma(2 * tones + 1) * (off + 2.0 * (1.0 + e) ** 2 * (1.0 + u)
                                  * sum_a)
    return 2.0 * (exact + fast)


def spec_trace_coefficients(specs: Union[Sequence[BiquadSpec], SpecArrays],
                            stimulus: Multitone, basis: TraceBasis
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """``(N, 2K+1)`` synthesis coefficients and per-die bounds ``eps``.

    Amplitudes and phases come from the same
    :func:`~repro.filters.biquad.batch_transfer_arrays` ->
    ``hypot``/``arctan2``/degrees/radians chain as
    :func:`batch_biquad_traces`; by angle addition ``A sin(w t + P) =
    (A cos P) sin w t + (A sin P) cos w t``, so ``coef @ basis.matrix``
    is the trace stack to within ``eps`` (:func:`trace_error_bound`).
    """
    arrays = spec_arrays(specs)
    tone_transfers, dc_re = _biquad_transfers(arrays, stimulus)
    n, tones = len(arrays), len(stimulus.tones)
    coef = np.empty((n, 2 * tones + 1))
    amps = np.empty((tones, n))
    phases = np.empty((tones, n))
    for k, (tone, (h_re, h_im)) in enumerate(zip(stimulus.tones,
                                                 tone_transfers)):
        amps[k], phases[k] = _tone_amp_phase(tone, h_re, h_im)
        coef[:, 2 * k] = amps[k] * np.cos(phases[k])
        coef[:, 2 * k + 1] = amps[k] * np.sin(phases[k])
    offsets = stimulus.offset * dc_re
    coef[:, -1] = offsets
    return coef, trace_error_bound(offsets, amps, phases, basis.wt_max)


def trace_reach(coef: np.ndarray, eps: np.ndarray,
                golden_coef: np.ndarray, golden_eps: float) -> np.ndarray:
    """Per-die bound ``r`` on ``max_j |y_exact[j] - y_golden[j]|`` (volts).

    ``coef``/``eps`` are a chunk's :func:`spec_trace_coefficients`
    outputs, ``golden_coef``/``golden_eps`` the golden's own row.  Let
    ``Y = off + sum_k A_k sin(w_k t + P_k)`` be a die's real trace (the
    floats ``off``, ``A``, ``P`` that both synthesis paths share) and
    ``a_k = A_k cos P_k``, ``b_k = A_k sin P_k`` its real coefficients:

    * ``Y_i - Y_g = d_off + sum_k (d_a_k sin w_k t + d_b_k cos w_k t)``
      and ``|d_a sin + d_b cos| <= hypot(d_a, d_b)``, so at every
      instant ``|Y_i - Y_g| <= D_i = |d_off| + sum_k hypot(d_a_k,
      d_b_k)``;
    * the exact path's sample is within ``eps`` of ``Y`` (``eps``
      covers the exact path's error and more), so ``|y_i - y_g| <= D_i
      + eps_i + eps_g`` on every column;
    * ``D_i`` is evaluated on the float rows: an entry ``fl(A cos P)``
      is within ``|A| (e + u (1 + e))`` of ``a`` (as in
      :func:`trace_error_bound`; offsets are shared exactly), so each
      ``hypot`` term grows by at most ``2 (|A_i| + |A_g|) (e + u (1 +
      e))``, with ``|A| <= 2 (|fl(a)| + |fl(b)|)``;
    * the subtractions round once (``u``), ``hypot`` within ``2u``, and
      the sums of ``K + 4`` non-negative terms within ``gamma_{K+4}``;
      the factor ``1 + 4 (K + 8) u`` covers them all, and the final
      ``nextafter`` the rounding of that product.

    Non-finite coefficients give a non-finite reach.
    """
    u = UNIT_ROUNDOFF
    e = SIN_ULPS * 2.0 * UNIT_ROUNDOFF
    tones = (coef.shape[1] - 1) // 2
    diff = coef - golden_coef
    distance = np.abs(diff[:, -1])
    magnitude = np.zeros(coef.shape[0])
    for k in range(tones):
        distance = distance + np.hypot(diff[:, 2 * k], diff[:, 2 * k + 1])
        magnitude = magnitude + (np.abs(coef[:, 2 * k])
                                 + np.abs(coef[:, 2 * k + 1])
                                 + abs(golden_coef[2 * k])
                                 + abs(golden_coef[2 * k + 1]))
    slack = 4.0 * (e + u * (1.0 + e)) * magnitude
    reach = (distance + slack + eps + golden_eps) \
        * (1.0 + 4.0 * (tones + 8) * u)
    return np.nextafter(reach, np.inf)


@dataclass(frozen=True)
class GoldenFrame:
    """The golden side of the golden-relative certificate.

    Built once per configuration by :func:`golden_frame`:

    * ``coef``/``eps``: the golden's own coefficient row and bound;
    * ``codes``: per channel, the golden's exact ``uint8`` codes (from
      the exact kernels, never from a cache keyed on a rounded
      fingerprint);
    * ``order``: the columns by ascending margin -- how far the golden
      sample of a column is from the nearest band edge of any boundary
      of any channel's table, or from a window edge, rounded down (0
      inside a band or outside the window);
    * ``sorted_margins``: those margins in that order, and ``basis``
      the synthesis basis permuted into it.

    A die within reach ``r`` of the golden (:func:`trace_reach`) has
    the golden's exact code on every column whose margin exceeds
    ``r``, so only the prefix ``order[:widths(r)]`` needs synthesis and
    compare.
    """

    coef: np.ndarray
    eps: float
    codes: Tuple[np.ndarray, ...]
    order: np.ndarray
    sorted_margins: np.ndarray
    basis: np.ndarray

    def widths(self, reach: np.ndarray) -> np.ndarray:
        """Uncertain columns per die: how many margins are ``<= reach``.

        Every column where the reach is not finite.
        """
        reach = np.asarray(reach, dtype=float)
        counts = np.searchsorted(self.sorted_margins, reach, side="right")
        return np.where(np.isfinite(reach), counts, self.order.size)


def golden_frame(golden_spec: BiquadSpec, stimulus: Multitone,
                 times: np.ndarray, x: np.ndarray,
                 encoders: Sequence[ZoneEncoder],
                 tables: Sequence[ZoneThresholdTable],
                 basis: TraceBasis) -> GoldenFrame:
    """The :class:`GoldenFrame` of ``golden_spec`` against ``tables``.

    ``tables[c]`` must be channel ``c``'s threshold table on the grid
    ``x``.  A margin is the distance from the golden sample to an edge
    it lies strictly outside of (``lower - y`` below a band, ``y -
    upper`` above it, ``inf`` for a column without a flip), rounded
    down by one ``nextafter`` step; a sample inside a band, outside the
    window or not finite gets 0, so its column is always computed.
    """
    times = np.asarray(times, dtype=float)
    coef, eps = spec_trace_coefficients([golden_spec], stimulus, basis)
    exact = batch_biquad_traces([golden_spec], stimulus, times)
    trace = exact[0]
    codes = tuple(np.asarray(monitor_bank_codes(encoder, x, exact)[0],
                             dtype=np.uint8) for encoder in encoders)
    margins = np.full(trace.shape, np.inf)
    with np.errstate(invalid="ignore"):
        for table in tables:
            low, high = table.window
            margins = np.minimum(margins, np.minimum(trace - low,
                                                     high - trace))
            edge = np.where(trace < table.lower, table.lower - trace,
                            np.where(trace > table.upper,
                                     trace - table.upper, 0.0))
            margins = np.minimum(margins, edge.min(axis=0))
        margins = np.nextafter(margins, -np.inf)
        margins = np.where(np.isfinite(trace) & (margins > 0.0), margins,
                           0.0)
    SCRATCH.give(exact)
    order = np.argsort(margins, kind="stable")
    sorted_margins = margins[order]
    permuted = np.ascontiguousarray(basis.matrix[:, order])
    for array in (order, sorted_margins, permuted, *codes):
        array.setflags(write=False)
    return GoldenFrame(coef[0], float(eps[0]), codes, order,
                       sorted_margins, permuted)


def _untimed(name: str, **attributes: object):
    return NULL_SPAN


def _block_stop(widths: np.ndarray, start: int) -> int:
    """End of the row block at ``start`` of width-sorted rows.

    The block takes rows while rows times its largest width stays
    within :data:`~repro.monitor.bank_encode.BLOCK_SAMPLES` (at least
    one row): ascending widths make that a prefix.
    """
    fits = np.arange(1, widths.size - start + 1) * widths[start:] \
        <= BLOCK_SAMPLES
    return start + max(1, int(np.count_nonzero(fits)))


def certified_spec_codes(specs: Union[Sequence[BiquadSpec], SpecArrays],
                         stimulus: Multitone, times: np.ndarray,
                         x: np.ndarray, encoders: Sequence[ZoneEncoder],
                         tables: Sequence[ZoneThresholdTable],
                         basis: TraceBasis, frame: GoldenFrame,
                         stage=_untimed
                         ) -> Tuple[List[np.ndarray], np.ndarray]:
    """Certified ``uint8`` code planes of a Biquad spec chunk.

    The fast front half, golden-relative: each die's reach ``r``
    (:func:`trace_reach`) against ``frame`` gives its uncertain columns
    ``frame.order[:u]`` (:meth:`GoldenFrame.widths`); every other
    column provably carries the golden's exact code.  Dies sorted by
    ``u`` form row blocks of at most
    :data:`~repro.monitor.bank_encode.BLOCK_SAMPLES` samples; each
    block synthesizes only its widest row's prefix -- one ``(rows,
    2K+1) @ (2K+1, width)`` product against the permuted basis
    (:func:`spec_trace_coefficients`) -- and every channel's threshold
    table encodes it while it is still in cache
    (:meth:`ZoneThresholdTable.encode_block`, with the chunk's largest
    ``eps``), into rows pre-filled with the golden codes; a block as
    wide as the grid takes the same path.  Dies with an uncertified
    sample, a computed sample outside
    the window, or an ``eps`` above :data:`MAX_TRACE_EPS` are
    recomputed on the exact path -- :func:`batch_biquad_traces` plus
    :func:`monitor_bank_codes` per channel -- so every returned plane
    equals the exact codes row for row.

    ``stage(name, **attributes)`` returns a context manager wrapped
    around each step (the engine's timing/span hook); the certified
    ``encode`` steps report ``columns`` (synthesized and compared per
    row) and, through its ``set``, ``fallback_rows``.  Returns
    ``(planes, fallback_row_indices)``.
    """
    times = np.asarray(times, dtype=float)
    arrays = spec_arrays(specs)
    n, samples = len(arrays), times.size
    planes = [np.empty((n, samples), dtype=np.uint8) for __ in tables]
    if n == 0:
        return planes, np.empty(0, dtype=np.intp)
    with stage("traces", dies=n, path="certified"):
        coef, eps = spec_trace_coefficients(arrays, stimulus, basis)
        widths = frame.widths(trace_reach(coef, eps, frame.coef,
                                          frame.eps))
        rank = np.argsort(widths, kind="stable")
        widths, coef, eps = widths[rank], coef[rank], eps[rank]
    certified = eps <= MAX_TRACE_EPS  # NaN-safe
    eps_max = float(eps[certified].max()) if certified.any() else 0.0
    columns = frame.order[:int(widths[-1])]
    bands = [table.bands(eps_max, columns) for table in tables]
    capacity = max(BLOCK_SAMPLES, samples)
    block_buf = SCRATCH.take(capacity)
    code_buf = SCRATCH.take(capacity, dtype=np.uint8)
    index_buf = SCRATCH.take(capacity, dtype=np.intp)
    start = 0
    while start < n:
        stop = _block_stop(widths, start)
        rows, width = rank[start:stop], int(widths[stop - 1])
        size = (stop - start) * width
        block = block_buf[:size].reshape(stop - start, width)
        codes = code_buf[:size].reshape(block.shape)
        flat = index_buf[:size].reshape(block.shape)
        if width:
            with stage("traces", dies=stop - start, path="certified"):
                np.matmul(coef[start:stop], frame.basis[:, :width],
                          out=block)
        with stage("encode", dies=stop - start, path="certified",
                   columns=width) as step:
            np.add((rows * samples)[:, None], columns[:width], out=flat)
            for table, golden, (lo, hi, y_min, y_max), plane in zip(
                    tables, frame.codes, bands, planes):
                plane[rows] = golden
                if width:
                    certified[start:stop] &= table.encode_block(
                        block, (lo[:, :width], hi[:, :width], y_min,
                                y_max), codes)
                    plane.reshape(-1)[flat.reshape(-1)] = \
                        codes.reshape(-1)
            step.set(fallback_rows=int(
                np.count_nonzero(~certified[start:stop])))
        start = stop
    SCRATCH.give(block_buf, code_buf, index_buf)
    fallback = np.sort(rank[~certified])
    if fallback.size:
        k = int(fallback.size)
        with stage("traces", dies=k, path="exact"):
            exact = batch_biquad_traces(arrays[fallback], stimulus, times)
        with stage("encode", dies=k, path="exact"):
            for encoder, plane in zip(encoders, planes):
                plane[fallback] = monitor_bank_codes(encoder, x, exact)
        SCRATCH.give(exact)
    return planes, fallback
