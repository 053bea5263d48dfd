"""Fused shared-branch zone encoding for monitor banks.

(Stage 2 of the pipeline -- the paper's Table I curves drive this
encoder; see ``docs/paper_map.md`` for the artifact <-> module map
and the bit-compatibility contract this kernel honours.)

Encoding a ``(N, samples)`` trace stack through a
:class:`~repro.core.zones.ZoneEncoder` made of
:class:`~repro.monitor.comparator.MonitorBoundary` objects evaluates
each boundary's branch-current balance independently -- yet every
device of a Table I bank shares one MOS model card, so the expensive
EKV term

    B(v) = softplus((v - VT) / (2 n UT))^2

is *the same function* for every device: per-device currents differ
only by the ``unit_current`` prefactor.  :func:`monitor_bank_codes`
fuses the whole bank around that observation:

* **shared softplus tables** -- one per (model card, gate signal):
  for the paper bank the six y-hooked devices collapse onto a single
  ``(N, T)`` transcendental evaluation, computed fully in place, the
  x-hooked ones onto a single ``(T,)`` one (the shared stimulus is
  deliberately *not* broadcast), DC gates onto cached scalars;
* **shared branch sides** -- each boundary's left/right sum
  ``I_a + I_b`` (a per-boundary unit-current weighting of the tables)
  is content-memoized, so Table I's curves 3-5, which wire identical
  devices to ``(y, x)``, evaluate their common side once;
* **subtraction-free sign test** -- IEEE rounding preserves the sign
  of a difference exactly (``fl(l - r) < 0`` iff ``l < r``, and
  ``origin_sign`` in ``{-1, +1}`` only flips the direction), so the
  comparator bit is a single direct comparison per boundary, no
  balance array ever materializes;
* **packed code assembly** -- per-boundary bits accumulate straight
  into a narrow ``uint8`` code plane (banks up to eight boundaries)
  that widens to ``int64`` once at the end, instead of an ``int64``
  shift/or chain per bit;
* **pooled scratch** -- tables, sides and bit planes recycle through
  :data:`repro.core.scratch.SCRATCH`, so steady-state chunks allocate
  nothing but their result.

Bit-compatibility: the per-device current is still computed as
``unit_current * B(gate)`` with the exact argument expression of
:meth:`MosModel.saturation_current`, branch sides still combine as
``I1 + I2`` and ``I3 + I4`` in that association, and the bit equals
the sign test of :meth:`Boundary.bit` -- so the returned codes are
bit-identical to ``encoder.code(x, y)`` (asserted by the campaign
equivalence and hypothesis tests, which also pin the fused kernel to
:func:`monitor_bank_codes_reference`, the retained PR 2 loop).  Monte
Carlo-varied banks simply get less sharing: each shifted model card
owns its own cache slot, never a wrong one.

**Certified threshold tables.**  When every boundary's ``y`` devices
sit on one branch side with one polarity (all Table I curves), the
bit of each boundary at a fixed grid column flips at most once as
``y`` rises.  :func:`build_threshold_table` stores that flip point of
*this module's exact kernel* per boundary and column, with a proven
band around it (from the stated ``exp``/``log1p`` ulp errors and the
branch currents; see the function's docstring), and probes the kernel
to confirm.  :meth:`ZoneThresholdTable.encode_block` then encodes a
row block with two comparisons per boundary instead of the EKV
transcendentals and flags every row it cannot certify; the caller
(:func:`repro.campaign.batch.certified_spec_codes`) re-encodes those
through :func:`monitor_bank_codes`, so its codes are the exact ones.
A table is only valid for the exact kernel inputs it was built from,
which :func:`kernel_key` spells out for cache lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.scratch import SCRATCH
from repro.core.zones import ZoneEncoder
from repro.devices.mos_model import MosModel, MosParams, sigmoid, softplus
from repro.monitor.comparator import MonitorBoundary


def _branch_values(params: MosParams, gate):
    """The exact EKV branch expression for scalar / 1-D gates."""
    vgs_d = params.polarity * np.asarray(gate, dtype=float)
    return softplus((vgs_d - params.vt0)
                    / (2.0 * params.n * params.thermal_voltage)) ** 2


def _branch_table_2d(params: MosParams, gate: np.ndarray) -> np.ndarray:
    """EKV branch of a 2-D gate stack, computed in place.

    Same float expression tree as :func:`_branch_values` -- including
    :func:`softplus`'s clamp-at-30 overflow guard and the final square
    -- but staged through a single pooled buffer instead of one fresh
    ``(N, T)`` temporary per operation.
    """
    arg = SCRATCH.take(gate.shape)
    np.multiply(gate, float(params.polarity), out=arg)
    np.subtract(arg, params.vt0, out=arg)
    np.divide(arg, 2.0 * params.n * params.thermal_voltage, out=arg)
    # softplus: where(x > 30, x, log1p(exp(min(x, 30)))).  When no
    # element exceeds the clamp, min/where are bitwise no-ops and the
    # guard reduces to one read-only max scan.
    if arg.size and float(np.max(arg)) > 30.0:
        big = arg > 30.0
        saved = arg[big]
        np.minimum(arg, 30.0, out=arg)
        np.exp(arg, out=arg)
        np.log1p(arg, out=arg)
        arg[big] = saved
    else:
        np.exp(arg, out=arg)
        np.log1p(arg, out=arg)
    np.multiply(arg, arg, out=arg)  # ** 2
    return arg


def _table_key(params: MosParams, gate_key) -> Tuple:
    return (params.polarity, params.vt0, params.n,
            params.thermal_voltage, gate_key)


def _gate_for(hookup, x, y):
    if hookup == "x":
        return x, "x"
    if hookup == "y":
        return y, "y"
    return float(hookup), float(hookup)


def monitor_bank_codes(encoder: ZoneEncoder, x: np.ndarray,
                       y: np.ndarray) -> Optional[np.ndarray]:
    """Zone codes of a trace stack through a monitor-boundary bank.

    ``x`` is the shared stimulus samples ``(T,)`` (broadcast over
    rows), ``y`` the response stack ``(N, T)``; 2-D ``x`` stacks (the
    noisy-capture path) take the same fused kernel.  Returns ``None``
    when the encoder contains non-monitor boundaries (callers fall
    back to the generic per-boundary path).
    """
    if not all(isinstance(b, MonitorBoundary) for b in encoder.boundaries):
        return None
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)

    tables: Dict[Tuple, Union[float, np.ndarray]] = {}
    sides: Dict[Tuple, Union[float, np.ndarray]] = {}

    def branch_for(device: MosModel, hookup):
        gate, gate_key = _gate_for(hookup, x, y)
        key = _table_key(device.params, gate_key)
        table = tables.get(key)
        if table is None:
            if np.ndim(gate) >= 2:
                table = _branch_table_2d(device.params, gate)
            else:
                table = _branch_values(device.params, gate)
            tables[key] = table
        return table, key

    def side_for(boundary: MonitorBoundary, pair) -> np.ndarray:
        """Memoized branch sum ``I_a + I_b`` of one comparator side."""
        parts = []
        for position in pair:
            device = boundary.devices[position]
            hookup = boundary.config.hookups[position]
            __, table_key = branch_for(device, hookup)
            parts.append((table_key, device.unit_current))
        side_key = tuple(parts)
        value = sides.get(side_key)
        if value is not None:
            return value
        running = None  # full-stack partial sum (owns a pooled buffer)
        spill = None    # scalar / 1-D partial awaiting a 2-D partner
        for position in pair:
            device = boundary.devices[position]
            hookup = boundary.config.hookups[position]
            table, __ = branch_for(device, hookup)
            if np.ndim(table) >= 2:
                if running is None:
                    running = np.multiply(table, device.unit_current,
                                          out=SCRATCH.take(table.shape))
                else:
                    # Rare: two full-stack gates on one side.  Addition
                    # is commutative bitwise, so folding the second
                    # product in preserves (I_a + I_b) exactly.
                    np.add(running, table * device.unit_current,
                           out=running)
            else:
                current = device.unit_current * table
                if np.ndim(current) == 0:
                    current = float(current)
                spill = current if spill is None else spill + current
        if spill is not None:
            value = spill if running is None \
                else np.add(running, spill, out=running)
        else:
            value = running
        sides[side_key] = value
        return value

    num_bits = len(encoder.boundaries)
    bits = SCRATCH.take(shape, dtype=bool)
    narrow = np.uint8 if num_bits <= 8 else np.int64
    codes = np.zeros(shape, dtype=narrow)
    for boundary in encoder.boundaries:
        left = side_for(boundary, (0, 1))
        right = side_for(boundary, (2, 3))
        # bit = ((I1+I2) - (I3+I4)) * origin_sign < 0.  Rounding keeps
        # the difference's sign exact, and origin_sign is exactly +-1,
        # so the whole test collapses to one direct comparison.
        if boundary.origin_sign > 0:
            np.less(left, right, out=bits)
        else:
            np.greater(left, right, out=bits)
        np.left_shift(codes, 1, out=codes)
        np.bitwise_or(codes, bits, out=codes)
    SCRATCH.give(bits,
                 *(v for v in tables.values() if isinstance(v, np.ndarray)
                   and v.ndim >= 2),
                 *(v for v in sides.values() if isinstance(v, np.ndarray)
                   and v.ndim >= 2))
    if codes.dtype is not np.dtype(np.int64):
        codes = codes.astype(np.int64)
    return codes


# ----------------------------------------------------------------------
# Certified y-threshold tables
# ----------------------------------------------------------------------
#: Unit roundoff of IEEE-754 double precision.
UNIT_ROUNDOFF = 2.0 ** -53

#: Stated worst-case errors, in ulps, of numpy's float64 ``exp`` and
#: ``log1p``.  The table's error budget rests on them; the build's
#: probes of the exact kernel check the result empirically.
EXP_ULPS = 4.0
LOG1P_ULPS = 4.0

#: The y range (volts) a threshold table certifies.  Rows with a sample
#: outside it take the exact kernel.
TABLE_WINDOW = (-1.0, 2.0)

#: Boundaries a table packs into its ``uint8`` code plane.
TABLE_MAX_BITS = 8

#: Samples per row block of the certified kernels: 2**15 float64
#: samples (256 KiB) keep a block, its bit planes and the table rows in
#: L2, and keep the ``(rows, 2K+1) @ (2K+1, T)`` trace product of up to
#: three tones below OpenBLAS's single-thread size cutoff.
BLOCK_SAMPLES = 1 << 15

#: Half-widths, in ulps, of the bisection brackets tried around the
#: closed-form seed (tightest valid one wins, else the whole window).
_SEED_BRACKET_ULPS = (64, 4096)

#: Largest ``|z|`` of an EKV argument the error budget accepts: beyond
#: it ``softplus(z)**2`` can leave the normal float range.
_MAX_EKV_ARG = 300.0

#: Verified margin, in units of the kernel's error bound, at every band
#: edge: the kernel's own error plus the float reference's error, with
#: headroom.
_EDGE_MARGIN = 2.5

_SIGN_KEY = np.int64(-2 ** 63)


def block_rows(samples: int) -> int:
    """Rows per block of :data:`BLOCK_SAMPLES` at ``samples`` columns."""
    return max(1, BLOCK_SAMPLES // max(1, int(samples)))


def _to_keys(values) -> np.ndarray:
    """Order-preserving int64 keys of floats (adjacent floats differ by 1)."""
    values = np.asarray(values, dtype=np.float64)
    bits = np.ascontiguousarray(values).view(np.int64).reshape(values.shape)
    return np.where(bits < 0, _SIGN_KEY - bits, bits)


def _from_keys(keys) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    bits = np.ascontiguousarray(np.where(keys < 0, _SIGN_KEY - keys, keys))
    return bits.view(np.float64).reshape(keys.shape)


@dataclass(frozen=True)
class _Layout:
    """Where a boundary's ``y`` devices sit: one branch side, one polarity."""

    boundary: MonitorBoundary
    #: ``+1`` when the y devices sit on the left branch (M1, M2).
    side_sign: int
    polarity: int

    @property
    def low_bit(self) -> int:
        """The boundary's bit for y below its threshold.

        ``l - r = side_sign * (S_y - S_o)`` and the y side grows with y
        iff ``polarity`` is +1, so above the threshold ``sign(l - r) =
        side_sign * polarity`` and the bit ``(l - r) * origin_sign < 0``
        is 1 iff that product times ``origin_sign`` is negative.
        """
        product = self.side_sign * self.polarity * self.boundary.origin_sign
        return int(product > 0)

    def reference(self, x: np.ndarray, y
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float reference ``(D, S, slope)`` at plane points ``(x, y)``.

        ``D = S_y - S_o`` is the y side minus the other side, ``S = S_y
        + S_o`` the branch total and ``slope = |dS_y/dy|``, all from the
        EKV expression the kernel evaluates (but not bit-replicated: the
        table only uses these values inside its error budget).
        """
        sides = [0.0, 0.0]
        slope = 0.0
        for position, (device, hookup) in enumerate(
                zip(self.boundary.devices, self.boundary.config.hookups)):
            params = device.params
            scale = 2.0 * params.n * params.thermal_voltage
            gate = _plane_gate(hookup, x, y)
            z = (params.polarity * gate - params.vt0) / scale
            branch = softplus(z)
            sides[position // 2] = sides[position // 2] \
                + device.unit_current * branch * branch
            if _is_y(hookup):
                slope = slope + (device.unit_current * 2.0 * branch
                                 * sigmoid(z) / scale)
        y_side = sides[0] if self.side_sign > 0 else sides[1]
        other = sides[1] if self.side_sign > 0 else sides[0]
        return y_side - other, y_side + other, slope

    def relative_error(self, x: np.ndarray) -> np.ndarray:
        """Per-column bound on the kernel's relative side error.

        One device current ``unit * fl(softplus(z)**2)``: the argument
        ``fl(fl(pol*v - vt0) / (2 n UT))`` is off by at most ``2u|z|``,
        which ``exp`` turns into a relative error of ``2u|z|``; ``exp``
        adds :data:`EXP_ULPS` and ``log1p`` :data:`LOG1P_ULPS` ulps
        (``2u`` each), and since ``sigmoid(z) <= softplus(z)`` the
        log1p of a perturbed ``exp`` keeps the relative error of its
        input.  Squaring doubles that and rounds once (``u``), the
        unit-current product and the two-device side sum round once
        each (``u``, ``u``; all terms are positive).  So a side is off
        by at most ``rho * side`` with ``rho = 2 (2u|z| + 2u (E + L))
        + 3u``, and ``l - r`` by at most ``rho (l + r)``; the factor
        1.01 absorbs second-order terms.  ``|z|`` is bounded over the
        whole :data:`TABLE_WINDOW` (plus a 0.1 V guard for bands that
        reach past it).
        """
        u = UNIT_ROUNDOFF
        lo, hi = TABLE_WINDOW[0] - 0.1, TABLE_WINDOW[1] + 0.1
        z_max = np.zeros(x.shape)
        for device, hookup in zip(self.boundary.devices,
                                  self.boundary.config.hookups):
            params = device.params
            scale = 2.0 * params.n * params.thermal_voltage
            gates = (lo, hi) if _is_y(hookup) \
                else (_plane_gate(hookup, x, 0.0),)
            for gate in gates:
                z = np.abs((params.polarity * np.asarray(gate) - params.vt0)
                           / scale)
                z_max = np.maximum(z_max, z)
        softplus_error = 2.0 * u * z_max + 2.0 * u * (EXP_ULPS + LOG1P_ULPS)
        rho = 1.01 * (2.0 * softplus_error + 3.0 * u)
        return np.where(z_max <= _MAX_EKV_ARG, rho, np.inf)

    def seed(self, x: np.ndarray) -> np.ndarray:
        """Closed-form EKV inverse: the y where the sides balance.

        With every y device on one model card, ``S_y = U * B(y) + C`` and
        ``B(y) = softplus(z)**2`` inverts as ``z = log(expm1(sqrt(B)))``
        (``z = sqrt(B)`` past softplus's clamp at 30).  NaN where no
        real solution exists or the cards differ; only a starting point
        for the bisection on the exact kernel.
        """
        devices = self.boundary.devices
        hookups = self.boundary.config.hookups
        y_positions = [i for i, h in enumerate(hookups) if _is_y(h)]
        cards = {devices[i].params for i in y_positions}
        if len(cards) != 1:
            return np.full(x.shape, np.nan)
        params = cards.pop()
        units = sum(devices[i].unit_current for i in y_positions)
        # The y-independent currents: C on the y side, S_o on the other.
        other_y_side = np.zeros(x.shape)
        other_side = np.zeros(x.shape)
        y_side_index = 0 if self.side_sign > 0 else 1
        for position, (device, hookup) in enumerate(zip(devices, hookups)):
            if _is_y(hookup):
                continue
            current = device.saturation_current(_plane_gate(hookup, x, 0.0))
            if position // 2 == y_side_index:
                other_y_side = other_y_side + current
            else:
                other_side = other_side + current
        target = (other_side - other_y_side) / units
        scale = 2.0 * params.n * params.thermal_voltage
        with np.errstate(all="ignore"):
            root = np.sqrt(target)
            z = np.where(root > 30.0, root, np.log(np.expm1(root)))
            seed = params.polarity * (z * scale + params.vt0)
        return np.where(target > 0.0, seed, np.nan)


def _is_y(hookup) -> bool:
    return isinstance(hookup, str) and hookup == "y"


def _plane_gate(hookup, x, y):
    if isinstance(hookup, str):
        return x if hookup == "x" else y
    return float(hookup)


def _table_layouts(encoder: ZoneEncoder) -> Optional[List[_Layout]]:
    """The table rule, decided from the bank alone.

    Every boundary must be a :class:`MonitorBoundary` whose ``y``
    devices sit on one branch side with one polarity: then at a fixed
    ``x`` the comparator balance is monotone in ``y`` and each bit
    flips at most once as ``y`` rises.
    """
    boundaries = encoder.boundaries
    if not boundaries or len(boundaries) > TABLE_MAX_BITS:
        return None
    layouts = []
    for boundary in boundaries:
        if not isinstance(boundary, MonitorBoundary):
            return None
        y_positions = [i for i, h in enumerate(boundary.config.hookups)
                       if _is_y(h)]
        sides = {i // 2 for i in y_positions}
        polarities = {boundary.devices[i].params.polarity
                      for i in y_positions}
        if len(sides) != 1 or len(polarities) != 1:
            return None
        layouts.append(_Layout(boundary, 1 if sides.pop() == 0 else -1,
                               int(polarities.pop())))
    return layouts


def kernel_key(encoder: ZoneEncoder) -> Optional[Tuple]:
    """Exact inputs of the fused kernel for ``encoder`` (None: no table).

    Per boundary: its ``origin_sign``, its four hookups, and every
    device's model card and unit current -- all that
    :func:`monitor_bank_codes` reads.  Two banks share a key only when
    the kernel computes the same bits for both, so a table cached under
    it can never encode another bank's traces.  (The golden cache's
    :meth:`ZoneEncoder.fingerprint` is a rounded probe; banks a
    rounding apart share it, so it must not key tables.)  ``None`` for
    banks outside the table rule, which never get a table.

    Computed once per encoder object and kept on it, as
    :func:`repro.campaign.cache.encoder_key` keeps the fingerprint.
    """
    try:
        return encoder._kernel_key
    except AttributeError:
        key = encoder._kernel_key = _kernel_key(encoder)
        return key


def _kernel_key(encoder: ZoneEncoder) -> Optional[Tuple]:
    if _table_layouts(encoder) is None:
        return None
    return tuple(
        (float(boundary.origin_sign),
         tuple(h if isinstance(h, str) else float(h)
               for h in boundary.config.hookups),
         tuple((device.params, float(device.unit_current))
               for device in boundary.devices))
        for boundary in encoder.boundaries)


def _kernel_bits(encoder: ZoneEncoder, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Bit ``b`` of the exact fused kernel at ``y[..., b, :]``.

    ``y`` has shape ``(..., B, T)``: one row of candidate y values per
    boundary, evaluated as ordinary rows of a stack on the grid ``x``
    -- the same layout the engine's chunks use.  Each kernel call takes
    at most a :func:`block_rows` stack, so the kernel's pooled scratch
    stays the size of the certified encoder's blocks.
    """
    num_bits, samples = y.shape[-2:]
    slabs = np.asarray(y, dtype=float).reshape(-1, num_bits, samples)
    per_call = max(1, block_rows(samples) // num_bits)
    shifts = (num_bits - 1 - np.arange(num_bits))[:, None]
    bits = np.empty(slabs.shape, dtype=np.uint8)
    for start in range(0, len(slabs), per_call):
        group = slabs[start:start + per_call]
        codes = monitor_bank_codes(
            encoder, x, group.reshape(-1, samples)).reshape(group.shape)
        bits[start:start + per_call] = (codes >> shifts) & 1
    return bits.reshape(y.shape)


@dataclass(frozen=True)
class ZoneThresholdTable:
    """Per-column y thresholds of a monitor bank on one shared x grid.

    For boundary ``b`` and grid column ``j`` the exact fused kernel
    (:func:`monitor_bank_codes`) returns ``low_bits[b]`` for every ``y``
    in :attr:`window` below ``lower[b, j]`` and the other bit for every
    ``y`` above ``upper[b, j]``.  Between the two lies ``thresholds[b,
    j]``, the float where the kernel's bit flips (found by bisection on
    the kernel itself), and the band ``[t - w, t + w]`` where float
    jitter of ``exp``/``log1p`` may move the flip.  A column with no
    flip in the window stores ``+inf`` (the bit stays low) or ``-inf``
    (it stays high) in all three planes.

    Build with :func:`build_threshold_table` (cache it under
    :func:`kernel_key`); encode with :meth:`encode_block`.  A table
    certifies the transcendentals of the machine that built it, so it
    lives in process memory only and is never persisted.
    """

    thresholds: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    low_bits: np.ndarray
    window: Tuple[float, float]

    @property
    def num_bits(self) -> int:
        return int(self.low_bits.size)

    @property
    def mask(self) -> int:
        """The packed low bits (MSB = first boundary)."""
        mask = 0
        for bit in self.low_bits:
            mask = (mask << 1) | int(bit)
        return mask

    def bands(self, eps: float, columns: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray, float, float]:
        """Comparison planes for samples known to within ``eps`` volts.

        Returns ``(lo, hi, y_min, y_max)`` rounded outward, so that for
        float comparisons on a sample ``s`` with ``|s - y| <= eps``:
        ``s < lo`` proves ``y < lower``, ``s > hi`` proves ``y >
        upper``, and ``y_min <= s <= y_max`` proves ``y`` inside the
        window.  (``fl(a)`` lies within half an ulp of ``a``, and one
        ``nextafter`` step moves past it in the safe direction.)
        With ``columns`` the planes cover only those grid columns, in
        that order.
        """
        eps = float(eps)
        lower, upper = self.lower, self.upper
        if columns is not None:
            lower, upper = lower[:, columns], upper[:, columns]
        lo = np.nextafter(lower - eps, -np.inf)
        hi = np.nextafter(upper + eps, np.inf)
        y_min = float(np.nextafter(self.window[0] + eps, np.inf))
        y_max = float(np.nextafter(self.window[1] - eps, -np.inf))
        return lo, hi, y_min, y_max

    def encode_block(self, y: np.ndarray, bands, out: np.ndarray
                     ) -> np.ndarray:
        """Codes of a row block into ``out``; per-row certified flags.

        Two code planes are packed from the block: "not provably low"
        (``y >= lo``) and "provably high" (``y > hi``).  A sample is
        certified when the two agree in every bit -- it then sits
        outside every band of its column -- and its code is the
        provably-high plane with the low bits folded in.  A row is
        certified when all its samples are and it stays inside the
        window; ``out`` holds valid codes for certified rows only.
        """
        lo, hi, y_min, y_max = bands
        # Flat pooled buffers of at least a block: the golden-relative
        # encoder's blocks vary in shape, and the pool matches shapes.
        size = y.size
        maybe_buf = SCRATCH.take(max(size, BLOCK_SAMPLES), dtype=np.uint8)
        bits_buf = SCRATCH.take(max(size, BLOCK_SAMPLES), dtype=np.uint8)
        maybe = maybe_buf[:size].reshape(y.shape)
        bits = bits_buf[:size].reshape(y.shape)
        flags = bits.view(bool)
        np.greater_equal(y, lo[0], out=maybe.view(bool))
        np.greater(y, hi[0], out=out.view(bool))
        for b in range(1, self.num_bits):
            # plane = 2 * plane | bit, all in uint8 (no casting loops).
            np.add(maybe, maybe, out=maybe)
            np.greater_equal(y, lo[b], out=flags)
            np.bitwise_or(maybe, bits, out=maybe)
            np.add(out, out, out=out)
            np.greater(y, hi[b], out=flags)
            np.bitwise_or(out, bits, out=out)
        if np.array_equal(maybe, out):
            certified = np.ones(y.shape[0], dtype=bool)
        else:
            np.not_equal(maybe, out, out=flags)
            certified = ~flags.any(axis=1)
        # NaN fails both comparisons, so it leaves the window too.
        if not (y.min() >= y_min and y.max() <= y_max):
            certified &= (y.min(axis=1) >= y_min) & (y.max(axis=1) <= y_max)
        mask = self.mask
        if mask:
            np.bitwise_xor(out, mask, out=out)
        SCRATCH.give(maybe_buf, bits_buf)
        return certified


def build_threshold_table(encoder: ZoneEncoder, x: np.ndarray
                          ) -> Optional[ZoneThresholdTable]:
    """The certified y-threshold table of ``encoder`` on the grid ``x``.

    Returns ``None`` -- callers keep the exact kernel -- when the bank
    breaks the table rule (non-monitor boundaries, ``y`` devices on
    both branch sides or of both polarities, more than
    :data:`TABLE_MAX_BITS` boundaries), when ``x`` is not a 1-D grid,
    or when any step below fails to certify.

    1. **Window ends.**  The exact kernel's bits at both ends of the
       window split the columns into crossing ones (the bits differ and
       the lower end shows the boundary's low bit, else no table) and
       constant ones.  A constant column is kept only if the float
       reference proves the whole window on that side: ``pol * D >
       2.5 rho S`` at the lower end (the bit is high throughout) or
       ``-pol * D > 2.5 rho S`` at the upper end (low throughout),
       where ``rho`` is :meth:`_Layout.relative_error`.
    2. **Thresholds.**  Each crossing column searches, on the order-
       preserving int64 keys of the floats, between a low and a high
       sample of the *exact kernel*: inside +-64 or else +-4096 ulps of
       the closed-form EKV inverse, else across the whole window, with
       as many candidates per kernel call as a row block holds.  The
       result ``t`` is a float of the high side whose predecessor is
       low.
    3. **Bands.**  The kernel computes ``l - r`` to within ``rho (l +
       r)``, so its bit can disagree with the real balance only where
       ``|D| <= rho S``; with the slope ``s = |dS_y/dy|`` at ``t`` the
       starting half-width is ``w = 5 rho S / s`` (at least 16 ulps of
       ``t``).  The float reference must then show ``-pol * D > 2.5
       rho S`` at ``lower = t - w`` and ``pol * D > 2.5 rho S`` at
       ``upper = t + w``; ``w`` quadruples until it does.  Beyond the
       edges the margin only grows: ``pol * D - rho S`` rises with y
       (the y side is monotone and ``rho < 1``) and ``-pol * D - rho
       S`` falls, so every y of the window past an edge has the edge's
       bit.
    4. **Probes.**  The exact kernel is evaluated just outside each
       band and three band widths beyond it, and at both window ends
       and the middle of constant columns.  Any disagreement with the
       table returns ``None``.
    """
    layouts = _table_layouts(encoder)
    x = np.asarray(x, dtype=float)
    if layouts is None or x.ndim != 1 or x.size == 0 \
            or not np.all(np.isfinite(x)):
        return None
    y_lo, y_hi = TABLE_WINDOW
    num_bits, samples = len(layouts), x.size
    low = np.array([layout.low_bit for layout in layouts], dtype=np.uint8)
    low_col = low[:, None]
    rho = np.stack([layout.relative_error(x) for layout in layouts])
    if not np.all(np.isfinite(rho)):
        return None
    polarity = np.array([layout.polarity for layout in layouts],
                        dtype=float)[:, None]

    def reference(*ys: np.ndarray):
        """``(pol * D, S, slope)`` at each ``(B, T)`` y set: ``(P, B, T)``."""
        stacked = np.stack(ys, axis=1)
        parts = [layout.reference(x, stacked[b])
                 for b, layout in enumerate(layouts)]
        return tuple(np.stack([part[i] for part in parts], axis=1)
                     * (polarity if i == 0 else 1.0) for i in range(3))

    # 1 + 2a. One kernel evaluation: the window ends and the seed
    # brackets.
    key_lo, key_hi = (int(k) for k in _to_keys([y_lo, y_hi]))
    seeds = np.stack([layout.seed(x) for layout in layouts])
    seed_keys = _to_keys(np.clip(np.where(np.isfinite(seeds), seeds, y_lo),
                                 y_lo, y_hi))
    brackets = [(np.clip(seed_keys - radius, key_lo, key_hi),
                 np.clip(seed_keys + radius, key_lo, key_hi))
                for radius in _SEED_BRACKET_ULPS]
    rows = [np.full((num_bits, samples), y_lo),
            np.full((num_bits, samples), y_hi)]
    for lo_keys, hi_keys in brackets:
        rows += [_from_keys(lo_keys), _from_keys(hi_keys)]
    bits = _kernel_bits(encoder, x, np.stack(rows))
    crossing = bits[0] != bits[1]
    if np.any(crossing & (bits[0] != low_col)):
        return None
    stays_high = ~crossing & (bits[0] != low_col)

    # 2b. Thresholds: search on the exact kernel, from the tightest
    # valid bracket (else the whole window).
    lo_keys = np.full((num_bits, samples), key_lo, dtype=np.int64)
    hi_keys = np.full((num_bits, samples), key_hi, dtype=np.int64)
    for k in reversed(range(len(brackets))):
        valid = (bits[2 + 2 * k] == low_col) & (bits[3 + 2 * k] != low_col)
        lo_keys = np.where(valid, brackets[k][0], lo_keys)
        hi_keys = np.where(valid, brackets[k][1], hi_keys)
    lo_keys = np.where(crossing, lo_keys, hi_keys)  # inactive entries
    # A (per_call + 1)-ary search: each kernel call tests ``per_call``
    # evenly spaced candidates per entry, and the bracket moves to the
    # first high candidate and the one before it (low, by construction
    # -- any adjacent low/high pair is a flip of the kernel).
    per_call = max(1, block_rows(samples) // num_bits)
    order = np.arange(1, per_call + 1).reshape(-1, 1, 1)
    while True:
        width = hi_keys - lo_keys
        if not np.any(width > 1):
            break
        step = np.maximum(width // (per_call + 1), 1)
        candidates = lo_keys + np.minimum(order * step,
                                          np.maximum(width - 1, 0))
        high = _kernel_bits(encoder, x, _from_keys(candidates)) \
            != low_col
        first = np.argmax(high, axis=0)
        found = high.any(axis=0)
        previous = np.take_along_axis(candidates,
                                      np.maximum(first - 1, 0)[None],
                                      axis=0)[0]
        hi_keys = np.where(found, np.take_along_axis(
            candidates, first[None], axis=0)[0], hi_keys)
        lo_keys = np.where(found, np.where(first > 0, previous, lo_keys),
                           candidates[-1])
    thresholds = np.where(crossing, _from_keys(hi_keys),
                          np.where(stays_high, -np.inf, np.inf))

    # 1b. Constant columns, proved across the window on the reference.
    t_cross = np.where(crossing, thresholds, 0.5 * (y_lo + y_hi))
    (up_lo, up_hi, __), (total_lo, total_hi, total_t), \
        (__, __, slope_t) = reference(
            np.full_like(t_cross, y_lo), np.full_like(t_cross, y_hi),
            t_cross)
    if np.any(stays_high & ~(up_lo > _EDGE_MARGIN * rho * total_lo)) \
            or np.any(~crossing & ~stays_high
                      & ~(-up_hi > _EDGE_MARGIN * rho * total_hi)):
        return None

    # 3. Bands, verified on the float reference.
    with np.errstate(divide="ignore", invalid="ignore"):
        width = 5.0 * rho * total_t / slope_t
    width = np.where(np.isfinite(width), width, np.inf)
    width = np.maximum(width, 16.0 * np.spacing(np.abs(t_cross)))
    for __ in range(12):
        lower = t_cross - width
        upper = t_cross + width
        (up_lower, up_upper), (total_lower, total_upper), __s = \
            reference(lower, upper)
        holds = ((-up_lower > _EDGE_MARGIN * rho * total_lower)
                 & (up_upper > _EDGE_MARGIN * rho * total_upper))
        if np.all(holds | ~crossing):
            break
        width = np.where(holds | ~crossing, width, 4.0 * width)
    else:
        return None
    if np.any(crossing & ~(width < 0.1)):
        return None
    lower = np.where(crossing, lower, thresholds)
    upper = np.where(crossing, upper, thresholds)

    # 4. Probes of the exact kernel.
    probes = []
    for lo_probe, hi_probe in (
            (np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf)),
            (lower - 3.0 * width, upper + 3.0 * width)):
        probes.append(np.where(crossing, np.clip(lo_probe, y_lo, y_hi),
                               y_lo))
        probes.append(np.where(crossing, np.clip(hi_probe, y_lo, y_hi),
                               y_hi))
    probes.append(np.full((num_bits, samples), 0.5 * (y_lo + y_hi)))
    probe_bits = _kernel_bits(encoder, x, np.stack(probes))
    high_bit = 1 - low_col
    for values, got in zip(probes, probe_bits):
        want = np.where(crossing, np.where(values < lower, low_col,
                                           high_bit),
                        np.where(stays_high, high_bit, low_col))
        # A clipped probe that landed inside a band proves nothing.
        meaningful = ~crossing | (values < lower) | (values > upper)
        if np.any(meaningful & (got != want)):
            return None
    for array in (thresholds, lower, upper):
        array.setflags(write=False)
    return ZoneThresholdTable(thresholds, lower, upper, low,
                              (y_lo, y_hi))


def monitor_bank_codes_reference(encoder: ZoneEncoder, x: np.ndarray,
                                 y: np.ndarray) -> Optional[np.ndarray]:
    """The pre-fusion shared-branch encoder (PR 2), kept as baseline.

    Same shared softplus tables, but one fresh ``(N, T)`` temporary per
    device/boundary operation, an explicit balance subtraction, and an
    ``int64`` shift/or chain per bit.  Benchmarks time the fused kernel
    against this, and the equivalence tests assert both return
    bit-identical codes.
    """
    if not all(isinstance(b, MonitorBoundary) for b in encoder.boundaries):
        return None
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cache: Dict[Tuple, Union[float, np.ndarray]] = {}
    codes: Optional[np.ndarray] = None
    for boundary in encoder.boundaries:
        currents = []
        for device, hookup in zip(boundary.devices,
                                  boundary.config.hookups):
            gate, gate_key = _gate_for(hookup, x, y)
            key = _table_key(device.params, gate_key)
            branch = cache.get(key)
            if branch is None:
                branch = _branch_values(device.params, gate)
                cache[key] = branch
            current = device.unit_current * branch
            if np.ndim(current) == 0:
                current = float(current)
            currents.append(current)
        balance = (currents[0] + currents[1]) - (currents[2] + currents[3])
        bit = (balance * boundary.origin_sign < 0).astype(np.int64)
        codes = bit if codes is None else (codes << 1) | bit
    return codes
