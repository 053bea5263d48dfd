"""Packed, array-resident signatures for whole populations.

A fleet campaign produces one signature *per die*; materializing each as
a :class:`repro.core.signature.Signature` (a Python list of
:class:`SignatureEntry` dataclasses) costs hundreds of object
constructions per die and dominates the back half of the screening
pipeline.  A :class:`SignatureBatch` stores the same information for all
N dies at once in CSR (compressed sparse row) layout:

* ``codes``        -- flat ``int64`` zone codes of every run, all rows
  concatenated in die order;
* ``durations``    -- flat ``float64`` dwell times aligned with
  ``codes``;
* ``row_offsets``  -- ``(N + 1,)`` offsets: die ``i`` owns the slice
  ``[row_offsets[i], row_offsets[i + 1])``;
* ``periods``      -- ``(N,)`` per-die signature periods (a shared
  scalar for grid captures; per-row after counter saturation in the
  asynchronous capture model).

Construction from a stacked ``(N, samples)`` zone-code array is a
single vectorized run-length pass (:meth:`from_code_stack`), and
:meth:`ndf_to` scores every row against a shared golden signature in
one kernel over the rows padded to a ``(N, max_runs)`` layout (cached
on the batch) -- no per-die ``np.unique`` breakpoint merges and no
per-row Python loop.
Conversion to per-die :class:`Signature` objects happens only at the
diagnosis edges (:meth:`to_signatures`, :meth:`row`).

The batch is also the transport format of the fault-diagnosis
subsystem (:mod:`repro.diagnosis`): a campaign run with
``keep_signatures=True`` retains its packed batch, the failing rows
are carved out with :meth:`select`, and the dictionary matcher scores
them fault by fault through :meth:`ndf_to` -- the whole diagnosis loop
stays array-resident until the per-die report edge.

Bit-compatibility
-----------------
The batch replicates the scalar path's floating-point expression order
everywhere it matters, so for the same code stack:

* row durations equal ``Signature.from_samples``' entry durations bit
  for bit (same ``next-head-time - head-time`` subtractions);
* row start times equal ``Signature._starts`` bit for bit (sequential
  ``np.cumsum`` over each row's durations);
* :meth:`ndf_to` equals :func:`repro.core.ndf.ndf` against the same
  golden **bit for bit**: the merged partition, interval widths,
  Hamming terms and even the final per-row summation reproduce the
  scalar metric's exact operations.  Rows are summed in numpy's
  pairwise order by a lane model (:func:`_pairwise_row_sums`: eight
  lane accumulators, then the tail in order) that a once-per-process
  probe checks against ``np.sum`` on rows of every length from 1 to
  128.  A row of more than 128 terms (numpy splits those in two) is
  summed by ``np.sum`` itself; so is every row if the probe fails,
  and those rows count in ``ndf_fallback_rows_total`` on the
  process-default registry.

The campaign equivalence tests assert all three; the full contract is
written out in ``docs/paper_map.md``.  K-channel stacks of this batch
live in :mod:`repro.core.multi_signature_batch`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.signature import Signature, SignatureEntry
from repro.obs.metrics import default_registry


class _PaddedRows(NamedTuple):
    """A batch's rows padded to its longest row (see
    :meth:`SignatureBatch._padded`)."""

    starts: np.ndarray        # (N, W) run starts, +inf past each row
    codes: np.ndarray         # (N, W) zone codes, 0 past each row
    counts: np.ndarray        # (N,) runs per row
    period: Optional[float]   # the rows' one period, None if they differ


class SignatureBatch:
    """N run-length signatures packed into flat CSR arrays.

    Parameters
    ----------
    codes:
        Flat zone codes of all runs, row-concatenated.
    durations:
        Flat dwell times aligned with ``codes`` (all positive).
    row_offsets:
        ``(N + 1,)`` monotone offsets into the flat arrays.
    periods:
        Scalar period shared by every row, or an ``(N,)`` array of
        per-row periods.
    """

    def __init__(self, codes: np.ndarray, durations: np.ndarray,
                 row_offsets: np.ndarray,
                 periods: Union[float, np.ndarray]) -> None:
        self.codes = np.asarray(codes, dtype=np.int64)
        self.durations = np.asarray(durations, dtype=float)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        n = self.row_offsets.size - 1
        if n < 0:
            raise ValueError("row_offsets needs at least one element")
        if np.ndim(periods) == 0:
            self.periods = np.full(n, float(periods))
        else:
            self.periods = np.asarray(periods, dtype=float)
        if self.periods.shape != (n,):
            raise ValueError("periods must align with the row count")
        if self.codes.shape != self.durations.shape:
            raise ValueError("codes and durations must align")
        if (self.row_offsets[0] != 0
                or self.row_offsets[-1] != self.codes.size
                or np.any(np.diff(self.row_offsets) < 1)):
            raise ValueError("row_offsets must be monotone, start at 0, "
                             "end at the run count, and give every row "
                             "at least one run")
        self._rows: Optional[_PaddedRows] = None  # see _padded()

    def __getstate__(self) -> dict:
        # Pool workers send batches home: the padded layout is rebuilt
        # where it is needed instead of riding along.
        return dict(self.__dict__, _rows=None)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_code_stack(cls, times: np.ndarray, codes: np.ndarray,
                        period: float) -> "SignatureBatch":
        """One-pass run-length extraction of a whole ``(N, T)`` stack.

        ``times[j]`` is the start of the sampling interval carrying
        ``codes[i, j]``; the final interval of every row extends to
        ``period``.  Row ``i`` of the result equals
        ``Signature.from_samples(times, codes[i], period)`` entry for
        entry (codes and durations bit-identical), but the extraction
        runs as one boolean run-head pass over the full stack instead
        of N Python loops building ``SignatureEntry`` objects.
        """
        times = np.asarray(times, dtype=float)
        stack = np.atleast_2d(np.asarray(codes))
        n, t = stack.shape
        if times.ndim != 1 or times.size != t or t == 0:
            raise ValueError("times must be 1-D and aligned with the "
                             "code stack's sample axis")
        if times[0] != 0.0:
            raise ValueError("sampled signatures must start at t = 0")
        if times[-1] >= period:
            raise ValueError("sample times must stay below the period")
        if t > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        # Run heads: the first sample of every row plus every sample
        # whose code differs from its predecessor.  The flat indices of
        # the (N, T) mask are row-major, so they are already in CSR
        # order; one divmod splits them into rows and columns.
        heads = np.ones(stack.shape, dtype=bool)
        if t > 1:
            heads[:, 1:] = stack[:, 1:] != stack[:, :-1]
        flat = np.flatnonzero(heads)
        rows, cols = np.divmod(flat, t)
        counts = np.bincount(rows, minlength=n)
        row_offsets = np.concatenate([[0], np.cumsum(counts)])
        run_codes = np.take(stack, flat).astype(np.int64)
        head_times = times[cols]
        # Each run lasts until the next head in its row; the last run of
        # a row until the period.  Same subtractions as the scalar
        # ``np.diff([head times, period])``.
        bounds_next = np.empty(head_times.size)
        if head_times.size > 1:
            bounds_next[:-1] = head_times[1:]
        bounds_next[row_offsets[1:] - 1] = period
        durations = bounds_next - head_times
        return cls(run_codes, durations, row_offsets, float(period))

    @classmethod
    def from_signatures(cls, signatures: Sequence[Signature]
                        ) -> "SignatureBatch":
        """Pack per-die :class:`Signature` objects (diagnosis edge)."""
        if not signatures:
            return cls(np.empty(0, np.int64), np.empty(0), np.zeros(1),
                       np.empty(0))
        codes = np.concatenate([s._codes for s in signatures])
        durations = np.concatenate([s.durations() for s in signatures])
        counts = [len(s) for s in signatures]
        row_offsets = np.concatenate([[0], np.cumsum(counts)])
        periods = np.asarray([s.period for s in signatures])
        return cls(codes, durations, row_offsets, periods)

    @classmethod
    def empty(cls) -> "SignatureBatch":
        """A batch with zero rows (the empty-population edge case)."""
        return cls(np.empty(0, np.int64), np.empty(0),
                   np.zeros(1, np.int64), np.empty(0))

    @classmethod
    def concatenate(cls, batches: Sequence["SignatureBatch"]
                    ) -> "SignatureBatch":
        """Stack batches row-wise (streamed/chunked campaign merge).

        Row ``i`` of the result is bit-identical to the corresponding
        row of its source batch -- only the CSR offsets shift.
        """
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        codes = np.concatenate([b.codes for b in batches])
        durations = np.concatenate([b.durations for b in batches])
        periods = np.concatenate([b.periods for b in batches])
        offsets = [np.zeros(1, np.int64)]
        shift = 0
        for b in batches:
            offsets.append(b.row_offsets[1:] + shift)
            shift += b.codes.size
        return cls(codes, durations, np.concatenate(offsets), periods)

    def select(self, indices) -> "SignatureBatch":
        """New batch holding the given rows, in the given order.

        This is the diagnosis carve-out: a campaign keeps one packed
        batch for the whole fleet, and only the failing rows travel on
        to the dictionary matcher.  Rows are gathered as flat slices,
        so the selected rows stay bit-identical to their sources.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("need a 1-D row index array")
        if indices.size == 0:
            return SignatureBatch.empty()
        counts = self.runs_per_row[indices]
        new_offsets = np.concatenate([[0], np.cumsum(counts)])
        starts = self.row_offsets[indices]
        local = (np.arange(new_offsets[-1])
                 - np.repeat(new_offsets[:-1], counts))
        take = np.repeat(starts, counts) + local
        return SignatureBatch(self.codes[take], self.durations[take],
                              new_offsets, self.periods[indices])

    # ------------------------------------------------------------------
    # Introspection / conversion
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.row_offsets.size - 1

    @property
    def runs_per_row(self) -> np.ndarray:
        """Number of (code, dwell) runs in each row."""
        return np.diff(self.row_offsets)

    def row(self, i: int) -> Signature:
        """Unpack one row into a per-die :class:`Signature`."""
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        entries = [SignatureEntry(int(c), float(d))
                   for c, d in zip(self.codes[lo:hi],
                                   self.durations[lo:hi])]
        return Signature(entries, float(self.periods[i]))

    def to_signatures(self) -> List[Signature]:
        """Unpack every row (diagnosis edge; O(total runs) objects)."""
        return [self.row(i) for i in range(len(self))]

    def start_times(self) -> np.ndarray:
        """Flat per-run start times, bit-compatible with ``Signature``.

        Row ``i``'s slice equals ``Signature._starts[:-1]`` of the
        unpacked row: a 0 head followed by the sequential ``np.cumsum``
        of the row's durations.  Read from the cached padded layout
        (:meth:`_padded`).
        """
        rows = self._padded()
        if rows.starts.size == self.codes.size:
            return rows.starts.reshape(-1)
        return rows.starts[np.arange(rows.starts.shape[1])
                           < rows.counts[:, None]]

    def _padded(self) -> "_PaddedRows":
        """The ``(N, max_runs)`` layout the NDF kernel reads (cached).

        Starts are computed once over the zero-padded durations --
        trailing zeros never perturb the prefix sums, so each row's
        cumsum is bit-identical to the scalar one -- and their padding
        is then set to +inf.  A batch whose rows all have the same run
        count views ``codes`` and ``durations`` without copying them.
        """
        if self._rows is None:
            n = len(self)
            counts = self.runs_per_row
            runs = int(counts.max(initial=0))
            if n and counts.min() == runs:
                valid = None
                codes = self.codes.reshape(n, runs)
                durations = self.durations.reshape(n, runs)
            else:
                valid = np.arange(runs) < counts[:, None]
                codes = np.zeros((n, runs), dtype=np.int64)
                codes[valid] = self.codes
                durations = np.zeros((n, runs))
                durations[valid] = self.durations
            starts = np.zeros((n, runs))
            np.cumsum(durations[:, :-1], axis=1, out=starts[:, 1:])
            if valid is not None:
                starts[~valid] = np.inf
            period = None
            if n and np.all(self.periods == self.periods[0]):
                period = float(self.periods[0])
            self._rows = _PaddedRows(starts, codes, counts, period)
        return self._rows

    # ------------------------------------------------------------------
    # The fleet-NDF kernel
    # ------------------------------------------------------------------
    def ndf_to(self, golden: Signature) -> np.ndarray:
        """Exact NDF of every row against a shared golden signature.

        One pass over the padded ``(rows, runs)`` layout
        (:meth:`_padded`), with no per-row Python work and no
        ``np.unique`` breakpoint merges:

        1. one ``searchsorted`` of the padded starts onto the golden's
           starts places observed event ``j`` of a row at merged
           instant ``j`` plus the number of golden starts strictly
           before it (observed first on a tie, so the merge order is
           exact integer bookkeeping even for breakpoints one ulp
           apart); a ``(rows, runs + k)`` mask marks those instants,
           and its running count names the observed and the golden run
           in force at every merged instant;
        2. the earlier instant of every tie is dropped (the later one
           already carries both post-change codes); each kept instant's
           interval runs to the next kept one, a row's last to the
           period;
        3. each row's Hamming-weighted widths are summed in numpy's
           pairwise order (:func:`_pairwise_row_sums`) over the padded
           rows.

        Every interval width, Hamming term and per-row summation
        reproduces :func:`repro.core.ndf.ndf`'s floating-point
        operations exactly -- including the scalar metric's midpoint
        evaluation, whose rounded midpoint can land on an interval's
        *right* endpoint when the interval is one ulp wide -- so the
        returned vector is bit-identical to calling
        ``ndf(row, golden)`` die by die (asserted by the equivalence
        and property tests).
        """
        n = len(self)
        if n == 0:
            return np.empty(0)
        period = golden.period
        rows = self._padded()
        if rows.period is not None:
            # np.allclose(self.periods, period, rtol=1e-6), for one
            # shared period.
            same = (rows.period == period
                    or abs(rows.period - period)
                    <= 1e-8 + 1e-6 * abs(period))
        else:
            same = np.allclose(self.periods, period, rtol=1e-6)
        if not same:
            raise ValueError(
                "signatures have different periods; resample to a "
                "common period first")
        starts, codes = rows.starts, rows.codes
        g = golden._starts[:-1]                   # golden starts (k,)
        runs = starts.shape[1]
        width = runs + g.size
        cols = np.arange(width)

        # Merge every row's starts with golden's, row after row in
        # (runs + k)-wide slots of one flat array: observed start j
        # goes to slot j + (golden starts strictly before it), so an
        # observed start comes first on a tie.  Padding starts are
        # +inf and land past a row's runs + k real instants.
        at = np.searchsorted(g, starts, side="left")
        at += np.arange(0, n * width, width)[:, None] + cols[:runs]
        marks = np.zeros(n * width, dtype=np.intp)
        marks[at] = 1
        marks[0] -= 1
        # Counted from -1, the marks give the flat index of the
        # observed run in force at every merged instant; the instants
        # up to it that are not observed are golden, which gives the
        # golden run in force (-1 at a row's instant 0, whose observed
        # start ties golden's and is dropped below).
        run = np.cumsum(marks).reshape(n, width)
        gold = cols + np.arange(-1, n * runs - 1, runs)[:, None] - run
        times = g.take(gold)
        times.reshape(-1)[at] = starts
        distances = np.bitwise_count(
            codes.reshape(-1).take(run) ^ golden._codes.take(gold))

        # Collapse duplicate instants exactly like the scalar metric's
        # np.unique: keep the last instant of every tie.  A row's
        # last real instant is followed by its +inf padding, or ends a
        # full row.
        flat = times.reshape(-1)
        keep = np.empty(n * width, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=keep[:-1])
        keep.reshape(n, width)[:, -1] = rows.counts == runs
        kept_at = np.flatnonzero(keep)
        ends = np.searchsorted(kept_at,
                               np.arange(width, n * width + 1, width))
        kept = np.diff(ends, prepend=0)
        t = flat.take(kept_at)
        d = distances.reshape(-1).take(kept_at)

        # Interval widths: to the next kept instant, the last one to
        # the period -- the same subtractions as np.diff over the
        # scalar path's [cuts..., period].
        nxt = np.empty_like(t)
        nxt[:-1] = t[1:]
        nxt[ends - 1] = period
        widths = nxt - t
        terms = d * widths

        # The scalar metric evaluates both code functions at the
        # interval *midpoints*.  For any interval wider than one ulp
        # the midpoint lies strictly inside and sees this interval's
        # codes; but when two breakpoints sit one ulp apart the
        # rounded midpoint can land exactly on the right endpoint, and
        # ``code_at``'s right-sided search then reads the *next*
        # interval's state (wrapping to the row's first state past the
        # period).  Emulate that rounding exactly.
        mids = widths * 0.5
        mids += t
        bumped = np.flatnonzero(mids == nxt)
        if bumped.size:
            source = bumped + 1
            row = np.searchsorted(ends, bumped, side="right")
            wrap = source == ends[row]
            source[wrap] -= kept[row[wrap]]
            terms[bumped] = d[source] * widths[bumped]

        # Per-row reduction in numpy's pairwise order, over rows padded
        # with zeros; np.sum row by row when this process's numpy
        # failed the lane probe.
        padded = np.zeros((n, _UNROLL * (int(kept.max()) // _UNROLL + 1)))
        padded[np.arange(padded.shape[1]) < kept[:, None]] = terms
        if _lane_model_agrees():
            values = _pairwise_row_sums(padded, kept)
        else:
            default_registry().counter("ndf_fallback_rows_total").inc(
                float(n))
            values = np.asarray([row[:m].sum()
                                 for row, m in zip(padded, kept)])
        return values / period


#: numpy's pairwise summation of float64 (``pairwise_sum`` in its
#: ``loops_utils.h.src``): a row under ``_UNROLL`` entries is summed in
#: order from 0.0; a row of up to ``_PAIRWISE_BLOCK`` entries by
#: ``_UNROLL`` lane accumulators, then its tail in order; a longer row
#: is split in two, recursively.
_UNROLL = 8
_PAIRWISE_BLOCK = 128


def _pairwise_row_sums(padded: np.ndarray, lengths: np.ndarray
                       ) -> np.ndarray:
    """``padded[i, :lengths[i]].sum()`` for every row, bit for bit.

    ``padded`` is ``(N, 8m)`` with ``8m > lengths.max()`` and zeros
    past each row's length; it is overwritten.  For a row of at most
    :data:`_PAIRWISE_BLOCK` entries, lane ``j`` adds entries ``j, j +
    8, ...`` of the row's leading multiple of eight in order (its tail
    block is zeroed first, and zeros add exactly), the lanes combine as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the tail follows in
    order.  A row shorter than eight has all-zero lanes, so it sums in
    order from 0.0.  Longer rows go through ``np.sum`` itself.
    """
    n, span = padded.shape
    long_rows = np.flatnonzero(lengths > _PAIRWISE_BLOCK)
    long_sums = [padded[i, :lengths[i]].sum() for i in long_rows]
    blocks = padded.reshape(-1, _UNROLL)
    tail_at = np.arange(0, blocks.shape[0], span // _UNROLL) \
        + lengths // _UNROLL
    tail = blocks[tail_at]
    blocks[tail_at] = 0.0
    lanes = padded[:, :_UNROLL].copy()
    for b in range(_UNROLL, min(span, _PAIRWISE_BLOCK), _UNROLL):
        lanes += padded[:, b:b + _UNROLL]
    pairs = lanes[:, 0::2] + lanes[:, 1::2]
    pairs = pairs[:, 0::2] + pairs[:, 1::2]
    values = pairs[:, 0] + pairs[:, 1]
    for j in range(_UNROLL - 1):
        values += tail[:, j]
    values[long_rows] = long_sums
    return values


_lanes_agree: Optional[bool] = None


def _lane_model_agrees() -> bool:
    """Whether :func:`_pairwise_row_sums` matched ``np.sum`` on one row
    of every length from 1 to :data:`_PAIRWISE_BLOCK` (checked once per
    process).

    The rows mix magnitudes over 24 binades, so summing them in any
    other order changes the result in the last bits.  The probe also
    registers ``ndf_fallback_rows_total`` (at 0) on the process-default
    registry, so the counter shows before any fallback.
    """
    global _lanes_agree
    if _lanes_agree is None:
        default_registry().counter("ndf_fallback_rows_total")
        lengths = np.arange(1, _PAIRWISE_BLOCK + 1)
        span = _PAIRWISE_BLOCK + _UNROLL
        index = np.arange(lengths.size * span, dtype=float)
        values = (1.0 + (index * 0.6180339887498949) % 1.0) \
            * np.exp2(index % 24.0 - 12.0)
        padded = np.where(np.arange(span) < lengths[:, None],
                          values.reshape(lengths.size, span), 0.0)
        want = [row[:m].sum() for row, m in zip(padded, lengths)]
        _lanes_agree = (_pairwise_row_sums(padded, lengths).tobytes()
                        == np.asarray(want).tobytes())
    return _lanes_agree


def fleet_ndf(batch: SignatureBatch, golden: Signature) -> np.ndarray:
    """Functional alias for :meth:`SignatureBatch.ndf_to`."""
    return batch.ndf_to(golden)
