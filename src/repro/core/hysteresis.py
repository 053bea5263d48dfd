"""Hysteretic zone capture (the M6/M7 positive-feedback pair).

The fabricated monitor's cross-coupled pMOS pair gives the comparator a
small amount of positive feedback.  Behaviourally that is hysteresis:
once a boundary bit has flipped, the trace must back off by a finite
margin before it flips back.  Two consequences matter for testing:

* **chatter suppression** -- with measurement noise the memoryless
  comparator toggles rapidly while the trace runs along a boundary;
  hysteresis larger than the noise amplitude removes the toggling;
* **systematic lag** -- every crossing is reported late by the
  hysteresis margin; golden and CUT captures lag alike, so the NDF
  penalty is second-order (quantified in the tests).

The hysteresis margin is expressed in *volts of trace motion* normal to
the boundary: the raw decision value is normalized by the local
gradient magnitude, giving a geometry-independent margin.
"""

from __future__ import annotations


import numpy as np

from repro.core.signature import Signature
from repro.core.zones import ZoneEncoder
from repro.signals.lissajous import LissajousTrace


class HystereticEncoder:
    """Stateful zone encoding along a trajectory.

    Parameters
    ----------
    encoder:
        The underlying (memoryless) zone encoder.
    margin_volts:
        Hysteresis half-width: a bit flips only when the trace is more
        than this far on the other side of the boundary (measured as
        signed distance, i.e. decision value over gradient magnitude).
    gradient_step:
        Finite-difference step for the gradient normalization.
    """

    def __init__(self, encoder: ZoneEncoder, margin_volts: float = 0.005,
                 gradient_step: float = 1e-5) -> None:
        if margin_volts < 0:
            raise ValueError("hysteresis margin must be non-negative")
        self.encoder = encoder
        self.margin_volts = float(margin_volts)
        self.gradient_step = float(gradient_step)

    # ------------------------------------------------------------------
    def signed_distances(self, boundary, xs: np.ndarray,
                         ys: np.ndarray) -> np.ndarray:
        """Signed boundary distance along the trajectory (volts).

        Positive on the bit-1 side (away from the origin side).
        """
        e = self.gradient_step
        g = np.asarray(boundary.decision(xs, ys), dtype=float)
        gx = (np.asarray(boundary.decision(xs + e, ys), dtype=float)
              - np.asarray(boundary.decision(xs - e, ys), dtype=float)) \
            / (2.0 * e)
        gy = (np.asarray(boundary.decision(xs, ys + e), dtype=float)
              - np.asarray(boundary.decision(xs, ys - e), dtype=float)) \
            / (2.0 * e)
        grad = np.hypot(gx, gy)
        grad[grad == 0.0] = np.inf  # flat spots: distance saturates to 0
        return -boundary.origin_sign * g / grad

    def bit_sequence(self, boundary, xs: np.ndarray,
                     ys: np.ndarray) -> np.ndarray:
        """Hysteretic bit stream of one boundary along the trajectory."""
        s = self.signed_distances(boundary, xs, ys)
        h = self.margin_volts
        bits = np.empty(len(s), dtype=np.uint8)
        state = bool(s[0] > 0.0)  # initial sample: memoryless decision
        for i, value in enumerate(s):
            if state and value < -h:
                state = False
            elif not state and value > h:
                state = True
            bits[i] = state
        return bits

    def code_sequence(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Hysteretic zone codes along the trajectory."""
        columns = [self.bit_sequence(b, xs, ys)
                   for b in self.encoder.boundaries]
        bits = np.stack(columns, axis=-1).astype(np.int64)
        weights = 1 << np.arange(self.encoder.num_bits - 1, -1, -1,
                                 dtype=np.int64)
        return (bits * weights).sum(axis=-1)

    # ------------------------------------------------------------------
    def capture(self, trace: LissajousTrace) -> Signature:
        """Capture a signature with hysteretic comparators.

        The state machine runs the trace *twice*: the first pass warms
        the comparator states so the reported period starts from the
        steady periodic state, not the arbitrary memoryless
        initialization.
        """
        xs, ys = trace.points()
        xs2 = np.concatenate([xs, xs])
        ys2 = np.concatenate([ys, ys])
        codes = self.code_sequence(xs2, ys2)[len(xs):]
        times = trace.times - trace.times[0]
        return Signature.from_samples(times, codes, trace.period)
