"""Multi-channel signatures: the multi-variable generalization.

The paper's related work ([14]) generalizes X-Y zoning to multiple
observed variables.  This module implements the natural extension of
the signature method to a CUT with several observable outputs: each
output forms its own Lissajous composition against the stimulus, is
encoded by its own (or a shared) monitor bank, and scored by its own
NDF against that channel's golden signature.

Why it matters: a scalar NDF cannot tell *which* parameter drifted --
an f0 shift and a Q shift can produce the same discrepancy value.  With
two observed taps the pair (NDF_lp, NDF_bp) carries direction: for this
bench an f0 fault moves both channels almost equally while a Q fault
loads the low-pass channel roughly twice as hard as the band-pass one,
so the channel-NDF ratio separates the two fault classes (quantified in
the tests and the multi-parameter benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.capture import capture_signature
from repro.core.ndf import ndf
from repro.core.signature import Signature
from repro.core.zones import ZoneEncoder
from repro.signals.multitone import Multitone


@dataclass
class ChannelSpec:
    """One observed channel of a multi-output CUT.

    Attributes
    ----------
    name:
        Channel label used in reports (e.g. "lp", "bp").
    encoder:
        Zone encoder applied to this channel's (x, y) composition.
    """

    name: str
    encoder: ZoneEncoder


@dataclass
class MultiSignature:
    """Per-channel signatures of one CUT measurement."""

    channels: Dict[str, Signature]

    def __getitem__(self, name: str) -> Signature:
        return self.channels[name]


class MultiChannelTester:
    """Signature test bench over a multi-output CUT.

    The CUT protocol extends the single-channel one: the object must
    provide ``lissajous_of(channel_name, stimulus, samples_per_period)``
    returning the channel's composition.

    Parameters
    ----------
    channels:
        The observed channels (names and encoders).
    stimulus:
        Shared multitone stimulus.
    golden_cut:
        Reference unit.
    """

    def __init__(self, channels: Sequence[ChannelSpec],
                 stimulus: Multitone, golden_cut,
                 samples_per_period: int = 4096,
                 refine: bool = True) -> None:
        if not channels:
            raise ValueError("need at least one channel")
        names = [c.name for c in channels]
        if len(set(names)) != len(names):
            raise ValueError("channel names must be unique")
        self.channels = list(channels)
        self.stimulus = stimulus
        self.golden_cut = golden_cut
        self.samples_per_period = int(samples_per_period)
        self.refine = bool(refine)
        self._golden: Optional[MultiSignature] = None

    # ------------------------------------------------------------------
    def signature_of(self, cut) -> MultiSignature:
        """Per-channel signatures of one CUT."""
        signatures = {}
        for channel in self.channels:
            trace = cut.lissajous_of(channel.name, self.stimulus,
                                     self.samples_per_period)
            signatures[channel.name] = capture_signature(
                channel.encoder, trace, refine=self.refine)
        return MultiSignature(signatures)

    def golden_signature(self) -> MultiSignature:
        """Cached golden multi-signature."""
        if self._golden is None:
            self._golden = self.signature_of(self.golden_cut)
        return self._golden

    # ------------------------------------------------------------------
    def channel_ndfs(self, cut) -> Dict[str, float]:
        """Per-channel NDF of a CUT against the golden."""
        golden = self.golden_signature()
        observed = self.signature_of(cut)
        return {c.name: ndf(observed[c.name], golden[c.name])
                for c in self.channels}


class BiquadTwoTapCut:
    """A Biquad observed at both the low-pass and band-pass taps.

    Wraps a :class:`repro.filters.biquad.BiquadSpec`; channel "lp" is
    the paper's observable, channel "bp" is the extra tap the
    Tow-Thomas realization exposes for free.
    """

    def __init__(self, spec) -> None:
        from repro.filters.biquad import BiquadFilter, BiquadKind
        from dataclasses import replace

        self.spec = spec
        self._lp = BiquadFilter(spec)
        self._bp = BiquadFilter(replace(spec, kind=BiquadKind.BANDPASS))

    def lissajous_of(self, channel: str, stimulus: Multitone,
                     samples_per_period: int):
        if channel == "lp":
            return self._lp.lissajous(stimulus, samples_per_period)
        if channel == "bp":
            # The BP tap swings around 0; rebias into the 0-1 V window
            # as the physical instrument would (AC coupling + mid rail).
            response = stimulus.through(self._bp.transfer).with_offset(0.5)
            from repro.signals.lissajous import LissajousTrace
            from repro.signals.waveform import Waveform
            period = stimulus.period()
            x = Waveform.from_function(stimulus, period,
                                       samples_per_period)
            y = Waveform.from_function(response, period,
                                       samples_per_period)
            return LissajousTrace(x, y, period)
        raise ValueError(f"unknown channel {channel!r}")
