"""Packed multi-channel signatures: K observation views per die.

The fault-trajectory literature resolves ambiguity groups -- faults
provably indistinguishable in one signature space -- by observing the
same CUT through *additional* response views; MISR-style BIST likewise
compacts several observation channels into one verdict.  A
:class:`MultiSignatureBatch` is the fleet-scale carrier for that idea:
K channels of the packed CSR :class:`~repro.core.signature_batch.
SignatureBatch` representation, all describing the *same* N dies, each
channel encoded by its own monitor bank from the same trace stack (the
expensive front half runs once; see
:meth:`repro.campaign.engine.CampaignEngine.run` with ``encoders=``).

Layout and contract
-------------------
Channel ``k`` is a full, independent :class:`SignatureBatch` -- same
flat CSR ``codes``/``durations``/``row_offsets`` arrays, same one-pass
fleet-NDF kernel.  Nothing is re-derived across channels, so:

* channel ``k`` of :meth:`ndf_to` is **bit-identical** to running
  ``self.channel(k).ndf_to(goldens[k])`` on an independent
  single-channel batch (asserted by the multichannel tests);
* :meth:`select`, :meth:`concatenate` and :meth:`empty` apply the
  single-channel operations channel by channel, so multi-signature
  results ride ``keep_signatures=True`` through every executor and
  streamed campaign exactly like single-channel ones;
* channel 0 of every engine result is bit-identical to the
  single-channel flow (the channel-0 bit-compatibility contract; see
  ``docs/paper_map.md``).

Per-die unpacking (:meth:`row`) exists only for the report edges,
mirroring :class:`~repro.core.multichannel.MultiSignature` -- the
per-die object this batch replaces at fleet scale.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch


class MultiSignatureBatch:
    """K packed :class:`SignatureBatch` channels over the same N dies.

    Parameters
    ----------
    channels:
        One :class:`SignatureBatch` per observation channel, all with
        the same row count (channel 0 is the primary screening
        channel).
    """

    def __init__(self, channels: Sequence[SignatureBatch]) -> None:
        channels = tuple(channels)
        if not channels:
            raise ValueError("need at least one channel")
        n = len(channels[0])
        if any(len(channel) != n for channel in channels[1:]):
            raise ValueError("channels must describe the same dies "
                             "(row counts differ)")
        self.channels: tuple = channels

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_channels: int) -> "MultiSignatureBatch":
        """A zero-row batch with the given channel count."""
        if num_channels < 1:
            raise ValueError("need at least one channel")
        return cls([SignatureBatch.empty()
                    for __ in range(num_channels)])

    @classmethod
    def concatenate(cls, batches: Sequence["MultiSignatureBatch"]
                    ) -> "MultiSignatureBatch":
        """Stack batches row-wise, channel by channel.

        The streamed/chunked campaign merge: channel ``k`` of the
        result is ``SignatureBatch.concatenate`` of the source
        channel-``k`` batches, so every row stays bit-identical to its
        source.  All inputs must agree on the channel count.
        """
        batches = list(batches)
        if not batches:
            raise ValueError("need at least one batch to concatenate "
                             "(channel count would be ambiguous)")
        k = batches[0].num_channels
        if any(b.num_channels != k for b in batches[1:]):
            raise ValueError("batches must agree on the channel count")
        return cls([SignatureBatch.concatenate([b.channels[i]
                                                for b in batches])
                    for i in range(k)])

    def select(self, indices) -> "MultiSignatureBatch":
        """New batch holding the given rows of every channel.

        The diagnosis carve-out, channel-parallel: each channel's rows
        are gathered with :meth:`SignatureBatch.select`, so they stay
        bit-identical to their sources and aligned across channels.
        """
        return MultiSignatureBatch([channel.select(indices)
                                    for channel in self.channels])

    # ------------------------------------------------------------------
    # Introspection / conversion
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.channels[0])

    @property
    def num_channels(self) -> int:
        """Number of observation channels K."""
        return len(self.channels)

    def channel(self, k: int) -> SignatureBatch:
        """The packed single-channel batch of channel ``k``."""
        return self.channels[k]

    def row(self, i: int) -> List[Signature]:
        """Per-channel signatures of die ``i`` (report edge only)."""
        return [channel.row(i) for channel in self.channels]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def ndf_to(self, goldens: Sequence[Signature]) -> np.ndarray:
        """``(N, K)`` NDFs against one golden signature per channel.

        Column ``k`` is one fleet-kernel pass of channel ``k`` against
        ``goldens[k]`` -- bit-identical to K independent single-channel
        :meth:`SignatureBatch.ndf_to` runs.
        """
        goldens = list(goldens)
        if len(goldens) != self.num_channels:
            raise ValueError("need one golden signature per channel")
        columns = [channel.ndf_to(golden)
                   for channel, golden in zip(self.channels, goldens)]
        return np.stack(columns, axis=1)
