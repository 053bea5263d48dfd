"""One screening request: one lot, as a value object.

A :class:`ScreeningRequest` says *what* to screen and how to judge it:
the dies, the decision band, the monitor banks and whether to keep the
packed signatures.  *Where* it runs is test planning, and lives only
on the engine methods that place a campaign:
:meth:`~repro.campaign.engine.CampaignEngine.run_stream` and
:meth:`~repro.campaign.engine.CampaignEngine.resume` (streamed behind
a checkpoint), :meth:`~repro.campaign.engine.CampaignEngine.run_noise`
(noisy repeats) and
:meth:`~repro.campaign.engine.CampaignEngine.run_sharded`.
:meth:`~repro.campaign.engine.CampaignEngine.submit` screens a
request in process, and
:meth:`~repro.campaign.engine.CampaignEngine.run` is its keyword form.

Being a value object is what lets the screening service treat work
uniformly: sessions queue requests, the coalescing batcher packs
compatible ones into a single front-half pass, and per-client metadata
(``client``) rides along without touching the engine math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.decision import DecisionBand
from repro.core.zones import ZoneEncoder


@dataclass(frozen=True)
class ScreeningRequest:
    """One lot to screen.

    Attributes
    ----------
    population:
        What to screen: a population object, or an iterable the engine
        peeks at -- a first item that is a
        :class:`~repro.filters.biquad.BiquadSpec` (or no item) makes
        one lot of raw specs, anything else a stream of population
        chunks screened at bounded memory.
    band:
        Verdict policy: ``"auto"`` (Fig. 8-calibrated), a raw float
        threshold, a :class:`~repro.core.decision.DecisionBand`, or
        None for NDFs without verdicts.
    keep_signatures:
        Retain the packed per-die signatures on the result (the
        diagnosis input).
    encoders:
        Optional monitor-bank list switching the campaign to
        multi-signature screening (``encoders[0]`` becomes channel 0).
    client:
        Free-form requester identity.  The engine ignores it; the
        service layer uses it for rate limiting, metrics and the
        coalescing batcher's scatter bookkeeping.
    request_id:
        Optional end-to-end correlation id (the client's
        ``X-Repro-Request-Id``).  The engine math ignores it; the
        service layer threads it session -> batcher -> engine so
        server-side spans and structured log lines join the client's
        retries.  Contextvars do not cross the handler-to-batcher
        thread boundary, which is why the id rides the request object
        explicitly.
    """

    population: object = None
    band: Union[None, str, float, DecisionBand] = "auto"
    keep_signatures: bool = False
    encoders: Optional[Sequence[ZoneEncoder]] = None
    client: Optional[str] = None
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.encoders is not None:
            # Freeze the bank list so the request stays hashable-ish
            # and safe to share between threads.
            object.__setattr__(self, "encoders", tuple(self.encoders))


__all__ = ["ScreeningRequest"]
