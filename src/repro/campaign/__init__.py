"""Batched test campaigns: fleet-scale signature screening.

The per-die objects of :mod:`repro.core` answer "does this unit pass?";
this package answers "what happens when a million units go through the
tester?".  A :class:`CampaignEngine` amortizes golden-signature and
band calibration work through a content-keyed cache, vectorizes the
trace/encode/score hot path over ``(N, samples)`` stacks, and schedules
chunks serially or over a process pool -- with bit-identical verdicts
either way.

Quick start::

    from repro.campaign import CampaignEngine, montecarlo_dies
    from repro.monitor.configurations import table1_encoder
    from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD)
    result = engine.run(montecarlo_dies(PAPER_BIQUAD, 500, 0.03))
    print(result.summary())
"""

from repro.campaign.batch import (
    batch_biquad_traces,
    batch_codes,
    batch_extract,
    batch_multitone_eval,
    batch_ndf,
    batch_netlist_traces,
    batch_responses,
    batch_signatures,
    batch_through_eval,
    sample_times,
)
from repro.campaign.cache import (
    CacheInfo,
    GoldenArtifacts,
    GoldenCache,
)
from repro.campaign.checkpoint import (
    CheckpointMismatch,
    StreamCheckpoint,
)
from repro.campaign.engine import (
    DEFAULT_CALIBRATION_DEVIATIONS,
    CampaignConfig,
    CampaignEngine,
)
from repro.campaign.request import ScreeningRequest
from repro.campaign.executors import (
    ProcessPoolExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
    chunked,
)
from repro.campaign.result import CampaignResult, NoiseCampaignResult
from repro.campaign.scenarios import (
    CutListPopulation,
    EncoderPopulation,
    SpecPopulation,
    TracePopulation,
    deviation_sweep_population,
    fault_dictionary,
    montecarlo_dies,
    montecarlo_monitor_banks,
    parameter_grid,
    seed_children,
    stream_montecarlo_dies,
    temperature_corners,
    trace_population,
)

__all__ = [
    "CheckpointMismatch",
    "StreamCheckpoint",
    "seed_children",
    "batch_biquad_traces",
    "batch_codes",
    "batch_extract",
    "batch_multitone_eval",
    "batch_ndf",
    "batch_netlist_traces",
    "batch_responses",
    "batch_signatures",
    "batch_through_eval",
    "sample_times",
    "CacheInfo",
    "GoldenArtifacts",
    "GoldenCache",
    "DEFAULT_CALIBRATION_DEVIATIONS",
    "CampaignConfig",
    "CampaignEngine",
    "ScreeningRequest",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "chunked",
    "CampaignResult",
    "NoiseCampaignResult",
    "CutListPopulation",
    "EncoderPopulation",
    "SpecPopulation",
    "TracePopulation",
    "deviation_sweep_population",
    "fault_dictionary",
    "montecarlo_dies",
    "montecarlo_monitor_banks",
    "parameter_grid",
    "stream_montecarlo_dies",
    "temperature_corners",
    "trace_population",
]

