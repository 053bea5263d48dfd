"""Analysis utilities: chronograms, sweep drivers, report formatting.

* :mod:`repro.analysis.chronogram` -- Fig. 7 artifacts
* :mod:`repro.analysis.sweeps` -- noise study and catastrophic-fault coverage
* :mod:`repro.analysis.reporting` -- paper-vs-measured report blocks
"""

from repro.analysis.chronogram import (
    ChronogramData,
    ascii_chronogram,
    build_chronogram,
    skipped_zone_events,
)
from repro.analysis.sweeps import (
    FaultCoverageRow,
    NoiseStudyResult,
    catastrophic_coverage,
    noise_detection_study,
)
from repro.analysis.reporting import (
    Comparison,
    ascii_xy_plot,
    banner,
    close,
    comparison_table,
    format_table,
)
from repro.analysis.yield_model import (
    CutPopulation,
    CutUnit,
    YieldReport,
    optimal_threshold,
    roc_curve,
    yield_escape_analysis,
    yield_report_from_arrays,
)
from repro.analysis.multiparam import NdfSurface, ndf_surface

__all__ = [
    "ChronogramData",
    "ascii_chronogram",
    "build_chronogram",
    "skipped_zone_events",
    "FaultCoverageRow",
    "NoiseStudyResult",
    "catastrophic_coverage",
    "noise_detection_study",
    "Comparison",
    "ascii_xy_plot",
    "banner",
    "close",
    "comparison_table",
    "format_table",
    "CutPopulation",
    "CutUnit",
    "YieldReport",
    "optimal_threshold",
    "roc_curve",
    "yield_escape_analysis",
    "yield_report_from_arrays",
    "NdfSurface",
    "ndf_surface",
]
