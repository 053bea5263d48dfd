"""Sweep drivers and report formatting."""

import numpy as np

from repro.analysis import (
    Comparison,
    ascii_xy_plot,
    banner,
    catastrophic_coverage,
    close,
    comparison_table,
    format_table,
    noise_detection_study,
)
from repro.core.decision import DecisionBand
from repro.filters import TowThomasValues
from repro.signals.noise import NoiseModel


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def test_noise_detection_study_rates():
    from repro.paper import noisy_paper_setup
    bench = noisy_paper_setup(samples_per_period=2048)
    study = noise_detection_study(
        bench.tester, bench.golden_spec, NoiseModel(0.015, rng=0),
        deviations=(-0.05, 0.05), repeats=6)
    rates = study.detection_rates()
    assert rates[0.05] == 1.0
    assert rates[-0.05] == 1.0
    assert study.false_alarm_rate() <= 0.2


def test_catastrophic_coverage(setup):
    values = TowThomasValues.from_spec(setup.golden_spec)
    band = DecisionBand(0.05)
    rows = catastrophic_coverage(setup.tester, values, band)
    assert len(rows) == 14
    detected = sum(r.detected for r in rows)
    assert detected >= 12  # opens/shorts are gross: nearly all caught


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def test_format_table_alignment():
    table = format_table(["a", "bb"], [[1, 2.5], ["xx", None]])
    lines = table.split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "-" in lines[1]


def test_comparison_rows():
    comp = Comparison("NDF(+10%)", 0.1021, 0.0999, match=True)
    table = comparison_table([comp])
    assert "NDF(+10%)" in table
    assert "ok" in table
    bad = Comparison("zones", 16, 12, match=False)
    assert "DIFFERS" in comparison_table([bad])


def test_ascii_xy_plot():
    x = np.linspace(0, 1, 50)
    art = ascii_xy_plot(x, x ** 2, width=40, height=10)
    lines = art.split("\n")
    assert len(lines) == 11
    assert "*" in art
    assert "x:" in lines[-1]


def test_ascii_xy_plot_empty():
    assert "no finite data" in ascii_xy_plot(np.array([np.nan]),
                                             np.array([np.nan]))


def test_banner():
    art = banner("Fig. 8")
    assert art.count("\n") == 2
    assert "Fig. 8" in art


def test_close_tolerance():
    assert close(0.0999, 0.1021)
    assert not close(0.2, 0.1021)
    assert close(0.001, 0.0, abs_tol=0.01)
