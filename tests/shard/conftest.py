"""Shared sharding fixtures: fault hygiene and a small warm bench.

The drill tests arm fault points through the environment; the autouse
fixture keeps the registry clean on both sides so an armed fault can
never leak between tests (or in from the caller's shell).
"""

from __future__ import annotations

import pytest

from repro.testing.faultinject import disarm_all, reset_env_cache

SAMPLES = 512


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_SHARD_WORKER_FAULTS", raising=False)
    disarm_all()
    reset_env_cache()
    yield
    disarm_all()
    reset_env_cache()


@pytest.fixture()
def small_engine():
    """A fast private-cache engine over the paper bench (512 samples);
    its warm shard workers stop at teardown."""
    from repro.campaign import CampaignEngine
    from repro.monitor.configurations import table1_encoder
    from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

    with CampaignEngine.from_parts(
            table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
            samples_per_period=SAMPLES) as engine:
        yield engine
