"""Process statistics: Pelgrom scaling, Monte Carlo sampling."""

import numpy as np
import pytest

from repro.devices.mos_model import MosModel, NMOS_65NM
from repro.devices.process import (
    DeviceVariation,
    MonteCarloSampler,
    TECH_65NM,
)


def test_pelgrom_sigma_scales_with_inverse_sqrt_area():
    s1 = TECH_65NM.sigma_vt_mismatch(1e-6, 180e-9)
    s4 = TECH_65NM.sigma_vt_mismatch(4e-6, 180e-9)  # 4x area
    assert s1 / s4 == pytest.approx(2.0, rel=1e-9)


def test_pelgrom_absolute_value():
    # 1 um x 1 um device: sigma = AVT directly.
    s = TECH_65NM.sigma_vt_mismatch(1e-6, 1e-6)
    assert s == pytest.approx(TECH_65NM.avt_nmos_um)


def test_pmos_mismatch_uses_its_own_coefficient():
    sn = TECH_65NM.sigma_vt_mismatch(1e-6, 1e-6, polarity=1)
    sp = TECH_65NM.sigma_vt_mismatch(1e-6, 1e-6, polarity=-1)
    assert sp > sn


def test_beta_mismatch():
    s = TECH_65NM.sigma_beta_mismatch(1e-6, 1e-6)
    assert s == pytest.approx(TECH_65NM.abeta_um)
    with pytest.raises(ValueError):
        TECH_65NM.sigma_beta_mismatch(0.0, 1e-6)


def test_device_variation_apply():
    model = MosModel(NMOS_65NM, 1.8e-6, 180e-9)
    varied = DeviceVariation(delta_vt=0.03, beta_factor=0.9).apply(model)
    assert varied.params.vt0 == pytest.approx(0.45)
    assert varied.beta == pytest.approx(0.9 * model.beta)
    # Threshold up + beta down -> strictly less current.
    assert varied.saturation_current(0.8) < model.saturation_current(0.8)


def test_device_variation_composition():
    a = DeviceVariation(0.01, 1.1)
    b = DeviceVariation(-0.005, 0.9)
    c = a.combined_with(b)
    assert c.delta_vt == pytest.approx(0.005)
    assert c.beta_factor == pytest.approx(0.99)


def test_sampler_reproducible_with_seed():
    s1 = MonteCarloSampler(rng=123)
    s2 = MonteCarloSampler(rng=123)
    d1 = s1.sample_die()
    d2 = s2.sample_die()
    assert d1.nmos_global.delta_vt == d2.nmos_global.delta_vt
    assert d1.pmos_global.beta_factor == d2.pmos_global.beta_factor


def test_global_variation_statistics():
    sampler = MonteCarloSampler(rng=0)
    shifts = [die.nmos_global.delta_vt for die in sampler.dies(400)]
    assert np.mean(shifts) == pytest.approx(0.0, abs=3e-3)
    assert np.std(shifts) == pytest.approx(TECH_65NM.sigma_vt_global,
                                           rel=0.2)


def test_mismatch_independent_within_die():
    sampler = MonteCarloSampler(rng=1)
    die = sampler.sample_die()
    v1 = die.device_variation(1.8e-6, 180e-9)
    v2 = die.device_variation(1.8e-6, 180e-9)
    assert v1.delta_vt != v2.delta_vt  # fresh local draw each time


def test_process_only_mode():
    sampler = MonteCarloSampler(rng=2, include_mismatch=False)
    die = sampler.sample_die()
    v1 = die.device_variation(1.8e-6, 180e-9)
    v2 = die.device_variation(1.8e-6, 180e-9)
    assert v1.delta_vt == v2.delta_vt == die.nmos_global.delta_vt


def test_mismatch_only_mode():
    sampler = MonteCarloSampler(rng=3, include_process=False)
    die = sampler.sample_die()
    assert die.nmos_global.delta_vt == 0.0
    assert die.device_variation(1.8e-6, 180e-9).delta_vt != 0.0


def test_die_vary_model():
    sampler = MonteCarloSampler(rng=4)
    die = sampler.sample_die()
    model = MosModel(NMOS_65NM, 1.8e-6, 180e-9)
    varied = die.vary(model)
    assert varied.params.vt0 != model.params.vt0
    assert varied.w == model.w and varied.l == model.l


def test_invalid_area_raises():
    with pytest.raises(ValueError):
        TECH_65NM.sigma_vt_mismatch(-1e-6, 180e-9)
