import math

import numpy as np
import pytest

from frkit.battery import MIX5_TERMS, TORUS_BATTERY, build_sphere_battery, verify_torus_battery
from frkit.spectral import fourier_ratio
from frkit.sphere import lm_to_index
from frkit.torus import certification_threshold


def test_analytic_norms_match_estimates_within_2pct():
    worst = verify_torus_battery()
    assert max(worst.values()) <= 0.02


def test_certification_thresholds_frozen():
    expected = {
        "const1": 8,
        "cos_tiny": 9,
        "cos_small": 125,
        "sin_quarter": 756,
        "cc_half": 2934,
        "sin1": 24937,
        "prod_cos": 5542,
    }
    for name, want in expected.items():
        assert certification_threshold(TORUS_BATTERY[name].analytic) == want


def test_every_entry_is_periodic():
    # construction already spot-checks; re-evaluate the corners directly
    t = np.linspace(0, 1, 11)
    for spec in TORUS_BATTERY.values():
        assert np.allclose(spec(np.zeros_like(t), t), spec(np.ones_like(t), t), atol=1e-12)
        assert np.allclose(spec(t, np.zeros_like(t)), spec(t, np.ones_like(t)), atol=1e-12)


@pytest.mark.parametrize("bandwidth", [4, 8, 16])
def test_sphere_battery_size_and_shapes(bandwidth):
    battery = build_sphere_battery(bandwidth)
    assert len(battery) >= 8
    for name, sig in battery.items():
        assert sig.bandwidth == bandwidth
        assert sig.coeffs.size == (bandwidth + 1) ** 2
        assert sig.l2 > 0, name


def test_mix5_layout_and_fr():
    sig = build_sphere_battery(8)["mix5"]
    nz = np.nonzero(sig.coeffs)[0]
    assert len(nz) == 5
    for l, m, v in MIX5_TERMS:
        assert sig.coeffs[lm_to_index(l, m)] == v
    values = np.array([v for _, _, v in MIX5_TERMS])
    expected = values.sum() / math.sqrt(float((values**2).sum()))
    assert fourier_ratio(sig.coeffs) == pytest.approx(expected, rel=1e-14)


def test_small_bandwidth_battery_drops_wide_entries():
    battery = build_sphere_battery(2)
    assert "mix5" not in battery
    assert "y00" in battery and "decay_e" in battery
