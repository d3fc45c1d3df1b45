import math

import numpy as np
import pytest

from frkit.battery import (
    MIX5_TERMS,
    TORUS_BATTERY,
    TORUS_TERMS,
    _evaluator,
    _norms,
    build_sphere_battery,
    sup_bound,
    verify_torus_battery,
)
from frkit.spectral import fourier_ratio
from frkit.sphere import lm_to_index
from frkit.torus import certification_threshold


def test_analytic_norms_match_estimates_within_2pct():
    worst = verify_torus_battery()
    assert max(worst.values()) <= 0.02


ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
FACTOR_PAIRS = [(f1, f2) for f1 in ("1", "cos", "sin") for f2 in ("1", "cos", "sin")]


def _grid_partials(f, n):
    """Every partial of order <= 2 of f on the n x n grid, each by FFT: exact
    up to rounding for the degree-1 trigonometric polynomials of the battery."""
    u = np.arange(n) / n
    coeffs = np.fft.fft2(f(*np.meshgrid(u, u, indexing="ij")))
    ik = 2j * np.pi * np.fft.fftfreq(n, 1.0 / n)
    return {(a1, a2): np.fft.ifft2(coeffs * ik[:, None] ** a1 * ik[None, :] ** a2).real
            for a1, a2 in ORDERS}


@pytest.mark.parametrize("name", sorted(TORUS_TERMS))
def test_derived_norms_are_attained_on_the_grid(name):
    """Every sup peak of a degree-1 polynomial lies on the 8 x 8 grid, so the
    derived bounds equal the grid maxima; mean and L2 are exact there too."""
    terms, ana = TORUS_TERMS[name], TORUS_BATTERY[name].analytic
    grid = _grid_partials(TORUS_BATTERY[name], 8)
    sups = {order: float(np.max(np.abs(values))) for order, values in grid.items()}
    for order in ORDERS:
        assert sup_bound(terms, *order) == pytest.approx(sups[order], rel=1e-12, abs=1e-12)
    derived = (ana.sup, *ana.grad_sups, ana.c2)
    want = (sups[0, 0], sups[1, 0], sups[0, 1], max(sups.values()))
    assert derived == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert ana.mean == pytest.approx(np.mean(grid[0, 0]), rel=1e-12, abs=1e-12)
    assert ana.l2 == pytest.approx(math.sqrt(np.mean(grid[0, 0] ** 2)), rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_derived_sups_bound_random_terms(seed):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.1, 2.0, 9) * rng.choice([-1.0, 1.0], 9)
    terms = tuple((float(amp), *pair) for amp, pair in zip(amps, FACTOR_PAIRS))
    grid = _grid_partials(_evaluator(terms), 64)
    maxima = {order: float(np.max(np.abs(values))) for order, values in grid.items()}
    for order in ORDERS:
        assert sup_bound(terms, *order) >= maxima[order] * (1.0 - 1e-12), order
    assert _norms(terms).c2 >= max(maxima.values()) * (1.0 - 1e-12)


def test_entry_terms_are_distinct_factor_pairs():
    assert list(TORUS_TERMS) == list(TORUS_BATTERY)
    for name, terms in TORUS_TERMS.items():
        pairs = [(f1, f2) for _, f1, f2 in terms]
        assert len(set(pairs)) == len(pairs), name
        assert set(pairs) <= set(FACTOR_PAIRS), name


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
