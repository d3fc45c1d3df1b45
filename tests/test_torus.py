import math

import numpy as np
import pytest

from frkit.battery import TORUS_BATTERY
from frkit.errors import DomainError, PeriodicityError
from frkit.sampling import sample_size
from frkit.torus import (
    NormData,
    SmoothFunctionSpec,
    certification_threshold,
    compute_rn,
    discretize,
    estimate_norms,
    resolve_norms,
    verify_decay,
    verify_fr_bound,
    verify_l2_lower_bound,
    verify_riemann_lemma,
    SIXTEEN_PI_SQ,
    EIGHT_PI_SQ,
    FOUR_PI_SQ,
)
from conftest import midpoint_integral_2d

PI = math.pi


class TestDiscretize:
    def test_constant(self):
        fld = discretize(TORUS_BATTERY["const1"], 4)
        assert fld.dtype == np.float64 and not fld.flags.writeable
        assert np.array_equal(fld, np.ones((4, 4)))

    def test_sine_table(self):
        spec = SmoothFunctionSpec("s", lambda u1, u2: np.sin(2 * PI * u1) + 0 * u2)
        fld = discretize(spec, 8)
        grid = fld
        assert grid[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert grid[1, 3] == pytest.approx(math.sqrt(2) / 2, rel=1e-14)
        assert grid[2, 5] == pytest.approx(1.0, rel=1e-14)

    def test_crosscheck_second_evaluator(self):
        n = 16
        fld = discretize(TORUS_BATTERY["cc_half"], n)
        x = np.arange(n) / n
        u1, u2 = np.meshgrid(x, x, indexing="ij")
        independent = 1.0 + 0.5 * np.cos(2 * PI * u1) * np.cos(2 * PI * u2)
        assert np.max(np.abs(fld - independent)) < 1e-15

    def test_bad_n(self):
        with pytest.raises(DomainError):
            discretize(TORUS_BATTERY["const1"], 1)

    def test_periodicity_spot_check(self):
        with pytest.raises(PeriodicityError):
            SmoothFunctionSpec("bad", lambda u1, u2: u1 + 0 * u2)


class TestEstimateNorms:
    def test_constant(self):
        est = estimate_norms(TORUS_BATTERY["const1"], 64)
        assert est.l2 == pytest.approx(1.0, abs=1e-14)
        assert est.mean == pytest.approx(1.0, abs=1e-14)
        assert est.c2 == pytest.approx(1.0, abs=1e-12)
        assert est.grad_sups == (0.0, 0.0)

    def test_sine_closed_forms(self):
        spec = SmoothFunctionSpec("s", lambda u1, u2: np.sin(2 * PI * u1) + 0 * u2)
        est = estimate_norms(spec, 256)
        assert est.l2 == pytest.approx(math.sqrt(0.5), rel=0.02)
        assert abs(est.mean) < 1e-12
        assert est.c2 == pytest.approx(4 * PI * PI, rel=0.02)
        assert est.grad_sups[0] == pytest.approx(2 * PI, rel=0.02)
        assert est.grad_sups[1] == 0.0

    def test_cc_half_closed_forms(self):
        est = estimate_norms(TORUS_BATTERY["cc_half"], 256)
        assert est.l2 == pytest.approx(math.sqrt(17.0 / 16.0), rel=0.02)
        assert est.c2 == pytest.approx(2 * PI * PI, rel=0.02)

    def test_analytic_precedence(self):
        norms = resolve_norms(TORUS_BATTERY["cc_half"], 64)
        assert norms.provenance == "analytic"
        bare = SmoothFunctionSpec("s", lambda u1, u2: np.sin(2 * PI * u1) + 0 * u2)
        assert resolve_norms(bare, 64).provenance == "estimated"


class TestComputeRn:
    def test_const1_n8(self):
        rep = compute_rn(TORUS_BATTERY["const1"].analytic, 8)
        assert rep.a == pytest.approx(2.0)
        assert rep.b == pytest.approx(16 * PI * PI * math.log(8), rel=1e-14)
        assert rep.b == pytest.approx(328.36, abs=0.02)
        assert rep.c == pytest.approx(PI * PI, rel=1e-14)
        assert rep.certified
        assert rep.r == rep.a + rep.b + rep.c

    def test_const1_n100(self):
        rep = compute_rn(TORUS_BATTERY["const1"].analytic, 100)
        assert rep.r == pytest.approx(2.0 + 16 * PI * PI * math.log(100) + EIGHT_PI_SQ / 100, rel=1e-14)
        assert rep.r == pytest.approx(729.96, abs=0.1)

    def test_mean_zero(self):
        rep = compute_rn(TORUS_BATTERY["sin1"].analytic, 64)
        assert rep.a == 0.0

    def test_certification_boundary(self):
        norms = NormData(l2=1.0, c2=1.0, mean=1.0, sup=1.0, grad_sups=(0, 0), provenance="analytic")
        assert compute_rn(norms, 8).certified
        assert not compute_rn(norms, 7).certified

    def test_domain_error(self):
        with pytest.raises(DomainError):
            compute_rn(TORUS_BATTERY["const1"].analytic, 1)


class TestVerifyFrBound:
    def test_const1(self):
        chk = verify_fr_bound(TORUS_BATTERY["const1"], 8)
        assert chk.fr_measured == pytest.approx(1.0, abs=1e-12)
        assert chk.slack == pytest.approx(chk.report.r - 1.0, rel=1e-12)
        assert chk.slack >= 0.0

    def test_battery_certified_cells(self):
        for name in ("const1", "cos_tiny", "cos_small", "sin_quarter"):
            spec = TORUS_BATTERY[name]
            threshold = certification_threshold(spec.analytic)
            for n in (threshold, 2 * threshold):
                chk = verify_fr_bound(spec, n)
                assert chk.report.certified, (name, n)
                assert chk.slack >= 0.0, (name, n, chk.slack)

    def test_sin_quarter_n512_not_certified(self):
        chk = verify_fr_bound(TORUS_BATTERY["sin_quarter"], 512)
        assert not chk.report.certified
        assert chk.fr_measured == pytest.approx(1.25 / math.sqrt(1.0 + 1.0 / 32.0), rel=1e-10)
        assert chk.report.r > 10 * chk.fr_measured

    @pytest.mark.slow
    def test_cc_half_certified_at_4096(self):
        chk = verify_fr_bound(TORUS_BATTERY["cc_half"], 4096)
        assert chk.report.certified
        assert chk.slack >= 0.0


class TestVerifyDecay:
    def test_constant_ratio_zero(self):
        chk = verify_decay(TORUS_BATTERY["const1"], 16)
        assert chk.max_ratio == 0.0
        assert chk.passed

    def test_sine_n64(self):
        spec = TORUS_BATTERY["sin1"]
        chk = verify_decay(spec, 64)
        assert chk.passed
        # mass sits at wrapped magnitude 1 only
        assert chk.worst_frequency in ((1, 0), (63, 0))
        # |g^(m)| = N/2 at those frequencies, so ratio = 1/(2 C2) there
        assert chk.max_ratio == pytest.approx(0.5 / spec.analytic.c2, rel=1e-12)

    def test_random_trig_poly(self, rng):
        coeff = rng.standard_normal((4, 4))

        def fn(u1, u2):
            out = np.zeros_like(np.asarray(u1, dtype=float))
            for j in range(4):
                for k in range(4):
                    out += coeff[j, k] * np.cos(2 * PI * (j * u1 + k * u2))
            return out

        spec = SmoothFunctionSpec("trig", fn)
        chk = verify_decay(spec, 64)
        assert chk.max_ratio <= FOUR_PI_SQ


class TestRiemannLemma:
    def test_constant(self):
        chk = verify_riemann_lemma(TORUS_BATTERY["const1"], 16)
        assert chk.lhs == pytest.approx(0.0, abs=1e-14)
        assert chk.rhs == 0.0
        assert chk.passed

    def test_sine_exact_cancellation(self):
        chk = verify_riemann_lemma(TORUS_BATTERY["sin1"], 10)
        assert chk.lhs < 1e-14
        assert chk.rhs == pytest.approx(2 * PI / 10, rel=1e-12)
        assert chk.passed

    def test_sin_squared_with_quadrature_oracle(self):
        spec = SmoothFunctionSpec("sinsq", lambda u1, u2: np.sin(PI * u1) ** 2 + 0 * u2)
        oracle_mean = midpoint_integral_2d(lambda u1, u2: np.sin(PI * u1) ** 2 + 0 * u2, 512)
        assert oracle_mean == pytest.approx(0.5, abs=1e-12)
        norms = estimate_norms(spec, 256)
        assert norms.mean == pytest.approx(oracle_mean, abs=1e-12)
        for n in (10, 32):
            chk = verify_riemann_lemma(spec, n, norms)
            assert chk.passed
            assert chk.rhs == pytest.approx(PI / n, rel=0.01)


class TestL2LowerBound:
    def test_constant(self):
        chk = verify_l2_lower_bound(TORUS_BATTERY["const1"], 16)
        assert chk.grid_energy == pytest.approx(16.0**2)
        assert chk.passed and chk.sqrt_passed

    def test_sine_exact_energy(self):
        chk = verify_l2_lower_bound(TORUS_BATTERY["sin1"], 64)
        assert chk.grid_energy == pytest.approx(64.0**2 / 2.0, rel=1e-12)
        assert chk.passed

    def test_battery_all(self):
        for name, spec in TORUS_BATTERY.items():
            for n in (8, 16, 64, 256):
                chk = verify_l2_lower_bound(spec, n)
                assert chk.passed and chk.sqrt_passed, (name, n)


class TestSampleSize:
    def test_large_grid_value(self):
        expected = math.ceil(1e4 * math.log(100) ** 2 * math.log(256**2))
        assert sample_size(10.0, 0.1, 256**2, 1.0) == expected

    def test_domain_errors(self):
        for eps in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(DomainError):
                sample_size(1.0, eps, 64, 1.0)
        with pytest.raises(DomainError):
            sample_size(0.5, 0.1, 64, 1.0)
        with pytest.raises(DomainError):
            sample_size(1.0, 0.1, 64, 0.0)


class TestScaling:
    def test_bn_dominates_as_n_grows(self):
        norms = TORUS_BATTERY["cc_half"].analytic
        n = 2**14
        limit = SIXTEEN_PI_SQ * norms.c2 / norms.l2
        rep = compute_rn(norms, n)
        assert rep.r / math.log(n) == pytest.approx(limit, rel=0.05)
