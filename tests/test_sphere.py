import ast
import dataclasses
import inspect
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import sph_harm_y

import frkit.sphere as sph
import sphere_reference as ref
from frkit.battery import build_sphere_battery
from frkit.cli import main
from frkit.errors import DataError, DomainError, StructuralError
from frkit.sampling import draw_sphere_points, rng_from_seed, sample_size
from frkit.spectral import fourier_ratio
from frkit.sphere import (
    QuadratureRule,
    SphericalSignal,
    analyze,
    basis_matrix,
    build_quadrature,
    compute_rl,
    degrees_for_indices,
    estimate_sphere_norms,
    laplacian,
    lm_to_index,
    synthesize,
    verify_sphere_fr_bound,
)

FOUR_PI = 4.0 * math.pi


def scipy_real_harmonic(l, m, theta, phi):
    """Independent oracle: real CS-free harmonic from scipy's complex one."""
    y = sph_harm_y(l, abs(m), theta, phi)
    sign = (-1.0) ** abs(m)
    if m == 0:
        return np.real(y)
    if m > 0:
        return math.sqrt(2.0) * sign * np.real(y)
    return math.sqrt(2.0) * sign * np.imag(y)


def basis_column(l, m, theta, phi):
    """Y_l^m at the points: column lm_to_index(l, m) of basis_matrix at bandwidth l."""
    return basis_matrix(l, theta, phi)[:, lm_to_index(l, m)]


class TestQuadrature:
    def test_l1_node_count_and_weight_sum(self):
        rule = build_quadrature(1)
        assert len(rule) == 6
        assert np.sum(rule.weights) == pytest.approx(FOUR_PI, rel=1e-12)

    def test_weight_sums_many_l(self):
        for bandwidth in (2, 5, 16, 33):
            rule = build_quadrature(bandwidth)
            assert len(rule) == (bandwidth + 1) * (2 * bandwidth + 1)
            assert np.sum(rule.weights) == pytest.approx(FOUR_PI, rel=1e-12)

    def test_y32_integrates_to_zero(self):
        rule = build_quadrature(4)
        val = np.sum(rule.weights * basis_column(3, 2, rule.theta, rule.phi))
        assert abs(val) < 1e-12

    def test_gram_identity_l8(self):
        rule = build_quadrature(8)
        mat = basis_matrix(8, rule.theta, rule.phi)
        gram = mat.T @ (rule.weights[:, None] * mat)
        assert np.max(np.abs(gram - np.eye(81))) < 1e-10

    def test_bad_bandwidth(self):
        with pytest.raises(DomainError):
            build_quadrature(0)


class TestBasis:
    def test_y00_constant(self):
        theta = np.array([0.1, 1.0, 3.0])
        vals = basis_column(0, 0, theta, np.zeros(3))
        assert np.allclose(vals, 1.0 / math.sqrt(FOUR_PI), atol=1e-15)

    def test_y10_closed_form(self):
        theta = np.linspace(0.01, 3.1, 7)
        vals = basis_column(1, 0, theta, np.zeros(7))
        assert np.allclose(vals, math.sqrt(3.0 / FOUR_PI) * np.cos(theta), atol=1e-14)
        assert basis_column(1, 0, [1e-15], [0.0])[0] == pytest.approx(
            math.sqrt(3.0 / FOUR_PI), rel=1e-12
        )

    def test_sectoral_y10_10_at_equator(self):
        # Y_l^l(pi/2, phi) = sqrt(2) * sqrt((2l+1)/(4 pi) * (2l-1)!!/(2l)!!) * cos(l phi)
        l = 10
        ratio = 1.0
        for k in range(1, l + 1):
            ratio *= (2.0 * k - 1.0) / (2.0 * k)
        expected = math.sqrt(2.0) * math.sqrt((2 * l + 1) / FOUR_PI * ratio)
        val = basis_column(l, l, [math.pi / 2], [0.0])[0]
        assert val == pytest.approx(expected, rel=1e-12)

    def test_against_scipy_oracle(self):
        rng = rng_from_seed(11)
        theta = rng.uniform(0.05, math.pi - 0.05, 40)
        phi = rng.uniform(0, 2 * math.pi, 40)
        for l, m in [(0, 0), (1, -1), (2, 1), (5, -3), (9, 9), (12, -7), (20, 4)]:
            mine = basis_column(l, m, theta, phi)
            oracle = scipy_real_harmonic(l, m, theta, phi)
            assert np.max(np.abs(mine - oracle)) < 1e-12, (l, m)

    def test_high_degree_stability(self):
        theta = np.linspace(0.01, math.pi - 0.01, 50)
        vals = basis_column(256, 128, theta, np.zeros(50))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 10.0

    def test_index_mapping(self):
        count = 0
        for l in range(7):
            for m in range(-l, l + 1):
                assert lm_to_index(l, m) == count
                count += 1
        assert list(degrees_for_indices(count)) == [l for l in range(7) for _ in range(2 * l + 1)]


class TestAnalyzeSynthesize:
    def test_y00_delta(self):
        rule = build_quadrature(3)
        vals = np.full(len(rule), 1.0 / math.sqrt(FOUR_PI))
        sig = analyze(vals, rule, 3)
        assert sig.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(sig.coeffs[1:])) < 1e-12

    def test_two_mode_signal(self):
        bandwidth = 5
        coeffs = np.zeros(36)
        coeffs[lm_to_index(2, 1)] = 3.0
        coeffs[lm_to_index(5, -3)] = -1.0
        sig = SphericalSignal(bandwidth, coeffs)
        rule = build_quadrature(bandwidth)
        got = analyze(synthesize(sig, rule.theta, rule.phi), rule, bandwidth)
        assert got.coeffs[lm_to_index(2, 1)] == pytest.approx(3.0, rel=1e-12)
        assert got.coeffs[lm_to_index(5, -3)] == pytest.approx(-1.0, rel=1e-12)
        assert np.linalg.norm(got.coeffs - coeffs) < 1e-11

    def test_roundtrip_random_v6(self, rng):
        coeffs = rng.standard_normal(49)
        sig = SphericalSignal(6, coeffs)
        rule = build_quadrature(6)
        back = analyze(synthesize(sig, rule.theta, rule.phi), rule, 6)
        assert np.linalg.norm(back.coeffs - coeffs) <= 1e-10 * np.linalg.norm(coeffs)

    def test_synthesize_zero_and_constant(self):
        sig = SphericalSignal(2, np.zeros(9))
        assert np.all(synthesize(sig, [0.3, 1.2], [0.1, 2.2]) == 0.0)
        c = np.zeros(9)
        c[0] = 1.0
        vals = synthesize(SphericalSignal(2, c), [0.3, 1.2], [0.1, 2.2])
        assert np.allclose(vals, 1.0 / math.sqrt(FOUR_PI), atol=1e-15)

    def test_synthesize_vs_per_mode_summation(self, rng):
        bandwidth = 4
        coeffs = rng.standard_normal(25)
        sig = SphericalSignal(bandwidth, coeffs)
        pts = draw_sphere_points(100, seed=5)
        direct = np.zeros(100)
        for l in range(bandwidth + 1):
            for m in range(-l, l + 1):
                direct += coeffs[lm_to_index(l, m)] * basis_column(l, m, pts.theta, pts.phi)
        assert np.max(np.abs(synthesize(sig, pts.theta, pts.phi) - direct)) < 1e-12

    def test_analyze_node_values_of_y10(self):
        rule = build_quadrature(2)
        sig = analyze(np.cos(rule.theta) * math.sqrt(3.0 / FOUR_PI), rule, 2)
        assert sig.coeffs[lm_to_index(1, 0)] == pytest.approx(1.0, rel=1e-12)

    def test_node_count_mismatch(self):
        rule = build_quadrature(2)
        with pytest.raises(StructuralError):
            analyze(np.ones(len(rule) - 1), rule, 2)
        # scattered points: theta and phi of one shape, finite, theta in [0, pi]
        sig = SphericalSignal(2, np.ones(9))
        for at in (lambda th, ph: synthesize(sig, th, ph), lambda th, ph: basis_matrix(2, th, ph)):
            for phi in ([0.5], [0.5, 1.0], [0.5, 1.0, 1.5, 2.0]):
                with pytest.raises(StructuralError, match="one shape"):
                    at([0.3, 0.9, 1.4], phi)
            with pytest.raises(DataError, match="finite"):
                at([0.3, np.nan, 1.4], [0.5, 1.0, 1.5])
            with pytest.raises(DomainError, match="colatitudes"):
                at([0.3, 4.0, 1.4], [0.5, 1.0, 1.5])

    def test_insufficient_exactness(self):
        rule = build_quadrature(2)
        with pytest.raises(DomainError):
            analyze(np.ones(len(rule)), rule, 3)

    def test_signal_refuses_imaginary_parts(self):
        for coeffs in ([1, 0, 0, 1j], np.array([1, 0, 0, 1j])):
            with pytest.raises(StructuralError, match="imaginary"):
                SphericalSignal(1, coeffs)
        sig = SphericalSignal(1, np.array([1, 0, 0, 2], dtype=complex))
        assert sig.coeffs.dtype == np.float64
        assert np.array_equal(sig.coeffs, [1.0, 0.0, 0.0, 2.0])

    @pytest.mark.parametrize("bandwidth, coeffs", [(-2, [1.0]), (-1, [])])
    def test_signal_refuses_negative_bandwidth(self, bandwidth, coeffs):
        # (L+1)^2 matches the coefficient count, so only the sign check refuses these
        with pytest.raises(DomainError, match="bandwidth must be >= 0"):
            SphericalSignal(bandwidth, coeffs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_signal_refuses_non_finite_coefficients(self, bad):
        with pytest.raises(DataError, match="finite"):
            SphericalSignal(1, [1.0, 0.0, bad, 0.5])


class TestSpectralIdentities:
    def test_discrete_energy_identity(self, rng):
        bandwidth = 7
        coeffs = rng.standard_normal(64)
        sig = SphericalSignal(bandwidth, coeffs)
        rule = build_quadrature(bandwidth)
        vals = synthesize(sig, rule.theta, rule.phi)
        energy = float(np.sum(rule.weights * vals * vals))
        assert energy == pytest.approx(sig.l2**2, rel=1e-10)

    def test_eigenvalue_identity(self, rng):
        bandwidth = 6
        coeffs = rng.standard_normal(49)
        sig = SphericalSignal(bandwidth, coeffs)
        rule = build_quadrature(bandwidth)
        lap_vals = synthesize(laplacian(sig), rule.theta, rule.phi)
        lap_hat = analyze(lap_vals, rule, bandwidth)
        ells = degrees_for_indices(49)
        assert np.linalg.norm(
            lap_hat.coeffs + ells * (ells + 1) * coeffs
        ) <= 1e-8 * np.linalg.norm(coeffs)

    def test_fr_invariant_under_reanalysis(self, rng):
        bandwidth = 5
        sig = SphericalSignal(bandwidth, rng.standard_normal(36))
        rule = build_quadrature(bandwidth)
        re = analyze(synthesize(sig, rule.theta, rule.phi), rule, bandwidth)
        assert fourier_ratio(re.coeffs) == pytest.approx(
            fourier_ratio(sig.coeffs), rel=1e-10
        )

    def test_fr_invariant_under_m_relabeling(self, rng):
        bandwidth = 4
        coeffs = rng.standard_normal(25)
        flipped = coeffs.copy()
        for l in range(bandwidth + 1):
            for m in range(1, l + 1):
                i, j = lm_to_index(l, m), lm_to_index(l, -m)
                flipped[i], flipped[j] = coeffs[j], coeffs[i]
        a = fourier_ratio(coeffs)
        b = fourier_ratio(flipped)
        assert a == pytest.approx(b, rel=1e-14)


class TestNorms:
    def test_y00_norms(self):
        c = np.zeros(9)
        c[0] = 1.0
        norms = estimate_sphere_norms(SphericalSignal(2, c))
        assert norms.l2 == 1.0
        assert norms.sup == pytest.approx(1.0 / math.sqrt(FOUR_PI), rel=1e-12)
        assert norms.lap_sup == 0.0
        assert norms.grad_sup < 1e-6
        assert norms.integral == pytest.approx(math.sqrt(FOUR_PI), rel=1e-14)

    def test_y00_gradient_is_exactly_zero(self):
        c = np.zeros(65**2)
        c[0] = 1.0
        assert estimate_sphere_norms(SphericalSignal(64, c)).grad_sup == 0.0

    def test_y10_norms_closed_form(self):
        c = np.zeros(9)
        c[lm_to_index(1, 0)] = 1.0
        norms = estimate_sphere_norms(SphericalSignal(2, c))
        amp = math.sqrt(3.0 / FOUR_PI)
        assert norms.sup == pytest.approx(amp, rel=0.02)
        assert norms.grad_sup == pytest.approx(amp, rel=0.03)
        assert norms.lap_sup == pytest.approx(2 * amp, rel=0.02)


class TestComputeRl:
    def test_y00_mean_term(self):
        c = np.zeros(9)
        c[0] = 1.0
        norms = estimate_sphere_norms(SphericalSignal(2, c))
        rep = compute_rl(norms, 2)
        assert rep.a == pytest.approx(math.sqrt(FOUR_PI), rel=1e-12)
        assert rep.a == pytest.approx(3.5449, abs=1e-4)

    def test_mean_zero(self):
        c = np.zeros(9)
        c[lm_to_index(1, 0)] = 1.0
        norms = estimate_sphere_norms(SphericalSignal(2, c))
        assert compute_rl(norms, 2).a == 0.0

    def test_mix_independent_arithmetic(self):
        bandwidth = 8
        c = np.zeros(81)
        c[0] = 1.0
        c[lm_to_index(3, 0)] = 0.1
        norms = estimate_sphere_norms(SphericalSignal(bandwidth, c))
        rep = compute_rl(norms, bandwidth)
        ratio = norms.c2 / norms.l2
        assert rep.a == pytest.approx(abs(norms.integral) / norms.l2, rel=1e-14)
        assert rep.b == pytest.approx(48 * math.sqrt(math.pi) * ratio * math.log(8), rel=1e-14)
        assert rep.c == pytest.approx(48 * math.sqrt(math.pi) * ratio / 8, rel=1e-14)
        assert rep.r == rep.a + rep.b + rep.c

    def test_low_bandwidth_rejected(self):
        c = np.zeros(4)
        c[0] = 1.0
        norms = estimate_sphere_norms(SphericalSignal(1, c))
        with pytest.raises(DomainError, match="log L"):
            compute_rl(norms, 1)


def _norm_grid(bandwidth):
    """The rings of estimate_sphere_norms' 4L x 8L grid, flattened ring-major."""
    n_theta, n_phi = max(4 * bandwidth, 8), max(8 * bandwidth, 16)
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    return theta, n_phi, tg.ravel(), pg.ravel()


def _rel_max(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


RING_BANDWIDTHS = (1, 2, 3, 8, 17, 32)


class TestRingTransforms:
    """Ring FFT transforms against the point-wise reference in sphere_reference."""

    def test_table_equals_reference_blocks(self):
        for lmax in (0, 1, 2, 9, 40, 64):
            rings = (build_quadrature(lmax).ring_theta, _norm_grid(lmax)[0]) if lmax else ()
            for theta in (np.linspace(0.0, math.pi, 37), *rings):
                table = sph._legendre_table(lmax, theta)
                assert np.array_equal(table, ref.legendre_table_m_major(lmax, theta)), lmax

    @pytest.mark.parametrize("lmax", (1, 2, 9, 40))
    def test_derivative_table_matches_central_differences(self, lmax):
        _, d_table, inv_sin = sph._norm_tables(lmax)
        theta = _norm_grid(lmax)[0]
        assert np.array_equal(inv_sin, 1.0 / np.sin(theta))
        h = 1e-6
        plus, minus = sph._legendre_table(lmax, theta + h), sph._legendre_table(lmax, theta - h)
        want = (plus - minus) / (2 * h)
        assert np.max(np.abs(d_table - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("bandwidth", RING_BANDWIDTHS)
    def test_ring_synthesis_matches_reference(self, rng, bandwidth):
        sig = SphericalSignal(bandwidth, rng.standard_normal((bandwidth + 1) ** 2))
        rule = build_quadrature(bandwidth)
        theta, n_phi, tg, pg = _norm_grid(bandwidth)
        for rings, n, th, ph in ((theta, n_phi, tg, pg),
                                 (rule.ring_theta, rule.n_phi, rule.theta, rule.phi)):
            table = sph._legendre_table(bandwidth, rings)
            got = sph._ring_synthesis(sig.coeffs, table, bandwidth, n).ravel()
            assert _rel_max(got, ref.synthesize(sig, th, ph)) <= 1e-12

    @pytest.mark.parametrize("bandwidth", RING_BANDWIDTHS)
    def test_ring_analysis_matches_reference(self, rng, bandwidth):
        rule = build_quadrature(bandwidth)
        theta, n_phi = _norm_grid(bandwidth)[:2]
        weights = np.sin(theta) * (math.pi / theta.size) * (2.0 * math.pi / n_phi)
        grid_rule = QuadratureRule(theta, weights, n_phi, 2 * bandwidth)
        for r in (rule, grid_rule):
            values = rng.standard_normal(len(r))
            want = ref.analyze(values, r, bandwidth).coeffs
            assert _rel_max(analyze(values, r, bandwidth).coeffs, want) <= 1e-12

    @pytest.mark.parametrize("bandwidth", (16, 32))
    def test_norms_match_reference_on_battery(self, bandwidth):
        for name, signal in build_sphere_battery(bandwidth).items():
            got, want = estimate_sphere_norms(signal), ref.estimate_sphere_norms(signal)
            for field in ("sup", "lap_sup", "c2"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-12, abs=0.0
                ), (name, field)
            assert compute_rl(got, bandwidth).r == pytest.approx(
                compute_rl(want, bandwidth).r, rel=1e-12, abs=0.0
            ), name
            # |grad f|^2 is a difference of two O(C2^2) terms: compare it absolutely
            assert abs(got.grad_sup**2 - want.grad_sup**2) <= 1e-10 * want.c2**2, name

    def test_basis_matrix_matches_reference_at_scattered_points(self, rng):
        pts = draw_sphere_points(1200, seed=21)  # more than one point chunk at L=32
        for bandwidth in (0, 3, 32):
            got = basis_matrix(bandwidth, pts.theta, pts.phi)
            want = ref.basis_matrix(bandwidth, pts.theta, pts.phi)
            assert np.max(np.abs(got - want)) <= 1e-13
            sig = SphericalSignal(bandwidth, rng.standard_normal((bandwidth + 1) ** 2))
            assert _rel_max(synthesize(sig, pts.theta, pts.phi),
                            ref.synthesize(sig, pts.theta, pts.phi)) <= 1e-12

    def test_ring_paths_reject_aliasing_rings(self):
        bandwidth = 8
        rule = build_quadrature(bandwidth)
        table = sph._legendre_table(bandwidth, rule.ring_theta)
        coeffs = np.ones((bandwidth + 1) ** 2)
        with pytest.raises(DomainError, match="alias"):
            sph._ring_synthesis(coeffs, table, bandwidth, 2 * bandwidth)
        with pytest.raises(DomainError, match="alias"):
            sph._ring_analysis(np.ones((bandwidth + 1, 2 * bandwidth)), table, bandwidth)
        sph._ring_synthesis(coeffs, table, bandwidth, 2 * bandwidth + 1)

    def test_rule_is_its_rings(self):
        rule = build_quadrature(3)
        assert [f.name for f in dataclasses.fields(rule)] == [
            "ring_theta", "ring_weights", "n_phi", "exactness_degree"]
        rings, n_phi = rule.ring_theta, rule.n_phi
        assert len(rule) == rings.size * n_phi == 28
        assert np.array_equal(rule.theta, np.repeat(rings, n_phi))
        assert np.array_equal(rule.phi, np.tile(2.0 * np.pi * np.arange(n_phi) / n_phi, 4))
        assert np.array_equal(rule.weights, np.repeat(rule.ring_weights, n_phi))
        for bad in (
            (rings[:-1], rule.ring_weights, n_phi),
            (rings[None, :], rule.ring_weights[None, :], n_phi),
            (rings, np.where(np.arange(4) == 2, 0.0, rule.ring_weights), n_phi),
            (rings, -rule.ring_weights, n_phi),
            (rings, np.where(np.arange(4) == 1, np.nan, rule.ring_weights), n_phi),
            (rings, rule.ring_weights, 0),
        ):
            with pytest.raises(StructuralError):
                QuadratureRule(*bad, 6)
        with pytest.raises(DataError):
            QuadratureRule([np.nan], [1.0], 3, 4)
        for theta in (-0.1, 4.0):
            with pytest.raises(DomainError, match="colatitudes"):
                QuadratureRule([theta], [1.0], 3, 4)

    def test_rule_is_not_changed_through_its_arrays(self):
        rule = build_quadrature(3)
        before = rule.weights.copy()
        rule.weights[:] = 1.0
        assert np.array_equal(rule.weights, before)
        for arr in (rule.ring_theta, rule.ring_weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        rings = np.array(rule.ring_weights)
        copied = QuadratureRule(rule.ring_theta, rings, rule.n_phi, 6)
        rings[0] = 1.0
        assert np.array_equal(copied.weights, before)


class TestTransformCore:
    def test_one_order_loop(self):
        """Only the Legendre recurrence loops over orders or degrees.

        Its seed loop runs in m and its three-term step in l. Every other loop
        in sphere.py runs over that recurrence's output or a literal tuple.
        """
        tree = ast.parse(inspect.getsource(sph))
        loops = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    assert not isinstance(node, ast.While), fn.name
                    if isinstance(node, (ast.For, ast.comprehension)):
                        loops.setdefault(fn.name, []).append(node)
        recurrence = loops.pop("_legendre_degrees")
        assert sorted(n.target.id for n in recurrence) == ["l", "m"]  # seed in m, steps in l
        for nodes in loops.values():
            for node in nodes:
                text = ast.unparse(node.iter)
                assert isinstance(node.iter, ast.Tuple) or text.startswith(
                    "_legendre_degrees("), text

    def test_norms_l64_cpu_time(self):
        signal = build_sphere_battery(64)["gauss_heat"]
        sph._norm_tables.cache_clear()  # time the table build too
        start = time.process_time()
        estimate_sphere_norms(signal)
        assert time.process_time() - start <= 1.0


class TestDegreeMajorBuild:
    """basis_matrix against the m-major product it replaced, and its memory."""

    @pytest.mark.parametrize("bandwidth", (0, 1, 2, 32, 64))
    def test_basis_matrix_equals_m_major_product(self, bandwidth):
        pts = draw_sphere_points(1200, seed=21)  # several of the reference's point chunks
        got = basis_matrix(bandwidth, pts.theta, pts.phi)
        assert np.array_equal(got, ref.basis_matrix_m_major(bandwidth, pts.theta, pts.phi))

    def test_basis_build_peak_memory(self):
        pts = draw_sphere_points(852, seed=1)
        tracemalloc.start()
        try:
            rows = basis_matrix(32, pts.theta, pts.phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * rows.nbytes

    def test_synthesis_peak_memory(self):
        # one degree's rows at a time: the whole basis would take 7.1 MiB
        signal = build_sphere_battery(32)["gauss_heat"]
        pts = draw_sphere_points(852, seed=1)
        tracemalloc.start()
        try:
            synthesize(signal, pts.theta, pts.phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20


class TestNormTableCache:
    """estimate_sphere_norms builds its L-only tables once per bandwidth."""

    def test_cached_arrays_are_read_only(self):
        for arr in (*sph._norm_tables(8), *sph._table_index(8)):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1

    @pytest.mark.parametrize("bandwidth", (16, 32))
    def test_cold_and_warm_calls_agree(self, bandwidth):
        for name, signal in build_sphere_battery(bandwidth).items():
            sph._norm_tables.cache_clear()
            cold = estimate_sphere_norms(signal)
            assert estimate_sphere_norms(signal) == cold, name
            assert sph._norm_tables.cache_info().hits == 1

    def test_fr_pass_builds_one_table_per_bandwidth(self, table_builds, capsys):
        assert main(["fr", "--setting", "sphere", "--fn", "all", "--l", "16", "32"]) == 0
        assert sorted(table_builds) == [16, 32]  # 16 without the cache

    def test_l64_tables_fit_17_mib(self):
        assert sum(arr.nbytes for arr in sph._norm_tables(64)) <= 17 * 2**20


class TestSphereFrBound:
    def test_y00(self):
        bat = build_sphere_battery(4)
        chk = verify_sphere_fr_bound(bat["y00"])
        assert chk.fr_measured == pytest.approx(1.0, abs=1e-14)
        assert chk.slack >= 0.0

    def test_decay_battery_l16(self):
        bat = build_sphere_battery(16)
        chk = verify_sphere_fr_bound(bat["decay_e"])
        assert chk.slack >= 0.0

    def test_flat_spectrum_fr_is_l_plus_one(self):
        bandwidth = 6
        sig = SphericalSignal(bandwidth, np.ones(49))
        fr = fourier_ratio(sig.coeffs)
        assert fr == pytest.approx(bandwidth + 1.0, rel=1e-14)
        # recorded, not asserted: the C2 norm of a flat-spectrum signal is large,
        # so the bound may or may not hold; just confirm the report is formed
        chk = verify_sphere_fr_bound(sig)
        assert chk.report.r > 0


class TestSampleSizeSphere:
    def test_arithmetic_example(self):
        q = sample_size(5.0, 0.1, 17**2, 1.0)
        assert q == math.ceil(2500 * math.log(50) ** 2 * math.log(289))

    def test_small_eps_edge(self):
        q = sample_size(1.0, 0.49, 3**2, 1.0)
        assert q >= 1

    def test_r1_quarter(self):
        q = sample_size(1.0, 0.25, 9**2, 1.0)
        assert q == math.ceil(16 * math.log(4) ** 2 * math.log(81))

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            sample_size(1.0, 0.5, 9**2, 1.0)
