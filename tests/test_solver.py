import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import minimize

from frkit.battery import TORUS_BATTERY, build_sphere_battery
from frkit.errors import (
    CertificationError,
    DataError,
    DomainError,
    InfeasibleCandidateError,
    StructuralError,
)
from frkit.sampling import draw_sphere_points, draw_subset, rng_from_seed, spawn_seeds
from frkit.solver import (
    Q_MAX,
    SolverConfig,
    check_kkt,
    duality_gap,
    make_sphere_operator,
    make_torus_operator,
    recover_sphere,
    recover_torus,
    recovery_csv_fields,
    solve_bpdn,
    RECOVERY_HEADER,
    _soft_threshold,
)
from frkit.spectral import inverse_dft
from frkit.sphere import synthesize
from frkit.torus import discretize
import frkit.solver as solver
from bpdn_oracle import oracle_solve
from conftest import dense_operator, random_bpdn_instance
from torus_reference import dense_torus_matrix, full_torus_operator


class TestOperators:
    def test_torus_adjoint_consistency(self, rng):
        sample = draw_subset(8, 20, seed=4)
        op = full_torus_operator(sample)
        for _ in range(10):
            a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            lhs = np.vdot(y, op.forward(a))
            rhs = np.vdot(op.adjoint(y), a)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(y)

    def test_torus_norm_at_most_one(self, rng):
        sample = draw_subset(8, 37, seed=6)
        op = full_torus_operator(sample)
        for _ in range(20):
            a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            assert np.linalg.norm(op.forward(a)) <= np.linalg.norm(a) * (1 + 1e-12)

    def test_torus_dense_matches_matfree(self, rng):
        sample = draw_subset(4, 9, seed=8)
        op = full_torus_operator(sample)
        mat = op.to_dense()
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.max(np.abs(mat @ a - op.forward(a))) < 1e-12

    def test_sphere_adjoint_and_bound(self, rng):
        pts = draw_sphere_points(50, seed=11)
        op = make_sphere_operator(pts, 4)
        for _ in range(10):
            a = rng.standard_normal(25) + 1j * rng.standard_normal(25)
            y = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            lhs = np.vdot(y, op.forward(a))
            rhs = np.vdot(op.adjoint(y), a)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(y)
            assert np.linalg.norm(op.forward(a)) <= op.norm_bound * np.linalg.norm(a)

    def test_sphere_real_matvec_matches_complex_product(self, rng):
        pts = draw_sphere_points(700, seed=12)
        op = make_sphere_operator(pts, 6)
        mat = op.to_dense()
        for _ in range(5):
            a = rng.standard_normal(49) + 1j * rng.standard_normal(49)
            y = rng.standard_normal(700) + 1j * rng.standard_normal(700)
            want_fwd, want_adj = mat @ a, mat.T @ y
            assert np.max(np.abs(op.forward(a) - want_fwd)) <= 1e-13 * np.max(np.abs(want_fwd))
            assert np.max(np.abs(op.adjoint(y) - want_adj)) <= 1e-13 * np.max(np.abs(want_adj))


def _real_bpdn_instance(side, seed):
    """A sample of Z_side^2, real observations on it and a 10% fidelity radius."""
    sample = draw_subset(side, side * side // 2, seed=seed)
    y = rng_from_seed(seed).standard_normal(len(sample))
    return sample, y, 0.1 * float(np.linalg.norm(y))


class TestHalfSpectrumTorus:
    @pytest.mark.parametrize("side", [8, 9])
    def test_weighted_adjoint_identity(self, side, rng):
        sample, _, _ = _real_bpdn_instance(side, seed=2)
        op = make_torus_operator(sample)
        assert op.shape == (len(sample), side * (side // 2 + 1))
        for _ in range(10):
            a = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
            y = rng.standard_normal(op.shape[0])
            lhs = np.vdot(y, op.forward(a)).real
            rhs = np.sum(op.weights * (np.conj(op.adjoint(y)) * a).real)
            assert abs(lhs - rhs) <= 1e-10 * op.coef_norm(a) * np.linalg.norm(y)
            assert np.linalg.norm(op.forward(a)) <= op.coef_norm(a) * (1 + 1e-12)

    @pytest.mark.parametrize("side", [8, 9])
    def test_matches_dense_reference(self, side, rng):
        sample, _, _ = _real_bpdn_instance(side, seed=3)
        op, dense = make_torus_operator(sample), dense_torus_matrix(sample)
        a = (np.fft.rfftn(rng.standard_normal((side, side))) / side).ravel()  # Hermitian half
        assert np.max(np.abs(op.forward(a) - dense @ op.expand(a))) <= 1e-12
        y = rng.standard_normal(len(sample))
        assert np.max(np.abs(op.expand(op.adjoint(y)) - dense.conj().T @ y)) <= 1e-12

    @pytest.mark.parametrize("side", [8, 9])
    def test_matches_full_spectrum_solve(self, side):
        sample, y, delta = _real_bpdn_instance(side, seed=side)
        cfg = SolverConfig(delta=delta)
        full = solve_bpdn(full_torus_operator(sample), y, cfg)
        half_op = make_torus_operator(sample)
        half = solve_bpdn(half_op, y, cfg)
        assert (half.iterations, half.converged) == (full.iterations, full.converged)
        expanded = half_op.expand(half.coefficients)
        assert np.max(np.abs(expanded - full.coefficients)) <= 1e-10
        assert half.objective == pytest.approx(full.objective, rel=1e-12)
        field = np.fft.ifftn(expanded.reshape(side, side))
        assert np.linalg.norm(field.imag) <= 1e-12 * np.linalg.norm(field)

    @pytest.mark.parametrize("side", [8, 9])
    def test_expanded_solution_passes_full_kkt(self, side):
        sample, y, delta = _real_bpdn_instance(side, seed=side + 1)
        half_op, full_op = make_torus_operator(sample), full_torus_operator(sample)
        rep = solve_bpdn(half_op, y, SolverConfig(delta=delta, tol=1e-10))
        expanded = half_op.expand(rep.coefficients)
        assert check_kkt(full_op, y, delta, expanded) <= 1e-6
        assert duality_gap(half_op, y, delta, rep.coefficients) == pytest.approx(
            duality_gap(full_op, y, delta, expanded), abs=1e-12 * rep.objective
        )

    def test_no_dense_form_and_real_data_only(self):
        op = make_torus_operator(draw_subset(4, 9, seed=8))
        with pytest.raises(StructuralError, match="no dense matrix form"):
            op.to_dense()
        with pytest.raises(DataError, match="real measurements"):
            solve_bpdn(op, np.full(9, 1j), SolverConfig(delta=0.0))


class TestRestarts:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_restarts_cut_iterations_on_torus(self, seed):
        # without restarts these trials take 2,575-2,725 iterations
        rep = recover_torus(
            TORUS_BATTERY["cc_half"], 64, 0.1, seed, c_univ=2**-8, allow_uncertified=True
        )
        assert rep.converged
        assert rep.restarts >= 1
        assert rep.iterations <= 1000

    def test_restarted_half_spectrum_solve_reaches_minimizer(self):
        sample, y, delta = _real_bpdn_instance(8, seed=5)
        half_op, full_op = make_torus_operator(sample), full_torus_operator(sample)
        rep = solve_bpdn(half_op, y, SolverConfig(delta=delta, tol=1e-10))
        assert rep.converged and rep.restarts > 0
        expanded = half_op.expand(rep.coefficients)
        assert check_kkt(full_op, y, delta, expanded) <= 1e-6
        a_oracle = oracle_solve(full_op.to_dense(), y, delta)
        assert np.max(np.abs(expanded - a_oracle)) <= 1e-6

    def test_real_sphere_path_matches_complex_reference(self, rng):
        op = make_sphere_operator(draw_sphere_points(120, seed=31), 6)
        mat = op.to_dense()
        assert op.dtype == np.float64 and mat.dtype == np.float64
        truth = np.zeros(mat.shape[1])
        truth[[0, 5, 17, 30]] = rng.standard_normal(4)
        noise = 0.01 * rng.standard_normal(mat.shape[0])
        y = mat @ truth + noise
        cfg = SolverConfig(delta=1.2 * float(np.linalg.norm(noise)))
        real = solve_bpdn(op, y, cfg)
        ref = solve_bpdn(dense_operator(mat, norm_bound=op.norm_bound), y, cfg)
        assert real.coefficients.dtype == np.float64
        assert real.converged and real.restarts > 0
        assert (real.iterations, real.converged, real.restarts) == (
            ref.iterations, ref.converged, ref.restarts
        )
        assert np.max(np.abs(real.coefficients - ref.coefficients)) <= 1e-12

    def test_real_operator_takes_real_data_only(self):
        op = make_sphere_operator(draw_sphere_points(20, seed=3), 2)
        with pytest.raises(DataError, match="real measurements"):
            solve_bpdn(op, np.full(20, 1j), SolverConfig(delta=0.0))
        with pytest.raises(DataError, match="real coefficients"):
            check_kkt(op, np.ones(20), 10.0, np.full(9, 1j))


class TestPrimalWeight:
    @pytest.mark.parametrize("seed", range(6))
    def test_sphere_solve_balances_steps(self, seed):
        # with sigma = tau these trials take 575-650 iterations
        signal = build_sphere_battery(16)["gauss_heat"]
        rep = recover_sphere(signal, 0.1, seed, c_univ=2**-6)
        assert rep.converged
        assert rep.iterations <= 300
        assert rep.primal_weight > 1.0

    def test_dense_instances_converge_fast(self):
        # with sigma = tau seed 1 takes 33,850 iterations
        for seed in range(20):
            mat, y, delta, _ = random_bpdn_instance(seed)
            rep = solve_bpdn(dense_operator(mat), y, SolverConfig(delta=delta, tol=1e-9))
            assert rep.converged, seed
            assert rep.iterations <= 2000, seed

    def test_zero_solution_keeps_unit_weight(self):
        mat, y, _, _ = random_bpdn_instance(3)
        rep = solve_bpdn(dense_operator(mat), y, SolverConfig(delta=10.0 * np.linalg.norm(y)))
        assert rep.converged and not np.any(rep.coefficients)
        assert rep.primal_weight == 1.0

    def test_restart_from_zero_primal_keeps_weight(self):
        # delta just below ||y|| on tiny data: the dual moves while the primal
        # stays 0 through the first restarts, so the weight has no estimate
        mat, y, _, _ = random_bpdn_instance(3)
        y = 1e-3 * y
        cfg = SolverConfig(delta=0.999 * float(np.linalg.norm(y)), max_iter=100)
        rep = solve_bpdn(dense_operator(mat), y, cfg)
        assert rep.restarts >= 1 and not np.any(rep.coefficients)
        assert rep.primal_weight == 1.0


def test_soft_threshold_matches_where_form_bitwise(rng):
    t = 0.7
    x = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    edge = np.array([0.0, -0.0, t, -t, 1j * t, -1j * t, 0.6 * t - 0.8j * t, 1e-300])
    x = np.concatenate([x, edge.astype(complex)])
    mags = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        old = x * np.where(mags > t, 1.0 - t / np.where(mags > 0, mags, 1.0), 0.0)
    assert np.array_equal(_soft_threshold(x, t).view(np.int64), old.view(np.int64))


class TestSolveBpdn:
    def test_full_observation_delta_zero(self):
        side = 8
        sample = draw_subset(side, side * side, seed=0)
        op = full_torus_operator(sample)
        rng = rng_from_seed(1)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        rep = solve_bpdn(op, y, SolverConfig(delta=0.0))
        expected = op.adjoint(y)  # unitary full sampling
        assert np.max(np.abs(rep.coefficients - expected)) < 1e-7
        assert rep.objective == pytest.approx(float(np.sum(np.abs(expected))), rel=1e-8)

    def test_one_sparse_exact_recovery_50_seeds(self):
        side = 8
        failures = 0
        for i, seed in enumerate(spawn_seeds(515, 50)):
            rng = rng_from_seed(seed)
            truth = np.zeros(64, dtype=complex)
            truth[int(rng.integers(64))] = rng.standard_normal() + 1j * rng.standard_normal()
            field = inverse_dft(truth.reshape(side, side)).ravel()
            sample = draw_subset(side, 48, seed=seed)
            rep = solve_bpdn(full_torus_operator(sample), field[sample.flat],
                             SolverConfig(delta=0.0))
            err = np.max(np.abs(rep.coefficients - truth))
            failures += err > 1e-6
        assert failures == 0

    def test_three_sparse_matches_oracle_on_torus(self):
        side = 4
        rng = rng_from_seed(33)
        truth = np.zeros(16, dtype=complex)
        truth[[1, 7, 12]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        field = inverse_dft(truth.reshape(side, side)).ravel()
        g_norm = float(np.linalg.norm(field))
        sample = draw_subset(side, 12, seed=34)
        y = field[sample.flat]
        delta = 0.01 * g_norm
        op = full_torus_operator(sample)
        rep = solve_bpdn(op, y, SolverConfig(delta=delta, tol=1e-10))
        a_oracle = oracle_solve(op.to_dense(), y, delta)
        assert np.max(np.abs(rep.coefficients - a_oracle)) < 1e-6

    def test_nonconvergence_is_reported_not_raised(self):
        mat, y, delta, _ = random_bpdn_instance(2)
        rep = solve_bpdn(dense_operator(mat), y, SolverConfig(delta=delta, max_iter=3))
        assert not rep.converged
        assert rep.iterations == 3

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            SolverConfig(delta=-1.0)

    def test_config_and_report_are_frozen(self):
        cfg = SolverConfig(delta=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.delta = 0.8
        rep = recover_torus(TORUS_BATTERY["const1"], 8, 0.1, seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.rel_error = 0.0

    def test_objective_never_exceeds_feasible_truth(self):
        for seed in range(8):
            mat, y, delta, truth = random_bpdn_instance(seed)
            assert np.linalg.norm(mat @ truth - y) <= delta  # truth is feasible
            rep = solve_bpdn(dense_operator(mat), y, SolverConfig(delta=delta))
            assert rep.objective <= np.sum(np.abs(truth)) + 1e-8

    def test_converged_implies_feasible(self):
        mat, y, delta, _ = random_bpdn_instance(5)
        rep = solve_bpdn(dense_operator(mat), y, SolverConfig(delta=delta))
        assert rep.converged
        assert rep.feasibility_residual <= 1e-8 * max(1.0, float(np.linalg.norm(y)))

    @pytest.mark.parametrize("seed", [29, 217, 276])
    def test_stop_waits_for_feasibility(self, seed):
        # at these instances the fixed-point residual first reaches tol at an
        # iterate whose ||A a - y|| - delta (1.0e-8 to 1.9e-8) still exceeds
        # tol * max(1, ||y||), so a residual-only stop would end infeasible
        mat, y, delta, _ = random_bpdn_instance(seed)
        cfg = SolverConfig(delta=delta)
        rep = solve_bpdn(dense_operator(mat), y, cfg)
        assert rep.converged
        assert rep.feasibility_residual <= cfg.tol * max(1.0, float(np.linalg.norm(y)))


class TestOracle:
    def test_huge_delta_returns_zero(self, rng):
        mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = oracle_solve(mat, y, float(np.linalg.norm(y)) * 1.0)
        assert np.all(a == 0.0)

    def test_full_unitary_delta_zero(self, rng):
        mat = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = oracle_solve(mat, y, 0.0)
        assert np.max(np.abs(a - mat.conj().T @ y)) < 1e-6

    @pytest.mark.parametrize("seed", [3, 10, 12])
    def test_support_enumeration_agreement(self, seed):
        # instances chosen in the regime where the minimizer is <= 3-sparse
        rng = rng_from_seed(seed)
        dim, q = 8, 7
        mat = (rng.standard_normal((q, dim)) + 1j * rng.standard_normal((q, dim))) / math.sqrt(2 * q)
        truth = np.zeros(dim, dtype=complex)
        idx = rng.choice(dim, 2, replace=False)
        truth[idx] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        noise = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        noise *= 0.005 * np.linalg.norm(mat @ truth) / np.linalg.norm(noise)
        y = mat @ truth + noise
        delta = 1.2 * float(np.linalg.norm(noise))

        def support_solve(support):
            # epigraph form over x = (Re z, Im z, t): minimize sum t subject to
            # t^2 >= Re^2 + Im^2, t >= 0 and ||sub z - y|| <= delta
            sub = mat[:, support]
            s = len(support)

            def residual(x):
                return sub @ (x[:s] + 1j * x[s:2 * s]) - y

            def fidelity(x):
                r = residual(x)
                return delta**2 - float(np.real(np.vdot(r, r)))

            def fidelity_jac(x):
                g = sub.conj().T @ residual(x)
                return np.concatenate([-2.0 * g.real, -2.0 * g.imag, np.zeros(s)])

            def cone(x):
                u, v, t = x[:s], x[s:2 * s], x[2 * s:]
                return t**2 - u**2 - v**2

            def cone_jac(x):
                u, v, t = x[:s], x[s:2 * s], x[2 * s:]
                return np.hstack([np.diag(-2.0 * u), np.diag(-2.0 * v), np.diag(2.0 * t)])

            stacked = np.block([[sub.real, -sub.imag], [sub.imag, sub.real]])
            uv0, *_ = np.linalg.lstsq(stacked, np.concatenate([y.real, y.imag]), rcond=None)
            x0 = np.concatenate([uv0, np.hypot(uv0[:s], uv0[s:])])
            res = minimize(
                lambda x: float(np.sum(x[2 * s:])), x0,
                jac=lambda x: np.concatenate([np.zeros(2 * s), np.ones(s)]),
                constraints=[
                    {"type": "ineq", "fun": fidelity, "jac": fidelity_jac},
                    {"type": "ineq", "fun": cone, "jac": cone_jac},
                    {"type": "ineq", "fun": lambda x: x[2 * s:],
                     "jac": lambda x: np.hstack([np.zeros((s, 2 * s)), np.eye(s)])},
                ],
                method="SLSQP", options={"maxiter": 500, "ftol": 1e-14},
            )
            if not res.success or fidelity(res.x) < -1e-9:
                return np.inf, None
            coef = res.x[:s] + 1j * res.x[s:2 * s]
            return float(np.sum(np.abs(coef))), coef

        best_val, best_support, best_coef = np.inf, None, None
        for size in (1, 2, 3):
            for support in combinations(range(dim), size):
                val, coef = support_solve(list(support))
                if val < best_val:
                    best_val, best_support, best_coef = val, support, coef
        a = oracle_solve(mat, y, delta)
        assert np.sum(np.abs(a)) == pytest.approx(best_val, abs=1e-6)
        full = np.zeros(dim, dtype=complex)
        full[list(best_support)] = best_coef
        assert np.max(np.abs(a - full)) < 1e-4

    def test_dimension_guard(self, rng):
        mat = rng.standard_normal((70, 70))
        with pytest.raises(DomainError):
            oracle_solve(mat, np.ones(70), 0.1)

    def test_gap_certificate(self):
        mat, y, delta, _ = random_bpdn_instance(17)
        a, info = oracle_solve(mat, y, delta, return_info=True)
        # gap tolerance is relative on the ||y||-normalized instance
        scale = max(float(np.linalg.norm(y)), float(np.sum(np.abs(a))))
        assert info["gap"] <= 1e-9 * scale
        assert duality_gap(dense_operator(mat), y, delta, a) == pytest.approx(
            info["gap"], abs=1e-12 * scale
        )


def _null_vector(mat):
    """A unit vector v with mat @ v = 0 (mat has more columns than rows)."""
    assert mat.shape[0] < mat.shape[1]
    return np.linalg.svd(mat)[2][-1].conj()


class TestCheckKkt:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_fit_solution_certifies(self, seed):
        # delta = 0 certifies with the least-squares dual on the support, not
        # with the direction of a residual that the solver leaves at ~1e-9
        mat, y, _, _ = random_bpdn_instance(seed)
        op = dense_operator(mat)
        rep = solve_bpdn(op, y, SolverConfig(delta=0.0, tol=1e-9))
        assert rep.converged
        assert check_kkt(op, y, 0.0, rep.coefficients) <= 1e-7
        # a feasible step along the null space leaves the l1 minimizer
        bumped = rep.coefficients + 0.1 * _null_vector(mat)
        assert check_kkt(op, y, 0.0, bumped) > 0.1

    def test_exact_fit_torus_solution_certifies_on_full_spectrum(self):
        sample = draw_subset(8, 16, seed=3)
        half_op, full_op = make_torus_operator(sample), full_torus_operator(sample)
        y = np.ones(16)  # const1 at the sample
        rep = solve_bpdn(half_op, y, SolverConfig(delta=0.0))
        assert rep.converged
        expanded = half_op.expand(rep.coefficients)
        assert check_kkt(full_op, y, 0.0, expanded) <= 1e-7
        bumped = expanded + 0.1 * _null_vector(full_op.to_dense())
        assert check_kkt(full_op, y, 0.0, bumped) > 0.1

    def test_oracle_output_certifies(self):
        mat, y, delta, _ = random_bpdn_instance(21)
        a = oracle_solve(mat, y, delta)
        assert check_kkt(dense_operator(mat), y, delta, a) <= 1e-7

    def test_zero_candidate_with_big_delta(self, rng):
        mat = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        delta = float(np.linalg.norm(y)) * 2.0
        assert check_kkt(dense_operator(mat), y, delta, np.zeros(10, dtype=complex)) == 0.0

    def test_perturbed_candidate_flagged(self):
        mat, y, delta, _ = random_bpdn_instance(23)
        a = oracle_solve(mat, y, delta)
        bumped = a.copy()
        bumped[int(np.argmax(np.abs(a)))] += 0.1
        try:
            assert check_kkt(dense_operator(mat), y, delta, bumped) > 1e-3
        except InfeasibleCandidateError:
            pass  # the bump may push the candidate off the constraint set

    def test_infeasible_candidate_rejected(self):
        mat, y, delta, _ = random_bpdn_instance(29)
        huge = np.full(mat.shape[1], 100.0, dtype=complex)
        with pytest.raises(InfeasibleCandidateError):
            check_kkt(dense_operator(mat), y, delta, huge)


class TestRecoverTorus:
    def test_constant_exact_fit(self):
        rep = recover_torus(TORUS_BATTERY["const1"], 8, 0.1, seed=3, exact_fit=True)
        assert rep.rel_error <= 1e-8
        assert rep.setting == "torus"
        assert rep.budget == pytest.approx(1.147)

    def test_constant_partial_observations_exact_fit(self):
        for seed in spawn_seeds(88, 5):
            rep = recover_torus(
                TORUS_BATTERY["const1"], 8, 0.1, seed=seed, c_univ=0.007, exact_fit=True,
            )
            assert rep.sample_size == 16
            assert rep.rel_error <= 1e-6

    def test_uncertified_requires_override(self):
        with pytest.raises(CertificationError):
            recover_torus(TORUS_BATTERY["cc_half"], 64, 0.1, seed=1)

    def test_cc_half_within_budget(self):
        rep = recover_torus(
            TORUS_BATTERY["cc_half"], 64, 0.1, seed=7, c_univ=2**-6,
            allow_uncertified=True,
        )
        assert rep.rel_error <= rep.budget
        assert rep.sample_size <= 64 * 64

    def test_ratio_bound_clamps_to_full_grid(self):
        rep = recover_torus(
            TORUS_BATTERY["cc_half"], 16, 0.1, seed=7, ratio_source="bound",
            allow_uncertified=True,
        )
        assert rep.clamped
        assert rep.sample_size == 256
        # full observation with slack delta: error bounded by eps
        assert rep.rel_error <= 0.1 + 1e-6

    def test_csv_fields_schema(self):
        rep = recover_torus(TORUS_BATTERY["const1"], 8, 0.1, seed=3, exact_fit=True)
        fields = recovery_csv_fields(rep)
        assert len(fields) == len(RECOVERY_HEADER)
        assert fields[0] == "torus"
        assert fields[-1] in ("true", "false")
        rep = recover_sphere(
            build_sphere_battery(1)["y00"], 0.1, seed=5, c_univ=0.005, ratio_source="measured",
            exact_fit=True,
        )
        assert rep.sample_size == 4
        fields = recovery_csv_fields(rep)
        assert len(fields) == len(RECOVERY_HEADER)
        assert fields[0] == "sphere"
        assert rep.norm_provenance == ""


class TestSharedScoring:
    """Both recover_* measure, set delta and score in one place; check it against the field."""

    @staticmethod
    def _spy_solves(monkeypatch):
        calls = []

        def spy(op, y, cfg):
            calls.append((y, cfg.delta))
            return solve_bpdn(op, y, cfg)

        monkeypatch.setattr(solver, "solve_bpdn", spy)
        return calls

    def test_torus_cc_half(self, monkeypatch):
        side, f = 16, TORUS_BATTERY["cc_half"]
        calls = self._spy_solves(monkeypatch)
        rep = recover_torus(f, side, 0.1, seed=7, c_univ=2**-6, allow_uncertified=True)
        [(y, delta)] = calls
        assert not rep.clamped and rep.coefficients.shape == (side * side,)
        # scored as the benchmark rechecks it: the inverse DFT of the full
        # spectrum against the evaluator
        u = np.arange(side) / side
        truth = f.evaluator(*np.meshgrid(u, u, indexing="ij"))
        field = np.fft.ifftn(rep.coefficients.reshape(side, side)) * side
        rel = np.linalg.norm(field.real - truth) / np.linalg.norm(truth)
        assert rep.rel_error == pytest.approx(rel, rel=1e-12)
        # measured at the field's values on the sample
        g = discretize(f, side).ravel()
        want = g[draw_subset(side, rep.sample_size, rep.seed).flat]
        assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)
        assert delta == pytest.approx(0.1 * np.linalg.norm(g), rel=1e-13)

    def test_sphere_mix5(self, monkeypatch):
        signal = build_sphere_battery(8)["mix5"]
        calls = self._spy_solves(monkeypatch)
        rep = recover_sphere(signal, 0.1, seed=11, c_univ=2**-6)
        [(y, delta)] = calls
        rel = np.linalg.norm(rep.coefficients.real - signal.coeffs) / np.linalg.norm(signal.coeffs)
        assert rep.rel_error == pytest.approx(rel, rel=1e-12)
        points = draw_sphere_points(rep.sample_size, rep.seed)
        want = synthesize(signal, points.theta, points.phi)
        assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)
        assert delta == pytest.approx(0.1 * np.linalg.norm(signal.coeffs), rel=1e-13)


class TestRecoverSphere:
    def test_y00_four_points_exact_fit(self):
        bat = build_sphere_battery(1)
        rep = recover_sphere(bat["y00"], 0.1, seed=5, c_univ=0.005, exact_fit=True)
        assert rep.sample_size == 4
        assert rep.rel_error <= 1e-8

    def test_mix5_within_budget(self):
        bat = build_sphere_battery(8)
        rep = recover_sphere(bat["mix5"], 0.1, seed=11, c_univ=2**-6)
        assert rep.rel_error <= rep.budget

    def test_q_max_refusal(self):
        bat = build_sphere_battery(8)
        # c_univ = 16 asks for 270,641 points at the measured ratio
        with pytest.raises(DomainError, match=f"exceeds configured q_max={Q_MAX}"):
            recover_sphere(bat["mix5"], 0.1, seed=1, c_univ=16.0)

    def test_monotone_error_in_sample_size(self):
        bat = build_sphere_battery(8)
        medians = []
        for c_univ in (2**-8, 2**-7, 2**-6, 2**-5):
            errs = [
                recover_sphere(bat["mix5"], 0.1, seed=s, c_univ=c_univ).rel_error
                for s in spawn_seeds(404, 6)
            ]
            medians.append(float(np.median(errs)))
        inversions = sum(b > a + 1e-12 for a, b in zip(medians, medians[1:]))
        assert inversions <= 1
