import ast
import copy
import dataclasses
import inspect
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
)
from frkit.sampling import draw_sphere_points, draw_subset, rng_from_seed, spawn_seeds
from frkit.solver import (
    ERROR_BUDGET_FACTOR,
    BASIS_ENTRIES_MAX,
    MeasurementOperator,
    SolverConfig,
    certify,
    make_sphere_operator,
    make_torus_operator,
    recover_sphere,
    recover_torus,
    solve_bpdn,
    _soft_threshold,
)
from frkit.spectral import forward_dft, inverse_dft
from frkit.sphere import basis_matrix, synthesize
from frkit.torus import discretize
import frkit.solver as solver
from bpdn_oracle import oracle_solve
from conftest import counting_operator, dense_operator, random_bpdn_instance
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
        mat = dense_torus_matrix(sample)
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
        # random vectors never come near ||A||, so the bound is bracketed by
        # the exact norm. The Lanczos estimate alone stays below ||A||, and
        # the margin is not a certificate: on a start vector nearly orthogonal
        # to the top eigenvector the bound falls below ||A|| (ROADMAP item 2)
        for bandwidth in (4, 8, 16, 32):
            dim = (bandwidth + 1) ** 2
            for q in (dim // 2, 3 * dim // 2):
                for seed in (1, 2, 3):
                    pts = draw_sphere_points(q, seed=seed)
                    op = make_sphere_operator(pts, bandwidth)
                    exact = _exact_norm(basis_matrix(bandwidth, pts.theta, pts.phi))
                    assert exact <= op.norm_bound <= 1.03 * exact, (bandwidth, q, seed)

    def test_sphere_real_matvec_matches_complex_product(self, rng):
        pts = draw_sphere_points(700, seed=12)
        op = make_sphere_operator(pts, 6)
        mat = basis_matrix(6, pts.theta, pts.phi)
        for _ in range(5):
            a = rng.standard_normal(49) + 1j * rng.standard_normal(49)
            y = rng.standard_normal(700) + 1j * rng.standard_normal(700)
            want_fwd, want_adj = mat @ a, mat.T @ y
            assert np.max(np.abs(op.forward(a) - want_fwd)) <= 1e-13 * np.max(np.abs(want_fwd))
            assert np.max(np.abs(op.adjoint(y) - want_adj)) <= 1e-13 * np.max(np.abs(want_adj))

    def test_sphere_forward_over_nonzeros_matches_dense(self, rng):
        # the forward product reads only the rows of a's nonzeros; every
        # support shape must give the full product
        pts = draw_sphere_points(120, seed=13)
        op, mat = make_sphere_operator(pts, 6), basis_matrix(6, pts.theta, pts.phi)
        zero = np.zeros(49)
        assert np.array_equal(op.forward(zero), np.zeros(120))
        one = zero.copy()
        one[17] = -0.75
        few = zero.copy()
        few[[0, 5, 23, 48]] = [1.5, -2.0, 0.25, -0.5]
        mixed = few.astype(complex)
        mixed[[5, 30]] = [0.5 - 1.25j, -2j]
        dense = rng.standard_normal(49)
        for a in (one, few, mixed, dense):
            want = mat @ a
            got = op.forward(a)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_sphere_normal_matches_dense(self, rng):
        pts = draw_sphere_points(120, seed=13)
        op, mat = make_sphere_operator(pts, 6), basis_matrix(6, pts.theta, pts.phi)
        zero = np.zeros(49)
        assert np.array_equal(op.normal(zero, np.flatnonzero(zero)), zero)
        assert op.normal.built == 0  # a zero iterate builds no Gram row
        one = zero.copy()
        one[17] = -0.75
        few = zero.copy()
        few[[0, 5, 23, 48]] = [1.5, -2.0, 0.25, -0.5]
        mixed = few.astype(complex)
        mixed[[5, 30]] = [0.5 - 1.25j, -2j]
        dense = rng.standard_normal(49)
        for a, built in ((one, 1), (few, 5), (mixed, 6), (dense, 49)):
            want = mat.T @ (mat @ a)
            got = op.normal(a, np.flatnonzero(a))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert op.normal.built == built

    def test_sphere_normal_reuses_rows_as_supports_grow(self, rng):
        # supports that overlap and then grow: each Gram row is built once, at
        # the first call whose support holds it, and read again after that
        pts = draw_sphere_points(90, seed=14)
        op, mat = make_sphere_operator(pts, 5), basis_matrix(5, pts.theta, pts.phi)
        supports = ([3, 10], [10, 20], [3, 10], [3, 10, 20, 35], [0, 35], list(range(0, 36, 2)))
        built = set()
        for support in supports:
            a = np.zeros(36)
            a[support] = rng.standard_normal(len(support))
            want = mat.T @ (mat @ a)
            got = op.normal(a, np.flatnonzero(a))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            built.update(support)
            assert op.normal.built == len(built)
            assert sorted(np.flatnonzero(op.normal.slot >= 0)) == sorted(built)


def _exact_norm(mat):
    """||mat||_2 from eigvalsh of the smaller of its two Gram matrices."""
    gram = mat.T @ mat if mat.shape[1] <= mat.shape[0] else mat @ mat.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


@pytest.mark.parametrize("bound", [-1.0, math.nan, math.inf])
def test_operator_refuses_a_bad_norm_bound(bound):
    # unchecked, -1 and NaN ran max_iter iterations to NaN coefficients and inf
    # raised a ZeroDivisionError; 0 stays legal, the zero matrix's exact bound
    with pytest.raises(DomainError, match="norm bound"):
        dense_operator(np.eye(4), norm_bound=bound)


@pytest.mark.parametrize("bound", [-1.0, math.nan, math.inf])
def test_callable_norm_bound_is_checked_at_its_first_read(bound):
    # a callable bound is kept unevaluated until norm_bound is read, and
    # then checked as a float bound is at construction
    calls = []

    def estimate():
        calls.append(1)
        return bound

    op = MeasurementOperator(lambda a, nz: a, np.conj, shape=(4, 4), norm_bound=estimate)
    assert not calls
    with pytest.raises(DomainError, match="norm bound"):
        op.norm_bound
    assert calls == [1]


def test_callable_norm_bound_runs_once():
    calls = []

    def estimate():
        calls.append(1)
        return 2.5

    op = MeasurementOperator(lambda a, nz: a, np.conj, shape=(4, 4), norm_bound=estimate)
    assert (op.norm_bound, op.norm_bound, calls) == (2.5, 2.5, [1])


@pytest.mark.parametrize("problem", ["start", "loop"])
def test_sphere_solves_do_not_depend_on_a_norm_read(problem):
    # two solves on one operator, with and without norm_bound read first,
    # are bitwise equal: the kept estimate and the Gram rows built by the
    # first solve leave the second unchanged
    def solves(read_first):
        if problem == "start":  # ends at the start, never reading the bound
            op, y, delta = _sphere_bpdn_instance()
            cfg = SolverConfig(delta=delta)
        else:  # a fit to noise, which iterates
            op, y, cfg = _noise_sphere_problem(1)
        if read_first:
            assert op.norm_bound > 0.0
        return [solve_bpdn(op, y, cfg) for _ in range(2)]

    runs = solves(False) + solves(True)
    assert (runs[0].iterations == 0) == (problem == "start")
    for run in runs[1:]:
        assert dataclasses.astuple(run)[1:] == dataclasses.astuple(runs[0])[1:]
        assert run.coefficients.tobytes() == runs[0].coefficients.tobytes()


class TestLanczosNormBound:
    def test_at_most_lanczos_steps_products(self):
        op = counting_operator(dense_operator(rng_from_seed(21).standard_normal((70, 50))))
        bound = solver.lanczos_norm_bound(op.forward, op.adjoint, 50)
        assert op.calls["forward"] <= solver.LANCZOS_STEPS
        assert op.calls["adjoint"] <= solver.LANCZOS_STEPS
        assert op.norm_bound < bound <= solver.NORM_MARGIN * op.norm_bound * (1 + 1e-12)

    @pytest.mark.parametrize("case", ["l1", "l2", "one_point", "zero"])
    def test_small_and_degenerate_operators_are_exact(self, case):
        # fewer coefficients than steps, rank one, and the zero matrix: the
        # Krylov space turns invariant before LANCZOS_STEPS, the run stops
        # there, and the tridiagonal holds the exact top eigenvalue
        if case == "zero":
            mat = np.zeros((30, 40))
        else:
            bandwidth, q = {"l1": (1, 40), "l2": (2, 40), "one_point": (8, 1)}[case]
            pts = draw_sphere_points(q, seed=5)
            mat = basis_matrix(bandwidth, pts.theta, pts.phi)
        op = counting_operator(dense_operator(mat))
        bound = solver.lanczos_norm_bound(op.forward, op.adjoint, mat.shape[1])
        want = solver.NORM_MARGIN * op.norm_bound
        assert abs(bound - want) <= 1e-12 * max(want, 1.0)
        assert op.calls["forward"] <= min(mat.shape[1], solver.LANCZOS_STEPS)


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
        assert np.max(np.abs(op.forward(a) - dense @ solver._hermitian_full(a, side))) <= 1e-12
        y = rng.standard_normal(len(sample))
        adj = solver._hermitian_full(op.adjoint(y), side)
        assert np.max(np.abs(adj - dense.conj().T @ y)) <= 1e-12

    @pytest.mark.parametrize("side", [8, 9, 64])
    def test_sparse_forward_matches_dense_reference(self, side, monkeypatch):
        # forward sums over a's nonzeros while nnz |X| <= TORUS_SPARSE_FORWARD_MAX N^2
        # and takes irfftn above; both must give the dense product with the
        # expanded spectrum, for nonzeros in every kind of column
        sample = draw_subset(side, side * side // 2 if side < 64 else 200, seed=side)
        op, dense = make_torus_operator(sample), dense_torus_matrix(sample)
        irfftn, irfftn_calls = np.fft.irfftn, []

        def counted_irfftn(*args, **kwargs):
            irfftn_calls.append(1)
            return irfftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfftn", counted_irfftn)
        half = side // 2 + 1
        rng = rng_from_seed(side)
        crossover = solver.TORUS_SPARSE_FORWARD_MAX * side * side / len(sample)
        columns = {"zero": [0], "interior": list(range(1, (side + 1) // 2))}
        if side % 2 == 0:
            columns["half"] = [side // 2]
        supports = [[(k1, col)] for cols in columns.values() for col in cols[:2] for k1 in (0, 3)]
        supports.append([(1, 0), (2, 1), (side - 1, half - 1), (side // 2, 2)])
        full_positions = [(k1, k2) for k1 in range(side) for k2 in range(half)]
        for many in (max(1, int(crossover) // 3), int(crossover) + 3, 3 * side):
            picks = rng.choice(len(full_positions), size=min(many, len(full_positions)), replace=False)
            supports.append([full_positions[i] for i in picks])
        for support in supports:
            # a Hermitian spectrum on support and its mirror, cut to the half
            spec = np.zeros((side, side), dtype=complex)
            for k1, k2 in support:
                value = complex(rng.standard_normal(), rng.standard_normal())
                if (-k1 % side, -k2 % side) == (k1, k2):
                    value = value.real
                spec[k1, k2] = value
                spec[-k1 % side, -k2 % side] = np.conj(value)
            a = spec[:, :half].ravel()
            irfftn_calls.clear()
            got = op.forward(a)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - dense @ solver._hermitian_full(a, side))) <= 1e-12
            assert bool(irfftn_calls) == (np.count_nonzero(a) > crossover)
        assert irfftn_calls  # the last support lies above the crossover

    @pytest.mark.parametrize("side", [8, 9, 64, 256])
    def test_adjoint_reuses_one_zero_embedding(self, side, rng):
        # the adjoint writes the sample positions of one embedding per
        # operator, and must still equal rfftn of a fresh zero embedding and
        # hand out a fresh array on every call
        sample = draw_subset(side, max(1, side * side // 20), seed=side)
        op = make_torus_operator(sample)
        y1, y2 = rng.standard_normal((2, len(sample)))
        first = op.adjoint(y1)
        kept = first.copy()
        second = op.adjoint(y2)
        for y, got in ((y1, kept), (y2, second)):
            emb = np.zeros(side * side)
            emb[sample.flat] = y / side
            assert np.array_equal(got, np.fft.rfftn(emb.reshape(side, side)).ravel())
        assert np.array_equal(first, kept) and not np.shares_memory(first, second)
        # rfftn of a zero field is exactly zero, so this holds only if the
        # embedding is zero off the sample positions
        assert not np.any(op.adjoint(np.zeros(len(sample))))

    @pytest.mark.parametrize("side", [8, 9])
    def test_matches_full_spectrum_solve(self, side):
        sample, y, delta = _real_bpdn_instance(side, seed=side)
        cfg = SolverConfig(delta=delta)
        full = solve_bpdn(full_torus_operator(sample), y, cfg)
        half_op = make_torus_operator(sample)
        half = solve_bpdn(half_op, y, cfg)
        assert (half.iterations, half.converged) == (full.iterations, full.converged)
        expanded = solver._hermitian_full(half.coefficients, side)
        assert np.max(np.abs(expanded - full.coefficients)) <= 1e-10
        assert half.objective == pytest.approx(full.objective, rel=1e-12)
        field = np.fft.ifftn(expanded.reshape(side, side))
        assert np.linalg.norm(field.imag) <= 1e-12 * np.linalg.norm(field)

    @pytest.mark.parametrize("side", [8, 9])
    def test_expanded_solution_passes_full_kkt(self, side):
        # the half-spectrum certificate is the full spectrum's, at delta > 0
        # from the residual direction and at delta = 0 from the support's
        # least squares, weighted by the coefficients' multiplicities
        sample, y, radius = _real_bpdn_instance(side, seed=side + 1)
        half_op, full_op = make_torus_operator(sample), full_torus_operator(sample)
        for delta in (radius, 0.0):
            rep = solve_bpdn(half_op, y, SolverConfig(delta=delta, tol=1e-10))
            assert rep.converged
            half = certify(half_op, y, delta, rep.coefficients)
            full = certify(full_op, y, delta, solver._hermitian_full(rep.coefficients, side))
            assert full.kkt <= 1e-6
            assert half.kkt == pytest.approx(full.kkt, abs=1e-12)
            assert half.gap == pytest.approx(full.gap, abs=1e-12 * rep.objective)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_exact_fit_recovery_certifies_on_half_spectrum(self, seed):
        f, side = TORUS_BATTERY["cc_half"], 64
        rep = recover_torus(
            f, side, 0.1, seed, c_univ=2**-8, exact_fit=True, allow_uncertified=True
        )
        op = make_torus_operator(draw_subset(side, rep.sample_size, seed))
        half = side // 2 + 1
        y = op.forward(forward_dft(discretize(f, side))[:, :half].ravel())
        cert = certify(op, y, 0.0, rep.coefficients.reshape(side, side)[:, :half].ravel())
        assert cert.kkt <= 1e-7
        assert abs(cert.gap) <= 1e-7 * rep.objective

    def test_no_dense_form_and_real_data_only(self):
        op = make_torus_operator(draw_subset(4, 9, seed=8))
        with pytest.raises(DataError, match="real measurements"):
            solve_bpdn(op, np.full(9, 1j), SolverConfig(delta=0.0))


class _Captured(Exception):
    pass


def _trial_problem(recover, *args, **kwargs):
    """The operator, measurements and config of the one solve that recover makes."""
    captured = []

    def capture(op, y, cfg):
        captured.append((op, y, cfg))
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "solve_bpdn", capture)
        with pytest.raises(_Captured):
            recover(*args, **kwargs)
    return captured[0]


def _sphere_trial_problem(fn, bandwidth, seed):
    """recover_sphere's problem at eps 0.1, C = 2^-6."""
    return _trial_problem(recover_sphere, build_sphere_battery(bandwidth)[fn], 0.1, seed,
                          c_univ=2**-6)


def _torus_trial_problem(seed):
    """recover_torus's problem on cc_half at N = 64, eps 0.1, C = 2^-8."""
    return _trial_problem(recover_torus, TORUS_BATTERY["cc_half"], 64, 0.1, seed, c_univ=2**-8,
                          allow_uncertified=True)


def _loop_checks(op, y, cfg):
    """Every check _pdhg yields on solve_bpdn's problem: the loop alone, without the polish.

    Each is (a+, its support, ||A a+ - y|| - delta, iterations, converged,
    restarts, primal weight).
    """
    y = op.measurements(y)
    return list(solver._pdhg(op, y, cfg, None if op.normal is None else op.adjoint(y)))


def _flat_torus_problem(side, size, seed):
    """Eight equal cosines on Z_side^2, sampled at size points, with a 10% radius.

    OMP cuts the residual of a flat spectrum slowly (sqrt(6/7) at its second
    step), so solve_bpdn's start is refused, and the loop's first polish
    attempt is accepted: at 20 iterations for (32, 200) and 35-40 for
    (64, 200), seeds 1-4.
    """
    u = np.arange(side) / side
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    freqs = [(1, 2), (3, 5), (7, 1), (4, 9), (10, 3), (2, 12), (6, 6), (13, 4)]
    field = sum(np.cos(2 * np.pi * (k1 * u1 + k2 * u2)) for k1, k2 in freqs)
    op = make_torus_operator(draw_subset(side, size, seed))
    y = op.forward(forward_dft(field)[:, :side // 2 + 1].ravel())
    return op, y, SolverConfig(delta=0.1 * float(np.linalg.norm(y)))


def _noise_sphere_problem(seed, points=40):
    """Gaussian noise at points sphere points, L = 6 (49 coefficients), with a 10% radius.

    No sparse point fits noise, so solve_bpdn's start is refused and the loop
    iterates: 200, 2,160 and 820 iterations at seeds 1-3 for 40 points, and
    45, 815 and 100 for 30.
    """
    op = make_sphere_operator(draw_sphere_points(points, seed), 6)
    y = rng_from_seed(seed).standard_normal(points)
    return op, y, SolverConfig(delta=0.1 * float(np.linalg.norm(y)))


class TestRestarts:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_restarts_cut_iterations_on_torus(self, seed):
        # without restarts these trials do not reach tol in 50,000 iterations;
        # with them the loop takes 190-240
        problem = _torus_trial_problem(seed)
        *_, (_, _, _, iterations, converged, restarts, _) = _loop_checks(*problem)
        assert converged
        assert restarts >= 1
        assert iterations <= 400

    def test_restarted_half_spectrum_solve_reaches_minimizer(self):
        sample, y, delta = _real_bpdn_instance(8, seed=5)
        half_op, full_op = make_torus_operator(sample), full_torus_operator(sample)
        rep = solve_bpdn(half_op, y, SolverConfig(delta=delta, tol=1e-10))
        assert rep.converged and rep.restarts > 0
        expanded = solver._hermitian_full(rep.coefficients, 8)
        assert certify(full_op, y, delta, expanded).kkt <= 1e-6
        a_oracle = oracle_solve(dense_torus_matrix(sample), y, delta)
        assert np.max(np.abs(expanded - a_oracle)) <= 1e-6

    @pytest.mark.parametrize("seed", [1, 2])
    def test_torus_solve_matches_plain_fft_forward(self, seed, monkeypatch):
        # the sparse forward changes how A a is summed, not the iteration:
        # the solves, which end at the start, and the loops alone end alike
        def plain_fft_operator(sample):
            op = make_torus_operator(sample)
            side, flat = sample.side, sample.flat

            def forward(a, nz):
                fld = np.fft.irfftn(a.reshape(side, side // 2 + 1), s=(side, side), axes=(0, 1))
                return fld.ravel()[flat] * side

            return MeasurementOperator(
                forward, op.adjoint, shape=op.shape, norm_bound=op.norm_bound, weights=op.weights,
            )

        def solve():
            return recover_torus(
                TORUS_BATTERY["cc_half"], 64, 0.1, seed, c_univ=2**-8, allow_uncertified=True
            )

        sparse, sparse_loop = solve(), _loop_checks(*_torus_trial_problem(seed))[-1]
        monkeypatch.setattr(solver, "make_torus_operator", plain_fft_operator)
        plain, plain_loop = solve(), _loop_checks(*_torus_trial_problem(seed))[-1]
        assert sparse.converged
        assert (sparse.iterations, sparse.restarts) == (plain.iterations, plain.restarts)
        assert np.max(np.abs(sparse.coefficients - plain.coefficients)) <= 1e-12
        (a, _, _, iterations, converged, restarts, _) = sparse_loop
        assert converged and iterations > solver.CHECK_EVERY
        assert (iterations, restarts) == (plain_loop[3], plain_loop[5])
        assert np.max(np.abs(a - plain_loop[0])) <= 1e-12

    @pytest.mark.parametrize("exact_fit", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_sphere_solve_matches_adjoint_path(self, seed, exact_fit, monkeypatch):
        # the normal product changes how A^H z is summed, not the iteration:
        # the solves (the noisy ones end at the start) and the loops alone
        # end alike
        make = solver.make_sphere_operator

        def adjoint_operator(points, bandwidth):
            op = copy.copy(make(points, bandwidth))
            op.normal = None
            return op

        signal = build_sphere_battery(16)["gauss_heat"]

        def solve():
            problem = _trial_problem(recover_sphere, signal, 0.1, seed, c_univ=2**-6,
                                     exact_fit=exact_fit)
            return (recover_sphere(signal, 0.1, seed, c_univ=2**-6, exact_fit=exact_fit),
                    _loop_checks(*problem)[-1])

        gram, gram_loop = solve()
        monkeypatch.setattr(solver, "make_sphere_operator", adjoint_operator)
        plain, plain_loop = solve()
        assert (gram.iterations, gram.restarts) == (plain.iterations, plain.restarts)
        assert np.max(np.abs(gram.coefficients - plain.coefficients)) <= 1e-12
        (a, _, _, iterations, _, restarts, _) = gram_loop
        assert iterations > solver.CHECK_EVERY and restarts > 0
        assert (iterations, restarts) == (plain_loop[3], plain_loop[5])
        assert np.max(np.abs(a - plain_loop[0])) <= 1e-12

    def test_real_sphere_path_matches_complex_reference(self, rng):
        pts = draw_sphere_points(120, seed=31)
        op, mat = make_sphere_operator(pts, 6), basis_matrix(6, pts.theta, pts.phi)
        assert op.dtype == np.float64 and mat.dtype == np.float64
        truth = np.zeros(mat.shape[1])
        truth[[0, 5, 17, 30]] = rng.standard_normal(4)
        noise = 0.01 * rng.standard_normal(mat.shape[0])
        y = mat @ truth + noise
        cfg = SolverConfig(delta=1.2 * float(np.linalg.norm(noise)))
        ref_op = dense_operator(mat, norm_bound=op.norm_bound)
        real, ref = solve_bpdn(op, y, cfg), solve_bpdn(ref_op, y, cfg)
        assert real.coefficients.dtype == np.float64
        assert real.converged
        assert (real.iterations, real.converged, real.restarts) == (
            ref.iterations, ref.converged, ref.restarts
        )
        assert np.max(np.abs(real.coefficients - ref.coefficients)) <= 1e-12
        # the solves end at the start; the loops alone restart and end alike
        (a, _, _, iterations, converged, restarts, _) = _loop_checks(op, y, cfg)[-1]
        (a_ref, _, _, *ref_rest) = _loop_checks(ref_op, y, cfg)[-1]
        assert a.dtype == np.float64 and converged and restarts > 0
        assert [iterations, converged, restarts] == [ref_rest[0], ref_rest[1], ref_rest[2]]
        assert np.max(np.abs(a - a_ref)) <= 1e-12

    def test_real_operator_takes_real_data_only(self):
        op = make_sphere_operator(draw_sphere_points(20, seed=3), 2)
        with pytest.raises(DataError, match="real measurements"):
            solve_bpdn(op, np.full(20, 1j), SolverConfig(delta=0.0))
        with pytest.raises(DataError, match="real coefficients"):
            certify(op, np.ones(20), 10.0, np.full(9, 1j))


class TestPrimalWeight:
    @pytest.mark.parametrize("seed", range(6))
    def test_sphere_solve_balances_steps(self, seed):
        # with sigma = tau the loop takes 805-925 iterations on these trials;
        # the support polish ends their solves before the weight has climbed,
        # so this runs the loop alone
        *_, (_, _, _, iterations, converged, _, weight) = _loop_checks(
            *_sphere_trial_problem("gauss_heat", 16, seed))
        assert converged
        assert iterations <= 300
        assert weight > 1.0

    def test_dense_instances_converge_fast(self):
        # with sigma = tau seed 1 takes 48,305 iterations
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
        # stays 0 through the first restarts, so the weight has no estimate.
        # The loop alone: solve_bpdn's start ends this solve at 0 iterations
        mat, y, _, _ = random_bpdn_instance(3)
        y = 1e-3 * y
        cfg = SolverConfig(delta=0.999 * float(np.linalg.norm(y)), max_iter=100)
        (a, _, _, _, _, restarts, weight) = _loop_checks(dense_operator(mat), y, cfg)[-1]
        assert restarts >= 1 and not np.any(a)
        assert weight == 1.0


class TestPdhgLoop:
    """_pdhg alone: when it yields, what it multiplies, and what it does not know."""

    @staticmethod
    def _problems():
        mat, y, delta, _ = random_bpdn_instance(7)
        return {"torus": _torus_trial_problem(1),
                "sphere": _sphere_trial_problem("gauss_heat", 16, 1),
                "complex": (dense_operator(mat), y, SolverConfig(delta=delta))}

    @pytest.mark.parametrize("max_iter", [50_000, 12, 5, 1])
    def test_yields_at_checks_and_ends_at_the_last(self, max_iter):
        for setting, (op, y, cfg) in self._problems().items():
            checks = _loop_checks(op, y, dataclasses.replace(cfg, max_iter=max_iter))
            its = [it for _, _, _, it, _, _, _ in checks]
            done = [converged for _, _, _, _, converged, _, _ in checks]
            last = its[-1]
            assert its[:-1] == list(range(solver.CHECK_EVERY, last, solver.CHECK_EVERY)), setting
            assert last % solver.CHECK_EVERY == 0 or last == max_iter, setting
            assert done[-1] or last == max_iter, setting
            assert not any(done[:-1]), setting
            if max_iter == 50_000:
                assert done[-1] and last > solver.CHECK_EVERY, setting

    @pytest.mark.parametrize("setting, seed", [("torus", 1), ("torus", 2), ("torus", 3),
                                               ("torus", 4), ("sphere", 1)])
    def test_one_product_pair_per_iteration(self, setting, seed):
        # each step makes one forward and one adjoint (torus) or normal (sphere)
        # product; a check makes none, so at every check the counts equal the
        # iterations, and the sphere loop takes no adjoint once b is given
        if setting == "torus":
            op, y, cfg = _torus_trial_problem(seed)
        else:
            op, y, cfg = _sphere_trial_problem("gauss_heat", 16, seed)
        y = op.measurements(y)
        b = None if op.normal is None else op.adjoint(y)
        counted = counting_operator(op)

        def made(it):
            if setting == "torus":
                return {"forward": it, "adjoint": it}
            return {"forward": it, "adjoint": 0, "normal": it}

        for _, _, _, it, converged, _, _ in solver._pdhg(counted, y, cfg, b):
            assert counted.calls == made(it)
        assert converged and it > 100
        assert counted.calls == made(it)

    def test_loop_names_no_polish_state(self):
        # the loop only iterates: the polish, its certificate and its tried
        # supports belong to the driver, and the norm bound to the loop alone
        def names(fn):
            tree = ast.parse(inspect.getsource(fn))
            return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                    | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})

        loop, driver = names(solver._pdhg), names(solver.solve_bpdn)
        assert not loop & {"_polish", "_certify", "tried", "_support_point", "_largest_violator"}
        assert "norm_bound" in loop and "norm_bound" not in driver
        assert {"_pdhg", "_polish", "tried"} <= driver


def test_soft_threshold_matches_where_form_bitwise(rng):
    t = 0.7
    x = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    edge = np.array([0.0, -0.0, t, -t, 1j * t, -1j * t, 0.6 * t - 0.8j * t, 1e-300])
    x = np.concatenate([x, edge.astype(complex)])
    mags = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        old = x * np.where(mags > t, 1.0 - t / np.where(mags > 0, mags, 1.0), 0.0)
    assert np.array_equal(_soft_threshold(x, t)[0].view(np.int64), old.view(np.int64))


def _thresholded(rng, dim, nnz, complex_=True):
    """_soft_threshold of a random vector at the threshold that leaves nnz nonzeros."""
    u = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if complex_ else 0.0)
    t = float(np.sort(np.abs(u))[dim - nnz - 1])
    return _soft_threshold(u, t)


class TestSupportHandOff:
    def test_forward_hands_its_closure_the_support(self, rng):
        # the closure always gets the support: forward(a) finds it, and
        # forward(a, nz) hands nz through untouched
        seen = []

        def closure(a, nz):
            seen.append(nz)
            return a[nz]

        op = MeasurementOperator(closure, np.conj, shape=(6, 6), norm_bound=1.0)
        for nnz in (0, 1, 4):
            a, nz = _thresholded(rng, 6, nnz)
            seen.clear()
            op.forward(a)
            op.forward(a, nz)
            assert seen[0] is not None and np.array_equal(seen[0], np.flatnonzero(a))
            assert seen[1] is nz

    def test_soft_threshold_support_is_flatnonzero(self, rng):
        for dim, nnz in ((1, 0), (50, 0), (50, 1), (50, 17), (4000, 3), (4000, 3999)):
            for complex_ in (True, False):
                a, nz = _thresholded(rng, dim, nnz, complex_)
                assert nz.dtype == np.intp
                assert np.array_equal(nz, np.flatnonzero(a)) and nz.size == nnz
        # exact zeros, entries at and just above the threshold, subnormals
        x = np.array([0.0, -0.0, 0.7, -0.7j, 0.7 + 1e-16, 2.0, -2j, 5e-324, 3e-323j])
        for t in (0.7, 2e-323):
            a, nz = _soft_threshold(x.astype(complex), t)
            assert np.array_equal(nz, np.flatnonzero(a))

    @pytest.mark.parametrize("side", [8, 9, 64])
    def test_torus_forward_with_support_is_bitwise(self, side, rng):
        # on both sides of the crossover to the inverse FFT
        sample = draw_subset(side, side * side // 2 if side < 64 else 200, seed=side)
        op = make_torus_operator(sample)
        crossover = int(solver.TORUS_SPARSE_FORWARD_MAX * side * side / len(sample))
        for nnz in (0, 1, max(1, crossover // 2), crossover + 1, op.shape[1] // 2):
            a, nz = _thresholded(rng, op.shape[1], nnz)
            assert np.array_equal(op.forward(a, nz), op.forward(a))

    def test_sphere_forward_and_normal_with_support_are_bitwise(self, rng):
        op = make_sphere_operator(draw_sphere_points(120, seed=13), 6)
        for nnz in (0, 1, 4, 20, 48):
            a, nz = _thresholded(rng, op.shape[1], nnz, complex_=False)
            assert np.array_equal(op.forward(a, nz), op.forward(a))
            # Gram rows are built by the first call and read by the second
            assert np.array_equal(op.normal(a, np.flatnonzero(a)), op.normal(a, nz))


def _sphere_bpdn_instance():
    """A 4-sparse real truth at L = 6, 1% noise on 120 points and a feasible radius."""
    op = make_sphere_operator(draw_sphere_points(120, seed=31), 6)
    truth = np.zeros(op.shape[1])
    truth[[0, 5, 17, 30]] = [1.0, -0.5, 0.8, 0.3]
    noise = 0.01 * rng_from_seed(32).standard_normal(op.shape[0])
    return op, op.forward(truth) + noise, 1.2 * float(np.linalg.norm(noise))


def _spy_polish(monkeypatch, counted=None):
    """(support size, products made, accepted, violator calls) of every support polish from here on.

    The violator calls are those of _largest_violator within the attempt:
    at most one per grown support, plus one that found none.
    """
    attempts, calls = [], []
    polish, violator = solver._polish, solver._largest_violator

    def spy_violator(*args):
        calls.append(1)
        return violator(*args)

    def spy(op, y, delta, a, support, *rest):
        calls.clear()
        before = sum(counted.calls.values()) if counted else 0
        out = polish(op, y, delta, a, support, *rest)
        made = sum(counted.calls.values()) - before if counted else 0
        attempts.append((support.size, made, out is not None, len(calls)))
        return out

    monkeypatch.setattr(solver, "_polish", spy)
    monkeypatch.setattr(solver, "_largest_violator", spy_violator)
    return attempts


class TestSupportPolish:
    """solve_bpdn's second exit: the support-restricted problem solved in closed form."""

    TORUS_CELLS = [(64, 2**-8, 1), (64, 2**-8, 2), (256, 2**-4, 1), (256, 2**-4, 2)]
    SPHERE_CELLS = [(fn, seed) for fn in ("mix5", "gauss_heat") for seed in (1, 2)]

    @staticmethod
    def _spy_solves(monkeypatch):
        solves = []

        def spy(op, y, cfg):
            solves.append((op, y, cfg, solve_bpdn(op, y, cfg)))
            return solves[-1][-1]

        monkeypatch.setattr(solver, "solve_bpdn", spy)
        return solves

    def _check_certified(self, monkeypatch, run):
        solves = self._spy_solves(monkeypatch)
        run()
        [(op, y, cfg, sol)] = solves
        assert sol.converged and sol.objective > 0.0
        cert = certify(op, y, cfg.delta, sol.coefficients)
        assert cert.gap <= 1e-12 * sol.objective
        return sol

    @pytest.mark.parametrize("side, c_univ, seed", TORUS_CELLS)
    def test_torus_solve_is_certified_within_60_iterations(self, side, c_univ, seed, monkeypatch):
        # without the polish these cells take 190-240 iterations, and their
        # gaps are 1e-9 to 1e-6 of the objective; the polish in the loop
        # ended them at 20-40, and the start ends them before any
        sol = self._check_certified(monkeypatch, lambda: recover_torus(
            TORUS_BATTERY["cc_half"], side, 0.1, seed, c_univ=c_univ, allow_uncertified=True))
        assert sol.iterations <= 60
        assert (sol.iterations, sol.restarts, sol.primal_weight) == (0, 0, 1.0)

    @pytest.mark.parametrize("fn, seed", SPHERE_CELLS)
    def test_sphere_solve_is_certified(self, fn, seed, monkeypatch):
        # at the start, so with no restart
        signal = build_sphere_battery(16)[fn]
        sol = self._check_certified(monkeypatch, lambda: recover_sphere(signal, 0.1, seed,
                                                                        c_univ=2**-6))
        assert (sol.iterations, sol.restarts, sol.primal_weight) == (0, 0, 1.0)

    @pytest.mark.parametrize("setting, seed", [("torus", 1), ("torus", 2), ("sphere", 1)])
    def test_loop_polish_certifies_when_the_start_is_refused(self, setting, seed, monkeypatch):
        # a flat spectrum and a fit to noise: the start is refused, and the
        # polish ends the loop at its first attempt, after restarts
        attempts = _spy_polish(monkeypatch)
        if setting == "torus":
            op, y, cfg = _flat_torus_problem(64, 200, seed)
        else:
            op, y, cfg = _noise_sphere_problem(seed, points=30)
        sol = solve_bpdn(op, y, cfg)
        assert [ok for _, _, ok, _ in attempts] == [False, True]
        assert attempts[0][0] == 1  # the start
        assert sol.converged and 0 < sol.iterations <= 60 and sol.restarts >= 1
        cert = certify(op, y, cfg.delta, sol.coefficients)
        assert cert.gap <= 1e-12 * sol.objective

    @staticmethod
    def _torus_problem(field, size, seed, delta):
        side = field.shape[0]
        op = make_torus_operator(draw_subset(side, size, seed))
        y = op.forward(forward_dft(field)[:, :side // 2 + 1].ravel())
        return op, y, SolverConfig(delta=delta * float(np.linalg.norm(y)))

    def _check_unpolished_is_bitwise(self, op, y, cfg, monkeypatch):
        # a solve none of whose attempts is accepted, the start's included,
        # returns the loop's last check
        attempts = _spy_polish(monkeypatch)
        got = solve_bpdn(op, y, cfg)
        assert attempts and not any(ok for _, _, ok, _ in attempts)
        assert attempts[0][0] == 1  # the start
        assert len(attempts) - 1 <= math.ceil(math.log2(got.iterations)) + 1
        *_, (a, _, feas, iterations, converged, restarts, weight) = _loop_checks(op, y, cfg)
        assert np.array_equal(got.coefficients, a)
        assert (got.iterations, got.converged, got.restarts, got.primal_weight) == (
            iterations, converged, restarts, weight)
        assert got.feasibility_residual == feas

    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_attempt_at_the_last_check(self, seed):
        # cut at the check where its polish is accepted, the solve returns the
        # loop's point there, unconverged: the loop's last check is its exit.
        # A flat spectrum, so that the start is refused
        op, y, cfg = _flat_torus_problem(32, 200, seed)
        polished = solve_bpdn(op, y, cfg)
        assert polished.converged and 0 < polished.iterations < 100
        cut = dataclasses.replace(cfg, max_iter=polished.iterations)
        got = solve_bpdn(op, y, cut)
        *_, (a, _, _, iterations, converged, restarts, weight) = _loop_checks(op, y, cut)
        assert not converged and not got.converged
        assert (got.iterations, got.restarts, got.primal_weight) == (iterations, restarts, weight)
        assert np.array_equal(got.coefficients, a)

    def test_non_sparse_field_runs_as_without_polish(self, monkeypatch):
        # the Poisson kernel P_r(u1) P_r(u2), r = 1/2, has no sparse spectrum:
        # every attempt fails, at most one per doubling of the iterations
        u = np.arange(256) / 256
        kernel = 0.75 / (1.25 - np.cos(2 * np.pi * u))
        op, y, cfg = self._torus_problem(np.outer(kernel, kernel), 503, 1, 0.1)
        self._check_unpolished_is_bitwise(op, y, cfg, monkeypatch)

    def test_mirror_pair_support_is_not_polished(self):
        # cos(2 pi 3 u1) lives on (3, 0) and (-3, 0), both stored in the
        # self-conjugate column 0: their columns are equal, and G is singular.
        # The start certifies a point on one of them; the loop settles on
        # both, and an attempt there gives up before it grows
        u = np.arange(32) / 32
        field = np.repeat(np.cos(6 * np.pi * u)[:, None], 32, axis=1)
        op, y, cfg = self._torus_problem(field, 100, 3, 0.1)
        pair = np.array([3 * 17, 29 * 17])  # (3, 0) and (29, 0) in the 32 x 17 half
        got = solve_bpdn(op, y, cfg)
        assert (got.iterations, got.converged) == (0, True)
        assert np.flatnonzero(got.coefficients) in pair
        a, nz, *_ = _loop_checks(op, y, cfg)[-1]
        assert np.array_equal(nz, pair)
        tried = set()
        y = op.measurements(y)
        assert solver._polish(op, y, cfg.delta, a, nz, None, cfg.tol, cfg.tol, tried) is None
        assert not tried


class TestPolishGrowth:
    """A refused polish grows its support by the largest dual violator and solves again."""

    @pytest.mark.parametrize("bandwidth, seed", [(16, 1), (16, 2), (32, 1), (32, 2)])
    def test_gauss_heat_certifies_within_20_iterations(self, bandwidth, seed, monkeypatch):
        # without growth these solves take 70, 45, 120 and 60 iterations and
        # end at the same support, signs and closed form, so at the same point
        got = solve_bpdn(*_sphere_trial_problem("gauss_heat", bandwidth, seed))
        assert got.converged and got.iterations <= 20
        monkeypatch.setattr(solver, "_largest_violator", lambda *args: None)
        want = solve_bpdn(*_sphere_trial_problem("gauss_heat", bandwidth, seed))
        assert want.iterations > 40
        assert np.array_equal(got.coefficients, want.coefficients)

    def test_first_attempt_grows_through_both_refusals(self, monkeypatch):
        # L = 32 gauss_heat, seed 1: the start's OMP steps find no feasible
        # point on its first 10 coefficients; the certificate refuses 11 and
        # 12, and accepts 13
        solves, certified = [], []
        support_point, certify_ = solver._support_point, solver._certify

        def spy_point(op, y, delta, forwards, support, start):
            out = support_point(op, y, delta, forwards, support, start)
            solves.append((support.size, out[2]))
            return out

        def spy_certify(op, y, delta, a, b):
            certified.append(np.count_nonzero(a))
            return certify_(op, y, delta, a, b)

        monkeypatch.setattr(solver, "_support_point", spy_point)
        monkeypatch.setattr(solver, "_certify", spy_certify)
        op, y, cfg = _sphere_trial_problem("gauss_heat", 32, 1)
        counted = counting_operator(op)
        attempts = _spy_polish(monkeypatch, counted)
        sol = solve_bpdn(counted, y, cfg)
        # 13 unit forwards, a normal product for the correlations at each of
        # the 10 infeasible points, and certify's two on 11, 12 and 13; the
        # growth after each refused certificate takes certify's dual vector
        assert attempts == [(1, 29, True, 12)]
        assert solves == [(size, size > 10) for size in range(1, 14)]
        assert certified == [11, 12, 13]
        assert sol.iterations == 0
        assert np.count_nonzero(sol.coefficients) == 13
        cert = certify(op, y, cfg.delta, sol.coefficients)
        assert cert.gap <= cfg.tol * sol.objective and cert.kkt <= cfg.tol

    def test_exact_fit_grows_by_omp_steps(self, monkeypatch):
        # delta = 0, a recover_sphere_exact.csv trial: the least-squares point
        # on each of the start's first 8 supports does not fit y, so certify
        # raises and each addition is OMP's step, whatever the correlations on
        # the support; the 9th fits and is certified
        steps = []
        violator = solver._largest_violator

        def spy(g, support, feasible):
            steps.append((support.size, feasible))
            return violator(g, support, feasible)

        monkeypatch.setattr(solver, "_largest_violator", spy)
        rep = recover_sphere(build_sphere_battery(8)["gauss_heat"], 0.1, 9867935573728242652,
                             c_univ=2**-6, exact_fit=True)
        assert rep.converged and rep.rel_error < 1e-12 and rep.iterations == 0
        assert steps == [(size, False) for size in range(1, 9)]

    def test_decay_alt_l64_makes_no_more_products(self, monkeypatch):
        # without growth this solve takes 720 iterations and 1,917 products;
        # inserting the grown columns, not redoing the others, keeps each
        # attempt's unit forwards to its support's final size
        def run():
            op, y, cfg = _sphere_trial_problem("decay_alt", 64, 1)
            counted = counting_operator(op)
            attempts = _spy_polish(monkeypatch, counted)
            return solve_bpdn(counted, y, cfg), sum(counted.calls.values()), attempts

        got, made, attempts = run()
        assert got.converged and any(calls for *_, calls in attempts[1:])
        assert attempts[0][0] == 1 and not attempts[0][2]  # the refused start
        for size, _, _, calls in attempts[1:]:
            assert calls <= math.ceil(math.log2(size + 1))
        monkeypatch.setattr(solver, "_largest_violator", lambda *args: None)
        want, made_without, _ = run()
        assert got.iterations < want.iterations and made <= made_without
        assert np.array_equal(got.coefficients, want.coefficients)

    @pytest.mark.parametrize("fn", ["gauss_heat", "mix5"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_additions_stay_under_the_log_cap(self, fn, seed, monkeypatch):
        # the start has its own limit (START_CUT): while no point is feasible
        # each addition cuts ||rho|| by START_CUT, and after the first
        # feasible support at most its size follow. On a noise fit the start
        # is refused and the loop's attempts stay under the log cap
        solves = []
        support_point = solver._support_point

        def spy_point(op, y, delta, forwards, support, start):
            out = support_point(op, y, delta, forwards, support, start)
            solves.append((support.size, float(np.linalg.norm(out[1])), out[2]))
            return out

        monkeypatch.setattr(solver, "_support_point", spy_point)
        attempts = _spy_polish(monkeypatch)
        sol = solve_bpdn(*_sphere_trial_problem(fn, 32, seed))
        assert sol.converged and sol.iterations == 0
        [(size, _, accepted, calls)] = attempts
        assert size == 1 and accepted and calls == len(solves) - 1
        infeasible = [r for _, r, feasible in solves if not feasible]
        assert all(r <= solver.START_CUT * r0 for r0, r in zip(infeasible, infeasible[1:]))
        first_feasible = next(i for i, (_, _, feasible) in enumerate(solves) if feasible)
        assert len(solves) - 1 - first_feasible <= solves[first_feasible][0]
        attempts.clear()
        assert solve_bpdn(*_noise_sphere_problem(seed)).converged
        assert attempts[0][0] == 1 and len(attempts) > 1
        for size, _, _, calls in attempts[1:]:
            assert calls <= math.ceil(math.log2(size + 1))

    @pytest.mark.parametrize("setting, additions", [("sphere", 12), ("torus", 1), ("complex", 14)])
    def test_grown_support_inserts_its_columns_in_order(self, setting, additions, monkeypatch):
        # after each addition the kept unit forwards, with the new
        # coefficient's inserted, are those rebuilt on the grown support, and
        # the kept start phases do not move. Additions in the start count
        # too: 12 on the sphere, 7 of the complex instance's 14. Every grown
        # attempt on the dense complex instance is refused, so a wrong
        # insertion there would show only as a refusal
        attempts = []
        polish, support_point = solver._polish, solver._support_point

        def spy_polish(*args):
            attempts.append([])
            return polish(*args)

        def spy_point(op, y, delta, forwards, support, start):
            attempts[-1].append((op, forwards, support, start))
            return support_point(op, y, delta, forwards, support, start)

        monkeypatch.setattr(solver, "_polish", spy_polish)
        monkeypatch.setattr(solver, "_support_point", spy_point)
        if setting == "sphere":
            solve_bpdn(*_sphere_trial_problem("gauss_heat", 32, 1))
        elif setting == "torus":
            recover_torus(TORUS_BATTERY["cc_half"], 32, 0.1, 2846562751307321766,
                          c_univ=2**-6, allow_uncertified=True)
        else:
            mat, y, delta, _ = random_bpdn_instance(7)
            solve_bpdn(dense_operator(mat), y, SolverConfig(delta=delta))
        grown = 0
        for solves in attempts:
            for (_, _, kept, kept_start), (op, forwards, support, start) in zip(solves, solves[1:]):
                (at,) = np.flatnonzero(~np.isin(support, kept))
                assert np.array_equal(np.delete(support, at), kept)
                assert np.array_equal(np.delete(start, at), kept_start)
                assert np.array_equal(forwards, solver._unit_forwards(op, support))
                grown += 1
        assert grown == additions

    @pytest.mark.parametrize("setting", ["sphere", "torus", "complex"])
    def test_only_droppable_directions_are_dropped(self, setting):
        # the polish's product-free column count is that of the directions
        # that are not droppable: the live count but for the droppable ones
        # that stay live
        if setting == "sphere":
            op = make_sphere_operator(draw_sphere_points(40, seed=4), 6)
            support, dropped = np.array([0, 3, 8, 20]), []
        elif setting == "torus":
            # half spectrum 8 x 5: (0, 0) and (0, 4) are self-conjugate; (1, 0)
            # and (1, 4) have weight 1 too, but their mirrors are stored as well
            op = make_torus_operator(draw_subset(8, 30, seed=4))
            support, dropped = np.array([0, 1, 4, 5, 8, 9]), [(0, 1), (2, 1)]
        else:
            mat, _, _, _ = random_bpdn_instance(7)
            op = dense_operator(mat)
            support, dropped = np.arange(5), []
        forwards = solver._unit_forwards(op, support)
        live = solver._live_columns(op, support, forwards)
        assert live.shape == (len(forwards),)
        # (position in the support, unit direction) of each dropped direction
        assert sorted(zip(*np.nonzero(~live.reshape(support.size, -1)))) == dropped
        droppable = solver._droppable(op, support)
        assert not np.any(~live & ~droppable)
        kept = 2 if setting == "torus" else 0  # (1, 0) and (1, 4)
        assert np.count_nonzero(~droppable) == np.count_nonzero(live) - kept

    @pytest.mark.parametrize("setting", ["sphere", "torus", "complex"])
    def test_support_that_cannot_fit_makes_no_product(self, setting):
        # more live columns than real measurement rows: the Gram is singular,
        # so the attempt gives up before its unit forwards
        if setting == "sphere":
            op = make_sphere_operator(draw_sphere_points(10, seed=4), 6)
            support = np.arange(11)  # 11 real columns on 10 rows
        elif setting == "torus":
            op = make_torus_operator(draw_subset(8, 10, seed=4))
            support = np.array([1, 2, 3, 6, 7, 8])  # weight 2 each: 12 columns on 10 rows
        else:
            mat, _, _, _ = random_bpdn_instance(7)
            op = dense_operator(mat)
            support = np.arange(13)  # 26 columns on 2 x 12 rows
        rng = rng_from_seed(6)
        a = np.zeros(op.shape[1], dtype=op.dtype)
        a[support] = 1.0 + rng.random(support.size)
        y = op.forward(a)
        counted = counting_operator(op)
        tried = set()
        b = op.adjoint(y) if op.normal is not None else None
        assert np.count_nonzero(~solver._droppable(op, support)) > solver._real_view(y).size
        assert solver._polish(counted, y, 0.1, a, support, b, 1e-8, 1e-8, tried) is None
        assert sum(counted.calls.values()) == 0 and not tried


class TestStart:
    """solve_bpdn's start: the support polish from OMP's first support, before the loop."""

    @pytest.mark.parametrize("setting", ["torus", "sphere"])
    def test_benchmark_trials_end_at_the_start(self, setting):
        # a cc_half N = 256 trial and a mix5 L = 16 trial take no PDHG step;
        # the objective (> 0) tells the start's exit from the a = 0 exit
        if setting == "torus":
            rep = recover_torus(TORUS_BATTERY["cc_half"], 256, 0.1, 1, c_univ=2**-4,
                                allow_uncertified=True)
        else:
            rep = recover_sphere(build_sphere_battery(16)["mix5"], 0.1, 1, c_univ=2**-6)
        assert (rep.iterations, rep.converged, rep.restarts, rep.primal_weight) == (0, True, 0, 1.0)
        assert rep.objective > 0.0 and rep.rel_error < 1.0

    def test_sphere_start_reads_no_norm_estimate(self, monkeypatch):
        # the Lanczos estimate's 24 dense products run on the loop's first
        # read of norm_bound, which a solve that ends at the start never makes
        estimates = []
        lanczos = solver.lanczos_norm_bound

        def counted(forward, adjoint, dim):
            estimates.append(dim)
            return lanczos(forward, adjoint, dim)

        monkeypatch.setattr(solver, "lanczos_norm_bound", counted)
        rep = recover_sphere(build_sphere_battery(16)["mix5"], 0.1, 1, c_univ=2**-6)
        assert rep.iterations == 0 and estimates == []
        rep = solve_bpdn(*_noise_sphere_problem(1))
        assert rep.iterations > 0 and estimates == [49]

    @staticmethod
    def _problems():
        battery = build_sphere_battery(16)
        yield _torus_trial_problem(1)
        yield _torus_trial_problem(2)
        yield _trial_problem(recover_torus, TORUS_BATTERY["cc_half"], 256, 0.1, 1,
                             c_univ=2**-4, allow_uncertified=True)
        for fn in ("mix5", "gauss_heat"):
            yield _trial_problem(recover_sphere, battery[fn], 0.1, 2, c_univ=2**-6)
        yield _sphere_trial_problem("gauss_heat", 32, 1)
        yield _trial_problem(recover_sphere, build_sphere_battery(8)["gauss_heat"], 0.1,
                             9867935573728242652, c_univ=2**-6, exact_fit=True)

    def test_accepted_start_points_pass_certify(self):
        # gap, KKT residual and feasibility at the solve's tol, as the polish
        # accepts them, checked again through the public certify
        for op, y, cfg in self._problems():
            rep = solve_bpdn(op, y, cfg)
            assert rep.iterations == 0 and rep.objective > 0.0
            feas_tol = cfg.tol * max(1.0, float(np.linalg.norm(y)))
            cert = certify(op, y, cfg.delta, rep.coefficients)
            assert cert.gap <= cfg.tol * max(1.0, rep.objective)
            assert cert.kkt <= cfg.tol
            residual = float(np.linalg.norm(op.forward(rep.coefficients) - y)) - cfg.delta
            assert rep.feasibility_residual <= feas_tol and residual <= feas_tol

    def test_refused_start_adds_its_supports_to_tried(self, monkeypatch):
        # the loop does not try again a support that the start refused
        seen = []
        polish = solver._polish

        def spy(op, y, delta, a, support, b, tol, feas_tol, tried, *rest):
            seen.append((support.tobytes(), set(tried)))
            return polish(op, y, delta, a, support, b, tol, feas_tol, tried, *rest)

        monkeypatch.setattr(solver, "_polish", spy)
        solve_bpdn(*_noise_sphere_problem(2))
        (start, _), *loop = seen
        assert len(np.frombuffer(start, dtype=np.intp)) == 1 and loop
        for key, tried in loop:
            assert start in tried and key in tried


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
        a_oracle = oracle_solve(dense_torus_matrix(sample), y, delta)
        assert np.max(np.abs(rep.coefficients - a_oracle)) < 1e-6

    def test_trivial_zero_returns_at_once(self):
        mat, y, _, _ = random_bpdn_instance(3)
        op = counting_operator(dense_operator(mat))
        rep = solve_bpdn(op, y, SolverConfig(delta=float(np.linalg.norm(y))))
        assert (rep.iterations, rep.converged, rep.restarts) == (0, True, 0)
        assert not np.any(rep.coefficients) and rep.feasibility_residual == 0.0
        assert op.calls == {"forward": 0, "adjoint": 0}

    def test_trivial_zero_torus_cell(self):
        # 527 of 65,536 grid values: delta = eps ||truth|| is about 1.1 ||y||
        rep = recover_torus(
            TORUS_BATTERY["cc_half"], 256, 0.1, 1, c_univ=2**-5, allow_uncertified=True
        )
        assert (rep.iterations, rep.converged) == (0, True)
        assert not np.any(rep.coefficients) and rep.rel_error == 1.0

    @pytest.mark.parametrize("setting", ["torus", "sphere", "grown"])
    def test_two_products_per_iteration(self, setting, monkeypatch):
        if setting == "torus":
            sample, y, delta = _real_bpdn_instance(16, seed=7)
            op = make_torus_operator(sample)
        elif setting == "sphere":  # a fit to noise: the start is refused
            op, y, cfg = _noise_sphere_problem(1)
            delta = cfg.delta
        else:  # the start grows its support 12 times and ends the solve (TestPolishGrowth)
            op, y, cfg = _sphere_trial_problem("gauss_heat", 32, 1)
            delta = cfg.delta
        counted = counting_operator(op)
        attempts = _spy_polish(monkeypatch, counted)
        rep = solve_bpdn(counted, y, SolverConfig(delta=delta))
        assert rep.converged
        assert rep.iterations == 0 if setting == "grown" else rep.iterations > solver.CHECK_EVERY
        # a support polish makes one forward per unit direction on the support,
        # then certify's forward and its adjoint or normal product; each search
        # for a violator makes at most one adjoint or normal product (none
        # when certify has formed the correlations), and each grown
        # coefficient its unit forwards and certify's two products again. The
        # 2 beyond the iterations' are A^H y: b on the sphere, the start's
        # correlations on the torus
        units = 2 if op.dtype == np.complex128 else 1
        own = [units * size + 2 + calls * (1 + units + 2) for size, _, _, calls in attempts]
        assert setting != "grown" or attempts == [(1, 29, True, 12)]
        assert all(made <= bound for (_, made, _, _), bound in zip(attempts, own))
        assert sum(counted.calls.values()) <= 2 * rep.iterations + 2 + sum(own)

    def test_sphere_solve_takes_one_adjoint(self):
        # A^H y once; the start's correlations and every iteration's A^H z
        # come from the normal product. The first solve ends at the start, the
        # second (a fit to noise) iterates
        op, y, delta = _sphere_bpdn_instance()
        for op, y, cfg in ((op, y, SolverConfig(delta=delta)), _noise_sphere_problem(1)):
            counted = counting_operator(op)
            rep = solve_bpdn(counted, y, cfg)
            assert rep.converged and counted.calls["adjoint"] <= 1
        assert rep.iterations > solver.CHECK_EVERY

    @pytest.mark.parametrize("max_iter", [50_000, 7])
    def test_feasibility_residual_is_recomputed(self, max_iter):
        sample, y, delta = _real_bpdn_instance(16, seed=5)
        op = make_torus_operator(sample)
        rep = solve_bpdn(op, y, SolverConfig(delta=delta, max_iter=max_iter))
        assert rep.converged == (max_iter == 50_000)
        want = float(np.linalg.norm(op.forward(rep.coefficients) - y)) - delta
        assert abs(rep.feasibility_residual - want) <= 1e-12 * max(1.0, float(np.linalg.norm(y)))

    def test_nonconvergence_is_reported_not_raised(self):
        mat, y, delta, _ = random_bpdn_instance(2)
        rep = solve_bpdn(dense_operator(mat), y, SolverConfig(delta=delta, max_iter=3))
        assert not rep.converged
        assert rep.iterations == 3

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            SolverConfig(delta=-1.0)

    @pytest.mark.parametrize("field", ["delta", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            SolverConfig(**{"delta": 0.1, field: value})

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True])
    def test_invalid_max_iter_rejected(self, max_iter):
        # unchecked, 0 and -3 return a = 0 unconverged after 0 iterations, 2.5
        # fails inside range() with a TypeError, and True runs one iteration
        _, _, delta, _ = random_bpdn_instance(3)
        with pytest.raises(DomainError, match="max_iter"):
            SolverConfig(delta=delta, max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        # the one integer rule of the samplers: a numpy integer is an integer, a bool is not
        sample, y, delta = _real_bpdn_instance(8, seed=2)
        op = make_torus_operator(sample)
        got = solve_bpdn(op, y, SolverConfig(delta=delta, max_iter=np.int64(10)))
        want = solve_bpdn(op, y, SolverConfig(delta=delta, max_iter=10))
        assert got.iterations == 10
        assert np.array_equal(got.coefficients, want.coefficients)

    @pytest.mark.parametrize("setting", ["torus", "sphere"])
    def test_repeated_solves_are_bitwise_and_independent(self, setting):
        # the Halpern step writes into arrays the step has just made; it must
        # touch neither y nor an earlier result
        if setting == "torus":
            sample, y, delta = _real_bpdn_instance(16, seed=7)
            op = make_torus_operator(sample)
        else:  # a fit to noise: the start is refused
            op, y, cfg = _noise_sphere_problem(1)
            delta = cfg.delta
        y_before = y.copy()
        cfg = SolverConfig(delta=delta)
        first, second = solve_bpdn(op, y, cfg), solve_bpdn(op, y, cfg)
        assert first.iterations > solver.CHECK_EVERY
        assert np.array_equal(y, y_before)
        assert dataclasses.astuple(first)[1:] == dataclasses.astuple(second)[1:]
        assert first.coefficients.tobytes() == second.coefficients.tobytes()
        kept = second.coefficients.copy()
        first.coefficients[:] = 7.0
        assert np.array_equal(second.coefficients, kept)

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


def _set(x, value):
    """A copy of x with entry 1 set to value."""
    x = x.copy()
    x[1] = value
    return x


# case: (the problem (y, delta, a) with that one defect, the error, its message)
_BAD_PROBLEMS = {
    "y_short": (lambda y, d, a: (y[:-1], d, a), DataError, "expected"),
    "y_nan": (lambda y, d, a: (_set(y, math.nan), d, a), DataError, "finite"),
    "y_inf": (lambda y, d, a: (_set(y, math.inf), d, a), DataError, "finite"),
    "y_overflow": (lambda y, d, a: (_set(y, 1e300), d, a), DataError, "finite"),
    "delta_nan": (lambda y, d, a: (y, math.nan, a), DomainError, "feasibility radius"),
    "a_nan": (lambda y, d, a: (y, d, _set(a, math.nan)), DataError, "finite"),
    "a_long": (lambda y, d, a: (y, d, np.append(a, 0.0)), DataError, "expected"),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ("solve_bpdn", "certify") for case in _BAD_PROBLEMS
    if entry == "certify" or not case.startswith("a_")
])
def test_solve_and_certify_refuse_a_bad_problem_alike(entry, case):
    # both check the problem through op.measurements, op.coefficients and the
    # radius check; unchecked, certify read a NaN delta as a NaN gap and failed
    # inside numpy on a short y or a long candidate
    mat, y, delta, truth = random_bpdn_instance(3)
    make, error, match = _BAD_PROBLEMS[case]
    y, delta, a = make(y, delta, truth)
    with pytest.raises(error, match=match):
        if entry == "solve_bpdn":
            solve_bpdn(dense_operator(mat), y, SolverConfig(delta=delta))
        else:
            certify(dense_operator(mat), y, delta, a)


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
        assert certify(dense_operator(mat), y, delta, a).gap == pytest.approx(
            info["gap"], abs=1e-12 * scale
        )


def _null_vector(mat):
    """A unit vector v with mat @ v = 0 (mat has more columns than rows)."""
    assert mat.shape[0] < mat.shape[1]
    return np.linalg.svd(mat)[2][-1].conj()


class TestCheckKkt:
    """certify's KKT residual and duality gap."""

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_fit_solution_certifies(self, seed):
        # delta = 0 certifies with the least-squares dual on the support, not
        # with the direction of a residual that the solver leaves at ~1e-9;
        # a gap read off that direction stays near ||a||_1
        mat, y, _, _ = random_bpdn_instance(seed)
        op = dense_operator(mat)
        rep = solve_bpdn(op, y, SolverConfig(delta=0.0, tol=1e-9))
        assert rep.converged
        cert = certify(op, y, 0.0, rep.coefficients)
        assert cert.kkt <= 1e-7
        assert abs(cert.gap) <= 1e-7 * rep.objective
        # a feasible step along the null space leaves the l1 minimizer: the
        # gap bounds the objective's excess over the minimum from above
        bumped = certify(op, y, 0.0, rep.coefficients + 0.1 * _null_vector(mat))
        assert bumped.kkt > 0.1 and bumped.gap > 0.1

    def test_infeasible_zero_candidate_rejected(self):
        # delta = 0.0164 < ||y|| = 1.37: a = 0 lies outside the ball, where a
        # residual-direction dual reads a negative gap (-1.95)
        mat, y, delta, _ = random_bpdn_instance(3)
        assert delta < float(np.linalg.norm(y))
        with pytest.raises(InfeasibleCandidateError):
            certify(dense_operator(mat), y, delta, np.zeros(mat.shape[1], dtype=complex))

    def test_exact_fit_torus_solution_certifies_on_full_spectrum(self):
        sample = draw_subset(8, 16, seed=3)
        half_op, full_op = make_torus_operator(sample), full_torus_operator(sample)
        y = np.ones(16)  # const1 at the sample
        rep = solve_bpdn(half_op, y, SolverConfig(delta=0.0))
        assert rep.converged
        expanded = solver._hermitian_full(rep.coefficients, 8)
        assert certify(full_op, y, 0.0, expanded).kkt <= 1e-7
        bumped = expanded + 0.1 * _null_vector(dense_torus_matrix(sample))
        assert certify(full_op, y, 0.0, bumped).kkt > 0.1

    def test_oracle_output_certifies(self):
        mat, y, delta, _ = random_bpdn_instance(21)
        a = oracle_solve(mat, y, delta)
        assert certify(dense_operator(mat), y, delta, a).kkt <= 1e-7

    def test_zero_candidate_with_big_delta(self, rng):
        mat = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        delta = float(np.linalg.norm(y)) * 2.0
        cert = certify(dense_operator(mat), y, delta, np.zeros(10, dtype=complex))
        assert (cert.kkt, cert.gap) == (0.0, 0.0)

    def test_perturbed_candidate_flagged(self):
        mat, y, delta, _ = random_bpdn_instance(23)
        a = oracle_solve(mat, y, delta)
        bumped = a.copy()
        bumped[int(np.argmax(np.abs(a)))] += 0.1
        try:
            assert certify(dense_operator(mat), y, delta, bumped).kkt > 1e-3
        except InfeasibleCandidateError:
            pass  # the bump may push the candidate off the constraint set

    def test_infeasible_candidate_rejected(self):
        mat, y, delta, _ = random_bpdn_instance(29)
        huge = np.full(mat.shape[1], 100.0, dtype=complex)
        with pytest.raises(InfeasibleCandidateError):
            certify(dense_operator(mat), y, delta, huge)


class TestRecoverTorus:
    def test_constant_exact_fit(self):
        rep = recover_torus(TORUS_BATTERY["const1"], 8, 0.1, seed=3, exact_fit=True)
        assert rep.rel_error <= 1e-8
        assert ERROR_BUDGET_FACTOR * 0.1 == pytest.approx(1.147)

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
        assert rep.rel_error <= ERROR_BUDGET_FACTOR * 0.1
        assert rep.sample_size <= 64 * 64

    def test_clamps_to_full_grid(self):
        # at C = 1 the measured ratio asks for about 8,400 of the 256 grid points
        rep = recover_torus(TORUS_BATTERY["cc_half"], 16, 0.1, seed=7, allow_uncertified=True)
        assert rep.clamped
        assert rep.sample_size == 256
        # full observation with slack delta: error bounded by eps
        assert rep.rel_error <= 0.1 + 1e-6

    def test_report_holds_results_only(self):
        rep = recover_torus(TORUS_BATTERY["const1"], 8, 0.1, seed=3, exact_fit=True)
        assert [f.name for f in dataclasses.fields(rep)] == [
            "coefficients", "objective", "feasibility_residual", "iterations", "converged",
            "restarts", "primal_weight", "rel_error", "sample_size", "clamped",
        ]
        assert not hasattr(rep, "budget")

    def test_options_after_seed_are_keyword_only(self):
        with pytest.raises(TypeError):
            recover_torus(TORUS_BATTERY["cc_half"], 16, 0.1, 7, 1.0, "bound", True)
        with pytest.raises(TypeError):
            recover_sphere(build_sphere_battery(1)["y00"], 0.1, 5, 1.0)


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
        # the full spectrum of a real field: a[-k] = conj(a[k]) on the (N, N) grid
        a = rep.coefficients.reshape(side, side)
        mirror = np.conj(np.roll(np.flip(a), 1, axis=(0, 1)))
        assert np.max(np.abs(a - mirror)) <= 1e-12 * np.max(np.abs(a))
        # scored as the benchmark rechecks it: the inverse DFT of the full
        # spectrum against the evaluator
        u = np.arange(side) / side
        truth = f.evaluator(*np.meshgrid(u, u, indexing="ij"))
        field = np.fft.ifftn(rep.coefficients.reshape(side, side)) * side
        rel = np.linalg.norm(field.real - truth) / np.linalg.norm(truth)
        assert rep.rel_error == pytest.approx(rel, rel=1e-12)
        # measured at the field's values on the sample
        g = discretize(f, side).ravel()
        want = g[draw_subset(side, rep.sample_size, 7).flat]
        assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)
        assert delta == pytest.approx(0.1 * np.linalg.norm(g), rel=1e-13)

    def test_sphere_mix5(self, monkeypatch):
        signal = build_sphere_battery(8)["mix5"]
        calls = self._spy_solves(monkeypatch)
        rep = recover_sphere(signal, 0.1, seed=11, c_univ=2**-6)
        [(y, delta)] = calls
        rel = np.linalg.norm(rep.coefficients.real - signal.coeffs) / np.linalg.norm(signal.coeffs)
        assert rep.rel_error == pytest.approx(rel, rel=1e-12)
        points = draw_sphere_points(rep.sample_size, 11)
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
        assert rep.rel_error <= ERROR_BUDGET_FACTOR * 0.1

    def test_q_max_refusal(self):
        bat = build_sphere_battery(8)
        # c_univ = 64 asks for 1,082,562 points at the measured ratio: 87.7M entries at L = 8
        with pytest.raises(DomainError, match=f"over the limit of {BASIS_ENTRIES_MAX}"):
            recover_sphere(bat["mix5"], 0.1, seed=1, c_univ=64.0)

    def test_basis_entries_refused_before_drawing(self, monkeypatch):
        # gauss_heat at L = 64, C = 1 asks for 100,940 points: 426M entries, 3.2 GiB
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn or basis built")
        monkeypatch.setattr("frkit.solver.draw_sphere_points", refuse)
        monkeypatch.setattr("frkit.sphere.basis_matrix", refuse)
        signal = build_sphere_battery(64)["gauss_heat"]
        with pytest.raises(DomainError, match="needs 426471500 basis entries"):
            recover_sphere(signal, 0.1, seed=1)

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
