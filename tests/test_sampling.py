import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from frkit import solver, sphere, torus
from frkit.battery import TORUS_BATTERY, build_sphere_battery
from frkit.errors import DataError, DomainError, StructuralError
from frkit.sampling import (
    SampleMultiset,
    SampleSet,
    draw_sphere_points,
    draw_subset,
    rng_from_seed,
    sample_size,
    spawn_seeds,
)
from frkit.spectral import best_s_truncation


class TestDrawSubset:
    def test_full_grid(self):
        s = draw_subset(4, 16, seed=1)
        assert np.array_equal(s.flat, np.arange(16))

    def test_empty(self):
        s = draw_subset(4, 0, seed=1)
        assert len(s) == 0

    def test_distinct_sorted(self):
        s = draw_subset(8, 30, seed=99)
        assert len(np.unique(s.flat)) == 30
        assert np.all(np.diff(s.flat) > 0)

    def test_determinism_and_regeneration(self):
        a = draw_subset(16, 50, seed=1234)
        b = draw_subset(16, np.int64(50), seed=1234)  # a numpy integer size is a size
        c = draw_subset(16, 50, seed=1235)
        assert np.array_equal(a.flat, b.flat)
        assert not np.array_equal(a.flat, c.flat)

    @pytest.mark.parametrize("side, k", [(64, 50), (64, 198), (256, 1053), (8, 63), (512, 593)])
    def test_same_sample_as_one_draw_per_swap(self, side, k):
        # the swap offsets come from one vectorized draw; every recorded seed
        # must still regenerate the sample of one scalar draw per swap
        def scalar_draws(seed):
            total = side * side
            rng = rng_from_seed(seed)
            pool = np.arange(total, dtype=np.int64)
            for i in range(k):
                j = i + int(rng.integers(0, total - i))
                pool[i], pool[j] = pool[j], pool[i]
            return np.sort(pool[:k])

        for seed in [0, 1, 2, 2**63 + 5] + spawn_seeds(3, 3):
            assert np.array_equal(draw_subset(side, k, seed).flat, scalar_draws(seed))

    @pytest.mark.parametrize("side, k", [
        (256, 1053), (256, 527), (64, 50), (64, 198), (8, 64), (8, 63), (9, 40)])
    def test_same_sample_as_the_index_pool(self, side, k):
        # the reference is the algorithm that swapped in a whole N^2 index
        # pool; draw_subset keeps only the entries a swap has displaced
        def pool_draw(seed):
            total = side * side
            if k == total:
                return np.arange(total)
            rng = rng_from_seed(seed)
            pool = np.arange(total, dtype=np.int64)
            steps = np.arange(k)
            targets = steps + rng.integers(0, total - steps)
            for i, j in enumerate(targets.tolist()):
                pool[i], pool[j] = pool[j], pool[i]
            return np.sort(pool[:k])

        for seed in (1, 2, 12345):
            assert np.array_equal(draw_subset(side, k, seed).flat, pool_draw(seed))

    @pytest.mark.parametrize("k", [527, 1053])
    def test_peak_memory_scales_with_the_sample(self, k):
        # an N^2 index pool alone is 512 KiB at N = 256; draw_subset's peak is
        # about 140 bytes per sample point
        draw_subset(256, k, seed=1)
        tracemalloc.start()
        try:
            draw_subset(256, k, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 256 * k

    def test_oversized_rejected(self):
        with pytest.raises(DomainError):
            draw_subset(4, 17, seed=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_non_integer_size_rejected(self, k):
        # unchecked, 2.5 failed inside numpy with an IndexError
        with pytest.raises(DomainError, match="integer"):
            draw_subset(8, k, seed=1)

    @pytest.mark.parametrize("side", [2.5, 4.0, True, 0, 1])
    def test_non_integer_side_rejected(self, side):
        # unchecked, 2.5, 4.0 and True returned a sample of that side, and
        # N = 1 was taken, though discretize and compute_rn refused it
        with pytest.raises(DomainError, match="grid side"):
            draw_subset(side, 1, seed=1)

    def test_inclusion_frequency_and_chi_square(self):
        trials = 100_000
        counts = np.zeros(16)
        for seed in spawn_seeds(777, trials):
            counts[draw_subset(4, 8, seed).flat] += 1
        freq = counts / trials
        assert np.max(np.abs(freq - 0.5)) < 0.01
        stat = float(np.sum((counts - trials * 0.5) ** 2 / (trials * 0.5)))
        # inclusion counts are negatively correlated, so the plain Pearson
        # statistic is conservative against the chi2(15) threshold
        assert stat < chi2.ppf(0.99, df=15)


class TestDrawSpherePoints:
    def test_single_point_ranges(self):
        p = draw_sphere_points(1, seed=5)
        assert 0.0 <= p.theta[0] <= np.pi
        assert 0.0 <= p.phi[0] < 2 * np.pi

    def test_moments(self):
        p = draw_sphere_points(1_000_000, seed=42)
        z = np.cos(p.theta)
        assert abs(np.mean(z)) < 0.003
        assert abs(np.mean(z * z) - 1.0 / 3.0) < 0.003
        assert abs(np.mean(z > 0) - 0.5) < 0.002

    def test_determinism(self):
        a = draw_sphere_points(100, seed=9)
        b = draw_sphere_points(np.int64(100), seed=9)  # a numpy integer count is a count
        assert np.array_equal(a.theta, b.theta) and np.array_equal(a.phi, b.phi)

    def test_q_domain(self):
        with pytest.raises(DomainError):
            draw_sphere_points(0, seed=1)

    @pytest.mark.parametrize("q", [2.5, 3.0, True])
    def test_non_integer_count_rejected(self, q):
        # unchecked, 2.5 failed inside numpy with a TypeError
        with pytest.raises(DomainError, match="integer"):
            draw_sphere_points(q, seed=1)


class TestSampleSize:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("arg", ["r", "eps", "c_univ"])
    def test_non_finite_arguments_rejected(self, arg, bad):
        args = {"r": 2.0, "eps": 0.1, "dim": 64, "c_univ": 1.0, arg: bad}
        with pytest.raises(DomainError, match="finite"):
            sample_size(**args)

    @pytest.mark.parametrize("args", [
        {"c_univ": 1e308},  # finite inputs, infinite size
        {"eps": 1e-200},  # (r/eps)^2 overflows
        {"eps": 5e-324, "dim": 1},  # inf * ln 1 is NaN
    ])
    def test_non_finite_size_rejected(self, args):
        args = {"r": 2.0, "eps": 0.1, "dim": 64, "c_univ": 1.0, **args}
        with pytest.raises(DomainError, match="sample size is not finite"):
            sample_size(**args)


    @pytest.mark.parametrize("dim", [1, 0, -4, 2.5, True])
    def test_fewer_than_two_coefficients_rejected(self, dim):
        # ln 1 = 0: unchecked, D = 1 and True gave a size of 0, D <= 0 failed
        # as a size that is not finite, and D = 2.5 was taken
        with pytest.raises(DomainError, match=rf"D must be >= 2 and an integer, got {dim!r}$"):
            sample_size(2.0, 0.1, dim, 1.0)

    def test_two_coefficients_give_the_formula(self):
        assert sample_size(2.0, 0.1, 2, 1.0) == math.ceil(400 * math.log(20) ** 2 * math.log(2))


class TestSeeds:
    def test_spawn_deterministic(self):
        assert spawn_seeds(5, 10) == spawn_seeds(5, 10)
        assert spawn_seeds(5, 10) != spawn_seeds(6, 10)

    def test_spawned_unique(self):
        seeds = spawn_seeds(123, 1000)
        assert len(set(seeds)) == 1000


class TestInvariantValidation:
    def test_sample_set_rejects_duplicates(self):
        with pytest.raises(StructuralError):
            SampleSet(side=4, flat=np.array([1, 1, 2]))

    def test_sample_set_rejects_unsorted_indices(self):
        with pytest.raises(StructuralError, match="ascending"):
            SampleSet(side=4, flat=[2, 1])

    @pytest.mark.parametrize("side", [2.5, 4.0, True, 0, 1])
    def test_sample_set_rejects_non_integer_side(self, side):
        with pytest.raises(DomainError, match="grid side"):
            SampleSet(side=side, flat=[0])
        assert SampleSet(side=np.int64(4), flat=[0, 5]).side == 4

    def test_sample_set_rejects_out_of_range(self):
        with pytest.raises(StructuralError):
            SampleSet(side=4, flat=np.array([16]))

    def test_sample_set_rejects_non_integer_indices(self):
        for flat in ([1.5, 2.9], [True, False], [1.0, np.nan], [1.0, np.inf], ["1"]):
            with pytest.raises(StructuralError, match="integers"):
                SampleSet(side=4, flat=np.array(flat))
        got = SampleSet(side=4, flat=np.array([1.0, 15.0]))
        assert got.flat.dtype == np.int64 and got.flat.tolist() == [1, 15]
        assert SampleSet(side=4, flat=np.array([], dtype=float)).flat.size == 0

    def test_sample_set_rejects_a_2d_array(self):
        for flat in ([[1, 2], [3, 5]], 3):
            with pytest.raises(StructuralError, match="1-d"):
                SampleSet(side=4, flat=np.array(flat))

    def test_multiset_rejects_bad_coordinates(self):
        with pytest.raises(DataError):
            SampleMultiset(theta=[np.nan, 7.0], phi=[0.0, -3.0])
        with pytest.raises(DataError):
            SampleMultiset(theta=[1.0], phi=[np.inf])
        for theta in (7.0, -1e-9, np.pi + 1e-12):
            with pytest.raises(DomainError, match="colatitudes"):
                SampleMultiset(theta=[theta], phi=[0.0])
        pts = SampleMultiset(theta=[0.0, np.pi], phi=[-3.0, 100.0])
        assert pts.theta.tolist() == [0.0, np.pi]

    def test_multiset_shape_check(self):
        with pytest.raises(StructuralError):
            SampleMultiset(theta=np.ones(3), phi=np.ones(4))


CC_HALF = TORUS_BATTERY["cc_half"]
Y_MIX = sphere.SphericalSignal(2, np.arange(1.0, 10.0))

# id -> (call, least, what, a valid value): every public function that takes a
# size, count or seed, called with that one argument varied
INTEGER_ARGUMENTS = {
    "rng_from_seed.seed": (rng_from_seed, 0, "seed", 3),
    "spawn_seeds.master_seed": (lambda v: spawn_seeds(v, 2), 0, "master seed", 5),
    "spawn_seeds.count": (lambda v: spawn_seeds(5, v), 0, "seed count", 2),
    "SampleSet.side": (lambda v: SampleSet(side=v, flat=[0]), 2, "grid side N", 4),
    "draw_subset.side": (lambda v: draw_subset(v, 1, 1), 2, "grid side N", 4),
    "draw_subset.k": (lambda v: draw_subset(8, v, 1), 0, "subset size", 3),
    "draw_subset.seed": (lambda v: draw_subset(8, 3, v), 0, "seed", 3),
    "draw_subset.seed_full_grid": (lambda v: draw_subset(2, 4, v), 0, "seed", 3),
    "draw_sphere_points.q": (lambda v: draw_sphere_points(v, 1), 1, "point count", 3),
    "draw_sphere_points.seed": (lambda v: draw_sphere_points(3, v), 0, "seed", 3),
    "sample_size.dim": (lambda v: sample_size(2.0, 0.1, v, 1.0), 2, "the coefficient count D", 9),
    "best_s_truncation.s": (lambda v: best_s_truncation(np.ones(4), v), 1, "S", 2),
    "discretize.side": (lambda v: torus.discretize(CC_HALF, v), 2, "grid side N", 8),
    "compute_rn.side": (lambda v: torus.compute_rn(CC_HALF.analytic, v), 2, "grid side N", 8),
    "estimate_norms.refinement": (lambda v: torus.estimate_norms(CC_HALF, v), 8, "refinement", 16),
    "verify_fr_bound.side": (lambda v: torus.verify_fr_bound(CC_HALF, v), 2, "grid side N", 8),
    "verify_decay.side": (lambda v: torus.verify_decay(CC_HALF, v), 2, "grid side N", 8),
    "verify_riemann_lemma.side": (
        lambda v: torus.verify_riemann_lemma(CC_HALF, v), 2, "grid side N", 8),
    "verify_l2_lower_bound.side": (
        lambda v: torus.verify_l2_lower_bound(CC_HALF, v), 2, "grid side N", 8),
    "SphericalSignal.bandwidth": (
        lambda v: sphere.SphericalSignal(v, np.ones(4)), 0, "bandwidth", 1),
    "QuadratureRule.n_phi": (lambda v: sphere.QuadratureRule([1.0], [1.0], v, 0), 1, "n_phi", 3),
    "build_quadrature.bandwidth": (sphere.build_quadrature, 1, "bandwidth", 2),
    "basis_matrix.bandwidth": (
        lambda v: sphere.basis_matrix(v, [0.5], [0.5]), 0, "bandwidth", 2),
    "analyze.bandwidth": (
        lambda v: sphere.analyze(np.ones(28), sphere.build_quadrature(3), v), 0, "bandwidth", 2),
    "compute_rl.bandwidth": (
        lambda v: sphere.compute_rl(sphere.estimate_sphere_norms(Y_MIX), v), 2, "bandwidth", 2),
    "build_sphere_battery.bandwidth": (build_sphere_battery, 0, "bandwidth", 4),
    "make_sphere_operator.bandwidth": (
        lambda v: solver.make_sphere_operator(draw_sphere_points(3, 1), v), 0, "bandwidth", 2),
    "SolverConfig.max_iter": (
        lambda v: solver.SolverConfig(delta=0.1, max_iter=v), 1, "max_iter", 10),
    "torus_field.side": (
        lambda v: solver.torus_field(CC_HALF, v, allow_uncertified=True), 2, "grid side N", 8),
    "trial.seed_torus": (
        lambda v: solver.trial(solver.torus_field(CC_HALF, 16, allow_uncertified=True), 0.1, v),
        0, "seed", 3),
    "trial.seed_sphere": (
        lambda v: solver.trial(solver.sphere_field(Y_MIX), 0.1, v), 0, "seed", 3),
    "recover_torus.side": (
        lambda v: solver.recover_torus(CC_HALF, v, 0.1, 1, allow_uncertified=True),
        2, "grid side N", 16),
    "recover_torus.seed": (
        lambda v: solver.recover_torus(CC_HALF, 16, 0.1, v, allow_uncertified=True),
        0, "seed", 3),
    "recover_sphere.seed": (lambda v: solver.recover_sphere(Y_MIX, 0.1, v), 0, "seed", 3),
}


def _not_integers(least: int) -> list:
    """Values check_integer refuses: floats (integral ones too), bool, a string, least - 1."""
    values = [2.5, 2.0, np.float64(2.0), True, str(least), least - 1, least + 0.5]
    return list({repr(v): v for v in values}.values())


class TestIntegerRule:
    """sampling.check_integer is the one rule for every size, count and seed.

    Unchecked, a float seed ran the stream of its integer part, a negative
    one failed inside numpy, estimate_norms truncated a float refinement,
    best_s_truncation failed on a float S with a TypeError, a QuadratureRule
    of n_phi = 2.5 failed only at len(), and a sample of side N = 1 was drawn.
    """

    @pytest.mark.parametrize("call, least, what, bad", [
        pytest.param(call, least, what, bad, id=f"{name}-{bad!r}")
        for name, (call, least, what, _) in INTEGER_ARGUMENTS.items()
        for bad in _not_integers(least)
    ])
    def test_refused_with_its_name(self, call, least, what, bad):
        message = f"{what} must be >= {least} and an integer, got {bad!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(bad)

    @pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
    def test_numpy_integer_accepted(self, name):
        call, *_, valid = INTEGER_ARGUMENTS[name]
        call(np.int64(valid))
