import math

import numpy as np
import pytest
from scipy.stats import chi2

from frkit.errors import DomainError, StructuralError
from frkit.sampling import (
    SampleMultiset,
    SampleSet,
    draw_sphere_points,
    draw_subset,
    rng_from_seed,
    sample_size,
    spawn_seeds,
)


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
        b = draw_subset(16, 50, seed=1234)
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

    def test_oversized_rejected(self):
        with pytest.raises(DomainError):
            draw_subset(4, 17, seed=0)

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
        b = draw_sphere_points(100, seed=9)
        assert np.array_equal(a.theta, b.theta) and np.array_equal(a.phi, b.phi)

    def test_q_domain(self):
        with pytest.raises(DomainError):
            draw_sphere_points(0, seed=1)


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

    def test_multiset_shape_check(self):
        with pytest.raises(StructuralError):
            SampleMultiset(theta=np.ones(3), phi=np.ones(4))
