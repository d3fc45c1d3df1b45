import numpy as np
import pytest
from scipy.stats import chi2

from frkit.errors import DomainError, StructuralError
from frkit.sampling import (
    SampleMultiset,
    SampleSet,
    draw_sphere_points,
    draw_subset,
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

    def test_multiset_shape_check(self):
        with pytest.raises(StructuralError):
            SampleMultiset(theta=np.ones(3), phi=np.ones(4))
