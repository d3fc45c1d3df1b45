import math

import numpy as np
import pytest

from frkit.errors import DegenerateInputError, DomainError, ModeError, StructuralError
from frkit.sampling import rng_from_seed
from frkit.spectral import (
    GridField,
    SpectralVector,
    best_s_truncation,
    forward_dft,
    fourier_ratio,
    inverse_dft,
    stechkin_budget,
    wrapped_mag_sq_grid,
)
from conftest import best_tail_by_enumeration, dft_direct, idft_direct


class TestForwardDft:
    def test_constant_field(self):
        spec = forward_dft(GridField.from_real(8, 2, np.ones(64)))
        assert spec.coeffs[0] == pytest.approx(8.0)
        assert np.max(np.abs(spec.coeffs[1:])) == 0.0

    def test_delta_field(self):
        vals = np.zeros(64)
        vals[0] = 1.0
        spec = forward_dft(GridField.from_real(8, 2, vals))
        assert np.allclose(spec.coeffs, 1.0 / 8.0, atol=1e-15)

    def test_cosine_against_direct_summation(self):
        n = 16
        x = np.arange(n)
        x1, _ = np.meshgrid(x, x, indexing="ij")
        vals = np.cos(2 * np.pi * x1 / n).ravel()
        fld = GridField.from_real(n, 2, vals)
        spec = forward_dft(fld)
        expected = dft_direct(fld.values, n, 2)
        assert np.max(np.abs(spec.coeffs - expected)) < 1e-10
        # mass only at m = (+-1, 0)
        grid = np.abs(spec.coeffs.reshape(n, n))
        mask = np.zeros((n, n), dtype=bool)
        mask[1, 0] = mask[n - 1, 0] = True
        assert np.max(grid[~mask]) < 1e-12
        assert grid[1, 0] == pytest.approx(n / 2.0)

    def test_length_mismatch_is_structural(self):
        with pytest.raises(StructuralError):
            GridField.from_real(8, 2, np.ones(63))

    def test_realness_flag_enforced(self):
        with pytest.raises(StructuralError):
            GridField(side=4, dims=1, values=np.ones(4) * (1 + 1j), is_real=True)


class TestInverseDft:
    def test_roundtrip(self, rng):
        for side, dims in [(8, 2), (5, 2), (12, 1), (3, 3)]:
            vals = rng.standard_normal(side**dims) + 1j * rng.standard_normal(side**dims)
            fld = GridField(side=side, dims=dims, values=vals)
            back = inverse_dft(forward_dft(fld))
            assert np.linalg.norm(back.values - vals) <= 1e-12 * np.linalg.norm(vals)

    def test_delta_spectrum_is_character(self):
        side = 8
        coeffs = np.zeros(64, dtype=complex)
        m0 = (3, 5)
        coeffs[np.ravel_multi_index(m0, (side, side))] = 1.0
        fld = inverse_dft(SpectralVector(mode="torus", coeffs=coeffs, side=side, dims=2))
        x = np.stack(np.unravel_index(np.arange(64), (side, side)), axis=1)
        expected = np.exp(2j * np.pi * (x @ m0) / side) / side
        assert np.max(np.abs(fld.values - expected)) < 1e-14

    def test_random_spectrum_against_direct(self, rng):
        side = 4
        coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        spec = SpectralVector(mode="torus", coeffs=coeffs, side=side, dims=2)
        fld = inverse_dft(spec)
        expected = idft_direct(coeffs, side, 2)
        assert np.max(np.abs(fld.values - expected)) < 1e-12

    def test_sphere_mode_rejected(self):
        spec = SpectralVector(mode="sphere", coeffs=np.ones(4, dtype=complex), bandwidth=1)
        with pytest.raises(ModeError):
            inverse_dft(spec)


class TestParseval:
    def test_many_sizes(self):
        rng = rng_from_seed(7)
        for dims in (1, 2):
            for side in range(2, 65, 7):
                vals = rng.standard_normal(side**dims)
                fld = GridField.from_real(side, dims, vals)
                spec = forward_dft(fld)
                assert abs(spec.norm2 - fld.l2) <= 1e-10 * fld.l2

    def test_translation_modulation(self, rng):
        side = 12
        vals = rng.standard_normal(side * side)
        fld = GridField.from_real(side, 2, vals)
        spec = forward_dft(fld)
        shift = (3, 7)
        shifted = np.roll(vals.reshape(side, side), shift=(-shift[0], -shift[1]), axis=(0, 1))
        # translated g(x) = g(x + shift): coefficient picks up chi(shift . m)
        spec_shift = forward_dft(GridField.from_real(side, 2, shifted.ravel()))
        m = np.stack(np.unravel_index(np.arange(side * side), (side, side)), axis=1)
        factor = np.exp(2j * np.pi * (m @ shift) / side)
        assert np.max(np.abs(spec_shift.coeffs - factor * spec.coeffs)) <= 1e-12 * spec.norm2


class TestFourierRatio:
    def test_constant_is_one(self):
        spec = forward_dft(GridField.from_real(8, 2, 3.7 * np.ones(64)))
        assert fourier_ratio(spec) == pytest.approx(1.0, abs=1e-12)

    def test_delta_field_is_sqrt_d(self):
        vals = np.zeros(64)
        vals[5] = 2.0
        spec = forward_dft(GridField.from_real(8, 2, vals))
        assert fourier_ratio(spec) == pytest.approx(8.0, rel=1e-12)

    def test_cosine_is_sqrt2(self):
        n = 16
        x = np.arange(n)
        x1, _ = np.meshgrid(x, x, indexing="ij")
        spec = forward_dft(GridField.from_real(n, 2, np.cos(2 * np.pi * x1 / n).ravel()))
        assert fourier_ratio(spec) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_bounds_and_one_sparse_equality(self, rng):
        for _ in range(20):
            side = int(rng.integers(2, 17))
            coeffs = rng.standard_normal(side * side) + 1j * rng.standard_normal(side * side)
            spec = SpectralVector(mode="torus", coeffs=coeffs, side=side, dims=2)
            fr = fourier_ratio(spec)
            assert 1.0 - 1e-12 <= fr <= side * (1 + 1e-12)
        one_sparse = np.zeros(25, dtype=complex)
        one_sparse[7] = 1.0 - 2.0j
        spec = SpectralVector(mode="torus", coeffs=one_sparse, side=5, dims=2)
        assert fourier_ratio(spec) == pytest.approx(1.0, abs=1e-14)

    def test_zero_spectrum_degenerate(self):
        spec = SpectralVector(mode="torus", coeffs=np.zeros(16, dtype=complex), side=4, dims=2)
        with pytest.raises(DegenerateInputError):
            fourier_ratio(spec)


class TestTruncation:
    def test_single_coefficient(self):
        spec = SpectralVector(mode="torus", coeffs=np.array([3.0, 0, 0, 0], dtype=complex), side=4, dims=1)
        kept, tail = best_s_truncation(spec, 1)
        assert tail == 0.0
        assert kept.coeffs[0] == 3.0

    def test_against_exhaustive_enumeration(self):
        coeffs = np.array([2.0, 1.0, 1.0, 1.0, 1.0], dtype=complex)
        spec = SpectralVector(mode="torus", coeffs=coeffs, side=5, dims=1)
        _, tail = best_s_truncation(spec, 2)
        assert tail == pytest.approx(math.sqrt(3.0) / math.sqrt(8.0), rel=1e-14)
        assert tail == pytest.approx(best_tail_by_enumeration(coeffs, 2), rel=1e-14)

    def test_stechkin_tail_bound(self, rng):
        for _ in range(30):
            d = int(rng.integers(4, 40))
            coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            spec = SpectralVector(mode="torus", coeffs=coeffs, side=d, dims=1)
            fr = fourier_ratio(spec)
            for s in range(1, d + 1):
                _, tail = best_s_truncation(spec, s)
                assert tail <= fr / math.sqrt(s) + 1e-12

    def test_stechkin_budget_hits_eps(self, rng):
        for eps in (0.05, 0.1, 0.25):
            for _ in range(10):
                d = 512
                decay = (1.0 + np.arange(d)) ** -1.5
                coeffs = decay * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
                spec = SpectralVector(mode="torus", coeffs=coeffs, side=d, dims=1)
                s = min(stechkin_budget(fourier_ratio(spec), eps), d)
                _, tail = best_s_truncation(spec, s)
                assert tail <= eps

    def test_lexicographic_tie_break(self):
        coeffs = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
        spec = SpectralVector(mode="torus", coeffs=coeffs, side=4, dims=1)
        kept, _ = best_s_truncation(spec, 2)
        assert list(np.nonzero(kept.coeffs)[0]) == [0, 1]

    def test_s_out_of_range(self):
        spec = SpectralVector(mode="torus", coeffs=np.ones(4, dtype=complex), side=4, dims=1)
        for s in (0, 5):
            with pytest.raises(DomainError):
                best_s_truncation(spec, s)


class TestWrappedMagnitude:
    def test_examples(self):
        grid = wrapped_mag_sq_grid(8, 2)
        assert grid[0, 0] == 0
        assert grid[7, 1] == 2
        assert grid[4, 4] == 32

    def test_component_range(self):
        for n in (2, 5, 8):
            w = wrapped_mag_sq_grid(n, 1)
            assert np.all((0 <= w) & (w <= (n / 2) ** 2))
