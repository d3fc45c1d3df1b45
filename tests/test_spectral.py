import dataclasses
import math

import numpy as np
import pytest

from frkit.errors import DegenerateInputError, DomainError, StructuralError
from frkit.sampling import rng_from_seed
from frkit.battery import TORUS_BATTERY, build_sphere_battery
import frkit.spectral as spectral
from frkit.spectral import (
    best_s_truncation,
    forward_dft,
    fourier_ratio,
    inverse_dft,
    wrapped_mag_sq_grid,
)
from frkit.sphere import compute_rl, estimate_sphere_norms, verify_sphere_fr_bound
from frkit.torus import compute_rn, verify_fr_bound
from conftest import best_tail_by_enumeration, dft_direct, idft_direct


class TestForwardDft:
    def test_constant_field(self):
        spec = forward_dft(np.ones((8, 8))).ravel()
        assert spec[0] == pytest.approx(8.0)
        assert np.max(np.abs(spec[1:])) == 0.0

    def test_delta_field(self):
        vals = np.zeros((8, 8))
        vals[0, 0] = 1.0
        spec = forward_dft(vals)
        assert np.allclose(spec, 1.0 / 8.0, atol=1e-15)

    def test_cosine_against_direct_summation(self):
        n = 16
        x = np.arange(n)
        x1, _ = np.meshgrid(x, x, indexing="ij")
        fld = np.cos(2 * np.pi * x1 / n)
        spec = forward_dft(fld)
        expected = dft_direct(fld.ravel(), n, 2)
        assert np.max(np.abs(spec.ravel() - expected)) < 1e-10
        # mass only at m = (+-1, 0)
        grid = np.abs(spec)
        mask = np.zeros((n, n), dtype=bool)
        mask[1, 0] = mask[n - 1, 0] = True
        assert np.max(grid[~mask]) < 1e-12
        assert grid[1, 0] == pytest.approx(n / 2.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64, np.complex128])
    def test_bitwise_fftn_times_the_scale(self, rng, dtype):
        # the transform runs in one output array, in place after the last axis
        for side, dims in [(256, 2), (9, 2), (2, 2), (12, 1), (5, 3)]:
            shape = (side,) * dims
            vals = 3.0 * rng.standard_normal(shape)
            if dtype == np.complex128:
                vals = vals + 1j * rng.standard_normal(shape)
            vals = vals.astype(dtype)
            want = np.fft.fftn(vals) * side ** (-dims / 2.0)
            got = forward_dft(vals)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_length_mismatch_is_structural(self):
        for shape in ((8, 7), (4, 4, 2), ()):
            with pytest.raises(StructuralError):
                forward_dft(np.ones(shape))
            with pytest.raises(StructuralError):
                inverse_dft(np.ones(shape))


class TestInverseDft:
    def test_roundtrip(self, rng):
        for side, dims in [(8, 2), (5, 2), (12, 1), (3, 3)]:
            shape = (side,) * dims
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            back = inverse_dft(forward_dft(vals))
            assert back.shape == shape
            assert np.linalg.norm(back - vals) <= 1e-12 * np.linalg.norm(vals)

    def test_delta_spectrum_is_character(self):
        side = 8
        coeffs = np.zeros((side, side), dtype=complex)
        m0 = (3, 5)
        coeffs[m0] = 1.0
        fld = inverse_dft(coeffs)
        x = np.stack(np.unravel_index(np.arange(64), (side, side)), axis=1)
        expected = np.exp(2j * np.pi * (x @ m0) / side) / side
        assert np.max(np.abs(fld.ravel() - expected)) < 1e-14

    def test_random_spectrum_against_direct(self, rng):
        side = 4
        coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        fld = inverse_dft(coeffs.reshape(side, side))
        expected = idft_direct(coeffs, side, 2)
        assert np.max(np.abs(fld.ravel() - expected)) < 1e-12


class TestParseval:
    def test_many_sizes(self):
        rng = rng_from_seed(7)
        for dims in (1, 2):
            for side in range(2, 65, 7):
                fld = rng.standard_normal((side,) * dims)
                spec_l2, fld_l2 = np.linalg.norm(forward_dft(fld)), np.linalg.norm(fld)
                assert abs(spec_l2 - fld_l2) <= 1e-10 * fld_l2

    def test_translation_modulation(self, rng):
        side = 12
        vals = rng.standard_normal((side, side))
        spec = forward_dft(vals).ravel()
        shift = (3, 7)
        shifted = np.roll(vals, shift=(-shift[0], -shift[1]), axis=(0, 1))
        # translated g(x) = g(x + shift): coefficient picks up chi(shift . m)
        spec_shift = forward_dft(shifted).ravel()
        m = np.stack(np.unravel_index(np.arange(side * side), (side, side)), axis=1)
        factor = np.exp(2j * np.pi * (m @ shift) / side)
        assert np.max(np.abs(spec_shift - factor * spec)) <= 1e-12 * np.linalg.norm(spec)


class TestFourierRatio:
    def test_constant_is_one(self):
        spec = forward_dft(3.7 * np.ones((8, 8)))
        assert fourier_ratio(spec) == pytest.approx(1.0, abs=1e-12)

    def test_delta_field_is_sqrt_d(self):
        vals = np.zeros((8, 8))
        vals[0, 5] = 2.0
        spec = forward_dft(vals)
        assert fourier_ratio(spec) == pytest.approx(8.0, rel=1e-12)

    def test_cosine_is_sqrt2(self):
        n = 16
        x = np.arange(n)
        x1, _ = np.meshgrid(x, x, indexing="ij")
        spec = forward_dft(np.cos(2 * np.pi * x1 / n))
        assert fourier_ratio(spec) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_bounds_and_one_sparse_equality(self, rng):
        for _ in range(20):
            side = int(rng.integers(2, 17))
            shape = (side, side)
            spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            fr = fourier_ratio(spec)
            assert 1.0 - 1e-12 <= fr <= side * (1 + 1e-12)
        one_sparse = np.zeros((5, 5), dtype=complex)
        one_sparse[1, 2] = 1.0 - 2.0j
        assert fourier_ratio(one_sparse) == pytest.approx(1.0, abs=1e-14)

    def test_zero_spectrum_degenerate(self):
        with pytest.raises(DegenerateInputError):
            fourier_ratio(np.zeros((4, 4), dtype=complex))


class TestTruncation:
    def test_single_coefficient(self):
        spec = np.array([3.0, 0, 0, 0], dtype=complex)
        kept, tail = best_s_truncation(spec, 1)
        assert tail == 0.0
        assert kept[0] == 3.0

    def test_against_exhaustive_enumeration(self):
        coeffs = np.array([2.0, 1.0, 1.0, 1.0, 1.0], dtype=complex)
        _, tail = best_s_truncation(coeffs, 2)
        assert tail == pytest.approx(math.sqrt(3.0) / math.sqrt(8.0), rel=1e-14)
        assert tail == pytest.approx(best_tail_by_enumeration(coeffs, 2), rel=1e-14)

    def test_stechkin_tail_bound(self, rng):
        for _ in range(30):
            d = int(rng.integers(4, 40))
            spec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            fr = fourier_ratio(spec)
            for s in range(1, d + 1):
                _, tail = best_s_truncation(spec, s)
                assert tail <= fr / math.sqrt(s) + 1e-12

    def test_stechkin_budget_hits_eps(self, rng):
        for eps in (0.05, 0.1, 0.25):
            for _ in range(10):
                d = 512
                decay = (1.0 + np.arange(d)) ** -1.5
                spec = decay * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
                s = min(math.ceil(fourier_ratio(spec) ** 2 / eps**2), d)
                _, tail = best_s_truncation(spec, s)
                assert tail <= eps

    def test_lexicographic_tie_break(self):
        coeffs = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
        kept, _ = best_s_truncation(coeffs, 2)
        assert list(np.nonzero(kept)[0]) == [0, 1]
        # row-major on a grid: kept in the shape it came in
        kept, _ = best_s_truncation(np.ones((2, 2), dtype=complex), 3)
        assert kept.shape == (2, 2)
        assert list(zip(*np.nonzero(kept))) == [(0, 0), (0, 1), (1, 0)]

    def test_s_out_of_range(self):
        spec = np.ones(4, dtype=complex)
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


class TestFrBoundReport:
    """Both settings fill in one report; r and slack are derived, never stored."""

    def test_both_settings_return_one_type(self):
        spec, signal = TORUS_BATTERY["cos_small"], build_sphere_battery(8)["mix5"]
        torus = compute_rn(spec.analytic, 64)
        sphere = compute_rl(estimate_sphere_norms(signal), 8)
        assert type(torus) is type(sphere) is spectral.FrBoundReport
        assert isinstance(torus.certified, bool) and sphere.certified is None
        for rep in (torus, sphere):
            assert rep.r == rep.a + rep.b + rep.c

    def test_slack_is_r_minus_the_measured_ratio(self):
        checks = [verify_fr_bound(TORUS_BATTERY["cc_half"], 64),
                  verify_sphere_fr_bound(build_sphere_battery(16)["gauss_heat"])]
        for chk in checks:
            assert type(chk) is spectral.FrCheck
            assert chk.slack == chk.report.r - chk.fr_measured

    def test_fields_hold_no_derived_value(self):
        assert [f.name for f in dataclasses.fields(spectral.FrBoundReport)] == [
            "a", "b", "c", "certified", "provenance",
        ]
        assert [f.name for f in dataclasses.fields(spectral.FrCheck)] == [
            "report", "fr_measured", "norms",
        ]
