"""Shared independent oracles for the test suite.

These deliberately avoid the library's own transform paths: brute-force
summation, exhaustive enumeration, and quadrature stand on their own so they
can certify the fast implementations.
"""

import copy

import numpy as np
import pytest

from frkit.sampling import rng_from_seed

# pass/fail lines collected by the acceptance suite, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dft_direct(values: np.ndarray, side: int, dims: int) -> np.ndarray:
    """O(N^{2d}) direct summation of the unitary DFT, flat row-major output."""
    total = side**dims
    coords = np.stack(np.unravel_index(np.arange(total), (side,) * dims), axis=1)
    out = np.zeros(total, dtype=np.complex128)
    scale = side ** (-dims / 2.0)
    for i in range(total):
        phases = np.exp(-2j * np.pi * (coords @ coords[i]) / side)
        out[i] = scale * np.sum(phases * values)
    return out


def idft_direct(coeffs: np.ndarray, side: int, dims: int) -> np.ndarray:
    total = side**dims
    coords = np.stack(np.unravel_index(np.arange(total), (side,) * dims), axis=1)
    out = np.zeros(total, dtype=np.complex128)
    scale = side ** (-dims / 2.0)
    for i in range(total):
        phases = np.exp(2j * np.pi * (coords @ coords[i]) / side)
        out[i] = scale * np.sum(phases * coeffs)
    return out


def best_tail_by_enumeration(coeffs: np.ndarray, s: int) -> float:
    """Relative l2 tail minimized over every size-s support (small inputs only)."""
    from itertools import combinations

    n2 = np.linalg.norm(coeffs)
    best = np.inf
    for keep in combinations(range(len(coeffs)), s):
        dropped = np.delete(coeffs, keep)
        best = min(best, np.linalg.norm(dropped) / n2)
    return best


def midpoint_integral_2d(fn, m: int = 512) -> float:
    """Midpoint quadrature of a function on [0,1]^2."""
    u = (np.arange(m) + 0.5) / m
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    return float(np.mean(fn(u1, u2)))


def dense_operator(mat, norm_bound=None):
    """Wrap a dense matrix as a complex MeasurementOperator.

    norm_bound defaults to the exact spectral norm of mat.
    """
    from frkit.solver import MeasurementOperator

    return MeasurementOperator(
        forward=lambda a, nz: mat @ a,
        adjoint=lambda y: mat.conj().T @ y,
        shape=mat.shape,
        norm_bound=float(np.linalg.norm(mat, 2)) if norm_bound is None else norm_bound,
    )


def counting_operator(op):
    """A shallow copy of op that counts its forward and adjoint calls in .calls.

    An operator with a normal product has its normal calls counted too. The
    support a caller hands forward or normal is passed through.
    """
    counted = copy.copy(op)
    counted.calls = {"forward": 0, "adjoint": 0}

    def forward(a, nz=None):
        counted.calls["forward"] += 1
        return op.forward(a, nz)

    def adjoint(y):
        counted.calls["adjoint"] += 1
        return op.adjoint(y)

    def normal(a, nz):
        counted.calls["normal"] += 1
        return op.normal(a, nz)

    counted.forward, counted.adjoint = forward, adjoint
    if op.normal is not None:
        counted.calls["normal"] = 0
        counted.normal = normal
    return counted


def random_bpdn_instance(seed, d_pool=(8, 16, 25, 36, 64)):
    """Well-posed random BPDN instance: sparse truth, 1% noise, feasible delta."""
    rng = rng_from_seed(seed)
    dim = int(rng.choice(d_pool))
    q = int(rng.integers(dim // 2, dim + 1))
    s = int(rng.integers(1, 5))
    mat = (rng.standard_normal((q, dim)) + 1j * rng.standard_normal((q, dim))) / np.sqrt(2 * q)
    truth = np.zeros(dim, dtype=complex)
    idx = rng.choice(dim, s, replace=False)
    truth[idx] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    noise = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    noise *= 0.01 * np.linalg.norm(mat @ truth) / np.linalg.norm(noise)
    y = mat @ truth + noise
    return mat, y, 1.2 * float(np.linalg.norm(noise)), truth


@pytest.fixture
def rng():
    return rng_from_seed(20260809)


@pytest.fixture
def table_builds(monkeypatch):
    """Degree of every Legendre table built from here on, norm-table cache cleared."""
    import frkit.sphere as sph

    degrees, build = [], sph._legendre_table

    def counted(lmax, theta):
        degrees.append(lmax)
        return build(lmax, theta)

    monkeypatch.setattr(sph, "_legendre_table", counted)
    sph._norm_tables.cache_clear()
    return degrees
