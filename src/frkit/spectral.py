"""Discrete Fourier analysis on Z_N^d, on plain numpy arrays.

A field on Z_N^d is an array of shape (N,)*d, and so is its spectrum; N and
d come from the shape. The transforms are unitary (N^{-d/2} normalization,
so Parseval holds with unnormalized counting-measure norms on the grid).
Also here: the Fourier ratio ||a||_1/||a||_2 of any coefficient array (the
sphere's coefficient vectors included), best-S truncation with its
Stechkin-type tail bound, and the grid of wrapped frequency magnitudes
|k|_* = min(k, N-k).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, DomainError, StructuralError


def wrapped_mag_sq_grid(side: int, dims: int) -> np.ndarray:
    """|m|_*^2 for every frequency of Z_N^d, shaped (N,)*d."""
    k = np.arange(side)
    w = np.minimum(k, side - k).astype(np.int64)
    w2 = w * w
    out = w2
    for _ in range(dims - 1):
        out = out[..., None] + w2
    return out


def _side(grid: np.ndarray) -> int:
    """N of a (N,)*d grid; any other shape is a StructuralError."""
    if grid.ndim == 0 or len(set(grid.shape)) != 1:
        raise StructuralError(f"a grid on Z_N^d has shape (N,)*d, got {grid.shape}")
    return grid.shape[0]


def forward_dft(values) -> np.ndarray:
    """Unitary DFT: coefficient at m is N^{-d/2} sum_x e^{-2 pi i x.m / N} g(x)."""
    values = np.asarray(values)
    scale = _side(values) ** (-values.ndim / 2.0)
    return np.fft.fftn(values) * scale


def inverse_dft(coeffs) -> np.ndarray:
    """Exact inverse of forward_dft under the unitary normalization."""
    coeffs = np.asarray(coeffs)
    scale = _side(coeffs) ** (coeffs.ndim / 2.0)
    return np.fft.ifftn(coeffs) * scale


def fourier_ratio(coeffs) -> float:
    """||a||_1 / ||a||_2 of the coefficients; lies in [1, sqrt(#indices)]."""
    coeffs = np.ravel(coeffs)
    n2 = float(np.linalg.norm(coeffs))
    if n2 == 0.0:
        raise DegenerateInputError("Fourier ratio undefined for the zero spectrum")
    return float(np.sum(np.abs(coeffs))) / n2


def best_s_truncation(coeffs, s: int) -> tuple[np.ndarray, float]:
    """Keep the s largest-magnitude coefficients (row-major index tie-break).

    Returns the truncated array, shaped like coeffs, and the relative l2 tail
    ||a - a_s||_2 / ||a||_2, which is guaranteed <= FR(a)/sqrt(s).
    """
    coeffs = np.asarray(coeffs)
    flat = coeffs.ravel()
    n = flat.size
    if not 1 <= s <= n:
        raise DomainError(f"S must lie in [1, {n}], got {s}")
    n2 = float(np.linalg.norm(flat))
    if n2 == 0.0:
        raise DegenerateInputError("truncation tail undefined for the zero spectrum")
    # primary key: magnitude descending; secondary: row-major index ascending
    keep = np.lexsort((np.arange(n), -np.abs(flat)))[:s]
    kept = np.zeros_like(flat)
    kept[keep] = flat[keep]
    tail = float(np.linalg.norm(flat - kept)) / n2
    return kept.reshape(coeffs.shape), tail
