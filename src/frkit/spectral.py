"""Discrete Fourier analysis on Z_N^d.

Unitary transforms (N^{-d/2} normalization, so Parseval holds with
unnormalized counting-measure norms on the grid), the Fourier ratio
||a||_1/||a||_2, best-S truncation with its Stechkin-type tail bound,
and the grid of wrapped frequency magnitudes |k|_* = min(k, N-k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, ModeError, StructuralError

TORUS = "torus"
SPHERE = "sphere"
UNITARY_NORMALIZATION = "unitary-N^{-d/2}"

_MAX_DIMS = 3


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridField:
    """Complex-valued function on the grid Z_N^d, stored flat in row-major order."""

    side: int
    dims: int
    values: np.ndarray
    is_real: bool = False

    def __post_init__(self):
        if self.side < 2:
            raise DomainError(f"grid side must be >= 2, got {self.side}")
        if not 1 <= self.dims <= _MAX_DIMS:
            raise DomainError(f"dims must be in 1..{_MAX_DIMS}, got {self.dims}")
        vals = _frozen_array(self.values, np.complex128).ravel()
        if vals.size != self.side**self.dims:
            raise StructuralError(
                f"expected {self.side ** self.dims} values, got {vals.size}"
            )
        if self.is_real and np.any(vals.imag != 0.0):
            raise StructuralError("realness flag set but imaginary parts are nonzero")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_real(cls, side: int, dims: int, values) -> "GridField":
        arr = np.asarray(values, dtype=float).ravel()
        return cls(side=side, dims=dims, values=arr.astype(np.complex128), is_real=True)

    @property
    def grid(self) -> np.ndarray:
        return self.values.reshape((self.side,) * self.dims)

    @property
    def l2(self) -> float:
        """Unnormalized L2(Z_N^d) norm, i.e. sqrt of the plain sum of squares."""
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class SpectralVector:
    """Indexed coefficient sequence, either torus (Z_N^d) or sphere ((l, m), l <= L) mode."""

    mode: str
    coeffs: np.ndarray
    side: int | None = None
    dims: int | None = None
    bandwidth: int | None = None
    normalization: str = UNITARY_NORMALIZATION

    def __post_init__(self):
        coeffs = _frozen_array(self.coeffs, np.complex128).ravel()
        object.__setattr__(self, "coeffs", coeffs)
        if self.mode == TORUS:
            if self.side is None or self.dims is None:
                raise StructuralError("torus mode needs side and dims")
            if coeffs.size != self.side**self.dims:
                raise StructuralError(
                    f"expected {self.side ** self.dims} coefficients, got {coeffs.size}"
                )
        elif self.mode == SPHERE:
            if self.bandwidth is None:
                raise StructuralError("sphere mode needs a bandwidth")
            if coeffs.size != (self.bandwidth + 1) ** 2:
                raise StructuralError(
                    f"expected {(self.bandwidth + 1) ** 2} coefficients, got {coeffs.size}"
                )
        else:
            raise ModeError(f"unknown mode {self.mode!r}")

    @property
    def norm1(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    @property
    def norm2(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def wrapped_mag_sq_grid(side: int, dims: int) -> np.ndarray:
    """|m|_*^2 for every frequency of Z_N^d, shaped (N,)*d."""
    k = np.arange(side)
    w = np.minimum(k, side - k).astype(np.int64)
    w2 = w * w
    out = w2
    for _ in range(dims - 1):
        out = out[..., None] + w2
    return out


def forward_dft(fld: GridField) -> SpectralVector:
    """Unitary DFT: coefficient at m is N^{-d/2} sum_x e^{-2 pi i x.m / N} g(x)."""
    scale = fld.side ** (-fld.dims / 2.0)
    coeffs = np.fft.fftn(fld.grid) * scale
    return SpectralVector(
        mode=TORUS, coeffs=coeffs.ravel(), side=fld.side, dims=fld.dims
    )


def inverse_dft(spec: SpectralVector) -> GridField:
    """Exact inverse of forward_dft under the unitary normalization."""
    if spec.mode != TORUS:
        raise ModeError("inverse_dft requires a torus-mode spectral vector")
    shape = (spec.side,) * spec.dims
    grid = np.fft.ifftn(spec.coeffs.reshape(shape)) * spec.side ** (spec.dims / 2.0)
    return GridField(side=spec.side, dims=spec.dims, values=grid.ravel())


def fourier_ratio(spec: SpectralVector) -> float:
    """||a||_1 / ||a||_2 of the coefficient sequence; lies in [1, sqrt(#indices)]."""
    n2 = spec.norm2
    if n2 == 0.0:
        raise DegenerateInputError("Fourier ratio undefined for the zero spectrum")
    return spec.norm1 / n2


def best_s_truncation(spec: SpectralVector, s: int) -> tuple[SpectralVector, float]:
    """Keep the s largest-magnitude coefficients (lexicographic index tie-break).

    Returns the truncated vector and the relative l2 tail
    ||a - a_s||_2 / ||a||_2, which is guaranteed <= FR(a)/sqrt(s).
    """
    n = spec.coeffs.size
    if not 1 <= s <= n:
        raise DomainError(f"S must lie in [1, {n}], got {s}")
    n2 = spec.norm2
    if n2 == 0.0:
        raise DegenerateInputError("truncation tail undefined for the zero spectrum")
    mags = np.abs(spec.coeffs)
    # primary key: magnitude descending; secondary: storage (lexicographic) index ascending
    order = np.lexsort((np.arange(n), -mags))
    keep = order[:s]
    kept = np.zeros_like(spec.coeffs)
    kept[keep] = spec.coeffs[keep]
    tail = float(np.linalg.norm(spec.coeffs - kept)) / n2
    truncated = SpectralVector(
        mode=spec.mode,
        coeffs=kept,
        side=spec.side,
        dims=spec.dims,
        bandwidth=spec.bandwidth,
    )
    return truncated, tail


def stechkin_budget(fr: float, eps: float) -> int:
    """Support size ceil(FR^2 / eps^2) that brings the relative l2 tail under eps."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    return int(math.ceil(fr * fr / (eps * eps)))
