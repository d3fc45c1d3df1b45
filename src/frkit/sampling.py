"""Reproducible random sampling: uniform grid subsets and i.i.d. sphere points.

All randomness flows through numpy's Philox counter-based generator keyed by
an explicit 64-bit seed, so any sample can be regenerated exactly from the
seed recorded in its report. Per-trial seeds are derived from a master seed
with SeedSequence(master).generate_state(n_trials).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def spawn_seeds(master_seed: int, count: int) -> list[int]:
    """Derive per-trial 64-bit seeds from one master seed, deterministically."""
    state = np.random.SeedSequence(int(master_seed)).generate_state(
        count, dtype=np.uint64
    )
    return [int(s) for s in state]


@dataclass(frozen=True)
class SampleSet:
    """Distinct grid points of Z_N^d, sorted by row-major flat index."""

    side: int
    dims: int
    flat: np.ndarray
    seed: int

    def __post_init__(self):
        flat = np.array(self.flat, dtype=np.int64)
        flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)
        if flat.size and (flat.min() < 0 or flat.max() >= self.side**self.dims):
            raise StructuralError("sample indices out of grid range")
        if flat.size != np.unique(flat).size:
            raise StructuralError("sample indices must be distinct")

    def __len__(self) -> int:
        return int(self.flat.size)

    @property
    def coords(self) -> np.ndarray:
        """(k, d) integer coordinates matching the flat indices."""
        if self.flat.size == 0:
            return np.empty((0, self.dims), dtype=np.int64)
        return np.stack(
            np.unravel_index(self.flat, (self.side,) * self.dims), axis=1
        )


@dataclass(frozen=True)
class SampleMultiset:
    """I.i.d. uniform points on S^2 as (theta, phi) pairs; repetitions allowed."""

    theta: np.ndarray
    phi: np.ndarray
    seed: int

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        phi = np.array(self.phi, dtype=float)
        if theta.shape != phi.shape or theta.ndim != 1:
            raise StructuralError("theta and phi must be 1-d arrays of equal length")
        theta.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def __len__(self) -> int:
        return int(self.theta.size)


def draw_subset(side: int, dims: int, k: int, seed: int) -> SampleSet:
    """Uniform size-k subset of Z_N^d via partial Fisher-Yates over the index space."""
    total = side**dims
    if not 0 <= k <= total:
        raise DomainError(f"subset size must lie in [0, {total}], got {k}")
    if k == total:
        return SampleSet(side=side, dims=dims, flat=np.arange(total), seed=seed)
    rng = rng_from_seed(seed)
    pool = np.arange(total, dtype=np.int64)
    for i in range(k):
        j = i + int(rng.integers(0, total - i))
        pool[i], pool[j] = pool[j], pool[i]
    return SampleSet(side=side, dims=dims, flat=np.sort(pool[:k]), seed=seed)


def draw_sphere_points(q: int, seed: int) -> SampleMultiset:
    """q i.i.d. area-uniform sphere points: cos(theta) ~ U[-1, 1], phi ~ U[0, 2 pi)."""
    if q < 1:
        raise DomainError(f"point count must be >= 1, got {q}")
    rng = rng_from_seed(seed)
    z = rng.uniform(-1.0, 1.0, size=q)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=q)
    return SampleMultiset(theta=np.arccos(z), phi=phi, seed=seed)


def empirical_norm(values, expected_count: int | None = None) -> float:
    """Unnormalized root-sum-of-squares over the sampled values (with multiplicity)."""
    vals = np.asarray(values)
    if expected_count is not None and vals.size != expected_count:
        raise StructuralError(
            f"expected {expected_count} sampled values, got {vals.size}"
        )
    return float(np.linalg.norm(vals.ravel()))
