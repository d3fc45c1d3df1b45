"""Sample sizes and reproducible random sampling: grid subsets, sphere points.

The torus is Z_N^2: a torus sample is a set of distinct grid points, kept by
row-major flat index. A sphere sample is i.i.d. area-uniform points, with
repetitions allowed.

sample_size is the one sample-size formula of both settings. All randomness
flows through numpy's Philox counter-based generator keyed by an explicit
64-bit seed, so any sample can be regenerated exactly from the seed recorded
in its report. Per-trial seeds are derived from a master seed with
SeedSequence(master).generate_state(n_trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError


def sample_size(r: float, eps: float, dim: int, c_univ: float) -> int:
    """ceil(C (r/eps)^2 ln(r/eps)^2 ln D): the sample size for D coefficients.

    D is N^2 on the torus, whose caller clamps the size to the grid, and
    (L+1)^2 on the sphere, whose points are drawn with repetition. r, eps
    and C must be finite, and so must the size they give.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must be finite and lie in (0, 1/2), got {eps}")
    if not 1.0 <= r < math.inf:
        raise DomainError(f"r must be finite and >= 1, got {r}")
    if not 0.0 < c_univ < math.inf:
        raise DomainError(f"C must be finite and positive, got {c_univ}")
    try:
        return math.ceil(c_univ * (r / eps) ** 2 * math.log(r / eps) ** 2 * math.log(dim))
    except (OverflowError, ValueError):  # the formula is infinite or NaN
        raise DomainError(f"sample size is not finite at C={c_univ}, r={r}, eps={eps}") from None


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
    """Distinct grid points of Z_N^2, sorted by row-major flat index."""

    side: int
    flat: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.flat)
        if raw.dtype.kind not in "iuf" or not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise StructuralError(f"sample indices must be integers, got {raw.dtype}")
        if raw.size and (raw.min() < 0 or raw.max() >= self.side**2):
            raise StructuralError("sample indices out of grid range")
        flat = raw.astype(np.int64)
        flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)
        if flat.size != np.unique(flat).size:
            raise StructuralError("sample indices must be distinct")

    def __len__(self) -> int:
        return int(self.flat.size)


@dataclass(frozen=True)
class SampleMultiset:
    """I.i.d. uniform points on S^2 as (theta, phi) pairs; repetitions allowed."""

    theta: np.ndarray
    phi: np.ndarray

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


def draw_subset(side: int, k: int, seed: int) -> SampleSet:
    """Uniform size-k subset of Z_N^2 via partial Fisher-Yates over the index space."""
    total = side**2
    if not 0 <= k <= total:
        raise DomainError(f"subset size must lie in [0, {total}], got {k}")
    if k == total:
        return SampleSet(side=side, flat=np.arange(total))
    rng = rng_from_seed(seed)
    pool = np.arange(total, dtype=np.int64)
    # one call draws the k swap offsets, uniform on [0, total - i) for swap i
    steps = np.arange(k)
    targets = steps + rng.integers(0, total - steps)
    for i, j in enumerate(targets.tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return SampleSet(side=side, flat=np.sort(pool[:k]))


def draw_sphere_points(q: int, seed: int) -> SampleMultiset:
    """q i.i.d. area-uniform sphere points: cos(theta) ~ U[-1, 1], phi ~ U[0, 2 pi)."""
    if q < 1:
        raise DomainError(f"point count must be >= 1, got {q}")
    rng = rng_from_seed(seed)
    z = rng.uniform(-1.0, 1.0, size=q)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=q)
    return SampleMultiset(theta=np.arccos(z), phi=phi)

