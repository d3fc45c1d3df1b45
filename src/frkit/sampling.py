"""Sample sizes and reproducible random sampling: grid subsets, sphere points.

The torus is Z_N^2: a torus sample is a set of distinct grid points, kept by
row-major flat index. A sphere sample is i.i.d. area-uniform points, with
repetitions allowed.

sample_size is the one sample-size formula of both settings. All randomness
flows through numpy's Philox counter-based generator keyed by an explicit
64-bit seed, so any sample can be regenerated exactly from the seed recorded
in its report. Per-trial seeds are derived from a master seed with
SeedSequence(master).generate_state(n_trials).

check_integer is the one rule for every integer argument of frkit: a grid
side, bandwidth, coefficient count, point count, iteration limit or seed is
a Python or numpy integer (never a bool or a float, even 2.0) at or above
its least value, or a DomainError that names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; imported here so forked sweep workers inherit it

from .errors import DataError, DomainError, StructuralError


def is_integer(value) -> bool:
    """True for a Python or numpy integer, False for bool, float and anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(value, least: int, what: str) -> None:
    """DomainError naming what unless value is an integer (is_integer) >= least."""
    if not is_integer(value) or value < least:
        raise DomainError(f"{what} must be >= {least} and an integer, got {value!r}")


def sample_size(r: float, eps: float, dim: int, c_univ: float) -> int:
    """ceil(C (r/eps)^2 ln(r/eps)^2 ln D): the sample size for D coefficients.

    D is N^2 on the torus, whose caller clamps the size to the grid, and
    (L+1)^2 on the sphere, whose points are drawn with repetition. r, eps
    and C must be finite, and so must the size they give. D must be an
    integer >= 2 (check_integer), since ln 1 = 0 makes the size 0; a size
    infinite at every D is refused as such first.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must be finite and lie in (0, 1/2), got {eps}")
    if not 1.0 <= r < math.inf:
        raise DomainError(f"r must be finite and >= 1, got {r}")
    if not 0.0 < c_univ < math.inf:
        raise DomainError(f"C must be finite and positive, got {c_univ}")
    try:
        factor = c_univ * (r / eps) ** 2 * math.log(r / eps) ** 2
    except OverflowError:
        factor = math.inf
    if factor < math.inf:
        check_integer(dim, 2, "the coefficient count D")  # ln D > 0
    try:
        return math.ceil(factor * math.log(dim))
    except (OverflowError, ValueError):  # the formula is infinite or NaN
        raise DomainError(f"sample size is not finite at C={c_univ}, r={r}, eps={eps}") from None


def rng_from_seed(seed: int) -> np.random.Generator:
    """The Philox generator of a seed, an integer >= 0."""
    check_integer(seed, 0, "seed")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def spawn_seeds(master_seed: int, count: int) -> list[int]:
    """Derive count per-trial 64-bit seeds from one master seed, deterministically."""
    check_integer(master_seed, 0, "master seed")
    check_integer(count, 0, "seed count")
    state = np.random.SeedSequence(int(master_seed)).generate_state(
        count, dtype=np.uint64
    )
    return [int(s) for s in state]


@dataclass(frozen=True)
class SampleSet:
    """Distinct grid points of Z_N^2, sorted by row-major flat index.

    side must be an integer >= 2 (check_integer), as draw_subset requires.
    """

    side: int
    flat: np.ndarray

    def __post_init__(self):
        check_integer(self.side, 2, "grid side N")
        raw = np.asarray(self.flat)
        if raw.ndim != 1:
            raise StructuralError(f"sample indices must be a 1-d array, got shape {raw.shape}")
        if raw.dtype.kind not in "iuf" or not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise StructuralError(f"sample indices must be integers, got {raw.dtype}")
        if raw.size and (raw.min() < 0 or raw.max() >= self.side**2):
            raise StructuralError("sample indices out of grid range")
        flat = raw.astype(np.int64)
        flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)
        if not np.all(np.diff(flat) > 0):  # strictly ascending, hence distinct
            raise StructuralError("sample indices must be distinct and ascending")

    def __len__(self) -> int:
        return int(self.flat.size)


def check_sphere_points(theta: np.ndarray, phi: np.ndarray) -> None:
    """DataError unless every coordinate is finite, DomainError unless every theta is in [0, pi]."""
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise DataError("sphere point coordinates must be finite")
    if np.any((theta < 0.0) | (theta > np.pi)):
        raise DomainError("colatitudes must lie in [0, pi]")


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
        check_sphere_points(theta, phi)
        theta.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def __len__(self) -> int:
        return int(self.theta.size)


def draw_subset(side: int, k: int, seed: int) -> SampleSet:
    """Uniform size-k subset of Z_N^2 via partial Fisher-Yates over the index space.

    The pool of N^2 indices is implicit: swap i exchanges positions i and
    j >= i, after which position i is final, so only the displaced entries
    at positions beyond the swaps made so far are kept, at most k of them.
    """
    check_integer(side, 2, "grid side N")
    check_integer(k, 0, "subset size")
    total = side**2
    if k > total:
        raise DomainError(f"subset size must be an integer in [0, {total}], got {k}")
    rng = rng_from_seed(seed)  # checks the seed of a full-grid sample too
    if k == total:
        return SampleSet(side=side, flat=np.arange(total))
    # one call draws the k swap offsets, uniform on [0, total - i) for swap i
    steps = np.arange(k)
    targets = steps + rng.integers(0, total - steps)
    moved = {}  # position -> index, where it differs from the position
    chosen = []
    for i, j in enumerate(targets.tolist()):
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return SampleSet(side=side, flat=np.sort(np.array(chosen, dtype=np.int64)))


def draw_sphere_points(q: int, seed: int) -> SampleMultiset:
    """q i.i.d. area-uniform sphere points: cos(theta) ~ U[-1, 1], phi ~ U[0, 2 pi)."""
    check_integer(q, 1, "point count")
    rng = rng_from_seed(seed)
    z = rng.uniform(-1.0, 1.0, size=q)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=q)
    return SampleMultiset(theta=np.arccos(z), phi=phi)

