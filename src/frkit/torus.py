"""Discretization of smooth periodic functions on Z_N^2 and the r_N bound.

The chain: sample f on the N x N grid, read the norms its spec carries,
form the three-term bound r_N = A + B + C, reported as spectral.FrBoundReport, with

    A = 2 |mean(f)| / ||f||_L2
    B = 16 pi^2 (||f||_C2 / ||f||_L2) ln N
    C =  8 pi^2 (||f||_C2 / ||f||_L2) / N

which dominates the measured Fourier ratio whenever the hypothesis
N ||f||_L2^2 >= 8 ||f||_C2^2 is certified. The C2 norm is the unweighted
max of sup|d^a f| over all |a| <= 2 (no factorial or multinomial weights).

A spec cannot be built without its norms, and every bound and check reads
the ones it carries; none estimates. estimate_norms is the finite-difference
reference: SmoothFunctionSpec(name, fn, estimate_norms(fn)) builds a spec
whose norms report provenance "estimated".

An evaluator follows numpy broadcasting, so discretize and estimate_norms
call it once on a grid's broadcast axes (u[:, None], u[None, :]): a term
cos(2 pi u1) cos(2 pi u2) then costs 2N cosines and one N x N product, not
2N^2 cosines on two meshgrids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DataError,
    DegenerateInputError,
    DomainError,
    PeriodicityError,
    StructuralError,
)
from .sampling import check_integer
from .spectral import FrBoundReport, FrCheck, forward_dft, fourier_ratio, wrapped_mag_sq_grid

SIXTEEN_PI_SQ = 16.0 * math.pi**2
EIGHT_PI_SQ = 8.0 * math.pi**2
FOUR_PI_SQ = 4.0 * math.pi**2

ANALYTIC = "analytic"
ESTIMATED = "estimated"

_PERIODICITY_TOL = 1e-9
_PERIODICITY_POINTS = 100


@dataclass(frozen=True)
class NormData:
    """L2 / C2 / mean / sup data for a periodic function on [0,1]^2."""

    l2: float
    c2: float
    mean: float
    sup: float
    grad_sups: tuple[float, float]
    provenance: str

    def __post_init__(self):
        if self.provenance == ANALYTIC:
            if self.l2 <= 0:
                raise DomainError("analytic L2 norm must be positive")
            if self.c2 < self.sup:
                raise DomainError("C2 norm cannot be smaller than sup|f|")


@dataclass(frozen=True)
class SmoothFunctionSpec:
    """A 1-periodic function on [0,1]^2 given by a vectorized evaluator.

    The evaluator takes two arrays (u1, u2) that broadcast against each
    other and returns real values that broadcast to their broadcast shape,
    elementwise as numpy ufuncs do: the grids pass the column u[:, None] and
    the row u[None, :], so an evaluator must not assume equal shapes (start
    a sum from np.zeros(np.broadcast(u1, u2).shape), not np.zeros_like(u1)).
    The norms are required (named analytic, whatever their provenance):
    they are the ones every bound and check reads. Construction spot-checks
    periodicity on boundary points.
    """

    name: str
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    analytic: NormData

    def __post_init__(self):
        t = np.linspace(0.0, 1.0, _PERIODICITY_POINTS)
        left = self(np.zeros_like(t), t)
        right = self(np.ones_like(t), t)
        bottom = self(t, np.zeros_like(t))
        top = self(t, np.ones_like(t))
        gap = max(
            float(np.max(np.abs(left - right))),
            float(np.max(np.abs(bottom - top))),
        )
        if gap > _PERIODICITY_TOL:
            raise PeriodicityError(
                f"{self.name}: boundary mismatch {gap:.3e} exceeds {_PERIODICITY_TOL}"
            )

    def __call__(self, u1, u2) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(u1), np.asarray(u2)), dtype=float)


def _on_grid(evaluator: Callable, u: np.ndarray, name: str) -> np.ndarray:
    """evaluator on the grid u x u, called once on its broadcast axes: a fresh real (n, n) array.

    A result that does not broadcast to (n, n) is a StructuralError.
    """
    shape = (u.size, u.size)
    vals = np.asarray(evaluator(u[:, None], u[None, :]), dtype=float)
    try:
        return np.array(np.broadcast_to(vals, shape))
    except ValueError:
        raise StructuralError(
            f"{name}: evaluator gave shape {vals.shape}, which does not broadcast to {shape}"
        ) from None


def discretize(f: SmoothFunctionSpec, side: int) -> np.ndarray:
    """g(x1, x2) = f(x1/N, x2/N) on the integer grid: a read-only real (N, N) array."""
    check_integer(side, 2, "grid side N")
    vals = _on_grid(f, np.arange(side) / side, f.name)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise DataError(
            f"{f.name}: evaluator non-finite at u=({bad[0] / side}, {bad[1] / side})"
        )
    vals.setflags(write=False)
    return vals


def estimate_norms(evaluator: Callable, refinement: int = 256) -> NormData:
    """Numerical L2/mean (midpoint rule) and C2 (central differences, step 1/M) of an evaluator.

    The derivative grid is the corner grid i/M with periodic wraparound, so
    every central difference is an array roll of one evaluation pass.
    """
    check_integer(refinement, 8, "refinement")
    m = int(refinement)
    w = _on_grid(evaluator, (np.arange(m) + 0.5) / m, "estimate_norms")
    v = _on_grid(evaluator, np.arange(m) / m, "estimate_norms")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        raise DataError("non-finite evaluation during norm estimation")

    up1, dn1 = np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
    up2, dn2 = np.roll(v, -1, axis=1), np.roll(v, 1, axis=1)
    d1 = (up1 - dn1) * (m / 2.0)
    d2 = (up2 - dn2) * (m / 2.0)
    d11 = (up1 - 2.0 * v + dn1) * (m * m)
    d22 = (up2 - 2.0 * v + dn2) * (m * m)
    d12 = (
        np.roll(up1, -1, axis=1)
        - np.roll(up1, 1, axis=1)
        - np.roll(dn1, -1, axis=1)
        + np.roll(dn1, 1, axis=1)
    ) * (m * m / 4.0)

    sup = float(np.max(np.abs(v)))
    g1, g2 = float(np.max(np.abs(d1))), float(np.max(np.abs(d2)))
    c2 = max(sup, g1, g2, *(float(np.max(np.abs(d))) for d in (d11, d12, d22)))
    return NormData(
        l2=float(np.sqrt(np.mean(w * w))),
        c2=c2,
        mean=float(np.mean(w)),
        sup=sup,
        grad_sups=(g1, g2),
        provenance=ESTIMATED,
    )


def certification_threshold(norms: NormData) -> int:
    """Smallest N with N ||f||_L2^2 >= 8 ||f||_C2^2."""
    return max(2, int(math.ceil(8.0 * norms.c2**2 / norms.l2**2)))


def _hypothesis_holds(norms: NormData, side: int) -> bool:
    """The theorem's hypothesis N ||f||_L2^2 >= 8 ||f||_C2^2."""
    return side * norms.l2**2 >= 8.0 * norms.c2**2


def compute_rn(norms: NormData, side: int) -> FrBoundReport:
    """The three-term bound report at grid side N; certified is the hypothesis."""
    check_integer(side, 2, "grid side N")
    if norms.l2 <= 0:
        raise DegenerateInputError("L2 norm must be positive to form the bound")
    ratio = norms.c2 / norms.l2
    a = 2.0 * abs(norms.mean) / norms.l2
    b = SIXTEEN_PI_SQ * ratio * math.log(side)
    c = EIGHT_PI_SQ * ratio / side
    return FrBoundReport(a, b, c, _hypothesis_holds(norms, side), norms.provenance)


def verify_fr_bound(f: SmoothFunctionSpec, side: int) -> FrCheck:
    """Measured FR of the discretized function against the r_N bound.

    A non-certified hypothesis is reported via the report's flag, never
    raised; certified inputs must come out with slack >= 0.
    """
    norms = f.analytic
    report = compute_rn(norms, side)
    fr = fourier_ratio(forward_dft(discretize(f, side)))
    return FrCheck(report=report, fr_measured=fr, norms=norms)


@dataclass(frozen=True)
class DecayCheck:
    """Worst ratio |g^(m)| |m|_*^2 / (N ||f||_C2) over m != 0, against 4 pi^2."""

    max_ratio: float
    worst_frequency: tuple[int, int]
    limit: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.limit


def verify_decay(f: SmoothFunctionSpec, side: int) -> DecayCheck:
    norms = f.analytic
    spec = forward_dft(discretize(f, side))
    mag_sq = wrapped_mag_sq_grid(side, 2).astype(float)
    ratios = np.abs(spec) * mag_sq / (side * norms.c2)
    ratios[0, 0] = 0.0  # bound concerns m != 0 only
    worst = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return DecayCheck(
        max_ratio=float(ratios[worst]),
        worst_frequency=(int(worst[0]), int(worst[1])),
        limit=FOUR_PI_SQ,
    )


@dataclass(frozen=True)
class RiemannCheck:
    """Riemann-sum error of h on the N x N grid against (sup|d1 h| + sup|d2 h|)/N."""

    lhs: float
    rhs: float
    passed: bool


def verify_riemann_lemma(h: SmoothFunctionSpec, side: int) -> RiemannCheck:
    norms = h.analytic
    grid_mean = float(np.mean(discretize(h, side)))
    lhs = abs(grid_mean - norms.mean)
    rhs = (norms.grad_sups[0] + norms.grad_sups[1]) / side
    return RiemannCheck(lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + 1e-6))


@dataclass(frozen=True)
class L2LowerBoundCheck:
    """||g||^2 against N^2 ||f||_L2^2 - 4 N ||f||_C2^2, plus the certified corollary."""

    grid_energy: float
    lower_bound: float
    passed: bool
    certified: bool
    sqrt_passed: bool


def verify_l2_lower_bound(f: SmoothFunctionSpec, side: int) -> L2LowerBoundCheck:
    norms = f.analytic
    g_l2 = float(np.linalg.norm(discretize(f, side)))
    energy = g_l2**2
    lower = side**2 * norms.l2**2 - 4.0 * side * norms.c2**2
    certified = _hypothesis_holds(norms, side)
    slack = 1e-9 * max(1.0, abs(lower))
    return L2LowerBoundCheck(
        grid_energy=energy,
        lower_bound=lower,
        passed=energy >= lower - slack,
        certified=certified,
        sqrt_passed=(not certified) or g_l2 >= side / math.sqrt(2.0) * norms.l2 * (1.0 - 1e-12),
    )
