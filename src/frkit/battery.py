"""Built-in test functions with analytic norm data.

A torus entry is its terms: TORUS_TERMS lists each one as a sum of terms
amp * f1(2 pi u1) * f2(2 pi u2) with every factor 1, cos or sin, and both its
evaluator and its analytic norms are built from that list. The (f1, f2) pairs
of an entry are distinct, so its terms are orthogonal and the mean and L2 norm
are exact; sup|f|, the first-partial sups and C2 are triangle-inequality upper
bounds (sup_bound), which all seven entries attain. The test suite re-checks
them against estimate_norms (2% agreement at refinement 256). Sphere entries
are exactly bandlimited coefficient profiles.
"""

from __future__ import annotations

import math

import numpy as np

from .sampling import check_integer
from .sphere import SphericalSignal, lm_to_index
from .torus import ANALYTIC, NormData, SmoothFunctionSpec, estimate_norms

TWO_PI = 2.0 * math.pi

VERIFY_REFINEMENT = 256  # estimate_norms grid for the test suite's agreement check
VERIFY_RTOL = 0.02  # largest relative analytic-vs-estimate disagreement accepted

TORUS_TERMS = {
    "const1": ((1.0, "1", "1"),),
    "cos_tiny": ((1.0, "1", "1"), (0.025, "cos", "1")),
    "cos_small": ((1.0, "1", "1"), (0.1, "cos", "1")),
    "sin_quarter": ((1.0, "1", "1"), (0.25, "sin", "1")),
    "cc_half": ((1.0, "1", "1"), (0.5, "cos", "cos")),
    "sin1": ((1.0, "sin", "1"),),
    "prod_cos": ((1.0, "1", "1"), (0.5, "cos", "1"), (0.5, "1", "cos"), (0.25, "cos", "cos")),
}
_FACTORS = {"1": lambda t: 1.0, "cos": np.cos, "sin": np.sin}
_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))  # every partial of order <= 2


def _evaluator(terms):
    def f(u1, u2):
        t1, t2 = TWO_PI * u1, TWO_PI * u2
        return sum((amp * _FACTORS[f1](t1) * _FACTORS[f2](t2) for amp, f1, f2 in terms),
                   np.zeros(np.broadcast(u1, u2).shape))
    return f


def sup_bound(terms, a1: int, a2: int) -> float:
    """Upper bound on sup|d1^a1 d2^a2 f|: sum |amp| over the terms that vary
    along every differentiated axis, times 2 pi per derivative."""
    return TWO_PI ** (a1 + a2) * sum(
        abs(amp) for amp, f1, f2 in terms if (a1 == 0 or f1 != "1") and (a2 == 0 or f2 != "1"))


def _norms(terms) -> NormData:
    sups = [sup_bound(terms, a1, a2) for a1, a2 in _ORDERS]
    return NormData(
        l2=math.sqrt(sum(amp * amp * 0.5 ** ((f1 != "1") + (f2 != "1")) for amp, f1, f2 in terms)),
        c2=max(sups),
        mean=sum((amp for amp, f1, f2 in terms if f1 == f2 == "1"), 0.0),
        sup=sups[0],
        grad_sups=(sups[1], sups[2]),
        provenance=ANALYTIC,
    )


TORUS_BATTERY = {name: SmoothFunctionSpec(name, _evaluator(terms), _norms(terms))
                 for name, terms in TORUS_TERMS.items()}


def verify_torus_battery() -> dict[str, float]:
    """Worst relative disagreement between analytic and estimated norms per entry."""
    worst = {}
    for name, spec in TORUS_BATTERY.items():
        ana = spec.analytic
        est = estimate_norms(spec.evaluator, VERIFY_REFINEMENT)
        rel = max(
            abs(est.l2 - ana.l2) / ana.l2,
            abs(est.c2 - ana.c2) / ana.c2,
            abs(est.sup - ana.sup) / ana.sup,
            abs(est.mean - ana.mean) / ana.l2,
        )
        for got, want in zip(est.grad_sups, ana.grad_sups):
            rel = max(rel, abs(got - want) / max(want, 1e-9) if want > 0 else abs(got))
        worst[name] = rel
        if rel > VERIFY_RTOL:
            raise AssertionError(
                f"battery entry {name}: analytic norms off by {rel:.3%} (> {VERIFY_RTOL:.0%})"
            )
    return worst


def _zonal(bandwidth: int, profile) -> np.ndarray:
    coeffs = np.zeros((bandwidth + 1) ** 2)
    for l in range(bandwidth + 1):
        coeffs[lm_to_index(l, 0)] = profile(l)
    return coeffs


MIX5_TERMS = ((0, 0, 1.0), (1, 1, 0.6), (2, -1, 0.5), (3, 2, 0.4), (4, -3, 0.3))


def build_sphere_battery(bandwidth: int) -> dict[str, SphericalSignal]:
    """Named bandlimited signals at the given bandwidth (>= 4 for the full set)."""
    check_integer(bandwidth, 0, "bandwidth")
    entries = {}
    dim = (bandwidth + 1) ** 2

    c = np.zeros(dim)
    c[0] = 1.0
    entries["y00"] = SphericalSignal(bandwidth, c)

    if bandwidth >= 2:
        c = np.zeros(dim)
        c[0] = 1.0
        c[lm_to_index(2, 1)] = 0.2
        entries["y00_plus"] = SphericalSignal(bandwidth, c)

    entries["decay_e"] = SphericalSignal(
        bandwidth, _zonal(bandwidth, lambda l: math.exp(-l))
    )
    entries["decay_p2"] = SphericalSignal(
        bandwidth, _zonal(bandwidth, lambda l: (1.0 + l) ** -2)
    )
    entries["decay_alt"] = SphericalSignal(
        bandwidth, _zonal(bandwidth, lambda l: (-1.0) ** l / (1.0 + l))
    )
    entries["gauss_heat"] = SphericalSignal(
        bandwidth, _zonal(bandwidth, lambda l: math.exp(-l * (l + 1.0) / (bandwidth + 1.0)))
    )

    c = np.zeros(dim)
    for l in range(bandwidth + 1):
        for m in range(-l, l + 1):
            c[lm_to_index(l, m)] = math.exp(-l) / (2.0 * l + 1.0)
    entries["decay_e_spread"] = SphericalSignal(bandwidth, c)

    if bandwidth >= 4:
        c = np.zeros(dim)
        for l, m, v in MIX5_TERMS:
            c[lm_to_index(l, m)] = v
        entries["mix5"] = SphericalSignal(bandwidth, c)
    return entries
