"""Built-in test functions with analytic norm data.

Torus entries are 1-periodic trigonometric polynomials on [0,1]^2 whose L2,
C2, mean, sup and first-partial sups are known in closed form; the analytic
values are re-verified against estimate_norms at startup by the CLI and in
the test suite (2% agreement at refinement 256). Sphere entries are exactly
bandlimited coefficient profiles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .sphere import SphericalSignal, lm_to_index
from .torus import ANALYTIC, NormData, SmoothFunctionSpec, estimate_norms

PI = math.pi
TWO_PI = 2.0 * math.pi

VERIFY_REFINEMENT = 256  # estimate_norms grid for the startup check
VERIFY_RTOL = 0.02  # largest relative analytic-vs-estimate disagreement accepted


def _spec(name, fn, l2, c2, mean, sup, grads) -> SmoothFunctionSpec:
    return SmoothFunctionSpec(
        name=name,
        evaluator=fn,
        analytic=NormData(
            l2=l2, c2=c2, mean=mean, sup=sup, grad_sups=grads, provenance=ANALYTIC
        ),
    )


def _cosine_ridge(name: str, amp: float) -> SmoothFunctionSpec:
    """1 + amp cos(2 pi u1): C2 is sup|f| for tiny amp, else 4 pi^2 amp."""
    return _spec(
        name,
        lambda u1, u2: 1.0 + amp * np.cos(TWO_PI * u1) + 0.0 * u2,
        l2=math.sqrt(1.0 + amp * amp / 2.0),
        c2=max(1.0 + amp, 4.0 * PI * PI * amp),
        mean=1.0,
        sup=1.0 + amp,
        grads=(TWO_PI * amp, 0.0),
    )


def build_torus_battery() -> dict[str, SmoothFunctionSpec]:
    battery = {
        "const1": _spec(
            "const1",
            lambda u1, u2: np.ones_like(np.asarray(u1, dtype=float)),
            l2=1.0, c2=1.0, mean=1.0, sup=1.0, grads=(0.0, 0.0),
        ),
        "cos_tiny": _cosine_ridge("cos_tiny", 0.025),
        "cos_small": _cosine_ridge("cos_small", 0.1),
        "sin_quarter": _spec(
            "sin_quarter",
            lambda u1, u2: 1.0 + 0.25 * np.sin(TWO_PI * u1) + 0.0 * u2,
            l2=math.sqrt(1.0 + 1.0 / 32.0),
            c2=PI * PI,
            mean=1.0,
            sup=1.25,
            grads=(0.5 * PI, 0.0),
        ),
        "cc_half": _spec(
            "cc_half",
            lambda u1, u2: 1.0 + 0.5 * np.cos(TWO_PI * u1) * np.cos(TWO_PI * u2),
            l2=math.sqrt(17.0 / 16.0),
            c2=2.0 * PI * PI,
            mean=1.0,
            sup=1.5,
            grads=(PI, PI),
        ),
        "sin1": _spec(
            "sin1",
            lambda u1, u2: np.sin(TWO_PI * u1) + 0.0 * u2,
            l2=math.sqrt(0.5),
            c2=4.0 * PI * PI,
            mean=0.0,
            sup=1.0,
            grads=(TWO_PI, 0.0),
        ),
        "prod_cos": _spec(
            "prod_cos",
            lambda u1, u2: (1.0 + 0.5 * np.cos(TWO_PI * u1))
            * (1.0 + 0.5 * np.cos(TWO_PI * u2)),
            l2=9.0 / 8.0,
            c2=3.0 * PI * PI,
            mean=1.0,
            sup=2.25,
            grads=(1.5 * PI, 1.5 * PI),
        ),
    }
    return battery


TORUS_BATTERY = build_torus_battery()


def verify_torus_battery(names=None) -> dict[str, float]:
    """Worst relative disagreement between analytic and estimated norms per entry."""
    worst = {}
    for name in names or TORUS_BATTERY:
        spec = TORUS_BATTERY[name]
        ana = spec.analytic
        est = estimate_norms(spec, VERIFY_REFINEMENT)
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
    if bandwidth < 0:
        raise DomainError(f"bandwidth must be >= 0, got {bandwidth}")
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
