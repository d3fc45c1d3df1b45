"""Real spherical harmonics, degree-2L exact quadrature, and the r_L bound.

Basis: real orthonormal harmonics built from fully normalized associated
Legendre functions (three-term recurrence, no Condon-Shortley phase),

    Y_{l,0}  = Pbar_l^0(cos th)
    Y_{l,m}  = sqrt(2) Pbar_l^m(cos th) cos(m ph)   (m > 0)
    Y_{l,-m} = sqrt(2) Pbar_l^m(cos th) sin(m ph)   (m > 0)

with int_{S^2} Y^2 dsigma = 1. Coefficients are stored flat with index
l^2 + l + m. The quadrature is Gauss-Legendre in cos(th) (L+1 nodes)
tensored with 2L+1 equispaced ph values, exact through degree 2L, so the
discrete coefficients of a bandlimited signal equal the continuous ones.

The bound r_L = A + B + C uses

    A = |int f dsigma| / ||f||_L2
    B = C0 (||f||_C2 / ||f||_L2) ln L
    C = C0 (||f||_C2 / ||f||_L2) / L,     C0 = 48 sqrt(pi)

with ||f||_C2(S^2) = max(sup|f|, sup|grad f|, sup|Lap f|), the gradient
magnitude obtained spectrally from |grad f|^2 = Lap(f^2)/2 - f Lap f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, StructuralError

C0_SPHERE = 48.0 * math.sqrt(math.pi)
SPHERE_AREA = 4.0 * math.pi

SPECTRAL_GRID = "spectral-grid"

C2_SPHERE_CONVENTION = "max(sup|f|, sup|grad f|, sup|Lap f|)"


def lm_to_index(l: int, m: int) -> int:
    return l * l + l + m


def index_to_lm(i: int) -> tuple[int, int]:
    l = int(math.isqrt(i))
    return l, i - l * l - l


def degrees_for_indices(count: int) -> np.ndarray:
    """Degree l for each flat index 0..count-1."""
    return np.floor(np.sqrt(np.arange(count) + 0.5)).astype(np.int64)


@dataclass(frozen=True)
class SphericalSignal:
    """Bandlimited function on S^2 via real orthonormal harmonic coefficients."""

    bandwidth: int
    coeffs: np.ndarray
    basis: str = "real-orthonormal"

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size != (self.bandwidth + 1) ** 2:
            raise StructuralError(
                f"bandwidth {self.bandwidth} needs {(self.bandwidth + 1) ** 2} "
                f"coefficients, got {coeffs.size}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def l2(self) -> float:
        """||f||_L2(S^2), exact by Parseval."""
        return float(np.linalg.norm(self.coeffs))

    @property
    def integral(self) -> float:
        """int_{S^2} f dsigma = sqrt(4 pi) * coefficient at (0, 0)."""
        return math.sqrt(SPHERE_AREA) * float(self.coeffs[0])

    def coefficient(self, l: int, m: int) -> float:
        return float(self.coeffs[lm_to_index(l, m)])


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (theta, phi) and positive weights, exact through exactness_degree."""

    bandwidth: int
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        for name in ("theta", "phi", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.theta.shape == self.phi.shape == self.weights.shape):
            raise StructuralError("node and weight arrays must share a shape")
        if np.any(self.weights <= 0):
            raise StructuralError("quadrature weights must be positive")

    def __len__(self) -> int:
        return int(self.theta.size)


def build_quadrature(bandwidth: int) -> QuadratureRule:
    """Gauss-Legendre x equiangular product rule, exact for degree <= 2L."""
    if bandwidth < 1:
        raise DomainError(f"bandwidth must be >= 1, got {bandwidth}")
    nodes, gl_weights = np.polynomial.legendre.leggauss(bandwidth + 1)
    n_phi = 2 * bandwidth + 1
    phi_ring = 2.0 * np.pi * np.arange(n_phi) / n_phi
    theta_ring = np.arccos(nodes)
    theta = np.repeat(theta_ring, n_phi)
    phi = np.tile(phi_ring, bandwidth + 1)
    weights = np.repeat(gl_weights * (2.0 * np.pi / n_phi), n_phi)
    return QuadratureRule(
        bandwidth=bandwidth,
        theta=theta,
        phi=phi,
        weights=weights,
        exactness_degree=2 * bandwidth,
    )


def _legendre_block(m: int, lmax: int, cos_t: np.ndarray, sin_t: np.ndarray) -> np.ndarray:
    """Pbar_l^m(cos_t) for l = m..lmax, fully normalized, no CS phase.

    Normalized so that int_{-1}^{1} Pbar^2 dt = 1/(2 pi); rows are degrees.
    """
    out = np.empty((lmax - m + 1, cos_t.size))
    p = np.full(cos_t.shape, math.sqrt(1.0 / SPHERE_AREA))
    for k in range(1, m + 1):
        p = p * sin_t * math.sqrt((2.0 * k + 1.0) / (2.0 * k))
    out[0] = p
    if lmax == m:
        return out
    out[1] = math.sqrt(2.0 * m + 3.0) * cos_t * p
    a_prev = math.sqrt(2.0 * m + 3.0)
    for l in range(m + 2, lmax + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        out[l - m] = a * (cos_t * out[l - m - 1] - out[l - m - 2] / a_prev)
        a_prev = a
    return out


def evaluate_basis(l: int, m: int, theta, phi) -> np.ndarray:
    """Real orthonormal spherical harmonic Y_l^m at (theta, phi)."""
    if l < 0 or abs(m) > l:
        raise DomainError(f"invalid harmonic index (l={l}, m={m})")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    block = _legendre_block(abs(m), l, np.cos(theta), np.sin(theta))
    p = block[-1]
    if m == 0:
        return p
    if m > 0:
        return math.sqrt(2.0) * p * np.cos(m * phi)
    return math.sqrt(2.0) * p * np.sin(-m * phi)


def basis_matrix(bandwidth: int, theta, phi) -> np.ndarray:
    """Dense (npoints, (L+1)^2) matrix of basis values; desk-scale only."""
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    dim = (bandwidth + 1) ** 2
    out = np.empty((theta.size, dim))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    for m in range(bandwidth + 1):
        block = _legendre_block(m, bandwidth, cos_t, sin_t)
        ells = np.arange(m, bandwidth + 1)
        if m == 0:
            out[:, ells * ells + ells] = block.T
        else:
            cos_m = math.sqrt(2.0) * np.cos(m * phi)
            sin_m = math.sqrt(2.0) * np.sin(m * phi)
            out[:, ells * ells + ells + m] = block.T * cos_m[:, None]
            out[:, ells * ells + ells - m] = block.T * sin_m[:, None]
    return out


def analyze(values_or_fn, rule: QuadratureRule, bandwidth: int) -> SphericalSignal:
    """Discrete coefficients sum_j w_j g(j) Y_l^m(omega_j) for l <= bandwidth.

    For input bandlimited to the rule's exactness these coincide with the
    continuous coefficients. Accepts node values or an evaluator f(theta, phi).
    """
    if bandwidth < 0 or 2 * bandwidth > rule.exactness_degree:
        raise DomainError(
            f"rule exact to degree {rule.exactness_degree} cannot analyze bandwidth {bandwidth}"
        )
    if callable(values_or_fn):
        values = np.asarray(values_or_fn(rule.theta, rule.phi), dtype=float)
    else:
        values = np.asarray(values_or_fn, dtype=float)
    if values.shape != rule.theta.shape:
        raise StructuralError(
            f"expected {rule.theta.size} node values, got {values.size}"
        )
    weighted = rule.weights * values
    cos_t, sin_t = np.cos(rule.theta), np.sin(rule.theta)
    coeffs = np.zeros((bandwidth + 1) ** 2)
    for m in range(bandwidth + 1):
        block = _legendre_block(m, bandwidth, cos_t, sin_t)
        ells = np.arange(m, bandwidth + 1)
        if m == 0:
            coeffs[ells * ells + ells] = block @ weighted
        else:
            cw = weighted * (math.sqrt(2.0) * np.cos(m * rule.phi))
            sw = weighted * (math.sqrt(2.0) * np.sin(m * rule.phi))
            coeffs[ells * ells + ells + m] = block @ cw
            coeffs[ells * ells + ells - m] = block @ sw
    return SphericalSignal(bandwidth=bandwidth, coeffs=coeffs)


def synthesize(signal: SphericalSignal, theta, phi) -> np.ndarray:
    """Pointwise expansion sum_{l,m} c_{l,m} Y_l^m(theta, phi)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = theta.shape
    theta, phi = theta.ravel(), phi.ravel()
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    lmax = signal.bandwidth
    values = np.zeros(theta.size)
    for m in range(lmax + 1):
        block = _legendre_block(m, lmax, cos_t, sin_t)
        ells = np.arange(m, lmax + 1)
        if m == 0:
            values += signal.coeffs[ells * ells + ells] @ block
        else:
            c_plus = signal.coeffs[ells * ells + ells + m]
            c_minus = signal.coeffs[ells * ells + ells - m]
            values += (c_plus @ block) * (math.sqrt(2.0) * np.cos(m * phi))
            values += (c_minus @ block) * (math.sqrt(2.0) * np.sin(m * phi))
    return values.reshape(shape)


def laplacian(signal: SphericalSignal) -> SphericalSignal:
    """Spectral Laplace-Beltrami: coefficient (l, m) scaled by -l(l+1)."""
    ells = degrees_for_indices(signal.coeffs.size)
    return SphericalSignal(
        bandwidth=signal.bandwidth,
        coeffs=signal.coeffs * (-(ells * (ells + 1.0))),
    )


@dataclass(frozen=True)
class SphereNormData:
    """L2 / C2(S^2) / integral data for a bandlimited signal."""

    l2: float
    c2: float
    integral: float
    sup: float
    grad_sup: float
    lap_sup: float
    provenance: str


def estimate_sphere_norms(signal: SphericalSignal) -> SphereNormData:
    """Sup norms of f, |grad f|, Lap f on a 4L x 8L equiangular grid.

    Gradient magnitude comes from the identity |grad f|^2 = Lap(f^2)/2 - f Lap f;
    f^2 lives in V_{2L}, so its Laplacian is computed exactly with a degree-4L
    quadrature and spectral scaling. L2 and the integral are exact by Parseval.
    """
    lmax = signal.bandwidth
    n_theta, n_phi = max(4 * lmax, 8), max(8 * lmax, 16)
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tg, pg = np.meshgrid(theta, phi, indexing="ij")

    f_vals = synthesize(signal, tg, pg)
    lap_vals = synthesize(laplacian(signal), tg, pg)

    rule2 = build_quadrature(max(2 * lmax, 1))
    f_nodes = synthesize(signal, rule2.theta, rule2.phi)
    f_sq = analyze(f_nodes * f_nodes, rule2, 2 * lmax)
    lap_sq_vals = synthesize(laplacian(f_sq), tg, pg)

    grad_sq = np.maximum(0.5 * lap_sq_vals - f_vals * lap_vals, 0.0)
    sup = float(np.max(np.abs(f_vals)))
    grad_sup = float(np.sqrt(np.max(grad_sq)))
    lap_sup = float(np.max(np.abs(lap_vals)))
    return SphereNormData(
        l2=signal.l2,
        c2=max(sup, grad_sup, lap_sup),
        integral=signal.integral,
        sup=sup,
        grad_sup=grad_sup,
        lap_sup=lap_sup,
        provenance=SPECTRAL_GRID,
    )


@dataclass(frozen=True)
class SphereFrBoundReport:
    """A_L, B_L, C_L, their sum r_L, and the constant C0 used."""

    bandwidth: int
    a: float
    b: float
    c: float
    r: float
    c0: float
    provenance: str
    c2_convention: str = C2_SPHERE_CONVENTION


def compute_rl(norms: SphereNormData, bandwidth: int) -> SphereFrBoundReport:
    if bandwidth < 2:
        raise DomainError(
            f"bandwidth must be >= 2 (log L degenerates at L < 2), got {bandwidth}"
        )
    if norms.l2 <= 0:
        raise DegenerateInputError("L2 norm must be positive to form the bound")
    ratio = norms.c2 / norms.l2
    a = abs(norms.integral) / norms.l2
    b = C0_SPHERE * ratio * math.log(bandwidth)
    c = C0_SPHERE * ratio / bandwidth
    return SphereFrBoundReport(
        bandwidth=bandwidth, a=a, b=b, c=c, r=a + b + c,
        c0=C0_SPHERE, provenance=norms.provenance,
    )


def compute_rl_nonnegative(norms: SphereNormData, bandwidth: int) -> SphereFrBoundReport:
    """Variant of the bound for signals the caller asserts are nonnegative.

    Uses the mean mu = int f dsigma in place of the L2 norm:
    sqrt(4 pi) + C0 sqrt(4 pi) (C2/mu) ln L + C0 sqrt(4 pi) (C2/mu) / L.
    """
    if bandwidth < 2:
        raise DomainError(
            f"bandwidth must be >= 2 (log L degenerates at L < 2), got {bandwidth}"
        )
    mu = norms.integral
    if mu <= 0:
        raise DomainError("nonnegative-signal bound needs a positive mean integral")
    root = math.sqrt(SPHERE_AREA)
    ratio = norms.c2 / mu
    a = root
    b = C0_SPHERE * root * ratio * math.log(bandwidth)
    c = C0_SPHERE * root * ratio / bandwidth
    return SphereFrBoundReport(
        bandwidth=bandwidth, a=a, b=b, c=c, r=a + b + c,
        c0=C0_SPHERE, provenance=norms.provenance,
    )


def sphere_fourier_ratio(signal: SphericalSignal) -> float:
    n2 = signal.l2
    if n2 == 0.0:
        raise DegenerateInputError("Fourier ratio undefined for the zero signal")
    return float(np.sum(np.abs(signal.coeffs))) / n2


@dataclass(frozen=True)
class SphereFrCheck:
    report: SphereFrBoundReport
    fr_measured: float
    slack: float
    norms: SphereNormData

    @property
    def holds(self) -> bool:
        return self.slack >= 0.0


def verify_sphere_fr_bound(
    signal: SphericalSignal, norms: SphereNormData | None = None
) -> SphereFrCheck:
    """Measured FR_L against r_L; slack >= 0 expected on the smooth battery."""
    if norms is None:
        norms = estimate_sphere_norms(signal)
    report = compute_rl(norms, signal.bandwidth)
    fr = sphere_fourier_ratio(signal)
    return SphereFrCheck(report=report, fr_measured=fr, slack=report.r - fr, norms=norms)


def sample_size_sphere(r: float, eps: float, bandwidth: int, c_univ: float) -> int:
    """ceil(C (r/eps)^2 ln(r/eps)^2 ln((L+1)^2)); multiset sampling, so no clamp."""
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must lie in (0, 1/2), got {eps}")
    if r < 1.0:
        raise DomainError(f"r must be >= 1, got {r}")
    if c_univ <= 0.0:
        raise DomainError(f"C must be positive, got {c_univ}")
    dim = (bandwidth + 1) ** 2
    value = c_univ * (r / eps) ** 2 * math.log(r / eps) ** 2 * math.log(dim)
    return int(math.ceil(value))
