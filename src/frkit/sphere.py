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

Every transform reads one Legendre table, Pbar_l^m at a set of
colatitudes for 0 <= m <= l <= lmax, stored m-major as table[m, l - m]:
the degrees l = m..lmax of one order m are one contiguous block, padded
with zero rows to lmax + 1, so a sum over l for every m is one batched
matrix product. The table builder carries the sectoral seed Pbar_m^m to
Pbar_{m+1}^{m+1} and runs the recurrence in l for all m at once; it is
the only loop over orders.

On an iso-latitude grid (rings of n_phi equispaced ph from 0: every
QuadratureRule, and the 4L x 8L norm grid) the table is built on the ring
colatitudes only and ph is done by FFT (Driscoll & Healy 1994; Reinecke &
Seljebotn, "libsharp", A&A 2013):

    synthesis  F_m(th) = sum_l c_{l,m} Pbar_l^m(th)  (cos part; c_{l,-m} the
               sin part, both times sqrt(2) for m > 0), then an irfft of
               length n_phi along ph on each ring;
    analysis   the weighted rfft along ph on each ring, then each m
               projected onto its table segment.

Both need n_phi >= 2 lmax + 1, so that no order m <= lmax aliases in ph.
synthesize and basis_matrix take scattered points: synthesis forms the same
per-m sums and adds up cos/sin(m ph) point by point, and the basis matrix is
built from the table; both work in chunks of points sized so that one table
or basis block holds a fixed number of entries, which bounds their memory.

What depends on L only is built once per L and cached, read-only, for the
last four bandwidths: the table positions' coefficient indices, and the
two degree-2L tables and degree-4L quadrature of estimate_sphere_norms
(about 6.5 MB per cached L at L = 32, 51 MB at L = 64).

The bound r_L = A + B + C uses

    A = |int f dsigma| / ||f||_L2
    B = C0 (||f||_C2 / ||f||_L2) ln L
    C = C0 (||f||_C2 / ||f||_L2) / L,     C0 = 48 sqrt(pi)

with ||f||_C2(S^2) = max(sup|f|, sup|grad f|, sup|Lap f|), the gradient
magnitude obtained spectrally from |grad f|^2 = Lap(f^2)/2 - f Lap f.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, StructuralError
from .spectral import fourier_ratio

C0_SPHERE = 48.0 * math.sqrt(math.pi)
SPHERE_AREA = 4.0 * math.pi

SPECTRAL_GRID = "spectral-grid"

_BLOCK_ENTRIES = 1 << 20  # (lmax+1)^2 x points per table or basis block: 8 MB
_CACHED_BANDWIDTHS = 4  # bandwidths whose index and norm tables stay built


def lm_to_index(l: int, m: int) -> int:
    return l * l + l + m


def degrees_for_indices(count: int) -> np.ndarray:
    """Degree l for each flat index 0..count-1."""
    return np.floor(np.sqrt(np.arange(count) + 0.5)).astype(np.int64)


@dataclass(frozen=True)
class SphericalSignal:
    """Bandlimited function on S^2 via real orthonormal harmonic coefficients."""

    bandwidth: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs)
        if np.iscomplexobj(coeffs):
            if np.any(coeffs.imag != 0.0):
                raise StructuralError("real harmonic coefficients cannot have imaginary parts")
            coeffs = coeffs.real
        coeffs = np.array(coeffs, dtype=float)
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


def _ring_phi(n_phi: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n_phi) / n_phi


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (theta, phi) and positive weights, exact through exactness_degree.

    The nodes are stored ring-major: rings of n_phi nodes at one colatitude
    each, with phi = 2 pi k / n_phi, so analyze works ring by ring with an FFT.
    """

    bandwidth: int
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    n_phi: int

    def __post_init__(self):
        for name in ("theta", "phi", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.theta.shape == self.phi.shape == self.weights.shape):
            raise StructuralError("node and weight arrays must share a shape")
        if np.any(self.weights <= 0):
            raise StructuralError("quadrature weights must be positive")
        if not (
            self.n_phi > 0
            and self.theta.ndim == 1
            and self.theta.size % self.n_phi == 0
            and np.all(self.theta.reshape(-1, self.n_phi) == self.ring_theta[:, None])
            and np.allclose(
                self.phi.reshape(-1, self.n_phi), _ring_phi(self.n_phi), rtol=0.0, atol=1e-12
            )
        ):
            raise StructuralError(
                f"nodes are not rings of {self.n_phi} equispaced phi from 0"
            )

    def __len__(self) -> int:
        return int(self.theta.size)

    @property
    def ring_theta(self) -> np.ndarray:
        """Colatitude of each ring."""
        return self.theta[:: self.n_phi]


def build_quadrature(bandwidth: int) -> QuadratureRule:
    """Gauss-Legendre x equiangular product rule, exact for degree <= 2L."""
    if bandwidth < 1:
        raise DomainError(f"bandwidth must be >= 1, got {bandwidth}")
    nodes, gl_weights = np.polynomial.legendre.leggauss(bandwidth + 1)
    n_phi = 2 * bandwidth + 1
    theta_ring = np.arccos(nodes)
    theta = np.repeat(theta_ring, n_phi)
    phi = np.tile(_ring_phi(n_phi), bandwidth + 1)
    weights = np.repeat(gl_weights * (2.0 * np.pi / n_phi), n_phi)
    return QuadratureRule(
        bandwidth=bandwidth,
        theta=theta,
        phi=phi,
        weights=weights,
        exactness_degree=2 * bandwidth,
        n_phi=n_phi,
    )


@functools.lru_cache(maxsize=_CACHED_BANDWIDTHS)
def _table_index(lmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat coefficient index of (l, m) and of (l, -m) at table position [m, l - m].

    The third array marks the positions with l <= lmax; the index is 0 elsewhere.
    Cached per lmax; the arrays are read-only.
    """
    m, d = np.ogrid[: lmax + 1, : lmax + 1]
    l = m + d
    valid = l <= lmax
    i_cos, i_sin = np.where(valid, l * l + l + m, 0), np.where(valid, l * l + l - m, 0)
    for arr in (i_cos, i_sin, valid):
        arr.setflags(write=False)
    return i_cos, i_sin, valid


def _legendre_table(lmax: int, theta: np.ndarray) -> np.ndarray:
    """table[m, l - m, j] = Pbar_l^m(cos theta_j) for 0 <= m <= l <= lmax, no CS phase.

    Normalized so that int_{-1}^{1} Pbar^2 dt = 1/(2 pi). Order m owns the
    contiguous block table[m]: degrees m..lmax, then zeros up to lmax + 1 rows.
    """
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    table = np.zeros((lmax + 1, lmax + 1, theta.size))
    p = np.full(theta.shape, math.sqrt(1.0 / SPHERE_AREA))
    table[0, 0] = p
    for m in range(1, lmax + 1):
        p = p * sin_t * math.sqrt((2.0 * m + 1.0) / (2.0 * m))
        table[m, 0] = p
    if lmax == 0:
        return table
    # the recurrence in l, one step of d = l - m for every order m at once
    m = np.arange(lmax)
    a_prev = np.sqrt(2.0 * m + 3.0)[:, None]
    table[:lmax, 1] = a_prev * cos_t * table[:lmax, 0]
    for d in range(2, lmax + 1):
        m = np.arange(lmax + 1 - d)
        l = m + d
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        table[: m.size, d] = a * (
            cos_t * table[: m.size, d - 1] - table[: m.size, d - 2] / a_prev[: m.size]
        )
        a_prev = a
    return table


def _check_rings(n_phi: int, lmax: int) -> None:
    if n_phi < 2 * lmax + 1:
        raise DomainError(
            f"{n_phi} points per ring alias orders up to {lmax}; need >= {2 * lmax + 1}"
        )


def _order_sums(
    coeffs: np.ndarray, table: np.ndarray, lmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per table column, F_m = sum_l c_{l,m} Pbar_l^m and sum_l c_{l,-m} Pbar_l^m.

    Returns the cos and sin parts, each (lmax+1, columns). Coefficients of a
    lower bandwidth are zero-padded to lmax. The sin part of m = 0 is unused.
    """
    i_cos, i_sin, valid = _table_index(lmax)
    padded = np.zeros((lmax + 1) ** 2)
    padded[: coeffs.size] = coeffs
    f_cos = np.matmul(np.where(valid, padded[i_cos], 0.0)[:, None, :], table)[:, 0]
    f_sin = np.matmul(np.where(valid, padded[i_sin], 0.0)[:, None, :], table)[:, 0]
    return f_cos, f_sin


def _ring_synthesis(coeffs: np.ndarray, table: np.ndarray, lmax: int, n_phi: int) -> np.ndarray:
    """(rings, n_phi) values of coefficients of degree <= lmax on the table's rings."""
    _check_rings(n_phi, lmax)
    f_cos, f_sin = _order_sums(coeffs, table, lmax)
    spec = (f_cos - 1j * f_sin) * (math.sqrt(2.0) / 2.0)
    spec[0] = f_cos[0]
    return np.fft.irfft(spec.T, n=n_phi, axis=1) * n_phi


def _ring_analysis(weighted: np.ndarray, table: np.ndarray, lmax: int) -> np.ndarray:
    """Coefficients through degree lmax of (rings, n_phi) values times their weights."""
    _check_rings(weighted.shape[1], lmax)
    i_cos, i_sin, valid = _table_index(lmax)
    ring_fourier = np.fft.rfft(weighted, axis=1)[:, : lmax + 1].T  # (m, rings)
    scale = np.where(np.arange(lmax + 1) > 0, math.sqrt(2.0), 1.0)[:, None]
    proj_cos = scale * np.matmul(table, ring_fourier.real[:, :, None])[..., 0]
    proj_sin = -scale * np.matmul(table, ring_fourier.imag[:, :, None])[..., 0]
    coeffs = np.empty((lmax + 1) ** 2)
    coeffs[i_sin[valid]] = proj_sin[valid]
    coeffs[i_cos[valid]] = proj_cos[valid]  # at m = 0 this overwrites the empty sin part
    return coeffs


def _point_chunks(size: int, lmax: int) -> list[slice]:
    """Runs of scattered points whose table and basis block fit _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // (lmax + 1) ** 2)
    return [slice(start, start + step) for start in range(0, size, step)]


def _point_synthesis(
    coeffs: np.ndarray, lmax: int, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Values at scattered points: the order sums F_m, then sum_m over cos/sin(m phi)."""
    f_cos, f_sin = _order_sums(coeffs, _legendre_table(lmax, theta), lmax)
    m_phi = np.arange(1, lmax + 1)[:, None] * phi
    trig = f_cos[1:] * np.cos(m_phi) + f_sin[1:] * np.sin(m_phi)
    return f_cos[0] + math.sqrt(2.0) * np.sum(trig, axis=0)


def _basis_rows(lmax: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """((lmax+1)^2, npoints) basis values, one row per harmonic."""
    table = _legendre_table(lmax, theta)
    i_cos, i_sin, valid = _table_index(lmax)
    m_phi = np.arange(lmax + 1)[:, None] * phi
    cos_m = math.sqrt(2.0) * np.cos(m_phi)
    cos_m[0] = 1.0
    sin_m = math.sqrt(2.0) * np.sin(m_phi)
    out = np.empty(((lmax + 1) ** 2, theta.size))
    out[i_sin[valid]] = (table * sin_m[:, None, :])[valid]
    out[i_cos[valid]] = (table * cos_m[:, None, :])[valid]  # overwrites the m = 0 sin rows
    return out


def basis_matrix(bandwidth: int, theta, phi) -> np.ndarray:
    """Dense (npoints, (L+1)^2) matrix of basis values; desk-scale only."""
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    out = np.empty((theta.size, (bandwidth + 1) ** 2))
    for part in _point_chunks(theta.size, bandwidth):
        out[part] = _basis_rows(bandwidth, theta[part], phi[part]).T
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
    weighted = (rule.weights * values).reshape(-1, rule.n_phi)
    table = _legendre_table(bandwidth, rule.ring_theta)
    return SphericalSignal(bandwidth, _ring_analysis(weighted, table, bandwidth))


def synthesize(signal: SphericalSignal, theta, phi) -> np.ndarray:
    """Pointwise expansion sum_{l,m} c_{l,m} Y_l^m(theta, phi)."""
    shape = np.shape(theta)
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    values = np.empty(theta.size)
    for part in _point_chunks(theta.size, signal.bandwidth):
        values[part] = _point_synthesis(signal.coeffs, signal.bandwidth, theta[part], phi[part])
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


@functools.lru_cache(maxsize=_CACHED_BANDWIDTHS)
def _norm_tables(lmax: int) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """The L-only data of estimate_sphere_norms, built once per bandwidth.

    Returns the degree-2L table on the 4L x 8L grid rings, then the degree-4L
    quadrature's n_phi, its weights as (rings, n_phi) and its degree-2L table.
    The arrays are read-only.
    """
    n_theta = max(4 * lmax, 8)
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    rule = build_quadrature(max(2 * lmax, 1))
    grid_table = _legendre_table(2 * lmax, theta)
    quad_table = _legendre_table(2 * lmax, rule.ring_theta)
    for table in (grid_table, quad_table):
        table.setflags(write=False)
    return grid_table, rule.n_phi, rule.weights.reshape(-1, rule.n_phi), quad_table


def estimate_sphere_norms(signal: SphericalSignal) -> SphereNormData:
    """Sup norms of f, |grad f|, Lap f on a 4L x 8L equiangular grid.

    Gradient magnitude comes from the identity |grad f|^2 = Lap(f^2)/2 - f Lap f;
    f^2 lives in V_{2L}, so its Laplacian is computed exactly with a degree-4L
    quadrature and spectral scaling. L2 and the integral are exact by Parseval.
    All five transforms run on rings, on one Legendre table per ring set at
    degree 2L (n_phi is 8L on the grid and 4L+1 on the quadrature).

    The two tables and the quadrature depend on L only: they are built on the
    first call at each L, kept read-only in a cache of the last
    _CACHED_BANDWIDTHS bandwidths, and reused. A cached L holds about 6.5 MB
    at L = 32 and 51 MB at L = 64, the memory one call allocates anyway.
    """
    lmax = signal.bandwidth
    n_phi = max(8 * lmax, 16)
    grid_table, quad_n_phi, quad_weights, quad_table = _norm_tables(lmax)

    f_vals = _ring_synthesis(signal.coeffs, grid_table, 2 * lmax, n_phi)
    lap_vals = _ring_synthesis(laplacian(signal).coeffs, grid_table, 2 * lmax, n_phi)

    f_nodes = _ring_synthesis(signal.coeffs, quad_table, 2 * lmax, quad_n_phi)
    weighted = quad_weights * (f_nodes * f_nodes)
    f_sq = SphericalSignal(2 * lmax, _ring_analysis(weighted, quad_table, 2 * lmax))
    lap_sq_vals = _ring_synthesis(laplacian(f_sq).coeffs, grid_table, 2 * lmax, n_phi)

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
    """A_L, B_L, C_L and their sum r_L, with C0 = C0_SPHERE."""

    bandwidth: int
    a: float
    b: float
    c: float
    r: float
    provenance: str


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
        bandwidth=bandwidth, a=a, b=b, c=c, r=a + b + c, provenance=norms.provenance,
    )


@dataclass(frozen=True)
class SphereFrCheck:
    report: SphereFrBoundReport
    fr_measured: float
    slack: float
    norms: SphereNormData


def verify_sphere_fr_bound(signal: SphericalSignal) -> SphereFrCheck:
    """Measured FR_L against r_L; slack >= 0 expected on the smooth battery."""
    norms = estimate_sphere_norms(signal)
    report = compute_rl(norms, signal.bandwidth)
    fr = fourier_ratio(signal.coeffs)
    return SphereFrCheck(report=report, fr_measured=fr, slack=report.r - fr, norms=norms)
