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
A QuadratureRule holds one colatitude and one weight per ring, no per-node copies.

Every Legendre value comes from one recurrence, which yields the degrees
l = 0..lmax in turn, Pbar_l^m at a set of colatitudes for 0 <= m <= l. It
carries the sectoral seed Pbar_m^m in m, then steps each degree from the two
below it for all orders at once; it is the only loop over orders or degrees.
The ring transforms read its values as a table stored m-major,
table[m, l - m]: the degrees l = m..lmax of one order m are one contiguous
block, padded with zero rows to lmax + 1, so a sum over l for every m is one
batched matrix product.

On an iso-latitude grid (rings of n_phi equispaced ph from 0: every
QuadratureRule, and the 4L x 8L norm grid) the table, or its th-derivative,
is built on the ring colatitudes only and ph is done by FFT (Driscoll &
Healy 1994; Reinecke & Seljebotn, "libsharp", A&A 2013):

    synthesis  F_m(th) = sum_l c_{l,m} Pbar_l^m(th)  (cos part; c_{l,-m} the
               sin part, both times sqrt(2) for m > 0), then an irfft of
               length n_phi along ph on each ring;
    analysis   the weighted rfft along ph on each ring, then each m
               projected onto its table segment.

Both need n_phi >= 2 lmax + 1, so that no order m <= lmax aliases in ph.
synthesize and basis_matrix take scattered points, theta and phi of one
shape, checked as a SampleMultiset checks its points. Both build the basis
rows harmonic-major (one row of point values per harmonic), straight from
the recurrence: degree l writes its cos rows l^2 + l .. l^2 + 2l and its sin
rows l^2 .. l^2 + l - 1, two contiguous runs, with no table in between.
Both take all the points in one pass. basis_matrix writes every degree into
its own rows and returns the rows transposed. synthesize sums each degree's
rows against its coefficients as the recurrence yields them, in one block of
2L + 1 rows, so its memory is a few arrays of (L + 1) x npoints, not the basis.

What depends on L only is built once per L and cached, read-only, for the
last four bandwidths: the table positions' coefficient indices, and the
degree-L grid table, its th-derivative and 1/sin(th) per ring of
estimate_sphere_norms (about 2.2 MB per cached L at L = 32, 17 MB at L = 64).

The bound r_L = A + B + C, reported as spectral.FrBoundReport, uses

    A = |int f dsigma| / ||f||_L2
    B = C0 (||f||_C2 / ||f||_L2) ln L
    C = C0 (||f||_C2 / ||f||_L2) / L,     C0 = 48 sqrt(pi)

with ||f||_C2(S^2) = max(sup|f|, sup|grad f|, sup|Lap f|), the gradient
magnitude taken directly, |grad f|^2 = (d_th f)^2 + (d_ph f / sin th)^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateInputError, DomainError, StructuralError
from .sampling import check_sphere_points
from .spectral import FrBoundReport, FrCheck, fourier_ratio

C0_SPHERE = 48.0 * math.sqrt(math.pi)
SPHERE_AREA = 4.0 * math.pi

SPECTRAL_GRID = "spectral-grid"

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
        if self.bandwidth < 0:
            raise DomainError(f"bandwidth must be >= 0, got {self.bandwidth}")
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
        if not np.all(np.isfinite(coeffs)):
            raise DataError("harmonic coefficients must be finite")
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


@dataclass(frozen=True)
class QuadratureRule:
    """A product rule stored as its rings, exact through exactness_degree.

    Ring i is n_phi nodes at colatitude ring_theta[i] and phi = 2 pi k / n_phi,
    each of weight ring_weights[i]; theta, phi and weights build the ring-major nodes.
    """

    ring_theta: np.ndarray
    ring_weights: np.ndarray
    n_phi: int
    exactness_degree: int

    def __post_init__(self):
        for name in ("ring_theta", "ring_weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.ring_theta.ndim == 1 and self.ring_theta.shape == self.ring_weights.shape):
            raise StructuralError("ring colatitudes and weights must be 1-d of equal length")
        check_sphere_points(self.ring_theta, 0.0)
        if not np.all(self.ring_weights > 0):
            raise StructuralError("quadrature weights must be positive")
        if self.n_phi < 1:
            raise StructuralError(f"a ring needs n_phi >= 1 nodes, got {self.n_phi}")

    def __len__(self) -> int:
        return self.ring_theta.size * self.n_phi

    @property
    def theta(self) -> np.ndarray:
        return np.repeat(self.ring_theta, self.n_phi)

    @property
    def phi(self) -> np.ndarray:
        return np.tile(2.0 * np.pi * np.arange(self.n_phi) / self.n_phi, self.ring_theta.size)

    @property
    def weights(self) -> np.ndarray:
        return np.repeat(self.ring_weights, self.n_phi)


def build_quadrature(bandwidth: int) -> QuadratureRule:
    """Gauss-Legendre x equiangular product rule, exact for degree <= 2L."""
    if bandwidth < 1:
        raise DomainError(f"bandwidth must be >= 1, got {bandwidth}")
    nodes, gl_weights = np.polynomial.legendre.leggauss(bandwidth + 1)
    n_phi = 2 * bandwidth + 1
    return QuadratureRule(np.arccos(nodes), gl_weights * (2.0 * np.pi / n_phi), n_phi,
                          2 * bandwidth)


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


def _legendre_degrees(lmax: int, theta: np.ndarray):
    """Yield (l, p) for l = 0..lmax, p[m, j] = Pbar_l^m(cos theta_j) for 0 <= m <= l, no CS phase.

    Normalized so that int_{-1}^{1} Pbar^2 dt = 1/(2 pi). This is the one
    Legendre recurrence: the sectoral seeds Pbar_m^m are carried in m first,
    then each degree l takes Pbar_l^{l-1} from its seed and every lower order
    from degrees l - 1 and l - 2 in one three-term step. No p is written
    after it is yielded, and the caller must not write to one.
    """
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    seeds = np.empty((lmax + 1, theta.size))
    seeds[0] = math.sqrt(1.0 / SPHERE_AREA)
    for m in range(1, lmax + 1):
        seeds[m] = seeds[m - 1] * sin_t * math.sqrt((2.0 * m + 1.0) / (2.0 * m))
    older, prev = seeds[:0], seeds[:1]
    yield 0, prev
    a_prev = np.empty(0)  # a at degree l - 1 for each order m <= l - 2
    for l in range(1, lmax + 1):
        p = np.empty((l + 1, theta.size))
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        step = np.multiply(cos_t, prev[: l - 1], out=p[: l - 1])
        step -= older[: l - 1] / a_prev[:, None]
        step *= a[:, None]
        a_seed = math.sqrt(2.0 * (l - 1) + 3.0)
        p[l - 1] = a_seed * cos_t * seeds[l - 1]
        p[l] = seeds[l]
        yield l, p
        older, prev, a_prev = prev, p, np.append(a, a_seed)


def _legendre_table(lmax: int, theta: np.ndarray) -> np.ndarray:
    """table[m, l - m, j] = Pbar_l^m(cos theta_j) for 0 <= m <= l <= lmax, from _legendre_degrees.

    Order m owns the contiguous block table[m]: degrees m..lmax, then zeros
    up to lmax + 1 rows.
    """
    table = np.zeros((lmax + 1, lmax + 1, theta.size))
    for l, p in _legendre_degrees(lmax, theta):
        m = np.arange(l + 1)
        table[m, l - m] = p
    return table


def _check_rings(n_phi: int, lmax: int) -> None:
    if n_phi < 2 * lmax + 1:
        raise DomainError(
            f"{n_phi} points per ring alias orders up to {lmax}; need >= {2 * lmax + 1}"
        )


def _ring_synthesis(coeffs: np.ndarray, table: np.ndarray, lmax: int, n_phi: int) -> np.ndarray:
    """(rings, n_phi) values of coefficients of degree <= lmax on the table's rings.

    Per ring, F_m = sum_l c_{l,m} Pbar_l^m (cos part) and sum_l c_{l,-m} Pbar_l^m
    (sin part) are one batched product over the table; an irfft sums them over m.
    """
    _check_rings(n_phi, lmax)
    i_cos, i_sin, valid = _table_index(lmax)
    f_cos = np.matmul(np.where(valid, coeffs[i_cos], 0.0)[:, None, :], table)[:, 0]
    f_sin = np.matmul(np.where(valid, coeffs[i_sin], 0.0)[:, None, :], table)[:, 0]
    spec = (f_cos - 1j * f_sin) * (math.sqrt(2.0) / 2.0)
    spec[0] = f_cos[0]
    # a contiguous (rings, m) copy: irfft along the strided rows of spec.T is slower
    return np.fft.irfft(np.ascontiguousarray(spec.T), n=n_phi, axis=1) * n_phi


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


def _phase_factors(lmax: int, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(2) cos(m phi), 1 at m = 0, and sqrt(2) sin(m phi) for m = 0..lmax, one row per m."""
    m_phi = np.arange(lmax + 1)[:, None] * phi
    cos_m = math.sqrt(2.0) * np.cos(m_phi)
    cos_m[0] = 1.0
    return cos_m, math.sqrt(2.0) * np.sin(m_phi)


def _fill_degree_rows(out: np.ndarray, p: np.ndarray, cos_m: np.ndarray, sin_m: np.ndarray) -> None:
    """Write degree l's 2l + 1 basis rows, harmonics l^2 .. l^2 + 2l, into out from its Legendre p.

    p is _legendre_degrees' block of degree l = len(p) - 1. The sin rows
    l^2 + l - m come first, m = l..1, then the cos rows l^2 + l + m, m = 0..l.
    """
    l = len(p) - 1
    np.multiply(p, cos_m[: l + 1], out=out[l:])
    np.multiply(p[:0:-1], sin_m[l:0:-1], out=out[:l])


def _flat_points(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """theta and phi raveled to float; StructuralError unless they have one shape,
    and check_sphere_points' DataError or DomainError."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.shape != phi.shape:
        raise StructuralError(f"theta and phi must have one shape, not {theta.shape}, {phi.shape}")
    check_sphere_points(theta, phi)
    return theta.ravel(), phi.ravel()


def basis_matrix(bandwidth: int, theta, phi) -> np.ndarray:
    """Dense (npoints, (L+1)^2) matrix of basis values; desk-scale only.

    It is built harmonic-major, one C-contiguous row of point values per
    harmonic, and returned as that array's transpose, a view: its .T is the
    ((L+1)^2, npoints) row array itself, with no copy. The points are
    checked as _flat_points checks them.
    """
    theta, phi = _flat_points(theta, phi)
    rows = np.empty(((bandwidth + 1) ** 2, theta.size))
    cos_m, sin_m = _phase_factors(bandwidth, phi)
    for l, p in _legendre_degrees(bandwidth, theta):
        _fill_degree_rows(rows[l * l : (l + 1) ** 2], p, cos_m, sin_m)
    return rows.T


def analyze(values, rule: QuadratureRule, bandwidth: int) -> SphericalSignal:
    """Discrete coefficients sum_j w_j g(j) Y_l^m(omega_j) for l <= bandwidth.

    values holds g at the rule's nodes, ring-major. For input bandlimited to
    the rule's exactness these coincide with the continuous coefficients.
    """
    if bandwidth < 0 or 2 * bandwidth > rule.exactness_degree:
        raise DomainError(
            f"rule exact to degree {rule.exactness_degree} cannot analyze bandwidth {bandwidth}"
        )
    values = np.asarray(values, dtype=float)
    if values.shape != (len(rule),):
        raise StructuralError(f"expected {len(rule)} node values, got {values.size}")
    weighted = values.reshape(-1, rule.n_phi) * rule.ring_weights[:, None]
    table = _legendre_table(bandwidth, rule.ring_theta)
    return SphericalSignal(bandwidth, _ring_analysis(weighted, table, bandwidth))


def synthesize(signal: SphericalSignal, theta, phi) -> np.ndarray:
    """Pointwise expansion sum_{l,m} c_{l,m} Y_l^m(theta, phi) at points _flat_points checks.

    Each degree's rows are summed as the recurrence yields them, into one
    block of 2L + 1 rows, so no more than that block is held.
    """
    shape = np.shape(theta)
    theta, phi = _flat_points(theta, phi)
    lmax = signal.bandwidth
    values = np.zeros(theta.size)
    block = np.empty((2 * lmax + 1, theta.size))
    cos_m, sin_m = _phase_factors(lmax, phi)
    for l, p in _legendre_degrees(lmax, theta):
        rows = block[: 2 * l + 1]
        _fill_degree_rows(rows, p, cos_m, sin_m)
        values += signal.coeffs[l * l : (l + 1) ** 2] @ rows
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
def _norm_tables(lmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degree-L table on the 4L x 8L grid rings, its th-derivative and 1/sin(th).

    The rings are midpoints, so sin(th) > 0. The derivative table has the same
    layout, built from the neighbouring orders Pbar_l^{m-1} at [m - 1, l - m + 1]
    and Pbar_l^{m+1} at [m + 1, l - m - 1]:
    dPbar_l^m/dth = (sqrt((l+m)(l-m+1)) Pbar_l^{m-1} - sqrt((l-m)(l+m+1)) Pbar_l^{m+1}) / 2
    and dPbar_l^0/dth = -sqrt(l(l+1)) Pbar_l^1. The arrays are read-only.
    """
    n_theta = max(4 * lmax, 8)
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    table = _legendre_table(lmax, theta)
    m, d = np.ogrid[: lmax + 1, : lmax + 1]
    l = m + d
    d_table = np.zeros_like(table)
    d_table[1:, :-1] = (0.5 * np.sqrt((l + m) * (l - m + 1.0)))[1:, :-1, None] * table[:-1, 1:]
    upper = np.where(m > 0, 0.5, 1.0) * np.sqrt((l - m) * (l + m + 1.0))
    d_table[:-1, 1:] -= upper[:-1, 1:, None] * table[1:, :-1]
    inv_sin = 1.0 / np.sin(theta)
    for arr in (table, d_table, inv_sin):
        arr.setflags(write=False)
    return table, d_table, inv_sin


def estimate_sphere_norms(signal: SphericalSignal) -> SphereNormData:
    """Sup norms of f, |grad f|, Lap f on a 4L x 8L equiangular grid.

    Four degree-L ring syntheses: f and Lap f on the Legendre table, d_th f on
    its derivative table, and d_ph f (coefficient m c_{l,-m} at (l, m)) on the
    table, divided by sin(th) per ring; |grad f|^2 = (d_th f)^2 + (d_ph f / sin th)^2.
    L2 and the integral are exact by Parseval. The tables are built on the
    first call at each L and cached, read-only, for _CACHED_BANDWIDTHS
    bandwidths: about 2.2 MB at L = 32 and 17 MB at L = 64.
    """
    lmax = signal.bandwidth
    n_phi = max(8 * lmax, 16)
    table, d_table, inv_sin = _norm_tables(lmax)
    ells = degrees_for_indices(signal.coeffs.size)
    index, centre = np.arange(ells.size), ells * ells + ells  # (l, -m) mirrors (l, m) about (l, 0)
    phi_coeffs = (index - centre) * signal.coeffs[2 * centre - index]

    f_vals = _ring_synthesis(signal.coeffs, table, lmax, n_phi)
    lap_vals = _ring_synthesis(laplacian(signal).coeffs, table, lmax, n_phi)
    d_theta = _ring_synthesis(signal.coeffs, d_table, lmax, n_phi)
    d_phi = _ring_synthesis(phi_coeffs, table, lmax, n_phi) * inv_sin[:, None]

    sup = float(np.max(np.abs(f_vals)))
    grad_sup = float(np.sqrt(np.max(d_theta * d_theta + d_phi * d_phi)))
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


def compute_rl(norms: SphereNormData, bandwidth: int) -> FrBoundReport:
    """A_L, B_L and C_L with C0 = C0_SPHERE; certified is None, as r_L needs no hypothesis."""
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
    return FrBoundReport(a, b, c, None, norms.provenance)


def verify_sphere_fr_bound(signal: SphericalSignal) -> FrCheck:
    """Measured FR_L against r_L; slack >= 0 expected on the smooth battery."""
    norms = estimate_sphere_norms(signal)
    report = compute_rl(norms, signal.bandwidth)
    fr = fourier_ratio(signal.coeffs)
    return FrCheck(report=report, fr_measured=fr, norms=norms)
