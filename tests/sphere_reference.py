"""Point-wise sphere transforms (test support).

These are the per-point m-loop forms of frkit.sphere's synthesize, analyze
and basis_matrix: each evaluates the Legendre recurrence for every m at every
node, with no ring structure and no FFT. They are slow, and the test suite
keeps them as the reference that the ring transforms and the Legendre table
are checked against.

legendre_table_m_major is the zero-padded table[m, l - m] of those blocks.
basis_matrix_m_major is the m-major product frkit.sphere built its basis
rows with before it ran one degree-major recurrence: that table times the
cos and sin factors, masked and scattered into the harmonic rows.
frkit.sphere must match both bit for bit.

estimate_sphere_norms here is an independent method, not a per-point copy:
it takes |grad f|^2 from the identity Lap(f^2)/2 - f Lap f, with f^2
analyzed on a degree-4L quadrature, where frkit.sphere differentiates the
Legendre table and the phi factor directly.
"""

import math

import numpy as np

from frkit.sphere import (
    SPECTRAL_GRID,
    SPHERE_AREA,
    QuadratureRule,
    SphereNormData,
    SphericalSignal,
    _point_chunks,
    build_quadrature,
    laplacian,
)


def legendre_block(m: int, lmax: int, cos_t: np.ndarray, sin_t: np.ndarray) -> np.ndarray:
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


def basis_matrix(bandwidth: int, theta, phi) -> np.ndarray:
    """Dense (npoints, (L+1)^2) matrix of basis values."""
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    dim = (bandwidth + 1) ** 2
    out = np.empty((theta.size, dim))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    for m in range(bandwidth + 1):
        block = legendre_block(m, bandwidth, cos_t, sin_t)
        ells = np.arange(m, bandwidth + 1)
        if m == 0:
            out[:, ells * ells + ells] = block.T
        else:
            cos_m = math.sqrt(2.0) * np.cos(m * phi)
            sin_m = math.sqrt(2.0) * np.sin(m * phi)
            out[:, ells * ells + ells + m] = block.T * cos_m[:, None]
            out[:, ells * ells + ells - m] = block.T * sin_m[:, None]
    return out


def legendre_table_m_major(lmax: int, theta: np.ndarray) -> np.ndarray:
    """table[m, l - m, j] = Pbar_l^m(cos theta_j): order m's legendre_block,
    padded with zero rows to lmax + 1."""
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    table = np.zeros((lmax + 1, lmax + 1, theta.size))
    for m in range(lmax + 1):
        table[m, : lmax - m + 1] = legendre_block(m, lmax, cos_t, sin_t)
    return table


def basis_matrix_m_major(bandwidth: int, theta, phi) -> np.ndarray:
    """Dense (npoints, (L+1)^2) matrix of basis values: per point chunk, the
    m-major table times the cos and sin factors, masked to l <= L and
    scattered into the harmonic rows."""
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    m, d = np.ogrid[: bandwidth + 1, : bandwidth + 1]
    l = m + d
    valid = l <= bandwidth
    i_cos, i_sin = (l * l + l + m)[valid], (l * l + l - m)[valid]
    rows = np.empty(((bandwidth + 1) ** 2, theta.size))
    for part in _point_chunks(theta.size, bandwidth):
        table = legendre_table_m_major(bandwidth, theta[part])
        m_phi = np.arange(bandwidth + 1)[:, None] * phi[part]
        cos_m = math.sqrt(2.0) * np.cos(m_phi)
        cos_m[0] = 1.0
        sin_m = math.sqrt(2.0) * np.sin(m_phi)
        rows[i_sin, part] = (table * sin_m[:, None, :])[valid]
        rows[i_cos, part] = (table * cos_m[:, None, :])[valid]  # overwrites the m = 0 sin rows
    return rows.T


def analyze(values, rule: QuadratureRule, bandwidth: int) -> SphericalSignal:
    """Discrete coefficients sum_j w_j g(j) Y_l^m(omega_j) for l <= bandwidth."""
    weighted = rule.weights * np.asarray(values, dtype=float)
    cos_t, sin_t = np.cos(rule.theta), np.sin(rule.theta)
    coeffs = np.zeros((bandwidth + 1) ** 2)
    for m in range(bandwidth + 1):
        block = legendre_block(m, bandwidth, cos_t, sin_t)
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
        block = legendre_block(m, lmax, cos_t, sin_t)
        ells = np.arange(m, lmax + 1)
        if m == 0:
            values += signal.coeffs[ells * ells + ells] @ block
        else:
            c_plus = signal.coeffs[ells * ells + ells + m]
            c_minus = signal.coeffs[ells * ells + ells - m]
            values += (c_plus @ block) * (math.sqrt(2.0) * np.cos(m * phi))
            values += (c_minus @ block) * (math.sqrt(2.0) * np.sin(m * phi))
    return values.reshape(shape)


def estimate_sphere_norms(signal: SphericalSignal) -> SphereNormData:
    """Sup norms of f, |grad f|, Lap f on the 4L x 8L grid, point by point."""
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
