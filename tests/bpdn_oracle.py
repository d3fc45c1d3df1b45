"""Interior-point reference solver for basis pursuit with noise (test support).

It solves the same program as frkit.solver.solve_bpdn by a different method,
so the test suite can use it as a referee on small instances.
"""

import math

import numpy as np

from frkit.errors import DataError, DomainError
from frkit.solver import certify
from conftest import dense_operator


class ConvergenceError(RuntimeError):
    """The oracle's Newton iteration failed to reach its target accuracy."""


# ---------------------------------------------------------------------------
# Interior-point oracle on the epigraph formulation (test-scale instances).
# ---------------------------------------------------------------------------

_ORACLE_MAX_DIM = 64


def _real_stack(mat: np.ndarray) -> np.ndarray:
    re, im = mat.real, mat.imag
    return np.block([[re, -im], [im, re]])


def oracle_solve(
    matrix: np.ndarray,
    y: np.ndarray,
    delta: float,
    gap_tol: float = 1e-9,
    return_info: bool = False,
):
    """Solve min ||a||_1 s.t. ||A a - y|| <= delta by a log-barrier Newton method.

    Algorithmically independent of the primal-dual path: the complex program
    is lifted to second-order-cone epigraph form over (Re a, Im a, t), a log
    barrier is centered by damped Newton steps along an increasing barrier
    parameter, and termination is certified by the rigorous duality gap from
    the residual direction. Intended for dimensions <= 64 in tests only.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128).ravel()
    n_meas, n_coef = mat.shape
    if n_coef > _ORACLE_MAX_DIM or n_meas > _ORACLE_MAX_DIM:
        raise DomainError(f"oracle limited to {_ORACLE_MAX_DIM} x {_ORACLE_MAX_DIM}")
    if delta < 0:
        raise DomainError("delta must be >= 0")
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0 or delta >= y_norm:
        a = np.zeros(n_coef, dtype=np.complex128)
        return (a, {"gap": 0.0, "eta": 0.0}) if return_info else a

    # work on the normalized instance; the solution scales linearly in y
    yn = y / y_norm
    dn = delta / y_norm
    if dn == 0.0:
        a, info = _oracle_equality(mat, yn, gap_tol)
    else:
        a, info = _oracle_ball(mat, yn, dn, gap_tol)
    a = a * y_norm
    info["gap"] = info["gap"] * y_norm  # back to the caller's scale
    return (a, info) if return_info else a


def _soc_grad_hess(u, v, t, s):
    """Gradient columns and 3x3 Hessian blocks for -log(t^2 - u^2 - v^2)."""
    inv = 1.0 / s
    inv2 = inv * inv
    gu, gv, gt = 2.0 * u * inv, 2.0 * v * inv, -2.0 * t * inv
    huu = 4.0 * u * u * inv2 + 2.0 * inv
    hvv = 4.0 * v * v * inv2 + 2.0 * inv
    htt = 4.0 * t * t * inv2 - 2.0 * inv
    huv = 4.0 * u * v * inv2
    hut = -4.0 * u * t * inv2
    hvt = -4.0 * v * t * inv2
    return (gu, gv, gt), (huu, hvv, htt, huv, hut, hvt)


def _assemble_soc(n_coef, grad, hess, eta):
    gu, gv, gt = grad
    huu, hvv, htt, huv, hut, hvt = hess
    dim = 3 * n_coef
    g = np.zeros(dim)
    g[:n_coef], g[n_coef : 2 * n_coef], g[2 * n_coef :] = gu, gv, gt + eta
    h = np.zeros((dim, dim))
    idx = np.arange(n_coef)
    h[idx, idx] = huu
    h[n_coef + idx, n_coef + idx] = hvv
    h[2 * n_coef + idx, 2 * n_coef + idx] = htt
    h[idx, n_coef + idx] = h[n_coef + idx, idx] = huv
    h[idx, 2 * n_coef + idx] = h[2 * n_coef + idx, idx] = hut
    h[n_coef + idx, 2 * n_coef + idx] = h[2 * n_coef + idx, n_coef + idx] = hvt
    return g, h


def _barrier_path(u, v, t, merit, newton_step, gap_of, gap_tol):
    """Center the barrier by damped Newton steps at eta = 1, 10, 100, ...

    newton_step(u, v, t, eta) returns the merit gradient g and the Newton
    step, stacked as (du, dv, dt); gap_of(a, eta) is the duality gap at
    a = u + i v once centered. The path stops when the gap is within gap_tol
    of max(1, ||a||_1), and fails unless it is within 1e-6.
    """
    n_coef = u.size
    eta = 1.0
    gap = np.inf
    a = u + 1j * v
    for _ in range(60):
        for _ in range(80):  # damped Newton centering at this eta
            g, step = newton_step(u, v, t, eta)
            decrement = float(-g @ step)
            if not np.isfinite(decrement) or decrement <= 0:
                break
            base = merit(u, v, t, eta)
            alpha = 1.0
            du, dv, dt = step[:n_coef], step[n_coef : 2 * n_coef], step[2 * n_coef :]
            while alpha > 1e-14:
                if merit(u + alpha * du, v + alpha * dv, t + alpha * dt, eta) <= base - 0.01 * alpha * decrement:
                    break
                alpha *= 0.5
            if alpha <= 1e-14:
                break
            u, v, t = u + alpha * du, v + alpha * dv, t + alpha * dt
            if decrement * alpha < 1e-12:
                break
        a = u + 1j * v
        gap = gap_of(a, eta)
        if gap <= gap_tol * max(1.0, float(np.sum(np.abs(a)))):
            break
        eta *= 10.0
        if eta > 1e14:
            break
    if gap > 1e-6 * max(1.0, float(np.sum(np.abs(a)))):
        raise ConvergenceError(
            f"oracle stalled: duality gap {gap:.3e} at barrier parameter {eta:.1e}"
        )
    return a, {"gap": gap, "eta": eta}


def _oracle_ball(mat, yn, dn, gap_tol):
    n_meas, n_coef = mat.shape
    br = _real_stack(mat)  # (2m, 2D)
    yr = np.concatenate([yn.real, yn.imag])
    op = dense_operator(mat)

    w, *_ = np.linalg.lstsq(br, yr, rcond=None)
    min_res = float(np.linalg.norm(br @ w - yr))
    if min_res >= dn * (1.0 - 1e-12):
        raise ConvergenceError(
            f"no strictly feasible point: min residual {min_res:.3e} vs delta {dn:.3e}"
        )
    u, v = w[:n_coef], w[n_coef:]
    t = np.sqrt(u * u + v * v) * 1.5 + 0.1 * (np.mean(np.abs(u + 1j * v)) + 1e-3)

    def ball_terms(w_vec):
        rr = br @ w_vec - yr
        b = dn * dn - float(rr @ rr)
        return rr, b

    def merit(u, v, t, eta):
        s = t * t - u * u - v * v
        _, b = ball_terms(np.concatenate([u, v]))
        if np.any(s <= 0) or b <= 0 or np.any(t <= 0):
            return np.inf
        return eta * float(np.sum(t)) - float(np.sum(np.log(s))) - math.log(b)

    def newton_step(u, v, t, eta):
        s = t * t - u * u - v * v
        grad, hess = _soc_grad_hess(u, v, t, s)
        g, h = _assemble_soc(n_coef, grad, hess, eta)
        rr, b = ball_terms(np.concatenate([u, v]))
        gw = 2.0 * (br.T @ rr) / b
        g[: 2 * n_coef] += gw
        brr = br.T @ rr
        h[: 2 * n_coef, : 2 * n_coef] += 2.0 * (br.T @ br) / b + 4.0 * np.outer(
            brr, brr
        ) / (b * b)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, -g, rcond=None)
        return g, step

    return _barrier_path(
        u, v, t, merit, newton_step, lambda a, eta: certify(op, yn, dn, a).gap, gap_tol
    )


def _oracle_equality(mat, yn, gap_tol):
    """delta = 0: equality-constrained Newton on the epigraph barrier."""
    n_meas, n_coef = mat.shape
    br = _real_stack(mat)
    yr = np.concatenate([yn.real, yn.imag])

    w, *_ = np.linalg.lstsq(br, yr, rcond=None)
    if float(np.linalg.norm(br @ w - yr)) > 1e-10:
        raise DataError("equality-constrained instance is inconsistent")
    u, v = w[:n_coef], w[n_coef:]
    t = np.sqrt(u * u + v * v) * 1.5 + 0.1 * (np.mean(np.abs(u + 1j * v)) + 1e-3)

    n_eq = br.shape[0]
    c_mat = np.zeros((n_eq, 3 * n_coef))
    c_mat[:, : 2 * n_coef] = br
    mu = np.zeros(n_eq)  # equality multipliers of the last Newton step

    def merit(u, v, t, eta):
        s = t * t - u * u - v * v
        if np.any(s <= 0) or np.any(t <= 0):
            return np.inf
        return eta * float(np.sum(t)) - float(np.sum(np.log(s)))

    def newton_step(u, v, t, eta):
        nonlocal mu
        s = t * t - u * u - v * v
        grad, hess = _soc_grad_hess(u, v, t, s)
        g, h = _assemble_soc(n_coef, grad, hess, eta)
        kkt = np.zeros((3 * n_coef + n_eq, 3 * n_coef + n_eq))
        kkt[: 3 * n_coef, : 3 * n_coef] = h
        kkt[: 3 * n_coef, 3 * n_coef :] = c_mat.T
        kkt[3 * n_coef :, : 3 * n_coef] = c_mat
        rhs = np.concatenate([-g, np.zeros(n_eq)])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        mu = sol[3 * n_coef :]
        return g, sol[: 3 * n_coef]

    def gap_of(a, eta):
        # dual candidate from the equality multipliers, scaled dual-feasible
        nu = (mu[:n_meas] + 1j * mu[n_meas:]) / eta
        g_dual = mat.conj().T @ nu
        ginf = float(np.max(np.abs(g_dual)))
        obj = float(np.sum(np.abs(a)))
        if ginf > 0:
            w_cand = -nu / max(1.0, ginf)
            return obj - float(np.real(np.vdot(w_cand, yn)))
        return obj

    return _barrier_path(u, v, t, merit, newton_step, gap_of, gap_tol)
