"""Matrix-free basis pursuit with noise, its certificates, and the recovery pipelines.

The solver is a first-order primal-dual splitting (Chambolle-Pock) on
min ||a||_1  s.t.  ||A a - y||_2 <= delta,  whose proximal steps are
soft-thresholding and projection onto the l2 ball. check_kkt and duality_gap
certify a candidate independently of how it was found. recover_torus and
recover_sphere run bound -> sample size -> sample -> solve -> report.

The loop restarts adaptively to the running average, as in PDLP (Applegate
et al., "Practical large-scale linear programming using primal-dual hybrid
gradient", NeurIPS 2021), but it measures progress by the fixed-point
residual, as restarted Halpern PDHG does (Lu & Yang, 2024), rather than by a
normalized duality gap. At every check point the candidate is the current
iterate or the average since the last restart, whichever has the lower
residual; the average's residual is that of one step taken from it. With r0
the candidate residual at the last restart, the loop restarts from the
candidate when the candidate residual is <= RESTART_SUFFICIENT * r0, or
<= RESTART_NECESSARY * r0 and above the previous check's, or when the
iterations since the last restart reach RESTART_ARTIFICIAL times the
iterations so far. The first check always restarts (r0 starts at infinity,
and the last rule holds), which sets r0. On the N=256 torus this cuts the
iterations to a tol=1e-8 stop about five-fold.

The steps are balanced by PDLP's primal weight w: the dual step is
sigma = eta * w and the primal step tau = eta / w, with eta = 0.99 / ||A||,
so sigma * tau * ||A||^2 < 1 for every w > 0. w starts at 1 and changes only
at a restart: with da and dz the primal and dual distances from the last
restart point (zero at the start) to the new one, both > 0, it takes
ln w <- theta ln(dz / da) + (1 - theta) ln w, theta = PRIMAL_WEIGHT_SMOOTHING.
In recover_sphere's solves w climbs to 10-400 and they take about 2.4x
fewer iterations; in recover_torus's, whose operator is a row restriction of
a unitary map, it stays near 1. PDLP's theta = 0.5 cost 17% more iterations
on the N=64 torus, where 0.2 is neutral and keeps the sphere gain.

The sphere matrix, its measurements and its truth are real, so
make_sphere_operator declares float64 coefficients and the whole sphere solve
runs in real arithmetic.

A real torus field has a Hermitian spectrum, a[-k] = conj(a[k]), so
recover_torus solves on its rfftn half: the N^(d-1) x (N//2+1) coefficients
with last-axis index 0..N//2. Each stored coefficient carries a weight, the
number of full-spectrum coefficients it stands for: 1 in the self-conjugate
columns (last-axis index 0, and N/2 when N is even), 2 elsewhere. The
solver's coefficient norms and l1 objective are weighted sums, so its
iterates are the half of the full-spectrum iterates, at half the FFT and
elementwise work. Reports always carry the full unitary spectrum, expanded
from the half by Hermitian symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    CertificationError, DataError, DomainError, InfeasibleCandidateError, StructuralError,
)
from .sampling import SampleMultiset, SampleSet, draw_sphere_points, draw_subset, rng_from_seed
from .spectral import forward_dft, fourier_ratio, inverse_dft, SpectralVector
from . import sphere as sph
from . import torus as tor

ERROR_BUDGET_FACTOR = 11.47
Q_MAX = 200_000  # largest sphere sample recover_sphere accepts

# PDLP's adaptive restart parameters (sufficient, necessary, artificial)
RESTART_SUFFICIENT = 0.2
RESTART_NECESSARY = 0.8
RESTART_ARTIFICIAL = 0.36
# weight of the newest restart-to-restart estimate in PDLP's primal weight
PRIMAL_WEIGHT_SMOOTHING = 0.2

CHECK_EVERY = 25  # iterations between stop and restart checks

# power_norm_bound: iterations and start-vector seed
POWER_ITERS = 40
POWER_SEED = 0

# check_kkt: feasibility slack relative to max(1, ||y||), and the relative
# magnitude below which a coefficient counts as a numerical zero
KKT_FEAS_TOL = 1e-6
KKT_SUPPORT_RTOL = 1e-5

RATIO_MEASURED = "measured"
RATIO_BOUND = "bound"


class MeasurementOperator:
    """Forward/adjoint pair coefficients <-> sampled values with a norm bound.

    dtype is the coefficient dtype: float64 for a real matrix with real
    measurements (the sphere), complex128 otherwise. weights, when given, is
    the multiplicity of each stored coefficient in the full spectrum that
    expand(a) rebuilds. Such an operator stores half of a Hermitian spectrum
    and has real measurements; its adjoint is taken in the weighted inner
    product, Re<y, A a> = Re sum_i w_i conj((A^H y)_i) a_i, and norm_bound
    bounds ||A a|| by the weighted norm of a.
    """

    def __init__(
        self,
        forward: Callable[[np.ndarray], np.ndarray],
        adjoint: Callable[[np.ndarray], np.ndarray],
        shape: tuple[int, int],
        norm_bound: float,
        dense: Callable[[], np.ndarray] | None = None,
        weights: np.ndarray | None = None,
        expand: Callable[[np.ndarray], np.ndarray] | None = None,
        dtype: type = np.complex128,
    ):
        self._forward = forward
        self._adjoint = adjoint
        self.shape = shape  # (n_measurements, n_coefficients)
        self.norm_bound = float(norm_bound)
        self._dense = dense
        self.weights = weights
        self._expand = expand
        self.dtype = np.dtype(dtype)

    def forward(self, a: np.ndarray) -> np.ndarray:
        return self._forward(a)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._adjoint(y)

    def to_dense(self) -> np.ndarray:
        if self._dense is None:
            raise StructuralError("this operator has no dense matrix form")
        return self._dense()

    def measurements(self, y) -> np.ndarray:
        """y as a flat vector of this operator's measurement dtype.

        A half-spectrum or real operator takes real measurements.
        """
        real = self.weights is not None or self.dtype == np.float64
        return _as_flat(y, np.float64 if real else np.complex128, "measurements")

    def coefficients(self, a) -> np.ndarray:
        """a as a flat vector of this operator's coefficient dtype."""
        return _as_flat(a, self.dtype, "coefficients")

    def coef_norm(self, a: np.ndarray) -> float:
        """l2 norm of the full spectrum that the coefficients a stand for."""
        if self.weights is None:
            return float(np.linalg.norm(a))
        return math.sqrt(float(np.dot(self.weights, a.real**2 + a.imag**2)))

    def coef_l1(self, a: np.ndarray) -> float:
        """l1 norm of the full spectrum that the coefficients a stand for."""
        if self.weights is None:
            return float(np.sum(np.abs(a)))
        return float(np.dot(self.weights, np.abs(a)))

    def expand(self, a: np.ndarray) -> np.ndarray:
        """The full coefficient vector that the stored coefficients a stand for."""
        return a if self._expand is None else self._expand(a)


def _as_flat(x, dtype: np.dtype, what: str) -> np.ndarray:
    """x raveled and cast to dtype; a real dtype refuses a nonzero imaginary part."""
    x = np.asarray(x).ravel()
    if dtype == np.float64 and np.iscomplexobj(x):
        if np.any(x.imag != 0.0):
            raise DataError(f"a real operator takes real {what}")
        x = x.real
    return x.astype(dtype, copy=False)


def _hermitian_full(half: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Rebuild the flat full spectrum from its rfftn half via a[-k] = conj(a[k])."""
    side = shape[-1]
    half = half.reshape(shape[:-1] + (side // 2 + 1,))
    # full last-axis index j = side//2+1 .. side-1 holds conj of half index side-j
    mirror = np.conj(half[..., side - half.shape[-1]:0:-1])
    for axis in range(len(shape) - 1):
        mirror = np.roll(np.flip(mirror, axis), 1, axis)  # index k -> -k mod side
    return np.concatenate([half, mirror], axis=-1).ravel()


def make_torus_operator(sample: SampleSet, real: bool = False) -> MeasurementOperator:
    """Restriction of the unitary synthesis map to the sampled grid points.

    Forward: coefficients -> field values on the sample; adjoint embeds the
    sampled values at zero elsewhere and applies the forward DFT. Operator
    norm is exactly 1 (row restriction of a unitary map).

    With real=True the operator acts on the rfftn half spectrum of a real
    field (last axis cut to N//2+1 entries): forward is irfftn times N^(d/2)
    sampled to real values, adjoint is rfftn of the zero-embedded real
    values over N^(d/2). Its weights are 1 on the self-conjugate last-axis
    indices (0, and N/2 for even N) and 2 elsewhere, expand() returns the full
    spectrum, and it has no dense form.
    """
    if real:
        return _make_half_torus_operator(sample)
    side, dims = sample.side, sample.dims
    total = side**dims
    shape = (side,) * dims
    scale = side ** (dims / 2.0)
    flat = sample.flat

    def forward(a: np.ndarray) -> np.ndarray:
        fld = np.fft.ifftn(a.reshape(shape)) * scale
        return fld.ravel()[flat]

    def adjoint(y: np.ndarray) -> np.ndarray:
        emb = np.zeros(total, dtype=np.complex128)
        emb[flat] = y
        return (np.fft.fftn(emb.reshape(shape)) / scale).ravel()

    def dense() -> np.ndarray:
        if len(flat) * total > 10_000_000:
            raise MemoryError("dense torus operator requested at too large a size")
        coords = sample.coords  # (k, d)
        freqs = np.stack(
            np.unravel_index(np.arange(total), shape), axis=1
        )  # (total, d)
        phase = (coords @ freqs.T) % side
        return np.exp(2j * np.pi * phase / side) / scale

    return MeasurementOperator(
        forward, adjoint, shape=(len(sample), total), norm_bound=1.0, dense=dense
    )


def _make_half_torus_operator(sample: SampleSet) -> MeasurementOperator:
    side, dims = sample.side, sample.dims
    shape = (side,) * dims
    half_shape = shape[:-1] + (side // 2 + 1,)
    axes = tuple(range(dims))
    scale = side ** (dims / 2.0)
    flat = sample.flat
    last = np.arange(half_shape[-1])
    weights = np.broadcast_to(
        np.where((last == 0) | (2 * last == side), 1.0, 2.0), half_shape
    ).ravel()
    weights.setflags(write=False)

    def forward(a: np.ndarray) -> np.ndarray:
        fld = np.fft.irfftn(a.reshape(half_shape), s=shape, axes=axes)
        return fld.ravel()[flat] * scale

    def adjoint(y: np.ndarray) -> np.ndarray:
        emb = np.zeros(side**dims)
        emb[flat] = y / scale
        return np.fft.rfftn(emb.reshape(shape)).ravel()

    return MeasurementOperator(
        forward, adjoint, shape=(len(sample), weights.size), norm_bound=1.0,
        weights=weights, expand=lambda a: _hermitian_full(a, shape),
    )


def power_norm_bound(forward: Callable, adjoint: Callable, dim: int) -> float:
    """Upper bound on the operator norm via POWER_ITERS steps of power iteration on A^H A.

    It starts from a real vector, so a real operator iterates in real arithmetic.
    """
    x = rng_from_seed(POWER_SEED).standard_normal(dim)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(POWER_ITERS):
        y = adjoint(forward(x))
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 0.0
        x = y / lam
    return math.sqrt(lam) * 1.02  # safety margin over the Rayleigh estimate


def make_sphere_operator(points: SampleMultiset, bandwidth: int) -> MeasurementOperator:
    """Dense evaluation matrix A[j, (l,m)] = Y_l^m(omega_j) with a power-iteration bound.

    The real spherical harmonics make A real, so the operator acts on real
    coefficients and takes real measurements (dtype float64). That loses no
    minimizer: if a is feasible so is Re a, and ||Re a||_1 <= ||a||_1.
    """
    mat = sph.basis_matrix(bandwidth, points.theta, points.phi)
    mat.setflags(write=False)  # to_dense hands out the operator's own matrix
    mat_t = mat.T
    forward, adjoint = (lambda a: mat @ a), (lambda y: mat_t @ y)
    bound = power_norm_bound(forward, adjoint, dim=mat.shape[1])
    return MeasurementOperator(
        forward=forward,
        adjoint=adjoint,
        shape=mat.shape,
        norm_bound=max(bound, 1e-12),
        dense=lambda: mat,
        dtype=np.float64,
    )


@dataclass(frozen=True)
class SolverConfig:
    """Feasibility radius and stopping parameters for the primal-dual solver."""

    delta: float
    max_iter: int = 50_000
    tol: float = 1e-8

    def __post_init__(self):
        if self.delta < 0:
            raise DomainError(f"feasibility radius must be >= 0, got {self.delta}")
        if self.tol <= 0:
            raise DomainError("tolerance must be positive")


@dataclass(frozen=True)
class _Solution:
    """What solve_bpdn returns: the minimizer and how well it was reached."""

    coefficients: np.ndarray
    objective: float
    feasibility_residual: float
    iterations: int
    converged: bool
    restarts: int
    primal_weight: float


@dataclass(frozen=True)
class RecoveryReport(_Solution):
    """Solver output of one recovery trial plus the trial's setting and error.

    norm_provenance names the norms the sample size or certification used
    ("" when none were needed).
    """

    rel_error: float
    imag_ratio: float
    setting: str
    size_param: int
    eps: float
    c_univ: float
    seed: int
    sample_size: int
    clamped: bool
    norm_provenance: str

    @property
    def budget(self) -> float:
        """The relative-error budget 11.47 eps."""
        return ERROR_BUDGET_FACTOR * self.eps


RECOVERY_HEADER = [
    "setting", "N_or_L", "eps", "C_univ", "seed", "sample_size", "objective",
    "feasibility_residual", "rel_error", "budget_11.47eps", "iterations", "converged",
]


def recovery_csv_fields(report: RecoveryReport) -> list[str]:
    return [
        report.setting,
        str(report.size_param),
        f"{report.eps:.17g}",
        f"{report.c_univ:.17g}",
        str(report.seed),
        str(report.sample_size),
        f"{report.objective:.17g}",
        f"{report.feasibility_residual:.17g}",
        f"{report.rel_error:.17g}",
        f"{report.budget:.17g}",
        str(report.iterations),
        str(report.converged).lower(),
    ]


def _soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Complex soft-thresholding x * max(0, 1 - t/|x|) for t > 0.

    Written as x * (1 - t / max(|x|, t)) on one scratch array; entries with
    |x| <= t get the factor 1 - t/t = 0 exactly.
    """
    scale = np.abs(x)
    np.maximum(scale, t, out=scale)
    np.divide(t, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return x * scale


def _cp_step(op, y, a, z, abar, sigma, tau, delta):
    """One Chambolle-Pock step from (a, z) with extrapolated primal abar.

    sigma is the dual step, tau the primal step.
    """
    v = z + sigma * (op.forward(abar) - y)
    vnorm = float(np.linalg.norm(v))
    if delta > 0.0 and vnorm > 0.0:
        z_new = v * max(0.0, 1.0 - sigma * delta / vnorm)
    else:
        z_new = v
    return _soft_threshold(a - tau * op.adjoint(z_new), tau), z_new


def _fixed_point_residual(op, a, z, a_new, z_new, sigma, tau) -> float:
    """Relative fixed-point residual of the step (a, z) -> (a_new, z_new)."""
    da, dz = a - a_new, z - z_new
    d_res = float(np.linalg.norm(dz / sigma - op.forward(da)))
    da /= tau  # in place: one coefficient-sized temporary fewer at the peak
    da -= op.adjoint(dz)
    p_res = op.coef_norm(da)
    scale = max(1.0, op.coef_norm(a_new), float(np.linalg.norm(z_new)))
    return (p_res + d_res) / scale


def solve_bpdn(op: MeasurementOperator, y: np.ndarray, cfg: SolverConfig) -> _Solution:
    """Chambolle-Pock splitting for min ||a||_1 s.t. ||A a - y|| <= delta.

    Dual prox is the shrink form of the l2-ball projection (Moreau identity);
    primal prox is soft-thresholding. Step sizes sigma = 0.99 w/L (dual) and
    tau = 0.99/(w L) (primal), with L the declared operator-norm bound and w
    the primal weight, 1 until the first restart that moves both a and z and
    updated at each restart by the rule of the module docstring; its final
    value is returned as primal_weight. The iterates have op.dtype, so a real
    operator runs in real arithmetic. Coefficient norms and the objective are
    op.coef_norm / op.coef_l1, and the returned coefficients are in the
    operator's own layout.

    Every CHECK_EVERY iterations the loop stops once the fixed-point residual
    of the current iterate is <= tol and the iterate is feasible, with
    ||A a - y|| - delta <= tol * max(1, ||y||); the feasibility test costs one
    forward matvec and runs only once the residual test passes. Otherwise its
    candidate is the current iterate or the running average since the last
    restart, whichever has the lower residual, and it restarts from the
    candidate by the adaptive rule of the module docstring. Non-convergence is
    reported, not raised.
    """
    y = op.measurements(y)
    n_meas, n_coef = op.shape
    if y.size != n_meas:
        raise DataError(f"expected {n_meas} measurements, got {y.size}")
    delta = cfg.delta
    eta = 0.99 / max(op.norm_bound, 1e-12)
    weight = 1.0  # primal weight: sigma = eta * weight, tau = eta / weight
    sigma = tau = eta

    a = np.zeros(n_coef, dtype=op.dtype)
    z = np.zeros(n_meas, dtype=y.dtype)
    abar = a.copy()
    a_sum, z_sum, n_avg = np.zeros_like(a), np.zeros_like(z), 0  # since the last restart
    a_last, z_last = a, z  # the last restart point
    res_restart = res_prev = math.inf  # candidate residual at the last restart / last check
    last_restart = restarts = 0
    feas_tol = cfg.tol * max(1.0, float(np.linalg.norm(y)))
    converged = False
    iterations = cfg.max_iter

    def infeasibility(a: np.ndarray) -> float:
        return float(np.linalg.norm(op.forward(a) - y)) - delta

    for it in range(1, cfg.max_iter + 1):
        a_new, z_new = _cp_step(op, y, a, z, abar, sigma, tau, delta)
        check = it % CHECK_EVERY == 0 or it == cfg.max_iter
        if check:
            res = _fixed_point_residual(op, a, z, a_new, z_new, sigma, tau)
            feas = infeasibility(a_new) if res <= cfg.tol else math.inf
            if feas <= feas_tol:
                a = a_new
                converged = True
                iterations = it
                break
        abar = 2.0 * a_new - a
        a, z = a_new, z_new
        n_avg += 1
        a_sum += a
        z_sum += z
        if not check:
            continue

        a_avg, z_avg = a_sum / n_avg, z_sum / n_avg
        res_avg = _fixed_point_residual(
            op, a_avg, z_avg, *_cp_step(op, y, a_avg, z_avg, a_avg, sigma, tau, delta),
            sigma, tau,
        )
        cand_a, cand_z, cand_res = (a_avg, z_avg, res_avg) if res_avg < res else (a, z, res)
        restart = (
            cand_res <= RESTART_SUFFICIENT * res_restart
            or (cand_res <= RESTART_NECESSARY * res_restart and cand_res > res_prev)
            or it - last_restart >= RESTART_ARTIFICIAL * it
        )
        res_prev = cand_res
        if restart:
            da, dz = op.coef_norm(cand_a - a_last), float(np.linalg.norm(cand_z - z_last))
            if da > 0.0 and dz > 0.0:
                weight = math.exp(
                    PRIMAL_WEIGHT_SMOOTHING * math.log(dz / da)
                    + (1.0 - PRIMAL_WEIGHT_SMOOTHING) * math.log(weight)
                )
                sigma, tau = eta * weight, eta / weight
            a = abar = a_last = cand_a
            z = z_last = cand_z
            a_sum, z_sum, n_avg = np.zeros_like(a), np.zeros_like(z), 0
            res_restart, last_restart = cand_res, it
            restarts += 1

    if not converged:
        feas = infeasibility(a)
    return _Solution(
        coefficients=a,
        objective=op.coef_l1(a),
        feasibility_residual=feas,
        iterations=iterations,
        converged=converged,
        restarts=restarts,
        primal_weight=weight,
    )


def check_kkt(
    op: MeasurementOperator,
    y: np.ndarray,
    delta: float,
    a: np.ndarray,
) -> float:
    """Violation of the l1 subdifferential conditions at a feasible candidate.

    Builds the dual variable from the residual direction: with
    nu = lambda * direction and lambda = 1/||A^H d||_inf, dual feasibility
    |(A^H nu)_i| <= 1 holds by construction. Returned is the larger of the
    worst deviation of (A^H nu)_i from the phase of a_i over the support and
    the complementary slackness defect |  ||rho|| - delta | (when the dual is
    active). Entries below KKT_SUPPORT_RTOL * ||a||_inf count as numerical
    zeros, for which the subdifferential condition is the (exact)
    dual-feasibility bound.
    """
    y = op.measurements(y)
    a = op.coefficients(a)
    rho = op.forward(a) - y
    r = float(np.linalg.norm(rho))
    y_scale = max(1.0, float(np.linalg.norm(y)))
    if r > delta + KKT_FEAS_TOL * y_scale:
        raise InfeasibleCandidateError(
            f"candidate residual {r:.3e} exceeds delta {delta:.3e}"
        )
    amax = float(np.max(np.abs(a))) if a.size else 0.0
    if amax == 0.0:
        return 0.0  # the zero vector is l1-minimal whenever it is feasible
    if delta > 0.0 and (delta - r) > KKT_FEAS_TOL * y_scale:
        # inactive constraint: lambda must vanish, so any nonzero coefficient
        # violates stationarity
        return 1.0

    support = np.abs(a) > KKT_SUPPORT_RTOL * amax
    if r <= 1e-14 * y_scale:
        # delta = 0 with exact fit: find a least-squares dual certificate
        mat = op.to_dense()
        target = np.zeros_like(a)
        target[support] = a[support] / np.abs(a[support])
        nu, *_ = np.linalg.lstsq(mat.conj().T, target, rcond=None)
        g = mat.conj().T @ nu
    else:
        d = -rho / r
        g = op.adjoint(d)
    ginf = float(np.max(np.abs(g)))
    if ginf == 0.0:
        return 1.0
    lam = 1.0 / ginf
    phases = a[support] / np.abs(a[support])
    support_viol = float(np.max(np.abs(lam * g[support] - phases)))
    slack_viol = abs(r - delta) / max(1.0, delta) if delta > 0 else 0.0
    return max(support_viol, slack_viol)


def duality_gap(op: MeasurementOperator, y: np.ndarray, delta: float, a: np.ndarray) -> float:
    """Rigorous gap ||a||_1 - (Re<w, y> - delta ||w||) with w scaled dual-feasible."""
    y = op.measurements(y)
    a = op.coefficients(a)
    rho = op.forward(a) - y
    r = float(np.linalg.norm(rho))
    obj = op.coef_l1(a)
    if r <= 1e-15:
        return obj
    d = -rho / r
    g = op.adjoint(d)
    ginf = float(np.max(np.abs(g)))
    if ginf == 0.0:
        return obj
    lam = 1.0 / ginf
    dual_value = lam * (float(np.real(np.vdot(d, y))) - delta)
    return obj - max(dual_value, 0.0)


# ---------------------------------------------------------------------------
# End-to-end pipelines: bound -> sample size -> sample -> solve -> report.
# ---------------------------------------------------------------------------

def _sample_ratio(
    ratio_source: str,
    measured: float,
    bound: Callable[[], tor.FrBoundReport | sph.SphereFrBoundReport],
) -> tuple[float, str]:
    """The ratio for the sample-size formula, floored at 1, and its norm provenance.

    "measured" is the Fourier ratio of the truth and needs no norms; "bound"
    is the certified r_N / r_L, built by bound() only when asked for because
    the sphere norms are costly.
    """
    if ratio_source == RATIO_MEASURED:
        return max(1.0, measured), ""
    if ratio_source == RATIO_BOUND:
        report = bound()
        return max(1.0, report.r), report.provenance
    raise DomainError(f"unknown ratio source {ratio_source!r}")


def _recover(
    op: MeasurementOperator,
    y: np.ndarray,
    truth: np.ndarray,
    truth_norm: float,
    to_truth_space: Callable[[np.ndarray], np.ndarray],
    delta_override: float | None,
    **fields,
) -> RecoveryReport:
    """Solve for the coefficients and score them against the real-valued truth.

    The report carries the full coefficient vector, op.expand of the solver's.
    to_truth_space maps it to the representation truth is stored in; its real
    part gives rel_error, its imaginary part imag_ratio. fields are the
    remaining RecoveryReport fields, eps among them.
    """
    delta = fields["eps"] * truth_norm if delta_override is None else delta_override
    solution = solve_bpdn(op, y, SolverConfig(delta=delta))
    solution = replace(solution, coefficients=op.expand(solution.coefficients))
    recovered = to_truth_space(solution.coefficients)
    return RecoveryReport(
        **vars(solution),
        rel_error=float(np.linalg.norm(recovered.real - truth) / truth_norm),
        imag_ratio=float(np.linalg.norm(recovered.imag) / truth_norm),
        sample_size=op.shape[0],
        **fields,
    )


def recover_torus(
    f: tor.SmoothFunctionSpec,
    side: int,
    eps: float,
    seed: int,
    c_univ: float = 1.0,
    ratio_source: str = RATIO_MEASURED,
    allow_uncertified: bool = False,
    delta_override: float | None = None,
    sample_size_override: int | None = None,
) -> RecoveryReport:
    """Recover the discretized field from a random subset of its values.

    A real field (every discretized spec) is solved on its rfftn half
    spectrum; the report still carries the full N^2 unitary spectrum.

    ratio_source picks what enters the sample-size formula: the certified
    bound r_N ("bound", faithful but pessimistic enough to clamp to the full
    grid at desk scales) or the measured Fourier ratio ("measured").
    delta_override = 0 requests exact-fit basis pursuit on the observations.
    """
    norms = tor.resolve_norms(f, side)
    rn = tor.compute_rn(norms, side)
    if not rn.certified and not allow_uncertified:
        raise CertificationError(
            f"{f.name} at N={side} fails N L2^2 >= 8 C2^2; "
            "pass allow_uncertified=True to override"
        )
    g = tor.discretize(f, side)
    ratio, _ = _sample_ratio(ratio_source, fourier_ratio(forward_dft(g)), lambda: rn)
    budget = tor.sample_size_torus(ratio, eps, side, 2, c_univ)
    size = budget.size if sample_size_override is None else sample_size_override
    sample = draw_subset(side, 2, size, seed)
    return _recover(
        make_torus_operator(sample, real=g.is_real), g.values[sample.flat], g.values.real, g.l2,
        lambda a: inverse_dft(SpectralVector(coeffs=a, side=side, dims=2)).values,
        delta_override, setting="torus", size_param=side, eps=eps, c_univ=c_univ,
        seed=seed, clamped=budget.clamped, norm_provenance=norms.provenance,
    )


def recover_sphere(
    signal: sph.SphericalSignal,
    eps: float,
    seed: int,
    c_univ: float = 1.0,
    ratio_source: str = RATIO_MEASURED,
    delta_override: float | None = None,
    sample_size_override: int | None = None,
) -> RecoveryReport:
    """Recover a bandlimited sphere signal from i.i.d. uniform point samples."""
    bandwidth = signal.bandwidth
    ratio, provenance = _sample_ratio(
        ratio_source, sph.sphere_fourier_ratio(signal),
        lambda: sph.compute_rl(sph.estimate_sphere_norms(signal), bandwidth),
    )
    q = sph.sample_size_sphere(ratio, eps, bandwidth, c_univ)
    if sample_size_override is not None:
        q = sample_size_override
    if q > Q_MAX:
        raise DomainError(f"sample size {q} exceeds configured q_max={Q_MAX}")
    points = draw_sphere_points(q, seed)
    return _recover(
        make_sphere_operator(points, bandwidth),
        sph.synthesize(signal, points.theta, points.phi),
        signal.coeffs, signal.l2, lambda a: a,
        delta_override, setting="sphere", size_param=bandwidth, eps=eps, c_univ=c_univ,
        seed=seed, clamped=False, norm_provenance=provenance,
    )
