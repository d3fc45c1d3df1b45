"""Matrix-free basis pursuit with noise, its certificates, and the recovery pipelines.

The solver is a first-order primal-dual splitting (Chambolle-Pock) on
min ||a||_1  s.t.  ||A a - y||_2 <= delta,  whose proximal steps are complex
soft-thresholding and projection onto the l2 ball. check_kkt and duality_gap
certify a candidate independently of how it was found. recover_torus and
recover_sphere run bound -> sample size -> sample -> solve -> report.

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
from .spectral import forward_dft, fourier_ratio, inverse_dft, SpectralVector, TORUS
from . import sphere as sph
from . import torus as tor

ERROR_BUDGET_FACTOR = 11.47
Q_MAX = 200_000  # largest sphere sample recover_sphere accepts

RATIO_MEASURED = "measured"
RATIO_BOUND = "bound"


class MeasurementOperator:
    """Forward/adjoint pair coefficients <-> sampled values with a norm bound.

    weights, when given, is the multiplicity of each stored coefficient in the
    full spectrum that expand(a) rebuilds. Such an operator stores half of a
    Hermitian spectrum and has real measurements; its adjoint is taken in the
    weighted inner product, Re<y, A a> = Re sum_i w_i conj((A^H y)_i) a_i, and
    norm_bound bounds ||A a|| by the weighted norm of a.
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
    ):
        self._forward = forward
        self._adjoint = adjoint
        self.shape = shape  # (n_measurements, n_coefficients)
        self.norm_bound = float(norm_bound)
        self._dense = dense
        self.weights = weights
        self._expand = expand

    def forward(self, a: np.ndarray) -> np.ndarray:
        return self._forward(a)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._adjoint(y)

    def to_dense(self) -> np.ndarray:
        if self._dense is None:
            raise StructuralError("this operator has no dense matrix form")
        return self._dense()

    def measurements(self, y) -> np.ndarray:
        """y as a flat vector of this operator's measurement dtype."""
        y = np.asarray(y).ravel()
        if self.weights is None:
            return y.astype(np.complex128, copy=False)
        if np.iscomplexobj(y) and np.any(y.imag != 0.0):
            raise DataError("a half-spectrum operator takes real measurements")
        return np.asarray(y.real, dtype=np.float64)

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


def power_norm_bound(
    forward: Callable, adjoint: Callable, dim: int, iters: int = 40, seed: int = 0
) -> float:
    """Upper bound on the operator norm via power iteration on A^H A."""
    rng = rng_from_seed(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = adjoint(forward(x))
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 0.0
        x = y / lam
    return math.sqrt(lam) * 1.02  # safety margin over the Rayleigh estimate


def make_sphere_operator(points: SampleMultiset, bandwidth: int) -> MeasurementOperator:
    """Dense evaluation matrix A[j, (l,m)] = Y_l^m(omega_j) with a power-iteration bound."""
    mat = sph.basis_matrix(bandwidth, points.theta, points.phi)
    bound = power_norm_bound(
        lambda a: mat @ a, lambda y: mat.T @ y, dim=mat.shape[1]
    )
    return MeasurementOperator(
        forward=lambda a: mat @ a,
        adjoint=lambda y: mat.T @ y,
        shape=mat.shape,
        norm_bound=max(bound, 1e-12),
        dense=lambda: mat.astype(np.complex128),
    )


@dataclass(frozen=True)
class SolverConfig:
    """Feasibility radius and stopping parameters for the primal-dual solver."""

    delta: float
    max_iter: int = 50_000
    tol: float = 1e-8
    check_every: int = 25

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


def solve_bpdn(op: MeasurementOperator, y: np.ndarray, cfg: SolverConfig) -> _Solution:
    """Chambolle-Pock splitting for min ||a||_1 s.t. ||A a - y|| <= delta.

    Dual prox is the shrink form of the l2-ball projection (Moreau identity);
    primal prox is complex soft-thresholding. Step sizes sigma = tau = 0.99/L
    with L the declared operator-norm bound. Non-convergence is reported, not
    raised. Coefficient norms and the objective are op.coef_norm / op.coef_l1,
    and the returned coefficients are in the operator's own layout.
    """
    y = op.measurements(y)
    n_meas, n_coef = op.shape
    if y.size != n_meas:
        raise DataError(f"expected {n_meas} measurements, got {y.size}")
    delta = cfg.delta
    step = 0.99 / max(op.norm_bound, 1e-12)
    sigma = tau = step

    a = np.zeros(n_coef, dtype=np.complex128)
    z = np.zeros(n_meas, dtype=y.dtype)
    abar = a.copy()
    y_scale = max(1.0, float(np.linalg.norm(y)))
    converged = False
    iterations = cfg.max_iter

    for it in range(1, cfg.max_iter + 1):
        v = z + sigma * (op.forward(abar) - y)
        vnorm = float(np.linalg.norm(v))
        if delta > 0.0 and vnorm > 0.0:
            z_new = v * max(0.0, 1.0 - sigma * delta / vnorm)
        else:
            z_new = v
        a_new = _soft_threshold(a - tau * op.adjoint(z_new), tau)
        abar = 2.0 * a_new - a

        if it % cfg.check_every == 0 or it == cfg.max_iter:
            da, dz = a - a_new, z - z_new
            p_res = op.coef_norm(da / tau - op.adjoint(dz))
            d_res = float(np.linalg.norm(dz / sigma - op.forward(da)))
            scale = max(1.0, op.coef_norm(a_new), float(np.linalg.norm(z_new)))
            if (p_res + d_res) / scale <= cfg.tol:
                a, z = a_new, z_new
                converged = True
                iterations = it
                break
        a, z = a_new, z_new

    residual_vec = op.forward(a) - y
    feas = float(np.linalg.norm(residual_vec)) - delta
    if converged and feas > cfg.tol * y_scale:
        converged = False
    return _Solution(
        coefficients=a,
        objective=op.coef_l1(a),
        feasibility_residual=feas,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class KktReport:
    """Violation of the l1 subdifferential conditions at a feasible candidate."""

    residual: float
    support_violation: float
    slackness_violation: float
    dual_scale: float
    constraint_active: bool


def check_kkt(
    op: MeasurementOperator,
    y: np.ndarray,
    delta: float,
    a: np.ndarray,
    feas_tol: float = 1e-6,
    support_rtol: float = 1e-5,
) -> KktReport:
    """Build the dual variable from the residual direction and measure violations.

    With nu = lambda * direction and lambda = 1/||A^H d||_inf, dual feasibility
    |(A^H nu)_i| <= 1 holds by construction; reported are the worst deviation of
    (A^H nu)_i from the phase of a_i over the support and the complementary
    slackness defect |  ||rho|| - delta | (when the dual is active). Entries
    below support_rtol * ||a||_inf count as numerical zeros, for which the
    subdifferential condition is the (exact) dual-feasibility bound.
    """
    y = op.measurements(y)
    a = np.asarray(a, dtype=np.complex128).ravel()
    rho = op.forward(a) - y
    r = float(np.linalg.norm(rho))
    y_scale = max(1.0, float(np.linalg.norm(y)))
    if r > delta + feas_tol * y_scale:
        raise InfeasibleCandidateError(
            f"candidate residual {r:.3e} exceeds delta {delta:.3e}"
        )
    amax = float(np.max(np.abs(a))) if a.size else 0.0
    if amax == 0.0:
        # the zero vector is l1-minimal whenever it is feasible
        return KktReport(0.0, 0.0, 0.0, 0.0, constraint_active=r >= delta - feas_tol * y_scale)

    support = np.abs(a) > support_rtol * amax
    inactive = delta > 0.0 and (delta - r) > feas_tol * y_scale
    if inactive:
        # lambda must vanish, so any nonzero coefficient violates stationarity
        return KktReport(1.0, 1.0, 0.0, 0.0, constraint_active=False)

    if r <= 1e-14 * y_scale:
        # delta = 0 with exact fit: find a least-squares dual certificate
        mat = op.to_dense()
        target = np.zeros(a.size, dtype=np.complex128)
        target[support] = a[support] / np.abs(a[support])
        nu, *_ = np.linalg.lstsq(mat.conj().T, target, rcond=None)
        g = mat.conj().T @ nu
    else:
        d = -rho / r
        g = op.adjoint(d)
    ginf = float(np.max(np.abs(g)))
    if ginf == 0.0:
        return KktReport(1.0, 1.0, 1.0, 0.0, constraint_active=True)
    lam = 1.0 / ginf
    phases = a[support] / np.abs(a[support])
    support_viol = float(np.max(np.abs(lam * g[support] - phases)))
    slack_viol = abs(r - delta) / max(1.0, delta) if delta > 0 else 0.0
    return KktReport(
        residual=max(support_viol, slack_viol),
        support_violation=support_viol,
        slackness_violation=slack_viol,
        dual_scale=lam,
        constraint_active=True,
    )


def duality_gap(op: MeasurementOperator, y: np.ndarray, delta: float, a: np.ndarray) -> float:
    """Rigorous gap ||a||_1 - (Re<w, y> - delta ||w||) with w scaled dual-feasible."""
    y = op.measurements(y)
    a = np.asarray(a, dtype=np.complex128).ravel()
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
        lambda a: inverse_dft(SpectralVector(mode=TORUS, coeffs=a, side=side, dims=2)).values,
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
        sph.synthesize(signal, points.theta, points.phi).astype(np.complex128),
        signal.coeffs, signal.l2, lambda a: a,
        delta_override, setting="sphere", size_param=bandwidth, eps=eps, c_univ=c_univ,
        seed=seed, clamped=False, norm_provenance=provenance,
    )
