"""Matrix-free basis pursuit with noise, its certificates, and the recovery trial.

The solver is a first-order primal-dual splitting (Chambolle-Pock) on
min ||a||_1  s.t.  ||A a - y||_2 <= delta,  whose proximal steps are
soft-thresholding and projection onto the l2 ball. certify checks a candidate,
however it was found, by one dual vector. A recovery target is prepared once
as a Field (torus_field: the discretized field's half spectrum; sphere_field:
the signal's coefficients), which holds its truth, its measured Fourier
ratio and a sampler of its measurement operators, and trial runs one trial
on it in either setting: sample size -> sample -> operator -> solve -> score.
The truth's coefficients, in the operator's layout, give the measurements
y = A truth, the fidelity radius delta = eps ||truth|| and
rel_error = ||a - truth|| / ||truth||, which by Parseval is the relative L2
error of the field too. recover_torus and recover_sphere are one trial on a
fresh field.

The loop is restarted Halpern PDHG with reflection (Lu & Yang, "Restarted
Halpern PDHG for linear programming", 2024): with T one PDHG step, it steps
x <- k/(k+1) (2T(x) - x) + 1/(k+1) x0 at the k-th step after the last
restart point x0. It keeps PDLP's restart rules (Applegate et al., "Practical
large-scale linear programming using primal-dual hybrid gradient", NeurIPS
2021) with the fixed-point residual ||x - T(x)|| as the progress measure. With
r0 the residual at the last restart, the loop restarts from T(x) when the
residual is <= RESTART_SUFFICIENT * r0, or <= RESTART_NECESSARY * r0 and
above the previous check's, or when the iterations since the last restart
reach RESTART_ARTIFICIAL times the iterations so far. The first check always
restarts (r0 starts at infinity, and the last rule holds), which sets r0.
Without restarts the anchored iteration does not reach tol = 1e-8 on the
N=64 torus in 50,000 iterations; with them it takes about 200.

The loop carries the prox inputs s = z - sigma A a and u = a - tau A^H z in
place of a, z, A a and A^H z: T(x) needs a only as soft(u, tau) and z only in
z + sigma (A (2a+ - a) - y) = s + sigma (2 A a+ - y), and s and u take the
same linear combinations as a and z while sigma and tau are fixed, which they
are between restarts. A restart re-forms s and u from T(x) with the new steps;
the anchor keeps T(x)'s a and z for the restart distances and the primal
weight. So T costs one forward and one adjoint product, its residual is
formed from differences of arrays already made, and a step makes 11 passes
over the coefficients (5 to soft-threshold, 1 to read the support off the
threshold factor, 5 for the Halpern step) and 13 over the measurements (4 to
form the ball-prox input, 1 to shrink it, 2 to form s, 1 to scale z+ by
-tau, 5 for the Halpern step). Soft-thresholding hands its support to both
products, so neither scans the coefficients for nonzeros, and u+ takes no
pass of its own: the adjoint of -tau z+ is -tau A^H z+, and a+ is added to
it on its support. A restart that changes tau re-forms u from u - a, which
scales with tau, at no product. A check then costs no product, which is why
it runs every CHECK_EVERY = 5 iterations: a stop or a restart comes at most 4
iterations late.

The loop is _pdhg, a generator that yields at each check and knows nothing
else. The support polish (after FPC_AS) is _polish, a generator too: it solves
the problem restricted to a support in closed form, grows that support by
its largest dual violator when certify refuses the point, and yields each
support it solves with the point certify accepts, if any. It writes
nothing its caller holds. solve_bpdn, a short driver over both, checks the
data, takes the a = 0 exit, forms A^H y once and ends the solve only at a
point certify accepts. It runs the polish first from OMP's first support,
the coefficient of largest correlation |(A^H y)_k|, before any iteration
(the start), and then at the loop's settled supports; it keeps the
supports tried and records every attempt on the solution (attempts).
_polish's docstring describes the polish in full: when it runs, what it
accepts, how far it grows, what it costs and why failed attempts leave a
solve unchanged. Every benchmark trial that is not a = 0 ends at the start.

Only T allocates in the loop: a+, z+, the products' outputs, the carried
arrays of T(x) and the temporaries of the expressions that form them. The
Halpern step allocates nothing. It writes its output into T(x)'s carried
arrays, which T has just made and nothing else holds, and takes
(1 - lam) x0 in one scratch array per carried array, allocated once per
solve; it only reads x and the anchor. Its operations and their order are
those of lam (2 t - c) + (1 - lam) c0, so every float is the same as with
fresh arrays.

An operator with a normal product a -> A^H A a replaces the adjoint with it.
The loop forms b = A^H y once and carries r = A^H s beside s and u: with c
the ball-prox's shrink factor, A^H z+ = c (r + sigma (2 A^H A a+ - b)) and
A^H s+ = A^H z+ - sigma A^H A a+, which costs 14 more passes over the
coefficients, 2 of them to form u+ = a+ - tau A^H z+. A restart re-forms r
from these too, never by an adjoint. Over
a 50,000-iteration exact-fit sphere solve (gauss_heat, L = 32, seed 3),
whose primal weight climbs to 1.2e7 so that ||A^H s|| reaches 6e5 ||b||,
r stays within 3.5e-11 of A^H s relative to its norm, and the solve ends at
the adjoint path's rel_error 2.4e-12.

The steps are balanced by PDLP's primal weight w: the dual step is
sigma = eta * w and the primal step tau = eta / w, with eta = 0.99 / ||A||,
so sigma * tau * ||A||^2 < 1 for every w > 0. w starts at 1 and changes only
at a restart: with da and dz the primal and dual distances from the last
restart point (zero at the start) to the new one, both > 0, it takes
ln w <- theta ln(dz / da) + (1 - theta) ln w, theta = PRIMAL_WEIGHT_SMOOTHING.
In the loop alone, recover_sphere's L = 16 gauss_heat solves (C = 2^-6,
seeds 0-5) see w climb to 42-59 over 175-210 iterations, against 805-925 at
w = 1; recover_torus's cc_half solves at N = 64 (C = 2^-8, seeds 1-4), whose
operator is a row restriction of a unitary map, end at w = 1.1-3.2 over
190-240, against 195-235. PDLP's theta = 0.5 takes 140-185 and 170-260
iterations respectively.

The sphere matrix, its measurements and its truth are real, so
make_sphere_operator declares float64 coefficients and the whole sphere solve
runs in real arithmetic. A sphere iteration's products with the
q x (L+1)^2 matrix cost nearly all of it, so the operator stores the matrix
once, harmonic-major (A^T, one contiguous row of point values per
coefficient), and both products the loop takes read the rows of the
iterate's nonzeros only: the forward product those rows of A^T, and the
normal product those rows of the Gram matrix A^T A, each built once, the
first time its coefficient turns nonzero. The iterate is soft-thresholded:
in recover_sphere's solves a median of 0.5-3% of its coefficients are
nonzero, and the union of the supports over one solve holds 1-20 of the 289
coefficients at L = 16, 9-44 of 1,089 at L = 32 and 27-267 of 4,225 at
L = 64 (the sphere battery, C = 2^-6, seed 5). The one adjoint, A^T y, and
the products of the norm estimate act on dense vectors and take the full
product. That estimate, which sets eta, is 12 Lanczos steps on A^T A times
a margin of 1.02 (lanczos_norm_bound): 24 products with the matrix per
operator, and not a certified bound on ||A||. It runs the first time the
loop reads op.norm_bound, so a solve that ends at the start makes none.

A real field on Z_N^2 has a Hermitian spectrum, a[-k] = conj(a[k]), so the
torus operator acts on its rfft2 half only: the N x (N//2+1) coefficients
with column index 0..N//2. Each stored coefficient carries a weight, the
number of full-spectrum coefficients it stands for: 1 in the self-conjugate
columns (0, and N/2 when N is even), 2 elsewhere. The solver's coefficient
norms and l1 objective are weighted sums, so its iterates are the half of
the full-spectrum iterates, at half the FFT and elementwise work. Complex
torus data has no half and is refused. recover_torus's report carries the
full N^2 unitary spectrum, which it rebuilds from the solver's half by
Hermitian symmetry. As on the sphere, the torus forward product runs over
the iterate's nonzeros only, a sum of nnz |X| phases, and falls back to an
inverse FFT on dense iterates; in recover_torus's cc_half solves at N = 64
and 256 the median iterate has 1 nonzero half-spectrum coefficient. The
adjoint acts on a dense vector and is one FFT pass: a real FFT along the
rows of a zero embedding that the operator keeps and writes at the sample
points only, then a complex FFT along the columns, in place. That is rfft2
bit for bit, without a fresh N^2 embedding or a fresh array for the column
stage per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    CertificationError, DataError, DomainError, InfeasibleCandidateError, StructuralError,
)
from .sampling import (
    SampleMultiset, SampleSet, check_integer, draw_sphere_points, draw_subset, rng_from_seed,
    sample_size,
)
from .spectral import forward_dft, fourier_ratio
from .spectral import inverse_dft  # noqa: F401 - perfbench traces frkit.solver.inverse_dft
from . import sphere as sph
from . import torus as tor

ERROR_BUDGET_FACTOR = 11.47
# most entries q (L+1)^2 of the basis matrix a sphere operator stores (512 MiB)
BASIS_ENTRIES_MAX = 1 << 26

# PDLP's adaptive restart parameters (sufficient, necessary, artificial)
RESTART_SUFFICIENT = 0.2
RESTART_NECESSARY = 0.8
RESTART_ARTIFICIAL = 0.36
# weight of the newest restart-to-restart estimate in PDLP's primal weight
PRIMAL_WEIGHT_SMOOTHING = 0.2

CHECK_EVERY = 5  # iterations between stop and restart checks

# make_torus_operator's forward sums over the iterate's nonzeros while
# nnz * |X| <= TORUS_SPARSE_FORWARD_MAX * N^2, and takes an inverse FFT above.
# With the support handed in, so that neither side scans the coefficients, the
# median ratio of their times over 15 alternating rounds crosses 1 at
# nnz * |X| / N^2 = 0.75-0.9 for (N, |X|) = (64, 50), (64, 198), (256, 527),
# (256, 1053) and (512, 593) (one core of a 2-core VM, two runs).
TORUS_SPARSE_FORWARD_MAX = 0.8

# lanczos_norm_bound: Lanczos steps on A^H A, start-vector seed, and the factor
# over the top Ritz value's square root. Over the 160 sphere_recover operators
# of benchmark seeds 1-10, 12 steps put the bound at 1.002-1.020 ||A|| except
# on two, where the start vector's component along the top eigenvector is
# small and it reads 0.953 and 0.975 ||A|| (the 40-step power iteration fell
# below ||A|| on three; 20 Lanczos steps on none).
LANCZOS_STEPS = 12
LANCZOS_SEED = 0
NORM_MARGIN = 1.02

# certify: feasibility slack relative to max(1, ||y||), and the relative
# magnitude below which a coefficient counts as a numerical zero
KKT_FEAS_TOL = 1e-6
KKT_SUPPORT_RTOL = 1e-5


class MeasurementOperator:
    """Forward/adjoint pair coefficients <-> sampled values with a norm bound.

    dtype is the coefficient dtype: float64 for a real matrix with real
    measurements (the sphere), complex128 otherwise. weights, when given, is
    the multiplicity of each stored coefficient in the full spectrum it
    stands for. Such an operator stores half of a Hermitian spectrum and has
    real measurements; its adjoint is taken in the weighted inner product,
    Re<y, A a> = Re sum_i w_i conj((A^H y)_i) a_i, and norm_bound bounds
    ||A a|| by the weighted norm of a. normal, when given, maps a to
    A^H A a; the solver's loop then forms A^H z from it, not from adjoint.

    The forward and normal closures are called as f(a, nz) with nz always
    np.flatnonzero(a), so neither scans a for its nonzeros: forward(a) finds
    the support once and forward(a, nz) hands nz through, and the loop
    calls normal with the support that soft-thresholding has just decided.
    adjoint must return a fresh array, since the loop writes into it.
    There is no matrix form: certify needs products only.

    norm_bound is a float, or a callable that returns one. A callable runs
    on the first read of op.norm_bound, and its value is kept for every
    later read; only solve_bpdn's loop reads it, so a solve that ends before
    the loop never runs it. The value must be finite and >= 0 (DomainError):
    a float is checked here, a callable's value at that first read.
    measurements and coefficients check a problem's data for solve_bpdn and
    certify alike.
    """

    def __init__(
        self,
        forward: Callable[[np.ndarray, np.ndarray], np.ndarray],
        adjoint: Callable[[np.ndarray], np.ndarray],
        shape: tuple[int, int],
        norm_bound: float | Callable[[], float],
        weights: np.ndarray | None = None,
        dtype: type = np.complex128,
        normal: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ):
        self._forward = forward
        self._adjoint = adjoint
        self.normal = normal
        self.shape = shape  # (n_measurements, n_coefficients)
        self._norm_bound = norm_bound if callable(norm_bound) else _finite_nonnegative(
            float(norm_bound), "norm bound")
        self.weights = weights
        self.dtype = np.dtype(dtype)

    @property
    def norm_bound(self) -> float:
        """The bound on ||A||; a callable bound is evaluated and checked on the first read."""
        if callable(self._norm_bound):
            self._norm_bound = _finite_nonnegative(float(self._norm_bound()), "norm bound")
        return self._norm_bound

    def forward(self, a: np.ndarray, nz: np.ndarray | None = None) -> np.ndarray:
        return self._forward(a, np.flatnonzero(a) if nz is None else nz)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._adjoint(y)

    def measurements(self, y) -> np.ndarray:
        """y as a flat vector of this operator's measurement dtype.

        A half-spectrum or real operator takes real measurements.
        """
        real = self.weights is not None or self.dtype == np.float64
        return _as_flat(y, np.float64 if real else np.complex128, self.shape[0], "measurements")

    def coefficients(self, a) -> np.ndarray:
        """a as a flat vector of this operator's coefficient dtype."""
        return _as_flat(a, self.dtype, self.shape[1], "coefficients")

    def coef_norm(self, a: np.ndarray) -> float:
        """l2 norm of the full spectrum that the coefficients a stand for."""
        if self.weights is None:
            return float(np.linalg.norm(a))
        return math.sqrt(float(np.sum(self.weights * (a.real**2 + a.imag**2))))

    def coef_l1(self, a: np.ndarray) -> float:
        """l1 norm of the full spectrum that the coefficients a stand for."""
        if self.weights is None:
            return float(np.sum(np.abs(a)))
        return float(np.sum(self.weights * np.abs(a)))


def _as_flat(x, dtype: np.dtype, size: int, what: str) -> np.ndarray:
    """x raveled and cast to dtype: size entries and real for float64 (StructuralError),
    of finite norm (DataError)."""
    x = np.asarray(x).ravel()
    if x.size != size:
        raise StructuralError(f"expected {size} {what}, got {x.size}")
    if dtype == np.float64 and np.iscomplexobj(x):
        if np.any(x.imag != 0.0):
            raise StructuralError(f"a real operator takes real {what}")
        x = x.real
    x = x.astype(dtype, copy=False)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if not math.isfinite(norm):
        raise DataError(f"{what} must be finite, got norm {norm}")
    return x


def _finite_nonnegative(value: float, what: str) -> float:
    """value, or DomainError unless 0 <= value < inf."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{what} must be finite and >= 0, got {value}")
    return value


def _hermitian_full(half: np.ndarray, side: int) -> np.ndarray:
    """Rebuild the flat N x N spectrum from its rfft2 half via a[-k] = conj(a[k])."""
    half = half.reshape(side, side // 2 + 1)
    # full column j = side//2+1 .. side-1 holds conj of half column side-j, rows k -> -k
    mirror = np.roll(np.flip(np.conj(half[:, side - half.shape[1]:0:-1]), 0), 1, 0)
    return np.concatenate([half, mirror], axis=1).ravel()


def make_torus_operator(sample: SampleSet) -> MeasurementOperator:
    """Restriction of the unitary synthesis map of a real field on Z_N^2 to the sample.

    The operator acts on the rfft2 half spectrum (second axis cut to N//2+1
    entries). Its weights are 1 on the self-conjugate columns (0, and N/2
    for even N) and 2 elsewhere, and its norm is exactly 1 (row restriction
    of a unitary map). It knows no full-spectrum layout: _hermitian_full
    rebuilds the N^2 spectrum from its coefficients.

    Forward sums over the nonzeros nz of a only, the support that
    MeasurementOperator.forward hands it: at the sample points x,
    (A a)(x) = (1/N) sum_{k in nz} w_k Re(a_k e^{2 pi i (k1 x1 + k2 x2)/N}),
    with cos and sin read from one table of the N-th roots of unity at
    (k1 x1 + k2 x2) mod N. That costs O(nnz |X|) against the O(N^2 log N)
    of an inverse FFT, and the solver's soft-thresholded iterates hold few
    nonzeros. Gathering cos and sin one at a time, for two real products,
    keeps its peak memory near the crossover at the inverse FFT's. Once
    nnz |X| exceeds TORUS_SPARSE_FORWARD_MAX N^2 it takes irfftn times N,
    sampled to real values, instead. The adjoint is rfftn of the
    zero-embedded real values over N, taken as rfft along axis 1 and then fft
    along axis 0 in place of its output (bitwise rfftn), and returns a fresh
    array. The embedding is one N x N array per operator, written at the
    sample points on every call and zero elsewhere, so the adjoint is not
    reentrant: two threads must not call one operator's adjoint at once (a
    sweep runs its trials in processes, each with its own operator).
    """
    side, flat = sample.side, sample.flat
    shape, half_shape = (side, side), (side, side // 2 + 1)
    scale = float(side)
    last = np.arange(half_shape[1])
    weights = np.broadcast_to(
        np.where((last == 0) | (2 * last == side), 1.0, 2.0), half_shape
    ).ravel()
    weights.setflags(write=False)
    x1, x2 = np.divmod(flat, side)
    roots = np.exp(2j * np.pi * np.arange(side) / side)
    cos, sin = roots.real, roots.imag
    max_terms = TORUS_SPARSE_FORWARD_MAX * side * side
    emb = np.zeros(side * side)  # the adjoint's zero embedding, written only at the sample

    def forward(a: np.ndarray, nz: np.ndarray) -> np.ndarray:
        if nz.size * flat.size > max_terms:
            fld = np.fft.irfftn(a.reshape(half_shape), s=shape, axes=(0, 1))
            return fld.ravel()[flat] * scale
        k1, k2 = np.divmod(nz, half_shape[1])
        phase = k1[:, None] * x1 + k2[:, None] * x2
        phase %= side
        c = a[nz] * (weights[nz] / scale)
        return c.real @ cos[phase] - c.imag @ sin[phase]

    def adjoint(y: np.ndarray) -> np.ndarray:
        emb[flat] = y / scale
        half = np.fft.rfft(emb.reshape(shape), axis=1)
        return np.fft.fft(half, axis=0, out=half).ravel()

    return MeasurementOperator(
        forward, adjoint, shape=(len(sample), weights.size), norm_bound=1.0, weights=weights,
    )


def lanczos_norm_bound(forward: Callable, adjoint: Callable, dim: int) -> float:
    """Operator-norm estimate from LANCZOS_STEPS Lanczos steps on A^H A, times NORM_MARGIN.

    Each step takes one forward and one adjoint product. The basis is
    reorthogonalized in full (two Gram-Schmidt passes against every stored
    vector), and the run stops early once the residual is at most 1e-12
    times the largest diagonal entry: the Krylov space is then invariant, as
    it is after dim steps or on a low-rank operator, and the tridiagonal
    holds the exact top eigenvalue. The top Ritz value never exceeds
    lambda_max(A^H A), so its square root is at most ||A||; only the margin
    lifts the estimate above ||A||, and nothing certifies that it does.
    The start vector is real, so a real operator runs in real arithmetic.
    """
    steps = min(LANCZOS_STEPS, dim)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    q = rng_from_seed(LANCZOS_SEED).standard_normal(dim)
    q /= np.linalg.norm(q)
    for j in range(steps):
        w = adjoint(forward(q))
        if j == 0:
            basis = np.empty((steps, dim), dtype=np.result_type(w, np.float64))
        basis[j] = q
        alpha[j] = np.vdot(q, w).real
        done = basis[:j + 1]
        for _ in range(2):
            w = w - (done.conj() @ w) @ done
        beta[j] = np.linalg.norm(w)
        if beta[j] <= 1e-12 * alpha[:j + 1].max():
            break
        q = w / beta[j]
    k = j + 1
    off = beta[:k - 1]
    tri = np.diag(alpha[:k]) + np.diag(off, 1) + np.diag(off, -1)  # eigvalsh reads the lower triangle
    return math.sqrt(max(float(np.linalg.eigvalsh(tri)[-1]), 0.0)) * NORM_MARGIN


class _GramRows:
    """a -> A^T A a for the harmonic-major sphere matrix, from Gram rows built on first use.

    Gram row n, rows[n] @ rows.T, is built the first time coefficient n is
    nonzero, and the call returns a[nz] @ G[nz] over a's nonzeros nz. slot[n]
    is the row of the block that holds Gram row n, -1 while it is not built;
    the block's first `built` rows are in use, and its capacity at least
    doubles when it grows, up to the (L+1)^2 rows of the full Gram.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = rows
        dim = rows.shape[0]
        self.slot = np.full(dim, -1, dtype=np.intp)
        self.built = 0
        self._block = np.empty((0, dim))

    def __call__(self, a: np.ndarray, nz: np.ndarray) -> np.ndarray:
        missing = nz[self.slot[nz] < 0]
        if missing.size:
            self._build(missing)
        return a[nz] @ self._block[self.slot[nz]]

    def _build(self, missing: np.ndarray) -> None:
        start, stop = self.built, self.built + missing.size
        if stop > len(self._block):
            grown = np.empty((min(self.slot.size, max(stop, 2 * len(self._block))), self.slot.size))
            grown[:start] = self._block[:start]
            self._block = grown
        self._block[start:stop] = self._rows[missing] @ self._rows.T
        self.slot[missing] = np.arange(start, stop)  # published once their rows are filled
        self.built = stop


def make_sphere_operator(points: SampleMultiset, bandwidth: int) -> MeasurementOperator:
    """Dense evaluation matrix A[j, (l,m)] = Y_l^m(omega_j) with a Lanczos norm estimate.

    The real spherical harmonics make A real, so the operator acts on real
    coefficients and takes real measurements (dtype float64). That loses no
    minimizer: if a is feasible so is Re a, and ||Re a||_1 <= ||a||_1.

    The one stored copy is A^T, harmonic-major: rows[(l,m)] holds Y_l^m at
    every point, C-contiguous. The forward product reads only the rows of
    the nonzero coefficients, a[nz] @ rows[nz], since the solver applies it
    to soft-thresholded iterates; the adjoint is rows @ y. normal(a) = A^T A a
    reads the Gram rows rows[n] @ rows.T of a's nonzeros only, each built
    once, the first time its coefficient is nonzero (_GramRows): they take
    rows built x (L+1)^2 x 8 B, in a block allocated at most twice that, and
    they are the full Gram only if every coefficient turns nonzero.

    norm_bound is lanczos_norm_bound's 12-step Lanczos estimate of ||A||
    times 1.02: an estimate with a margin, not a certified bound. The
    Lanczos vectors are dense, so its forward is the plain product x @ rows.
    The operator gets the estimate as a callable, so its 24 dense products
    run on the first read of op.norm_bound: the first PDHG step, never in a
    solve that the start certifies.
    """
    rows = sph.basis_matrix(bandwidth, points.theta, points.phi).T

    def forward(a: np.ndarray, nz: np.ndarray) -> np.ndarray:
        return a[nz] @ rows[nz]

    def adjoint(y: np.ndarray) -> np.ndarray:
        return rows @ y

    return MeasurementOperator(
        forward=forward,
        adjoint=adjoint,
        shape=rows.shape[::-1],
        norm_bound=lambda: lanczos_norm_bound(lambda x: x @ rows, adjoint, dim=rows.shape[0]),
        dtype=np.float64,
        normal=_GramRows(rows),
    )


@dataclass(frozen=True)
class SolverConfig:
    """Feasibility radius and stopping parameters for the primal-dual solver."""

    delta: float
    max_iter: int = 50_000
    tol: float = 1e-8

    def __post_init__(self):
        _finite_nonnegative(self.delta, "feasibility radius")
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tolerance must be finite and positive, got {self.tol}")
        check_integer(self.max_iter, 1, "max_iter")


@dataclass(frozen=True)
class _Solution:
    """What solve_bpdn returns: the minimizer, how well it was reached and its polish attempts.

    attempts holds one (first support size, coefficients added, accepted)
    entry per run of the support polish, the start first.
    """

    coefficients: np.ndarray
    objective: float
    feasibility_residual: float
    iterations: int
    converged: bool
    restarts: int
    primal_weight: float
    attempts: tuple[tuple[int, int, bool], ...]


@dataclass(frozen=True)
class RecoveryReport(_Solution):
    """The results of one recovery trial, none of its inputs: the solver's output,
    rel_error, the number of samples drawn, and whether the sample-size formula
    asked for more than the N^2 torus grid points (clamped)."""

    rel_error: float
    sample_size: int
    clamped: bool


def _soft_threshold(x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Complex soft-thresholding x * max(0, 1 - t/|x|) for t > 0, and its support.

    Written as x * (1 - t / max(|x|, t)) on one scratch array; entries with
    |x| <= t get the factor 1 - t/t = 0 exactly. The support, the indices of
    the result's nonzeros in order, is read off the factor, a real array that
    is cheaper to scan than the complex result: where the factor is nonzero,
    |x| > t and the product's magnitude is about |x| - t, at least about one
    ulp of t, so it does not underflow to zero.
    """
    scale = np.abs(x)
    np.maximum(scale, t, out=scale)
    np.divide(t, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return x * scale, np.flatnonzero(scale != 0.0)


def solve_bpdn(op: MeasurementOperator, y: np.ndarray, cfg: SolverConfig) -> _Solution:
    """min ||a||_1 s.t. ||A a - y|| <= delta: a driver over the loop _pdhg and the support polish.

    op.measurements checks y: StructuralError on a wrong length, DataError on
    a non-finite norm. When delta >= ||y||, a = 0 is feasible and hence the
    minimizer: it is returned at once, with iterations 0, objective 0, no
    attempts and no product. Else the driver forms A^H y by one adjoint
    product, which is also b when op has a normal product, and starts: it
    runs _polish on OMP's first support S0 = {k}, k the coefficient of
    largest correlation |(A^H y)_k|, with a = (A^H y)_k on S0 and
    cut = START_CUT. A point the start accepts is returned with iterations
    0, converged, restarts 0 and primal weight 1, and no PDHG step is
    taken; its objective is > 0, which tells it from the a = 0 exit. Then
    the driver reads _pdhg's checks. At each but the last it runs _polish
    when the support of a+ is that of the previous check, non-empty and not
    yet tried, and the iterations have doubled since the last failed
    attempt; a point it accepts is returned, converged, with that check's
    iterations, restarts and primal weight. Otherwise the loop's last check
    is returned, converged or at max_iter: non-convergence is reported, not
    raised. The first support of every attempt and each support _polish
    yields count as tried. attempts records each attempt in order, the
    start first, as (|S0|, the coefficients it added, whether it accepted
    a point).
    """
    y = op.measurements(y)
    y_norm = float(np.linalg.norm(y))
    a, feas = np.zeros(op.shape[1], dtype=op.dtype), y_norm - cfg.delta  # ||A 0 - y|| - delta
    if feas <= 0.0:
        return _Solution(a, 0.0, feas, iterations=0, converged=True, restarts=0, primal_weight=1.0,
                         attempts=())
    g = op.adjoint(y)  # A^H y: the start's correlations, and b when op has a normal product
    b = None if op.normal is None else g
    feas_tol = cfg.tol * max(1.0, y_norm)
    tried, attempts = set(), []  # the supports polished, by their indices' bytes; the record

    def attempt(a, support, cut=None):
        tried.add(support.tobytes())
        last = accepted = None
        for last, accepted in _polish(op, y, cfg.delta, a, support, b, cfg.tol, feas_tol, cut):
            tried.add(last.tobytes())
        grown = 0 if last is None else last.size - support.size
        attempts.append((support.size, grown, accepted is not None))
        return accepted

    # the start: the polish from OMP's first support, the largest |(A^H y)_k|
    k = int(np.argmax(np.abs(g)))
    a[k] = g[k]
    started = attempt(a, np.array([k], dtype=np.intp), START_CUT)
    if started is not None:
        a, feas = started
        return _Solution(a, op.coef_l1(a), feas, iterations=0, converged=True, restarts=0,
                         primal_weight=1.0, attempts=tuple(attempts))
    # the last check's support and the next attempt's least iteration
    key_prev, polish_from = None, 0
    for a, nz, feas, it, converged, restarts, weight in _pdhg(op, y, cfg, b):
        if converged or it == cfg.max_iter:
            break
        key = nz.tobytes()
        if it >= polish_from and nz.size and key == key_prev and key not in tried:
            polished = attempt(a, nz)
            if polished is not None:
                (a, feas), converged = polished, True
                break
            polish_from = 2 * it
        key_prev = key
    return _Solution(coefficients=a, objective=op.coef_l1(a), feasibility_residual=feas,
                     iterations=it, converged=converged, restarts=restarts, primal_weight=weight,
                     attempts=tuple(attempts))


# The start's growth rule (_polish with cut = START_CUT): while no point on
# the support is feasible, each addition must cut ||A x - y|| to at most
# START_CUT times the last refused point's, and once one is, at most |S| more
# coefficients may join. OMP cuts the residual geometrically on a sparse or
# fast-decaying spectrum and slowly on a flat one. Measured from a = 0 with
# neither limit, on the benchmark cells (cc_half at N = 64, C = 2^-8 and
# 2^-6, 40 trials each, and at N = 256, C = 2^-4, 8 trials; mix5 and
# gauss_heat at L = 16 and 32, 10 trials each; trial seeds spawn_seeds(1, 40)):
# the worst cut is 0.83, and every trial is certified at most 2 additions
# after its first feasible support of 1-11 coefficients. The Poisson kernel of
# TestSupportPolish (N = 256, |X| = 503 and 2,011, seeds 1-2) cuts by
# 0.78-0.84 twice and then by 0.89-0.91, and the L = 64 decay_alt trials
# (seeds 1-3) by 0.76-0.86 twice and then by 0.87-0.89: both stop after three
# additions, and the loop solves them. Uncapped, the Poisson start grows past
# 100 coefficients and takes 2.4-2.6 s of a 3.0 s solve (0.55 s without a
# start). One sphere_recover trial (seed 2 pass, L = 32 gauss_heat) needs 6
# additions after its first feasible support of 11; ceil(log2(12)) = 4, the
# in-loop rule, would refuse it.
START_CUT = 0.86


def _pdhg(op: MeasurementOperator, y: np.ndarray, cfg: SolverConfig, b: np.ndarray | None):
    """Restarted reflected Halpern PDHG from a = 0, z = 0, yielding at each check.

    One PDHG step T maps x = (a, z) to a+ = soft(a - tau A^H z) and
    z+ = ball-prox(z + sigma (A (2 a+ - a) - y)), the shrink form of the
    l2-ball projection (Moreau identity). The loop takes Halpern steps on the
    reflection 2T - I, x <- k/(k+1) (2T(x) - x) + 1/(k+1) x0 at the k-th step
    after the last restart point x0, and after a restart goes on from T(x).
    Step sizes are sigma = 0.99 w/L (dual) and tau = 0.99/(w L) (primal),
    with L = op.norm_bound, read nowhere else in a solve, and w the primal
    weight of the module docstring. It carries the prox inputs (module
    docstring), so a step makes one forward and one adjoint product, or a
    normal product in place of the adjoint when op.normal is set and
    b = A^H y is given. The iterates have op.dtype and the operator's layout.

    Every CHECK_EVERY iterations and at cfg.max_iter it yields (a+, its
    support, ||A a+ - y|| - delta, iterations, converged, restarts, primal
    weight), converged once the fixed-point residual of x is <= tol and
    ||A a+ - y|| - delta <= tol max(1, ||y||), both from that step's A a+.
    A check makes no product, and no yielded a+ is written. The loop returns
    after a converged check or the one at max_iter, and otherwise restarts
    from T(x) by the adaptive rule of the module docstring.
    """
    delta = cfg.delta
    eta = 0.99 / max(op.norm_bound, 1e-12)
    weight = 1.0  # primal weight: sigma = eta * weight, tau = eta / weight
    sigma = tau = eta
    normal = op.normal
    # the carried arrays at a = 0, z = 0
    x = (np.zeros(op.shape[0], dtype=y.dtype), np.zeros(op.shape[1], dtype=op.dtype))
    if normal is not None:
        x += (np.zeros_like(b),)
    anchor = (x[1], x[0], x)  # the last restart point a = u = 0, z = s = 0 and its carried arrays
    scratch = tuple(np.empty_like(c) for c in x)  # (1 - lam) c0 of each Halpern step
    res_restart = res_prev = math.inf  # residual at the last restart / last check
    last_restart = restarts = 0
    feas_tol = cfg.tol * max(1.0, float(np.linalg.norm(y)))

    for it in range(1, cfg.max_iter + 1):
        # T(x) from the prox inputs s and u: one forward product, and one adjoint
        # or one normal product
        s, u = x[0], x[1]
        a_t, nz = _soft_threshold(u, tau)
        f_t = op.forward(a_t, nz)
        v = s + sigma * (2.0 * f_t - y)
        vnorm = float(np.linalg.norm(v))
        shrink = max(0.0, 1.0 - sigma * delta / vnorm) if delta > 0.0 and vnorm > 0.0 else 1.0
        z_t = v * shrink
        if normal is None:
            u_t = op.adjoint(-tau * z_t)  # a_t - tau A^H z_t, with a_t added on its support
            u_t[nz] += a_t[nz]
            x_t = (z_t - sigma * f_t, u_t)
        else:
            h_t = normal(a_t, nz)
            g_t = shrink * (x[2] + sigma * (2.0 * h_t - b))  # A^H z_t
            x_t = (z_t - sigma * f_t, a_t - tau * g_t, g_t - sigma * h_t)
        if it % CHECK_EVERY == 0 or it == cfg.max_iter:
            d_res = float(np.linalg.norm(s - x_t[0])) / sigma
            p_res = op.coef_norm(u - x_t[1]) / tau
            res = (p_res + d_res) / max(1.0, op.coef_norm(a_t), float(np.linalg.norm(z_t)))
            feas = float(np.linalg.norm(f_t - y)) - delta  # f_t is A a_t, made this step
            converged = res <= cfg.tol and feas <= feas_tol
            yield a_t, nz, feas, it, converged, restarts, weight
            if converged or it == cfg.max_iter:
                return
            restart = (
                res <= RESTART_SUFFICIENT * res_restart
                or (res <= RESTART_NECESSARY * res_restart and res > res_prev)
                or it - last_restart >= RESTART_ARTIFICIAL * it
            )
            res_prev = res
            if restart:
                da, dz = op.coef_norm(a_t - anchor[0]), float(np.linalg.norm(z_t - anchor[1]))
                if da > 0.0 and dz > 0.0:
                    weight = math.exp(
                        PRIMAL_WEIGHT_SMOOTHING * math.log(dz / da)
                        + (1.0 - PRIMAL_WEIGHT_SMOOTHING) * math.log(weight)
                    )
                    tau_prev = tau
                    sigma, tau = eta * weight, eta / weight
                    if normal is None:  # u_t - a_t is -tau_prev A^H z_t
                        x_t = (z_t - sigma * f_t, a_t + (tau / tau_prev) * (x_t[1] - a_t))
                    else:
                        x_t = (z_t - sigma * f_t, a_t - tau * g_t, g_t - sigma * h_t)
                x = x_t
                anchor = (a_t, z_t, x)
                res_restart, last_restart = res, it
                restarts += 1
                continue
        # Halpern step k after the last restart, on 2T - I over the carried arrays:
        # lam (2 t - c) + (1 - lam) c0, written into T(x)'s fresh arrays t
        k = it - last_restart
        lam = k / (k + 1)
        for t, c, c0, w in zip(x_t, x, anchor[2], scratch):
            np.multiply(2.0, t, out=t)
            np.subtract(t, c, out=t)
            np.multiply(lam, t, out=t)
            np.multiply(1.0 - lam, c0, out=w)
            np.add(t, w, out=t)
        x = x_t


@dataclass(frozen=True)
class Certificate:
    """certify's verdict on a candidate: its duality gap and its KKT residual."""

    gap: float
    kkt: float


def _droppable(op: MeasurementOperator, support: np.ndarray) -> np.ndarray:
    """The unit directions of _unit_forwards that A may map to zero, as a flat mask in their order.

    Only the imaginary direction of a weight-1 coefficient of a half
    spectrum can: A keeps the real part of w_k a_k times a phase, and for a
    self-conjugate k (on the torus, k1 and k2 each 0 or N/2) that of i e_k
    is 0 or rounding noise. A weight-1 coefficient whose mirror -k is stored
    too has a live imaginary direction. The directions that are not
    droppable are the fewest _live_columns can keep, counted without a
    product; more than the m real measurement rows make the Gram singular.
    """
    complex_ = op.dtype == np.complex128
    mask = np.zeros(support.size * (2 if complex_ else 1), dtype=bool)
    if op.weights is not None and complex_:
        mask[1::2] = op.weights[support] == 1.0
    return mask


def _unit_forwards(
    op: MeasurementOperator, support: np.ndarray, unit_vec: np.ndarray | None = None,
) -> np.ndarray:
    """A u for every unit direction u on the support, one forward product each, as rows.

    The directions are the entries of the float64 view of a[support], in
    its order: e_k, then i e_k when the coefficients are complex, for each k
    in support. Each is made by writing 1.0 into that view of unit_vec, a
    zero vector of op's coefficients (a fresh one when None), and 0.0 after
    its product, so unit_vec is zero again on return.
    """
    if unit_vec is None:
        unit_vec = np.zeros(op.shape[1], dtype=op.dtype)
    flat = _real_view(unit_vec)
    units = flat.size // unit_vec.size
    rows = []
    for k in support:
        for j in range(units * k, units * (k + 1)):
            flat[j] = 1.0
            rows.append(op.forward(unit_vec, np.array([k])))
            flat[j] = 0.0
    return np.array(rows)


def _live_columns(op: MeasurementOperator, support: np.ndarray, forwards: np.ndarray) -> np.ndarray:
    """The mask of the rows of _unit_forwards that A does not map to zero.

    A _droppable row is dropped when its norm is at most eps max(m, p) times
    the largest (numpy's matrix_rank tolerance, with p columns of length m);
    every other row is kept. The live rows are the support's columns, and
    the masked float64 view of a[support] their unknowns.
    """
    norms = np.linalg.norm(forwards, axis=1)
    return ~_droppable(op, support) | (
        norms > norms.max() * max(forwards.shape) * np.finfo(float).eps)


def _real_view(v: np.ndarray) -> np.ndarray:
    """v's (re, im) pairs as float64 entries, so Re<u, v> is a real dot product."""
    return v.view(np.float64) if np.iscomplexobj(v) else v


def _support_dual(op: MeasurementOperator, support: np.ndarray, phases: np.ndarray):
    """Minimum-norm nu for (A^H nu)_S = phases, least squares in the weighted norm.

    The weighted adjoint gives w_k Re (A^H nu)_k = Re<A e_k, nu> and
    w_k Im (A^H nu)_k = Re<A (i e_k), nu>: one equation per unit column of
    _live_columns, scaled by 1/sqrt(w_k), so the fit is the full spectrum's.
    The fit is an SVD cut at numpy's lstsq tolerance, so nu lies in the span
    of the columns, nu = A v; v, supported on S, is returned beside it.
    """
    forwards = _unit_forwards(op, support)
    live = _live_columns(op, support, forwards)
    root_w = np.ones(np.count_nonzero(live)) if op.weights is None else np.sqrt(
        np.repeat(op.weights[support], live.size // support.size)[live])
    rows = forwards[live] / root_w[:, None]
    # Re<c, nu> pairs the (re, im) entries of c with those of nu, as the float views do
    u, s, vt = np.linalg.svd(_real_view(rows), full_matrices=False)
    keep = s > s[0] * max(len(rows), vt.shape[1]) * np.finfo(float).eps
    u, s, vt = u[:, keep], s[keep], vt[keep]
    fit = (u.T @ (_real_view(phases)[live] * root_w)) / s
    v = np.zeros(op.shape[1], dtype=op.dtype)
    v_s = np.zeros(support.size, dtype=op.dtype)
    _real_view(v_s)[live] = u @ (fit / s) / root_w
    v[support] = v_s
    return (vt.T @ fit).view(rows.dtype), v


def certify(op: MeasurementOperator, y: np.ndarray, delta: float, a: np.ndarray) -> Certificate:
    """Duality gap and KKT residual of a feasible candidate, both read off one dual nu.

    nu is the residual direction -rho / ||rho|| (rho = A a - y) when delta > 0
    and rho != 0, else _support_dual's nu on the support S of a, where entries
    below KKT_SUPPORT_RTOL ||a||_inf count as zeros. With g = A^H nu, nu / ||g||_inf
    is dual-feasible: gap = ||a||_1 - max(0, (Re<nu, y> - delta ||nu||) / ||g||_inf).
    kkt is 1 if the constraint is inactive (its multiplier must vanish). Else it
    is the worst deviation of g_S / ||g||_inf from phase(a_S), or the slackness
    defect | ||rho|| - delta | / max(1, delta) if larger, for the residual
    direction; for the least-squares nu, that of g_S, or the worst excess of
    |g_i| over 1 off S if larger. A feasible zero vector is the minimizer: (0, 0).
    Raises InfeasibleCandidateError if ||rho|| > delta + KKT_FEAS_TOL max(1, ||y||).
    y, a and delta are checked as solve_bpdn's are (StructuralError, DataError, DomainError).
    """
    _finite_nonnegative(delta, "feasibility radius")
    return _certify(op, op.measurements(y), delta, op.coefficients(a), None)[0]


def _correlation(
    op: MeasurementOperator, b: np.ndarray | None, a: np.ndarray, rho: np.ndarray, r: float = 1.0,
) -> np.ndarray:
    """The dual correlation A^H (-rho) / r at a, with rho = A a - y.

    b = A^H y is given only for an operator with a normal product (None
    otherwise), which forms it as (b - A^H A a) / r and makes no adjoint;
    without b it is the adjoint of -rho / r. op.adjoint is the weighted
    adjoint, so |g_k| is the unweighted correlation over w_k.
    """
    if b is None:
        return op.adjoint(-rho / r)
    return (b - op.normal(a, np.flatnonzero(a))) / r


def _certify(
    op: MeasurementOperator, y: np.ndarray, delta: float, a: np.ndarray, b: np.ndarray | None,
) -> tuple[Certificate, float, np.ndarray | None]:
    """certify on checked data, ||A a - y||, and g if nu is the residual direction.

    g is _correlation's for the residual direction. For the least-squares
    nu = A v it is A^H A v when b = A^H y is given, which only an operator
    with a normal product gets, else A^H nu. solve_bpdn passes its b, and
    its Gram rows on the candidate's support are built by then.
    """
    rho = op.forward(a) - y
    r = float(np.linalg.norm(rho))
    y_scale = max(1.0, float(np.linalg.norm(y)))
    if r > delta + KKT_FEAS_TOL * y_scale:
        raise InfeasibleCandidateError(
            f"candidate residual {r:.3e} exceeds delta {delta:.3e}"
        )
    mags = np.abs(a)
    amax = float(np.max(mags, initial=0.0))
    if amax == 0.0:
        return Certificate(gap=0.0, kkt=0.0), r, None
    obj = op.coef_l1(a)
    support = mags > KKT_SUPPORT_RTOL * amax
    phases = a[support] / mags[support]
    least_squares = delta == 0.0 or r == 0.0
    if least_squares:
        nu, v = _support_dual(op, np.flatnonzero(support), phases)
        g = op.adjoint(nu) if b is None else op.normal(v, np.flatnonzero(v))
    else:
        nu = -rho / r
        g = _correlation(op, b, a, rho, r)
    residual_g = None if least_squares else g
    ginf = float(np.max(np.abs(g)))
    if ginf == 0.0:
        return Certificate(gap=obj, kkt=1.0), r, residual_g
    dual = (float(np.vdot(nu, y).real) - delta * float(np.linalg.norm(nu))) / ginf
    if delta - r > KKT_FEAS_TOL * y_scale:  # inactive constraint
        kkt = 1.0
    elif least_squares:
        kkt = max(
            float(np.max(np.abs(g[support] - phases))),
            float(np.max(np.abs(g[~support]), initial=1.0)) - 1.0,
        )
    else:
        kkt = max(
            float(np.max(np.abs(g[support] / ginf - phases))),
            abs(r - delta) / max(1.0, delta),
        )
    return Certificate(gap=obj - max(dual, 0.0), kkt=kkt), r, residual_g


def _polish(
    op: MeasurementOperator, y: np.ndarray, delta: float, a: np.ndarray, support: np.ndarray,
    b: np.ndarray | None, tol: float, feas_tol: float, cut: float | None = None,
):
    """Solve on a's support, and on supports grown from it, until certify accepts a point.

    A generator: for each support S it solves it yields (S, accepted), with
    accepted the certified point and its ||A x - y|| - delta, or None when
    the point on S is refused, and it returns after an accepted point. S is
    a fresh array at every yield, in increasing index order; the first is
    a's support itself, and each later one adds one coefficient to the last.

    This is solve_bpdn's support polish (after FPC_AS: Wen, Yin, Goldfarb &
    Zhang, "A fast algorithm for sparse reconstruction based on shrinkage,
    subspace optimization and continuation", SIAM J. Sci. Comput. 2010).
    Soft-thresholding reaches its final support long before the residual
    reaches tol: in the benchmark's cc_half, mix5 and gauss_heat solves
    (seeds 1-3), by iteration 3-67 of 65-335. So the driver, not the loop
    _pdhg, calls it at a check whose support S is non-empty, equals the
    previous check's and has not been tried, with a that check's a+ and
    b = A^H y when it has one. From a = 0 the growth below is OMP's, so the
    driver first calls it before the loop, on OMP's first support, with
    cut = START_CUT (the start).

    Each solve is _support_point's closed form on S and its phases, started
    from a's. Its point is accepted only if r_LS < delta (or delta = 0),
    _certify does not raise, its gap is <= tol max(1, ||x||_1), its KKT
    residual is <= tol and ||A x - y|| - delta <= feas_tol. A refused point
    grows S by _largest_violator's coefficient k and is solved again: k's
    unit forwards are inserted among S's, which are kept, and its phase
    starts at that of its dual correlation g_k, g = A^H (-rho) at the
    refused point, taken from _certify when it made it (its positive
    multiple) and from _correlation otherwise. When no point on S is
    feasible (r_LS >= delta, or _certify raises) this is OMP's step; when
    the certificate fails, FPC_AS's active-set correction. A settled support
    can still lack a few of the minimizer's coefficients: in the benchmark's
    gauss_heat solves it lacks 1-3, and without growth their attempts are
    refused until the iterate finds them.

    Growth stops, and the generator returns, when no coefficient qualifies,
    when the refused point's residual is 0, when the grown S has more columns
    that cannot be dropped (_droppable) than the m real measurement rows,
    or at the attempt's limit. In the loop (cut None) that is
    ceil(log2(|S0| + 1)) additions to the first support S0. The cap keeps
    a refused attempt from growing one coefficient at a time to the rows'
    limit: the L = 64 decay_alt trials start attempts on 78-99
    coefficients, and uncapped growth added 118 of them in one solve and
    made it slower than no growth at all; the cap leaves 16. The start's
    S0 holds one coefficient, so its limit does not scale with |S0|: an
    addition to a support with no feasible point must cut ||rho|| to at
    most cut times the last refused point's, and once a point on S is
    feasible at most |S| more additions follow (START_CUT). It also returns
    before any product or yield when S0 has more such columns than the m
    rows, and after yielding (S, None) at a singular Gram matrix or a
    failed phase fit (_support_point).

    An attempt costs |S0| forward products (2|S0| for complex coefficients),
    an eigendecomposition of their p x p Gram matrix and certify's
    products: a forward and an adjoint (or normal) product, and at delta = 0
    the unit forwards again for its least-squares dual. Each addition costs
    one adjoint (or normal) product for the correlations unless certify has
    just formed them (it does for the residual direction), the new
    coefficient's unit forwards, a new eigendecomposition and certify's
    products again. It writes nothing its caller holds: a, the support, y
    and b are only read, whether the caller runs it to its end or leaves it
    at a yield, so a solve none of whose attempts is accepted returns the
    loop's last check. Every unit forward and point of a call is formed
    in one zero vector of op's coefficients, allocated once per call and
    zeroed on the support after each use; only an accepted point is copied
    out of it. On the torus it is bit-identical to the loop
    alone. On the sphere an attempt's normal products build Gram rows that
    the loop would build later, in other batches, and a row's rounding
    depends on its batch: the L = 64 decay_alt solves (seeds 1-3), whose
    starts are refused, end at the same point, iterations and restarts,
    with primal weights 1e-13 apart relative to their size. After a failed attempt solve_bpdn
    makes the next only once the iteration count has doubled, so a solve
    that no attempt can end, as on a field without a sparse spectrum, makes
    at most ceil(log2(iterations)) + 1 of them after the start. An attempt
    in the loop comes after the first check, which always restarts, and
    reports restarts >= 1; the start reports 0.
    """
    m = _real_view(y).size
    if np.count_nonzero(~_droppable(op, support)) > m:
        return
    point = np.zeros(op.shape[1], dtype=op.dtype)  # the call's unit vectors and points
    forwards, start = _unit_forwards(op, support, point), a[support]
    units = len(forwards) // support.size
    # the additions after which growth stops (the start's is set at its first
    # feasible support), and the start's last infeasible ||rho||
    limit = math.ceil(math.log2(support.size + 1)) if cut is None else math.inf
    r_last, grown = math.inf, 0
    while True:
        if grown:
            if g is None:
                g = _correlation(op, b, point, rho)
            point[support] = 0.0
            k = _largest_violator(g, support, feasible)
            if k is None:
                return
            at = int(np.searchsorted(support, k))
            support = np.concatenate((support[:at], [k], support[at:]))
            if np.count_nonzero(~_droppable(op, support)) > m:
                return
            new = _unit_forwards(op, support[at:at + 1], point)
            row = units * at
            forwards = np.concatenate((forwards[:row], new, forwards[row:]))
            start = np.concatenate((start[:at], g[k:k + 1], start[at:]))
        solved = _support_point(op, y, delta, forwards, support, start)
        if solved is None:
            yield support, None
            return
        values, rho, feasible = solved
        point[support] = values
        g = None
        if feasible:
            try:
                cert, r, g = _certify(op, y, delta, point, b)
            except InfeasibleCandidateError:
                feasible = False
            else:
                gap_ok = cert.gap <= tol * max(1.0, op.coef_l1(point))
                if gap_ok and cert.kkt <= tol and r - delta <= feas_tol:
                    yield support, (point.copy(), r - delta)
                    return
        yield support, None
        if not np.any(rho):
            return
        if cut is not None and feasible:
            limit = min(limit, grown + support.size)
        elif cut is not None:
            r, r_last = r_last, float(np.linalg.norm(rho))
            if r_last > cut * r:
                return
        if grown == limit:
            return
        grown += 1


def _support_point(
    op: MeasurementOperator, y: np.ndarray, delta: float, forwards: np.ndarray,
    support: np.ndarray, start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """_polish's closed-form point as its values on the support, A x - y, and whether r_LS < delta.

    The columns are B, the rows of forwards that _live_columns keeps, p of
    them with m real rows (2 per measurement when the measurements are
    complex), and G = B^T B; x is the masked float64 view of the point on
    the support, and the weight of each entry its coefficient's. It gives
    up (None) when G's smallest eigenvalue is at most m eps times its
    largest, below the rounding of its m-term sums: a torus mirror pair, k
    and -k both in a self-conjugate column, gives two equal columns. With
    x_LS = G^-1 B^T y and r_LS = ||B x_LS - y||, the point is x_LS at
    delta = 0 and when r_LS >= delta, where no point on the support is
    feasible (the flag is then False). Else, with c_j = w_k times the
    matching entry of the float64 view of start's phases, it minimizes
    c^T x on ||B x - y|| <= delta, whose minimizer is x_LS - t G^-1 c with
    t = sqrt((delta^2 - r_LS^2) / c^T G^-1 c), and gives up if c^T G^-1 c
    <= 0. It then re-reads the phases from x and solves again, on the same
    eigenvectors of G, while their largest change shrinks.
    """
    live = _live_columns(op, support, forwards)
    mat = _real_view(forwards[live].astype(y.dtype, copy=False)).T
    y_real = _real_view(y)
    m, p = mat.shape
    lam, vec = np.linalg.eigh(mat.T @ mat)
    if lam[0] <= lam[-1] * m * np.finfo(float).eps:
        return None
    x = vec @ ((vec.T @ (mat.T @ y_real)) / lam)
    values = np.zeros(support.size, dtype=op.dtype)
    feasible = True
    if delta > 0.0:
        r_ls = float(np.linalg.norm(mat @ x - y_real))
        feasible = r_ls < delta
    if delta > 0.0 and feasible:
        weights = np.ones(p) if op.weights is None else np.repeat(
            op.weights[support], live.size // support.size)[live]
        x_ls, change = x, math.inf
        phase = _real_view(start / np.abs(start))[live]
        while True:
            c = weights * phase
            g_c = vec @ ((vec.T @ c) / lam)  # G^-1 c
            c_g_c = float(c @ g_c)
            if c_g_c <= 0.0:
                return None
            x = x_ls - math.sqrt((delta**2 - r_ls**2) / c_g_c) * g_c
            _real_view(values)[live] = x
            mags = np.abs(values)
            if not np.all(mags > 0.0):
                break
            new = _real_view(values / mags)[live]
            step = float(np.max(np.abs(new - phase)))
            if step == 0.0 or step >= change:
                break
            phase, change = new, step
    _real_view(values)[live] = x
    return values, (mat @ x - y_real).view(y.dtype), feasible


def _largest_violator(g: np.ndarray, support: np.ndarray, feasible: bool) -> int | None:
    """The coefficient off the support whose dual correlation |g_k| is largest, if it qualifies.

    g is the dual correlation A^H (-rho) at a point on the support, or a
    positive multiple of it. The KKT conditions of the weighted l1 problem
    ask |g_k| <= |g_j| for every k off and j on the support. The largest
    |g_k| off the support qualifies always if the point is infeasible on
    the support (OMP's step), else only if it exceeds the largest |g_j| on
    it (FPC_AS's active-set correction); None if it does not.
    """
    score = np.abs(g)
    level = float(np.max(score[support])) if feasible else 0.0
    score[support] = 0.0
    k = int(np.argmax(score))
    return k if score[k] > level else None


# ---------------------------------------------------------------------------
# End-to-end recovery: a target prepared once as a Field, then per trial
# sample size -> sample -> operator -> solve -> score.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """A recovery target prepared once, read-only, for any number of trial calls.

    truth is the target's coefficient vector in its operators' layout, ratio
    its measured Fourier ratio and dim the coefficient count D of its sample
    size: N^2 on the torus, (L+1)^2 on the sphere. operator(size, seed)
    draws a sample of size points and returns its MeasurementOperator.
    """

    truth: np.ndarray
    ratio: float
    dim: int
    operator: Callable[[int, int], MeasurementOperator]


def torus_field(f: tor.SmoothFunctionSpec, side: int, *, allow_uncertified: bool = False) -> Field:
    """f's field at grid side N: its rfft2 half spectrum and its measured Fourier ratio.

    truth is the flat N x (N//2+1) half of the unitary spectrum, in
    make_torus_operator's layout; ratio is that of the full N^2 spectrum.
    The operator clamps its sample to the N^2 grid points. A function that
    fails the hypothesis N ||f||_L2^2 >= 8 ||f||_C2^2 at N is refused
    (CertificationError) before its grid is built, unless allow_uncertified.
    """
    rn = tor.compute_rn(f.analytic, side)
    if not rn.certified and not allow_uncertified:
        raise CertificationError(f"{f.name} at N={side} fails N L2^2 >= 8 C2^2; "
                                 "pass allow_uncertified=True to override")
    spectrum = forward_dft(tor.discretize(f, side))
    truth = spectrum[:, :side // 2 + 1].ravel()
    truth.setflags(write=False)
    total = side * side

    def operator(size: int, seed: int) -> MeasurementOperator:
        return make_torus_operator(draw_subset(side, min(size, total), seed))

    return Field(truth, fourier_ratio(spectrum), total, operator)


def sphere_field(signal: sph.SphericalSignal) -> Field:
    """A sphere signal's coefficients and Fourier ratio, sampled at i.i.d. uniform points.

    A sample whose q x (L+1)^2 basis matrix would exceed BASIS_ENTRIES_MAX
    entries is refused (DomainError) before any point is drawn.
    """
    bandwidth = signal.bandwidth
    harmonics = (bandwidth + 1) ** 2

    def operator(size: int, seed: int) -> MeasurementOperator:
        if size * harmonics > BASIS_ENTRIES_MAX:
            raise DomainError(f"sample size {size} at L={bandwidth} needs {size * harmonics} "
                              f"basis entries, over the limit of {BASIS_ENTRIES_MAX}")
        return make_sphere_operator(draw_sphere_points(size, seed), bandwidth)

    return Field(signal.coeffs, fourier_ratio(signal.coeffs), harmonics, operator)


def trial(
    field: Field, eps: float, seed: int, *, c_univ: float = 1.0, exact_fit: bool = False,
) -> RecoveryReport:
    """One recovery trial on a prepared field, reported in its operators' layout.

    The sample size comes from the field's ratio, floored at 1, and its
    dim; clamped records that the operator has fewer rows. The
    measurements are op.forward(truth), the fidelity radius is
    eps * op.coef_norm(truth), or 0 for exact_fit, and rel_error is
    op.coef_norm(a - truth) / op.coef_norm(truth): by Parseval the relative
    L2 error of the field as well.
    """
    size = sample_size(max(1.0, field.ratio), eps, field.dim, c_univ)
    op = field.operator(size, seed)
    truth = field.truth
    truth_norm = op.coef_norm(truth)
    delta = 0.0 if exact_fit else eps * truth_norm
    solution = solve_bpdn(op, op.forward(truth), SolverConfig(delta=delta))
    rel_error = op.coef_norm(solution.coefficients - truth) / truth_norm
    return RecoveryReport(**vars(solution), rel_error=rel_error, sample_size=op.shape[0],
                          clamped=size > op.shape[0])


def recover_torus(
    f: tor.SmoothFunctionSpec,
    side: int,
    eps: float,
    seed: int,
    *,
    c_univ: float = 1.0,
    allow_uncertified: bool = False,
    exact_fit: bool = False,
) -> RecoveryReport:
    """Recover the discretized field from a random subset of its values.

    This is trial on torus_field's field; the report carries the full N^2
    unitary spectrum, which _hermitian_full rebuilds from the solver's half.
    A caller that runs many trials of one (f, N) and reads no coefficients
    prepares the field once and calls trial itself.
    """
    field = torus_field(f, side, allow_uncertified=allow_uncertified)
    report = trial(field, eps, seed, c_univ=c_univ, exact_fit=exact_fit)
    return replace(report, coefficients=_hermitian_full(report.coefficients, side))


def recover_sphere(
    signal: sph.SphericalSignal,
    eps: float,
    seed: int,
    *,
    c_univ: float = 1.0,
    exact_fit: bool = False,
) -> RecoveryReport:
    """Recover a bandlimited sphere signal from i.i.d. uniform point samples.

    This is trial on sphere_field's field: the sample is sized like the
    torus one, and one too large for BASIS_ENTRIES_MAX is refused before any
    point is drawn.
    """
    return trial(sphere_field(signal), eps, seed, c_univ=c_univ, exact_fit=exact_fit)
