"""Fourier-ratio bounds for smooth signals and l1 recovery from random samples."""

from .spectral import FrBoundReport, best_s_truncation, forward_dft, fourier_ratio, inverse_dft
from .torus import (
    NormData,
    SmoothFunctionSpec,
    compute_rn,
    certification_threshold,
    discretize,
    estimate_norms,
    verify_decay,
    verify_fr_bound,
    verify_l2_lower_bound,
    verify_riemann_lemma,
)
from .sphere import (
    QuadratureRule,
    SphericalSignal,
    analyze,
    build_quadrature,
    compute_rl,
    estimate_sphere_norms,
    synthesize,
    verify_sphere_fr_bound,
)
from .sampling import (
    SampleMultiset,
    SampleSet,
    draw_sphere_points,
    draw_subset,
    sample_size,
    spawn_seeds,
)
from .solver import (
    MeasurementOperator,
    RecoveryReport,
    SolverConfig,
    certify,
    make_sphere_operator,
    make_torus_operator,
    recover_sphere,
    recover_torus,
    solve_bpdn,
)
from .battery import TORUS_BATTERY, build_sphere_battery, verify_torus_battery

__version__ = "0.1.0"
