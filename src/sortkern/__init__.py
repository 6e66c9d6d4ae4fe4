"""Kernel canonicalization by coordinate sorting.

Minimal-norm RKHS interpolation with plain, sorted, and
permutation-averaged Gaussian kernels, fill-distance geometry on the
unit cube and its sorted fundamental domain, the closed-form error and
eigenvalue bounds that go with them, and seeded experiment runners.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    Region,
    eigen_bound_covering,
    eigen_bound_fill,
    eigen_bound_weyl,
    error_tail_bound,
    error_tail_valid,
    h_tail_bound,
    h_tail_valid,
    l2_bound,
    p_constant,
    pointwise_bound,
    subcube_classification,
    tilde_constant,
)
from .errors import (
    CapExceededError,
    ConfigError,
    DimensionMismatchError,
    DuplicateOrbitError,
    FactorizationError,
    NumericalError,
    SortkernError,
)
from .experiments import (
    Experiment,
    ExperimentConfig,
    run,
    run_bounds_report,
    run_eigen_decay,
    run_interp_compare,
    run_table1,
    run_tail_curves,
)
from .geometry import (
    ConeParams,
    Domain,
    ball_volume,
    cone_condition_holds,
    cone_parameters,
    covering_design,
    cube_corners,
    distinct_orbits,
    fill_distance_estimate,
    simplex_inradius,
    sort_point,
    sort_points,
)
from .interpolation import (
    Interpolant,
    InvariantTarget,
    evaluate,
    fit,
    interpolant_norm_sq,
    l2_error,
    make_invariant_target,
    mc_points,
    rmse_stderr,
)
from .kernels import (
    PERM_SINGLE_DIM_CAP,
    KernelMode,
    KernelSpec,
    check_mode_cap,
    gram,
    kernel_cross,
    kernel_value,
    sup_kernel_constant,
)
from .spectral import SpectrumEstimate, decay_slope, nystrom_spectrum

__all__ = [
    "BoundInputs", "BoundReport", "Region",
    "eigen_bound_covering", "eigen_bound_fill", "eigen_bound_weyl",
    "error_tail_bound", "error_tail_valid", "h_tail_bound", "h_tail_valid",
    "l2_bound", "p_constant", "pointwise_bound", "subcube_classification",
    "tilde_constant",
    "CapExceededError", "ConfigError", "DimensionMismatchError",
    "DuplicateOrbitError", "FactorizationError", "NumericalError",
    "SortkernError",
    "Experiment", "ExperimentConfig", "run", "run_bounds_report",
    "run_eigen_decay", "run_interp_compare", "run_table1", "run_tail_curves",
    "ConeParams", "Domain", "ball_volume", "cone_condition_holds",
    "cone_parameters", "covering_design", "cube_corners", "distinct_orbits",
    "fill_distance_estimate", "simplex_inradius", "sort_point", "sort_points",
    "Interpolant", "InvariantTarget", "evaluate", "fit",
    "interpolant_norm_sq", "l2_error", "make_invariant_target", "mc_points",
    "rmse_stderr",
    "PERM_SINGLE_DIM_CAP", "KernelMode", "KernelSpec",
    "check_mode_cap", "gram", "kernel_cross", "kernel_value",
    "sup_kernel_constant",
    "SpectrumEstimate", "decay_slope", "nystrom_spectrum",
]

__version__ = "0.1.0"
