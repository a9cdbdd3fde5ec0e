"""Surface-spline approximation on smooth planar domains.

Polyharmonic kernels, boundary layer potentials, local polynomial
reproduction, and the boundary-corrected quasi-interpolation scheme built
from them, plus the experiment harness that measures convergence rates.
"""

from .errors import (
    DensityUnreachableError,
    DomainValidityError,
    ExtrapolationDivergenceError,
    NearBoundaryAccuracyWarning,
    NormingFailureError,
    ProjectionFailureError,
    ReachViolationError,
    ResidualToleranceError,
    SingularEvaluationError,
    SingularSystemError,
    StarShapeError,
    SurfsplineError,
)
from .geometry import (
    BoundaryGrid,
    CenterSet,
    DomainCurve,
    circle,
    curve_from_spec,
    ellipse,
    fill_distance,
    generate_centers,
    oversample_boundary,
    signed_distance,
    star,
)
from .dirichlet import (
    DirichletSolution,
    compute_Nj,
    principal_symbol_matrix,
    solve_dirichlet,
)
from .harness import (
    ErrorReport,
    ExperimentConfig,
    converge,
    oversampling_budget,
)
from .kernel import SplineParams, fs_constant, phi_from_r2
from .layerpot import TraceMaps, layer_potential
from .lpr import (
    boundary_reproduction_matrix,
    interior_reproduction_matrix,
)
from .polyspace import PolyBasis
from .scheme import (
    Approximant,
    ExtensionField,
    SchemeGrids,
    annihilation_check,
    assemble_TXi,
    boundary_support_is_local,
    error_kernel_norms,
    eval_approximant,
    extension_continuity,
    greens_representation,
    interior_quadrature,
    probe_points,
    scheme_grids,
    volume_potential,
)
from .targets import TargetFunction, named_target

__all__ = [
    "SplineParams",
    "fs_constant",
    "phi_from_r2",
    "DomainCurve",
    "BoundaryGrid",
    "CenterSet",
    "circle",
    "ellipse",
    "star",
    "curve_from_spec",
    "signed_distance",
    "fill_distance",
    "generate_centers",
    "oversample_boundary",
    "PolyBasis",
    "TargetFunction",
    "named_target",
    "layer_potential",
    "TraceMaps",
    "DirichletSolution",
    "solve_dirichlet",
    "compute_Nj",
    "principal_symbol_matrix",
    "interior_reproduction_matrix",
    "boundary_reproduction_matrix",
    "SchemeGrids",
    "scheme_grids",
    "interior_quadrature",
    "volume_potential",
    "greens_representation",
    "probe_points",
    "Approximant",
    "assemble_TXi",
    "eval_approximant",
    "ExtensionField",
    "extension_continuity",
    "annihilation_check",
    "error_kernel_norms",
    "boundary_support_is_local",
    "ExperimentConfig",
    "ErrorReport",
    "converge",
    "oversampling_budget",
    "SurfsplineError",
    "SingularEvaluationError",
    "DomainValidityError",
    "ProjectionFailureError",
    "ReachViolationError",
    "StarShapeError",
    "NormingFailureError",
    "SingularSystemError",
    "ResidualToleranceError",
    "ExtrapolationDivergenceError",
    "DensityUnreachableError",
    "NearBoundaryAccuracyWarning",
]
