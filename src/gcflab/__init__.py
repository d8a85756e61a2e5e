"""Numerical laboratory for Gauss curvature flow of convex bodies.

Convex bodies are represented by their support functions sampled on a
spectral collocation grid over S^1 or S^2.  The package provides the
spherical calculus, body geometry, entropy functionals and distinguished
points, the (normalized) flow integrator, and self-similar (soliton)
diagnostics, plus a CLI wrapping the common workflows.
"""

__version__ = "0.1.0"

from .errors import (
    AliasingWarning,
    BodyValidityError,
    ConcavityError,
    FieldShapeError,
    GcflabError,
    ParameterError,
    SnapshotError,
    SolverError,
    StiffnessError,
)
from .sphere import SphereGrid, average, build_grid
from .body import (
    ConvexBody,
    GeometrySummary,
    geometry_summary,
    inradius,
    make_shape,
    normalize_volume,
)
from .constants import ball_volume, sphere_area
from .entropy import (
    EntropyReport,
    chow_entropy,
    entropy_point,
    entropy_report,
    firey_entropy,
    mc_log_integral,
    mc_polar_mass_center,
    santalo_point,
)
from .flow import (
    TRACE_COLUMNS,
    FlowConfig,
    FlowTrace,
    HarnackReport,
    MonitorReport,
    dissipation_identity_residual,
    harnack_monitor,
    monitor_bounds,
    run,
    soliton_residual,
    stable_dt,
    step,
)
from .soliton import (
    SolitonReport,
    j1_first_variation,
    j1_value,
    remove_first_harmonics,
    solve_soliton,
    stability_form,
)
from .verify import CHECK_NAMES, CheckResult, run_checks

__all__ = [
    "AliasingWarning",
    "BodyValidityError",
    "CHECK_NAMES",
    "CheckResult",
    "ConcavityError",
    "ConvexBody",
    "EntropyReport",
    "FieldShapeError",
    "FlowConfig",
    "FlowTrace",
    "GcflabError",
    "GeometrySummary",
    "HarnackReport",
    "MonitorReport",
    "ParameterError",
    "SnapshotError",
    "SolitonReport",
    "SolverError",
    "SphereGrid",
    "StiffnessError",
    "TRACE_COLUMNS",
    "average",
    "ball_volume",
    "build_grid",
    "chow_entropy",
    "dissipation_identity_residual",
    "entropy_point",
    "entropy_report",
    "firey_entropy",
    "geometry_summary",
    "harnack_monitor",
    "inradius",
    "j1_first_variation",
    "j1_value",
    "make_shape",
    "mc_log_integral",
    "mc_polar_mass_center",
    "monitor_bounds",
    "normalize_volume",
    "remove_first_harmonics",
    "run",
    "run_checks",
    "santalo_point",
    "solve_soliton",
    "soliton_residual",
    "sphere_area",
    "stability_form",
    "stable_dt",
    "step",
    "__version__",
]
