"""drillvol: volume bounds and tube geometry for drilled hyperbolic 3-manifolds.

Warped tube metrics and their curvatures, a finite-difference curvature
oracle, the smoothed negatively-curved metric family, the drilled-volume
inequalities with their minimum-volume corollary, and analysis of
drilled-geodesic datasets against the conjectured bound
Vol(drilled) <= Vol(parent) + pi * length.
"""

__version__ = "0.1.0"

from .bounds import (
    CONSTANTS,
    DrillEstimate,
    GmtCase,
    MinVolumeReport,
    bridgeman_bound,
    coarse_factor,
    drilled_volume_bound,
    gmt_cases,
    min_volume_corollary,
    parent_volume_lower_bound,
    solve_radius_bound,
)
from .data import (
    AnalysisReport,
    AnalysisRow,
    GeodesicRecord,
    analyze_records,
    emit_plot,
    emit_report,
    parse_records,
)
from .errors import (
    DomainError,
    JunctionError,
    ParameterError,
    ParseError,
    PlotError,
    QuadratureError,
    SingularAxisError,
    ToolkitError,
    UsageError,
    ValidationError,
    WidthError,
)
from .oracle import (
    CurvatureReport,
    DiagonalMetric,
    christoffel_fd,
    riemann_fd,
    sectional_fd,
    validate_lemma_curvature,
)
from .smoothing import (
    JunctionInput,
    SmoothedJunction,
    SmoothedWarpingFamily,
    bump_alpha,
    ramp_beta,
    second_derivative_envelope,
    smooth_junction,
    smoothed_metric,
    step_phi,
)
from .warped import (
    RicciDiagonal,
    SectionalCurvatures,
    TubeParams,
    VolumeQuadrature,
    WarpingPair,
    coth,
    extended_tube_volume,
    hyperbolic_tube,
    kerckhoff_extension,
    ricci_diagonal,
    ricci_lower_bound_constant,
    sectional_curvatures,
    tube_volume,
    warped_volume_quadrature,
)
