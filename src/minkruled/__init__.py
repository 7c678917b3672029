"""Involute trajectory timelike ruled surfaces in Minkowski 3-space.

A numpy-based kernel for Lorentzian vector algebra with signature (-, +, +),
frames of unit-speed timelike curves, spacelike involutes, ruled surfaces
fixed in the involute frame, distribution parameters (dralls) with an
independent determinant oracle, developability classification, striction
curves, and deterministic mesh export.
"""

from .config import (
    BUILTIN_HELIX,
    CurveSpec,
    OutputSpec,
    SceneConfig,
    build_curve,
    load_config,
    parse_config,
    split_range,
)
from .curves import (
    Curve,
    DarbouxData,
    DerivativeMode,
    FrenetApparatus,
    curve_from_curvature,
    darboux_data,
    frenet_apparatus,
    helix_curve,
    is_general_helix,
)
from .errors import (
    ConfigError,
    CylindricalRulingError,
    DegenerateCoefficientError,
    DegenerateFrameError,
    DegeneratePlaneError,
    GeometryError,
    IntegrationError,
    InvalidFrameError,
    MissingDerivativeError,
    NotUnitSpeedError,
    NullDarbouxError,
    NullDirectionError,
    NullInputError,
    OrientationMismatchError,
    OutOfDomainError,
)
from .involute import (
    EPS_CUSP,
    InvoluteCurve,
    InvoluteFrame,
    involute_frame,
    involute_point,
    involute_velocity,
)
from .lorentz import (
    AngleKind,
    CausalClass,
    Causality,
    LorentzianAngle,
    Orientation,
    as_vector,
    classify,
    coordinate_cross,
    cross,
    inner,
    lorentz_angle,
    norm,
    null_tolerance,
    triple,
)
from .mesh import SurfaceMesh, export_mesh, sample_grid, write_csv, write_obj
from .report import ReportResult, run_report
from .surfaces import (
    Degeneracy,
    DevelopabilityReport,
    DrallResult,
    ProfileKind,
    RulingDirection,
    StrictionPoint,
    TrajectoryRuledSurface,
    base_is_striction,
    binormal_surface,
    classify_developability,
    developable_prescription,
    drall_closed,
    drall_numeric,
    general_surface,
    make_direction,
    normal_binormal_drall_ratio,
    normal_surface,
    ruling_derivative,
    ruling_vector,
    striction_point,
    surface_point,
    tangent_surface,
    theta_profile,
)

__version__ = "0.1.0"
