"""Uncertainty geometry on the sphere of unit quantum states."""

from .canonical import Grid, commutator_residual, gaussian, momentum_op, position_op
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    GeometryError,
    InvalidParameter,
    MalformedInput,
    NonFinite,
    NotHermitian,
    NotNormalized,
    SupportViolation,
    ZeroVector,
)
from .evolution import FlowTrace, default_dt, flow, projected_speed, trace_flow
from .hilbert import (
    EigenSet,
    Observable,
    SpectralDecomposition,
    State,
    centered,
    expectation,
    inner,
    normalize,
    spectral,
    validate_state,
)
from .optimize import (
    OptimizeResult,
    minimize_multistart,
    minimize_product,
    objective,
    riemannian_grad,
)
from .projective import (
    TriangleReport,
    dist_to_eigenset,
    eigenset,
    eigenset_distance,
    fs_distance,
    triangle_report,
)
from .realify import metric_g, parallelogram_area, symplectic
from .uncertainty import (
    MinimalConditionResult,
    UncertaintyReport,
    centered_field,
    minimal_condition,
    relations_report,
    std_dev,
)

__version__ = "0.1.0"
