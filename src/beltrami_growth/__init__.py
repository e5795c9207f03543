"""Growth analysis for regular homeomorphic solutions of the nonlinear
Beltrami-type equation with the Jacobian on the right-hand side."""

from .complex_polar import (
    PolarDerivPair,
    WirtingerPair,
    jacobian_polar,
    jacobian_wirtinger,
    polar_to_wirtinger,
    wirtinger_to_polar,
)
from .dilatation import (
    CircleQuadrature,
    CoefficientField,
    ConstantProfile,
    FieldProfile,
    GridCoefficient,
    KappaProfile,
    LinearCoefficient,
    LogLogCoefficient,
    LogProductProfile,
    PiecewiseProfile,
    PowerCoefficient,
    RadialCoefficient,
    SpiralCoefficient,
    TableProfile,
    K_from_sigma,
    angular_dilatation,
    circle_average_D,
    iterated_log,
    kappa,
    loglog_example_profile,
    sigma_from_K,
    tower,
)
from .errors import (
    BeltramiGrowthError,
    BeyondDoubleRange,
    DegenerateRadius,
    DomainError,
    NonPositiveJacobian,
    NonPositiveKappa,
    NotDifferentiableHere,
    OutOfDomain,
    QuadratureFailure,
    StencilCrossesSeam,
)
from .growth import (
    CoefficientBound,
    KappaBound,
    RadiusLadder,
    area_bound_check,
    circle_length,
    corollary_exponent,
    differential_inequality_check,
    disk_checks,
    envelope_integral,
    image_area,
    isoperimetric_check,
    ladder_integrals,
    modulus_extremes,
    nonexistence_diagnostic,
    theorem1_check,
)
from .mappings import (
    Identity,
    Linear,
    LogLog,
    LOGLOG_SEAM,
    Mapping,
    Power,
    RadialTable,
    Spiral,
)
from .verify import (
    AnnulusGrid,
    ExtremalSolution,
    build_extremal,
    catalog_pair,
    pde_residual,
    real_system_residual,
    sharpness_ladder,
    verify_pair,
)

__version__ = "0.1.0"
