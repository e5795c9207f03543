"""Typed exceptions raised by the numeric kernels, and ConfigError.

Every failure mode that a caller might want to branch on gets its own
class; plain ValueError is reserved for programming errors (bad argument
counts, malformed configuration objects and the like).  InvalidParameter,
a ValueError and no BeltramiGrowthError, is a constructor parameter that
breaks its rule (positive and finite, an integer of at least some minimum,
positive and strictly ascending); the guards in mappings alone raise it.
ConfigError, no BeltramiGrowthError either, is an input that the command
line refuses with exit 2: a malformed config document, a parameter that a
guard refuses, or a verify_pair run that a config leaves without a default
grid or without check radii.
"""


class BeltramiGrowthError(Exception):
    """Base class for all package-specific errors."""


class DegenerateRadius(BeltramiGrowthError):
    """Evaluation point coincides with (or is too close to) the center."""


class NotDifferentiableHere(BeltramiGrowthError):
    """Closed-form derivatives requested on an excluded set (origin, seam)."""


class StencilCrossesSeam(BeltramiGrowthError):
    """A finite-difference stencil straddles a non-smooth interface."""


class NonPositiveJacobian(BeltramiGrowthError):
    """Jacobian at or below the positivity floor; the map is not regular there."""


class NonPositiveKappa(BeltramiGrowthError):
    """A radial dilatation profile returned a non-positive sample."""


class QuadratureFailure(BeltramiGrowthError):
    """A quadrature sample was non-finite or an integral is not convergent."""


class BeyondDoubleRange(QuadratureFailure):
    """A computed sample is inf or NaN; raised by complex_polar.require_finite."""


class DomainError(BeltramiGrowthError):
    """Argument outside the mathematical domain of a profile or ladder."""


class OutOfDomain(DomainError):
    """Radius outside the radial domain of a mapping, field or profile."""


class ConfigError(Exception):
    """Invalid or malformed configuration document."""


class InvalidParameter(ValueError):
    """A parameter breaks its rule; raised by the require_* guards in mappings."""
