"""Exception types shared across the package."""

__all__ = [
    "DeformkitError",
    "SingularError",
    "NotSelfAdjointError",
    "OrderTooHighError",
    "GridMismatchError",
    "BoxMismatchError",
    "ConvergenceError",
    "NoConvergenceError",
    "UnsupportedOperatorError",
]


class DeformkitError(Exception):
    """Base class for all package-specific errors."""


class SingularError(DeformkitError):
    """Inversion requested for an element that is singular or too ill-conditioned."""


class NotSelfAdjointError(DeformkitError):
    """Functional calculus requested for a non self-adjoint element."""


class OrderTooHighError(DeformkitError):
    """Derivative order exceeds the supported maximum."""


class GridMismatchError(DeformkitError):
    """Two grid objects do not share the same geometry."""


class BoxMismatchError(DeformkitError):
    """Two symbols do not live on the same box or have incompatible matrix sizes."""


class ConvergenceError(DeformkitError):
    """Two evaluation routes disagree beyond the allowed tolerance."""


class NoConvergenceError(DeformkitError):
    """An iteration failed to converge within its iteration budget."""


class UnsupportedOperatorError(DeformkitError):
    """The operation is not implemented for this dimension (the symbol map for n > 1)."""
