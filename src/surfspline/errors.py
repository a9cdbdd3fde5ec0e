"""Exception and warning types shared across the package."""


class SurfsplineError(Exception):
    """Base class for errors raised by this package."""


class SingularEvaluationError(SurfsplineError):
    """Kernel evaluated at (numerically) coincident points."""


class DomainValidityError(SurfsplineError):
    """Operator requested outside its validity range (e.g. too-singular kernel pair)."""


class ProjectionFailureError(SurfsplineError):
    """Closest-point projection onto the boundary curve did not converge."""


class ReachViolationError(SurfsplineError):
    """Requested offset exceeds the estimated reach of the boundary curve."""


class StarShapeError(SurfsplineError):
    """Polar (star-shaped) integration requested about a point that does not see
    the whole boundary."""


class NormingFailureError(SurfsplineError):
    """Local polynomial reproduction could not reach full rank before the support
    radius exceeded the domain diameter."""


class SingularSystemError(SurfsplineError):
    """Discretized boundary-integral system is numerically singular."""


class ResidualToleranceError(SurfsplineError):
    """Linear solve finished but the residual exceeds the requested tolerance."""


class ExtrapolationDivergenceError(SurfsplineError):
    """Offset-ladder extrapolation of a one-sided trace did not stabilize."""


class DensityUnreachableError(SurfsplineError):
    """Center generation could not meet the requested fill distance."""


class NearBoundaryAccuracyWarning(UserWarning):
    """Potential evaluated closer to the boundary than the quadrature resolves."""
