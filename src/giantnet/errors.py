"""Exception hierarchy shared across the package."""


class GiantNetError(Exception):
    """Base class for all giantnet errors."""


class DimensionMismatch(GiantNetError):
    """Operands have incompatible shapes or dimensions."""


class NotPositiveDefinite(GiantNetError):
    """A matrix required to be SPD has a non-positive pivot."""


class NotSymmetric(GiantNetError, ValueError):
    """A matrix required to be symmetric deviates beyond the relative tolerance."""


class NotStochastic(GiantNetError):
    """Row or column sums of a mixing matrix deviate from one."""


class InvalidSpec(GiantNetError):
    """A problem specification has out-of-range fields."""


class InvalidParams(GiantNetError):
    """A graph generator or an algorithm configuration received invalid parameters."""


class ConnectivityFailure(GiantNetError):
    """Random graph sampling failed to produce a connected graph."""


class MaxItersExceeded(GiantNetError):
    """An iterative solver hit its iteration cap before converging."""


class MissingReference(GiantNetError):
    """An operation needs a reference solution the instance does not carry."""


class InsufficientData(GiantNetError):
    """Not enough usable records for a statistical fit."""


class ParseError(GiantNetError):
    """A configuration file is not syntactically valid."""


class ValidationError(GiantNetError):
    """A configuration violates a cross-field invariant."""
