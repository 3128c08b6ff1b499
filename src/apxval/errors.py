"""Exception hierarchy shared across the library."""


class ApxError(Exception):
    """Base class for all library errors."""


class IndeterminateValuation(ApxError):
    """A valuation cannot be read off because truncation swallowed every term."""


class InsufficientPrecision(ApxError):
    """An operation needs more known terms than the input carries."""


class NotRepresentable(ApxError):
    """A requested truncation does not lie in the chosen ground field."""


class PreconditionError(ApxError):
    """A stated precondition of an operation is violated by the input."""


class MarkerViolation(ApxError):
    """A caller-supplied semantic marker (distance hint / transcendental /
    fixed) was falsified by an observed counterexample."""


class StabilizationError(ApxError):
    """A value sequence neither stabilizes nor follows an affine law within
    the configured generator depth."""


class InternalInconsistency(ApxError):
    """Two independent computation routes disagree; signals a bug, exit code 3."""
