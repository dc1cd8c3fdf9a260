"""Exception taxonomy shared across the toolkit.

Every error carries a short machine-readable ``category`` that the CLI uses
to prefix messages as ``error:<category>: ...``.
"""

__all__ = [
    "ToolkitError",
    "ParameterError",
    "DomainError",
    "SingularAxisError",
    "JunctionError",
    "WidthError",
    "QuadratureError",
    "ParseError",
    "ValidationError",
    "PlotError",
    "UsageError",
]


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""

    category = "internal"


class ParameterError(ToolkitError):
    """A scalar argument violates its contract (sign, range, emptiness)."""

    category = "parameter"


class DomainError(ToolkitError):
    """A radius falls outside a pair's domain, or an equation has no root."""

    category = "domain"


class SingularAxisError(DomainError):
    """Curvature requested where a warping function vanishes."""

    category = "domain"


class JunctionError(ParameterError):
    """The two junction functions fail to match to first order."""

    category = "junction"


class WidthError(ToolkitError):
    """The smoothing collar does not fit inside the available domain."""

    category = "width"


class QuadratureError(ToolkitError):
    """Numerical integration failed to meet its error contract."""

    category = "numeric"


class ParseError(ToolkitError):
    """Malformed input data (bad header, bad row, bad number)."""

    category = "parse"


class ValidationError(ToolkitError):
    """Well-formed input data with invalid content."""

    category = "validation"


class PlotError(ToolkitError):
    """A plot was requested for data that cannot supply its series."""

    category = "plot"


class UsageError(ToolkitError):
    """Bad command line invocation."""

    category = "usage"
