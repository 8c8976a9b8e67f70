"""Exception hierarchy and warnings for semiinfo.

Every error raised deliberately by this package derives from
:class:`SemiinfoError`, so callers can catch the whole family at once.
The CLI maps subclasses onto exit codes; library users get typed
exceptions with enough context to act on (offending index, block name).
"""

from __future__ import annotations


class SemiinfoError(Exception):
    """Base class for all errors raised by semiinfo."""


class DomainError(SemiinfoError):
    """An input violates a documented precondition.

    Examples: grid points out of range, negative masses, a direction that
    must be centered but is not, a perturbation size that would produce
    negative masses.
    """


class DimensionError(SemiinfoError):
    """Array shapes are inconsistent with the grid or parameter dimension."""


class NotIdentifiableError(SemiinfoError):
    """A required information matrix or block is singular."""


class EngineError(SemiinfoError):
    """An expectation engine failed an internal consistency check,
    for example outcome probabilities that do not sum to one."""


class NotAvailableError(SemiinfoError):
    """No closed form is available for the requested quantity or state."""


class EvaluationError(SemiinfoError):
    """A model component returned a non-finite value where a finite one
    is required (log-density NaN, score overflow, ...)."""


class ConfigError(SemiinfoError):
    """A CLI or run configuration is malformed: unknown model id, wrong
    schema version, unreadable input file."""


class MeasureKindWarning(UserWarning):
    """Emitted when an operation silently demotes a probability measure
    to a plain positive finite measure (perturbation along a direction
    that is not mean zero)."""
