"""Exception hierarchy shared across the package.

Two top-level families matter for callers (and for CLI exit codes):

* :class:`DomainError` -- the inputs violate a documented precondition or
  lie outside the supported regime.  These are caller mistakes.
* :class:`NumericsError` -- the inputs were fine but an internal numerical
  procedure could not deliver its accuracy contract (a tail mass
  underflowed, a finite difference is too small to rise above rounding).
"""


class PartargetError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PartargetError, ValueError):
    """An argument is outside the operation's documented domain."""


class RegimeError(DomainError):
    """Inputs are valid numbers but fall in an unsupported model regime."""


class DegenerateLeverError(DomainError):
    """A lever increment makes the requested ratio undefined."""


class PreconditionError(DomainError):
    """A stated hypothesis of an analytic bound is violated; the message names it."""


class NumericsError(PartargetError, ArithmeticError):
    """An internal numerical routine failed to meet its tolerance."""
