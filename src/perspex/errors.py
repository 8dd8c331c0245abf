"""Exception hierarchy.

Everything raised on purpose derives from :class:`PerspexError`, so callers
can catch library failures without swallowing programming errors.
"""


class PerspexError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PerspexError, ValueError):
    """An input violates its documented domain or invariant."""


class DegenerateTangents(PerspexError):
    """Adjacent tangent lines are too close to parallel to intersect reliably."""


class HypothesisViolated(PerspexError):
    """A stated precondition on the supplied function does not hold."""


class SingularJacobian(PerspexError):
    """A divisor of the tridiagonal solve's cyclic reduction collapsed: a
    breakdown of the reduction, not a proof that the matrix is singular."""


class MaxIterExceeded(PerspexError):
    """The Newton iteration ran out of iterations before its residual came
    within its rounding floor.

    The partial trace is attached as ``.trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class MonotonicityViolated(PerspexError):
    """An iterate moved against the direction the method guarantees.

    From the equally-spaced start the Newton iterates are provably monotone,
    so seeing this means a conditioning or implementation problem.
    """
