"""Exception hierarchy.

Everything raised on purpose derives from :class:`PerspexError`, so callers
can catch library failures without swallowing programming errors.
"""


class PerspexError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PerspexError, ValueError):
    """An input violates its documented domain or invariant."""


class DegenerateTangents(PerspexError):
    """Adjacent tangent lines do not meet strictly between their tangency points."""


class HypothesisViolated(PerspexError):
    """A stated precondition on the supplied function does not hold."""


class SingularJacobian(PerspexError):
    """A tridiagonal solve is not certified: ``J^-1 1`` is not finite and
    positive at a Newton iterate, as for an M-matrix, or a cyclic reduction
    broke down to a non-finite solution; not a proof of singularity."""


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
