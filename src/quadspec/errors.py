"""Exception types raised by the solvers."""


class SolverError(Exception):
    """Base class for numerical failures (as opposed to bad arguments)."""


class ConvergenceError(SolverError):
    """A truncated eigensolve's residual bound or coefficient tail is above its limit."""


class BracketError(SolverError):
    """A sign-change scan found no root, or the refinement's bracket did not hold exactly one."""


class IntegrationError(SolverError):
    """The shooting propagation overflowed, could miss a zero of y or did not converge."""
