"""Exception types raised by the solvers."""


class SolverError(Exception):
    """Base class for numerical failures (as opposed to bad arguments)."""


class ConvergenceError(SolverError):
    """A truncated eigensolve's residual bound or coefficient tail is above its limit."""


class BracketError(SolverError):
    """Shooting window-end counts not rank and rank + 1, or a fit with other than one real root."""


class IntegrationError(SolverError):
    """The shooting propagation overflowed, could miss a zero of y or did not converge."""
