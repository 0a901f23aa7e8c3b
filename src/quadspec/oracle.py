"""Characteristic values by direct integration of the Mathieu equation.

Verification path for the recurrence of :mod:`quadspec.mathieu`: the equation

    y''(x) + (a - 2 q cos 2x) y(x) = 0

is integrated over the quarter period [0, pi/2] and each of the four
periodic families is selected by the parity of y and y' at the two
endpoints.  For fixed (family, q) the terminal defect is a smooth
function of ``a`` whose zeros, in ascending order, are the family's
characteristic values, and the trial solution's Sturm oscillation count
N(a) is the number of them below a.  One integrator, :func:`_grid_defects`,
takes a whole ``a``-grid as one system of trial solutions and returns
both.  The m-th value is sought in a window centred on
:func:`~quadspec.mathieu.char_value`'s value; the counts at its two ends
prove that it holds the m-th value and no other, and one tight-tolerance
integration at the Chebyshev points of the window gives the value as
the root of their interpolant, from its colleague matrix (Trefethen,
*Approximation Theory and Approximation Practice*, ch. 18).

Only the window's centre comes from the recurrence; the rank and every
digit of the value come from shooting.  A recurrence value that is off
by less than the window's half-width shows as a discrepancy, one off by
more as a BracketError naming the counts, and neither as agreement.

The integrator is Hairer's Fortran DOP853 through scipy's ``ode``.  Its wrapper
keeps a reference to each callback per call, so the callbacks, the solver and its
bound solout persist; they read each batch from module state under a lock.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts2, chebroots
from scipy.integrate import ode

from .errors import BracketError, IntegrationError
from .mathieu import DEFAULT_TOL, SymmetryClass, _validate, char_value

_HALF_PI = math.pi / 2.0
#: Integrator tolerance of the one integration per value.
FINE_RTOL = 1e-12
_FINE_ATOL = 1e-12
#: Half-width of the window about char_value's value; same-family values are
#: O(1) apart, so the window holds one of them and need be centred only this well.
WINDOW = 0.375
#: Chebyshev points of the second kind the defect is integrated at; on the
#: window the fit's last two coefficients are below 1e-12 of its largest
#: for m <= 6, q <= 40.
CHEB_POINTS = 16
# Cap on sqrt(m^2 + 4q + 1), which bounds the trial solutions' wavenumber
# sqrt(a + 2q) on the window since a_m(q) <= m^2 + 2q (min-max): a0 up to
# q = 4095.75 or a127 at q = 0.  The integration's steps grow with it.
_MAX_WAVENUMBER = 128.0

# Terminal condition at pi/2: True means y'(pi/2) = 0, as for cos(hx) with even h and
# sin(hx) with odd h, False y(pi/2) = 0; with the start condition's parity it picks the family.
_TERMINAL_IS_DERIVATIVE = {s: (s.parity == "even") == (s.period == "pi") for s in SymmetryClass}

_batch = {}  # the batch being integrated, set and cleared under _LOCK
_LOCK = threading.Lock()  # DOP853 is not re-entrant


def _rhs(x, y):
    k = _batch["k"]
    return np.concatenate((y[k:], (2.0 * _batch["q"] * math.cos(2.0 * x) - _batch["a"]) * y[:k]))


def _keep_step(x, y):
    _batch["t"].append(x)
    _batch["below"].append(y[:_batch["k"]] < 0.0)


_SOLVER = ode(_rhs).set_integrator("dop853", rtol=FINE_RTOL, atol=_FINE_ATOL, nsteps=100_000)
_SOLVER.set_solout(_keep_step)
_SOLVER._integrator._solout = _SOLVER._integrator._solout  # one bound method, not one per call


def _grid_defects(symmetry, grid, q):
    """Defects and oscillation counts at every a of ``grid`` from one Fortran DOP853 integration.

    The state holds one trial solution per grid point, values first and
    derivatives second, kept at every accepted step.  The count N(a), the
    number of the family's values below a, is the sign changes of y over the
    steps, plus 1 where the terminal condition is y'(pi/2) = 0 and y and y'
    differ in sign at pi/2; a zero counts as non-negative.  Zeros of y lie at
    least pi / sqrt(a + 2q) apart (Sturm comparison), so a step shorter than
    that for the grid's largest a crosses at most one and the counts are
    exact; a longer one is an IntegrationError, as is a failure under any
    warning filter.  The shared solver is held under _LOCK throughout.
    """
    a = np.asarray(grid)
    k = a.size
    y0 = np.repeat([1.0, 0.0] if symmetry.parity == "even" else [0.0, 1.0], k)  # y(0) or y'(0) = 1
    where = f"a in [{grid[0]}, {grid[-1]}], q={q} ({symmetry.cli_name})"
    t, below = [], []
    with _LOCK:
        _batch.update(k=k, a=a, q=q, t=t, below=below)
        try:
            end = _SOLVER.set_initial_value(y0).integrate(_HALF_PI)
        except UserWarning:  # how ode reports a failure under -W error; the code follows
            pass
        finally:
            _batch.clear()
        if (code := _SOLVER.get_return_code()) < 0:
            raise IntegrationError(f"integration failed for {where}: "
                                   f"{_SOLVER._integrator.messages[code]}")
    if not np.isfinite(end).all():
        raise IntegrationError(f"integration for {where} ends in a non-finite state")
    phase = np.diff(t).max() * math.sqrt(max(a.max() + 2.0 * q, 0.0))
    if not phase < math.pi:
        raise IntegrationError(f"the longest step for {where} times sqrt(a + 2q) is "
                               f"{phase:.3g}, not below pi, so it may cross two zeros of y")
    counts = np.count_nonzero(np.diff(below, axis=0), axis=0)
    if _TERMINAL_IS_DERIVATIVE[symmetry]:
        defects = end[k:]
        counts += below[-1] != (defects < 0.0)
    else:
        defects = end[:k]
    return defects.tolist(), counts.tolist()


def oracle_char_value(
    symmetry: SymmetryClass, m: int, q: float, tol: float = DEFAULT_TOL
) -> float:
    """Characteristic value of order m located by shooting.

    The window is WINDOW either side of char_value's value at DEFAULT_TOL,
    not at ``tol``: it need be right only to WINDOW.  One tight-tolerance
    integration gives the defect and the oscillation count at CHEB_POINTS
    Chebyshev points of the window, both ends among them.  The counts at the
    ends must be the rank of m and one more, so that the window holds this
    order's value and no other; the value is the one real root in the window
    of the defect's Chebyshev interpolant.  ``tol`` is validated but the
    accuracy is set by FINE_RTOL, so a tighter ``tol`` still returns the
    fit's root.  A wavenumber bound sqrt(m^2 + 4q + 1) above _MAX_WAVENUMBER
    is a ValueError, raised before any eigensolve or integration.
    """
    rank = _validate(symmetry, m, q, tol)
    wavenumber = math.sqrt(m * m + 4.0 * q + 1.0)
    if wavenumber > _MAX_WAVENUMBER:
        raise ValueError(f"the oracle for {symmetry.cli_name} order {m} at q={q} needs "
                         f"wavenumbers up to {wavenumber:.6g}, above its cap of "
                         f"{_MAX_WAVENUMBER:g}")

    mid = char_value(symmetry, m, q).value
    x = chebpts2(CHEB_POINTS)
    f, counts = _grid_defects(symmetry, mid + WINDOW * x, q)
    where = (f"in a within [{mid - WINDOW}, {mid + WINDOW}] for {symmetry.cli_name} "
             f"order {m} at q={q}")
    if counts[0] != rank or counts[-1] != rank + 1:
        raise BracketError(f"the oscillation counts at the window's ends are {counts[0]} "
                           f"and {counts[-1]}, not {rank} and {rank + 1}, {where}")
    # The defect is positive below the spectrum and changes sign at each
    # simple root, so just below the rank-th root its sign is (-1)**rank;
    # the counts imply this, and the fit needs it of the defects themselves.
    sign = 1.0 if rank % 2 == 0 else -1.0
    if not (sign * f[0] > 0.0 > sign * f[-1]):
        raise BracketError(f"the fine defect does not change sign from {f[0]} to {f[-1]} "
                           f"as order {m} needs, {where}")
    roots = chebroots(chebfit(x, f, CHEB_POINTS - 1))
    roots = [r.real for r in roots if r.imag == 0.0 and -1.0 <= r.real <= 1.0]
    if len(roots) != 1:
        raise BracketError(f"the Chebyshev fit has {len(roots)} real roots, not one, {where}")
    return float(mid + WINDOW * roots[0])
