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
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts2, chebroots
from scipy.integrate import solve_ivp

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


def _grid_defects(symmetry, grid, q):
    """Defects and oscillation counts at every a of ``grid`` from one DOP853 integration.

    The state holds one trial solution per grid point, values first and
    derivatives second, kept at every accepted step.  The count N(a), the
    number of the family's values below a, is the sign changes of y over the
    steps, plus 1 where the terminal condition is y'(pi/2) = 0 and y and y'
    differ in sign at pi/2; a zero counts as non-negative.  Zeros of y lie at
    least pi / sqrt(a + 2q) apart (Sturm comparison), so a step shorter than
    that for the grid's largest a crosses at most one and the counts are
    exact; a longer one is an IntegrationError.
    """
    a = np.asarray(grid)
    k = a.size
    y0 = np.zeros(2 * k)
    start = 0 if symmetry.parity == "even" else k  # y(0) = 1 or y'(0) = 1
    y0[start:start + k] = 1.0

    def rhs(x, y):
        return np.concatenate((y[k:], (2.0 * q * math.cos(2.0 * x) - a) * y[:k]))

    sol = solve_ivp(rhs, (0.0, _HALF_PI), y0, method="DOP853", rtol=FINE_RTOL, atol=_FINE_ATOL)
    where = f"a in [{grid[0]}, {grid[-1]}], q={q} ({symmetry.cli_name})"
    if not sol.success:
        raise IntegrationError(f"integration failed for {where}: {sol.message}")
    end = sol.y[:, -1]
    if not np.isfinite(end).all():
        raise IntegrationError(f"integration for {where} ends in a non-finite state")
    phase = np.diff(sol.t).max() * math.sqrt(max(a.max() + 2.0 * q, 0.0))
    if not phase < math.pi:
        raise IntegrationError(f"the longest step for {where} times sqrt(a + 2q) is "
                               f"{phase:.3g}, not below pi, so it may cross two zeros of y")
    below = sol.y[:k] < 0.0
    counts = np.count_nonzero(below[:, 1:] != below[:, :-1], axis=1)
    if _TERMINAL_IS_DERIVATIVE[symmetry]:
        defects = end[k:]
        counts += below[:, -1] != (defects < 0.0)
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
