"""Characteristic values by direct integration of the Mathieu equation.

Verification path that shares no numerical machinery with the
tridiagonal solver in :mod:`quadspec.mathieu`: the equation

    y''(x) + (a - 2 q cos 2x) y(x) = 0

is integrated over the quarter period [0, pi/2] and each of the four
periodic families is selected by the parity of y and y' at the two
endpoints.  For fixed (family, q) the terminal defect is a smooth
function of ``a`` whose zeros, in ascending order, are the family's
characteristic values.  One integrator, :func:`_grid_defects`, takes a
whole ``a``-grid as one system of trial solutions: the m-th value is
bracketed by a coarse scan of a grid, then located by one tight-tolerance
integration at the Chebyshev points of the bracket, whose interpolant's
root in the bracket comes from its colleague matrix (Trefethen,
*Approximation Theory and Approximation Practice*, ch. 18).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts2, chebroots
from scipy.integrate import solve_ivp

from .errors import BracketError, IntegrationError
from .mathieu import DEFAULT_TOL, SymmetryClass, _validate

_HALF_PI = math.pi / 2.0
#: Step of the bracketing scan in a; same-family values are O(1) apart.
SCAN_STEP = 0.25
#: Integrator tolerance for the refinement stage.
FINE_RTOL = 1e-12
_FINE_ATOL = 1e-12
#: Chebyshev points of the second kind the refinement integrates the defect at;
#: on its bracket, three grid steps wide, the fit's last two coefficients are
#: below 1e-12 of its largest for m <= 6, q <= 40.
CHEB_POINTS = 16
# The bracketing scan only needs signs, so it runs the integrator loose.
_COARSE_RTOL = 1e-6
_COARSE_ATOL = 1e-9
# Cap on one scan's grid points: twice a0 at q = 2000 (~32,000) or a80 at q = 0.
_MAX_SCAN_POINTS = 2**16

# Terminal condition at pi/2: True means y'(pi/2) = 0, as for cos(hx) with even h and
# sin(hx) with odd h, False y(pi/2) = 0; with the start condition's parity it picks the family.
_TERMINAL_IS_DERIVATIVE = {s: (s.parity == "even") == (s.period == "pi") for s in SymmetryClass}


def _grid_defects(symmetry, grid, q, rtol=_COARSE_RTOL, atol=_COARSE_ATOL):
    """Defects at every a of ``grid`` from one DOP853 integration.

    The state holds one trial solution per grid point, values first and
    derivatives second; only its end state is kept.  The scan runs it at
    the coarse tolerances and uses only the signs.
    """
    a = np.asarray(grid)
    k = a.size
    y0 = np.zeros(2 * k)
    start = 0 if symmetry.parity == "even" else k  # y(0) = 1 or y'(0) = 1
    y0[start:start + k] = 1.0

    def rhs(x, y):
        return np.concatenate((y[k:], (2.0 * q * math.cos(2.0 * x) - a) * y[:k]))

    sol = solve_ivp(rhs, (0.0, _HALF_PI), y0, method="DOP853", t_eval=[_HALF_PI],
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(
            f"integration failed for a in [{grid[0]}, {grid[-1]}], q={q} "
            f"({symmetry.cli_name}): {sol.message}"
        )
    end = sol.y[:, -1]
    return (end[k:] if _TERMINAL_IS_DERIVATIVE[symmetry] else end[:k]).tolist()


def _scan_brackets(symmetry, q, rank, lo, hi):
    """First rank+1 grid cells (a_lo, a_hi) on [lo, hi] where the coarse defect
    changes sign; a zero counts as non-negative.

    The grid steps up from lo by repeated addition, as a point-by-point scan
    would; lo + i * SCAN_STEP differs from it by an ulp at some points.
    """
    if (hi - lo) / SCAN_STEP > _MAX_SCAN_POINTS:
        raise ValueError(f"the oracle's scan for {symmetry.cli_name} order "
                         f"{symmetry.order_at(rank)} at q={q} needs {(hi - lo) / SCAN_STEP:.0f} "
                         f"grid points, above its cap of {_MAX_SCAN_POINTS}")
    grid = [lo]
    while grid[-1] <= hi:
        grid.append(grid[-1] + SCAN_STEP)
    f = _grid_defects(symmetry, grid, q)
    return [(x, x_next) for x, x_next, f_prev, f_next in zip(grid, grid[1:], f, f[1:])
            if (f_prev < 0.0) != (f_next < 0.0)][:rank + 1]


def oracle_char_value(
    symmetry: SymmetryClass, m: int, q: float, tol: float = DEFAULT_TOL
) -> float:
    """Characteristic value of order m located purely by shooting.

    Scans ``a`` upward from below the bottom of the spectrum (the
    potential is bounded by 2q, so no eigenvalue lies below -2q) with one
    coarse integration of every grid point at once and brackets the
    rank-th zero of the terminal defect.  In that bracket, one grid step
    wider on each side, one tight-tolerance integration gives the defect
    at CHEB_POINTS Chebyshev points, both ends among them; the value is
    the one real root in the bracket of their Chebyshev interpolant.
    ``tol`` is validated but the accuracy is set by FINE_RTOL, so a
    tighter ``tol`` still returns the fit's root.  Only the argument check
    is shared with :func:`~quadspec.mathieu.char_value`.
    """
    rank = _validate(symmetry, m, q, tol)

    lo = -2.0 * q - 1.0
    hi = float((m + 2) ** 2) + 2.0 * q + 4.0
    brackets = _scan_brackets(symmetry, q, rank, lo, hi)
    if len(brackets) <= rank:
        raise BracketError(
            f"found only {len(brackets)} defect sign changes for "
            f"{symmetry.cli_name} in a within [{lo}, {hi}] at q={q}; "
            f"need {rank + 1}"
        )

    # The scan's signs are coarse, so a root within its error of a grid
    # point may lie just outside; same-family values are O(1) apart, so one
    # more step on each side still holds this root and no other.
    a_lo, a_hi = brackets[rank][0] - SCAN_STEP, brackets[rank][1] + SCAN_STEP
    mid, half = 0.5 * (a_lo + a_hi), 0.5 * (a_hi - a_lo)
    x = chebpts2(CHEB_POINTS)
    f = _grid_defects(symmetry, mid + half * x, q, FINE_RTOL, _FINE_ATOL)
    where = f"in a within [{a_lo}, {a_hi}] for {symmetry.cli_name} order {m} at q={q}"
    # The defect is positive below the spectrum and changes sign at each
    # simple root, so just below the rank-th root its sign is (-1)**rank.
    sign = 1.0 if rank % 2 == 0 else -1.0
    if not (sign * f[0] > 0.0 > sign * f[-1]):
        raise BracketError(f"the fine defect does not change sign from {f[0]} to {f[-1]} "
                           f"as order {m} needs, {where}")
    roots = chebroots(chebfit(x, f, CHEB_POINTS - 1))
    roots = [r.real for r in roots if r.imag == 0.0 and -1.0 <= r.real <= 1.0]
    if len(roots) != 1:
        raise BracketError(f"the Chebyshev fit has {len(roots)} real roots, not one, {where}")
    return float(mid + half * roots[0])
