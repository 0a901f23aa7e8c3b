"""Characteristic values by direct integration of the Mathieu equation.

Verification path that shares no numerical machinery with the
tridiagonal solver in :mod:`quadspec.mathieu`: the equation

    y''(x) + (a - 2 q cos 2x) y(x) = 0

is integrated over the quarter period [0, pi/2] and each of the four
periodic families is selected by the parity of y and y' at the two
endpoints.  For fixed (family, q) the terminal defect is a smooth
function of ``a`` whose zeros, in ascending order, are the family's
characteristic values.  The m-th one is bracketed by a coarse scan of an
``a``-grid, all of whose trial solutions are integrated together as one
system, and then refined by scalar tight-tolerance integrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import BracketError, IntegrationError
from .mathieu import SymmetryClass, _validate

_HALF_PI = math.pi / 2.0
#: Step of the bracketing scan in a; same-family values are O(1) apart.
SCAN_STEP = 0.25
#: Integrator tolerance for the refinement stage.
FINE_RTOL = 1e-12
# The bracketing scan only needs signs, so it runs the integrator loose.
_COARSE_RTOL = 1e-6
_COARSE_ATOL = 1e-9

# Terminal condition at pi/2: True means y'(pi/2) = 0, False y(pi/2) = 0.
# Together with the parity of the start condition this picks the family.
_TERMINAL_IS_DERIVATIVE = {
    SymmetryClass.EVEN_PI: True,
    SymmetryClass.EVEN_2PI: False,
    SymmetryClass.ODD_2PI: True,
    SymmetryClass.ODD_PI: False,
}


@dataclass(frozen=True)
class ShootingResult:
    """Terminal boundary-condition defect of one trial integration."""

    a: float
    mismatch: float
    step_count: int


def shooting_defect(
    symmetry: SymmetryClass,
    a: float,
    q: float,
    rtol: float = FINE_RTOL,
    atol: float = 1e-12,
) -> ShootingResult:
    """Integrate the trial solution over [0, pi/2] and report its defect.

    Starts from y(0)=1, y'(0)=0 for the even families and y(0)=0,
    y'(0)=1 for the odd ones; the mismatch is y'(pi/2) or y(pi/2)
    according to the family and vanishes exactly at its characteristic
    values.
    """
    y0 = (1.0, 0.0) if symmetry.parity == "even" else (0.0, 1.0)

    def rhs(x, y):
        return (y[1], (2.0 * q * math.cos(2.0 * x) - a) * y[0])

    sol = solve_ivp(rhs, (0.0, _HALF_PI), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(
            f"integration failed for a={a}, q={q} ({symmetry.cli_name}): {sol.message}"
        )
    mismatch = sol.y[1, -1] if _TERMINAL_IS_DERIVATIVE[symmetry] else sol.y[0, -1]
    return ShootingResult(a, float(mismatch), sol.t.size - 1)


def _grid_defects(symmetry, grid, q):
    """Coarse defects at every a of ``grid`` from one DOP853 integration.

    The state holds one trial solution per grid point, values first and
    derivatives second; only the signs of the result are used.
    """
    a = np.asarray(grid)
    k = a.size
    y0 = np.zeros(2 * k)
    start = 0 if symmetry.parity == "even" else k  # y(0) = 1 or y'(0) = 1
    y0[start:start + k] = 1.0

    def rhs(x, y):
        return np.concatenate((y[k:], (2.0 * q * math.cos(2.0 * x) - a) * y[:k]))

    sol = solve_ivp(rhs, (0.0, _HALF_PI), y0, method="DOP853",
                    rtol=_COARSE_RTOL, atol=_COARSE_ATOL)
    if not sol.success:
        raise IntegrationError(
            f"integration failed for a in [{grid[0]}, {grid[-1]}], q={q} "
            f"({symmetry.cli_name}): {sol.message}"
        )
    end = sol.y[:, -1]
    return (end[k:] if _TERMINAL_IS_DERIVATIVE[symmetry] else end[:k]).tolist()


def _scan_brackets(symmetry, q, rank, lo, hi):
    """First rank+1 sign-change brackets of the coarse defect on [lo, hi].

    The grid steps up from lo by repeated addition, as a point-by-point scan
    would; lo + i * SCAN_STEP differs from it by an ulp at some points.
    """
    grid = [lo]
    while grid[-1] <= hi:
        grid.append(grid[-1] + SCAN_STEP)
    f = _grid_defects(symmetry, grid, q)
    brackets = [(lo - SCAN_STEP, lo + SCAN_STEP)] if f[0] == 0.0 else []
    for x, x_next, f_prev, f_next in zip(grid, grid[1:], f, f[1:]):
        if f_next == 0.0:
            brackets.append((x_next - SCAN_STEP, x_next + SCAN_STEP))
        elif f_prev != 0.0 and (f_prev < 0.0) != (f_next < 0.0):
            brackets.append((x, x_next))
    return brackets[:rank + 1]


def oracle_char_value(
    symmetry: SymmetryClass, m: int, q: float, tol: float = 1e-12
) -> float:
    """Characteristic value of order m located purely by shooting.

    Scans ``a`` upward from below the bottom of the spectrum (the
    potential is bounded by 2q, so no eigenvalue lies below -2q) with one
    coarse integration of every grid point at once, brackets the rank-th
    zero of the terminal defect and refines it with a bracketing root
    finder driven by one tight-tolerance integration per evaluation.
    Only the argument check is shared with :func:`~quadspec.mathieu.char_value`.
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

    a_lo, a_hi = brackets[rank]

    def fine(a):
        return shooting_defect(symmetry, a, q).mismatch

    f_lo, f_hi = fine(a_lo), fine(a_hi)
    if f_lo == 0.0:
        return a_lo
    if f_hi == 0.0:
        return a_hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        # A root sitting on a grid point (a_0 ~ -q^2/2 rounds to 0.0 for
        # tiny q) can leave the fine defect there with the coarse one's
        # opposite sign.  Step the end nearer the root one grid step outward.
        if abs(f_lo) < abs(f_hi):
            a_lo -= SCAN_STEP
            f_lo = fine(a_lo)
        else:
            a_hi += SCAN_STEP
            f_hi = fine(a_hi)
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketError(
            f"refinement bracket [{a_lo}, {a_hi}] lost its sign change "
            f"for {symmetry.cli_name} order {m} at q={q}"
        )
    return float(brentq(fine, a_lo, a_hi, xtol=tol))
