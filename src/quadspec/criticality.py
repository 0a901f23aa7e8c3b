"""Critical quadrupole strengths and the pairing of characteristic curves.

A channel opens (its radial problem becomes unbounded from below) when
its characteristic curve crosses zero, so the critical strengths are the
roots q_c of a_m(q) = 0 and b_m+1(q) = 0, reported as xi_c = q_c / 4.
The a_m / b_m+1 curves approach each other faster than exponentially as
q grows, which is why successive critical strengths come in ever-closer
pairs; :func:`pairing_gap` measures that approach directly.  Each root
is bracketed around its large-q asymptotic root (DLMF 28.8.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import BracketError
from .mathieu import DEFAULT_TOL, Mode, SymmetryClass, char_value, family_for_label

#: Times the bracket around the asymptotic root may be widened.
MAX_EXPANSIONS = 8
#: Root tolerance for orders >= 3, whose paired roots differ only in the
#: seventh significant figure of xi_c.
TIGHT_ROOT_TOL = 1e-13


@dataclass(frozen=True)
class CriticalPoint(Mode):
    """Root of one characteristic curve, with xi_c = q_c / 4."""

    q_c: float
    xi_c: float
    residual: float


@dataclass(frozen=True)
class PairingGap:
    """The difference b_m+1(q) - a_m(q); positive by interlacing."""

    m: int
    q: float
    gap: float


def find_critical(
    symmetry: SymmetryClass, m: int, tol: float = DEFAULT_TOL
) -> CriticalPoint:
    """Locate the q > 0 zero crossing of one characteristic curve.

    The even/pi order-0 curve is the single exception: it starts at zero
    and stays negative, so its only root is q_c = 0 and it is returned
    directly.  All other curves start at m^2 > 0 and cross zero exactly
    once.  It is bracketed by 0.9 and 1.1 times the large-q asymptotic
    root (DLMF 28.8.1); an end on the wrong side of the crossing becomes
    the other end while the low end halves or the high end doubles, at
    most MAX_EXPANSIONS times, and a bracketing root finder refines it:
    about ten curve evaluations per root at any order.
    """
    symmetry.rank_of(m)  # validates the (family, order) pair
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")

    def curve(q):
        return char_value(symmetry, m, q, tol).value

    if symmetry is SymmetryClass.EVEN_PI and m == 0:
        return CriticalPoint(symmetry, 0, 0.0, 0.0, abs(curve(0.0)))

    # Root of the first three terms of DLMF 28.8.1, -2q + 2s sqrt(q) -
    # (s^2 + 1)/8: at most 2.5% above q_c (a1), but b1's q_c is 25% above it.
    s = 2 * m + 1 if symmetry.letter == "a" else 2 * m - 1
    q0 = ((s + math.sqrt(s * s - (s * s + 1) / 4.0)) / 2.0) ** 2
    lo, hi = 0.9 * q0, 1.1 * q0
    f_lo, f_hi = curve(lo), curve(hi)
    for _ in range(MAX_EXPANSIONS):
        if f_lo >= 0.0 >= f_hi:
            break
        if f_lo < 0.0:  # lo is past the crossing: it becomes hi
            hi, f_hi = lo, f_lo
            lo /= 2.0
            f_lo = curve(lo)
        else:  # hi is short of the crossing: it becomes lo
            lo, f_lo = hi, f_hi
            hi *= 2.0
            f_hi = curve(hi)
    if not f_lo >= 0.0 >= f_hi:
        raise BracketError(
            f"no zero crossing of {Mode(symmetry, m).label} found for q in [{lo:.6g}, "
            f"{hi:.6g}] after {MAX_EXPANSIONS} expansions around q = {q0:.6g}"
        )
    xtol = min(tol, TIGHT_ROOT_TOL) if m >= 3 else tol
    q_c = float(brentq(curve, lo, hi, xtol=xtol))
    return CriticalPoint(symmetry, m, q_c, q_c / 4.0, abs(curve(q_c)))


def critical_table(max_pairs: int, tol: float = DEFAULT_TOL) -> list[CriticalPoint]:
    """Critical points of a_0, b_1, ..., a_max_pairs-1, b_max_pairs.

    Rows are ordered by ascending xi_c.  Once a pair's spacing falls below
    the root tolerance its order is not resolved (a8 and b9 agree to 12
    digits, the a13 and b14 roots differ by 1 ulp); a tie keeps a before b.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    points = []
    for m in range(max_pairs):
        points.append(find_critical(family_for_label("a", m), m, tol))
        points.append(find_critical(family_for_label("b", m + 1), m + 1, tol))
    points.sort(key=lambda p: p.xi_c)
    return points


def pairing_gap(m: int, q: float, tol: float = DEFAULT_TOL) -> PairingGap:
    """Evaluate b_m+1(q) - a_m(q) at a common strength q >= 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if q < 0:
        raise ValueError("q must be >= 0")
    a = char_value(family_for_label("a", m), m, q, tol).value
    b = char_value(family_for_label("b", m + 1), m + 1, q, tol).value
    return PairingGap(m, q, b - a)


def log_gap(gap: PairingGap) -> float:
    """Natural log of the gap; nan when the gap is not positive."""
    if gap.gap > 0.0:
        return math.log(gap.gap)
    return float("nan")
