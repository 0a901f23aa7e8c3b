"""Critical quadrupole strengths and the pairing of characteristic curves.

A channel opens (its radial problem becomes unbounded from below) when
its characteristic curve crosses zero, so the critical strengths are the
roots q_c of a_m(q) = 0 and b_m+1(q) = 0, reported as xi_c = q_c / 4.
The a_m / b_m+1 curves approach each other faster than exponentially as
q grows, which is why successive critical strengths come in ever-closer
pairs; :func:`pairing_gap` measures that approach directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import BracketError
from .mathieu import DEFAULT_TOL, Mode, SymmetryClass, char_value, family_for_label

#: Scan step in q used to bracket the zero crossing of a curve.
SCAN_DQ = 0.5
#: Baseline scan cap; raised per order so high curves stay reachable.
SCAN_QMAX = 100.0
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


def _scan_cap(m: int) -> float:
    # The order-m curve crosses zero below roughly (2m+1)^2 in q; the
    # baseline of 100 alone would strand orders >= 5.
    return max(SCAN_QMAX, float((2 * m + 2) ** 2))


def find_critical(
    symmetry: SymmetryClass, m: int, tol: float = DEFAULT_TOL
) -> CriticalPoint:
    """Locate the q > 0 zero crossing of one characteristic curve.

    The even/pi order-0 curve is the single exception: it starts at zero
    and stays negative, so its only root is q_c = 0 and it is returned
    directly.  All other curves start at m^2 > 0 and cross zero exactly
    once; the crossing is bracketed on a coarse scan grid and refined by
    a bracketing root finder.
    """
    symmetry.rank_of(m)  # validates the (family, order) pair
    if not tol > 0:
        raise ValueError("tol must be positive")

    def curve(q):
        return char_value(symmetry, m, q, tol).value

    if symmetry is SymmetryClass.EVEN_PI and m == 0:
        return CriticalPoint(symmetry, 0, 0.0, 0.0, abs(curve(0.0)))

    xtol = min(tol, TIGHT_ROOT_TOL) if m >= 3 else tol
    q_max = _scan_cap(m)
    steps = int(round(q_max / SCAN_DQ))
    prev_q, prev_f = 0.0, float(m * m)  # exact free-rotor value at q = 0
    q_c = None
    for k in range(1, steps + 1):
        q = k * SCAN_DQ
        f = curve(q)
        if f == 0.0:
            q_c = q
            break
        if prev_f > 0.0 and f < 0.0:
            q_c = float(brentq(curve, prev_q, q, xtol=xtol))
            break
        prev_q, prev_f = q, f
    if q_c is None:
        raise BracketError(
            f"no zero crossing of {Mode(symmetry, m).label} found for q in [0, {q_max}] "
            f"(scanned in steps of {SCAN_DQ})"
        )
    return CriticalPoint(symmetry, m, q_c, q_c / 4.0, abs(curve(q_c)))


def critical_table(max_pairs: int, tol: float = DEFAULT_TOL) -> list[CriticalPoint]:
    """Critical points of a_0, b_1, ..., a_max_pairs-1, b_max_pairs.

    Rows are ordered by ascending xi_c, which interlacing makes strictly
    increasing; an exact tie cannot occur, but the stable sort would keep
    the a-row of a pair ahead of its b-row.
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
