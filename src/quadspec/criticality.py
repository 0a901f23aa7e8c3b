"""Critical quadrupole strengths and the pairing of characteristic curves.

A channel opens (its radial problem becomes unbounded from below) when
its characteristic curve crosses zero, so the critical strengths are the
roots q_c of a_m(q) = 0 and b_m+1(q) = 0, reported as xi_c = q_c / 4.
The a_m / b_m+1 curves approach each other faster than exponentially as
q grows, which is why successive critical strengths come in ever-closer
pairs; :func:`pairing_gap` measures that approach directly.  Each root
is an eigenvalue of one q-independent matrix (:func:`zero_crossing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mathieu import (DEFAULT_TOL, Mode, SymmetryClass, char_value, family_for_label,
                      zero_crossing)


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
    """Zero crossing q_c of one characteristic curve (:func:`zero_crossing`).

    The curve itself is evaluated once, for the residual |a_m(q_c)|: a
    check on the root that does not rest on how it was found.
    """
    q_c = zero_crossing(symmetry, m, tol)
    residual = abs(char_value(symmetry, m, q_c, tol).value)
    return CriticalPoint(symmetry, m, q_c, q_c / 4.0, residual)


def critical_table(max_pairs: int, tol: float = DEFAULT_TOL) -> list[CriticalPoint]:
    """Critical points of a_0, b_1, a_1, b_2, ..., a_max_pairs-1, b_max_pairs.

    This order is the order of xi_c: for q > 0 the curves interlace as
    a_m < b_m+1 < a_m+1 (DLMF 28.2(v)) and each crosses zero once, so the
    roots interlace the same way.  It holds even where a pair's spacing is
    below the root tolerance and the computed xi_c tie or swap.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    points = []
    for m in range(max_pairs):
        points.append(find_critical(family_for_label("a", m), m, tol))
        points.append(find_critical(family_for_label("b", m + 1), m + 1, tol))
    return points


def pairing_gap(m: int, q: float, tol: float = DEFAULT_TOL) -> PairingGap:
    """Evaluate b_m+1(q) - a_m(q) at a common strength q >= 0."""
    a = char_value(family_for_label("a", m), m, q, tol).value
    b = char_value(family_for_label("b", m + 1), m + 1, q, tol).value
    return PairingGap(m, q, b - a)


def log_gap(gap: PairingGap) -> float:
    """Natural log of the gap; nan when the gap is not positive."""
    if gap.gap > 0.0:
        return math.log(gap.gap)
    return float("nan")
