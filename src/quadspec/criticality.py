"""Critical quadrupole strengths and the pairing of characteristic curves.

A channel opens (its radial problem becomes unbounded from below) when
its characteristic curve crosses zero, so the critical strengths are the
roots q_c of a_m(q) = 0 and b_m+1(q) = 0, reported as xi_c = q_c / 4.
The a_m / b_m+1 curves approach each other faster than exponentially as
q grows, which is why successive critical strengths come in ever-closer
pairs; :func:`pairing_gap` measures that approach directly.  Each root and
its residual come from one eigenpair of a q-independent matrix
(:func:`find_critical`); a table shares one eigensolve per block of a family's
ranks, so a row's last bits may depend on its size, within ``tol`` plus 4 ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mathieu import (DEFAULT_TOL, Mode, SymmetryClass, _crossings, _require_int,
                      char_value, family_for_label)


@dataclass(frozen=True)
class CriticalPoint(Mode):
    """Root of one characteristic curve, with xi_c = q_c / 4."""

    q_c: float
    xi_c: float
    residual: float


@dataclass(frozen=True)
class PairingGap:
    """b_m+1(q) - a_m(q); exactly positive, but as a difference of values to tol it can be <= 0."""

    m: int
    q: float
    gap: float


def find_critical(
    symmetry: SymmetryClass, m: int, tol: float = DEFAULT_TOL
) -> CriticalPoint:
    """Zero crossing q_c of one characteristic curve (see mathieu._crossings).

    The residual |a_m(q_c)| is the Rayleigh quotient of the root's own
    eigenvector, so a root off by d shows as |a_m'(q_c) d|.
    """
    return _critical_points(symmetry, (m, m), tol)[0]


def _critical_points(symmetry: SymmetryClass, orders: tuple[int, int], tol: float):
    return [CriticalPoint(symmetry, orders[0] + 2 * i, q_c, q_c / 4.0, residual)
            for i, (q_c, residual) in enumerate(_crossings(symmetry, orders, tol))]


def critical_table(max_pairs: int, tol: float = DEFAULT_TOL) -> list[CriticalPoint]:
    """Critical points of a_0, b_1, a_1, b_2, ..., a_max_pairs-1, b_max_pairs.

    This order is the order of xi_c: for q > 0 the curves interlace as
    a_m < b_m+1 < a_m+1 (DLMF 28.2(v)) and each crosses zero once, so the
    roots interlace the same way.  It holds even where a pair's spacing is
    below the root tolerance and the computed xi_c tie or swap.  Each family's
    roots share eigensolves as in mathieu._crossings, so a row's last bits may
    depend on max_pairs, within ``tol`` plus 4 ulps of :func:`find_critical`'s.
    """
    _require_int(max_pairs, "max_pairs")
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    # Each family to its top order, highest first: b_max_pairs's checks cover every
    # row, so a table past the crossing cap fails before any work.  A family is
    # keyed by its letter and the parity of its orders.
    tops = [("b", max_pairs), ("a", max_pairs - 1), ("b", max_pairs - 1), ("a", max_pairs - 2)]
    points = {}
    for letter, top in tops[:2 * min(max_pairs, 2)]:
        symmetry = family_for_label(letter, top)
        points[letter, top % 2] = _critical_points(symmetry, (symmetry.first_order, top), tol)
    return [points[letter, order % 2][m // 2]  # a_m, b_m+1: rank m // 2
            for m in range(max_pairs) for letter, order in (("a", m), ("b", m + 1))]


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
