"""Planar electric-quadrupole problem mapped onto the Mathieu spectrum.

The Schroedinger problem for a charge in the purely angular quadrupole
potential separates into an angular equation -- a Mathieu equation once
the angle is shifted by a quarter period, with q = 4*xi and
characteristic value a = 2*E -- and a radial equation whose attractive
inverse-square coefficient is alpha = 1/4 - 2*E.  A channel with
alpha <= 1/4 supports no negative energies, while alpha > 1/4 makes the
radial operator unbounded from below; alpha = 1/4 (E = 0) is the
critical boundary.  This module evaluates and classifies those channels;
it never solves the radial equation itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

# char_value is unused here, but perfbench's tracer self-test checks that
# it patches and restores the name in this module.
from .mathieu import (DEFAULT_TOL, Mode, SymmetryClass, _require_int,  # noqa: F401
                      char_value, char_values)

#: Half-width of the E band treated as exactly critical.  Looser than the
#: solver tolerance, far tighter than any spacing between thresholds.
CLASSIFICATION_TOL = 1e-10


class Regime(Enum):
    NO_NEGATIVE_SPECTRUM = "no_negative_spectrum"
    CRITICAL = "critical"
    UNBOUNDED_BELOW = "unbounded_below"


@dataclass(frozen=True)
class AngularChannel(Mode):
    """One angular mode: its family, order and eigenvalue E = a/2."""

    e_theta: float


@dataclass(frozen=True)
class RadialRegime:
    """Inverse-square strength of a channel and its classification."""

    alpha: float
    regime: Regime


def to_mathieu(xi: float) -> float:
    """Mathieu strength q = 4*xi of the quadrupole strength xi >= 0.

    Negative xi is rejected rather than folded in: the potential at -xi
    is the reflection theta -> -theta of the one at +xi, so its spectrum
    is identical but the even/odd labels would silently swap.
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    if xi < 0:
        raise ValueError(
            "xi must be >= 0; a negative xi is equivalent to +xi under the "
            "reflection theta -> -theta (identical spectrum, relabeled families)"
        )
    if xi > sys.float_info.max / 4:
        raise ValueError(f"xi must be <= {sys.float_info.max / 4!r} (4*xi overflows), got {xi!r}")
    return 4.0 * xi


def radial_alpha(channel: AngularChannel) -> RadialRegime:
    """Classify the radial problem induced by an angular channel.

    alpha = 1/4 - 2E; E within CLASSIFICATION_TOL of zero is critical
    (alpha = 1/4), E below is unbounded from below (alpha > 1/4), E above
    supports no negative spectrum.
    """
    e = channel.e_theta
    alpha = 0.25 - 2.0 * e
    if abs(e) <= CLASSIFICATION_TOL:
        regime = Regime.CRITICAL
    elif e < 0.0:
        regime = Regime.UNBOUNDED_BELOW
    else:
        regime = Regime.NO_NEGATIVE_SPECTRUM
    return RadialRegime(alpha, regime)


def classify_channels(
    xi: float, max_order: int = 12, tol: float = DEFAULT_TOL
) -> list[tuple[AngularChannel, RadialRegime]]:
    """Evaluate and classify every channel up to max_order, sorted by E."""
    _require_int(max_order, "max_order")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    q = to_mathieu(xi)
    channels = [
        AngularChannel(symmetry, cv.order, cv.value / 2.0)
        for symmetry in SymmetryClass
        for cv in char_values(symmetry, max_order, q, tol)
    ]
    channels.sort(key=lambda ch: ch.e_theta)
    return [(ch, radial_alpha(ch)) for ch in channels]


def count_open_channels(xi: float, max_order: int = 12, tol: float = DEFAULT_TOL) -> int:
    """Number of channels with an unbounded-below radial problem.

    a0 is negative for every xi > 0, but its E counts only below
    -CLASSIFICATION_TOL, so this is 1 at xi = 1e-5 and 0 at and below
    xi ~ 5e-6 (E0 ~ -4 xi^2), where a0 is classed critical.  Only the
    2 * max_order + 1 listed channels count, so at max_order 12 it reaches 25
    at xi_c(a12) ~ 134.2354 and stays there; critical_table has 28 crossings
    below xi = 160.
    """
    return _open_count(classify_channels(xi, max_order, tol))


def _open_count(classified) -> int:
    return sum(radial.regime is Regime.UNBOUNDED_BELOW for _, radial in classified)
