"""Characteristic values by direct integration of the Mathieu equation.

Verification path for the recurrence of :mod:`quadspec.mathieu`: the equation

    y''(x) + (a - 2 q cos 2x) y(x) = 0

is integrated over the quarter period [0, pi/2], as a product of 6th-order
Magnus propagators (Blanes, Casas & Ros, BIT 40, 434 (2000)), and each of the
four periodic families is selected by the parity of y and y' at the two
endpoints.  For fixed (family, q) the terminal defect is a smooth
function of ``a`` whose zeros, in ascending order, are the family's
characteristic values, and the trial solution's Sturm oscillation count
N(a) is the number of them below a.  One propagation, :func:`_grid_defects`,
takes a whole ``a``-grid as one batch of trial solutions and returns
both.  The m-th value is sought in a window centred on
:func:`~quadspec.mathieu.char_value`'s value; the counts at its two ends
prove that it holds the m-th value and no other, and propagations at the
Chebyshev points of the window, their steps doubled until two successive
roots agree within DEFAULT_TOL * max(1, |a|), give the value as the root of
their interpolant, from its colleague matrix (Trefethen, *Approximation
Theory and Approximation Practice*, ch. 18).

Only the window's centre comes from the recurrence; the rank and every
digit of the value come from shooting.  A recurrence value that is off
by less than the window's half-width shows as a discrepancy, one off by
more as a BracketError naming the counts, and neither as agreement.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import chebpts2, chebroots, chebvander

from .errors import BracketError, IntegrationError
from .mathieu import DEFAULT_TOL, SymmetryClass, _validate, char_value

_HALF_PI = math.pi / 2.0
#: Half-width of the window about char_value's value; same-family values are
#: O(1) apart, so the window holds one of them and need be centred only this well.
WINDOW = 0.375
#: Chebyshev points of the second kind the defect is propagated at; on the
#: window the fit's last two coefficients are below 1e-12 of its largest
#: for m <= 6, q <= 40.
CHEB_POINTS = 16
# The interpolant's Chebyshev coefficients from its values f at those points are _FIT @ f,
# the DCT-I 2 T_j(x_k) / (CHEB_POINTS - 1) with the first and last j and k halved.
_X = chebpts2(CHEB_POINTS)
_FIT = chebvander(_X, CHEB_POINTS - 1).T * (2.0 / (CHEB_POINTS - 1))
_FIT[[0, -1]] /= 2.0
_FIT[:, [0, -1]] /= 2.0
# Cap on sqrt(m^2 + 4q + 1), which bounds the trial solutions' wavenumber
# sqrt(a + 2q) on the window since a_m(q) <= m^2 + 2q (min-max): a0 up to
# q = 4095.75 or a127 at q = 0.
_MAX_WAVENUMBER = 128.0
# Steps made at once, to bound memory, and a value's first steps.  Each chunk is
# multiplied pairwise into its share of the blocks at whose ends y is read.
_CHUNK = 128
_MAX_STEPS = 2**14  # at which two roots that still disagree are an IntegrationError
_NODES = tuple(0.5 + k * math.sqrt(15.0) / 10.0 for k in (-1, 0, 1))  # Gauss nodes of a step
# 1/(2k)! and 1/(2k + 1)!, _exp_terms' series, for k <= 16: at |d| <= 16 term 16 is below 2^-53.
_SERIES = [(1.0 / math.factorial(2 * k), 1.0 / math.factorial(2 * k + 1)) for k in range(17)]

# Terminal condition at pi/2: True means y'(pi/2) = 0, as for cos(hx) with even h and
# sin(hx) with odd h, False y(pi/2) = 0; with the start condition's parity it picks the family.
_TERMINAL_IS_DERIVATIVE = {s: (s.parity == "even") == (s.period == "pi") for s in SymmetryClass}


def _product(later, earlier):
    """later @ earlier for two stacks of 2x2 matrices, each shaped (2, 2, ...)."""
    return later[:, 0, None] * earlier[0] + later[:, 1, None] * earlier[1]


def _exp_terms(d):
    """C and S of exp(Omega) = C I + S Omega, Omega^2 = d I, at each d of an array: the
    series C = sum d^k / (2k)! and S = sum d^k / (2k + 1)!, for either sign of d, cut
    before their first term below 2^-53 at the largest |d|.  Past |d| = 16 they are
    summed at d / 4^n, Omega / 2^n, and n squarings (C, S, d) -> (C^2 + S^2 d, C S, 4d)
    take them back to d."""
    top = float(np.abs(d).max())
    halvings = max(0, (math.frexp(top)[1] - 3) // 2)
    d, top = d * 0.25**halvings, top * 0.25**halvings
    terms = next((k for k in range(1, len(_SERIES)) if top**k * _SERIES[k][0] < 2.0**-53),
                 len(_SERIES))
    c, s = (np.full_like(d, coefficient) for coefficient in _SERIES[terms - 1])
    for c_k, s_k in reversed(_SERIES[:terms - 1]):
        c *= d
        c += c_k
        s *= d
        s += s_k
    for _ in range(halvings):
        c, s, d = c * c + s * s * d, c * s, 4.0 * d
    return c, s


def _grid_defects(symmetry, grid, q, steps):
    """Defects and oscillation counts at every a of ``grid`` from ``steps`` Magnus steps.

    (y, y')' = [[0, 1], [V, 0]] (y, y') with V = 2q cos 2x - a.  In E = [[0, 1], [0, 0]],
    F = [[0, 0], [1, 0]] and H = diag(1, -1) a step's Magnus terms are alpha1 = h (E + V2 F),
    alpha2 = u F and alpha3 = w F, from V at its Gauss nodes, u and w free of a; their
    commutators make Omega = oe E + of F + oh H, of and oh affine in V2 - a, and what is
    free of a is computed once.  Omega^2 = d I, so exp(Omega) = C I + S Omega, C and S
    from :func:`_exp_terms`.  The ``steps``, a power of two, are made _CHUNK at a time, to
    bound memory, and each chunk is multiplied pairwise into its share of the blocks;
    their prefix products by doubling (Hillis & Steele, CACM 29, 1170 (1986)) give y at
    each block end.

    The count N(a), the number of the family's values below a, is the sign changes from
    y(0) >= 0 over y at the block ends and then the defect; a zero counts as non-negative, so
    N(a) is odd exactly where the defect is negative.  Zeros of y lie at least pi / k apart,
    k = sqrt(a + 2q) (Sturm comparison), so a block shorter than that for the grid's largest a
    crosses at most one and the counts are exact; a longer one is an IntegrationError, as is a
    non-finite end state.  The blocks are the least power of two >= k, at least one per chunk
    and at most ``steps``: a block is then at most half the least spacing of zeros, and the
    cap's k = 128 takes 128.
    """
    a, h, chunk = np.asarray(grid, dtype=float)[:, None], _HALF_PI / steps, min(steps, _CHUNK)
    wavenumber, blocks = math.sqrt(max(a.max() + 2.0 * q, 0.0)), max(1, steps // _CHUNK)
    while blocks < min(wavenumber, steps):
        blocks *= 2
    phase = _HALF_PI / blocks * wavenumber
    if not phase < math.pi:
        raise IntegrationError(f"the longest block for a in [{grid[0]}, {grid[-1]}], q={q} "
                               f"({symmetry.cli_name}) times sqrt(a + 2q) is {phase:.3g}, not "
                               f"below pi, so it may cross two zeros of y")
    v1, v2, v3 = 2.0 * q * np.cos(2.0 * h * (np.arange(steps)[:, None] + _NODES)).T
    u = math.sqrt(15.0) / 3.0 * h * (v3 - v1)
    w = 10.0 / 3.0 * h * (v3 - 2.0 * v2 + v1)
    oe = h + h * h * (h * u * u / 15.0 - 4.0 / 3.0 * w) / 240.0
    # of = v f1 + f0 and oh = v h1 + h0 in v = V2 - a.
    f1 = h + h * h * (4.0 / 3.0 * w + h * u * u / 15.0) / 240.0
    f0 = w / 12.0 + h * (w * w / 15.0 - 2.0 * u * u) / 240.0
    h1, h0 = u * h**3 / 180.0, u * (h * h * w / 7200.0 - h / 12.0)
    p, ends = np.empty((2, 2, len(a), chunk)), np.empty((2, 2, len(a), blocks))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        for first in range(0, steps, chunk):
            now = slice(first, first + chunk)
            v = v2[now] - a
            of, oh = v * f1[now] + f0[now], v * h1[now] + h0[now]
            c, s = _exp_terms(oh * oh + oe[now] * of)
            oh *= s
            np.add(c, oh, out=p[0, 0])
            np.multiply(s, oe[now], out=p[0, 1])
            np.multiply(s, of, out=p[1, 0])
            np.subtract(c, oh, out=p[1, 1])
            block = p
            while block.shape[-1] * steps > blocks * chunk:
                block = _product(block[..., 1::2], block[..., 0::2])
            ends[..., first * blocks // steps:(first + chunk) * blocks // steps] = block
        shift = 1
        while shift < blocks:
            ends[..., shift:] = _product(ends[..., shift:], ends[..., :-shift])
            shift *= 2
    # y(0) = 1 or y'(0) = 1 picks the propagators' first or second column.
    y, dy = ends[:, 0 if symmetry.parity == "even" else 1]
    if not (np.isfinite(y[:, -1]).all() and np.isfinite(dy[:, -1]).all()):
        raise IntegrationError(f"the propagation for a in [{grid[0]}, {grid[-1]}], q={q} "
                               f"({symmetry.cli_name}) ends in a non-finite state")
    defects = (dy if _TERMINAL_IS_DERIVATIVE[symmetry] else y)[:, -1]
    below = np.column_stack((y, defects)) < 0.0
    return defects.tolist(), np.count_nonzero(np.diff(below, prepend=False), axis=1).tolist()


def oracle_char_value(
    symmetry: SymmetryClass, m: int, q: float, tol: float = DEFAULT_TOL
) -> float:
    """Characteristic value of order m located by shooting.

    The window is WINDOW either side of char_value's value at DEFAULT_TOL, not at ``tol``: it
    need be right only to WINDOW.  Each propagation gives the defect and the oscillation count
    at CHEB_POINTS Chebyshev points of the window, both ends among them, and is checked three
    ways.  The counts at the ends must be the rank of m and one more, so that the window holds
    this order's value and no other (their parity fixes the defect's signs there); the defect's
    Chebyshev interpolant must have one real root in the window, the value; and the steps
    double from _CHUNK until two roots agree, an IntegrationError past _MAX_STEPS.  ``tol`` is
    validated but the accuracy is set by this rule.  A wavenumber bound sqrt(m^2 + 4q + 1)
    above _MAX_WAVENUMBER is a ValueError, raised before any eigensolve or propagation.
    """
    rank = _validate(symmetry, m, q, tol)
    wavenumber = math.sqrt(m * m + 4.0 * q + 1.0)
    if wavenumber > _MAX_WAVENUMBER:
        raise ValueError(f"the oracle for {symmetry.cli_name} order {m} at q={q} needs "
                         f"wavenumbers up to {wavenumber:.6g}, above its cap of "
                         f"{_MAX_WAVENUMBER:g}")

    mid = char_value(symmetry, m, q).value
    where = (f"in a within [{mid - WINDOW}, {mid + WINDOW}] for {symmetry.cli_name} "
             f"order {m} at q={q}")
    steps, last = _CHUNK, math.nan
    while True:
        f, counts = _grid_defects(symmetry, mid + WINDOW * _X, q, steps)
        if counts[0] != rank or counts[-1] != rank + 1:
            raise BracketError(f"the oscillation counts at the window's ends are {counts[0]} "
                               f"and {counts[-1]}, not {rank} and {rank + 1}, {where}")
        roots = chebroots(_FIT @ f)
        roots = [r.real for r in roots if r.imag == 0.0 and -1.0 <= r.real <= 1.0]
        if len(roots) != 1:
            raise BracketError(f"the Chebyshev fit has {len(roots)} real roots, not one, {where}")
        value = float(mid + WINDOW * roots[0])
        if abs(value - last) <= DEFAULT_TOL * max(1.0, abs(value)):
            return value
        if steps >= _MAX_STEPS:
            raise IntegrationError(f"the roots at {steps // 2} and {steps} steps, {last!r} and "
                                   f"{value!r}, do not agree, {where}")
        steps, last = 2 * steps, value
