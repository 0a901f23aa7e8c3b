"""Periodic Mathieu eigenproblem via Fourier three-term recurrences.

The Mathieu equation

    y''(x) + (a - 2 q cos 2x) y(x) = 0

admits, for each ``q``, a discrete set of characteristic values ``a`` at
which a solution is periodic.  The periodic solutions come in exactly
four families -- even or odd in x, with period pi or 2*pi -- and
expanding a solution in the matching Fourier basis turns the equation
into a three-term recurrence for the coefficients.  After rescaling the
constant term of the even/period-pi family by sqrt(2), each recurrence
is a symmetric tridiagonal matrix, so characteristic values are its
eigenvalues and Fourier coefficients its eigenvectors.  Rank r's
coefficients decay faster than exponentially beyond row ~r + sqrt(q), so one
eigensolve at r + 16 + ceil(sqrt(q)) rows (2 more per digit of tol below 1e-12)
suffices; the one term its eigenvector leaves out of the recurrence certifies it.

Conventions:

* ``q >= 0`` everywhere.  For q < 0 use :func:`negative_q_partner`,
  which encodes the classical reflection identities.
* The order ``m`` is the conventional subscript of a_m / b_m.  Its
  parity fixes the family: a_m has period pi for even m and 2*pi for
  odd m; b_m has period 2*pi for odd m and pi for even m, and b_0 does
  not exist.  Within one family the characteristic curves never cross,
  so m maps to the ascending rank of the eigenvalue.
* Normalization: the integral of Theta(x)^2 over [0, 2*pi] equals pi
  for every returned eigenfunction, including the order-0 even one
  (whose constant coefficient therefore tends to 1/sqrt(2) as q -> 0).
  This is the convention under which the unit-norm symmetric
  eigenvector, with the constant term weighted by sqrt(2), gives the
  physical coefficients directly.
* Sign: the lowest-harmonic coefficient that is not numerically zero
  is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError

#: Default absolute tolerance on characteristic values.
DEFAULT_TOL = 1e-12
#: Every returned eigenfunction satisfies the Mathieu equation to this.
RESIDUAL_TOL = 1e-8
#: Relative size below which the last retained coefficient must fall.
TAIL_TOL = 1e-10
#: Hard cap on the truncation size.
MAX_TRUNCATION = 4096
# Highest zero-crossing order tested, in every family; its rank, at most 759, is
# solved at <= 2680 rows (_crossings).  Higher orders are refused as untested.
_MAX_CROSSING_ORDER = 1518

_SQRT2 = math.sqrt(2.0)
# LAPACK bisection refines eigenvalues fully when abstol is set to twice
# the underflow threshold; the default (ulp * ||T||) is too loose near 0.
_EIG_ABSTOL = 2.0 * np.finfo(float).tiny


def _require_int(value, name: str) -> None:
    """Raise ValueError naming ``name`` unless value is an int or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")


class SymmetryClass(Enum):
    """One of the four families of periodic Mathieu solutions.

    Each value is (parity, period, first order), the first order being the
    smallest valid order and also the lowest harmonic; the letter is 'a' for
    the even families and 'b' for the odd ones.
    """

    EVEN_PI = ("even", "pi", 0)
    EVEN_2PI = ("even", "2pi", 1)
    ODD_2PI = ("odd", "2pi", 1)
    ODD_PI = ("odd", "pi", 2)

    def __init__(self, parity: str, period: str, first_order: int):
        self.parity, self.period, self.first_order = parity, period, first_order
        self.letter = "a" if parity == "even" else "b"
        self.cli_name = f"{parity}-{period}"

    def is_valid_order(self, m: int) -> bool:
        return m >= self.first_order and (m - self.first_order) % 2 == 0

    def rank_of(self, m: int) -> int:
        """Ascending rank of order m inside this family's spectrum."""
        _require_int(m, "an order")
        if not self.is_valid_order(m):
            raise ValueError(
                f"the {self.cli_name} family has no order-{m} member; "
                f"valid orders are {self.first_order}, {self.first_order + 2}, ..."
            )
        return (m - self.first_order) // 2

    def order_at(self, rank: int) -> int:
        return self.first_order + 2 * rank

    def harmonics(self, n: int) -> np.ndarray:
        """Fourier wavenumbers of the first n basis functions."""
        return self.first_order + 2 * np.arange(n)


def family_for_label(letter: str, m: int) -> SymmetryClass:
    """Symmetry class of the conventional label a_m or b_m."""
    if letter not in ("a", "b"):
        raise ValueError(f"label letter must be 'a' or 'b', got {letter!r}")
    _require_int(m, "m")
    for member in SymmetryClass:
        if member.letter == letter and member.is_valid_order(m):
            return member
    raise ValueError(f"there is no {letter}{m}: a-family orders start at 0, "
                     "b-family orders at 1")


def parse_label(text: str) -> tuple[SymmetryClass, int]:
    """Parse a shorthand label like 'a0', 'b3' or 'a_2'."""
    stripped = text.strip().lower().replace("_", "")
    if len(stripped) < 2 or stripped[0] not in "ab" or not stripped[1:].isdecimal():
        raise ValueError(f"cannot parse eigenvalue label {text!r} (expected e.g. a0, b3)")
    m = int(stripped[1:])
    return family_for_label(stripped[0], m), m


@dataclass(frozen=True, eq=False)
class Mode:
    """Family and order of one spectrum record; eq=False lets subclasses pick equality."""

    symmetry: SymmetryClass
    order: int

    @property
    def label(self) -> str:
        """Conventional shorthand such as 'a0' or 'b3'."""
        return f"{self.symmetry.letter}{self.order}"


@dataclass(frozen=True)
class CharacteristicValue(Mode):
    """A converged point a_m(q) or b_m(q) on one characteristic curve."""

    q: float
    value: float
    truncation: int


@dataclass(frozen=True, eq=False)
class FourierSolution(CharacteristicValue):
    """Truncated Fourier expansion of one periodic eigenfunction.

    ``coefficients[k]`` multiplies cos(h_k * x) for the even families and
    sin(h_k * x) for the odd ones, with wavenumbers h_k = harmonics()[k].
    """

    coefficients: np.ndarray

    def harmonics(self) -> np.ndarray:
        return self.symmetry.harmonics(len(self.coefficients))


def _validate(symmetry: SymmetryClass, m: int, q: float, tol: float) -> int:
    rank = symmetry.rank_of(m)  # raises on an invalid order
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    if q < 0:
        raise ValueError("q must be >= 0; see negative_q_partner for q < 0")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if rank >= MAX_TRUNCATION // 2:  # ranks checked against twice the rows up to here
        raise ValueError(f"{Mode(symmetry, m).label} is beyond the truncation cap: rank "
                         f"{rank} >= MAX_TRUNCATION // 2 = {MAX_TRUNCATION // 2}")
    return rank


def _bands(symmetry: SymmetryClass, q: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the truncated recurrence matrix.

    The first row is where the families differ: the even/pi constant term
    couples with weight sqrt(2)*q once symmetrized, and the period-2pi
    families pick up -+q on the leading diagonal entry.
    """
    h = symmetry.harmonics(n).astype(float)
    diag = h * h
    off = np.full(n - 1, q, dtype=float)
    if symmetry is SymmetryClass.EVEN_PI:
        off[0] = _SQRT2 * q
    elif symmetry.period == "2pi":
        diag[0] += q if symmetry.parity == "even" else -q
    return diag, off


def _eigensolve(bands: tuple[np.ndarray, np.ndarray],
                ranks: tuple[int, int]) -> tuple[list[float], np.ndarray]:
    """Ascending eigenvalues of ranks lo..hi of the tridiagonal matrix with these
    (diagonal, off-diagonal) bands, and their unit eigenvectors as columns."""
    diag, off = bands
    if not np.isfinite(off).all():  # sqrt(2) * q overflows for even/pi past ~1.27e308
        raise ConvergenceError(f"the recurrence at truncation {diag.size} overflows to inf")
    try:
        values, vectors = eigh_tridiagonal(diag, off, select="i", select_range=ranks,
                                           tol=_EIG_ABSTOL)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"the eigensolve at truncation {diag.size} failed: {exc}") from exc
    if not np.isfinite(vectors).all():  # seen with finite values for q ~ 1e149 to 1e154
        raise ConvergenceError(f"the eigensolve at truncation {diag.size} returned "
                               "non-finite eigenvectors")
    return values.tolist(), vectors


def _certify(name_of, values, bounds, tol: float, n: int) -> None:
    """Raise ConvergenceError unless each residual bound is below ``tol`` plus
    4 ulps of its value; ``name_of(i)`` names the i-th value."""
    limits = tol + 4.0 * np.finfo(float).eps * np.abs(values)
    failed = np.flatnonzero(~(np.asarray(bounds) < limits))
    if failed.size:
        i = failed[0]
        raise ConvergenceError(
            f"{name_of(i)} is not certified to {tol}: its residual bound is "
            f"{bounds[i]:.3g} at truncation {n} (cap {MAX_TRUNCATION})")


def _converge(symmetry, orders, q, tol):
    """Records of orders lo..hi of one family, and their unit eigenvectors as
    columns, from one eigensolve that runs after every argument check.

    An eigenvector v of the n-row truncation solves the infinite recurrence
    but for the one dropped term q * v[n-1], so some characteristic value
    lies within q * |v[n-1]| of its eigenvalue; that bound is certified.  Rank
    r's coefficients oscillate up to row ~sqrt(r^2 + q) <= r + sqrt(q) and decay
    faster than exponentially past it, so n = r + 16 + ceil(sqrt(q)) rows for hi's
    rank r, plus 2 per decimal digit of tol below 1e-12, capped at MAX_TRUNCATION.
    """
    top = _validate(symmetry, orders[1], q, tol)
    lo = symmetry.rank_of(orders[0])
    digits = max(0, math.ceil(math.log10(DEFAULT_TOL) - math.log10(tol)))  # 1e-12/5e-324 = inf
    n = min(top + 16 + math.ceil(math.sqrt(q)) + 2 * digits, MAX_TRUNCATION)
    values, vecs = _eigensolve(_bands(symmetry, q, n), (lo, top))
    records = [CharacteristicValue(symmetry, symmetry.order_at(lo + i), q, value, n)
               for i, value in enumerate(values)]
    _certify(lambda i: f"characteristic value {records[i].label}(q={q})",
             values, q * np.abs(vecs[-1]), tol, n)
    return records, vecs


def _crossing(symmetry: SymmetryClass, ranks: tuple[int, int], n: int):
    """q > 0 at which the family's curves of ranks lo..hi cross zero, from n
    rows, the residual bounds on them and the curves' values there.

    The recurrence matrix D + q M, D = diag(h^2), is singular at q exactly when
    -1/q is an eigenvalue of D^-1/2 M D^-1/2, in the curves' order.  Even/pi
    drops rows 0 and 1 and a_0: at a = 0 with h_0 = 0, row 0 forces A_2 = 0.
    The eigenvector leaves out one term, v[-1] / (h_last * h_next), which
    moves -1/q by at most that much and q by that times q^2.  The Rayleigh
    quotient of u = D^-1/2 v on D + q_c M, row by row, is a(q_c) to second order
    in v's error, or a'(q_c) d for a root off by d; even/pi's dropped rows hold
    (-u[0] / sqrt(2), 0), which add to u^T u only.
    """
    skip = 2 if symmetry is SymmetryClass.EVEN_PI else 0
    square, _ = _bands(symmetry, 0.0, n + skip)
    diag, off = _bands(symmetry, 1.0, n + skip)
    square, couple, off = square[skip:], (diag - square)[skip:], off[skip:]
    scale = 1.0 / np.sqrt(square)
    values, vecs = _eigensolve((couple * scale**2, off * scale[:-1] * scale[1:]),
                               (ranks[0] - skip // 2, ranks[1] - skip // 2))
    q_c = -1.0 / np.array(values)
    h_last, h_next = symmetry.harmonics(n + skip + 1)[-2:]
    u = vecs * scale[:, None]
    tu = couple[:, None] * u
    tu[1:] += off[:, None] * u[:-1]
    tu[:-1] += off[:, None] * u[1:]
    tu = square[:, None] * u + q_c * tu
    norm = np.einsum("ij,ij->j", u, u) + (u[0] ** 2 / 2 if skip else 0.0)
    curve = np.abs(np.einsum("ij,ij->j", u, tu)) / norm
    return q_c, np.abs(vecs[-1]) / (h_last * h_next) * q_c**2, curve


def _crossings(symmetry: SymmetryClass, orders: tuple[int, int], tol: float) -> list:
    """Zero crossings of orders lo..hi of one family, each as (q_c, |a(q_c)|).

    a_0 starts at zero and is then negative, so its root is q = 0; every other
    curve starts at m^2 > 0 and crosses zero once.  At a = 0 rank r's coefficients
    decay from row ~2.6r on, so it is solved at 2 * ((7r + 48) // 4) ~ 3.5r + 24
    rows, which passed every certificate for each order <= 1518 of each family,
    alone and in tables of up to 1518 pairs.  Ranks share one eigensolve in
    blocks of at most 32, which bounds its memory, at the top rank's rows while
    those are within twice the lowest's, so a root's last bits may depend on
    lo..hi.  Each root is certified to ``tol`` plus 4 ulps of q_c, which shows
    only that *some* crossing lies that close, so orders above 1518, beyond the
    range where each was checked to be its own, are a ValueError.  Every argument
    check runs before any eigensolve.
    """
    top = _validate(symmetry, orders[1], 0.0, tol)
    rows = [min(2 * ((7 * rank + 48) // 4), MAX_TRUNCATION) for rank in range(top + 1)]
    if orders[1] > _MAX_CROSSING_ORDER:
        raise ValueError(f"the zero crossing of {Mode(symmetry, orders[1]).label} lies "
                         f"beyond the tested range; orders above {_MAX_CROSSING_ORDER} are "
                         f"refused (rank {top}, truncation {rows[top]} rows)")
    crossings = [(0.0, 0.0)] if orders[0] == 0 else []  # a_0(0) = 0 exactly
    lo = symmetry.rank_of(orders[0]) + len(crossings)
    while lo <= top:
        hi = max(rank for rank in range(lo, min(top, lo + 31) + 1) if rows[rank] <= 2 * rows[lo])
        q_c, bounds, curve = _crossing(symmetry, (lo, hi), rows[hi])
        _certify(lambda i: f"zero crossing of "
                           f"{Mode(symmetry, symmetry.order_at(lo + i)).label}",
                 q_c, bounds, tol, rows[hi])
        crossings += zip(q_c.tolist(), curve.tolist())
        lo = hi + 1
    return crossings


def char_value(
    symmetry: SymmetryClass, m: int, q: float, tol: float = DEFAULT_TOL
) -> CharacteristicValue:
    """Characteristic value a_m(q) / b_m(q) of the given family and order.

    The truncated tridiagonal recurrence is solved once for the rank of m
    within the family, and the truncation used is recorded.  The value is
    within ``tol`` plus 4 ulps of a true characteristic value by the
    eigenvector's residual in the infinite recurrence.

    Raises ValueError for an invalid (symmetry, m) pair, a negative or
    non-finite q or a tol that is not positive and finite, and
    ConvergenceError if the residual bound is above that.
    """
    return _converge(symmetry, (m, m), q, tol)[0][0]


def char_values(
    symmetry: SymmetryClass, max_order: int, q: float, tol: float = DEFAULT_TOL
) -> list[CharacteristicValue]:
    """Characteristic values of every order of one family up to max_order.

    All ranks share one eigensolve and its truncation, chosen for the top
    rank.  Raises like :func:`char_value`.
    """
    _require_int(max_order, "max_order")
    top = (max_order - symmetry.first_order) // 2
    if top < 0:  # no order of this family is <= max_order
        _validate(symmetry, symmetry.first_order, q, tol)
        return []
    return _converge(symmetry, (symmetry.first_order, symmetry.order_at(top)), q, tol)[0]


def fourier_solution(
    symmetry: SymmetryClass, m: int, q: float, tol: float = DEFAULT_TOL
) -> FourierSolution:
    """Fourier coefficients of the periodic eigenfunction of order m.

    The coefficient vector is the eigenvector of the same tridiagonal
    system, scaled so that the integral of Theta^2 over [0, 2*pi] is pi
    and signed so that the leading nonzero coefficient is positive.  Raises
    like :func:`char_value`, and ConvergenceError if the last coefficient is
    above TAIL_TOL of the largest.
    """
    (cv,), vecs = _converge(symmetry, (m, m), q, tol)
    tail = abs(vecs[-1, 0]) / np.abs(vecs[:, 0]).max()
    if not tail <= TAIL_TOL:
        raise ConvergenceError(f"Fourier coefficients of {cv.label}(q={q}) fall only to "
                               f"{tail:.3g} of the largest within truncation "
                               f"{cv.truncation}, not to {TAIL_TOL}")
    coeffs = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    if symmetry is SymmetryClass.EVEN_PI:
        coeffs[0] /= _SQRT2
    nonzero = np.nonzero(np.abs(coeffs) > 1e-12 * np.max(np.abs(coeffs)))[0]
    if coeffs[nonzero[0]] < 0:
        coeffs = -coeffs
    return FourierSolution(symmetry, m, q, cv.value, cv.truncation, coeffs)


def _basis(sol: FourierSolution, theta) -> tuple[np.ndarray, np.ndarray]:
    """The angles as an array and the solution's basis functions at them."""
    th = np.asarray(theta, dtype=float)
    phases = np.multiply.outer(th, sol.harmonics())
    basis = np.cos(phases) if sol.symmetry.parity == "even" else np.sin(phases)
    return th, basis


def eval_theta(sol: FourierSolution, theta) -> float | np.ndarray:
    """Evaluate Theta(theta) = sum_k c_k cos/sin(h_k theta).

    Accepts a scalar or an array of angles; periodic in theta with the
    family period by construction of the Fourier form.
    """
    th, basis = _basis(sol, theta)
    values = basis @ sol.coefficients
    if th.ndim == 0:
        return float(values)
    return values


def equation_residual(sol: FourierSolution, theta) -> float | np.ndarray:
    """|Theta'' + (a - 2 q cos 2 theta) Theta| at the given angles."""
    th, basis = _basis(sol, theta)
    h = sol.harmonics()
    second = -(basis @ (h * h * sol.coefficients))
    residual = np.abs(
        second + (sol.value - 2.0 * sol.q * np.cos(2.0 * th)) * (basis @ sol.coefficients)
    )
    if th.ndim == 0:
        return float(residual)
    return residual


def negative_q_partner(symmetry: SymmetryClass, m: int) -> tuple[SymmetryClass, int]:
    """Family and order whose value at +q equals this one's at -q.

    The classical identities are a_2m(-q) = a_2m(q), b_2m+2(-q) =
    b_2m+2(q) and a_2m+1(-q) = b_2m+1(q) (plus the converse), so a
    characteristic value at negative q is obtained by evaluating the
    returned (family, order) at |q|.  The order never changes; only the
    two period-2pi families swap.
    """
    symmetry.rank_of(m)  # validate the pair before relabeling
    swap = {
        SymmetryClass.EVEN_2PI: SymmetryClass.ODD_2PI,
        SymmetryClass.ODD_2PI: SymmetryClass.EVEN_2PI,
    }
    return swap.get(symmetry, symmetry), m
