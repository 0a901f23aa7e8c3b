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
eigenvalues and Fourier coefficients its eigenvectors.  Truncations are
doubled until the eigenvalue stabilizes; the coefficient tails decay
faster than exponentially beyond harmonic ~sqrt(q), so this converges
almost immediately.

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

_SQRT2 = math.sqrt(2.0)
# LAPACK bisection refines eigenvalues fully when abstol is set to twice
# the underflow threshold; the default (ulp * ||T||) is too loose near 0.
_EIG_ABSTOL = 2.0 * np.finfo(float).tiny


class SymmetryClass(Enum):
    """One of the four families of periodic Mathieu solutions.

    Each value is (parity, period, first order).
    """

    EVEN_PI = ("even", "pi", 0)
    EVEN_2PI = ("even", "2pi", 1)
    ODD_2PI = ("odd", "2pi", 1)
    ODD_PI = ("odd", "pi", 2)

    @property
    def parity(self) -> str:
        return self.value[0]

    @property
    def period(self) -> str:
        return self.value[1]

    @property
    def letter(self) -> str:
        """'a' for the even families, 'b' for the odd ones."""
        return "a" if self.parity == "even" else "b"

    @property
    def cli_name(self) -> str:
        return f"{self.parity}-{self.period}"

    @property
    def first_order(self) -> int:
        """Smallest valid order; also the lowest Fourier harmonic."""
        return self.value[2]

    def is_valid_order(self, m: int) -> bool:
        return m >= self.first_order and (m - self.first_order) % 2 == 0

    def rank_of(self, m: int) -> int:
        """Ascending rank of order m inside this family's spectrum."""
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
    for member in SymmetryClass:
        if member.letter == letter and member.is_valid_order(m):
            return member
    raise ValueError(f"there is no {letter}{m}: a-family orders start at 0, "
                     "b-family orders at 1")


def parse_label(text: str) -> tuple[SymmetryClass, int]:
    """Parse a shorthand label like 'a0', 'b3' or 'a_2'."""
    stripped = text.strip().lower().replace("_", "")
    if len(stripped) < 2 or stripped[0] not in "ab" or not stripped[1:].isdigit():
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
class FourierSolution(Mode):
    """Truncated Fourier expansion of one periodic eigenfunction.

    ``coefficients[k]`` multiplies cos(h_k * x) for the even families and
    sin(h_k * x) for the odd ones, with wavenumbers h_k = harmonics()[k].
    ``value`` is the characteristic value of the eigenpair.
    """

    q: float
    value: float
    coefficients: np.ndarray
    truncation: int

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
    elif symmetry is SymmetryClass.EVEN_2PI:
        diag[0] += q
    elif symmetry is SymmetryClass.ODD_2PI:
        diag[0] -= q
    return diag, off


def _initial_truncation(m: int, q: float) -> int:
    # Fourier tails die off beyond harmonic ~sqrt(q); keep generous margin.
    return max(32, m + math.ceil(2.0 * math.sqrt(q)) + 16)


def _eigensolve(symmetry: SymmetryClass, q: float, n: int, ranks: tuple[int, int],
                want_vectors: bool) -> tuple[list[float], np.ndarray | None]:
    """Ascending eigenvalues of ranks lo..hi of the order-n truncation, and
    their unit eigenvectors as columns if ``want_vectors`` (else None)."""
    diag, off = _bands(symmetry, q, n)
    result = eigh_tridiagonal(
        diag, off, eigvals_only=not want_vectors, select="i", select_range=ranks,
        tol=_EIG_ABSTOL,
    )
    if want_vectors:
        return result[0].tolist(), result[1]
    return result.tolist(), None


def _converge(symmetry, ranks, q, tol, want_vectors):
    """Values, vectors (or None) and truncation of the first doubling step
    at which every rank in ``ranks`` moved by less than ``tol`` and, with
    ``want_vectors``, every eigenvector's last coefficient is <= TAIL_TOL
    of its largest."""
    n = min(_initial_truncation(symmetry.order_at(ranks[1]), q), MAX_TRUNCATION // 2)
    cur, _ = _eigensolve(symmetry, q, n, ranks, False)
    while 2 * n <= MAX_TRUNCATION:
        n *= 2
        prev = cur
        cur, vecs = _eigensolve(symmetry, q, n, ranks, want_vectors)
        if all(abs(c - p) < tol for c, p in zip(cur, prev)) and (
            vecs is None
            or (np.abs(vecs[-1]) <= TAIL_TOL * np.abs(vecs).max(axis=0)).all()
        ):
            return cur, vecs, n
    shifts = [abs(c - p) for c, p in zip(cur, prev)]
    worst = shifts.index(max(shifts))
    label = Mode(symmetry, symmetry.order_at(ranks[0] + worst)).label
    raise ConvergenceError(
        f"characteristic value {label}(q={q}) did not stabilize to {tol} "
        f"within truncation {MAX_TRUNCATION}; last two iterates "
        f"{prev[worst]!r} and {cur[worst]!r}",
        last_two=(prev[worst], cur[worst]),
    )


def char_value(
    symmetry: SymmetryClass, m: int, q: float, tol: float = DEFAULT_TOL
) -> CharacteristicValue:
    """Characteristic value a_m(q) / b_m(q) of the given family and order.

    The truncated tridiagonal recurrence is solved for the rank of m
    within the family, doubling the truncation until the eigenvalue moves
    by less than ``tol``; the truncation actually used is recorded.

    Raises ValueError for an invalid (symmetry, m) pair, a negative or
    non-finite q or a tol that is not positive and finite, and
    ConvergenceError if the doubling hits the truncation cap.
    """
    rank = _validate(symmetry, m, q, tol)
    values, _, n = _converge(symmetry, (rank, rank), q, tol, want_vectors=False)
    return CharacteristicValue(symmetry, m, q, values[0], n)


def char_values(
    symmetry: SymmetryClass, max_order: int, q: float, tol: float = DEFAULT_TOL
) -> list[CharacteristicValue]:
    """Characteristic values of every order of one family up to max_order.

    All ranks share one eigensolve per doubling step and the truncation
    at which the last of them settled.  Raises like :func:`char_value`.
    """
    _validate(symmetry, symmetry.first_order, q, tol)
    top = (max_order - symmetry.first_order) // 2
    if top < 0:
        return []
    values, _, n = _converge(symmetry, (0, top), q, tol, want_vectors=False)
    return [
        CharacteristicValue(symmetry, symmetry.order_at(rank), q, value, n)
        for rank, value in enumerate(values)
    ]


def fourier_solution(
    symmetry: SymmetryClass, m: int, q: float, tol: float = DEFAULT_TOL
) -> FourierSolution:
    """Fourier coefficients of the periodic eigenfunction of order m.

    The coefficient vector is the eigenvector of the same tridiagonal
    system, scaled so that the integral of Theta^2 over [0, 2*pi] is pi
    and signed so that the leading nonzero coefficient is positive.
    """
    rank = _validate(symmetry, m, q, tol)
    values, vecs, n = _converge(symmetry, (rank, rank), q, tol, want_vectors=True)
    coeffs = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    if symmetry is SymmetryClass.EVEN_PI:
        coeffs[0] /= _SQRT2
    nonzero = np.nonzero(np.abs(coeffs) > 1e-12 * np.max(np.abs(coeffs)))[0]
    if coeffs[nonzero[0]] < 0:
        coeffs = -coeffs
    return FourierSolution(symmetry, m, q, values[0], coeffs, n)


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
