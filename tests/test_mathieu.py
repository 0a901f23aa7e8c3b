"""Tests for the tridiagonal-recurrence Mathieu solver."""

import math
import re

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from quadspec import (
    DEFAULT_TOL,
    CharacteristicValue,
    ConvergenceError,
    SymmetryClass,
    char_value,
    char_values,
    equation_residual,
    eval_theta,
    family_for_label,
    fourier_solution,
    negative_q_partner,
    parse_label,
)
from quadspec import mathieu as mathieu_mod
from quadspec.mathieu import TAIL_TOL, _bands

ALL = list(SymmetryClass)
EPS = np.finfo(float).eps


def orders_of(symmetry, max_order):
    return list(range(symmetry.first_order, max_order + 1, 2))


def value_at_truncation(symmetry, q, n, rank):
    """The rank-th eigenvalue of the order-n truncation, one eigensolve."""
    values, _ = mathieu_mod._eigensolve(_bands(symmetry, q, n), (rank, rank))
    return values[0]


def rows_rule(rank, q, tol=DEFAULT_TOL):
    """Rows the certified solve uses for ranks up to ``rank``: the rule in
    mathieu._converge's docstring, written out again."""
    digits = max(0, math.ceil(-12.0 - math.log10(tol)))
    return min(rank + 16 + math.ceil(math.sqrt(q)) + 2 * digits, mathieu_mod.MAX_TRUNCATION)


def within_certificate(value, reference, tol=DEFAULT_TOL):
    return abs(value - reference) <= tol + 4.0 * EPS * abs(reference)


def doubling_loop(symmetry, ranks, q, tol=DEFAULT_TOL):
    """Reference: values and truncation of the truncation-doubling loop the
    certified solve replaced, eigenvalues only, capped at MAX_TRUNCATION."""
    def solve(n):
        diag, off = _bands(symmetry, q, n)
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=ranks, tol=mathieu_mod._EIG_ABSTOL).tolist()

    n = min(max(32, symmetry.order_at(ranks[1]) + math.ceil(2.0 * math.sqrt(q)) + 16),
            mathieu_mod.MAX_TRUNCATION // 2)
    cur = solve(n)
    while 2 * n <= mathieu_mod.MAX_TRUNCATION:
        n *= 2
        prev, cur = cur, solve(n)
        if all(abs(c - p) < tol for c, p in zip(cur, prev)):
            return cur, n
    raise ConvergenceError("the doubling loop did not settle")


class TestSymmetryClass:
    def test_exactly_four_families(self):
        assert len(ALL) == 4
        assert {(c.parity, c.period) for c in ALL} == {
            ("even", "pi"), ("even", "2pi"), ("odd", "2pi"), ("odd", "pi"),
        }
        for c in ALL:
            assert (c.parity, c.period, c.first_order) == c.value
            assert (c.letter == "a") == (c.parity == "even")
            assert c.cli_name == f"{c.parity}-{c.period}"

    def test_letters(self):
        assert SymmetryClass.EVEN_PI.letter == "a"
        assert SymmetryClass.EVEN_2PI.letter == "a"
        assert SymmetryClass.ODD_2PI.letter == "b"
        assert SymmetryClass.ODD_PI.letter == "b"

    def test_first_orders(self):
        assert SymmetryClass.EVEN_PI.first_order == 0
        assert SymmetryClass.EVEN_2PI.first_order == 1
        assert SymmetryClass.ODD_2PI.first_order == 1
        assert SymmetryClass.ODD_PI.first_order == 2

    @pytest.mark.parametrize("symmetry", ALL)
    def test_rank_round_trip(self, symmetry):
        for rank in range(6):
            m = symmetry.order_at(rank)
            assert symmetry.rank_of(m) == rank

    @pytest.mark.parametrize(
        "symmetry,bad",
        [
            (SymmetryClass.EVEN_PI, 1),
            (SymmetryClass.EVEN_2PI, 2),
            (SymmetryClass.ODD_2PI, 0),
            (SymmetryClass.ODD_PI, 3),
            (SymmetryClass.EVEN_PI, -2),
        ],
    )
    def test_invalid_orders_raise(self, symmetry, bad):
        with pytest.raises(ValueError):
            symmetry.rank_of(bad)

    @pytest.mark.parametrize("bad", [2.0, 3.0, np.float64(2.0), True, False, "2", None])
    def test_non_int_orders_raise_naming_the_order(self, bad):
        # 2.0 used to pass as order 2 and fail inside scipy with a TypeError;
        # True was order 1 of the period-2pi families.
        named = f"got {re.escape(repr(bad))}$"
        for symmetry in ALL:
            with pytest.raises(ValueError, match=f"^an order must be an int, {named}"):
                symmetry.rank_of(bad)
            with pytest.raises(ValueError, match=named):
                char_value(symmetry, bad, 1.0)

    @pytest.mark.parametrize("symmetry", ALL)
    def test_numpy_int_orders_are_ints(self, symmetry):
        for rank in range(3):
            assert symmetry.rank_of(np.int64(symmetry.order_at(rank))) == rank

    def test_parse_label(self):
        assert parse_label("a0") == (SymmetryClass.EVEN_PI, 0)
        assert parse_label("a3") == (SymmetryClass.EVEN_2PI, 3)
        assert parse_label("b1") == (SymmetryClass.ODD_2PI, 1)
        assert parse_label("b2") == (SymmetryClass.ODD_PI, 2)
        assert parse_label("A_4") == (SymmetryClass.EVEN_PI, 4)

    @pytest.mark.parametrize("bad", ["b0", "c1", "a", "a-1", "", "3a"])
    def test_parse_label_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_label(bad)

    def test_parse_label_rejects_superscript_digits(self):
        # str.isdigit accepts '²' and '¹', which int() then rejects with its own message.
        for bad in ("a²", "b¹"):
            with pytest.raises(ValueError, match=f"cannot parse eigenvalue label '{bad}'"):
                parse_label(bad)

    def test_family_for_label_rejects_b0(self):
        with pytest.raises(ValueError):
            family_for_label("b", 0)

    def test_family_for_label_rejects_other_letters(self):
        # parse_label refuses "c0" itself, so only a direct call reaches this check.
        with pytest.raises(ValueError, match="label letter must be 'a' or 'b', got 'c'"):
            family_for_label("c", 0)

    @pytest.mark.parametrize("letter,bad", [("a", True), ("b", 3.0), ("a", np.float64(0.0)),
                                            ("b", "1")])
    def test_family_for_label_rejects_non_int_orders(self, letter, bad):
        # True was a1 (even/2pi) and 3.0 was b3 (odd/2pi).
        with pytest.raises(ValueError, match=f"^m must be an int, got {re.escape(repr(bad))}$"):
            family_for_label(letter, bad)


class TestCharValue:
    @pytest.mark.parametrize("symmetry", ALL)
    def test_free_rotor_exact(self, symmetry):
        for m in orders_of(symmetry, 10):
            cv = char_value(symmetry, m, 0.0)
            assert abs(cv.value - m * m) < 1e-12

    def test_b1_vanishes_at_first_threshold(self):
        # b_1 crosses zero at q = 4 * 0.2270115834.
        cv = char_value(SymmetryClass.ODD_2PI, 1, 0.9080463336)
        assert abs(cv.value) < 1e-8

    # Reference values computed with the quarter-period shooting oracle
    # (quadspec.oracle), frozen so this module's tests stand alone.
    @pytest.mark.parametrize(
        "symmetry,m,q,reference",
        [
            (SymmetryClass.EVEN_PI, 0, 5.0, -5.8000460208509415),
            (SymmetryClass.EVEN_PI, 2, 1.0, 4.371300982735582),
            (SymmetryClass.EVEN_2PI, 1, 2.0, 2.379199880489041),
            (SymmetryClass.ODD_2PI, 1, 0.5, 0.4706543549355397),
            (SymmetryClass.ODD_PI, 2, 10.0, -2.382158235956075),
            (SymmetryClass.EVEN_2PI, 3, 8.0, 14.181880362317873),
        ],
    )
    def test_oracle_frozen_references(self, symmetry, m, q, reference):
        assert char_value(symmetry, m, q).value == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("q", [1.0, 5.0, 10.0])
    def test_matches_scipy_special(self, q):
        for m in range(0, 6):
            ref = scipy.special.mathieu_a(m, q)
            mine = char_value(family_for_label("a", m), m, q).value
            assert mine == pytest.approx(ref, abs=1e-8)
        for m in range(1, 6):
            ref = scipy.special.mathieu_b(m, q)
            mine = char_value(family_for_label("b", m), m, q).value
            assert mine == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("q", [0.5, 1.0, 5.0, 20.0])
    def test_interlacing(self, q):
        labels = [("a", 0), ("b", 1), ("a", 1), ("b", 2),
                  ("a", 2), ("b", 3), ("a", 3), ("b", 4)]
        values = [
            char_value(family_for_label(letter, m), m, q).value
            for letter, m in labels
        ]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "symmetry,m,q",
        [
            (SymmetryClass.EVEN_PI, 0, 0.5),
            (SymmetryClass.EVEN_2PI, 3, 5.0),
            (SymmetryClass.ODD_2PI, 1, 20.0),
            (SymmetryClass.ODD_PI, 4, 69.4),
        ],
    )
    def test_truncation_doubling_stable(self, symmetry, m, q):
        cv = char_value(symmetry, m, q)
        rank = symmetry.rank_of(m)
        again = value_at_truncation(symmetry, q, 2 * cv.truncation, rank)
        assert abs(cv.value - again) < 1e-12

    def test_truncation_recorded(self):
        cv = char_value(SymmetryClass.EVEN_PI, 0, 1.0)
        assert cv.truncation == rows_rule(0, 1.0) == 17
        assert cv.label == "a0"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            char_value(SymmetryClass.ODD_2PI, 0, 1.0)
        with pytest.raises(ValueError):
            char_value(SymmetryClass.EVEN_PI, 0, -1.0)
        with pytest.raises(ValueError):
            char_value(SymmetryClass.EVEN_PI, 0, 1.0, tol=0.0)

    @pytest.mark.parametrize("args", [(SymmetryClass.EVEN_PI, 4, -1.0),
                                      (SymmetryClass.EVEN_PI, 4, math.inf),
                                      (SymmetryClass.EVEN_PI, 4, 1.0, 0.0),
                                      (SymmetryClass.EVEN_PI, 5000, 1.0)])
    @pytest.mark.parametrize("solve", [char_value, char_values, fourier_solution])
    def test_argument_checks_run_before_any_eigensolve(self, eigensolves, solve, args):
        with pytest.raises(ValueError):
            solve(*args)
        assert eigensolves == []

    @pytest.mark.parametrize("solve", [char_value, char_values, fourier_solution])
    def test_order_beyond_truncation_cap_is_a_usage_error(self, solve):
        with pytest.raises(ValueError, match="a5000 is beyond the truncation cap: "
                                             "rank 2500 >= MAX_TRUNCATION // 2 = 2048"):
            solve(SymmetryClass.EVEN_PI, 5000, 1.0)

    def test_highest_order_within_truncation_cap(self, monkeypatch):
        # With a cap of 64, rank 31 (a62) is the last below MAX_TRUNCATION // 2,
        # and at q = 0 it is exactly 62^2.
        monkeypatch.setattr(mathieu_mod, "MAX_TRUNCATION", 64)
        assert char_value(SymmetryClass.EVEN_PI, 62, 0.0).value == 62.0**2
        with pytest.raises(ValueError, match="a64 is beyond the truncation cap"):
            char_value(SymmetryClass.EVEN_PI, 64, 0.0)

    def test_certificate_failure_names_bound_and_truncation(self, monkeypatch):
        # a0 at q = 400 needs far more than 16 rows: q * |v_last| is large.
        monkeypatch.setattr(mathieu_mod, "MAX_TRUNCATION", 16)
        with pytest.raises(ConvergenceError, match=r"a0\(q=400.0\) is not certified to "
                                                   r"1e-12: its residual bound is \S+ at "
                                                   r"truncation 16 \(cap 16\)"):
            char_value(SymmetryClass.EVEN_PI, 0, 400.0)

    @pytest.mark.parametrize("q", [1e154, 1e300])
    def test_lapack_failure_is_a_convergence_error(self, q):
        # LAPACK's bisection fails on entries this large; its LinAlgError is a
        # ValueError, which the CLI would report as a usage error.
        with pytest.raises(ConvergenceError, match=r"eigensolve at truncation 4096 failed: "
                                                   r".*LAPACK info="):
            char_value(SymmetryClass.EVEN_PI, 0, q)

    @pytest.mark.parametrize("q", [1e149, 1e150, 1e153])
    @pytest.mark.parametrize("symmetry", ALL)
    def test_non_finite_eigenvectors_are_a_convergence_error(self, symmetry, q):
        # LAPACK returns finite values but nan eigenvectors here; the residual
        # bound made from them used to read "nan".
        with pytest.raises(ConvergenceError, match=r"^the eigensolve at truncation 4096 "
                                                   r"returned non-finite eigenvectors$"):
            char_value(symmetry, symmetry.first_order, q)

    @pytest.mark.parametrize("solve", [char_value, fourier_solution])
    def test_overflowed_recurrence_is_a_convergence_error(self, solve):
        # sqrt(2) * q, even/pi's first off-diagonal entry, is inf past ~1.27e308;
        # scipy's "array must not contain infs or NaNs" read as a usage error.
        with pytest.raises(ConvergenceError, match=r"^the recurrence at truncation 4096 "
                                                   r"overflows to inf$"):
            solve(SymmetryClass.EVEN_PI, 0, 1.7e308)

    @pytest.mark.parametrize("solve", [char_value, fourier_solution])
    @pytest.mark.parametrize("symmetry", ALL)
    def test_one_eigensolve_per_value(self, eigensolves, solve, symmetry):
        for m in orders_of(symmetry, 12):
            for q in (0.0, 0.5, 20.0, 218.0):
                eigensolves.clear()
                result = solve(symmetry, m, q)
                assert eigensolves == [result.truncation], (m, q)

    def test_large_value_within_rounding(self):
        # |a| ~ 2e6: an absolute 1e-12 is below one ulp, so the certificate
        # allows tol plus 4 ulps of the value.
        cv = char_value(SymmetryClass.EVEN_PI, 0, 1e6)
        assert cv.truncation == rows_rule(0, 1e6) == 1016
        assert cv.value == pytest.approx(-1998000.25003, abs=1e-5)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-150.0, 4.0))
    def test_a0_negative_below_two_row_bound(self, exponent):
        # The paper's headline: a quadrupole of any strength binds, as a0(q) < 0
        # for every q > 0.  The lowest eigenvalue of the 2x2 truncation,
        # 2 - sqrt(4 + 2q^2), bounds a0 from above (min-max).
        q = 10.0**exponent
        value = char_value(SymmetryClass.EVEN_PI, 0, q).value
        bound = -2.0 * q * q / (2.0 + math.sqrt(4.0 + 2.0 * q * q))
        assert value < 0.0
        assert value <= bound + 4.0 * EPS * abs(bound) + 2.0 * mathieu_mod._EIG_ABSTOL


class TestAgainstDoublingLoop:
    """The certified solve, at the rows of its rule, returns the loop's answer
    within tol plus 4 ulps."""

    @pytest.mark.parametrize("q", [0.0, 0.5, 20.0, 218.0, 2000.0])
    @pytest.mark.parametrize("symmetry", ALL)
    def test_values_within_certificate(self, symmetry, q):
        for rank in range(13):
            m = symmetry.order_at(rank)
            (reference,), _ = doubling_loop(symmetry, (rank, rank), q)
            cv = char_value(symmetry, m, q)
            sol = fourier_solution(symmetry, m, q)
            assert cv.truncation == sol.truncation == rows_rule(rank, q), m
            assert cv.value == sol.value, m
            assert within_certificate(cv.value, reference), m
        reference, _ = doubling_loop(symmetry, (0, 12), q)
        values = char_values(symmetry, symmetry.order_at(12), q)
        assert all(within_certificate(cv.value, ref) for cv, ref in zip(values, reference))
        assert {cv.truncation for cv in values} == {rows_rule(12, q)}


class TestRowsRule:
    """Each value is certified at rank + 16 + ceil(sqrt(q)) rows, plus 2 per digit
    of tol below 1e-12, over ranks to the cap and q from 0 to 1e7; the rows were
    chosen from a sweep of such points whose smallest margin was 5 rows."""

    RANKS = [0, 1, 5, 12, 50, 300, 2047]
    QS = [0.0, 1e-8, 1e-3, 1.0, 30.0, 100.0, 1e3, 1e5, 1e7]

    @staticmethod
    def check(symmetry, rank, q, tol):
        sol = fourier_solution(symmetry, symmetry.order_at(rank), q, tol)  # certified
        assert sol.truncation == rows_rule(rank, q, tol)
        again = value_at_truncation(symmetry, q, 2 * sol.truncation, rank)
        assert within_certificate(sol.value, again, tol)  # the same rank at twice the rows
        coeffs = np.abs(sol.coefficients)
        assert coeffs[-1] <= TAIL_TOL * coeffs.max()

    @pytest.mark.parametrize("tol", [1e-12, 1e-20])
    @pytest.mark.parametrize("symmetry", ALL)
    def test_grid(self, symmetry, tol):
        for rank in self.RANKS:
            for q in self.QS:
                self.check(symmetry, rank, q, tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-30])
    @pytest.mark.parametrize("symmetry", ALL)
    def test_zero_crossings(self, symmetry, tol):
        # At a ~ 0 the 4-ulp allowance vanishes and tol alone is the bound.
        orders = (symmetry.order_at(1), symmetry.order_at(39))
        crossings = mathieu_mod._crossings(symmetry, orders, DEFAULT_TOL)
        for rank in (60, 300, 700):
            crossings.append(mathieu_mod._crossings(symmetry, (symmetry.order_at(rank),) * 2,
                                                    DEFAULT_TOL)[0])
        for rank, (q_c, _) in zip([*range(1, 40), 60, 300, 700], crossings):
            self.check(symmetry, rank, q_c, tol)

    @pytest.mark.parametrize("q", [0.0, 1e-3, 1.0, 1e3])
    def test_smallest_tol_returns_or_raises_convergence_error(self, q):
        # 1e-12 / 5e-324 overflows to inf; the rule takes the logs apart.
        try:
            cv = char_value(SymmetryClass.EVEN_PI, 0, q, tol=5e-324)
        except ConvergenceError:
            return
        assert cv.truncation == rows_rule(0, q, 5e-324)


class TestCharValues:
    @pytest.mark.parametrize("q", [0.0, 0.5, 20.0, 218.0, 2000.0])
    @pytest.mark.parametrize("top", ["first", 12])
    @pytest.mark.parametrize("symmetry", ALL)
    def test_matches_char_value_and_doubling(self, symmetry, top, q):
        max_order = symmetry.first_order if top == "first" else top
        values = char_values(symmetry, max_order, q)
        assert [cv.order for cv in values] == orders_of(symmetry, max_order)
        for rank, cv in enumerate(values):
            assert cv.symmetry is symmetry and cv.q == q
            assert abs(cv.value - char_value(symmetry, cv.order, q).value) < DEFAULT_TOL
            again = value_at_truncation(symmetry, q, 2 * cv.truncation, rank)
            assert abs(cv.value - again) < 1e-12

    def test_empty_below_first_order(self):
        assert char_values(SymmetryClass.ODD_PI, 1, 1.0) == []

    @pytest.mark.parametrize("q,tol,message", [
        (-1.0, DEFAULT_TOL, "q must be >= 0"),
        (math.nan, DEFAULT_TOL, "q must be finite"),
        (1.0, 0.0, "tol must be positive and finite"),
    ])
    def test_empty_family_checks_arguments_without_an_eigensolve(self, eigensolves,
                                                                 q, tol, message):
        assert char_values(SymmetryClass.ODD_PI, 1, 1.0) == []
        with pytest.raises(ValueError, match=message):
            char_values(SymmetryClass.ODD_PI, 1, q, tol)
        assert eigensolves == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            char_values(SymmetryClass.EVEN_PI, 4, -1.0)
        with pytest.raises(ValueError):
            char_values(SymmetryClass.EVEN_PI, 4, 1.0, tol=0.0)

    @pytest.mark.parametrize("bad", [5.0, np.float64(4.0), True, "5"])
    def test_non_int_max_order_raises_naming_it(self, eigensolves, bad):
        # 5.0 was reported as "an order must be an int, got 4.0", a derived order,
        # and True was max_order 1.
        named = f"^max_order must be an int, got {re.escape(repr(bad))}$"
        for symmetry in ALL:
            with pytest.raises(ValueError, match=named):
                char_values(symmetry, bad, 1.0)
        assert eigensolves == []


class TestFourierSolution:
    def test_free_rotor_even_constant(self):
        sol = fourier_solution(SymmetryClass.EVEN_PI, 0, 0.0)
        nonzero = np.abs(sol.coefficients) > 1e-14
        assert np.count_nonzero(nonzero) == 1
        assert sol.coefficients[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_free_rotor_sine(self):
        sol = fourier_solution(SymmetryClass.ODD_2PI, 1, 0.0)
        nonzero = np.abs(sol.coefficients) > 1e-14
        assert np.count_nonzero(nonzero) == 1
        assert sol.coefficients[0] == pytest.approx(1.0, abs=1e-14)

    def test_free_rotor_higher_harmonic(self):
        sol = fourier_solution(SymmetryClass.EVEN_PI, 4, 0.0)
        assert sol.harmonics()[np.argmax(np.abs(sol.coefficients))] == 4

    SAMPLES = [
        (SymmetryClass.EVEN_PI, 0, 1.0),
        (SymmetryClass.EVEN_PI, 4, 5.0),
        (SymmetryClass.EVEN_2PI, 1, 2.0),
        (SymmetryClass.ODD_2PI, 1, 0.5),
        (SymmetryClass.ODD_2PI, 3, 5.0),
        (SymmetryClass.ODD_PI, 2, 20.0),
    ]

    @pytest.mark.parametrize("symmetry,m,q", SAMPLES)
    def test_norm_is_pi_by_quadrature(self, symmetry, m, q):
        # The Fourier form is a trig polynomial, so the uniform trapezoid
        # rule over a full period is spectrally exact.
        sol = fourier_solution(symmetry, m, q)
        theta = np.linspace(0.0, 2.0 * math.pi, 8193)
        values = eval_theta(sol, theta)
        assert np.trapezoid(values * values, theta) == pytest.approx(math.pi, abs=1e-10)

    @pytest.mark.parametrize("symmetry,m,q", SAMPLES)
    def test_sign_and_tail_invariants(self, symmetry, m, q):
        sol = fourier_solution(symmetry, m, q)
        coeffs = sol.coefficients
        peak = np.max(np.abs(coeffs))
        leading = np.nonzero(np.abs(coeffs) > 1e-12 * peak)[0][0]
        assert coeffs[leading] > 0
        assert abs(coeffs[-1]) < 1e-10 * peak

    @pytest.mark.parametrize("symmetry,m,q", SAMPLES + [(SymmetryClass.EVEN_2PI, 7, 40.0)])
    def test_is_the_characteristic_value_of_its_eigenpair(self, symmetry, m, q):
        sol, point = fourier_solution(symmetry, m, q), char_value(symmetry, m, q)
        assert isinstance(sol, CharacteristicValue)
        assert (sol.label, sol.q, sol.value, sol.truncation) == (
            point.label, point.q, point.value, point.truncation)

    def test_tail_strictly_decreasing(self):
        # Decay holds down to the inverse-iteration noise floor of the
        # eigenvector (~1e-60 relative); below that the entries are noise.
        sol = fourier_solution(SymmetryClass.EVEN_PI, 0, 1.0)
        tail = np.abs(sol.coefficients)
        meaningful = tail > 1e-50 * tail.max()
        last = np.nonzero(meaningful)[0][-1]
        assert last >= 4
        assert np.all(np.diff(tail[1 : last + 1]) < 0)

    @pytest.mark.parametrize("symmetry,m,q", SAMPLES)
    def test_residual_at_64_points(self, symmetry, m, q):
        sol = fourier_solution(symmetry, m, q)
        theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        assert np.max(equation_residual(sol, theta)) < 1e-8

    @pytest.mark.parametrize("q", [1.0, 5.0])
    @pytest.mark.parametrize("symmetry", ALL)
    def test_orthogonality_within_family(self, symmetry, q):
        orders = orders_of(symmetry, symmetry.first_order + 4)
        theta = np.linspace(0.0, 2.0 * math.pi, 8193)
        funcs = [eval_theta(fourier_solution(symmetry, m, q), theta) for m in orders]
        for i in range(len(funcs)):
            for j in range(i + 1, len(funcs)):
                assert abs(np.trapezoid(funcs[i] * funcs[j], theta)) < 1e-8

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            fourier_solution(SymmetryClass.ODD_PI, 1, 1.0)

    def test_tail_above_its_limit_is_a_convergence_error(self, monkeypatch):
        # With a limit of 0, any nonzero last coefficient is above it.
        monkeypatch.setattr(mathieu_mod, "TAIL_TOL", 0.0)
        with pytest.raises(ConvergenceError, match=r"a0\(q=1.0\) fall only to \S+ of the "
                                                   r"largest within truncation 17, not to 0.0"):
            fourier_solution(SymmetryClass.EVEN_PI, 0, 1.0)


class TestEvalTheta:
    def test_constant_mode(self):
        sol = fourier_solution(SymmetryClass.EVEN_PI, 0, 0.0)
        values = eval_theta(sol, np.linspace(0, 7, 11))
        assert np.allclose(values, values[0], rtol=0, atol=0)

    def test_odd_solution_vanishes_at_origin(self):
        for symmetry in (SymmetryClass.ODD_2PI, SymmetryClass.ODD_PI):
            sol = fourier_solution(symmetry, symmetry.first_order, 3.0)
            assert eval_theta(sol, 0.0) == 0.0

    def test_scalar_and_array_shapes(self):
        sol = fourier_solution(SymmetryClass.EVEN_2PI, 1, 1.0)
        assert isinstance(eval_theta(sol, 0.3), float)
        assert eval_theta(sol, np.zeros((2, 3))).shape == (2, 3)
        assert isinstance(equation_residual(sol, 0.3), float)
        assert equation_residual(sol, np.zeros((2, 3))).shape == (2, 3)

    def test_periodicity(self):
        sol = fourier_solution(SymmetryClass.EVEN_PI, 2, 4.0)
        theta = np.linspace(0.0, 2.0 * math.pi, 17)
        np.testing.assert_allclose(
            eval_theta(sol, theta + 2.0 * math.pi), eval_theta(sol, theta),
            rtol=0, atol=1e-10,
        )

    def test_matches_direct_ode_integration(self):
        # Independent check: start the Mathieu ODE from the Fourier values
        # at 0 and integrate to pi/4.
        sol = fourier_solution(SymmetryClass.EVEN_PI, 0, 1.0)

        def rhs(x, y):
            return (y[1], (2.0 * sol.q * math.cos(2.0 * x) - sol.value) * y[0])

        ivp = solve_ivp(
            rhs, (0.0, math.pi / 4.0), (eval_theta(sol, 0.0), 0.0),
            method="DOP853", rtol=1e-12, atol=1e-12,
        )
        assert ivp.success
        assert eval_theta(sol, math.pi / 4.0) == pytest.approx(ivp.y[0, -1], abs=1e-8)


class TestNegativeQ:
    def test_partner_mapping(self):
        assert negative_q_partner(SymmetryClass.EVEN_PI, 2) == (SymmetryClass.EVEN_PI, 2)
        assert negative_q_partner(SymmetryClass.ODD_PI, 4) == (SymmetryClass.ODD_PI, 4)
        assert negative_q_partner(SymmetryClass.EVEN_2PI, 3) == (SymmetryClass.ODD_2PI, 3)
        assert negative_q_partner(SymmetryClass.ODD_2PI, 1) == (SymmetryClass.EVEN_2PI, 1)

    def test_partner_validates_order(self):
        with pytest.raises(ValueError):
            negative_q_partner(SymmetryClass.ODD_2PI, 0)

    @pytest.mark.parametrize("q", [0.7, 3.3])
    @pytest.mark.parametrize("symmetry", ALL)
    def test_reflection_identities(self, symmetry, q):
        # Assemble the raw recurrence matrix at -q (bypassing the public
        # q >= 0 validation) and compare its spectrum with the partner
        # family at +q.
        partner, _ = negative_q_partner(symmetry, symmetry.first_order)
        n = 24
        d_neg, e_neg = _bands(symmetry, -q, n)
        d_pos, e_pos = _bands(partner, q, n)
        w_neg = np.linalg.eigvalsh(np.diag(d_neg) + np.diag(e_neg, 1) + np.diag(e_neg, -1))
        w_pos = np.linalg.eigvalsh(np.diag(d_pos) + np.diag(e_pos, 1) + np.diag(e_pos, -1))
        np.testing.assert_allclose(w_neg[:8], w_pos[:8], rtol=0, atol=1e-10)
