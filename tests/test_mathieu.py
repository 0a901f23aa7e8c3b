"""Tests for the tridiagonal-recurrence Mathieu solver."""

import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import solve_ivp

from quadspec import (
    DEFAULT_TOL,
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
from quadspec.mathieu import _bands

ALL = list(SymmetryClass)


def orders_of(symmetry, max_order):
    return list(range(symmetry.first_order, max_order + 1, 2))


def value_at_truncation(symmetry, q, n, rank):
    """The rank-th eigenvalue of the order-n truncation, one eigensolve."""
    values, _ = mathieu_mod._eigensolve(symmetry, q, n, (rank, rank), False)
    return values[0]


class TestSymmetryClass:
    def test_exactly_four_families(self):
        assert len(ALL) == 4
        assert {(c.parity, c.period) for c in ALL} == {
            ("even", "pi"), ("even", "2pi"), ("odd", "2pi"), ("odd", "pi"),
        }

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

    def test_family_for_label_rejects_b0(self):
        with pytest.raises(ValueError):
            family_for_label("b", 0)


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
        assert cv.truncation >= 64
        assert cv.label == "a0"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            char_value(SymmetryClass.ODD_2PI, 0, 1.0)
        with pytest.raises(ValueError):
            char_value(SymmetryClass.EVEN_PI, 0, -1.0)
        with pytest.raises(ValueError):
            char_value(SymmetryClass.EVEN_PI, 0, 1.0, tol=0.0)

    def test_convergence_error_reports_last_two(self, monkeypatch):
        flip = {"sign": 1.0}

        def wobble(symmetry, q, n, ranks, want_vectors):
            flip["sign"] = -flip["sign"]
            return [flip["sign"]], None

        monkeypatch.setattr(mathieu_mod, "_eigensolve", wobble)
        with pytest.raises(ConvergenceError) as err:
            char_value(SymmetryClass.EVEN_PI, 0, 1.0)
        # The fake alternates -1, +1, ...; the cap is reached on a +1 step.
        assert err.value.last_two == (-1.0, 1.0)
        assert "last two iterates -1.0 and 1.0" in str(err.value)


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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            char_values(SymmetryClass.EVEN_PI, 4, -1.0)
        with pytest.raises(ValueError):
            char_values(SymmetryClass.EVEN_PI, 4, 1.0, tol=0.0)


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
