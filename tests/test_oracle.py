"""Tests for the quarter-period shooting oracle."""

import math

import numpy as np
import pytest

from quadspec import (
    BracketError,
    SymmetryClass,
    char_value,
    oracle_char_value,
    shooting_defect,
)
from quadspec import oracle as oracle_mod

ALL = list(SymmetryClass)


class TestTrivialPoints:
    @pytest.mark.parametrize(
        "symmetry,m,expected",
        [
            (SymmetryClass.EVEN_PI, 0, 0.0),
            (SymmetryClass.EVEN_2PI, 1, 1.0),
            (SymmetryClass.ODD_2PI, 1, 1.0),
            (SymmetryClass.ODD_PI, 2, 4.0),
        ],
    )
    def test_free_rotor(self, symmetry, m, expected):
        assert oracle_char_value(symmetry, m, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_critical_point_b1(self):
        value = oracle_char_value(SymmetryClass.ODD_2PI, 1, 0.9080463336)
        assert abs(value) < 1e-8


class TestAgreementWithRecurrence:
    @pytest.mark.parametrize("q", [0.0, 0.5, 2.0, 10.0])
    def test_low_orders(self, q):
        for symmetry in ALL:
            for m in range(symmetry.first_order, 5, 2):
                mine = char_value(symmetry, m, q).value
                ref = oracle_char_value(symmetry, m, q)
                assert abs(mine - ref) < 1e-9, (symmetry, m, q)


class TestDefect:
    def test_result_fields(self):
        result = shooting_defect(SymmetryClass.EVEN_PI, a=0.5, q=1.0)
        assert result.a == 0.5
        assert result.step_count > 0
        assert isinstance(result.mismatch, float)

    def test_continuity_in_a(self):
        # The defect is smooth in a; a 1e-6 nudge moves it by O(1e-6).
        q = 2.0
        for symmetry in ALL:
            for a in np.linspace(-2.0, 12.0, 15):
                f0 = shooting_defect(symmetry, a, q, rtol=1e-10, atol=1e-12).mismatch
                f1 = shooting_defect(symmetry, a + 1e-6, q, rtol=1e-10, atol=1e-12).mismatch
                assert abs(f1 - f0) < 1e-3 * (1.0 + abs(f0))

    @pytest.mark.parametrize(
        "symmetry,m,q",
        [
            (SymmetryClass.EVEN_PI, 4, 2.0),
            (SymmetryClass.EVEN_2PI, 3, 1.0),
            (SymmetryClass.ODD_2PI, 3, 5.0),
            (SymmetryClass.ODD_PI, 4, 2.0),
        ],
    )
    def test_spectrum_completeness_window(self, symmetry, m, q):
        # A family holds every other order, so the window [-2q, (m+2)^2+2q]
        # must contain all its eigenvalues up to order m and hence at least
        # rank+1 defect sign changes -- the number the oracle scans for.
        rank = symmetry.rank_of(m)
        lo, hi = -2.0 * q, (m + 2) ** 2 + 2.0 * q
        grid = np.arange(lo, hi + 0.25, 0.25)
        signs = [
            shooting_defect(symmetry, a, q, rtol=1e-6, atol=1e-9).mismatch
            for a in grid
        ]
        crossings = sum(
            1 for f0, f1 in zip(signs, signs[1:]) if f0 == 0.0 or (f0 < 0) != (f1 < 0)
        )
        assert crossings >= rank + 1


class TestErrors:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            oracle_char_value(SymmetryClass.ODD_PI, 1, 1.0)
        with pytest.raises(ValueError):
            oracle_char_value(SymmetryClass.EVEN_PI, 0, -1.0)
        with pytest.raises(ValueError):
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0, tol=-1.0)
        # non-finite arguments are rejected before any integration
        for q in (math.inf, math.nan):
            with pytest.raises(ValueError, match="q must be finite"):
                oracle_char_value(SymmetryClass.EVEN_PI, 0, q)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0, tol=math.inf)

    def test_bracket_error_reports_window(self, monkeypatch):
        def never_crosses(symmetry, a, q, rtol=None, atol=None):
            return oracle_mod.ShootingResult(a, 1.0, 1)

        monkeypatch.setattr(oracle_mod, "shooting_defect", never_crosses)
        with pytest.raises(BracketError) as err:
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0)
        assert "within" in str(err.value)
