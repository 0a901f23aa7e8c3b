"""Tests for the quarter-period shooting oracle."""

import bisect
import cmath
import csv
import dataclasses
import gc
import io
import math
import re
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadspec import (
    DEFAULT_TOL,
    BracketError,
    IntegrationError,
    SymmetryClass,
    char_value,
    char_values,
    oracle_char_value,
)
from quadspec import cli as cli_mod
from quadspec import oracle as oracle_mod

ALL = list(SymmetryClass)
#: Every (family, order) with order <= 6.
LOW_ORDERS = [(symmetry, m) for symmetry in ALL for m in range(symmetry.first_order, 7, 2)]
#: Strengths of the window and refinement tests, 0.74070554 near a1's zero.
QS = [0.0, 0.74070554, 17.47, 40.0]
#: Magnus steps of the propagations these tests make themselves, where the
#: oracle stops most of its values.
STEPS = 512
#: q = 0 or log-uniform in [1e-12, 2000], where the steps and |d| are largest.
STRENGTHS = st.one_of(st.just(0.0), st.floats(-12.0, math.log10(2000.0)).map(
    lambda exponent: min(10.0**exponent, 2000.0)))


def defect(symmetry, a, q):
    """The defect at one a, from its own propagation."""
    return oracle_mod._grid_defects(symmetry, [a], q, STEPS)[0][0]


def count(symmetry, a, q):
    """The oscillation count at one a, from its own propagation."""
    return oracle_mod._grid_defects(symmetry, [a], q, STEPS)[1][0]


def never_crosses(symmetry, grid, q, steps):
    """Stand-in for _grid_defects: a positive defect and a zero count everywhere."""
    return [1.0] * len(grid), [0] * len(grid)


def centred_on(value):
    """Stand-in for oracle.char_value whose value is ``value``."""
    return lambda *args: SimpleNamespace(value=value)


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

    @pytest.mark.parametrize("q", [2.1179212374742805e-131, 1e-300, 5e-324])
    def test_root_at_the_window_centre(self, q):
        # a0 ~ -q^2/2 rounds to 0.0, so the window is centred on the root's
        # float, where the fit's coordinate is exactly 0.
        assert oracle_char_value(SymmetryClass.EVEN_PI, 0, q) == pytest.approx(0.0, abs=1e-10)

    def test_critical_point_b1(self):
        value = oracle_char_value(SymmetryClass.ODD_2PI, 1, 0.9080463336)
        assert abs(value) < 1e-8

    @pytest.mark.parametrize("q", [1e-6, 1e-5, 1e-4])
    def test_small_q_series(self, q):
        # DLMF 28.6.1: a_0 = -q^2/2 + 7q^4/128 - ..., far below the window's
        # width; the Chebyshev fit resolves it to ~1e-15, well under the
        # absolute 1e-12 tolerance.
        series = -q * q / 2.0 + 7.0 * q**4 / 128.0
        assert abs(oracle_char_value(SymmetryClass.EVEN_PI, 0, q) - series) < 1e-2 * abs(series)


class TestAgreementWithRecurrence:
    @pytest.mark.parametrize("q", [0.0, 0.5, 2.0, 10.0])
    def test_low_orders(self, q):
        for symmetry in ALL:
            for m in range(symmetry.first_order, 5, 2):
                mine = char_value(symmetry, m, q).value
                ref = oracle_char_value(symmetry, m, q)
                assert abs(mine - ref) < 1e-9, (symmetry, m, q)

    @pytest.mark.parametrize("symmetry,m", [
        (SymmetryClass.EVEN_PI, 80),
        (SymmetryClass.EVEN_2PI, 127),
        (SymmetryClass.ODD_PI, 126),
    ])
    def test_high_orders_at_q0(self, symmetry, m):
        # At q = 0 each Magnus step is exact, so only rounding separates the
        # oracle from m^2, even at the cap's order 127.
        assert abs(oracle_char_value(symmetry, m, 0.0) - char_value(symmetry, m, 0.0).value) < 1e-11

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.3])
    def test_a0_at_small_strengths(self, q):
        # The window's wavenumber is below 1 here, so a propagation counts at
        # its fewest blocks: one per 128-step chunk.
        value = oracle_char_value(SymmetryClass.EVEN_PI, 0, q)
        assert abs(value - char_value(SymmetryClass.EVEN_PI, 0, q).value) < 1e-13


def reference_exp_terms(d):
    """Reference for oracle._exp_terms: C = cosh sqrt(d) and S = sinh sqrt(d) / sqrt(d),
    or cos and sin of sqrt(-d) for d < 0, the closed form its series replaces."""
    r = np.sqrt(np.abs(d))
    c = np.where(d > 0.0, np.cosh(r), np.cos(r))
    with np.errstate(invalid="ignore"):  # sin(0) / 0, which np.where drops
        s = np.where(r > 0.0, np.where(d > 0.0, np.sinh(r), np.sin(r)) / r, 1.0)
    return c, s


class TestExpTerms:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-math.pi**2, 200.0), min_size=1, max_size=8))
    def test_matches_the_closed_form(self, ds):
        # Down to -pi^2, the least d a step under the block guard reaches, and up
        # to 200.  The closed form is itself ~5 ulps off at d = 200 (cosh of a
        # rounded sqrt), the series' squarings ~4 more; each d shares its
        # array's scaling.
        d = np.array(ds)
        for got, want in zip(oracle_mod._exp_terms(d), reference_exp_terms(d)):
            assert (np.abs(got - want) <= 16.0 * np.finfo(float).eps
                    * np.maximum(1.0, np.abs(want))).all(), (d, got, want)

    @pytest.mark.parametrize("ds", [[0.0], [0.0, 150.0, -9.0], [0.0, 1e-300, -0.02]])
    def test_zero_is_exact(self, ds):
        c, s = oracle_mod._exp_terms(np.array(ds))
        assert (c[0], s[0]) == (1.0, 1.0)


def free_defect(symmetry, a):
    """The defect at q = 0, where the trial solution is cos(hx) or sin(hx)/h with h^2 = a."""
    h = cmath.sqrt(a)
    return {
        SymmetryClass.EVEN_PI: -h * cmath.sin(h * math.pi / 2.0),
        SymmetryClass.EVEN_2PI: cmath.cos(h * math.pi / 2.0),
        SymmetryClass.ODD_2PI: cmath.cos(h * math.pi / 2.0),
        SymmetryClass.ODD_PI: cmath.sin(h * math.pi / 2.0) / h,
    }[symmetry].real


class TestDefect:
    @pytest.mark.parametrize("symmetry", ALL)
    def test_matches_the_free_solution_at_q0(self, symmetry):
        # At q = 0 the equation is y'' + a y = 0; a < 0 gives the cosh/sinh
        # solutions through the imaginary h.
        grid = [-3.0, -0.5, 0.3, 2.7, 11.1, 30.2]
        f, _ = oracle_mod._grid_defects(symmetry, grid, 0.0, STEPS)
        for a, f_a in zip(grid, f):
            assert f_a == pytest.approx(free_defect(symmetry, a), rel=1e-9, abs=1e-10), a

    def test_batch_matches_one_point_at_a_time(self):
        # One propagation of the whole grid gives each a's own defect: the
        # trial solutions share only the steps.
        grid = [-3.0, 0.3, 2.7, 11.1]
        for symmetry in ALL:
            batch, _ = oracle_mod._grid_defects(symmetry, grid, 17.47, STEPS)
            assert len(batch) == len(grid)
            for a, f_a in zip(grid, batch):
                alone = defect(symmetry, a, 17.47)
                assert f_a == pytest.approx(alone, rel=1e-8, abs=1e-10), (symmetry, a)

    def test_one_block_per_chunk(self):
        # About a0(0.1) the wavenumber is below 1, so 128 steps count at one
        # block and 512 at four, one for each 128-step chunk: both propagate
        # every point to a finite end and count alike.
        mid = char_value(SymmetryClass.EVEN_PI, 0, 0.1).value
        grid = mid + oracle_mod.WINDOW * np.polynomial.chebyshev.chebpts2(oracle_mod.CHEB_POINTS)
        coarse, coarse_counts = oracle_mod._grid_defects(SymmetryClass.EVEN_PI, grid, 0.1, 128)
        f, counts = oracle_mod._grid_defects(SymmetryClass.EVEN_PI, grid, 0.1, STEPS)
        assert len(f) == len(grid) and np.isfinite(f).all()
        assert f == pytest.approx(coarse, rel=1e-12, abs=1e-14)
        assert counts == coarse_counts == [0] * 8 + [1] * 8

    @pytest.mark.filterwarnings("error")
    def test_failed_integration_names_the_grid_and_family(self):
        # At a = -1e6 the trial solutions grow like e^(1000 x), past e^709 by
        # pi/2; the overflow is an IntegrationError under any warning filter.
        with pytest.raises(IntegrationError, match=r"a in \[-1000000\.0, 1\.75\], q=2\.0 "
                                                   r"\(odd-pi\) ends in a non-finite state"):
            oracle_mod._grid_defects(SymmetryClass.ODD_PI, [-1e6, 1.75], 2.0, STEPS)

    @pytest.mark.parametrize("q", QS)
    def test_positive_below_the_spectrum(self, q):
        # The refinement's sign rule rests on this: below a_0 or b_1 the
        # trial solution does not oscillate and the defect is positive.
        for symmetry in ALL:
            assert defect(symmetry, -2.0 * q - 1.0, q) > 0.0, symmetry

    def test_continuity_in_a(self):
        # The defect is smooth in a; a 1e-6 nudge moves it by O(1e-6).
        q = 2.0
        for symmetry in ALL:
            for a in np.linspace(-2.0, 12.0, 15):
                f0 = defect(symmetry, a, q)
                f1 = defect(symmetry, a + 1e-6, q)
                assert abs(f1 - f0) < 1e-3 * (1.0 + abs(f0))


def lambdas_and_counts(symmetry, rank, q):
    """Trial a midway between consecutive values of the family up to rank + 1,
    below the lowest and at rank's window ends, with the number of values below each."""
    values = [cv.value for cv in char_values(symmetry, symmetry.order_at(rank + 1), q)]
    centre = values[rank]
    lambdas = [-2.0 * q - 1.0] + [0.5 * (lo + hi) for lo, hi in zip(values, values[1:])]
    lambdas += [centre - oracle_mod.WINDOW, centre + oracle_mod.WINDOW]
    return lambdas, [bisect.bisect_left(values, a) for a in lambdas]


class TestOscillationCount:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(ALL), st.integers(0, 40), STRENGTHS)
    def test_counts_the_values_below(self, symmetry, rank, q):
        # N(a) is the number of the family's values below a, midway between
        # consecutive ones and at the window ends, for any family, rank <= 40
        # and q log-uniform in [1e-12, 2000] or 0.
        lambdas, expected = lambdas_and_counts(symmetry, rank, q)
        assert expected[-2:] == [rank, rank + 1]
        _, counts = oracle_mod._grid_defects(symmetry, sorted(lambdas), q, STEPS)
        assert counts == sorted(expected), (symmetry, rank, q)

    @pytest.mark.parametrize("symmetry,rank,q", [
        (SymmetryClass.EVEN_2PI, 7, 0.0),
        (SymmetryClass.EVEN_PI, 7, 15.001),
        (SymmetryClass.ODD_2PI, 31, 0.0),
        (SymmetryClass.ODD_PI, 30, 66.817),
    ])
    def test_wavenumber_just_past_a_power_of_two(self, symmetry, rank, q):
        # The blocks are the least power of two at or above the grid's largest
        # wavenumber sqrt(a + 2q), here just past 16 or 64: 32 or 128 blocks,
        # each within half the least spacing of zeros, still count exactly.
        lambdas, expected = lambdas_and_counts(symmetry, rank, q)
        wavenumber = math.sqrt(max(lambdas) + 2.0 * q)
        assert any(bound < wavenumber < 1.01 * bound for bound in (16.0, 64.0)), wavenumber
        _, counts = oracle_mod._grid_defects(symmetry, sorted(lambdas), q, STEPS)
        assert counts == sorted(expected)

    @pytest.mark.parametrize("symmetry", ALL)
    def test_batch_count_matches_each_point_alone(self, symmetry):
        lambdas, expected = lambdas_and_counts(symmetry, 5, 17.47)
        grid = sorted(lambdas)
        _, counts = oracle_mod._grid_defects(symmetry, grid, 17.47, STEPS)
        assert counts == [count(symmetry, a, 17.47) for a in grid] == sorted(expected)

    @pytest.mark.parametrize("symmetry", ALL)
    @pytest.mark.parametrize("q", QS)
    def test_window_ends_count_rank_and_one_more(self, symmetry, q):
        # About each order's recurrence value the window's ends count rank and
        # rank + 1, and the defect falls through zero from the sign (-1)**rank
        # the refinement checks, for every order m <= 6 of the family.
        for family, m in LOW_ORDERS:
            if family is symmetry:
                rank = symmetry.rank_of(m)
                mid = char_value(symmetry, m, q).value
                f, counts = oracle_mod._grid_defects(
                    symmetry, [mid - oracle_mod.WINDOW, mid + oracle_mod.WINDOW], q, STEPS)
                assert counts == [rank, rank + 1], (m, counts)
                sign = 1.0 if rank % 2 == 0 else -1.0
                assert sign * f[0] > 0.0 > sign * f[1], (m, f)

    @pytest.mark.parametrize("symmetry,m,q", [
        (SymmetryClass.EVEN_PI, 4, 2.0),
        (SymmetryClass.EVEN_2PI, 3, 1.0),
        (SymmetryClass.ODD_2PI, 3, 5.0),
        (SymmetryClass.ODD_PI, 4, 2.0),
        (SymmetryClass.EVEN_PI, 0, 2000.0),
        (SymmetryClass.ODD_PI, 40, 2000.0),
    ])
    def test_min_max_bound_behind_the_cap(self, symmetry, m, q):
        # a_m(q) <= m^2 + 2q, so the window's top a + 2q, the trial solutions'
        # squared wavenumber, is below m^2 + 4q + WINDOW, under the cap's bound.
        assert count(symmetry, m * m + 2.0 * q + oracle_mod.WINDOW, q) >= symmetry.rank_of(m) + 1

    def test_too_long_a_step_raises(self):
        # One block over [0, pi/2] at a = 4: zeros of cos(2x) lie pi/2 apart,
        # so a block of pi/2 could cross two and the count would be unproven.
        with pytest.raises(IntegrationError, match=r"a in \[4\.0, 4\.0\], q=0\.0 \(even-pi\) "
                                                   r"times sqrt\(a \+ 2q\) is 3\.14, not below pi"):
            oracle_mod._grid_defects(SymmetryClass.EVEN_PI, [4.0], 0.0, 1)

    def test_non_finite_end_state_raises(self, monkeypatch):
        # A window about a = -1e6, where the trial solutions overflow.
        monkeypatch.setattr(oracle_mod, "char_value", centred_on(-1e6))
        with pytest.raises(IntegrationError, match=r"ends in a non-finite state"):
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0)


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
        monkeypatch.setattr(oracle_mod, "_grid_defects", never_crosses)
        with pytest.raises(BracketError) as err:
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0)
        assert "within" in str(err.value)

    @pytest.mark.parametrize("symmetry,m,q,wavenumber", [
        (SymmetryClass.EVEN_PI, 0, 4096.0, "128.004"),
        (SymmetryClass.EVEN_2PI, 129, 0.0, "129.004"),
        (SymmetryClass.EVEN_PI, 0, 1e7, "6324.56"),
    ])
    def test_past_its_cap_is_refused_before_any_solve(self, monkeypatch, symmetry, m, q,
                                                      wavenumber):
        # sqrt(m^2 + 4q + 1) bounds the trial solutions' wavenumber on the
        # window, and the integration's steps grow with it; past 128 the oracle
        # refuses before any eigensolve or integration.
        def never(*args):
            raise AssertionError("the oracle solved past its cap")

        monkeypatch.setattr(oracle_mod, "_grid_defects", never)
        monkeypatch.setattr(oracle_mod, "char_value", never)
        with pytest.raises(ValueError, match=rf"order {m} at q={q} needs wavenumbers up to "
                                             rf"{wavenumber}, above its cap of 128"):
            oracle_char_value(symmetry, m, q)

    @pytest.mark.parametrize("symmetry,m,q", [
        (SymmetryClass.EVEN_PI, 0, 4095.75),
        (SymmetryClass.EVEN_2PI, 127, 0.0),
    ])
    def test_at_its_cap_runs(self, monkeypatch, symmetry, m, q):
        monkeypatch.setattr(oracle_mod, "_grid_defects", never_crosses)
        with pytest.raises(BracketError):  # admitted: the window's stubbed counts fail
            oracle_char_value(symmetry, m, q)


class TestNeverAgreement:
    # The window comes from char_value, the rank and the value from shooting,
    # so a wrong recurrence value shows as a discrepancy or a failed count.

    @pytest.mark.parametrize("shift", [-0.37, -0.3, 1e-6, 0.3, 0.37])
    def test_off_centre_window_gives_the_true_root(self, monkeypatch, shift):
        # A shift of 0.37 leaves the root 0.005 inside a window end.
        symmetry, m, q = SymmetryClass.EVEN_2PI, 3, 17.47
        expected = char_value(symmetry, m, q).value
        monkeypatch.setattr(oracle_mod, "char_value", centred_on(expected + shift))
        assert abs(oracle_char_value(symmetry, m, q) - expected) < 1e-9

    def test_discrepancy_shows_a_wrong_value(self, monkeypatch, capsys):
        # A recurrence value 1e-6 off moves the window, not the root, so the
        # CLI's discrepancy reads that 1e-6.
        real = char_value

        def shifted(*args):
            cv = real(*args)
            return dataclasses.replace(cv, value=cv.value + 1e-6)

        monkeypatch.setattr(cli_mod, "char_value", shifted)
        monkeypatch.setattr(oracle_mod, "char_value", shifted)
        assert cli_mod.main(["char", "--label", "a3", "--q", "17.47", "--oracle"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert float(row["discrepancy"]) == pytest.approx(1e-6, abs=1e-9)

    @pytest.mark.parametrize("neighbour,counts", [(0, "0 and 1"), (4, "2 and 3")])
    def test_window_on_a_neighbour_names_both_counts(self, monkeypatch, neighbour, counts):
        # A window about a0 or a4 holds that value, not a2's, and its counts say so.
        value = char_value(SymmetryClass.EVEN_PI, neighbour, 1.0).value
        monkeypatch.setattr(oracle_mod, "char_value", centred_on(value))
        window = re.escape(f"[{value - oracle_mod.WINDOW}, {value + oracle_mod.WINDOW}]")
        with pytest.raises(BracketError, match=rf"counts at the window's ends are {counts}, not "
                                               rf"1 and 2, in a within {window} for even-pi "
                                               r"order 2 at q=1\.0"):
            oracle_char_value(SymmetryClass.EVEN_PI, 2, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("symmetry,m,q", [
        (SymmetryClass.EVEN_PI, 0, 4095.75),
        (SymmetryClass.EVEN_2PI, 127, 0.0),
    ])
    def test_at_the_cap_no_warning_escapes(self, symmetry, m, q):
        # a0's trial solutions grow to ~e^129 through the forbidden region at
        # q = 4095.75, far from overflow (e^709).
        value = oracle_char_value(symmetry, m, q)
        assert abs(value - char_value(symmetry, m, q).value) < 1e-12 * abs(value)


def recording_fits(monkeypatch):
    """The coefficients of every Chebyshev fit the oracle makes, in order, as its
    root finder receives them."""
    real, fits = oracle_mod.chebroots, []

    def recording(coefficients):
        fits.append(coefficients)
        return real(coefficients)

    monkeypatch.setattr(oracle_mod, "chebroots", recording)
    return fits


def window_root(coefficients):
    """The one real root in [-1, 1] of a Chebyshev series."""
    (root,) = [r.real for r in np.polynomial.chebyshev.chebroots(coefficients)
               if r.imag == 0.0 and -1.0 <= r.real <= 1.0]
    return root


class TestRefinement:
    def test_steps_double_until_two_roots_agree(self, monkeypatch, integrations):
        # Each propagation batches the CHEB_POINTS trial solutions, its steps
        # doubling from 128; the value is the later root of the first two
        # successive ones that agree within DEFAULT_TOL * max(1, |a|).
        fits = recording_fits(monkeypatch)
        for q in QS:
            for symmetry, m in LOW_ORDERS:
                integrations.clear()
                fits.clear()
                value = oracle_char_value(symmetry, m, q)
                points, steps = zip(*integrations)
                assert set(points) == {oracle_mod.CHEB_POINTS}
                assert steps == tuple(128 << k for k in range(len(steps))), (symmetry, m, q)
                mid = char_value(symmetry, m, q).value
                roots = [mid + oracle_mod.WINDOW * window_root(fit) for fit in fits]
                assert len(roots) == len(steps) >= 2 and roots[-1] == value
                agree = [abs(later - earlier) <= DEFAULT_TOL * max(1.0, abs(later))
                         for earlier, later in zip(roots, roots[1:])]
                assert agree == [False] * (len(agree) - 1) + [True], (symmetry, m, q, roots)

    @pytest.mark.parametrize("symmetry", ALL)
    @pytest.mark.parametrize("q", QS)
    def test_chebyshev_points_resolve_the_window(self, monkeypatch, symmetry, q):
        # The last interpolant's last two coefficients are below 1e-12 of its
        # largest: CHEB_POINTS resolve the defect on the window to its
        # propagation noise, so the fit's root is the defect's.
        fits = recording_fits(monkeypatch)
        for family, m in LOW_ORDERS:
            if family is symmetry:
                fits.clear()
                oracle_char_value(symmetry, m, q)
                coefficients = np.abs(fits[-1])
                assert coefficients.size == oracle_mod.CHEB_POINTS
                assert coefficients[-2:].max() < 1e-12 * coefficients.max(), (m, coefficients)

    def test_fit_matrix_interpolates(self):
        # At the CHEB_POINTS Chebyshev points the degree CHEB_POINTS - 1 least
        # squares fit interpolates, so one fixed matrix gives its coefficients.
        x = np.polynomial.chebyshev.chebpts2(oracle_mod.CHEB_POINTS)
        rng = np.random.default_rng(0)
        for f in rng.standard_normal((100, oracle_mod.CHEB_POINTS)):
            fit = np.polynomial.chebyshev.chebfit(x, f, oracle_mod.CHEB_POINTS - 1)
            assert np.abs(oracle_mod._FIT @ f - fit).max() < 1e-13 * np.abs(fit).max()

    @pytest.mark.parametrize("m", [128, 200])
    def test_large_value_converges(self, monkeypatch, m):
        # Half an ulp of a = m^2 >= 16384 exceeds the default tol of 1e-12.
        # The cap refuses these orders at q = 0, so it is raised for them.
        monkeypatch.setattr(oracle_mod, "_MAX_WAVENUMBER", 256.0)
        assert oracle_char_value(SymmetryClass.EVEN_PI, m, 0.0) == pytest.approx(m * m, rel=1e-11)

    def test_failed_integration_names_the_window(self, monkeypatch):
        # a3(17.47) ~ 16.2, so the window is [15.826, 16.576]; its roots at 128
        # and 256 steps differ by more than 1.6e-11, and the cap stops there.
        monkeypatch.setattr(oracle_mod, "_MAX_STEPS", 256)
        with pytest.raises(IntegrationError, match=r"the roots at 128 and 256 steps, 16\.20057\d* "
                                                   r"and 16\.20057\d*, do not agree, in a within "
                                                   r"\[15\.8255\d*, 16\.5755\d*\] for even-2pi "
                                                   r"order 3 at q=17\.47"):
            oracle_char_value(SymmetryClass.EVEN_2PI, 3, 17.47)

    def test_window_without_a_sign_change_names_the_window(self, monkeypatch):
        # a0 ~ -0.455 and a2 ~ 4.37 at q = 1, so the defect keeps one sign on
        # the window [4.75, 5.5]; counts made to pass let the sign check fire.
        real = oracle_mod._grid_defects

        def counted_as_rank_0(symmetry, grid, q, steps):
            f, _ = real(symmetry, grid, q, steps)
            return f, [0] * (len(grid) - 1) + [1]

        monkeypatch.setattr(oracle_mod, "char_value", centred_on(5.125))
        monkeypatch.setattr(oracle_mod, "_grid_defects", counted_as_rank_0)
        with pytest.raises(BracketError, match=r"does not change sign .* within \[4\.75, 5\.5\] "
                                               r"for even-pi order 0 at q=1\.0"):
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0)

    def test_fit_with_three_roots_names_the_window(self, monkeypatch):
        # A defect -x(x^2 - 1/4) in the window's coordinate x in [-1, 1] falls
        # through it, as rank 0 needs, but with three roots, not one.
        real = oracle_mod._grid_defects

        def three_roots(symmetry, grid, q, steps):
            _, counts = real(symmetry, grid, q, steps)
            x = (2.0 * np.asarray(grid) - grid[0] - grid[-1]) / (grid[-1] - grid[0])
            return (-x * (x * x - 0.25)).tolist(), counts

        monkeypatch.setattr(oracle_mod, "char_value", centred_on(-0.375))
        monkeypatch.setattr(oracle_mod, "_grid_defects", three_roots)
        with pytest.raises(BracketError, match=r"has 3 real roots, not one, in a within "
                                               r"\[-0\.75, 0\.0\] for even-pi order 0 at q=1\.0"):
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0)

    @pytest.mark.parametrize("tol", [1e-15, 1e-300])
    @pytest.mark.parametrize("symmetry,m,q", [
        (SymmetryClass.EVEN_PI, 0, 5.0),
        (SymmetryClass.EVEN_2PI, 3, 17.47),
        (SymmetryClass.ODD_PI, 6, 40.0),
    ])
    def test_tol_below_the_noise_floor(self, symmetry, m, q, tol):
        # The defect cannot resolve a to 1e-15, let alone 1e-300; the accuracy
        # is the stop rule's, the window is char_value's at the default tol,
        # and the last fit's root is returned.
        value = oracle_char_value(symmetry, m, q, tol=tol)
        assert abs(value - char_value(symmetry, m, q).value) < 1e-9


class TestNoSharedState:
    """Every call propagates its own arrays, so calls share nothing."""

    def test_no_grid_outlives_its_call(self):
        grid = np.linspace(-1.0, 1.0, oracle_mod.CHEB_POINTS)
        alive = weakref.ref(grid)
        oracle_mod._grid_defects(SymmetryClass.EVEN_PI, grid, 1.0, STEPS)
        del grid
        gc.collect()
        assert alive() is None

    def test_threads_get_the_sequential_values(self):
        # Two threads switching every 10 microseconds, inside the propagations
        # too, each get the values one thread gets alone.
        cases = [(symmetry, symmetry.first_order + 2 * rank, 17.47)
                 for symmetry in ALL for rank in range(9)]
        expected = [oracle_char_value(*case) for case in cases]
        results = [None] * 2

        def run(i):
            results[i] = [oracle_char_value(*case) for case in cases]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(results)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.tuples(st.sampled_from(LOW_ORDERS), st.floats(0.0, 40.0)),
        st.tuples(st.builds(lambda symmetry, rank: (symmetry, symmetry.order_at(rank)),
                            st.sampled_from(ALL), st.integers(0, 40)), STRENGTHS)))
    def test_oracle_agrees_with_recurrence(self, case):
        # Orders m <= 6 at q <= 40, as oracle_verify asks, or any family at rank
        # <= 40 and q = 0 or log-uniform in [1e-12, 2000].
        (symmetry, m), q = case
        assert abs(char_value(symmetry, m, q).value - oracle_char_value(symmetry, m, q)) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.floats(1e-6, 40.0))
    def test_ground_state_is_bound_at_every_strength(self, q):
        # a_0(q) < 0: one channel is open however weak the quadrupole.  The
        # Chebyshev fit resolves a_0 ~ -q^2/2 = -5e-13 at q = 1e-6 to ~1e-15,
        # well below the 1e-12 tolerance; the sign is right from q ~ 1e-7.
        assert oracle_char_value(SymmetryClass.EVEN_PI, 0, q) < 0.0
