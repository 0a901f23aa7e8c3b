"""Tests for the quarter-period shooting oracle."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadspec import (
    BracketError,
    IntegrationError,
    SymmetryClass,
    char_value,
    oracle_char_value,
)
from quadspec import oracle as oracle_mod

ALL = list(SymmetryClass)
#: Every (family, order) with order <= 6.
LOW_ORDERS = [(symmetry, m) for symmetry in ALL for m in range(symmetry.first_order, 7, 2)]
#: Strengths of the scan and refinement tests, 0.74070554 near a1's zero.
SCAN_QS = [0.0, 0.74070554, 17.47, 40.0]


def defect(symmetry, a, q, rtol, atol):
    """The defect at one a, from its own integration with its own step control."""
    return oracle_mod._grid_defects(symmetry, [a], q, rtol, atol)[0]


def failed_integration(*args, **kwargs):
    """Stand-in for solve_ivp that reports a failure."""
    class Failed:
        success, message = False, "step size too small"
    return Failed()


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
    def test_root_on_a_grid_point(self, q):
        # a0 ~ -q^2/2 rounds to the grid point 0.0, where the fine defect
        # (~1e-138 at q ~ 2e-131) has the opposite sign of the coarse one.
        assert oracle_char_value(SymmetryClass.EVEN_PI, 0, q) == pytest.approx(0.0, abs=1e-10)

    def test_critical_point_b1(self):
        value = oracle_char_value(SymmetryClass.ODD_2PI, 1, 0.9080463336)
        assert abs(value) < 1e-8

    @pytest.mark.parametrize("q", [1e-6, 1e-5, 1e-4])
    def test_small_q_series(self, q):
        # DLMF 28.6.1: a_0 = -q^2/2 + 7q^4/128 - ..., far below the scan's
        # grid; the Chebyshev fit resolves it to ~1e-15, well under the
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
        f = oracle_mod._grid_defects(symmetry, grid, 0.0, oracle_mod.FINE_RTOL,
                                     oracle_mod._FINE_ATOL)
        for a, f_a in zip(grid, f):
            assert f_a == pytest.approx(free_defect(symmetry, a), rel=1e-9, abs=1e-10), a

    def test_batch_matches_one_point_at_a_time(self):
        # One integration of the whole grid gives each a's own defect: the
        # shared step control only tightens what each trial solution gets.
        grid = [-3.0, 0.3, 2.7, 11.1]
        for symmetry in ALL:
            batch = oracle_mod._grid_defects(symmetry, grid, 17.47, oracle_mod.FINE_RTOL,
                                             oracle_mod._FINE_ATOL)
            assert len(batch) == len(grid)
            for a, f_a in zip(grid, batch):
                alone = defect(symmetry, a, 17.47, oracle_mod.FINE_RTOL, oracle_mod._FINE_ATOL)
                assert f_a == pytest.approx(alone, rel=1e-8, abs=1e-10), (symmetry, a)

    def test_failed_integration_names_the_grid_and_family(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "solve_ivp", failed_integration)
        with pytest.raises(IntegrationError, match=r"a in \[1\.5, 1\.75\], q=2\.0 \(odd-pi\): "
                                                   r"step size too small"):
            oracle_mod._grid_defects(SymmetryClass.ODD_PI, [1.5, 1.75], 2.0)

    @pytest.mark.parametrize("q", SCAN_QS)
    def test_positive_below_the_spectrum(self, q):
        # The refinement's sign rule rests on this: below a_0 or b_1 the
        # trial solution does not oscillate and the defect is positive.
        for symmetry in ALL:
            f = defect(symmetry, -2.0 * q - 1.0, q, oracle_mod.FINE_RTOL, oracle_mod._FINE_ATOL)
            assert f > 0.0, symmetry

    def test_continuity_in_a(self):
        # The defect is smooth in a; a 1e-6 nudge moves it by O(1e-6).
        q = 2.0
        for symmetry in ALL:
            for a in np.linspace(-2.0, 12.0, 15):
                f0 = defect(symmetry, a, q, rtol=1e-10, atol=1e-12)
                f1 = defect(symmetry, a + 1e-6, q, rtol=1e-10, atol=1e-12)
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
        signs = [defect(symmetry, a, q, rtol=1e-6, atol=1e-9) for a in grid]
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
        def never_crosses(symmetry, grid, q):
            return [1.0] * len(grid)

        monkeypatch.setattr(oracle_mod, "_grid_defects", never_crosses)
        with pytest.raises(BracketError) as err:
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0)
        assert "within" in str(err.value)

    @pytest.mark.parametrize("symmetry,m,q,points", [
        (SymmetryClass.EVEN_PI, 0, 4094.0, 65540),
        (SymmetryClass.EVEN_2PI, 127, 0.0, 66584),
    ])
    def test_scan_past_its_cap_is_refused_before_any_grid(self, monkeypatch, symmetry, m, q,
                                                          points):
        # The grid has 4(m + 2)^2 + 16q + 20 points; past 2**16 of them the
        # one batched integration would need gigabytes, or never end once
        # lo + SCAN_STEP == lo.
        def never(symmetry, grid, q):
            raise AssertionError(f"a grid of {len(grid)} points was built")

        monkeypatch.setattr(oracle_mod, "_grid_defects", never)
        with pytest.raises(ValueError, match=rf"order {m} at q={q} needs {points} grid "
                                             r"points, above its cap of 65536"):
            oracle_char_value(symmetry, m, q)

    def test_scan_at_its_cap_runs(self, monkeypatch):
        def never_crosses(symmetry, grid, q):
            return [1.0] * len(grid)

        monkeypatch.setattr(oracle_mod, "_grid_defects", never_crosses)
        with pytest.raises(BracketError):  # 65,532 points: scanned, no sign change
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 4093.5)


#: Brackets of point_by_point_scan for each (family, q) of TestBatchedScan,
#: up to the top order <= 6; regenerate with ``python tests/test_oracle.py``.
SCAN_REFERENCE = Path(__file__).with_name("scan_brackets.json")


def point_by_point_scan(symmetry, q, rank, lo, hi):
    """The scan as one coarse integration per grid point, stopping at rank+1
    sign changes; a zero counts as non-negative."""
    step = oracle_mod.SCAN_STEP
    rtol, atol = oracle_mod._COARSE_RTOL, oracle_mod._COARSE_ATOL
    brackets = []
    x = lo
    f_prev = defect(symmetry, x, q, rtol, atol)
    while x <= hi and len(brackets) <= rank:
        x_next = x + step
        f_next = defect(symmetry, x_next, q, rtol, atol)
        if (f_prev < 0.0) != (f_next < 0.0):
            brackets.append((x, x_next))
        x, f_prev = x_next, f_next
    return brackets


def scan_windows(symmetry, q):
    """The scan's start and, per order m <= 6 of the family, (rank, window end)."""
    orders = [m for family, m in LOW_ORDERS if family is symmetry]
    return -2.0 * q - 1.0, [(symmetry.rank_of(m), float((m + 2) ** 2) + 2.0 * q + 4.0)
                            for m in orders]


def scan_key(symmetry, q):
    return f"{symmetry.name} {q!r}"


def write_scan_reference():
    """Run the point-by-point scan for every TestBatchedScan case and store it."""
    reference = {}
    for symmetry in ALL:
        for q in SCAN_QS:
            lo, windows = scan_windows(symmetry, q)
            top, top_hi = windows[-1]
            reference[scan_key(symmetry, q)] = point_by_point_scan(symmetry, q, top, lo, top_hi)
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in reference.items()]
    SCAN_REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


class TestBatchedScan:
    @pytest.mark.parametrize("symmetry", ALL)
    @pytest.mark.parametrize("q", SCAN_QS)
    def test_brackets_match_point_by_point_scan(self, symmetry, q):
        # A scan for the top rank is one for every lower rank run longer, so
        # one reference per (family, q) covers each order m <= 6 by its prefix.
        reference = json.loads(SCAN_REFERENCE.read_text(encoding="utf-8"))
        reference = [tuple(b) for b in reference[scan_key(symmetry, q)]]
        lo, windows = scan_windows(symmetry, q)
        assert len(reference) == windows[-1][0] + 1
        for rank, hi in windows:
            brackets = oracle_mod._scan_brackets(symmetry, q, rank, lo, hi)
            assert brackets == reference[:rank + 1]

    @pytest.mark.parametrize("symmetry", ALL)
    @pytest.mark.parametrize("q", SCAN_QS)
    def test_every_bracket_changes_sign(self, symmetry, q):
        # The coarse defects at a bracket's two ends have opposite signs.
        lo, windows = scan_windows(symmetry, q)
        rank, hi = windows[-1]
        brackets = oracle_mod._scan_brackets(symmetry, q, rank, lo, hi)
        assert len(brackets) == rank + 1
        for a_lo, a_hi in brackets:
            f_lo, f_hi = oracle_mod._grid_defects(symmetry, [a_lo, a_hi], q)
            assert (f_lo < 0.0) != (f_hi < 0.0), (a_lo, a_hi, f_lo, f_hi)

    def test_one_coarse_integration_per_value(self, integrations):
        for symmetry in ALL:
            for q in (0.0, 17.47, 40.0):
                integrations.clear()
                oracle_char_value(symmetry, symmetry.first_order + 4, q)
                rtols = [rtol for rtol, _ in integrations]
                assert rtols.count(oracle_mod._COARSE_RTOL) == 1, (symmetry, q)
                assert set(rtols) == {oracle_mod._COARSE_RTOL, oracle_mod.FINE_RTOL}

    def test_scan_keeps_only_the_end_state(self, integrations):
        oracle_char_value(SymmetryClass.EVEN_PI, 6, 40.0)
        shapes = [shape for rtol, shape in integrations if rtol == oracle_mod._COARSE_RTOL]
        assert len(shapes) == 1 and shapes[0][1] == 1, shapes

    def test_failed_integration_names_the_window(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "solve_ivp", failed_integration)
        with pytest.raises(IntegrationError, match=r"a in \[-3.0, .*q=1.0"):
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0)


class TestRefinement:
    def test_one_fine_integration_per_value(self, integrations):
        # The Chebyshev fit takes every refinement point from one batched
        # integration, so no value makes a second tight-tolerance one.
        for q in SCAN_QS:
            for symmetry, m in LOW_ORDERS:
                integrations.clear()
                oracle_char_value(symmetry, m, q)
                rtols = [rtol for rtol, _ in integrations]
                assert rtols.count(oracle_mod.FINE_RTOL) == 1, (symmetry, m, q, rtols)

    @pytest.mark.parametrize("symmetry", ALL)
    @pytest.mark.parametrize("q", SCAN_QS)
    def test_chebyshev_points_resolve_the_bracket(self, monkeypatch, symmetry, q):
        # The interpolant's last two coefficients are below 1e-12 of its
        # largest: CHEB_POINTS resolve the defect on the widened bracket to
        # its integration noise, so the fit's root is the defect's.
        real = oracle_mod.chebfit
        fits = []

        def recording(*args):
            fits.append(real(*args))
            return fits[-1]

        monkeypatch.setattr(oracle_mod, "chebfit", recording)
        for family, m in LOW_ORDERS:
            if family is symmetry:
                fits.clear()
                oracle_char_value(symmetry, m, q)
                coefficients = np.abs(fits[0])
                assert len(fits) == 1
                assert coefficients.size == oracle_mod.CHEB_POINTS
                assert coefficients[-2:].max() < 1e-12 * coefficients.max(), (m, coefficients)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_root_beyond_a_coarse_bracket_end(self, monkeypatch, shift):
        # A coarse defect with the wrong sign at the grid point next to the
        # root moves the scan's sign change one grid point early or late,
        # so the true root lies outside the scan's bracket.
        symmetry, m, q = SymmetryClass.EVEN_2PI, 3, 17.47
        rank = symmetry.rank_of(m)
        real_grid, real_scan = oracle_mod._grid_defects, oracle_mod._scan_brackets
        brackets = []

        def shifted(symmetry, grid, q, rtol=oracle_mod._COARSE_RTOL,
                    atol=oracle_mod._COARSE_ATOL):
            f = real_grid(symmetry, grid, q, rtol, atol)
            if rtol != oracle_mod._COARSE_RTOL:  # the fine stage is left as it is
                return f
            i = [j for j in range(len(f) - 1) if (f[j] < 0.0) != (f[j + 1] < 0.0)][rank]
            if shift < 0:
                f[i] = f[i + 1]
            else:
                f[i + 1] = f[i]
            return f

        def recording_scan(*args):
            brackets.extend(real_scan(*args))
            return brackets

        monkeypatch.setattr(oracle_mod, "_grid_defects", shifted)
        monkeypatch.setattr(oracle_mod, "_scan_brackets", recording_scan)
        value = oracle_char_value(symmetry, m, q)
        expected = char_value(symmetry, m, q).value
        a_lo, a_hi = brackets[rank]
        assert not a_lo < expected < a_hi
        assert abs(value - expected) < 1e-9

    @pytest.mark.parametrize("m", [128, 200])
    def test_large_value_converges(self, monkeypatch, m):
        # Half an ulp of a = m^2 >= 16384 exceeds the default tol of 1e-12.
        # The scan would integrate ~10^5 grid points here, so its bracket is
        # given: the root m^2 at q = 0 sits on a grid point, where the sign
        # change starts.
        def grid_point_bracket(symmetry, q, rank, lo, hi):
            return [(m * m, m * m + oracle_mod.SCAN_STEP)] * (rank + 1)

        monkeypatch.setattr(oracle_mod, "_scan_brackets", grid_point_bracket)
        assert oracle_char_value(SymmetryClass.EVEN_PI, m, 0.0) == pytest.approx(m * m, rel=1e-11)

    def test_bracket_without_a_sign_change_names_the_window(self, monkeypatch):
        # a0 ~ -0.455 and a2 ~ 4.37 at q = 1, so the defect keeps one sign on
        # the widened bracket [4.75, 5.5]; the fit would have no root there.
        def far_from_any_root(symmetry, q, rank, lo, hi):
            return [(5.0, 5.25)] * (rank + 1)

        monkeypatch.setattr(oracle_mod, "_scan_brackets", far_from_any_root)
        with pytest.raises(BracketError, match=r"does not change sign .* within \[4\.75, 5\.5\] "
                                               r"for even-pi order 0 at q=1\.0"):
            oracle_char_value(SymmetryClass.EVEN_PI, 0, 1.0)

    def test_fit_with_three_roots_names_the_window(self, monkeypatch):
        # A fine defect -x(x^2 - 1/4) in the bracket's coordinate x in [-1, 1]
        # falls through it, as rank 0 needs, but with three roots, not one.
        real_grid = oracle_mod._grid_defects

        def three_roots(symmetry, grid, q, rtol=oracle_mod._COARSE_RTOL,
                        atol=oracle_mod._COARSE_ATOL):
            if rtol == oracle_mod._COARSE_RTOL:
                return real_grid(symmetry, grid, q, rtol, atol)
            x = (2.0 * np.asarray(grid) - grid[0] - grid[-1]) / (grid[-1] - grid[0])
            return (-x * (x * x - 0.25)).tolist()

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
        # The fine defect cannot resolve a to 1e-15, let alone 1e-300; the
        # accuracy is FINE_RTOL's, and the fit's root is returned.
        value = oracle_char_value(symmetry, m, q, tol=tol)
        assert abs(value - char_value(symmetry, m, q).value) < 1e-9


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(LOW_ORDERS), st.floats(0.0, 40.0))
    def test_oracle_agrees_with_recurrence(self, mode, q):
        symmetry, m = mode
        assert abs(char_value(symmetry, m, q).value - oracle_char_value(symmetry, m, q)) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.floats(1e-6, 40.0))
    def test_ground_state_is_bound_at_every_strength(self, q):
        # a_0(q) < 0: one channel is open however weak the quadrupole.  The
        # Chebyshev fit resolves a_0 ~ -q^2/2 = -5e-13 at q = 1e-6 to ~1e-15,
        # well below the 1e-12 tolerance; the sign is right from q ~ 1e-7.
        assert oracle_char_value(SymmetryClass.EVEN_PI, 0, q) < 0.0


if __name__ == "__main__":
    write_scan_reference()
