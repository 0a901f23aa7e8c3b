"""Tests for critical-strength location and the pairing gap."""

import math
import re
import time

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from quadspec import (
    ConvergenceError,
    PairingGap,
    SymmetryClass,
    char_value,
    critical_table,
    family_for_label,
    find_critical,
    log_gap,
    oracle_char_value,
    pairing_gap,
    parse_label,
)
from quadspec import criticality as criticality_mod
from quadspec import mathieu as mathieu_mod


def doubling_crossing(symmetry, m, tol=1e-12):
    """Reference: the truncation-doubling loop the certified crossing replaced.

    Each iterate is -1/mu for one eigenvalue mu of D^-1/2 M D^-1/2, built as
    in mathieu._crossing, from eigenvalues only."""
    rank = symmetry.rank_of(m)
    skip = 2 if symmetry is SymmetryClass.EVEN_PI else 0

    def crossing(n):
        square, _ = mathieu_mod._bands(symmetry, 0.0, n + skip)
        diag, off = mathieu_mod._bands(symmetry, 1.0, n + skip)
        scale = 1.0 / np.sqrt(square[skip:])
        k = rank - skip // 2
        mu = eigh_tridiagonal((diag - square)[skip:] * scale**2,
                              off[skip:] * scale[:-1] * scale[1:], eigvals_only=True,
                              select="i", select_range=(k, k), tol=mathieu_mod._EIG_ABSTOL)
        return -1.0 / mu[0]

    n = min(max(32, 4 * rank + 40), mathieu_mod.MAX_TRUNCATION // 2)
    cur = crossing(n)
    while 2 * n <= mathieu_mod.MAX_TRUNCATION:
        n *= 2
        prev, cur = cur, crossing(n)
        if abs(cur - prev) < tol + 4.0 * np.finfo(float).eps * cur:
            return cur
    raise ConvergenceError("the doubling loop did not settle")


def generation_order(max_pairs):
    """Labels a0, b1, a1, b2, ..., the order critical_table prints."""
    return [f"{letter}{m + shift}" for m in range(max_pairs)
            for letter, shift in (("a", 0), ("b", 1))]


def printed_value(value):
    """A value as the CLI prints it, to 12 significant digits."""
    return float(f"{value:.12g}")


# Ten reference critical strengths xi_c (a_0, b_1, ..., a_4, b_5), quoted
# to ten significant figures; the first six are reproduced to 1e-8 and
# the near-degenerate last four to 5e-7.
TABLE1 = [
    ("a0", 0.0),
    ("b1", 0.2270115834),
    ("a1", 1.878402574),
    ("b2", 1.894922593),
    ("a2", 5.324657803),
    ("b3", 5.325793406),
    ("a3", 10.48179309),
    ("b4", 10.48186048),
    ("a4", 17.35709457),
    ("b5", 17.35709827),
]
TABLE1_TOL = [1e-8] * 6 + [5e-7] * 4


class TestFindCritical:
    def test_lowest_curve_roots_at_origin(self):
        point = find_critical(SymmetryClass.EVEN_PI, 0)
        assert point.q_c == 0.0
        assert point.xi_c == 0.0
        assert point.residual < 1e-12

    def test_lowest_curve_negative_for_positive_q(self):
        # Numerical check of the claim behind the origin root: the a0
        # curve starts at zero and is negative for every q > 0.
        for q in np.geomspace(0.01, 100.0, 25):
            assert char_value(SymmetryClass.EVEN_PI, 0, float(q)).value < 0

    def test_first_threshold(self):
        point = find_critical(SymmetryClass.ODD_2PI, 1)
        assert point.xi_c == pytest.approx(0.2270115834, abs=1e-8)
        assert point.label == "b1"

    def test_second_threshold(self):
        point = find_critical(SymmetryClass.EVEN_2PI, 1)
        assert point.xi_c == pytest.approx(1.878402574, abs=1e-8)

    def test_high_order_threshold(self):
        point = find_critical(SymmetryClass.ODD_2PI, 5)
        assert point.xi_c == pytest.approx(17.35709827, abs=1e-6)

    def test_xi_is_quarter_q(self):
        point = find_critical(SymmetryClass.ODD_PI, 2)
        assert point.xi_c == point.q_c / 4.0

    def test_rejects_bad_arguments(self, eigensolves):
        with pytest.raises(ValueError, match="the odd-2pi family has no order-2 member"):
            find_critical(SymmetryClass.ODD_2PI, 2)
        assert eigensolves == []
        with pytest.raises(ValueError, match="tol must be positive"):
            find_critical(SymmetryClass.ODD_2PI, 1, tol=0.0)
        assert eigensolves == []

    def test_passes_tol_to_the_crossing_certificate(self, monkeypatch):
        real, seen = mathieu_mod._certify, []

        def recording(name_of, values, bounds, tol, n):
            seen.append(tol)
            return real(name_of, values, bounds, tol, n)

        monkeypatch.setattr(mathieu_mod, "_certify", recording)
        find_critical(SymmetryClass.ODD_2PI, 1, tol=1e-9)
        assert seen == [1e-9]

    def test_each_root_costs_one_eigensolve_and_no_curve_evaluation(self, monkeypatch,
                                                                      eigensolves):
        # The root is an eigenvalue, certified by its eigenvector, and that
        # eigenvector's Rayleigh quotient is the residual.
        def no_curve(*args, **kwargs):
            raise AssertionError(f"char_value{args} called")

        monkeypatch.setattr(criticality_mod, "char_value", no_curve)
        monkeypatch.setattr(mathieu_mod, "char_value", no_curve)
        for letter, orders in (("a", range(1, 30)), ("b", range(1, 31))):
            for m in orders:
                eigensolves.clear()
                find_critical(family_for_label(letter, m), m)
                assert len(eigensolves) == 1, f"{letter}{m}: {len(eigensolves)} eigensolves"

    def test_residual_and_curve_vanish_at_the_root(self):
        # The independent check: char_value at its own truncation, at q_c.
        for letter, orders in (("a", range(1, 30)), ("b", range(1, 31))):
            for m in orders:
                symmetry = family_for_label(letter, m)
                point = find_critical(symmetry, m)
                assert point.residual <= 1e-10, f"{letter}{m}"
                assert abs(char_value(symmetry, m, point.q_c).value) <= 1e-10, f"{letter}{m}"

    @pytest.mark.parametrize("label", ["b1", "a1", "a5", "b10", "a2", "a4"])
    def test_residual_shows_a_wrong_root(self, monkeypatch, label):
        # Each root moved by 1e-9 relative, its eigenvector kept: the residual
        # must read the curve's value there.  a2 and a4 are even/pi, whose
        # crossing drops two rows of the recurrence.
        real = mathieu_mod._eigensolve

        def shifted(bands, ranks):
            values, vectors = real(bands, ranks)
            return [value / (1.0 + 1e-9) for value in values], vectors

        monkeypatch.setattr(mathieu_mod, "_eigensolve", shifted)
        symmetry, m = parse_label(label)
        point = find_critical(symmetry, m)
        curve = abs(char_value(symmetry, m, point.q_c).value)
        assert curve > 1e-10
        assert point.residual == pytest.approx(curve, rel=1e-4)

    def test_crossings_agree_with_doubling_loop(self):
        # The loop ends at 2 * max(32, 4r + 40) rows and the crossing solves at
        # ~3.5r + 24, so the last bit may differ (a4 by 1 ulp): agreement is the
        # certificate's, tol plus 4 ulps, and the printed 12 digits.
        tol = mathieu_mod.DEFAULT_TOL
        for letter in "ab":
            for m in range(1, 121):
                symmetry = family_for_label(letter, m)
                q_c, reference = find_critical(symmetry, m).q_c, doubling_crossing(symmetry, m)
                assert abs(q_c - reference) < tol + 4.0 * np.finfo(float).eps * reference, (
                    f"{letter}{m}")
                assert printed_value(q_c) == printed_value(reference), f"{letter}{m}"

    def test_matches_brentq_on_the_curve(self):
        # Reference: the root of char_value itself, refined by brentq inside
        # a bracket of +-1e-6 relative around q_c.
        for letter, orders in (("a", range(1, 30)), ("b", range(1, 31))):
            for m in orders:
                symmetry = family_for_label(letter, m)
                q_c = find_critical(symmetry, m).q_c
                reference = brentq(
                    lambda q: char_value(symmetry, m, q).value,
                    q_c * (1 - 1e-6), q_c * (1 + 1e-6), xtol=1e-14 * q_c,
                )
                assert abs(q_c - reference) <= 1e-13 * q_c, f"{letter}{m}"

    @pytest.mark.parametrize("label", ["b1", "a1", "a2", "b4", "a9", "b10", "a29", "b30"])
    def test_truncation_doubling_stable(self, label):
        symmetry, m = parse_label(label)
        q_c = find_critical(symmetry, m).q_c
        rank = symmetry.rank_of(m)
        n = max(32, 4 * rank + 40)
        for rows in (n, 2 * n, 4 * n):
            assert abs(mathieu_mod._crossing(symmetry, (rank, rank), rows)[0][0] - q_c) <= 1e-14 * q_c

    def test_certificate_failure_names_bound_and_truncation(self, monkeypatch):
        # b30's crossing needs more than 64 rows: its eigenvector's last
        # coefficient is far from negligible there.
        monkeypatch.setattr(mathieu_mod, "MAX_TRUNCATION", 64)
        with pytest.raises(ConvergenceError, match=r"zero crossing of b30 is not certified "
                                                   r"to 1e-12: its residual bound is \S+ at "
                                                   r"truncation 64 \(cap 64\)"):
            find_critical(SymmetryClass.ODD_PI, 30)

    def test_order_beyond_truncation_cap_is_a_usage_error(self):
        with pytest.raises(ValueError, match="b5001 is beyond the truncation cap: rank 2500"):
            find_critical(SymmetryClass.ODD_2PI, 5001)

    def test_rank_beyond_start_truncation_is_a_usage_error(self):
        # b2201 (rank 1100) is above the highest order tested; with
        # only 2048 rows it once had no crossing and reported a negative one.
        message = r"b2201 .* \(rank 1100, truncation 3874 rows\)"
        with pytest.raises(ValueError, match=message):
            find_critical(SymmetryClass.ODD_2PI, 2201)

    def test_crossing_beyond_the_truncation_cap_is_a_usage_error(self):
        # b1601's 2048- and 4096-row crossings differ by ~1e5; it used to
        # raise ConvergenceError although every check had accepted it.
        with pytest.raises(ValueError, match="b1601 lies beyond the tested range"):
            find_critical(SymmetryClass.ODD_2PI, 1601)
        # Orders up to the cap are kept: b1201 and a1518.
        assert find_critical(SymmetryClass.ODD_2PI, 1201).q_c == pytest.approx(
            4954259.5775, rel=1e-10)
        assert find_critical(SymmetryClass.EVEN_PI, 1518).q_c > 0.0


class TestCrossings:
    """The contract of mathieu._crossings, the one crossing implementation."""

    @pytest.mark.parametrize("symmetry", list(SymmetryClass))
    def test_every_order_within_its_certificate(self, symmetry):
        tol = mathieu_mod.DEFAULT_TOL
        crossings = mathieu_mod._crossings(
            symmetry, (symmetry.first_order, symmetry.order_at(40)), tol)
        assert len(crossings) == 41
        if symmetry is SymmetryClass.EVEN_PI:
            assert crossings[0] == (0.0, 0.0)  # a_0's root is q = 0
        for rank, (q_c, residual) in enumerate(crossings):
            single = find_critical(symmetry, symmetry.order_at(rank))
            assert abs(q_c - single.q_c) < tol + 4.0 * np.finfo(float).eps * single.q_c, rank
            assert residual < 1e-12 * max(1.0, q_c), rank

    def test_raises_before_any_eigensolve(self, eigensolves):
        with pytest.raises(ValueError, match="the odd-2pi family has no order-2 member"):
            mathieu_mod._crossings(SymmetryClass.ODD_2PI, (1, 2), 1e-12)
        with pytest.raises(ValueError, match="b1519 lies beyond the tested range; "
                                             "orders above 1518 are refused"):
            mathieu_mod._crossings(SymmetryClass.ODD_2PI, (1, 1519), 1e-12)
        with pytest.raises(ValueError, match="tol must be positive"):
            mathieu_mod._crossings(SymmetryClass.ODD_2PI, (1, 3), 0.0)
        assert eigensolves == []

    def test_certificate_failure_names_order_bound_and_truncation(self, monkeypatch):
        # As for find_critical: b2..b28 settle within 64 rows, b30 does not.
        monkeypatch.setattr(mathieu_mod, "MAX_TRUNCATION", 64)
        with pytest.raises(ConvergenceError, match=r"zero crossing of b30 is not certified "
                                                   r"to 1e-12: its residual bound is \S+ at "
                                                   r"truncation 64 \(cap 64\)"):
            mathieu_mod._crossings(SymmetryClass.ODD_PI, (2, 30), 1e-12)


class TestCriticalTable:
    def test_reproduces_reference_values(self, table5):
        assert len(table5) == 10
        for point, (label, xi_ref), tol in zip(table5, TABLE1, TABLE1_TOL):
            assert point.label == label
            assert point.xi_c == pytest.approx(xi_ref, abs=tol)

    def test_strictly_increasing(self, table5):
        values = [p.xi_c for p in table5]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_residuals_small_on_both_routes(self, table5):
        for point in table5:
            assert point.residual < 1e-10
            oracle = oracle_char_value(point.symmetry, point.order, point.q_c)
            assert abs(oracle) < 1e-8

    def test_prefix_property(self, table5):
        # b1 is solved at 24 rows alone and at 30 in the 5-pair table's block,
        # so its last bit may differ; it agrees within tol plus 4 ulps.
        short = critical_table(1)
        assert [p.label for p in short] == ["a0", "b1"]
        assert short[0].q_c == table5[0].q_c == 0.0
        reference = table5[1].q_c
        assert abs(short[1].q_c - reference) < (mathieu_mod.DEFAULT_TOL
                                                + 4.0 * np.finfo(float).eps * reference)
        assert printed_value(short[1].q_c) == printed_value(reference)

    def test_six_pairs_extend_beyond_reference(self, table5):
        extended = critical_table(6)
        assert len(extended) == 12
        assert [p.label for p in extended[:10]] == [p.label for p in table5]
        for point in extended[10:]:
            assert point.xi_c > 17.35709827
            oracle = oracle_char_value(point.symmetry, point.order, point.q_c)
            assert abs(oracle) < 1e-8

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            critical_table(0)

    @pytest.mark.parametrize("bad", [2.0, np.float64(3.0), True, "2"])
    def test_non_int_max_pairs_raises_naming_it(self, eigensolves, bad):
        # 2.0 failed with "TypeError: slice indices must be integers".
        with pytest.raises(ValueError,
                           match=f"^max_pairs must be an int, got {re.escape(repr(bad))}$"):
            critical_table(bad)
        assert eigensolves == []

    def test_order_and_printed_xi_below_twenty_pairs(self):
        # Each table solves at its own truncations, so a row's last bits depend
        # on its size: a_m/b_m+1 with m >= 10 lie 0-4 ulps apart and may tie or
        # swap (a18/b19 at 19 pairs), but they print alike.
        for max_pairs in range(1, 20):
            table = critical_table(max_pairs)
            assert [p.label for p in table] == generation_order(max_pairs)
            printed = [printed_value(p.xi_c) for p in table]
            assert all(lo <= hi for lo, hi in zip(printed, printed[1:])), max_pairs
            for lo, hi, shown_lo, shown_hi in zip(table, table[1:], printed, printed[1:]):
                if lo.symmetry.letter == "a" and lo.order >= 10:
                    assert shown_lo == shown_hi, (max_pairs, lo.label)
                else:
                    assert lo.xi_c < hi.xi_c, (max_pairs, lo.label, hi.label)

    @pytest.mark.parametrize("max_pairs, crossing_solves", [(14, 4), (60, 12), (200, 20)])
    def test_one_eigensolve_per_block_of_ranks(self, eigensolves, max_pairs, crossing_solves):
        # A block runs while its top rank's rows are within twice its lowest's,
        # for at most 32 ranks: at 60 pairs, ranks 0..7, 8..23 and 24..29 of a
        # family (1..8, 9..24 and 25..29 for even/pi, which skips a_0), and at
        # 200 pairs 0..7, 8..23, 24..55, 56..87 and 88..99, each block at its top
        # rank's 2 * ((7r + 48) // 4) rows; each row's residual comes from its
        # crossing's eigenvector.
        rows = {14: [44] * 4, 60: [48, 104, 124] * 3 + [52, 108, 124],
                200: [48, 104, 216, 328, 370] * 3 + [52, 108, 220, 332, 370]}
        critical_table(max_pairs)
        assert len(eigensolves) == crossing_solves
        assert eigensolves == rows[max_pairs]

    def test_no_crossing_block_is_wider_than_32_ranks(self, monkeypatch):
        # Without the cap, 200 pairs solve ranks 56..99 of a family at once.
        real, selected = mathieu_mod.eigh_tridiagonal, []

        def recording(*args, **kwargs):
            selected.append(kwargs["select_range"])
            return real(*args, **kwargs)

        monkeypatch.setattr(mathieu_mod, "eigh_tridiagonal", recording)
        critical_table(200)
        assert max(hi - lo + 1 for lo, hi in selected) == 32

    def test_residuals_agree_with_char_value(self):
        table = critical_table(60)
        assert table[0].label == "a0" and table[0].residual == 0.0
        for point in table:
            assert point.residual <= 1e-10, point.label
            curve = char_value(point.symmetry, point.order, point.q_c).value
            assert abs(curve) <= 1e-10, point.label

    def test_rows_agree_with_find_critical(self):
        tol = mathieu_mod.DEFAULT_TOL
        reference = {}
        for max_pairs in (1, 5, 14, 60, 200):
            for point in critical_table(max_pairs):
                if point.label not in reference:
                    reference[point.label] = find_critical(point.symmetry, point.order)
                ref = reference[point.label]
                assert abs(point.q_c - ref.q_c) < tol + 4.0 * np.finfo(float).eps * ref.q_c, (
                    max_pairs, point.label)
                assert printed_value(point.q_c) == printed_value(ref.q_c), point.label
                assert printed_value(point.xi_c) == printed_value(ref.xi_c), point.label

    def test_past_the_crossing_cap_fails_before_any_eigensolve(self, eigensolves):
        with pytest.raises(ValueError, match="b1519 lies beyond the tested range; "
                                             "orders above 1518 are refused"):
            critical_table(1519)
        assert eigensolves == []

    def test_huge_table_fails_before_listing_its_rows(self, eigensolves):
        # Listing the rows first took 12 s and 280 MB at 10**6 pairs.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="b1000000000 is beyond the truncation cap"):
            critical_table(10**9)
        assert time.perf_counter() - start < 1.0
        assert eigensolves == []

    @pytest.mark.parametrize("max_pairs", [30, 60])
    def test_interlacing_order_and_printed_xi_nondecreasing(self, max_pairs):
        table = critical_table(max_pairs)
        assert [p.label for p in table] == generation_order(max_pairs)
        # At 30 pairs b20's xi_c is a few ulps below a19's, yet a19 comes first;
        # the printed 12 digits agree, so the column as printed never decreases.
        printed = [printed_value(p.xi_c) for p in table]
        assert all(lo <= hi for lo, hi in zip(printed, printed[1:]))

    def test_thirty_pairs_are_sign_changes(self):
        # Beyond the reference table: every root is a true sign change of
        # its curve, down to a relative offset of 1e-9 in q.
        for point in critical_table(30):
            assert point.residual <= 1e-10
            if point.q_c == 0.0:
                assert point.label == "a0"
                continue
            value = lambda q: char_value(point.symmetry, point.order, q).value
            assert value(point.q_c * (1 - 1e-9)) > 0, point.label
            assert value(point.q_c * (1 + 1e-9)) < 0, point.label


# WKB at a = 0: y'' = 2q cos 2x y has two wells and two barriers of action
# sqrt(2q) C, C = int_0^pi/2 sqrt(cos u) du, so a_m and b_m+1 cross zero near
# q = Q(s) + C0 with s = m + 1/2, and their roots split by tunnelling.  C0 is
# measured (to 7 digits) on critical_table(1518); the laws need no recurrence.
WKB_C = (2.0 * math.pi) ** 1.5 / math.gamma(0.25) ** 2
WKB_C0 = -0.1823700


def wkb_root(s):
    return (math.pi * s / WKB_C) ** 2 / 2.0 + WKB_C0


def pair_index(point):
    """m + 1/2 for a_m and for its partner b_m+1."""
    return point.order - (point.symmetry.letter == "b") + 0.5


class TestRecurrenceFreeLaws:
    def test_table_rows_follow_the_wkb_root(self):
        # Every row from m = 3 on lies within 0.028/s^2 of the law (0.012/s^2
        # measured); the a-rows' offsets from Q(s) vary by less than 0.05/s^2
        # from one order to the next (0.0094/s^2 measured).
        offsets = {}
        for point in critical_table(200):
            s = pair_index(point)
            if s >= 3.5:
                assert abs(point.q_c - wkb_root(s)) <= 0.028 / s**2, point.label
            if point.symmetry.letter == "a":
                offsets[s] = point.q_c - wkb_root(s)
        for s in np.arange(3.5, 199.0):
            assert abs(offsets[s + 1] - offsets[s]) < 0.05 / (s + 1) ** 2, s

    @pytest.mark.parametrize("letter", "ab")
    def test_window_pins_the_rank_up_to_the_crossing_cap(self, letter):
        # Same-family neighbours lie ~13.7(s + 1) apart, so a window of 1 around
        # the law pins the rank; C0's 7 digits rule out an s^-2 band at large s.
        for m in (1, 2, 3, 7, 20, 60, 150, 400, 777, 1000, 1299, 1517, 1518):
            point = find_critical(family_for_label(letter, m), m)
            assert abs(point.q_c - wkb_root(pair_index(point))) < 1.0, point.label

    def test_pair_spacing_follows_tunnelling(self):
        # (q_c(b_m+1) - q_c(a_m)) / q_c(a_m) = 4/(pi s) exp(-pi s) (1 + 0.18/s),
        # within 0.3/s relative (3.0% at m = 1, the worst).
        table = critical_table(9)
        for a, b in zip(table[2::2], table[3::2]):
            s = pair_index(a)
            spacing = (b.q_c - a.q_c) / a.q_c
            law = 4.0 / (math.pi * s) * math.exp(-math.pi * s) * (1.0 + 0.18 / s)
            assert abs(spacing / law - 1.0) < 0.3 / s, a.label


class TestPairingGap:
    def test_free_rotor_gap(self):
        gap = pairing_gap(0, 0.0)
        assert gap.gap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("q", [0.5, 5.0, 20.0, 80.0])
    def test_positive(self, m, q):
        assert pairing_gap(m, q).gap > 0

    def test_fast_decay(self):
        assert pairing_gap(2, 40.0).gap < pairing_gap(2, 20.0).gap / 10.0

    def test_log_gap_decay_shape(self):
        # The gap closes like exp(-4 sqrt(q)), so log-gap is decreasing in
        # q and its slopes with respect to sqrt(q) never increase.  (In q
        # itself the differences grow toward zero, which is the same
        # statement about sub-exponential-in-q decay.)
        qs = [10.0, 20.0, 30.0, 40.0]
        logs = [log_gap(pairing_gap(1, q)) for q in qs]
        assert all(hi < lo for lo, hi in zip(logs, logs[1:]))
        roots = [math.sqrt(q) for q in qs]
        slopes = [
            (l1 - l0) / (r1 - r0)
            for (l0, l1, r0, r1) in zip(logs, logs[1:], roots, roots[1:])
        ]
        assert all(s1 <= s0 + 1e-9 for s0, s1 in zip(slopes, slopes[1:]))

    def test_matches_reference_pair_spacing(self, table5):
        # The spacing of the closest reference pair, 17.35709827 -
        # 17.35709457 = 3.70e-6, is what the gap shrinks to at crossing.
        spacing = table5[9].xi_c - table5[8].xi_c
        assert spacing == pytest.approx(3.70e-6, abs=2e-7)
        gap_at_crossing = pairing_gap(4, 69.42837828).gap
        assert 1e-6 < gap_at_crossing < 1e-4

    def test_log_gap_of_nonpositive_is_nan(self):
        assert math.isnan(log_gap(PairingGap(0, 1.0, 0.0)))
        assert math.isnan(log_gap(PairingGap(0, 1.0, -1e-30)))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pairing_gap(-1, 1.0)
        with pytest.raises(ValueError):
            pairing_gap(0, -1.0)


class TestFamilySelection:
    def test_pairs_use_matching_families(self):
        assert family_for_label("a", 0) is SymmetryClass.EVEN_PI
        assert family_for_label("a", 3) is SymmetryClass.EVEN_2PI
        assert family_for_label("b", 4) is SymmetryClass.ODD_PI
        assert family_for_label("b", 5) is SymmetryClass.ODD_2PI
