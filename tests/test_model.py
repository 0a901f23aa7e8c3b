"""Tests for the quadrupole-to-Mathieu mapping and radial classification."""

import numpy as np
import pytest

from quadspec import (
    CLASSIFICATION_TOL,
    AngularChannel,
    Regime,
    SymmetryClass,
    char_value,
    classify_channels,
    count_open_channels,
    oracle_char_value,
    radial_alpha,
    to_mathieu,
)


class TestToMathieu:
    def test_zero(self):
        assert to_mathieu(0.0) == 0.0

    def test_scaling_matches_table_rows(self):
        assert to_mathieu(0.2270115834) == pytest.approx(0.9080463336, rel=1e-12)
        assert to_mathieu(1.878402574) == pytest.approx(7.513610296, rel=1e-12)

    def test_rejects_negative_with_reflection_hint(self):
        with pytest.raises(ValueError, match="reflection"):
            to_mathieu(-0.5)


def channel_energy(xi, label):
    """E of the channel with this label among classify_channels(xi)."""
    (energy,) = [ch.e_theta for ch, _ in classify_channels(xi) if ch.label == label]
    return energy


class TestAngularEnergy:
    def test_free_rotor_ground(self):
        assert channel_energy(0.0, "a0") == pytest.approx(0.0, abs=1e-13)

    def test_critical_strength_gives_zero_energy(self):
        assert abs(channel_energy(0.2270115834, "b1")) < 5e-9

    def test_ground_energy_negative_at_xi_one(self):
        assert channel_energy(1.0, "a0") < 0
        # independent confirmation by shooting at q = 4
        assert oracle_char_value(SymmetryClass.EVEN_PI, 0, 4.0) < 0

    def test_halves_the_characteristic_value(self):
        # With max_order=1 every family solve is the single rank that
        # char_value solves, so the halving is exact.
        for channel, _ in classify_channels(0.5, max_order=1):
            cv = char_value(channel.symmetry, channel.order, 2.0)
            assert channel.e_theta == cv.value / 2.0


class TestRadialAlpha:
    def test_zero_energy_is_critical(self):
        regime = radial_alpha(AngularChannel(SymmetryClass.EVEN_PI, 0, 0.0))
        assert regime.alpha == 0.25
        assert regime.regime is Regime.CRITICAL

    def test_eighth_energy_cancels_coefficient(self):
        regime = radial_alpha(AngularChannel(SymmetryClass.EVEN_PI, 0, 0.125))
        assert regime.alpha == 0.0
        assert regime.regime is Regime.NO_NEGATIVE_SPECTRUM

    def test_negative_energy_unbounded(self):
        regime = radial_alpha(AngularChannel(SymmetryClass.EVEN_PI, 0, -1.0))
        assert regime.alpha == 2.25
        assert regime.regime is Regime.UNBOUNDED_BELOW

    def test_tolerance_band(self):
        inside = radial_alpha(AngularChannel(SymmetryClass.EVEN_PI, 0, CLASSIFICATION_TOL))
        assert inside.regime is Regime.CRITICAL
        below = radial_alpha(AngularChannel(SymmetryClass.EVEN_PI, 0, -2 * CLASSIFICATION_TOL))
        assert below.regime is Regime.UNBOUNDED_BELOW
        above = radial_alpha(AngularChannel(SymmetryClass.EVEN_PI, 0, 2 * CLASSIFICATION_TOL))
        assert above.regime is Regime.NO_NEGATIVE_SPECTRUM

    def test_random_energies_follow_the_rules(self):
        rng = np.random.default_rng(7)
        for e in rng.uniform(-3.0, 3.0, size=300):
            regime = radial_alpha(AngularChannel(SymmetryClass.EVEN_PI, 0, e))
            assert regime.alpha == 0.25 - 2.0 * e
            if abs(e) <= CLASSIFICATION_TOL:
                assert regime.regime is Regime.CRITICAL
            elif e < 0:
                assert regime.regime is Regime.UNBOUNDED_BELOW
            else:
                assert regime.regime is Regime.NO_NEGATIVE_SPECTRUM


class TestChannelEnumeration:
    def test_counts_by_family(self):
        modes = [(ch.symmetry, ch.order) for ch, _ in classify_channels(0.5, max_order=5)]
        assert len(modes) == len(set(modes)) == 11  # a: 0..5, b: 1..5
        assert (SymmetryClass.ODD_PI, 2) in modes
        assert all(sym.is_valid_order(m) for sym, m in modes)

    def test_classify_sorted_by_energy(self):
        classified = classify_channels(0.5, max_order=6)
        energies = [ch.e_theta for ch, _ in classified]
        assert energies == sorted(energies)

    def test_classify_rejects_bad_args(self):
        with pytest.raises(ValueError):
            classify_channels(-1.0, max_order=4)
        with pytest.raises(ValueError):
            classify_channels(1.0, max_order=0)


class TestCountOpenChannels:
    def test_no_strength_no_channels(self):
        assert count_open_channels(0.0) == 0

    def test_one_channel_below_first_threshold(self):
        assert count_open_channels(0.1) == 1
        # shooting confirms only the lowest curve is negative at q = 0.4
        assert oracle_char_value(SymmetryClass.EVEN_PI, 0, 0.4) < 0
        assert oracle_char_value(SymmetryClass.ODD_2PI, 1, 0.4) > 0

    def test_two_channels_between_thresholds(self):
        assert count_open_channels(0.3) == 2
        assert count_open_channels(1.0) == 2
        assert oracle_char_value(SymmetryClass.ODD_2PI, 1, 4.0) < 0
        assert oracle_char_value(SymmetryClass.EVEN_2PI, 1, 4.0) > 0

    def test_increment_across_first_threshold(self):
        xi_c = 0.2270115834
        assert count_open_channels(xi_c - 1e-4) == 1
        assert count_open_channels(xi_c + 1e-4) == 2

    def test_monotone_and_at_least_one(self):
        grid = [0.05 * k for k in range(1, 401)]
        counts = [count_open_channels(xi) for xi in grid]
        assert all(c >= 1 for c in counts)
        assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))
        assert counts[-1] == 10  # ten thresholds lie below xi = 20
