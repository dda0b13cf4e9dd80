"""Tests for the drift map z -> z + 1 + e^-z and its semiconjugacy."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expbouquet.classify import EscapingSlow, NonEscapingBounded, Undecided
from expbouquet.expmap import orbit_to_csv
from expbouquet.fatoufn import (
    fatou_classify,
    fatou_eval,
    fatou_orbit,
    h_eval,
    semiconj_residual,
)

box = st.builds(
    complex,
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)


class TestEval:
    def test_known_values(self):
        assert fatou_eval(10 + 0j) == 11 + math.exp(-10.0)
        # f(-10) = -9 + e^10.
        assert abs(fatou_eval(-10 + 0j)) == pytest.approx(22017.465794806718, rel=1e-12)

    def test_odd_pi_multiples_are_fixed(self):
        for k in range(-2, 3):
            z = complex(0.0, (2 * k + 1) * math.pi)
            assert abs(fatou_eval(z) - z) < 1e-12

    def test_companion_map(self):
        assert h_eval(1 + 0j) == pytest.approx(math.exp(-2.0))
        w = complex(0.3, -0.7)
        assert h_eval(w) == pytest.approx(w * cmath.exp(-w - 1))


class TestSemiconjugacy:
    @given(box)
    def test_residual_small_in_the_box(self, z):
        scale = max(1.0, abs(cmath.exp(-fatou_eval(z))))
        assert semiconj_residual(z) / scale < 1e-12

    @given(box)
    def test_two_pi_i_periodicity(self, z):
        step = complex(0.0, 2.0 * math.pi)
        assert abs(fatou_eval(z + step) - (fatou_eval(z) + step)) < 1e-12


class TestOrbit:
    def test_drifts_right_about_one_per_step(self):
        samples = fatou_orbit(60 + 0j, depth=10)
        assert len(samples) == 11
        gaps = [
            (b.z - a.z).real for a, b in zip(samples, samples[1:])
        ]
        assert all(abs(g - 1.0) < 1e-20 for g in gaps)

    def test_underflow_wall_records_one_tower_sample(self):
        samples = fatou_orbit(-800 + 0j, depth=5)
        assert len(samples) == 2
        assert samples[1].z is None and samples[1].status == "overflowed"
        assert samples[1].log_mag.mantissa == pytest.approx(800.0)

    def test_shares_the_orbit_csv_format(self):
        text = orbit_to_csv(fatou_orbit(10 + 0j, depth=3))
        lines = text.splitlines()
        assert lines[0] == "n,re,im,log_level,log_mantissa,status"
        assert lines[1].startswith("0,10,0,0,")

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fatou_orbit(0j, depth=0)
        with pytest.raises(ValueError):
            fatou_orbit(0j, depth=5, bailout=1e16)


class TestClassify:
    def test_right_drift_is_slow_escape(self):
        assert fatou_classify(10 + 0j) == EscapingSlow(first_exit_step=40)
        assert fatou_classify(-10 + 0j) == EscapingSlow(first_exit_step=1)

    def test_fixed_point_is_bounded(self):
        got = fatou_classify(complex(0.0, math.pi))
        assert isinstance(got, NonEscapingBounded)
        assert got.bound == pytest.approx(math.pi)

    def test_undecided_past_the_underflow_wall(self):
        assert fatou_classify(-800 + 0j) == Undecided()

    def test_translation_invariance_of_verdicts(self):
        step = complex(0.0, 2.0 * math.pi)
        for z in (10 + 0j, complex(0.0, math.pi), -3 + 2j, 2 - 1j):
            a = fatou_classify(z)
            b = fatou_classify(z + step)
            assert type(a) is type(b)

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            fatou_classify(0j, depth=0)
