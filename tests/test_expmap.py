"""Tests for evaluation, orbits, and circle maxima of the exponential family."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expbouquet import expmap
from expbouquet.expmap import (
    MM_DIRECT_MAX,
    OrbitSample,
    Params,
    deriv_map,
    eval_map,
    max_modulus,
    max_modulus_iterates,
    orbit,
    orbit_to_csv,
)
from expbouquet.towerfloat import LN_H, TowerReal

small_complex = st.builds(
    complex,
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)


def dense_circle_max(a: complex, r: float, n: int = 200_000) -> float:
    """Plain sampling lower bound for the circle maximum of |e^z + a|."""
    theta = np.linspace(-math.pi, math.pi, n)
    z = r * np.exp(1j * theta)
    return float(np.max(np.abs(np.exp(z) + a)))


class TestParams:
    def test_default_radius(self):
        assert Params(a=-2 + 0j).radius == 7.0
        assert Params(a=0j).radius == 3.0

    def test_non_finite_parameter_rejected(self):
        # (1e308, 1e308) has finite parts, but |a| overflows the radius.
        for a in (complex(math.inf, 0.0), complex(math.nan, 0.0), complex(1e308, 1e308)):
            with pytest.raises(ValueError):
                Params(a=a)

    def test_radius_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Params(a=-2 + 0j, radius=9.5)

    def test_construction_needs_no_max_modulus(self, monkeypatch):
        def refuse(a, r):
            raise AssertionError("Params called max_modulus")

        monkeypatch.setattr(expmap, "max_modulus", refuse)
        for a in (-2 + 0j, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j):
            assert Params(a).radius == 3.0 + 2.0 * abs(a)


class TestEvalAndDeriv:
    def test_known_values(self):
        assert eval_map(-2 + 0j, 0j) == -1 + 0j
        assert eval_map(-2 + 0j, 1j) == pytest.approx(cmath.exp(1j) - 2)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            eval_map(-2 + 0j, 701.0 + 0j)

    @given(small_complex, small_complex)
    def test_matches_cmath(self, a, z):
        assert eval_map(a, z) == cmath.exp(z) + a

    @given(small_complex)
    def test_derivative_by_finite_differences(self, z):
        h = 1e-7
        fd = (eval_map(0j, z + h) - eval_map(0j, z - h)) / (2 * h)
        assert deriv_map(0j, z) == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestOrbit:
    def test_switches_to_magnitude_track(self):
        samples = orbit(-2 + 0j, 3 + 0j, depth=5)
        assert [s.n for s in samples] == [0, 1, 2, 3, 4, 5]
        assert samples[0].z == 3 + 0j
        assert samples[1].z == pytest.approx(math.exp(3.0) - 2.0)
        z2 = samples[2].z
        assert z2 is not None and z2.real > 700.0
        # Past the overflow wall only the log-magnitude continues, seeded
        # by the last representable real part.
        assert samples[3].z is None and samples[3].status == "overflowed"
        assert samples[3].log_mag == TowerReal(0, z2.real)
        assert samples[4].log_mag == TowerReal(1, z2.real)

    def test_seed_beyond_guard_continues_on_canonical_towers(self):
        # |z0| = 1e15 sits on the guard: every later step is a growth-model
        # tower, and |z_n| = exp^n(|z0|) keeps its mantissa below H.
        samples = orbit(-0.5 + 1j, 1e15 + 1j, depth=3, bailout=1e15)
        assert [s.status for s in samples] == ["in-range"] + ["overflowed"] * 3
        assert [s.log_mag for s in samples] == [TowerReal(n, LN_H) for n in range(4)]

    def test_stops_after_in_range_bailout_crossing(self):
        samples = orbit(-2 + 0j, 3 + 0j, depth=10, bailout=100.0)
        assert len(samples) == 3
        assert samples[-1].status == "in-range"
        assert abs(samples[-1].z) > 100.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            orbit(-2 + 0j, 0j, depth=0)
        with pytest.raises(ValueError):
            orbit(-2 + 0j, 0j, depth=5, bailout=1e16)

    def test_csv_round_trip_format(self):
        text = orbit_to_csv(orbit(-2 + 0j, 3 + 0j, depth=4))
        lines = text.splitlines()
        assert lines[0] == "n,re,im,log_level,log_mantissa,status"
        assert lines[1] == "0,3,0,0,1.0986122886681098,in-range"
        assert lines[4].startswith("3,nan,nan,0,")
        assert text.endswith("\n")


class TestMaxModulus:
    def test_frozen_value(self):
        # Independent check: for a = -2 the circle maximum at r = 7 sits
        # on the positive real axis, e^7 - 2.
        assert max_modulus(-2 + 0j, 7.0) == pytest.approx(
            1094.6331584284585, rel=1e-15
        )
        assert max_modulus(-2 + 0j, 7.0) == pytest.approx(math.exp(7.0) - 2.0)

    def test_never_below_dense_sampling(self):
        for a in (-2 + 0j, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j):
            for r in (math.pi, 4.0, 12.0):
                lower = dense_circle_max(a, r)
                got = max_modulus(a, r)
                assert got >= lower * (1.0 - 1e-12)
                assert got <= lower * (1.0 + 1e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            max_modulus(-2 + 0j, 0.0)
        with pytest.raises(OverflowError):
            max_modulus(-2 + 0j, 700.5)
        with pytest.raises(OverflowError):
            max_modulus(-2 + 0j, math.nextafter(MM_DIRECT_MAX, math.inf))

    @pytest.mark.parametrize("a", [0j, -2 + 0j, 5 + 3.14j, -300 + 0j])
    def test_finite_at_direct_limit(self, a):
        assert math.isfinite(max_modulus(a, MM_DIRECT_MAX))

    @given(
        st.builds(
            complex,
            st.floats(min_value=-3.0, max_value=3.0),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
        st.floats(min_value=0.5, max_value=30.0),
    )
    def test_upper_and_lower_envelopes(self, a, r):
        got = max_modulus(a, r)
        assert got <= math.exp(r) + abs(a) + 1e-9
        assert got >= math.exp(r) - abs(a) - 1e-9


class TestMaxModulusIterates:
    def test_golden_tower_chain(self):
        m1 = max_modulus(-2 + 0j, 7.0)
        towers = max_modulus_iterates(-2 + 0j, 7.0, 3)
        assert towers == [
            TowerReal(0, 7.0),
            TowerReal(0, m1),
            TowerReal(1, m1),
            TowerReal(2, m1),
        ]

    def test_strictly_increasing(self):
        towers = max_modulus_iterates(-2 + 0j, 7.0, 6)
        assert all(a.cmp(b) < 0 for a, b in zip(towers, towers[1:]))

    @given(
        st.complex_numbers(max_magnitude=400.0, allow_nan=False),
        st.integers(min_value=1, max_value=200),
    )
    # M(R) (|a| = 1.5 .. 1.7) or R itself (|a| = 200, 300) lies in
    # (MM_DIRECT_MAX, 700], where |f|^2 on the circle exceeds a double.
    # R = 3 is the smallest base radius; R = 354.8 the largest that
    # max_modulus evaluates directly.
    @example(0j, 40)
    @example(175.9 + 0j, 40)
    @example(-1.5 + 0j, 40)
    @example(-1.6 + 0j, 40)
    @example(1.7 + 0j, 40)
    @example(200 + 0j, 40)
    @example(-300 + 0j, 40)
    def test_strictly_increasing_from_default_radius(self, a, depth):
        # The rasterizer's one-pass fast-escape bound relies on this order.
        # Its first step, R < M(R), is the inequality Params relies on unchecked.
        towers = max_modulus_iterates(a, Params(a=a).radius, depth)
        assert all(x.cmp(y) < 0 for x, y in zip(towers, towers[1:]))

    def test_count_zero(self):
        assert max_modulus_iterates(-2 + 0j, 7.0, 0) == [TowerReal(0, 7.0)]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            max_modulus_iterates(-2 + 0j, 7.0, -1)
