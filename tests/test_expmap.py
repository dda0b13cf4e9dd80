"""Tests for evaluation, orbits, and circle maxima of the exponential family."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expbouquet import expmap
from expbouquet.classify import classify_param, classify_point, find_cycle
from expbouquet.fatoufn import fatou_classify, fatou_orbit
from expbouquet.render import RenderSpec
from expbouquet.symbolic import ExternalAddress, find_domination_index, separation_index, trace_hair
from expbouquet.expmap import (
    MM_DIRECT_MAX,
    OrbitSample,
    Params,
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
        # (1e308, 1e308) has finite parts, but |a| overflows the radius;
        # complex abs raises OverflowError on (1.5e308, 1.5e308).
        for a in (
            complex(math.inf, 0.0), complex(math.nan, 0.0), complex(1e308, 1e308),
            complex(1.5e308, 1.5e308),
        ):
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

    @pytest.mark.parametrize(
        "z", [complex(math.nan, 0.0), complex(0.0, -math.inf), complex(1.5e308, 1.5e308)]
    )
    def test_non_finite_seed_or_parameter_rejected(self, z):
        # complex abs raises OverflowError on (1.5e308, 1.5e308)
        with pytest.raises(ValueError, match="seed must be finite"):
            orbit(-2 + 0j, z, depth=3)
        with pytest.raises(ValueError, match="parameter a must be finite"):
            orbit(z, 0j, depth=3)

    def test_csv_round_trip_format(self):
        text = orbit_to_csv(orbit(-2 + 0j, 3 + 0j, depth=4))
        lines = text.splitlines()
        assert lines[0] == "n,re,im,log_level,log_mantissa,status"
        assert lines[1] == "0,3,0,0,1.0986122886681098,in-range"
        assert lines[4].startswith("3,nan,nan,0,")
        assert text.endswith("\n")


# Real parts and moduli at the edges of the switch rule, NaN and inf included.
_SWITCH_EDGES = [
    700.0, math.nextafter(700.0, math.inf), 350.0, 1e15, math.nextafter(1e15, 0.0),
    0.0, -1e300, math.nan, math.inf, -math.inf,
]


@st.composite
def _switch_points(draw):
    """``(bailout, [(re, mag), ...])`` with moduli on, next to and off the bailout."""
    bailout = draw(st.one_of(
        st.sampled_from([1e15, 1e10, 300.0, 0.5, 5e-324]),
        st.floats(min_value=5e-324, max_value=1e15),
    ))
    value = st.one_of(
        st.sampled_from(_SWITCH_EDGES),
        st.sampled_from([bailout, math.nextafter(bailout, 0.0), math.nextafter(bailout, math.inf)]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    return bailout, draw(st.lists(st.tuples(value, value), max_size=16))


class TestLeaves:
    """The one switch rule of the direct track, on floats and on arrays."""

    @given(_switch_points())
    @example((1e15, [(0.0, 1e15), (700.0, 1e15), (1e15, math.nextafter(1e15, 0.0))]))
    @example((1e10, [(700.0, 800.0), (math.nextafter(700.0, math.inf), 800.0), (0.0, 1e10)]))
    @example((1e10, [(math.nan, math.nan), (800.0, math.nan), (math.nan, math.inf)]))
    def test_floats_match_arrays(self, case):
        bailout, points = case
        re = np.array([r for r, _ in points], dtype=float)
        mag = np.array([m for _, m in points], dtype=float)
        got = expmap._leaves(re, mag, bailout)
        for i, (r, m) in enumerate(points):
            past, leave, alone = expmap._leaves(r, m, bailout)
            assert (past, leave, alone) == tuple(bool(g[i]) for g in got)
            # the rule as the docstrings state it; a NaN point never leaves
            assert past == (m > bailout)
            assert leave == (m > bailout or m >= 1e15 or r > 700.0)
            assert alone == (r > 700.0 and m <= bailout and m < 1e15)
            assert not (math.isnan(r) and math.isnan(m) and leave)

    @given(st.floats(min_value=5e-324, max_value=1e15))
    def test_every_leaving_point_is_past_reach(self, bailout):
        reach = expmap._reach(bailout)
        assert reach <= 0.5 * bailout and reach <= 350.0
        # the least moduli that leave: just past the bailout, 1e15, Re z > 700
        for r, m in [(0.0, math.nextafter(bailout, math.inf)), (0.0, 1e15), (700.0, 700.0)]:
            assert m > reach


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

    @pytest.mark.parametrize(
        "a", [-2 + 0j, -1 + 0j, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j, -300 + 0j, 40 - 90j]
    )
    @pytest.mark.parametrize("r", [0.5, math.pi, 7.0, 20.0, 120.0])
    def test_bracket_bound_drops_no_maximum(self, monkeypatch, a, r):
        # An infinite slack keeps every bracket, so this polishes them all.
        pruned = max_modulus(a, r)
        monkeypatch.setattr(expmap, "_BRACKET_SLACK", math.inf)
        assert max_modulus(a, r) == pruned


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



P = Params(a=-2 + 0j)
# (entry point, what it counts, call with that count)
COUNT_SITES = [
    ("classify_point", "depth", lambda n: classify_point(P, 0j, depth=n)),
    ("orbit", "depth", lambda n: orbit(-2 + 0j, 0j, n)),
    ("fatou_orbit", "depth", lambda n: fatou_orbit(0j, n)),
    ("fatou_classify", "depth", lambda n: fatou_classify(0j, n)),
    ("trace_hair", "depth", lambda n: trace_hair(P, ExternalAddress((), (0,)), n)),
    ("separation_index", "depth", lambda n: separation_index(P, 0j, 1j, n)),
    ("find_domination_index", "depth", lambda n: find_domination_index(P, 10 + 0j, 0j, 1e3, n)),
    ("RenderSpec", "max_iter", lambda n: RenderSpec("exponential", a=-2, max_iter=n)),
    ("find_cycle", "period", lambda n: find_cycle(P, 0j, n)),
    ("classify_param", "max_period", lambda n: classify_param(P, max_period=n)),
]
# (entry point, call with that bailout)
BAILOUT_SITES = [
    ("classify_point", lambda b: classify_point(P, 0j, bailout=b)),
    ("orbit", lambda b: orbit(-2 + 0j, 0j, 10, b)),
    ("fatou_orbit", lambda b: fatou_orbit(0j, 10, b)),
    ("RenderSpec", lambda b: RenderSpec("exponential", a=-2, bailout=b)),
]


@pytest.mark.parametrize(
    "message, call",
    [
        pytest.param(f"{what} must be >= 1", lambda f=f: f(0), id=f"{site}-{what}")
        for site, what, f in COUNT_SITES
    ]
    + [
        pytest.param(
            "bailout must be in (0, 1e15]", lambda f=f, b=b: f(b), id=f"{site}-bailout={b:g}"
        )
        for site, f in BAILOUT_SITES
        for b in (0.0, 2e15)
    ],
)
def test_precondition_messages(message, call):
    # Every entry point that takes a count or a bailout rejects a bad one
    # with the exact wording of the shared checks in expmap.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
