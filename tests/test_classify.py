"""Tests for orbit and parameter classification."""

import cmath
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expbouquet import classify
from expbouquet.classify import (
    Attracting,
    Basin,
    EscapingSlow,
    FastEscaping,
    NonEscapingBounded,
    ParabolicSuspect,
    PostsingularlyFinite,
    SingularValueEscapes,
    classify_param,
    classify_point,
    find_cycle,
    is_meandering_candidate,
    report_line,
)
from expbouquet.expmap import Params, orbit
from expbouquet.render import RenderSpec, classify_grid
from expbouquet.towerfloat import LN_H, TowerReal

P2 = Params(a=-2 + 0j)

# Real fixed points of e^x - 2 = x, pinned by bisection to full precision.
ATTRACTING_FP = -1.8414056604369606
REPELLING_FP = 1.1461932206205827


def first_bailout_crossing(a: complex, z0: complex, bailout: float) -> int:
    """Independent escape oracle: first step with |z_n| > bailout.

    Treats Re z > 700 as having escaped on the next step (the exponential
    of such a point exceeds any allowed bailout).
    """
    z = complex(z0)
    n = 0
    while True:
        if abs(z) > bailout:
            return n
        if z.real > 700.0:
            return n + 1
        z = cmath.exp(z) + a
        n += 1


class TestClassifyPoint:
    def test_immediate_fast_escape(self):
        got = classify_point(P2, 10 + 0j)
        assert got == FastEscaping(offset=0, verified_depth=100)

    def test_fast_escape_after_climb(self):
        got = classify_point(P2, 1.2 + 0j)
        assert got == FastEscaping(offset=4, verified_depth=96)

    def test_basin_of_attracting_fixed_point(self):
        assert classify_point(P2, -2 + 0j) == Basin(period=1)
        assert classify_point(P2, 0j) == Basin(period=1)
        assert classify_point(P2, complex(0.0, math.pi)) == Basin(period=1)

    def test_basin_of_two_cycle(self):
        p = Params(a=5 + 3.14j)
        assert classify_point(p, p.a) == Basin(period=2)

    def test_slow_escape_near_the_escape_horizon(self):
        # A seed that lingers near the repelling fixed point escapes only
        # at a tunable late step; crossing at depth-1 leaves no room for
        # the domination scan, so the verdict is slow escape.
        z0 = complex(REPELLING_FP + 7.7e-6, 0.0)
        c = first_bailout_crossing(P2.a, z0, 1e10)
        assert c >= 11
        got = classify_point(P2, z0, depth=c + 1)
        assert got == EscapingSlow(first_exit_step=c)

    def test_parabolic_crawl_is_bounded_not_basin(self):
        got = classify_point(Params(a=-1 + 0j), 0j, depth=100)
        assert got == NonEscapingBounded(depth=100, bound=0.0)

    def test_bounded_wandering_orbit(self):
        got = classify_point(Params(a=-1j), -2 - 3j, depth=50)
        assert isinstance(got, NonEscapingBounded)
        assert got.bound < 10.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            classify_point(P2, 0j, depth=0)
        with pytest.raises(ValueError):
            classify_point(P2, 0j, bailout=0.0)
        with pytest.raises(ValueError):
            classify_point(P2, 0j, bailout=1e16)

    @given(
        st.builds(
            complex,
            st.floats(min_value=-4.0, max_value=8.0),
            st.floats(min_value=-8.0, max_value=8.0),
        )
    )
    def test_fast_escapers_really_escape(self, z0):
        got = classify_point(P2, z0, depth=20)
        if isinstance(got, FastEscaping):
            assert got.verified_depth >= 3
            assert first_bailout_crossing(P2.a, z0, 1e10) <= 20


def _orbit_exit(a: complex, z0: complex, depth: int, bailout: float):
    """First ``orbit`` sample that is "overflowed" or past ``bailout``, or None."""
    return next(
        (
            s.n
            for s in orbit(a, z0, depth, bailout)
            if s.status == "overflowed" or abs(s.z) > bailout
        ),
        None,
    )


class TestExitRule:
    """The exit step is read from the orbit, where ``orbit()`` stops or overflows."""

    def test_bailout_1e15_tie_exits_at_the_crossing(self):
        # log(1e15 + 2) rounds to ln(1e15), so the towers of |z_0| and of
        # the bailout tie; the point itself is past the bailout.
        p = Params(0.5)
        assert _orbit_exit(p.a, 1e15 + 2, 2, 1e15) == 0
        assert classify_point(p, 1e15 + 2, depth=2, bailout=1e15) == EscapingSlow(0)

    def test_exact_zero_stays_within_a_subnormal_bailout(self):
        # 0 is the parabolic fixed point of a = -1: |z_n| = 0 never exceeds
        # the bailout, although the tower floor _TINY does.
        p = Params(-1)
        assert _orbit_exit(p.a, 0j, 20, 1e-320) is None
        got = classify_point(p, 0j, depth=20, bailout=1e-320)
        assert got == NonEscapingBounded(depth=20, bound=0.0)

    @given(
        st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.one_of(
            st.builds(complex, st.floats(-4.0, 12.0), st.floats(-8.0, 8.0)),
            st.builds(complex, st.floats(690.0, 710.0), st.floats(-1.0, 1.0)),
            st.builds(complex, st.floats(1e15 - 8, 1e15 + 8), st.floats(-2.0, 2.0)),
        ),
        st.integers(min_value=1, max_value=40),
        st.one_of(
            st.floats(min_value=5e-324, max_value=1e15),
            st.sampled_from([1e15, 1e-320, 5e-324]),
        ),
    )
    @example(0.5, 1e15 + 2, 2, 1e15)
    @example(-1, 0j, 20, 1e-320)
    def test_exit_step_is_where_the_orbit_crosses(self, a, z0, depth, bailout):
        got = classify_point(Params(a), z0, depth=depth, bailout=bailout)
        crossing = _orbit_exit(a, z0, depth, bailout)
        if isinstance(got, EscapingSlow):
            assert got.first_exit_step == crossing
        else:
            assert (crossing is not None) == isinstance(got, FastEscaping)


class TestFastEscapeTest:
    def test_matches_classification_offsets(self):
        assert classify_point(P2, 10 + 0j, depth=50).offset == 0
        assert classify_point(P2, 1.2 + 0j, depth=50).offset == 4

    def test_non_escaping_is_none(self):
        got = classify_point(P2, -2 + 0j, depth=50)
        assert not isinstance(got, FastEscaping)
        assert getattr(got, "offset", None) is None

    def test_depth_below_three_is_never_fast(self):
        # Fewer than three tower comparisons certify nothing.
        for depth in (1, 2):
            got = classify_point(P2, 10 + 0j, depth=depth, bailout=5.0)
            assert got == EscapingSlow(first_exit_step=0)
        got = classify_point(P2, 10 + 0j, depth=3, bailout=5.0)
        assert got == FastEscaping(offset=0, verified_depth=3)

    def test_growth_model_adds_abs_a(self):
        # Seed R = 3 + 2|a| = 4 is past the bailout at step 0, so its next
        # tower is the model's e^4 + |a|, exactly M(R) = M^1: offset 0.
        # Dropping |a| leaves it below M^1 and the verdict slow.
        assert classify_point(Params(0.5), 4, depth=3, bailout=0.5) == FastEscaping(
            offset=0, verified_depth=3
        )


def _least_offset_by_search(mags, table, depth):
    """The O(depth^2) search for the least fast-escape offset: the oracle."""
    for ell in range(depth - 2):
        if all(mags[ell + n].cmp(table[n]) >= 0 for n in range(depth - ell + 1)):
            return ell
    return None


def _tower(key):
    """Tower of an integer key, in key order across levels 0-2."""
    level, rest = divmod(key, 10)
    return TowerReal(level, float(rest) + (LN_H if level else 0.0))


@st.composite
def _offset_cases(draw):
    """(mags, nondecreasing table with ties, depth) for the offset helper.

    As on an orbit track, mags run up to ten steps past ``depth``.
    """
    depth = draw(st.integers(min_value=1, max_value=40))
    keys = sorted(draw(st.lists(st.integers(0, 29), min_size=depth + 1, max_size=depth + 1)))
    size = depth + 1 + draw(st.integers(0, 10))
    if draw(st.booleans()):
        # Orbits near the table: a shifted copy plus noise, often fast.
        shift = draw(st.integers(0, depth))
        noise = draw(st.lists(st.integers(-2, 3), min_size=size, max_size=size))
        mags = [
            min(29, max(0, keys[min(depth, max(0, k - shift))] + d))
            for k, d in enumerate(noise)
        ]
    else:
        mags = draw(st.lists(st.integers(0, 29), min_size=size, max_size=size))
    return [_tower(k) for k in mags], [_tower(k) for k in keys], depth


class TestFastOffset:
    @given(_offset_cases())
    @example(([_tower(5)] * 2, [_tower(5)] * 2, 1))
    @example(([_tower(5)] * 3, [_tower(5)] * 3, 2))
    @example(([_tower(5)] * 4, [_tower(5)] * 4, 3))
    @example(([_tower(k) for k in (3, 1, 9, 19, 29)], [_tower(k) for k in (3, 3, 9, 9, 20)], 4))
    def test_matches_quadratic_search(self, case):
        mags, table, depth = case
        assert classify._fast_offset(mags, table, depth) == _least_offset_by_search(
            mags, table, depth
        )

    @pytest.fixture
    def decreasing_table(self, monkeypatch):
        def decreasing(a, r, count):
            return [TowerReal.from_real(r + count - n) for n in range(count + 1)]

        classify._domination_table.cache_clear()
        monkeypatch.setattr(classify, "max_modulus_iterates", decreasing)
        yield
        classify._domination_table.cache_clear()

    def test_non_monotone_table_raises(self, decreasing_table):
        with pytest.raises(RuntimeError, match="not monotone"):
            classify_point(P2, 10 + 0j, depth=20)
        spec = RenderSpec(map_kind="exponential", a=-2, width=4, height=4, max_iter=20)
        with pytest.raises(RuntimeError, match="not monotone"):
            classify_grid(spec, workers=1)


class TestFindCycle:
    def test_refines_attracting_fixed_point(self):
        cycle, mult = find_cycle(P2, -1.8 + 0j, 1)
        assert cycle[0].real == pytest.approx(ATTRACTING_FP, abs=1e-12)
        assert cycle[0].imag == pytest.approx(0.0, abs=1e-12)
        assert mult == pytest.approx(0.15859433956303937, abs=1e-12)

    def test_refines_repelling_fixed_point(self):
        cycle, mult = find_cycle(P2, 1.1 + 0j, 1, tol=1e-13)
        assert cycle[0].real == pytest.approx(REPELLING_FP, abs=1e-12)
        assert abs(mult) > 1.0

    def test_multiplier_is_product_of_derivatives(self):
        p = Params(a=5 + 3.14j)
        verdict = classify_param(p)
        assert isinstance(verdict, Attracting) and verdict.period == 2
        cycle, mult = find_cycle(p, verdict.cycle[0], 2)
        assert mult == pytest.approx(cmath.exp(cycle[0] + cycle[1]), rel=1e-9)


class TestClassifyParam:
    def test_attracting_fixed_point(self):
        got = classify_param(P2)
        assert isinstance(got, Attracting)
        assert got.period == 1
        assert got.cycle[0].real == pytest.approx(ATTRACTING_FP, abs=1e-7)
        assert got.multiplier.real == pytest.approx(0.15859433956303937, abs=1e-7)

    def test_parabolic_boundary_parameter(self):
        got = classify_param(Params(a=-1 + 0j))
        assert isinstance(got, ParabolicSuspect)
        assert got.period == 1
        assert abs(got.multiplier) == pytest.approx(1.0, abs=1e-6)

    def test_postsingularly_finite_example(self):
        a = complex(math.log(math.pi), math.pi / 2)
        got = classify_param(Params(a=a))
        assert got == PostsingularlyFinite(preperiod=2, period=1)

    def test_omega_constant_parameter(self):
        # For a = i*pi the singular orbit collapses onto the line Im z = pi
        # where the dynamics is x -> -e^x, with fixed point -Omega
        # (Omega e^Omega = 1) and multiplier -Omega.
        got = classify_param(Params(a=complex(0.0, math.pi)))
        assert isinstance(got, Attracting)
        assert got.period == 1
        assert got.multiplier == pytest.approx(complex(-0.5671432904097838, 0.0), abs=1e-9)

    def test_higher_periods(self):
        for a, period in ((5 + 3.14j, 2), (2.06 + 1.57j, 3), (1.004 + 2.9j, 26)):
            got = classify_param(Params(a=a))
            assert isinstance(got, Attracting), a
            assert got.period == period
            assert abs(got.multiplier) < 1.0

    def test_escaping_singular_value(self):
        got = classify_param(Params(a=10 + 0j))
        assert got == SingularValueEscapes(first_exit_step=2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            classify_param(P2, max_period=0)
        with pytest.raises(ValueError):
            classify_param(P2, depth=99)


class TestMeanderingCandidate:
    def test_slow_escape_qualifies(self):
        assert is_meandering_candidate(EscapingSlow(first_exit_step=9))

    def test_bounded_needs_attracting_parameter(self):
        bounded = NonEscapingBounded(depth=100, bound=3.0)
        assert not is_meandering_candidate(bounded)
        assert is_meandering_candidate(bounded, classify_param(P2))

    def test_fast_escape_never_qualifies(self):
        assert not is_meandering_candidate(FastEscaping(offset=0, verified_depth=10))


class TestReportLine:
    def test_point_reports(self):
        assert report_line(FastEscaping(offset=4, verified_depth=96)) == (
            "class=FastEscaping ell=4"
        )
        assert report_line(EscapingSlow(first_exit_step=40)) == (
            "class=EscapingSlow exit=40"
        )
        assert report_line(Basin(period=2)) == "class=Basin period=2"

    def test_param_reports_use_17_digits(self):
        line = report_line(classify_param(P2))
        assert line.startswith("class=Attracting period=1 multiplier=0.15859433956303937,")

    def test_postsingularly_finite_report(self):
        a = complex(math.log(math.pi), math.pi / 2)
        assert report_line(classify_param(Params(a=a))) == (
            "class=PostsingularlyFinite period=1"
        )
