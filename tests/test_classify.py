"""Tests for orbit and parameter classification."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    fast_escape_test,
    find_cycle,
    is_meandering_candidate,
    report_line,
)
from expbouquet.expmap import Params

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


class TestFastEscapeTest:
    def test_matches_classification_offsets(self):
        assert fast_escape_test(P2, 10 + 0j, depth=50) == 0
        assert fast_escape_test(P2, 1.2 + 0j, depth=50) == 4

    def test_non_escaping_is_none(self):
        assert fast_escape_test(P2, -2 + 0j, depth=50) is None

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            fast_escape_test(P2, 10 + 0j, depth=2)


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
