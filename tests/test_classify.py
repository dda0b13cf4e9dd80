"""Tests for orbit and parameter classification."""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expbouquet import classify, expmap
from expbouquet.classify import (
    Attracting,
    Basin,
    ConvergenceError,
    EscapingSlow,
    FastEscaping,
    NonEscapingBounded,
    ParabolicSuspect,
    PostsingularlyFinite,
    SingularValueEscapes,
    Undetermined,
    classify_param,
    classify_point,
    find_cycle,
    report_line,
)
from expbouquet.expmap import Params, orbit
from expbouquet.render import RenderSpec, classify_grid
from expbouquet.towerfloat import TowerReal
from expbouquet.verify import FIGURE_PARAMS

P2 = Params(a=-2 + 0j)

# Finite parts, but complex abs raises OverflowError on it.
OVERFLOWING_MODULUS = complex(1.5e308, 1.5e308)

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

    @pytest.mark.parametrize(
        "z", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
              complex(0.0, -math.inf), math.nan, OVERFLOWING_MODULUS]
    )
    def test_non_finite_seed_rejected(self, z):
        # A NaN seed used to come back NonEscapingBounded(bound=nan); a seed
        # whose modulus overflows used to raise OverflowError.
        with pytest.raises(ValueError, match="finite"):
            classify_point(P2, z)

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
    @example(1e15 - 1, 0j, 3, 1e15)
    def test_exit_step_is_where_the_orbit_crosses(self, a, z0, depth, bailout):
        got = classify_point(Params(a), z0, depth=depth, bailout=bailout)
        crossing = _orbit_exit(a, z0, depth, bailout)
        if isinstance(got, EscapingSlow):
            assert got.first_exit_step == crossing
        else:
            assert (crossing is not None) == isinstance(got, FastEscaping)

    def test_point_at_the_guard_and_bailout_exits_a_step_later(self):
        # z_1 = 1e15 exactly: not past a 1e15 bailout, so it is still an
        # in-range sample; the track switches after it.
        samples = orbit(1e15 - 1, 0j, 3, 1e15)
        assert samples[1].z == 1e15 and samples[1].status == "in-range"
        assert samples[2].status == "overflowed"
        got = classify_point(Params(1e15 - 1), 0j, depth=3, bailout=1e15)
        assert got == EscapingSlow(first_exit_step=2)


def _eager_track(a, z0, steps, bailout):
    """The orbit track with a tower built at every step: the oracle."""
    abs_a = abs(a)
    zs = [z0]
    mags = [TowerReal.from_real(max(abs(z0), expmap._TINY))]
    z = z0
    for _ in range(steps):
        if z is not None:
            az = abs(z)
            if az > bailout or az >= expmap.MAG_GUARD:
                mags.append(mags[-1].exp_plus(abs_a))
                zs.append(None)
                z = None
                continue
            if z.real > expmap.RE_OVERFLOW:
                mags.append(TowerReal(1, z.real))
                zs.append(None)
                z = None
                continue
            w = cmath.exp(z) + a
            zs.append(w)
            mags.append(TowerReal.from_real(max(abs(w), expmap._TINY)))
            z = w
        else:
            mags.append(mags[-1].exp_plus(abs_a))
            zs.append(None)
    return zs, mags


def _classify_point_eager(p, z, depth, bailout):
    """``classify_point`` over :func:`_eager_track` and :func:`_least_offset_by_search`.

    The oracle: it shares no offset code with ``classify_point`` and the
    render kernel.
    """
    zs, mags = _eager_track(p.a, z, depth + 10, bailout)
    exit_step = next(
        (n for n, w in enumerate(zs[: depth + 1]) if w is None or abs(w) > bailout), None
    )
    if exit_step is not None:
        table = expmap.max_modulus_iterates(p.a, p.radius, depth)
        ell = _least_offset_by_search(mags, table, depth)
        if ell is not None:
            return FastEscaping(offset=ell, verified_depth=depth - ell)
        return EscapingSlow(first_exit_step=exit_step)
    period = classify._detect_basin_period(zs, depth)
    if period is not None:
        return Basin(period=period)
    return NonEscapingBounded(depth=depth, bound=max(abs(w) for w in zs[: depth + 1]))


# A seed near the repelling fixed point of a = -2 that crosses the 1e10
# bailout at step 13, i.e. between depth and depth + 10 for depth 3..12.
LATE_ESCAPE = complex(REPELLING_FP + 7.7e-6, 0.0)


def _track_cases(test):
    """Seeds near the escape horizons, with bailouts from subnormal to 1e15."""
    examples = [
        (-2, LATE_ESCAPE, 4, 1e10),
        (-2, LATE_ESCAPE, 12, 1e10),
        (-2, 701 + 0j, 5, 1e15),
        (-2, 705 + 30j, 5, 1e15),
        (0.5, 699.5 + 0.5j, 3, 1e15),
        (0.5, 4 + 0j, 3, 0.5),
        (-2, 3 + 0j, 6, 650.0),
        (-0.5 + 1j, 1e15 + 1j, 3, 1e15),
        (1e15 - 1, 0j, 3, 1e15),
        (-1, 0j, 20, 1e-320),
        (-1, 1e-300 + 0j, 20, 5e-324),
    ]
    for case in reversed(examples):
        test = example(*case)(test)
    return given(
        st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.one_of(
            st.builds(complex, st.floats(-4.0, 12.0), st.floats(-8.0, 8.0)),
            st.builds(complex, st.floats(690.0, 710.0), st.floats(-40.0, 40.0)),
            st.builds(complex, st.floats(1e15 - 8, 1e15 + 8), st.floats(-2.0, 2.0)),
        ),
        st.integers(min_value=1, max_value=40),
        st.one_of(
            st.floats(min_value=5e-324, max_value=1e15),
            st.sampled_from([1e15, 1e10, 650.0, 5.0, 1e-320, 5e-324]),
        ),
    )(test)


class TestTowersOnlyForEscapedOrbits:
    """Towers are built from the points, and only for orbits that escape."""

    @_track_cases
    def test_matches_eager_towers(self, a, z0, depth, bailout):
        p = Params(a)
        assert classify_point(p, z0, depth, bailout) == _classify_point_eager(
            p, z0, depth, bailout
        )

    @_track_cases
    def test_towers_from_points_match_the_eager_track(self, a, z0, depth, bailout):
        zs, mags = _eager_track(complex(a), z0, depth + 10, bailout)
        got, leave = expmap._track(complex(a), z0, depth + 10, bailout)
        assert got == zs
        assert expmap._towers(complex(a), zs, leave) == mags

    def test_late_escape_is_bounded_within_depth(self):
        assert first_bailout_crossing(P2.a, LATE_ESCAPE, 1e10) == 13
        got = classify_point(P2, LATE_ESCAPE, depth=10)
        assert isinstance(got, NonEscapingBounded)

    def test_basin_seed_builds_no_tower(self, monkeypatch):
        calls = []
        from_real_array = classify.from_real_array

        def counting(x):
            calls.append(x)
            return from_real_array(x)

        monkeypatch.setattr(classify, "from_real_array", counting)
        assert classify_point(P2, -2 + 0j) == Basin(period=1)
        assert calls == []
        # The counter sees the tower of an escaping seed.
        classify_point(P2, 10 + 0j)
        assert calls

    @pytest.mark.parametrize("a", [-2, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j])
    def test_towers_stop_soon_after_the_exit(self, monkeypatch, a):
        # The scalar twin of the render kernel's work bound: an escaping
        # seed's offset settles within a few growth-model steps, not one
        # step per iterate up to depth.
        p = Params(a)
        classify._domination_table(p.a, 100)  # its towers are not the seeds'
        steps = []
        exp_plus, exp_plus_array = TowerReal.exp_plus, classify.exp_plus_array

        def counting(t, c):
            steps.append(1)
            return exp_plus(t, c)

        def counting_array(level, mantissa, c):
            steps.append(level.size)
            return exp_plus_array(level, mantissa, c)

        monkeypatch.setattr(TowerReal, "exp_plus", counting)
        monkeypatch.setattr(classify, "exp_plus_array", counting_array)
        rng = np.random.default_rng(0)
        seeds = rng.uniform(-4, 10, 200) + 1j * rng.uniform(-12, 12, 200)
        escaping = 0
        for z in seeds.tolist():
            steps.clear()
            got = classify_point(p, z, depth=100)
            if isinstance(got, (FastEscaping, EscapingSlow)):
                escaping += 1
                assert sum(steps) <= 4, z
        assert escaping > 0


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


class TestFastOffset:
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


class TestDominationTable:
    """Past level 0 each entry is the exact shift of the one before it.

    The render kernel settles a leaving pixel's offset on this premise.
    """

    @staticmethod
    def _assert_shifts(a, depth):
        # keys are level + i*mantissa
        keys, _ = classify._domination_table(complex(a), depth)
        for prev, entry in zip(keys, keys[1:]):
            if prev.real >= 1:
                assert entry == prev + 1, (a, depth)

    @pytest.mark.parametrize("a", [-2, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j])
    def test_figure_parameters(self, a):
        self._assert_shifts(a, 200)

    @settings(max_examples=40, deadline=None)
    @given(
        st.builds(complex, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
        st.integers(1, 200),
    )
    def test_any_parameter(self, a, depth):
        self._assert_shifts(a, depth)


def _searched_bound(a, depth, k, mag):
    """``_direct_bound`` by one search over the sorted level-0 entries: the oracle."""
    ground = classify._domination_table(a, depth)[1]
    return k + 1 - np.searchsorted(ground, mag, side="right")


class TestDirectBound:
    """``_direct_bound`` counts comparisons with the level-0 entries, ties included."""

    @staticmethod
    def _assert_matches_search(a, depth, extra=()):
        a = complex(a)
        ground = classify._domination_table(a, depth)[1]
        mags = np.concatenate(
            [
                ground,
                np.nextafter(ground, 0.0),
                np.nextafter(ground, np.inf),
                [0.0, 1e15 - 8, np.nextafter(1e15, 0.0), 1e15, np.inf],
                np.asarray(extra, dtype=float),
            ]
        )
        ks = [0, 127, 128, 255, 256, 10**6, np.arange(mags.size), 10**6 - np.arange(mags.size)]
        for k in ks:
            got = classify._direct_bound(a, depth, k, mags)
            assert got.dtype == np.int64
            assert np.array_equal(got, _searched_bound(a, depth, k, mags)), (a, depth, k)
        for k in (0, 10**6, np.arange(0)):
            got = classify._direct_bound(a, depth, k, np.empty(0))
            assert got.shape == (0,) and got.dtype == np.int64

    @pytest.mark.parametrize("a", [-2, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j])
    @pytest.mark.parametrize("depth", [1, 60, 200])
    def test_figure_parameters(self, a, depth):
        self._assert_matches_search(a, depth)

    @settings(max_examples=30, deadline=None)
    @given(
        st.builds(complex, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
        st.integers(1, 200),
        st.lists(st.floats(0.0, 1e15), max_size=20),
    )
    def test_any_parameter(self, a, depth, extra):
        self._assert_matches_search(a, depth, extra)


@st.composite
def _leavers(draw):
    """``(a, depth, bailout, steps, z, bound)``: orbits leaving at steps ``0 .. depth``.

    Some last direct points have ``Re z > 700`` with ``|z|`` within the
    bailout and below 1e15, the case the growth model starts from ``(0, Re z)``.
    """
    a = draw(st.builds(complex, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)))
    depth = draw(st.integers(1, 200))
    bailout = draw(st.sampled_from([1e-3, 0.5, 34.5, 1e4, 1e10, 1e15]))
    point = st.one_of(
        st.builds(complex, st.floats(-1e15, 1e15), st.floats(-1e15, 1e15)),
        st.builds(complex, st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
        st.builds(complex, st.floats(700.0, 1e4, exclude_min=True), st.floats(-10.0, 10.0)),
    )
    orbits = draw(
        st.lists(st.tuples(st.integers(0, depth), point, st.integers(0, depth)), max_size=24)
    )
    steps = np.array([n for n, _, _ in orbits], dtype=np.int64)
    z = np.array([w for _, w, _ in orbits], dtype=complex)
    bound = np.array([b for _, _, b in orbits], dtype=np.int64)
    return a, depth, bailout, steps, z, bound


class TestSettleBound:
    """``_settle_bound`` over many leave steps at once, as the render kernel calls it."""

    @settings(max_examples=60, deadline=None)
    @given(_leavers())
    @example((1.004 + 2.9j, 60, 1e10, np.array([60, 60, 59]), np.array([1e11, 800 + 1j, 3e3]),
              np.array([57, 0, 2])))
    @example((-2 + 0j, 60, 1e15, np.array([0, 7, 60]), np.array([701 + 0j, 702 - 3j, 705 + 2j]),
              np.array([0, 3, 5])))
    def test_matches_one_call_per_step(self, case):
        a, depth, bailout, steps, z, bound = case
        # the alone flags the callers keep from their one switch test
        alone = expmap._leaves(z.real, np.hypot(z.real, z.imag), bailout)[2]
        got = classify._settle_bound(a, depth, steps, z, alone, bound)
        assert got.shape == z.shape and got.dtype == np.int64
        want = [
            int(classify._settle_bound(a, depth, int(n), z[i : i + 1], alone[i], bound[i])[0])
            for i, n in enumerate(steps.tolist())
        ]
        assert got.tolist() == want

    def test_empty(self):
        got = classify._settle_bound(
            -2 + 0j, 60, np.empty(0, dtype=np.int64), np.empty(0, dtype=complex),
            np.empty(0, dtype=bool), np.empty(0, dtype=np.int64),
        )
        assert got.shape == (0,) and got.dtype == np.int64


def _replayed(a: complex, cycle: tuple[complex, ...], mult: complex) -> complex:
    """Check ``cycle`` and ``mult`` against a replay, bit for bit; return the closing point.

    The replay is ``c_{i+1} = exp(c_i) + a`` from ``cycle[0]`` and the in-order
    product of ``exp(c_i)``; the closing point is ``exp(c_{p-1}) + a``.
    """
    w, want_cycle, want_mult = cycle[0], [], complex(1.0)
    for _ in cycle:
        want_cycle.append(w)
        e = cmath.exp(w)
        want_mult *= e
        w = e + a
    bits = lambda zs: [(z.real.hex(), z.imag.hex()) for z in zs]
    assert bits(cycle) == bits(want_cycle)
    assert bits([mult]) == bits([want_mult])
    return w


class TestFindCycle:
    @pytest.mark.parametrize("a", FIGURE_PARAMS)
    def test_figure_cycles_equal_their_replay(self, a):
        p = Params(a=a)
        verdict = classify_param(p)
        assert isinstance(verdict, Attracting)
        _replayed(a, verdict.cycle, verdict.multiplier)
        cycle, mult = find_cycle(p, verdict.cycle[0] + 1e-3, verdict.period)
        assert len(cycle) == verdict.period
        assert abs(_replayed(a, cycle, mult) - cycle[0]) < 1e-10
        assert abs(cycle[0] - verdict.cycle[0]) < 1e-8

    def test_cycle_after_a_rejected_candidate_equals_its_replay(self):
        # the start point of test_line_search_halves_past_an_overflow: the full
        # Newton step is rejected, so the cycle must come from an accepted one
        cycle, mult = find_cycle(P2, 1e-3 + 0j, 1)
        assert abs(_replayed(-2 + 0j, cycle, mult) - cycle[0]) < 1e-10

    def test_cycle_point_past_the_overflow_line_raises(self):
        # a = 705 - e^705 puts a fixed point at 705, where exp still has a float
        # form; the loose tol accepts the start point as it is
        with pytest.raises(OverflowError):
            find_cycle(Params(a=705 - cmath.exp(705)), 705 + 0j, 1, tol=1e3)

    def test_refines_attracting_fixed_point(self):
        cycle, mult = find_cycle(P2, -1.8 + 0j, 1)
        assert cycle[0].real == pytest.approx(ATTRACTING_FP, abs=1e-12)
        assert cycle[0].imag == pytest.approx(0.0, abs=1e-12)
        assert mult == pytest.approx(0.15859433956303937, abs=1e-12)

    def test_refines_repelling_fixed_point(self):
        cycle, mult = find_cycle(P2, 1.1 + 0j, 1, tol=1e-13)
        assert cycle[0].real == pytest.approx(REPELLING_FP, abs=1e-12)
        assert abs(mult) > 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError, match="period"):
            find_cycle(P2, -1.8 + 0j, 0)
        for tol in (0.0, -1e-10, math.nan):
            with pytest.raises(ValueError, match="tol"):
                find_cycle(P2, -1.8 + 0j, 1, tol=tol)

    @pytest.mark.parametrize("z_init, period", [(800 + 0j, 1), (705 + 0j, 2)])
    def test_overflowing_initial_point(self, z_init, period):
        with pytest.raises(ConvergenceError, match="initial point overflows"):
            find_cycle(P2, z_init, period)

    def test_vanished_derivative(self):
        # f(z) - z = e^z + 1 - z has derivative e^0 - 1 = 0 at z = 0, where
        # the residual is 2
        with pytest.raises(ConvergenceError, match="derivative vanished"):
            find_cycle(Params(a=1.0), 0j, 1)

    def test_line_search_halves_past_an_overflow(self):
        # the full Newton step from 1e-3 lands at Re z = 999.5, where exp
        # overflows; halved steps reach the repelling fixed point instead
        z = 1e-3 + 0j
        assert (z - (cmath.exp(z) - 2 - z) / (cmath.exp(z) - 1)).real > 710
        cycle, mult = find_cycle(P2, z, 1)
        assert cycle[0].real == pytest.approx(REPELLING_FP, abs=1e-12)
        assert abs(mult) > 1.0

    def test_no_convergence_after_200_steps(self):
        # from Re z = 600 each Newton step on e^z - z moves left by about 1
        with pytest.raises(ConvergenceError, match="no convergence after 200 Newton steps"):
            find_cycle(Params(a=0.0), 600 + 0j, 1)

    def test_multiplier_is_product_of_derivatives(self):
        p = Params(a=5 + 3.14j)
        verdict = classify_param(p)
        assert isinstance(verdict, Attracting) and verdict.period == 2
        cycle, mult = find_cycle(p, verdict.cycle[0], 2)
        assert mult == pytest.approx(cmath.exp(cycle[0] + cycle[1]), rel=1e-9)

    @pytest.mark.parametrize("a", FIGURE_PARAMS)
    def test_figure_multiplier_is_find_cycles_own(self, a):
        # from its own first point, find_cycle accepts the cycle at once and
        # returns the multiplier its Newton walk computed, bit for bit
        p = Params(a=a)
        verdict = classify_param(p)
        assert isinstance(verdict, Attracting)
        cycle, mult = find_cycle(p, verdict.cycle[0], verdict.period, classify.PARAM_REFINE_TOL)
        assert cycle == verdict.cycle
        assert verdict.multiplier == mult


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

    def test_huge_singular_value_escapes_at_once(self):
        for a in (1e300, -1e300, 1e300j, -1e300 - 1e300j):
            assert classify_param(Params(a)) == SingularValueEscapes(first_exit_step=1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            classify_param(P2, max_period=0)
        with pytest.raises(ValueError):
            classify_param(P2, depth=99)


def _detect_revisit_by_scan(zs):
    """The O(n^2) revisit search over every earlier point: the oracle."""
    pts = np.asarray(zs, dtype=complex)
    repel_cut = math.log1p(classify.PARABOLIC_BAND)
    for j in range(1, len(pts)):
        hits = np.nonzero(np.abs(pts[:j] - pts[j]) < classify.REVISIT_TOL)[0]
        if hits.size:
            i = int(hits[0])
            log_mult = float(np.sum(pts[i:j].real))
            if log_mult > repel_cut:
                return PostsingularlyFinite(preperiod=i, period=j - i)
    return None


def _singular_orbit(a, depth=2000):
    """The points ``classify_param`` hands to the revisit search."""
    zs, z = [a], a
    for _ in range(depth):
        if z.real > classify.RE_OVERFLOW:
            break
        z = cmath.exp(z) + a
        if abs(z) >= classify.MAG_GUARD:
            break
        zs.append(z)
    return zs


REPEL_CUT = math.log1p(classify.PARABOLIC_BAND)
# Half of REVISIT_TOL and the double below it: doubling is exact, so pairs
# at +-these straddle the cell edge at 0 at distances of exactly 1e-10 and
# of the double just below it.
HALF_TOL = 5e-11
HALF_TOL_BELOW = math.nextafter(HALF_TOL, 0.0)
# An undetermined parameter of the survey box: the singular orbit settles
# on an attracting 34-cycle that the period-32 cycle search does not see,
# so nearly 2 000 revisits are found, none of them repelling.
LONG_CYCLE_A = 0.9519214602862136 + 1.6941442674396188j
PSF_A = complex(math.log(math.pi), math.pi / 2)
AFTER_OFFSET = [0.3 + 5j] + [complex(math.nextafter(REPEL_CUT, 1.0), 0.0)] * 2


@st.composite
def _clustered_orbits(draw):
    """Points scattered around a few centres, so revisits near REVISIT_TOL occur."""
    coord = st.one_of(
        st.floats(-5.0, 5.0),
        st.sampled_from(
            [0.0, REPEL_CUT, -REPEL_CUT, 3 * 2.0**-30, 1e15 - 0.5, -1e15 + 2, 1e300, -1e300]
        ),
    )
    centres = draw(st.lists(st.builds(complex, coord, coord), min_size=1, max_size=4))
    offset = st.sampled_from(
        [0.0, HALF_TOL, -HALF_TOL, HALF_TOL_BELOW, -HALF_TOL_BELOW, 1e-10, 2e-10, 4e-10]
    )
    picks = draw(st.lists(st.tuples(st.sampled_from(centres), offset, offset), max_size=40))
    return [c + complex(dx, dy) for c, dx, dy in picks]


class TestRevisitSearch:
    """The cell search finds the revisit the quadratic scan finds."""

    @given(_clustered_orbits())
    @example([complex(2.0, -HALF_TOL), 1 + 3j, complex(2.0, HALF_TOL)])
    @example([complex(2.0, -HALF_TOL_BELOW), 1 + 3j, complex(2.0, HALF_TOL_BELOW)])
    @example([complex(1e15 - 0.5, -HALF_TOL_BELOW), 1 + 3j, complex(1e15 - 0.5, HALF_TOL_BELOW)])
    @example([complex(-HALF_TOL, 1e15 - 2), 1 + 3j, complex(HALF_TOL, 1e15 - 2)])
    @example([complex(REPEL_CUT, 0.0)] * 2)
    @example([complex(math.nextafter(REPEL_CUT, 1.0), 0.0)] * 2)
    @example(AFTER_OFFSET)
    def test_matches_quadratic_scan(self, zs):
        assert classify._detect_revisit(zs) == _detect_revisit_by_scan(zs)

    @given(st.builds(complex, st.floats(0.5, 1.5), st.floats(1.5, 3.5)))
    @settings(max_examples=25)
    @example(LONG_CYCLE_A)
    @example(PSF_A)
    def test_matches_quadratic_scan_on_singular_orbits(self, a):
        zs = _singular_orbit(a)
        assert classify._detect_revisit(zs) == _detect_revisit_by_scan(zs)

    def test_cell_edge_pairs(self):
        # Exactly 1e-10 apart is not a revisit; the double below it is.
        at = [complex(2.0, -HALF_TOL), 1 + 3j, complex(2.0, HALF_TOL)]
        below = [complex(2.0, -HALF_TOL_BELOW), 1 + 3j, complex(2.0, HALF_TOL_BELOW)]
        assert classify._detect_revisit(at) is None
        assert classify._detect_revisit(below) == PostsingularlyFinite(preperiod=0, period=2)

    @pytest.fixture
    def np_sums(self, monkeypatch):
        calls = []

        def counting(x, *args, **kwargs):
            calls.append(len(x))
            return np.sum(x, *args, **kwargs)

        fake_np = SimpleNamespace(asarray=np.asarray, abs=np.abs, sum=counting)
        monkeypatch.setattr(classify, "np", fake_np)
        return calls

    def test_window_at_the_cut_runs_the_exact_sum(self, np_sums):
        # The window sum equals the cut, within the rounding bound of the
        # prefix estimate: the exact sum decides, and it is not above.
        assert classify._detect_revisit([complex(REPEL_CUT, 0.0)] * 2) is None
        assert np_sums == [1]
        nudged = [complex(math.nextafter(REPEL_CUT, 1.0), 0.0)] * 2
        assert classify._detect_revisit(nudged) == PostsingularlyFinite(preperiod=0, period=1)
        # After a point with Re z = 0.3 the prefix estimate of the same
        # window rounds below the cut; the exact sum is above it.
        assert classify._detect_revisit(AFTER_OFFSET) == PostsingularlyFinite(1, 1)
        assert np_sums == [1, 1, 1]

    def test_attracting_revisits_need_no_exact_sum(self, np_sums):
        zs = _singular_orbit(LONG_CYCLE_A)
        assert len(zs) == 2001
        assert classify._detect_revisit(zs) is None
        assert np_sums == []
        # Yet almost every step revisits an earlier point.
        pts = np.asarray(zs)
        revisits = sum(
            bool(np.any(np.abs(pts[:j] - pts[j]) < classify.REVISIT_TOL))
            for j in range(1, len(pts))
        )
        assert revisits > 1900
        assert classify_param(Params(LONG_CYCLE_A)) == Undetermined()


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
