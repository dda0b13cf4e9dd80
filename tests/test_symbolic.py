"""Tests for external addresses, hair tracing, and separation machinery."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expbouquet import symbolic
from expbouquet.classify import FastEscaping, classify_point, find_cycle
from expbouquet.expmap import Params, eval_map
from expbouquet.symbolic import (
    ExternalAddress,
    HairPoint,
    PreconditionError,
    SeparationConfig,
    endpoint_estimate,
    find_domination_index,
    inverse_branch,
    itinerary,
    real_part_margin,
    separation_index,
    strip_index,
    trace_hair,
)
from expbouquet.towerfloat import TowerReal

P2 = Params(a=-2 + 0j)

REPELLING_FP = 1.1461932206205827
STRIP1_FP = complex(2.1310754576665873, 7.341435092197778)

NON_FINITE_ANCHORS = [math.nan, math.inf, complex(10.0, -math.inf), complex(math.nan, 0.0)]


class TestExternalAddress:
    def test_parse_and_str_round_trip(self):
        s = ExternalAddress.parse("0,1|2,3")
        assert s.prefix == (0, 1) and s.tail == (2, 3)
        assert str(s) == "0,1|2,3"
        assert ExternalAddress.parse(str(s)) == s

    def test_empty_prefix(self):
        s = ExternalAddress.parse("|0")
        assert s.prefix == () and s.tail == (0,)

    def test_tail_made_primitive(self):
        assert ExternalAddress((), (0, 1, 0, 1)).tail == (0, 1)

    def test_trailing_tail_copies_absorbed(self):
        assert ExternalAddress((0, 0), (0,)) == ExternalAddress((), (0,))
        assert ExternalAddress((5, 1), (0, 1)) == ExternalAddress((5,), (1, 0))
        # the whole prefix absorbed: the tail rotates down to an empty prefix
        assert ExternalAddress((1,), (0, 1)) == ExternalAddress((), (1, 0))
        assert ExternalAddress((), (1, 0)) != ExternalAddress((), (0, 1))

    def test_entries(self):
        s = ExternalAddress((7,), (0, 1))
        assert s.entries(6) == (7, 0, 1, 0, 1, 0)
        assert s.entry(0) == 7 and s.entry(4) == 1

    def test_entries_clipped(self):
        s = ExternalAddress((), (2**30,))
        assert s.tail == (2**20,)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            ExternalAddress.parse("0,1")
        with pytest.raises(ValueError):
            ExternalAddress.parse("0|")
        with pytest.raises(ValueError):
            ExternalAddress.parse("a|b")


class TestStripIndex:
    def test_center_strip(self):
        assert strip_index(0j) == 0
        assert strip_index(complex(5.0, 3.0)) == 0

    def test_boundaries_are_half_open_above(self):
        assert strip_index(complex(0.0, math.pi)) == 0
        assert strip_index(complex(0.0, math.nextafter(math.pi, 4.0))) == 1
        assert strip_index(complex(0.0, -math.pi)) == -1
        assert strip_index(complex(0.0, 3 * math.pi)) == 1

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_translation_by_two_pi(self, y):
        z = complex(1.0, y)
        assert strip_index(z + 2j * math.pi) == strip_index(z) + 1


class TestItinerary:
    def test_fixed_points(self):
        assert itinerary(P2, complex(REPELLING_FP, 0.0), 5) == (0, 0, 0, 0, 0)
        assert itinerary(P2, STRIP1_FP, 4) == (1, 1, 1, 1)

    def test_empty(self):
        assert itinerary(P2, 0j, 0) == ()


class TestInverseBranch:
    def test_inverts_the_map(self):
        w = complex(0.3, 0.4)
        for k in (-2, 0, 3):
            z = inverse_branch(P2, k, w)
            assert strip_index(z) == k
            assert eval_map(P2.a, z) == pytest.approx(w, abs=1e-12)

    def test_singular_value_rejected(self):
        with pytest.raises(ValueError):
            inverse_branch(P2, 0, P2.a)


class TestTraceHair:
    def test_residual_shrinks_with_depth(self):
        s = ExternalAddress((), (0,))
        r1 = trace_hair(P2, s, depth=6).residual
        r2 = trace_hair(P2, s, depth=12).residual
        assert r2 < r1

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            trace_hair(P2, ExternalAddress((), (0,)), depth=0)

    @pytest.mark.parametrize("anchor", NON_FINITE_ANCHORS)
    def test_non_finite_anchor_rejected(self, anchor):
        # Otherwise a NaN anchor comes back as a NaN point with converged=True.
        with pytest.raises(ValueError, match="finite"):
            trace_hair(P2, ExternalAddress((), (0,)), 3, anchor=anchor)


class TestEndpointEstimate:
    def test_zero_address_lands_on_repelling_fixed_point(self):
        ep = endpoint_estimate(P2, ExternalAddress((), (0,)), tol=1e-10)
        assert ep.converged
        assert ep.z == pytest.approx(complex(REPELLING_FP, 0.0), abs=1e-9)

    def test_one_address_lands_on_strip_one_fixed_point(self):
        ep = endpoint_estimate(P2, ExternalAddress((), (1,)), tol=1e-10)
        assert ep.converged
        assert ep.z == pytest.approx(STRIP1_FP, abs=1e-9)

    def test_preconditions(self):
        s = ExternalAddress((), (0,))
        with pytest.raises(ValueError):
            endpoint_estimate(P2, s, tol=1e-13)
        with pytest.raises(ValueError):
            endpoint_estimate(P2, s, max_depth=1)

    @pytest.mark.parametrize("anchor", NON_FINITE_ANCHORS)
    def test_non_finite_anchor_rejected(self, anchor):
        with pytest.raises(ValueError, match="finite"):
            endpoint_estimate(P2, ExternalAddress((0, 1), (0,)), anchor=anchor)


def _fresh_pullback(p, s, depth, anchor):
    """The branches ``s_{depth-1}, ..., s_0`` applied to ``anchor``, each looked up anew."""
    z = complex(anchor)
    for i in range(depth - 1, -1, -1):
        z = symbolic.inverse_branch(p, s.entry(i), z)
    return z


def _hair_by_fresh_pullbacks(p, s, depth, anchor=None):
    """``trace_hair`` pulling back from scratch at ``depth`` and ``depth - 1``: the oracle."""
    if anchor is None:
        anchor = max(10.0, p.radius)
    z = _fresh_pullback(p, s, depth, anchor)
    residual = abs(z - _fresh_pullback(p, s, depth - 1, anchor))
    return HairPoint(address=s, depth=depth, z=z, residual=residual)


def _endpoint_by_fresh_pullbacks(p, s, tol=1e-10, max_depth=512, anchor=None):
    """``endpoint_estimate`` redoing the whole pullback at every depth: the oracle."""
    if anchor is None:
        anchor = max(10.0, p.radius)
    prev = _fresh_pullback(p, s, 1, anchor)
    for depth in range(2, max_depth + 1):
        z = _fresh_pullback(p, s, depth, anchor)
        residual = abs(z - prev)
        if residual < tol:
            break
        prev = z
    return HairPoint(address=s, depth=depth, z=z, residual=residual, converged=residual < tol)


def _with_branch_count(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the ``inverse_branch`` calls it made through the module."""
    calls = []
    branch = symbolic.inverse_branch

    def counting(p, k, w):
        calls.append(k)
        return branch(p, k, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "inverse_branch", counting)
        return fn(*args, **kwargs), len(calls)


_entries = st.integers(min_value=-3, max_value=3)
_addresses = st.builds(
    ExternalAddress,
    st.lists(_entries, max_size=20).map(tuple),
    st.lists(_entries, min_size=1, max_size=3).map(tuple),
)
# Prefixes of 20 entries that no tail copy absorbs, so they stay 20 long.
PREFIX_20 = tuple(range(-3, 4)) * 2 + (-3, -2, -1, 0, 1, 2)


class TestEndpointIsExtendedNotRedone:
    """The running pullbacks give the oracle's points with no more calls."""

    @given(
        _addresses,
        st.sampled_from([1e-12, 1e-10, 1e-8, 1e-3, 0.5]),
        st.integers(min_value=2, max_value=60),
        st.sampled_from([None, 3.0, 25.0 + 4j]),
    )
    @example(ExternalAddress((), (0,)), 1e-10, 60, None)
    @example(ExternalAddress((), (1, -1)), 1e-10, 60, None)
    @example(ExternalAddress((), (2, 0, -3)), 1e-10, 60, None)
    @example(ExternalAddress(PREFIX_20, (1,)), 0.5, 60, None)
    @example(ExternalAddress(PREFIX_20, (1, 2, 3)), 1e-10, 60, None)
    @example(ExternalAddress(PREFIX_20, (0,)), 1e-12, 5, None)
    @example(ExternalAddress((3, 3, -2), (1, 0)), 1e-12, 2, None)
    def test_matches_fresh_pullbacks(self, s, tol, max_depth, anchor):
        got, calls = _with_branch_count(
            endpoint_estimate, P2, s, tol=tol, max_depth=max_depth, anchor=anchor
        )
        want, oracle_calls = _with_branch_count(
            _endpoint_by_fresh_pullbacks, P2, s, tol, max_depth, anchor
        )
        assert got == want
        assert calls <= oracle_calls

    def test_shallow_convergence_after_a_long_prefix(self):
        # Above the prefix's length nothing is shared: 1 + 2 + ... + depth.
        s = ExternalAddress(PREFIX_20, (1,))
        assert len(s.prefix) == 20
        got, calls = _with_branch_count(endpoint_estimate, P2, s, tol=0.5)
        assert got.converged and got.depth < 20
        assert calls == got.depth * (got.depth + 1) // 2

    def test_unconverged_at_max_depth(self):
        s = ExternalAddress((), (0,))
        got, calls = _with_branch_count(endpoint_estimate, P2, s, tol=1e-12, max_depth=5)
        assert not got.converged and got.depth == 5
        assert got.residual >= 1e-12
        # One branch per depth instead of 1 + 2 + ... + 5.
        assert calls == 5


class TestTraceHairLooksUpEachEntryOnce:
    """``trace_hair`` gives the oracle's point from one entry lookup per depth."""

    @given(
        _addresses,
        st.integers(min_value=1, max_value=40),
        st.sampled_from([None, 3.0, 25.0 + 4j]),
    )
    @example(ExternalAddress((), (0,)), 1, None)
    @example(ExternalAddress(PREFIX_20, (1, 2, 3)), 40, None)
    def test_matches_fresh_pullbacks(self, s, depth, anchor):
        looked_up = []
        entry = ExternalAddress.entry

        def counting(self, i):
            looked_up.append(i)
            return entry(self, i)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExternalAddress, "entry", counting)
            got, calls = _with_branch_count(trace_hair, P2, s, depth, anchor)
        assert got == _hair_by_fresh_pullbacks(P2, s, depth, anchor)
        assert calls == 2 * depth - 1
        assert sorted(looked_up) == list(range(depth))


class TestSeparationIndex:
    def test_equal_orbits_never_separate(self):
        assert separation_index(P2, 0j, 0j, depth=8) is None

    def test_first_strip_mismatch(self):
        z0 = complex(REPELLING_FP, 0.0)
        assert separation_index(P2, z0, STRIP1_FP, depth=8) == 0
        ep = endpoint_estimate(P2, ExternalAddress((0, 1), (0,)), tol=1e-9)
        assert separation_index(P2, z0, ep.z, depth=8) == 1

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            separation_index(P2, 0j, 1j, depth=0)


class TestRealPartMargin:
    def test_reference_value_is_exact(self):
        cfg = SeparationConfig(c=3.0, delta=2.0 * math.pi + 1.0)
        assert real_part_margin(P2, cfg) == 13.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeparationConfig(c=0.5, delta=7.0)
        with pytest.raises(ValueError):
            SeparationConfig(c=3.0, delta=6.0)

    @given(
        st.builds(
            complex,
            st.floats(min_value=-3.0, max_value=3.0),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
        st.floats(min_value=1.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_dominates_radius(self, a, c, extra):
        p = Params(a=a)
        cfg = SeparationConfig(c=c, delta=2.0 * math.pi + extra)
        assert real_part_margin(p, cfg) >= p.radius + 6.0


class TestFindDominationIndex:
    def test_reference_indices(self):
        fp = find_cycle(P2, -1.8 + 0j, 1)[0][0]
        assert find_domination_index(P2, 10 + 0j, fp, 1000.0, depth=64) == 1
        assert find_domination_index(P2, 10 + 0j, fp, 30000.0, depth=64) == 2

    def test_monotone_in_kappa(self):
        fp = find_cycle(P2, -1.8 + 0j, 1)[0][0]
        ns = [
            find_domination_index(P2, 10 + 0j, fp, k, depth=64)
            for k in (1e2, 1e3, 1e4, 3e4, 1e5)
        ]
        assert all(n is not None for n in ns)
        assert all(x <= y for x, y in zip(ns, ns[1:]))

    def test_preconditions(self):
        fp = find_cycle(P2, -1.8 + 0j, 1)[0][0]
        with pytest.raises(PreconditionError):
            find_domination_index(P2, fp, fp, 10.0, depth=16)
        with pytest.raises(PreconditionError):
            find_domination_index(P2, 10 + 0j, 11 + 0j, 10.0, depth=16)
        with pytest.raises(ValueError):
            find_domination_index(P2, 10 + 0j, fp, -1.0, depth=16)


class TestDoublePlus:
    def test_level_zero(self):
        assert symbolic._double_plus(TowerReal.from_real(3.0), 1.5) == TowerReal(0, 7.5)

    def test_level_one(self):
        got = symbolic._double_plus(TowerReal(1, 40.0), 1e3)
        assert got.level == 1
        assert got.mantissa == pytest.approx(math.log(2.0 * math.exp(40.0) + 1e3), rel=1e-15)
        # kappa * e^-745 is far below an ulp of 2, so only log 2 is added
        want = TowerReal(1, 800.0 + math.log(2.0))
        assert symbolic._double_plus(TowerReal(1, 800.0), 1e3) == want

    def test_level_two_is_unchanged(self):
        t = TowerReal(2, 40.0)
        assert symbolic._double_plus(t, 1e300) == t


class TestHairPointsAreNotFastEscaping:
    def test_endpoints_classify_bounded_or_slow(self):
        # Hair endpoints lie outside the fast-escaping set; at desk scale
        # their orbits stay near repelling cycles for many steps.
        for text in ("|0", "|1", "0,1|0"):
            ep = endpoint_estimate(P2, ExternalAddress.parse(text), tol=1e-9)
            got = classify_point(P2, ep.z, depth=12)
            assert not isinstance(got, FastEscaping)
