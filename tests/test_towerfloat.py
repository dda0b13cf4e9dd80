"""Tests for the level/mantissa tower representation of huge magnitudes."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expbouquet.expmap import RE_OVERFLOW
from expbouquet.towerfloat import H, LN_H, TowerReal, exp_plus_array, from_real_array

representable = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-9.9e14, max_value=1.7e308
)

# Magnitudes weighted towards the branch boundaries of from_real and
# exp_plus: ln H, the direct-exp limit 700, and the promotion threshold H.
_BOUNDARIES = (LN_H, 700.0, H)
magnitudes = st.one_of(
    st.floats(min_value=0.0, max_value=1.7e308),
    st.sampled_from(
        [math.nextafter(b, d) for b in _BOUNDARIES for d in (0.0, math.inf)] + list(_BOUNDARIES)
    ),
    st.sampled_from(_BOUNDARIES).flatmap(lambda b: st.floats(b * 0.95, b * 1.05)),
)
# Additive corrections: 0 and |a| of the four paper figure parameters.
CORRECTIONS = [0.0] + [abs(a) for a in (-2, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j)]
# Arguments on which NumPy's vectorized exp and log round one ulp away from
# math.exp and math.log (NumPy 2.4 on x86-64), and a mantissa on which
# ``m + log1p(c * exp(-m))`` does so for c = 1e15.
NUMPY_EXP_DIFFERS = [5.2, 25.0, 31.4]
NUMPY_LOG_DIFFERS = [3688746720715471.5, 8679307923104017.0, 5.838703042070143e66]
NUMPY_LOG1P_TERM_DIFFERS = 35.441236296203535


def _bits(level, mantissa) -> tuple[int, str]:
    return int(level), float(mantissa).hex()


def _assert_from_real_array_matches(x):
    lv, mt = from_real_array(x)
    assert lv.shape == mt.shape == x.shape
    for i, xi in enumerate(x.tolist()):
        t = TowerReal.from_real(xi)
        assert _bits(lv[i], mt[i]) == _bits(t.level, t.mantissa)


def _assert_exp_plus_array_matches(level, mantissa, c):
    lv, mt = exp_plus_array(level, mantissa, c)
    assert lv.shape == mt.shape == level.shape
    for i, t in enumerate(map(TowerReal, level.tolist(), mantissa.tolist())):
        want = t.exp_plus(c)
        assert _bits(lv[i], mt[i]) == _bits(want.level, want.mantissa)


class TestConstruction:
    def test_level_zero_holds_any_finite_mantissa(self):
        t = TowerReal(0, -123.5)
        assert t.level == 0 and t.mantissa == -123.5

    def test_positive_level_requires_large_mantissa(self):
        with pytest.raises(ValueError):
            TowerReal(1, 1.0)
        assert TowerReal(1, LN_H).mantissa == LN_H

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            TowerReal(-1, 0.0)

    def test_mantissa_at_or_above_h_rejected(self):
        # Such a pair would sort below smaller values one level up.
        with pytest.raises(ValueError):
            TowerReal(1, 1e300)
        with pytest.raises(ValueError):
            TowerReal(2, H)

    def test_non_finite_mantissa_rejected(self):
        with pytest.raises(ValueError):
            TowerReal(0, math.nan)
        with pytest.raises(ValueError):
            TowerReal(0, math.inf)


class TestFromReal:
    def test_exact_below_threshold(self):
        assert TowerReal.from_real(123.5) == TowerReal(0, 123.5)
        assert TowerReal.from_real(-9e14) == TowerReal(0, -9e14)

    def test_promotes_at_threshold(self):
        assert TowerReal.from_real(H) == TowerReal(1, LN_H)
        t = TowerReal.from_real(2e306)
        assert t.level == 1 and t.mantissa == math.log(2e306)

    def test_rejects_unrepresentable(self):
        with pytest.raises(ValueError):
            TowerReal.from_real(-H)
        with pytest.raises(ValueError):
            TowerReal.from_real(math.inf)
        with pytest.raises(ValueError):
            TowerReal.from_real(math.nan)


class TestNormalized:
    def test_demotes_small_mantissa(self):
        assert TowerReal.normalized(1, 3.0) == TowerReal.from_real(math.exp(3.0))

    def test_promotes_mantissa_at_or_above_h(self):
        t = TowerReal.normalized(1, 1e300)
        assert t == TowerReal(2, math.log(1e300))
        assert t > TowerReal(2, 40.0)
        assert TowerReal.normalized(2, H) == TowerReal(3, LN_H)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TowerReal.normalized(1, math.inf)


class TestExp:
    def test_small_mantissa_goes_through_floats(self):
        assert TowerReal.from_real(0.0).exp() == TowerReal.from_real(1.0)

    def test_promoting_mantissa(self):
        t = TowerReal.from_real(40.0).exp()
        assert t.level == 1
        assert t.mantissa == pytest.approx(40.0, rel=1e-12)

    def test_large_mantissa_lifts_level_exactly(self):
        assert TowerReal(0, 800.0).exp() == TowerReal(1, 800.0)
        assert TowerReal(1, 800.0).exp() == TowerReal(2, 800.0)


class TestExpPlus:
    def test_matches_float_arithmetic_in_range(self):
        got = TowerReal.from_real(10.0).exp_plus(2.0)
        assert got.value() == pytest.approx(math.exp(10.0) + 2.0, rel=1e-12)

    def test_small_values_stay_exact(self):
        assert TowerReal.from_real(0.0).exp_plus(2.0) == TowerReal.from_real(3.0)

    def test_correction_dropped_past_direct_range(self):
        assert TowerReal(0, 710.0).exp_plus(5.0) == TowerReal(1, 710.0)

    def test_high_level_keeps_mantissa(self):
        assert TowerReal(1, 50.0).exp_plus(3.0) == TowerReal(2, 50.0)

    def test_negative_correction_rejected(self):
        with pytest.raises(ValueError):
            TowerReal.from_real(1.0).exp_plus(-0.5)

    @given(
        st.floats(min_value=RE_OVERFLOW, max_value=H, exclude_min=True, exclude_max=True),
        st.one_of(st.sampled_from(CORRECTIONS), st.floats(min_value=0.0, max_value=1e300)),
    )
    @example(math.nextafter(RE_OVERFLOW, math.inf), 1e300)
    def test_tower_past_re_overflow_steps_to_level_one(self, m, c):
        # The growth model's first step for a point with Re z > 700 starts
        # from the tower (0, Re z) and must give exactly (1, Re z).
        t = TowerReal(0, m).exp_plus(c)
        assert _bits(t.level, t.mantissa) == _bits(1, m)
        lv, mt = exp_plus_array(np.array([0]), np.array([m]), c)
        assert _bits(lv[0], mt[0]) == _bits(1, m)

    def test_re_overflow_is_the_last_corrected_mantissa(self):
        # At Re z = 700 itself the correction log1p(c e^-700) still applies
        # (visible for c = 1e300); one ulp above it is dropped.
        c = 1e300
        above = math.nextafter(RE_OVERFLOW, math.inf)
        want = RE_OVERFLOW + math.log1p(c * math.exp(-RE_OVERFLOW))
        assert want > above
        assert TowerReal(0, RE_OVERFLOW).exp_plus(c) == TowerReal(1, want)
        assert TowerReal(0, above).exp_plus(c) == TowerReal(1, above)
        lv, mt = exp_plus_array(np.array([0, 0]), np.array([RE_OVERFLOW, above]), c)
        assert lv.tolist() == [1, 1]
        assert mt.tolist() == [want, above]


class TestLn:
    def test_inverse_of_exp_on_floats(self):
        assert TowerReal.from_real(math.e).ln().mantissa == pytest.approx(1.0)

    def test_drops_level_exactly(self):
        assert TowerReal(1, 50.0).ln() == TowerReal(0, 50.0)
        assert TowerReal(2, 50.0).ln() == TowerReal(1, 50.0)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            TowerReal(0, 0.0).ln()
        with pytest.raises(ValueError):
            TowerReal(0, -3.0).ln()


class TestCompareAndValue:
    def test_orders_levels_then_mantissas(self):
        assert TowerReal.from_real(3.0).cmp(TowerReal.from_real(4.0)) == -1
        assert TowerReal(1, LN_H).cmp(TowerReal(0, 9e14)) == 1
        assert TowerReal(1, 40.0).cmp(TowerReal(1, 40.0)) == 0

    def test_cmp_is_the_sign_of_the_dataclass_order(self):
        rng = random.Random(0)
        # few mantissas per level, so equal levels and equal towers are common
        ground = [-9e14, -700.0, -2.5, -0.0, 0.0, 2.5, LN_H, 9e14]
        upper = [LN_H, 40.0, 700.0, 9e14]

        def draw() -> TowerReal:
            if rng.random() < 0.5:
                return TowerReal(0, rng.choice(ground))
            return TowerReal(rng.randint(1, 3), rng.choice(upper))

        pairs = [(draw(), draw()) for _ in range(4000)]
        assert any(t == u for t, u in pairs)
        assert any(t.level == u.level and t != u for t, u in pairs)
        assert any(t.mantissa < 0 and u.mantissa < 0 and t != u for t, u in pairs)
        for t, u in pairs:
            assert t.cmp(u) == (t > u) - (t < u)

    def test_rich_comparisons(self):
        small, big = TowerReal.from_real(1.0), TowerReal(2, 40.0)
        assert small < big and small <= big and big > small and big >= small

    def test_value(self):
        assert TowerReal.from_real(5.0).value() == 5.0
        assert TowerReal(1, 40.0).value() == math.exp(40.0)
        assert TowerReal(1, 800.0).value() == math.inf
        assert TowerReal(2, 40.0).value() == math.inf

    def test_str(self):
        assert str(TowerReal(1, 40.0)) == "T(1;40)"


class TestProperties:
    @given(representable)
    def test_value_round_trip(self, x):
        t = TowerReal.from_real(x)
        if abs(x) < H:
            assert t.value() == x

    @given(representable, representable)
    def test_cmp_matches_float_order(self, x, y):
        want = (x > y) - (x < y)
        assert TowerReal.from_real(x).cmp(TowerReal.from_real(y)) == want

    @given(representable, representable)
    def test_rich_comparisons_match_cmp(self, x, y):
        tx, ty = TowerReal.from_real(x), TowerReal.from_real(y)
        for t, u in ((tx, ty), (tx.exp(), ty), (tx.exp().exp(), ty.exp())):
            c = t.cmp(u)
            assert (t < u, t <= u, t > u, t >= u, t == u) == (
                c < 0, c <= 0, c > 0, c >= 0, c == 0
            )

    @given(representable, representable)
    def test_exp_never_inverts_order(self, x, y):
        tx, ty = TowerReal.from_real(x), TowerReal.from_real(y)
        c = tx.exp().cmp(ty.exp())
        assert c * tx.cmp(ty) >= 0

    @given(st.floats(min_value=-690.0, max_value=690.0))
    def test_ln_exp_round_trip(self, x):
        t = TowerReal.from_real(x)
        r = t.exp().ln()
        assert r.level == t.level
        assert r.mantissa == pytest.approx(x, rel=1e-12, abs=1e-12)

    @given(
        st.floats(min_value=-300.0, max_value=300.0),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_exp_plus_matches_float_sum(self, x, c):
        got = TowerReal.from_real(x).exp_plus(c)
        assert got.value() == pytest.approx(math.exp(x) + c, rel=1e-12)

    @given(representable, st.floats(min_value=0.0, max_value=1e6))
    def test_exp_plus_dominates_exp(self, x, c):
        t = TowerReal.from_real(x)
        assert t.exp_plus(c).cmp(t.exp()) >= 0

    @given(magnitudes)
    def test_from_real_array_matches_scalar(self, x):
        _assert_from_real_array_matches(np.array([x]))

    @given(magnitudes)
    def test_exp_plus_array_matches_scalar(self, m):
        levels = [lv for lv in range(4) if m < H and (lv == 0 or m >= LN_H)]
        for c in CORRECTIONS:
            _assert_exp_plus_array_matches(
                np.array(levels, dtype=np.int64), np.full(len(levels), m), c
            )

    @pytest.mark.parametrize(
        "level, mantissa",
        [
            ([], []),
            ([1, 2, 3, 7], [LN_H, 100.0, 700.5, 9.9e14]),  # level >= 1
            ([0] * 5, [0.0, 2.2250738585072014e-308, 1.0, 30.0, math.nextafter(LN_H, 0.0)]),
            ([0] * 4, [LN_H, 100.0, math.nextafter(700.0, 0.0), 700.0]),  # ln H .. 700
            ([0] * 3, [math.nextafter(700.0, math.inf), 1e3, 9.9e14]),  # past 700
            ([0] * 3, NUMPY_EXP_DIFFERS),
        ],
        ids=["empty", "all-up", "all-below-ln-H", "all-direct", "all-past-direct",
             "numpy-exp-differs"],
    )
    @pytest.mark.parametrize("c", CORRECTIONS)
    def test_exp_plus_array_on_single_branch_inputs(self, level, mantissa, c):
        level = np.array(level, dtype=np.int64)
        mantissa = np.array(mantissa, dtype=np.float64)
        _assert_exp_plus_array_matches(level, mantissa, c)

    def test_exp_plus_array_direct_branch_with_huge_correction(self):
        _assert_exp_plus_array_matches(
            np.zeros(1, dtype=np.int64), np.array([NUMPY_LOG1P_TERM_DIFFERS]), 1e15
        )

    @pytest.mark.parametrize(
        "x",
        [[], [0.0, 1.0, math.nextafter(H, 0.0)], [H, 1e100, 1.7e308], NUMPY_LOG_DIFFERS],
        ids=["empty", "all-below-H", "all-from-H", "numpy-log-differs"],
    )
    def test_from_real_array_on_single_branch_inputs(self, x):
        _assert_from_real_array_matches(np.array(x, dtype=np.float64))
