"""Tests for the level/mantissa tower representation of huge magnitudes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expbouquet.towerfloat import (
    H,
    LN_H,
    TowerReal,
    exp_plus_array,
    from_real_array,
    gt_array,
)

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
# Valid towers at levels 0-3 (a mantissa at or above H moves up one level).
towers = st.builds(TowerReal.normalized, st.integers(min_value=0, max_value=3), magnitudes)
# Additive corrections: 0 and |a| of the four paper figure parameters.
CORRECTIONS = [0.0] + [abs(a) for a in (-2, 5 + 3.14j, 2.06 + 1.57j, 1.004 + 2.9j)]


def _bits(level, mantissa) -> tuple[int, str]:
    return int(level), float(mantissa).hex()


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
        lv, mt = from_real_array(np.array([x]))
        t = TowerReal.from_real(x)
        assert _bits(lv[0], mt[0]) == _bits(t.level, t.mantissa)

    @given(magnitudes)
    def test_exp_plus_array_matches_scalar(self, m):
        levels = [lv for lv in range(4) if m < H and (lv == 0 or m >= LN_H)]
        for t in (TowerReal(lv, m) for lv in levels):
            for c in CORRECTIONS:
                lv, mt = exp_plus_array(np.array([t.level]), np.array([t.mantissa]), c)
                want = t.exp_plus(c)
                if t.level == 0 and t.mantissa < LN_H:
                    # exp of a float: NumPy's vectorized exp and the C
                    # library's math.exp may round differently by 1 ulp.
                    assert int(lv[0]) == want.level
                    assert float(mt[0]) == pytest.approx(want.mantissa, rel=2.0**-51, abs=0.0)
                else:
                    assert _bits(lv[0], mt[0]) == _bits(want.level, want.mantissa)

    @given(towers, towers)
    def test_gt_array_matches_scalar_order(self, t, u):
        lv, mt = np.array([t.level, u.level]), np.array([t.mantissa, u.mantissa])
        gt = gt_array(lv, mt, lv[::-1], mt[::-1])
        assert gt.tolist() == [t > u, u > t]
        assert int(gt[0]) - int(gt[1]) == t.cmp(u)
