"""Level-index ("tower") arithmetic for magnitudes that outgrow floats.

A ``TowerReal`` stores a real number as ``exp`` applied ``level`` times to a
float ``mantissa``:

    value = exp(exp(... exp(mantissa) ...))      (level nestings)

Orbits of z -> e^z + a square the exponent every step, so after two or three
steps past the float range the only operations that still make sense are
"apply exp", "apply ln", and "compare".  That is exactly the interface here:
no addition or multiplication is provided, by design.

Normalization keeps representations unique and comparison lexicographic:

  * level 0 holds any finite real with |value| < H (promotion threshold);
  * level >= 1 requires mantissa >= ln(H), so every represented value at
    level L >= 1 is at least H and ordering by (level, mantissa) agrees with
    ordering by value.

Values >= H entering at level 0 are promoted to (1, ln value).  Negative and
small values only ever live at level 0.  Mantissas stay below H at every
level, so a value too large for level L is always at level L + 1.

Next to the scalar class, ``from_real_array`` and ``exp_plus_array`` apply
the same rules, bit for bit, to (level, mantissa) NumPy arrays of finite
magnitudes >= 0 for the rasterizer.  Towers feed fast-escape comparisons
only; when an orbit escapes is read from the orbit itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["H", "LN_H", "TowerReal"]

# Promotion threshold: level-0 mantissas stay below H, level>=1 towers are >= H.
H = 1e15
LN_H = math.log(H)
# Largest level-0 mantissa for which exp() is evaluated directly; above this
# the mantissa is carried to level 1 unchanged (exp(m) has no float form but
# (1, m) is exact by definition).  The orbit track's Re z limit
# (``expmap.RE_OVERFLOW``) is this constant, so the tower (0, Re z) of a
# point past it steps to exactly (1, Re z).
_EXP_DIRECT_MAX = 700.0


@dataclass(frozen=True, slots=True, order=True)
class TowerReal:
    """Normalized level-index real: value = exp^level(mantissa).

    Towers order as ``(level, mantissa)`` tuples, which under normalization
    is the order of their values; :meth:`cmp` reads the same order.
    """

    level: int
    mantissa: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"tower level must be >= 0, got {self.level}")
        if not math.isfinite(self.mantissa):
            raise ValueError(f"tower mantissa must be finite, got {self.mantissa}")
        if self.level >= 1 and self.mantissa < LN_H:
            raise ValueError(
                f"level-{self.level} mantissa {self.mantissa} below ln(H)={LN_H:.6f};"
                " use TowerReal.normalized"
            )
        if abs(self.mantissa) >= H:
            raise ValueError(
                f"level-{self.level} mantissa {self.mantissa} at or above H={H:g};"
                " use TowerReal.normalized"
            )

    # ---- construction ----

    @classmethod
    def from_real(cls, x: float) -> "TowerReal":
        """Represent an ordinary float; promotes to level 1 at |x| >= H.

        Only x >= H promotes (x <= -H would need a negative tower, which the
        representation excludes; such magnitudes do not arise from |.|).
        """
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"cannot represent non-finite value {x}")
        if x >= H:
            return cls(1, math.log(x))
        if x <= -H:
            raise ValueError(f"negative values of magnitude >= H are unrepresentable: {x}")
        return cls(0, x)

    @classmethod
    def normalized(cls, level: int, mantissa: float) -> "TowerReal":
        """Normalize an arbitrary (level, mantissa) pair to canonical form.

        Demotes levels whose mantissa is below ln(H) by evaluating exp, and
        promotes mantissas at or above H by one level (ln of any finite
        float is below H).  Idempotent.
        """
        level = int(level)
        mantissa = float(mantissa)
        if level < 0:
            raise ValueError(f"tower level must be >= 0, got {level}")
        while level >= 1 and mantissa < LN_H:
            mantissa = math.exp(mantissa)  # < H, stays finite
            level -= 1
        if level == 0:
            return cls.from_real(mantissa)
        if mantissa >= H:
            return cls(level + 1, math.log(mantissa))
        return cls(level, mantissa)

    # ---- arithmetic (exp / ln only) ----

    def exp(self) -> "TowerReal":
        """exp of the represented value: :meth:`exp_plus` with ``c = 0``.

        Level >= 1 or mantissa >= ln(H): the level increments and the
        mantissa is preserved exactly (no round trip through float exp).
        """
        return self.exp_plus(0.0)

    def exp_plus(self, c: float) -> "TowerReal":
        """Tower form of exp(value) + c for c >= 0.

        The additive correction folds into the mantissa as
        ln(e^m + c) = m + log1p(c*e^-m) whenever that is representable; past
        the float range (level >= 1, where value >= 1e15) the correction is
        below one ulp of the mantissa and is dropped.
        """
        if c < 0:
            raise ValueError(f"additive correction must be >= 0, got {c}")
        if self.level >= 1:
            return TowerReal(self.level + 1, self.mantissa)
        m = self.mantissa
        if m < LN_H:
            return TowerReal.from_real(math.exp(m) + c)  # e^m < H, sum < H + c
        if m <= _EXP_DIRECT_MAX:
            return TowerReal(1, m + math.log1p(c * math.exp(-m)))
        return TowerReal(1, m)  # c*e^-m underflows: correction is exactly 0.0

    def ln(self) -> "TowerReal":
        """ln of the represented value; requires value > 0."""
        if self.level >= 1:
            return TowerReal.normalized(self.level - 1, self.mantissa)
        if self.mantissa <= 0.0:
            raise ValueError(f"ln of non-positive tower value {self.mantissa}")
        return TowerReal(0, math.log(self.mantissa))

    # ---- comparison: lexicographic == value order under normalization ----

    def cmp(self, other: "TowerReal") -> int:
        """-1, 0, or 1 as self <, ==, > other (exact, no tolerance), in the dataclass order."""
        if self.level != other.level:
            return 1 if self.level > other.level else -1
        return (self.mantissa > other.mantissa) - (self.mantissa < other.mantissa)

    # ---- conversion / display ----

    def value(self) -> float:
        """Float value when representable, else +inf."""
        if self.level == 0:
            return self.mantissa
        if self.level == 1 and self.mantissa <= _EXP_DIRECT_MAX:
            return math.exp(self.mantissa)
        return math.inf

    def __str__(self) -> str:
        return f"T({self.level};{self.mantissa:.17g})"


def from_real_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise :meth:`TowerReal.from_real` for magnitudes ``x >= 0``."""
    big = x >= H
    mantissa = x.copy()
    mantissa[big] = [math.log(v) for v in x[big].tolist()]
    return big.astype(np.int64), mantissa


def exp_plus_array(
    level: np.ndarray, mantissa: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise :meth:`TowerReal.exp_plus`, bit for bit.

    The shift ``(L, m) -> (L + 1, m)`` of level ``>= 1`` and of level-0
    mantissas past the direct limit is vectorized; every other entry is
    ``TowerReal(0, m).exp_plus(c)`` itself (NumPy's ``exp``, ``log`` and
    ``log1p`` may round one ulp away from the scalar method's ``math``).
    Only bailouts below the direct limit reach those entries.
    """
    out_level, out_mantissa = level + 1, mantissa.copy()
    for i in np.flatnonzero((level == 0) & (mantissa <= _EXP_DIRECT_MAX)).tolist():
        t = TowerReal(0, float(mantissa[i])).exp_plus(c)
        out_level[i], out_mantissa[i] = t.level, t.mantissa
    return out_level, out_mantissa
