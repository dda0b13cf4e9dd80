"""
Tower arithmetic: exact comparisons far beyond float range
==========================================================

A handful of exponential steps takes any orbit magnitude past 1e308,
where ordinary floats give up.  The tower representation stores such a
magnitude as "exp applied `level` times to `mantissa`" and keeps exact
order comparisons the whole way.
"""

import math

from expbouquet import TowerReal

# Ordinary numbers stay at level 0 and behave like floats.
x = TowerReal.from_real(1234.5)
print("level-0 value:", x, "->", x.value())

# exp() of a level-0 tower promotes once the result would leave the
# comfortable float range; a chain of exps just raises the level.
t = TowerReal.from_real(3.0)
for step in range(6):
    print(f"exp^{step}(3) = {t}  (float value: {t.value()})")
    t = t.exp()

# Comparisons remain exact even when both sides print as inf.
a = TowerReal.from_real(700.0).exp().exp()  # exp(exp(700))
b = TowerReal.from_real(699.0).exp().exp()  # exp(exp(699))
print("exp(exp(700)) > exp(exp(699)):", a.cmp(b) == 1)
print("both are float-infinite:", math.isinf(a.value()) and math.isinf(b.value()))

# exp_plus(c) models the orbit step magnitude exp(x) + c without ever
# forming the unrepresentable intermediate.
m = TowerReal.from_real(50.0)
print("exp(50) + 2 as a tower:", m.exp_plus(2.0))
