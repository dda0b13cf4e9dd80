"""
Maximum modulus on circles and its iterated growth
==================================================

For the map z -> e^z + a the largest magnitude on the circle |z| = r
has a nearly closed form: the maximizing point sits close to the
positive real axis, where e^r dominates everything else.  The library
finds it by locating the stationary angle; here we confirm it against
dense sampling and then watch the iterated values explode.
"""

import numpy as np

from expbouquet import Params, max_modulus, max_modulus_iterates

A = -2 + 0j
p = Params(a=A)
print("parameter a =", A, "| base radius R = 3 + 2|a| =", p.radius)

# Compare against brute force on a dense circle grid.
for r in (np.pi, 7.0, 20.0):
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 18, endpoint=False)
    brute = np.abs(np.exp(r * np.exp(1j * theta)) + A).max()
    exact = max_modulus(A, r)
    print(f"r={r:6.3f}  max_modulus={exact:.12e}  dense-grid={brute:.12e}")

# For a = -2 the maximum on |z| = r is e^r - 2 exactly (the maximizing
# point is z = r itself).
r = 7.0
print("closed form e^7 - 2 :", np.exp(7.0) - 2.0)
print("max_modulus(-2, 7)  :", max_modulus(A, r))

# Iterating r -> M(r) leaves floats almost immediately; the library
# returns towers instead.
towers = max_modulus_iterates(A, p.radius, 6)
for n, t in enumerate(towers):
    print(f"M^{n}(R) = {t}")
