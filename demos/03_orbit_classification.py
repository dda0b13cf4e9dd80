"""
Classifying single orbits: basins, slow escape, fast escape
===========================================================

Each seed is iterated under z -> e^z + a and sorted into one of four
verdicts: attracted to a cycle, bounded without visible attraction,
escaping past the bailout, or escaping so fast that the orbit dominates
the iterated maximum modulus from some offset on (the certificate that
the point lies in the fast escaping set).
"""

from expbouquet import Params, classify_point, fast_escape_test, orbit, orbit_to_csv, report_line

p = Params(a=-2 + 0j)

# A tour of seeds with qualitatively different fates.
for z0 in (-2 + 0j, 0.5 + 0j, 10 + 0j, 1.2 + 0j, 2 + 12j):
    verdict = classify_point(p, z0)
    print(f"z0 = {z0!s:>8} -> {report_line(verdict)}")

# The fast-escape certificate is the least offset ell such that from
# step ell on the orbit's magnitude dominates the iterated maximum
# modulus sequence started at the base radius.
for z0 in (10 + 0j, 1.2 + 0j):
    ell = fast_escape_test(p, z0, depth=40)
    print(f"fast_escape_test({z0}) -> ell = {ell}")

# Orbits themselves are available with tower magnitudes; `status`
# flips to "overflowed" once the values leave the complex plane's
# float range while the magnitude track keeps going.
samples = orbit(p.a, 1.2 + 0j, depth=8)
print("\n n  z (if representable)            log-magnitude tower   status")
for s in samples:
    z_txt = f"{s.z.real:+.3e}{s.z.imag:+.3e}i" if s.z is not None else "-" * 22
    print(f"{s.n:2d}  {z_txt:28}  {s.log_mag!s:20}  {s.status}")

# The same data serializes to CSV for plotting elsewhere.
print("\nCSV head:")
print("\n".join(orbit_to_csv(samples).splitlines()[:4]))
