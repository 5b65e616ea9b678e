"""Monodromy of the ten-sheeted curve and its genus, computed two ways.

Continuing eta around 0, a, b permutes the ten sheets by the cyclic shifts
+8, +3, +9 (the numerators of the local exponents); a loop around infinity
does nothing.  Riemann-Hurwitz turns the total ramification 26 into genus
4, and the cell census of the curve as two glued copies of the star
reproduces the same genus from chi = -6.
"""

from starsurf.covering import (connectivity_check, genus_riemann_hurwitz,
                               monodromy, ramification_report,
                               total_ramification)
from starsurf.quotient import quotient_euler_genus

print("monodromy permutations (image of sheet 0 shown):")
for name in ("0", "a", "b", "inf"):
    perm = monodromy(name)
    print(f"  around {name:>3}: sheet 0 -> {perm(0)}, cycle type {perm.cycle_type()}")

print("\nramification:")
reports = ramification_report()
for rep in reports:
    print(f"  at {rep.point:>3}: local degree {rep.local_degree:>2}, "
          f"index {rep.ramification_index}")
r = total_ramification(reports)
print(f"  total r = {r}")

g = genus_riemann_hurwitz(reports)
print(f"\nRiemann-Hurwitz: r = 2*10 + 2g - 2  =>  g = {g}")

chi, g2, meta = quotient_euler_genus()
print(f"double-of-K census: V - E + F = {meta['V']} - {meta['E']} + {meta['F']} "
      f"= {chi}  =>  g = {g2}")
print(f"the two computations agree: {g == g2}")

print(f"\nsheets form one orbit under the monodromy group: "
      f"{connectivity_check()}")
print("(the curve is connected: gcd(8, 3, 9, 10) = 1)")
