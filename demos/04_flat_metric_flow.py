"""The flat pullback metric, its unit field, and the straightened flow.

Gamma = k^2/|eta|^2 |d xi|^2 makes the developing map an isometry onto the
triangle.  The field X = (eta/k) d/dxi has Gamma-norm one everywhere, and
its flow develops to straight unit-speed lines, so a flow is the inverse
map at a point of that line, found by Newton on the closed-form map;
running it long enough leaves the kite (the geodesic field is incomplete).
"""

import cmath
import random

from starsurf.conformal import SheetedPoint
from starsurf.metric import (Gamma, LeftDomain, chart, delta, delta_star,
                             developed_direction, flow, unit_field)

rng = random.Random(0)
print("Gamma(X, X) at five random sheeted points:")
for _ in range(5):
    p = SheetedPoint(complex(rng.uniform(0.2, 1.8), rng.uniform(0.3, 1.3)),
                     rng.randrange(10))
    print(f"  at (xi = {p.xi:.4f}, sheet {p.sheet}): "
          f"{Gamma(p, unit_field(p), unit_field(p)):.15f}")

p0 = SheetedPoint(1.1 + 0.9j, 0)
z0 = delta(p0)
print(f"\nflow from xi = {p0.xi}, sheet 0; developed start {z0:.6f}")
for t in (0.05, 0.1, 0.15):
    p1 = flow(p0, t)
    print(f"  t = {t:.2f}: developed image {delta(p1):.9f} "
          f"(defect {abs(delta(p1) - z0 - t):.2e})")

print("\nrotated direction alpha = e^{0.8i}:")
alpha = cmath.exp(0.8j)
for t in (0.05, 0.1):
    p1 = flow(p0, t, direction=alpha)
    print(f"  t = {t:.2f}: defect from the straight line "
          f"{abs(delta(p1) - z0 - t * alpha):.2e}")

print("\nsheet changes only the developed direction:")
for sheet in (0, 3, 7):
    p = SheetedPoint(1.1 + 0.9j, sheet)
    print(f"  sheet {sheet}: direction {developed_direction(p):.6f}")

print("\ncrossing (0, a) into the lower half-plane adds 2 to the sheet,")
print("and the star-level image delta_star moves straight on:")
p = SheetedPoint(0.3 + 0.05j, 0)
for t in (0.0, 0.02, 0.025, 0.05):
    p1 = flow(p, t, direction=-1j)
    print(f"  t = {t:.3f}: xi = {p1.xi:.6f}, sheet {p1.sheet}, "
          f"chart {chart(p1)}, delta_star {delta_star(p1):.6f}")

print("\nrunning for a long time leaves the kite:")
try:
    flow(p0, 6.0)
except LeftDomain as exc:
    print(f"  LeftDomain: {exc}")
