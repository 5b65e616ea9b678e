"""The upper half-plane mapped conformally onto the (1,2,7) triangle.

The map F_T(xi) = k int_0^xi dz/eta with eta^10 = xi^8 (xi-a)^3 (xi-b)^9
sends 0, a, b to the triangle corners O, A, B.  The constant k is pinned by
F_T(a) = a and comes out real and positive.  Under t = (b-a) xi / (a (b-xi))
the map is the incomplete beta function a I_t(1/5, 7/10), which F_T sums in
closed form; the corner angles below are measured by quadrature.
"""

import cmath
import math
import os

from starsurf.conformal import F_T, compute_k, corner_angle, eta
from starsurf.geometry import INNER_RADIUS, OUTER_RADIUS, build_star
from starsurf.svgout import map_grid_scene

k = compute_k()
print(f"normalization k = {k:.15f}")

print("\ncorner images:")
print(f"  F_T(0) = {F_T(0.0):.2e}")
print(f"  F_T(a) = {F_T(INNER_RADIUS):.12f}   (a = {INNER_RADIUS:.12f})")
B = OUTER_RADIUS * cmath.exp(1j * math.pi / 5)
print(f"  F_T(b) = {F_T(OUTER_RADIUS):.12f}")
print(f"  b e^(i pi/5) = {B:.12f}")
print(f"  defect |F_T(b) - B| = {abs(F_T(OUTER_RADIUS) - B):.2e}")

print("\ninterior angles recovered from the boundary images:")
for s, name, target in ((0.0, "O", 2 * math.pi / 10),
                        (INNER_RADIUS, "A", 7 * math.pi / 10),
                        (OUTER_RADIUS, "B", math.pi / 10)):
    ang = corner_angle(s)
    print(f"  at {name}: {ang:.9f} rad  (expected {target:.9f})")

# the ten branch values at a sample point differ by the phase e^{i pi/5}
xi = 0.3 + 0.4j
print(f"\nbranch values at xi = {xi}:")
for sheet in range(3):
    print(f"  sheet {sheet}: eta = {eta(xi, sheet):.9f}")
print("  ...")

os.makedirs("demos/output", exist_ok=True)
map_grid_scene(build_star(), 12).write("demos/output/map_grid.svg")
print("wrote demos/output/map_grid.svg (grid image inside the triangle)")
