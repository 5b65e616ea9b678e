"""From the icosahedron's vertices to the stellated pentagon.

Projecting the twelve vertices stereographically gives the planar set
{0, a eps^nu, -b eps^nu} with a = 2 cos(2 pi/5) and b = 2 cos(pi/5); the
nonzero points are exactly the ten vertices of the pentagram K built from
five rotated copies of the (1,2,7) triangle doubled across one edge.
"""

import math
import os
import pathlib

from starsurf.geometry import (PoleError, build_star, build_triangle,
                               icosahedron_vertices, point_location,
                               stereographic_project)
from starsurf.svgout import star_scene

# ---- the twelve vertices and their shadows in the plane
vertices = icosahedron_vertices()
print(f"{len(vertices)} projective vertices")
images = []
for p in vertices:
    try:
        images.append(stereographic_project(p))
    except PoleError:
        print("  [1:0] is the north pole; it has no shadow")
for z in sorted(images, key=abs):
    print(f"  projects to {z:.6f}  (|z| = {abs(z):.6f})")

# ---- the rational triangle
tri = build_triangle()
print("\n(1,2,7) triangle:")
print(f"  sides   a = {tri.a:.12f}, b = {tri.b:.12f}, c = {tri.c:.12f}")
print(f"  angles  {tri.alpha_frac} pi at B, {tri.beta_frac} pi at A, "
      f"{tri.gamma_frac} pi at O")
print(f"  golden identity a*b - 1 = {tri.a * tri.b - 1:.2e}")
print(f"  law of cosines residual = "
      f"{tri.c**2 - tri.a**2 - tri.b**2 + 2*tri.a*tri.b*math.cos(tri.gamma):.2e}")

# ---- the star and its five chords
star = build_star()
print(f"\nstar with {len(star.vertices)} vertices on "
      f"{len(star.edge_lines)} lines")
for line in star.edge_lines:
    print(f"  line through edges {line.edge_ids}, distance from O = "
          f"{line.distance(0):.12f}")

# the projected icosahedron vertices are the star's vertex set plus O
for z in images:
    loc = point_location(z)
    assert loc.kind in ("vertex", "center"), (z, loc)
print("\nevery projected vertex is a star vertex (or its center)")

os.makedirs("demos/output", exist_ok=True)
pathlib.Path("demos/output/star.svg").write_text(star_scene().to_svg())
print("wrote demos/output/star.svg")
