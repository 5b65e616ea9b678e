"""Edge identifications on the star and the cell census of the curve.

Each boundary edge is glued to the collinear edge on the same chord by the
reflection whose axis runs perpendicular to that chord.  On the star's ids
the rotation R and the reflections T_m are index arithmetic mod 10: each is
a Dihedral(j, l), the map z -> zeta^j conj^l(z) with zeta = e^(i pi/5).  Rotating by
72 degrees partitions the triangulation into orbits, and gluing two copies
of the star edge to partner edge gives the curve: chi = -6, i.e. genus 4,
independently of the branched-cover computation.
"""

import math

from starsurf.geometry import R, T
from starsurf.quotient import edge_pairing, quotient_euler_genus, triangulate

print(f"the rotation R = {R} on vertex ids: {[R.vertex(v) for v in range(10)]}")
print("the five reflections T_m: z -> eps^(2m+1) conj(z) on vertex ids:")
for m, mirror in enumerate(T):
    print(f"  T_{m} = {mirror}: v -> {mirror.j} - v (mod 10), axis at "
          f"{36 * (2 * m + 1)} degrees: {[mirror.vertex(v) for v in range(10)]}")

pairing = edge_pairing()
print("\nboundary edge pairs (edge ids) and their identifying reflection:")
for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
    print(f"  edges {e0} <-> {e1}   via T_{m}: e -> {(T[m].j - 1) % 10} - e, "
          f"T_{m}({e0}) = {T[m].edge(e0)}")
print(f"unordered pair orbits under rotation: sizes "
      f"{pairing.unordered_orbit_sizes} (one five-cycle)")
print(f"ordered pair orbits: {pairing.ordered_orbit_count} of sizes "
      f"{sorted(len(o) for o in pairing.ordered_orbits)}")

census = triangulate()
print(f"\ntriangulation: {len(census.faces)} faces, {len(census.edges)} edges, "
      f"{len(census.vertices)} vertices")
print(f"face orbits: {[len(o) for o in census.face_orbits]}, "
      f"vertex orbits: {[len(o) for o in census.vertex_orbits]}")
print(f"oriented edge-class labels: {len(census.oriented_edge_orbits)}")
print(f"cone angles: inner {census.cone_angles['inner'] / math.pi:.4f} pi, "
      f"outer {census.cone_angles['outer'] / math.pi:.4f} pi")

chi, genus, meta = quotient_euler_genus(census)
print(f"\ntwo copies of the star, glued across by the T_m: "
      f"V = {meta['V']}, E = {meta['E']}, F = {meta['F']}")
print(f"vertex classes of {meta['vertex_class_sizes']} corners, cone angles "
      f"{[round(a / math.pi, 4) for a in meta['cone_angle_sums']]} pi")
print(f"chi = {meta['V']} - {meta['E']} + {meta['F']} = {chi}  =>  genus {genus}")
