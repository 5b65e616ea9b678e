"""Billiards in the pentagram: reflect at edges, reverse at vertices.

Unfolding a reflection-only trajectory (composing the reflections in the
hit edge lines) lays its segments out on a single straight line, which is
what makes these motions geodesics of the flat identified surface.
"""

import cmath
import os
import pathlib

from starsurf.billiards import develop, lift_trajectory, simulate
from starsurf.geometry import INNER_RADIUS
from starsurf.svgout import trajectory_scene

# a launch along the real axis runs into the inner vertex A and reverses
traj = simulate(0.1 + 0j, 1.0, 2)
ev = traj.events[0]
print(f"real-axis launch: first event {ev.kind!r} at {ev.position:.6f} "
      f"(A = {INNER_RADIUS:.6f}) after time {ev.time:.6f}")

# a generic trajectory only reflects; its unfolding is a straight line
traj = simulate(0.05 + 0.13j, cmath.exp(0.53j), 14)
kinds = [e.kind for e in traj.events]
print(f"\ngeneric launch: {len(traj.segments)} segments, "
      f"events {dict((k, kinds.count(k)) for k in set(kinds))}")
pieces, residual = develop(traj)
print(f"unfolded straightness residual: {residual:.2e} "
      f"over {len(pieces)} straight piece(s)")

lifted = lift_trajectory(traj)
print("edge-pairing tags along the way:",
      [ev.pairing_m for ev in lifted.events])
print("sector indices along the way:  ",
      [ev.sector for ev in lifted.events])

total = sum(abs(s.end - s.start) for s in traj.segments)
print(f"\nspeed check: path length {total:.9f} = elapsed time "
      f"{traj.total_time:.9f}")

os.makedirs("demos/output", exist_ok=True)
pathlib.Path("demos/output/billiard.svg").write_text(trajectory_scene(traj).to_svg())
print("wrote demos/output/billiard.svg")
