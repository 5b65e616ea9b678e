"""Star copies translated around the plane, and what the group really does.

The translations shift by 2 u_k with u_k = (1/2) eps^{3k}, so reflected
copies of the star sit at unit distance from the center and the index law
tau_{(k+2l) mod 5} o R^l = R^l o tau_k holds exactly.  The group is not
discrete: the word tau_0 tau_1 tau_4 contracts by the golden ratio, and the
demo shows both the clean desk-scale checks and that non-uniqueness.
"""

import os
import pathlib

from starsurf.geometry import apothem, point_location
from starsurf.svgout import patch_scene
from starsurf.tiling import (coverage_check, fundamental_domain_check,
                             generate_patch, invariance_freeness_checks,
                             multiply, tau)

print(f"apothem = {apothem()!r} (exactly one half)")
print(f"tau_0 translates the center to {tau(0)(0):.6f}")

word = multiply(tau(0), multiply(tau(1), tau(4)))
print(f"tau_0 tau_1 tau_4 has the exact word {word.word} and translates by "
      f"{word(0).real:+.12f} (minus the inverse golden ratio: -1/phi)")

patch = generate_patch(3)
print(f"\ndepth-3 patch: {len(patch.centers)} star copies, "
      f"{len(patch.vpoints)} vertex/center points")

print("\nsampled structural checks:")
print(" ", coverage_check())
rep = invariance_freeness_checks()
print(f"  invariance {rep['invariance_checked']} images ok; freeness "
      f"{rep['freeness_samples']} samples ok, each at least "
      f"{rep['freeness_margin']:.2e} from every fixed point and mirror line; "
      f"transitivity {rep['transitivity_pairs']} pairs ok")

fd = fundamental_domain_check()
print(f"\nfundamental-domain search over {fd['samples']} samples:")
print(f"  every sample has a carrier into the closed star "
      f"(failures: {fd['existence_failures']})")
print(f"  but interior images are unique for only {fd['interior_unique']} "
      f"samples; up to {fd['max_multiplicity']} distinct images occur")
print("  (the golden contraction above is why: the group is not discrete)")

# a point in the neighbor copy centered at 1 comes home under tau_0^{-1}
z = 1.2 + 0.1j
back = tau(0).inverse()(z)
print(f"\ncarrier witness: tau_0^(-1)({z}) = {back:.4f} is "
      f"{point_location(back).kind} in the star")

os.makedirs("demos/output", exist_ok=True)
pathlib.Path("demos/output/patch.svg").write_text(patch_scene(generate_patch(2)).to_svg())
print("wrote demos/output/patch.svg")
