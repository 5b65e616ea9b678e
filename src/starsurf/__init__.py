"""Flat geometry of the stellated pentagon, its ten-sheeted curve, and the
billiard/tiling models built on it.

The exports load their module on first use (PEP 562).  Only code that
handles arrays imports numpy, so scalar calls start without it.
"""

import importlib

_EXPORTS = {
    "geometry": "EPSILON INNER_RADIUS OUTER_RADIUS SIDE_C TOL_GEO PoleError ProjectivePoint "
                "StarPolygon Triangle apothem build_star build_triangle icosahedron_vertices "
                "point_location stereographic_project",
    "quadrature": "DEFAULT_RULE QuadratureFailure QuadratureRule",
    "conformal": "F_Q F_Q_inv F_T SheetedPoint SingularFiber compute_k eta f",
    "covering": "SheetPermutation connectivity_check genus_riemann_hurwitz monodromy "
                "ramification_report",
    "metric": "Gamma TangentVector delta delta_star flow gamma unit_field",
    "billiards": "Trajectory develop lift_trajectory simulate",
    "quotient": "edge_pairing quotient_euler_genus triangulate",
    "tiling": "MotionGroupElement generate_patch multiply tau",
    "verify": "run_verify",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


__version__ = "0.1.0"
