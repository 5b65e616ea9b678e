"""Flat geometry of the stellated pentagon, its ten-sheeted curve, and the
billiard/tiling models built on it."""

from .geometry import (EPSILON, INNER_RADIUS, OUTER_RADIUS, SIDE_C, TOL_GEO,
                       PoleError, ProjectivePoint, StarPolygon, Triangle,
                       build_star, build_triangle, icosahedron_vertices,
                       point_location, stereographic_project)
from .quadrature import DEFAULT_RULE, QuadratureFailure, QuadratureRule
from .conformal import (F_Kstar, F_Q, F_Q_inv, F_T, SheetedPoint, SingularFiber,
                        compute_k, eta, f)
from .covering import (SheetPermutation, connectivity_check,
                       genus_riemann_hurwitz, monodromy, ramification_report)
from .metric import Gamma, TangentVector, delta, delta_star, flow, gamma, unit_field
from .billiards import Trajectory, develop, lift_trajectory, simulate
from .quotient import edge_pairing, quotient_euler_genus, triangulate
from .tiling import MotionGroupElement, apothem, generate_patch, multiply, tau
from .verify import run_verify

__all__ = [
    "EPSILON", "INNER_RADIUS", "OUTER_RADIUS", "SIDE_C", "TOL_GEO",
    "PoleError", "ProjectivePoint", "StarPolygon", "Triangle",
    "build_star", "build_triangle", "icosahedron_vertices",
    "point_location", "stereographic_project",
    "DEFAULT_RULE", "QuadratureFailure", "QuadratureRule",
    "F_Kstar", "F_Q", "F_Q_inv", "F_T", "SheetedPoint", "SingularFiber",
    "compute_k", "eta", "f",
    "SheetPermutation", "connectivity_check", "genus_riemann_hurwitz",
    "monodromy", "ramification_report",
    "Gamma", "TangentVector", "delta", "delta_star", "flow", "gamma",
    "unit_field",
    "Trajectory", "develop", "lift_trajectory", "simulate",
    "edge_pairing", "quotient_euler_genus", "triangulate",
    "MotionGroupElement", "apothem", "generate_patch", "multiply", "tau",
    "run_verify",
]

__version__ = "0.1.0"
