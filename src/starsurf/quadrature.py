"""Panel quadrature for contour integrals with endpoint power singularities.

The integrands handled here behave like (z - s)^(-mu) with 0 < mu < 1 at a
panel endpoint s.  Panels adjacent to such an endpoint use Gauss-Jacobi
nodes whose weight absorbs the exact exponent; interior panels fall back to
Gauss-Legendre.  Error estimates come from comparing two node counts, with
bisection when the target is missed.  A tanh-sinh rule is available as a
fallback kind; it handles endpoint singularities without knowing mu.
Integrands are array functions, called once on a panel's whole node array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import eval_jacobi, roots_jacobi


@dataclass(frozen=True)
class QuadratureRule:
    kind: str = "gauss-jacobi-split"  # or "tanh-sinh"
    nodes_per_panel: int = 48
    target_abs_err: float = 1e-12

    def __post_init__(self):
        if self.target_abs_err <= 0:
            raise ValueError("target_abs_err must be positive")
        if self.nodes_per_panel < 4:
            raise ValueError("nodes_per_panel must be at least 4")
        if self.kind not in ("gauss-jacobi-split", "tanh-sinh"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")


DEFAULT_RULE = QuadratureRule()


class QuadratureFailure(RuntimeError):
    """Estimated quadrature error exceeded the rule's target."""


def clog(z):
    """Principal log of a scalar (on cmath) or an array (on numpy), with the
    real axis approached from above: a -0.0 imaginary part, which would give
    negative reals argument -pi, becomes +0.0 (on arrays by adding 0.0).
    """
    if isinstance(z, np.ndarray):
        return np.log(np.asarray(z, dtype=complex) + 0.0)
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.log(z)


@lru_cache(maxsize=64)
def _jacobi_nodes(n: int, alpha: float, beta: float):
    """Nodes and weights for the weight (1-x)^alpha (1+x)^beta on [-1, 1]:
    scipy's nodes, with w_i = C / ((1 - x_i^2) P_n'(x_i)^2).  scipy scales its
    own weights to their exact sum, which spreads the error of the weight
    next to an exponent near -1 over all of them (2e-11 at n = 80).  The two
    end weights are fixed by the exact integrals of 1 and 1 + x."""
    x, w = roots_jacobi(n, alpha, beta)
    if not (alpha or beta):
        return x, w  # Gauss-Legendre
    ab = alpha + beta
    log_c = ((ab + 1) * math.log(2.0) + math.lgamma(n + alpha + 1) + math.lgamma(n + beta + 1)
             - math.lgamma(n + ab + 1) - math.lgamma(n + 1))
    dp = 0.5 * (n + ab + 1) * eval_jacobi(n - 1, alpha + 1, beta + 1, x)
    w = math.exp(log_c) / ((1.0 - x) * (1.0 + x) * dp ** 2)
    # the end weights make up the exact integrals of 1 and 1 + x
    r0 = 2.0 ** (ab + 1) * beta_fn(alpha + 1, beta + 1) - np.sum(w[1:-1])
    r1 = 2.0 ** (ab + 2) * beta_fn(alpha + 1, beta + 2) - np.dot(w[1:-1], 1.0 + x[1:-1])
    w[0] = (r1 - (1.0 + x[-1]) * r0) / (x[0] - x[-1])
    w[-1] = r0 - w[0]
    return x, w


def _panel_gj(f, s0: complex, s1: complex, mu0: float, mu1: float, n: int) -> complex:
    """One Gauss-Jacobi panel of int f dz over [s0, s1].

    f must behave like (z-s0)^(-mu0) at s0 and (z-s1)^(-mu1) at s1; the
    singular factors are divided out against the Jacobi weight on the same
    principal branch, so the scheme is exact for any segment orientation.
    """
    x, w = _jacobi_nodes(n, -mu1, -mu0)
    r = (s1 - s0) / 2.0
    z = s0 + r * (x + 1.0)
    vals = f(z)
    pre = r
    if mu0 or mu1:
        # divide out the endpoint factors that the Jacobi weight carries
        vals = vals * np.exp(mu0 * clog(z - s0) + mu1 * clog(z - s1))
        pre *= np.exp(-mu0 * clog(r) - mu1 * clog(-r))
    return pre * np.dot(w, vals)


def _panel_ts(f, s0: complex, s1: complex, n: int) -> complex:
    """Tanh-sinh panel; tolerates integrable endpoint singularities blindly."""
    h = 3.0 / n
    j = np.arange(-n, n + 1)
    t = j * h
    u = np.tanh(0.5 * math.pi * np.sinh(t))
    du = 0.5 * math.pi * np.cosh(t) / np.cosh(0.5 * math.pi * np.sinh(t)) ** 2
    r = (s1 - s0) / 2.0
    mid = (s0 + s1) / 2.0
    return np.dot(f(mid + r * u), du) * h * r


def panel(f, s0, s1, mu0=0.0, mu1=0.0, rule: QuadratureRule = DEFAULT_RULE,
          _depth: int = 0) -> complex:
    """Adaptive panel with an a-posteriori two-resolution error estimate."""
    n = rule.nodes_per_panel
    if rule.kind == "tanh-sinh":
        coarse = _panel_ts(f, s0, s1, 2 * n)
        fine = _panel_ts(f, s0, s1, 4 * n)
    else:
        coarse = _panel_gj(f, s0, s1, mu0, mu1, n)
        fine = _panel_gj(f, s0, s1, mu0, mu1, n + n // 2 + 8)
    err = abs(fine - coarse)
    if err <= rule.target_abs_err or abs(s1 - s0) < 1e-13:
        return fine
    if _depth >= 24:
        raise QuadratureFailure(
            f"panel [{s0}, {s1}] error estimate {err:.3e} exceeds "
            f"target {rule.target_abs_err:.3e}")
    mid = (s0 + s1) / 2.0
    return (panel(f, s0, mid, mu0, 0.0, rule, _depth + 1)
            + panel(f, mid, s1, 0.0, mu1, rule, _depth + 1))


def contour(f, waypoints, mu_start=0.0, mu_end=0.0,
            rule: QuadratureRule = DEFAULT_RULE) -> complex:
    """Integrate f along a polyline; exponents apply at the two ends only."""
    pts = list(waypoints)
    total = 0.0 + 0.0j
    for i in range(len(pts) - 1):
        m0 = mu_start if i == 0 else 0.0
        m1 = mu_end if i == len(pts) - 2 else 0.0
        if pts[i] == pts[i + 1]:
            continue
        total += panel(f, pts[i], pts[i + 1], m0, m1, rule)
    return total


def segment_point_distance(p: complex, q: complex, z: complex) -> float:
    """Distance from z to the closed segment [p, q]."""
    u = q - p
    if u == 0:
        return abs(z - p)
    t = ((z - p) / u).real
    t = min(max(t, 0.0), 1.0)
    return abs(z - (p + t * u))
