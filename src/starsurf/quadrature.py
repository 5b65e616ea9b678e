"""Panel quadrature for contour integrals with endpoint power singularities.

The integrands handled here behave like (z - s)^(-mu) with 0 < mu < 1 at a
panel endpoint s.  Panels adjacent to such an endpoint use Gauss-Jacobi
nodes whose weight absorbs the exact exponent; interior panels use the
Gauss-Legendre case of the same rule.  Error estimates come from comparing
two node counts, with bisection when the target is missed.  Integrands are
array functions, called once on a panel's whole node array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conformal import clog


@dataclass(frozen=True)
class QuadratureRule:
    nodes_per_panel: int = 48
    target_abs_err: float = 1e-12

    def __post_init__(self):
        if self.target_abs_err <= 0:
            raise ValueError("target_abs_err must be positive")
        if self.nodes_per_panel < 4:
            raise ValueError("nodes_per_panel must be at least 4")


DEFAULT_RULE = QuadratureRule()


class QuadratureFailure(RuntimeError):
    """Estimated quadrature error exceeded the rule's target."""


@lru_cache(maxsize=64)
def _jacobi_nodes(n: int, alpha: float, beta: float):
    """Nodes and weights for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Nodes: the eigenvalues of the symmetric tridiagonal Jacobi matrix J (Golub
    & Welsch 1969), polished by one Newton step on the three-term recurrence
    for P_n = P_n^(alpha, beta).  Weights: w_i = C / ((1 - x_i^2) P_n'(x_i)^2),
    C = 2^(alpha+beta+1) G(n+alpha+1) G(n+beta+1) / (G(n+alpha+beta+1) n!).
    Next to an exponent near -1 a weight moves with the last ulp of its node,
    so the two end weights are fixed by the exact integrals of 1 and 1 + x."""
    a, b, ab = alpha, beta, alpha + beta
    k = np.arange(1.0, n + 1)
    c = 2.0 * k + ab
    # J_kk = d[k] and J_(k-1)k^2 = e[k-1] / 4 for k < n; e[n-1] enters P_n's norm
    d = np.append((b - a) / (ab + 2.0), (b * b - a * a) / (c[:-1] * (c[:-1] + 2.0)))
    k, c = k[1:], c[1:]  # e[0] apart, as ab may be -1
    e = np.append(16.0 * (a + 1.0) * (b + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0)),
                  16.0 * k * (k + a) * (k + b) * (k + ab) / (c * c * (c * c - 1.0)))
    jac = np.diag(d) + np.diag(np.sqrt(e[:-1]) / 2.0, -1)  # eigvalsh reads the lower triangle
    x = np.linalg.eigvalsh(jac)
    # q_k = 2^k P_k / lead(P_k), lead: leading coefficient; q_(k+1) = 2(x-d[k]) q_k - e[k-1] q_(k-1)
    x2, q0, q1 = 2.0 * x, 0.0, 1.0
    for dk, ek in zip((2.0 * d).tolist(), [0.0] + e.tolist()):
        q0, q1 = q1, (x2 - dk) * q1 - ek * q0
    # (2n+ab)(1-x^2) P_n' = n[(a-b) - (2n+ab)x] P_n + 2(n+a)(n+b) P_(n-1), in q
    c, s = c[-1], (1.0 - x) * (1.0 + x)
    dq = (n * ((a - b) - c * x) * q1
          + 8.0 * n * (n + a) * (n + b) * (n + ab) / ((c - 1.0) * c) * q0) / (c * s)
    # one Newton step dx = -q_n / q_n'; q_n' follows the node by q_n'' dx, with
    # (1-x^2) q_n'' = [(a-b) + (ab+2)x] q_n' at a root (the Jacobi equation)
    x, dq = x - q1 / dq, dq + ((b - a) - (ab + 2.0) * x) * q1 / s
    # m0 and m0 2(b+1)/(ab+2) integrate 1 and 1 + x; C 4^n / lead(P_n)^2 = m0 (2n+ab+1) prod(e)
    m0 = 2.0 ** (ab + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(ab + 2)
    w = m0 * (c + 1.0) * np.prod(e) / ((1.0 - x) * (1.0 + x) * dq ** 2)
    rhs = [m0 - np.sum(w[1:-1]), m0 * 2.0 * (b + 1) / (ab + 2) - np.dot(w[1:-1], 1.0 + x[1:-1])]
    w[[0, -1]] = np.linalg.solve([[1.0, 1.0], [1.0 + x[0], 1.0 + x[-1]]], rhs)
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


def panel(f, s0, s1, mu0=0.0, mu1=0.0, rule: QuadratureRule = DEFAULT_RULE,
          _depth: int = 0) -> complex:
    """Adaptive panel with an a-posteriori two-resolution error estimate."""
    n = rule.nodes_per_panel
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
