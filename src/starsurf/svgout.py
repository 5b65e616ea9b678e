"""Minimal deterministic SVG output in the plane frame, y-up.

Every document is self-contained (inline styles, computed viewBox) and
formatted with fixed precision so identical scenes diff identically.
"""

from __future__ import annotations

from .geometry import build_star

#: margin around the scene's tracked points in the viewBox
PAD = 0.15


class Scene:
    def __init__(self):
        self.items: list[str] = []
        self._xs: list[float] = []
        self._ys: list[float] = []

    def _track(self, pts):
        for z in pts:
            self._xs.append(z.real)
            self._ys.append(z.imag)

    def polygon(self, pts, stroke="#1f3a66", fill="none", width=0.01):
        self._track(pts)
        coords = " ".join(f"{z.real:.6f},{-z.imag:.6f}" for z in pts)
        self.items.append(
            f'<polygon points="{coords}" style="fill:{fill};stroke:{stroke};'
            f'stroke-width:{width}"/>')

    def polyline(self, pts, stroke="#b03030", width=0.008):
        self._track(pts)
        coords = " ".join(f"{z.real:.6f},{-z.imag:.6f}" for z in pts)
        self.items.append(
            f'<polyline points="{coords}" style="fill:none;stroke:{stroke};'
            f'stroke-width:{width}"/>')

    def line(self, p, q, stroke="#808080", width=0.006, dash=None):
        self._track([p, q])
        style = f"stroke:{stroke};stroke-width:{width}"
        if dash:
            style += f";stroke-dasharray:{dash}"
        self.items.append(
            f'<line x1="{p.real:.6f}" y1="{-p.imag:.6f}" x2="{q.real:.6f}" '
            f'y2="{-q.imag:.6f}" style="{style}"/>')

    def dot(self, z, r=0.02, fill="#202020"):
        self._track([z])
        self.items.append(
            f'<circle cx="{z.real:.6f}" cy="{-z.imag:.6f}" r="{r}" '
            f'style="fill:{fill}"/>')

    def to_svg(self) -> str:
        if not self._xs:
            self._xs, self._ys = [0.0, 1.0], [0.0, 1.0]
        x0, x1 = min(self._xs) - PAD, max(self._xs) + PAD
        y0, y1 = min(self._ys) - PAD, max(self._ys) + PAD
        w, h = x1 - x0, y1 - y0
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="{x0:.6f} {-y1:.6f} {w:.6f} {h:.6f}" '
                f'width="640" height="{640 * h / w:.0f}">')
        return "\n".join([head, *self.items, "</svg>"]) + "\n"


def star_scene(with_lines=True) -> Scene:
    star = build_star()
    sc = Scene()
    sc.polygon(list(star.vertices))
    if with_lines:
        for line in star.edge_lines:
            sc.line(line.foot - 2.2 * line.direction, line.foot + 2.2 * line.direction,
                    dash="0.03,0.03")
    for v in star.vertices:
        sc.dot(v, r=0.025)
    sc.dot(star.center, r=0.02, fill="#b03030")
    return sc


def trajectory_scene(traj) -> Scene:
    sc = star_scene(with_lines=False)
    pts = [traj.segments[0].start] + [s.end for s in traj.segments]
    sc.polyline(pts)
    for ev in traj.events:
        sc.dot(ev.position, r=0.015, fill="#b03030")
    return sc


def patch_scene(patch) -> Scene:
    sc = Scene()
    for c in patch.centers:
        sc.polygon([c + v for v in build_star().vertices], stroke="#4a6a9a", width=0.006)
    for p in patch.vpoints:
        sc.dot(p, r=0.012)
    return sc


def map_grid_scene(star, n) -> Scene:
    """Image under the triangle map of an upper-half-plane grid: one F_T call
    on its (n + 1)^2 points, sliced into the n - 1 interior columns (vertical
    polylines) then the n - 1 interior rows (horizontal)."""
    import numpy as np

    from .conformal import F_T
    from .geometry import build_triangle

    tri = build_triangle()
    sc = Scene()
    sc.polygon(list(tri.vertices), stroke="#1f3a66")
    k = np.arange(n + 1)
    xs, ys = -0.5 + 3.0 * k / n, 0.02 + 1.8 * k / n
    grid = xs[:, None] + 1j * ys[None, :]  # grid[i, j] = x_i + i y_j
    images = F_T(grid)
    for m, pts in enumerate((*images[1:n].tolist(), *images.T[1:n].tolist())):
        sc.polyline(pts, stroke="#4a6a9a" if m < n - 1 else "#9a6a4a", width=0.004)
    return sc
