"""SVG rendering of floor plans, deployments, regions and trajectories.

Debugging indoor analytics is a visual job: is the uncertainty region
where it should be, did the topology check cut the right part, where do
objects actually walk?  This module renders any combination of the
library's spatial objects to a standalone SVG string/file with zero
dependencies.

Typical use::

    from repro.viz import SvgCanvas

    canvas = SvgCanvas.for_floorplan(plan)
    canvas.draw_floorplan(plan)
    canvas.draw_deployment(deployment)
    canvas.draw_region(engine.snapshot_region_of("o3", t), fill="#d62728")
    canvas.save("debug.svg")

Regions are rasterised on a sampling grid (they are predicates, not
outlines), drawn as translucent cells — faithful to how the library itself
measures them.
"""

from __future__ import annotations

import html
from pathlib import Path

import numpy as np

from ..geometry import Mbr, Region, Samples, grid_points, near_zero
from ..indoor.devices import Deployment
from ..indoor.floorplan import FloorPlan
from ..indoor.poi import Poi
from ..tracking.trajectory import Trajectory

__all__ = ["SvgCanvas"]

_ROOM_FILLS = {
    "hallway": "#f2e8cf",
    "stairwell": "#d9c8a9",
    "security": "#f4cccc",
    "hall": "#e8f0f2",
}
_DEFAULT_ROOM_FILL = "#e8ecef"


class SvgCanvas:
    """An SVG drawing surface in world (meter) coordinates.

    The canvas flips the y-axis so plans render with north up, and scales
    meters to pixels uniformly.
    """

    def __init__(self, bounds: Mbr, scale: float = 6.0, padding: float = 2.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.bounds = bounds.expanded(padding)
        self.scale = scale
        self._elements: list[str] = []

    @classmethod
    def for_floorplan(cls, plan: FloorPlan, scale: float = 6.0) -> "SvgCanvas":
        return cls(plan.bounds, scale=scale)

    # ------------------------------------------------------------------
    # Coordinate mapping
    # ------------------------------------------------------------------

    @property
    def width_px(self) -> float:
        return self.bounds.width * self.scale

    @property
    def height_px(self) -> float:
        return self.bounds.height * self.scale

    def _x(self, x: float) -> float:
        return (x - self.bounds.min_x) * self.scale

    def _y(self, y: float) -> float:
        return (self.bounds.max_y - y) * self.scale

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------

    def draw_floorplan(
        self, plan: FloorPlan, label_rooms: bool = True
    ) -> "SvgCanvas":
        """Rooms (filled, kind-coloured), walls and doors."""
        for room in plan.rooms:
            points = " ".join(
                f"{self._x(v.x):.1f},{self._y(v.y):.1f}"
                for v in room.polygon.vertices
            )
            fill = _ROOM_FILLS.get(room.kind, _DEFAULT_ROOM_FILL)
            self._elements.append(
                f'<polygon points="{points}" fill="{fill}" '
                f'stroke="#555" stroke-width="1.2"/>'
            )
            if label_rooms:
                center = room.polygon.centroid()
                self._elements.append(
                    f'<text x="{self._x(center.x):.1f}" '
                    f'y="{self._y(center.y):.1f}" font-size="{self.scale * 1.2:.1f}" '
                    f'text-anchor="middle" fill="#666" '
                    f'font-family="sans-serif">{html.escape(str(room.room_id))}</text>'
                )
        for door in plan.doors:
            self._elements.append(
                f'<circle cx="{self._x(door.position.x):.1f}" '
                f'cy="{self._y(door.position.y):.1f}" r="{self.scale * 0.5:.1f}" '
                f'fill="#8d6e63"/>'
            )
        return self

    def draw_deployment(self, deployment: Deployment) -> "SvgCanvas":
        """Detection ranges as dashed circles with center dots."""
        for device in deployment:
            cx, cy = self._x(device.center.x), self._y(device.center.y)
            self._elements.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" '
                f'r="{device.radius * self.scale:.1f}" fill="#1f77b4" '
                f'fill-opacity="0.12" stroke="#1f77b4" stroke-width="1" '
                f'stroke-dasharray="4 3"/>'
            )
            self._elements.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="2" fill="#1f77b4"/>'
            )
        return self

    def draw_pois(self, pois: list[Poi], fill: str = "#2ca02c") -> "SvgCanvas":
        """POI extents as translucent outlined polygons."""
        for poi in pois:
            points = " ".join(
                f"{self._x(v.x):.1f},{self._y(v.y):.1f}"
                for v in poi.polygon.vertices
            )
            self._elements.append(
                f'<polygon points="{points}" fill="{fill}" fill-opacity="0.18" '
                f'stroke="{fill}" stroke-width="1"/>'
            )
        return self

    def draw_region(
        self,
        region: Region,
        fill: str = "#d62728",
        resolution: int = 96,
        opacity: float = 0.35,
    ) -> "SvgCanvas":
        """Rasterise a region as translucent grid cells."""
        mbr = region.mbr
        if mbr is None:
            return self
        clipped = mbr.intersection(self.bounds)
        if clipped is None or near_zero(clipped.area()):
            return self
        xs, ys, _ = grid_points(clipped, resolution)
        inside = region.contains_many(Samples.of(xs, ys))
        if not inside.any():
            return self
        step_x = clipped.width / max(1, len(np.unique(xs)))
        step_y = clipped.height / max(1, len(np.unique(ys)))
        half_w = step_x * self.scale / 2.0
        half_h = step_y * self.scale / 2.0
        cells = []
        for x, y in zip(xs[inside], ys[inside]):
            cells.append(
                f'<rect x="{self._x(float(x)) - half_w:.1f}" '
                f'y="{self._y(float(y)) - half_h:.1f}" '
                f'width="{2 * half_w:.1f}" height="{2 * half_h:.1f}"/>'
            )
        self._elements.append(
            f'<g fill="{fill}" fill-opacity="{opacity}">{"".join(cells)}</g>'
        )
        return self

    def draw_trajectory(
        self, trajectory: Trajectory, stroke: str = "#9467bd"
    ) -> "SvgCanvas":
        """The ground-truth path as a polyline, with start/end markers."""
        points = [trajectory.legs[0].start] + [leg.end for leg in trajectory.legs]
        path = " ".join(f"{self._x(p.x):.1f},{self._y(p.y):.1f}" for p in points)
        self._elements.append(
            f'<polyline points="{path}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.5" stroke-opacity="0.8"/>'
        )
        start, end = points[0], points[-1]
        self._elements.append(
            f'<circle cx="{self._x(start.x):.1f}" cy="{self._y(start.y):.1f}" '
            f'r="3" fill="{stroke}"/>'
        )
        self._elements.append(
            f'<rect x="{self._x(end.x) - 3:.1f}" y="{self._y(end.y) - 3:.1f}" '
            f'width="6" height="6" fill="{stroke}"/>'
        )
        return self

    def draw_marker(
        self, x: float, y: float, label: str = "", color: str = "#000"
    ) -> "SvgCanvas":
        """A cross marker with an optional label (e.g. a true position)."""
        cx, cy = self._x(x), self._y(y)
        size = 4.0
        self._elements.append(
            f'<path d="M {cx - size} {cy - size} L {cx + size} {cy + size} '
            f'M {cx - size} {cy + size} L {cx + size} {cy - size}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        if label:
            self._elements.append(
                f'<text x="{cx + 6:.1f}" y="{cy - 6:.1f}" font-size="11" '
                f'fill="{color}" font-family="sans-serif">{html.escape(label)}</text>'
            )
        return self

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def to_svg(self) -> str:
        """The complete SVG document."""
        body = "\n".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width_px:.0f}" height="{self.height_px:.0f}" '
            f'viewBox="0 0 {self.width_px:.0f} {self.height_px:.0f}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path: str | Path) -> Path:
        """Write the SVG document; returns the path."""
        path = Path(path)
        path.write_text(self.to_svg())
        return path
