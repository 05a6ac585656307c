"""Indoor walking distance.

The indoor topology check (paper, Section 3.3) excludes the parts of an
uncertainty region that are too far away *by indoor walking distance* —
through doors — even though they fall within the Euclidean speed bound.
This module provides that metric:

* :class:`IndoorDistanceOracle` — point-to-point shortest walking distance
  (straight inside convex rooms, through the door graph across rooms);
* :class:`PointDistanceField` — a single-source view precomputed from one
  anchor point (a device center in practice), answering distance queries to
  many points quickly, including a vectorised per-room fast path used by
  the presence quadrature.  Over a memoized sample grid, the Euclidean
  distances from the doors of a room (and from a source inside it) to the
  whole grid are computed once and indexed.

Indoor distance always dominates Euclidean distance, so constraining a
region by indoor distance only tightens it — which is exactly what the
topology check is meant to do.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..geometry import Mbr, Point, Samples
from .floorplan import FloorPlan
from .topology import DoorGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["IndoorDistanceOracle", "PointDistanceField"]


class IndoorDistanceOracle:
    """Shortest indoor walking distances over a floor plan."""

    def __init__(self, floorplan: FloorPlan, graph: DoorGraph | None = None):
        self.floorplan = floorplan
        self.graph = graph if graph is not None else DoorGraph(floorplan)

    def distance(self, start: Point, goal: Point) -> float:
        """Shortest walking distance (inf when unreachable or outside)."""
        return self.field_from(start).distance_to(goal)

    def field_from(self, source: Point) -> "PointDistanceField":
        """Single-source distance field anchored at ``source``."""
        return PointDistanceField(self, source)

    def single_room(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> str | None:
        """The one room a whole coordinate batch lies in, if decidable fast.

        The batch's bounding box must meet exactly one room's bounding box
        and lie inside that room (the common case: a POI sample grid).  For
        rectangular rooms box containment decides it; for other convex
        rooms corner containment implies containment of the whole box.
        ``None`` when the batch is empty or the test does not hold.
        """
        if len(xs) == 0:
            return None
        batch_box = Mbr(
            float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
        )
        candidates = self.floorplan.rooms_intersecting(batch_box)
        if len(candidates) != 1:
            return None
        room = candidates[0]
        if room.polygon.is_axis_aligned_rectangle():
            fully_inside = room.polygon.mbr.contains_mbr(batch_box)
        else:
            fully_inside = all(
                room.polygon.contains(corner) for corner in batch_box.corners()
            )
        return room.room_id if fully_inside else None

    def room_groups(
        self, xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
    ) -> list[tuple[str | None, "NDArray[np.intp]"]]:
        """Group point indices by containing room.

        Boundary points may appear in several groups (both rooms give valid
        shortest-path bounds; callers take the minimum).  Points in no room
        are returned under the ``None`` key for scalar fallback handling.
        """
        groups: list[tuple[str | None, np.ndarray]] = []
        if len(xs) == 0:
            return groups
        room_id = self.single_room(xs, ys)
        if room_id is not None:
            return [(room_id, np.arange(len(xs)))]
        batch_box = Mbr(
            float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
        )
        samples = Samples.of(xs, ys)
        covered = np.zeros(len(xs), dtype=bool)
        for room in self.floorplan.rooms_intersecting(batch_box):
            in_room = room.polygon.contains_many(samples)
            if in_room.any():
                groups.append((room.room_id, np.flatnonzero(in_room)))
                covered |= in_room
        if not covered.all():
            groups.append((None, np.flatnonzero(~covered)))
        return groups


class PointDistanceField:
    """Walking distances from one fixed source point.

    Precomputes the distance from the source to every door reachable from
    the source's room(s); distances to arbitrary targets then cost one
    min-over-doors of the *target's* room.
    """

    def __init__(self, oracle: IndoorDistanceOracle, source: Point):
        self.oracle = oracle
        self.source = source
        floorplan = oracle.floorplan
        self.source_rooms = frozenset(
            room.room_id for room in floorplan.rooms_at(source)
        )
        self._door_distances: dict[str, float] = {}
        for room_id in self.source_rooms:
            for door in floorplan.doors_of_room(room_id):
                direct = source.distance_to(door.position)
                distances, _ = oracle.graph.shortest_from(door.door_id)
                for door_id, through in distances.items():
                    candidate = direct + through
                    if candidate < self._door_distances.get(door_id, math.inf):
                        self._door_distances[door_id] = candidate
        # Per-room (door distance, door position) pairs for the vectorised
        # path.
        self._room_doors: dict[str, tuple[tuple[float, Point], ...]] = {}

    def door_distance(self, door_id: str) -> float:
        """Distance from the source to the door (inf when unreachable)."""
        return self._door_distances.get(door_id, math.inf)

    def distance_to(self, target: Point) -> float:
        """Distance from the source to ``target``."""
        floorplan = self.oracle.floorplan
        target_rooms = floorplan.rooms_at(target)
        if not target_rooms:
            return math.inf
        best = math.inf
        for room in target_rooms:
            if room.room_id in self.source_rooms:
                best = min(best, self.source.distance_to(target))
            for door in floorplan.doors_of_room(room.room_id):
                through = self._door_distances.get(door.door_id)
                if through is None:
                    continue
                best = min(best, through + door.position.distance_to(target))
        return best

    # ------------------------------------------------------------------
    # Vectorised per-room path
    # ------------------------------------------------------------------

    def _doors_for_room(self, room_id: str) -> tuple[tuple[float, Point], ...]:
        cached = self._room_doors.get(room_id)
        if cached is None:
            cached = tuple(
                (self._door_distances[door.door_id], door.position)
                for door in self.oracle.floorplan.doors_of_room(room_id)
                if door.door_id in self._door_distances
            )
            self._room_doors[room_id] = cached
        return cached

    def distances_in_room(
        self,
        room_id: str,
        xs: "NDArray[np.float64]",
        ys: "NDArray[np.float64]",
    ) -> "NDArray[np.float64]":
        """Distances from the source to points known to lie in ``room_id``.

        The caller guarantees room membership (e.g. POI sample grids, where
        the whole POI lies inside one room); this skips per-point room
        lookups and reduces the query to vector arithmetic.
        """
        return self._distances_in_room(room_id, Samples.of(xs, ys))

    def _distances_in_room(
        self, room_id: str, samples: Samples
    ) -> "NDArray[np.float64]":
        # The minimum over the source (when in the room) and every
        # reachable door of ``through + |door - point|``; the Euclidean
        # parts are memoized per grid by ``samples``.
        result: "NDArray[np.float64] | None" = None
        if room_id in self.source_rooms:
            result = samples.memoized_distances(self.source)
        for through, position in self._doors_for_room(room_id):
            via_door = through + samples.memoized_distances(position)
            if result is not None:
                np.minimum(via_door, result, out=via_door)
            result = via_door
        if result is None:
            return np.full(len(samples), math.inf, dtype=float)
        return result

    def distances_to_many(self, samples: Samples) -> "NDArray[np.float64]":
        """Distances from the source to arbitrary points (vectorised).

        When the grid behind ``samples`` lies in one room, that room's
        doors give every distance (see :meth:`distances_in_room`).
        Otherwise the points are assigned to rooms in bulk (candidate rooms
        come from the batch's bounding box); points outside every room get
        ``inf``.  Boundary points may belong to several rooms — each
        assignment is a valid shortest-path upper bound, and the minimum
        over the rooms a point belongs to is taken implicitly by keeping
        the smaller value.
        """
        grid_room = samples.grid_fact(self.oracle, self.oracle.single_room)
        if grid_room is not None:
            return self._distances_in_room(grid_room, samples)
        xs, ys = samples.xs, samples.ys
        result = np.full(len(xs), math.inf, dtype=float)
        if len(xs) == 0:
            return result
        for room_id, indices in self.oracle.room_groups(xs, ys):
            if room_id is None:
                # Points the vectorised ray-cast left unassigned (typically
                # exactly on a room boundary, e.g. in a doorway): fall back
                # to the tolerance-aware scalar path.
                for index in indices:
                    result[index] = self.distance_to(
                        Point(float(xs[index]), float(ys[index]))
                    )
                continue
            distances = self._distances_in_room(room_id, samples.take(indices))
            result[indices] = np.minimum(result[indices], distances)
        return result
