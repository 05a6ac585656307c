"""Composable planar regions.

Uncertainty regions in the paper are boolean combinations of geometric
primitives: rings intersected with detection ranges (snapshot queries,
Section 3.1.2), unions of extended ellipses with ring intersections at the
window boundaries (interval queries, Section 3.2), all further constrained
by the indoor topology check (Section 3.3).

Rather than materialising such shapes as polygons — which would force a
fragile curved-boolean-geometry implementation — every region is a
*predicate with a bounding box*:

* :meth:`Region.contains` answers "is this point inside?" exactly, and
* :attr:`Region.mbr` bounds the region (``None`` for a provably empty one).

Boolean structure is kept symbolic via :class:`RegionIntersection`,
:class:`RegionUnion` and :class:`RegionDifference`, built with the ``&``,
``|`` and ``-`` operators.  Areas of such regions are then measured by
deterministic grid quadrature (:mod:`repro.geometry.area`), which is all the
flow definitions need — presence is a *ratio* of areas over a POI polygon.

All regions support vectorised membership via :meth:`Region.contains_many`
over a :class:`~repro.geometry.samples.Samples` handle, for fast presence
estimation with NumPy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .mbr import Mbr
from .point import Point
from .samples import Samples

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = [
    "Region",
    "EmptyRegion",
    "RegionIntersection",
    "RegionUnion",
    "RegionDifference",
    "intersect_all",
    "union_all",
]


#: Slack of every batch-rejection test against an MBR.  Shapes accept
#: points up to ``EPSILON`` outside their nominal boundary, so a point just
#: past an MBR edge may still be inside; the vectorised paths must keep it
#: exactly as the scalar :meth:`Region.contains` does.
_MBR_TOLERANCE = 1e-9


def _inside_mbr_mask(mbr: Mbr, samples: Samples) -> "NDArray[np.bool_]":
    """Vectorised containment of points in an MBR (with a small tolerance)."""
    tolerance = _MBR_TOLERANCE
    xs, ys = samples.xs, samples.ys
    return (
        (xs >= mbr.min_x - tolerance)
        & (xs <= mbr.max_x + tolerance)
        & (ys >= mbr.min_y - tolerance)
        & (ys <= mbr.max_y + tolerance)
    )


def _mbr_disjoint_from_bounds(
    mbr: Mbr, bounds: tuple[float, float, float, float]
) -> bool:
    min_x, max_x, min_y, max_y = bounds
    tolerance = _MBR_TOLERANCE
    return (
        mbr.max_x + tolerance < min_x
        or mbr.min_x - tolerance > max_x
        or mbr.max_y + tolerance < min_y
        or mbr.min_y - tolerance > max_y
    )


def _mbr_covers_bounds(
    mbr: Mbr, bounds: tuple[float, float, float, float]
) -> bool:
    min_x, max_x, min_y, max_y = bounds
    return (
        mbr.min_x <= min_x
        and mbr.max_x >= max_x
        and mbr.min_y <= min_y
        and mbr.max_y >= max_y
    )


class Region(ABC):
    """A planar point set described by a membership predicate and an MBR."""

    @property
    @abstractmethod
    def mbr(self) -> Mbr | None:
        """A bounding box of the region, or ``None`` if certainly empty.

        The MBR must be *sound*: every contained point lies within it.  It
        need not be tight.
        """

    @abstractmethod
    def contains(self, point: Point) -> bool:
        """Exact membership test for a single point."""

    def contains_many(self, samples: Samples) -> "NDArray[np.bool_]":
        """Vectorised membership test for a set of sample points.

        The default implementation loops over :meth:`contains`; concrete
        shapes override it with NumPy arithmetic.
        """
        return np.fromiter(
            (
                self.contains(Point(float(x), float(y)))
                for x, y in zip(samples.xs, samples.ys)
            ),
            dtype=bool,
            count=len(samples),
        )

    def is_empty(self) -> bool:
        """Whether the region is *known* to be empty (conservative)."""
        return self.mbr is None

    # ------------------------------------------------------------------
    # Boolean composition
    # ------------------------------------------------------------------

    def __and__(self, other: "Region") -> "Region":
        return RegionIntersection((self, other))

    def __or__(self, other: "Region") -> "Region":
        return RegionUnion((self, other))

    def __sub__(self, other: "Region") -> "Region":
        return RegionDifference(self, other)


class EmptyRegion(Region):
    """The empty point set."""

    @property
    def mbr(self) -> Mbr | None:
        return None

    def contains(self, point: Point) -> bool:
        return False

    def contains_many(self, samples: Samples) -> "NDArray[np.bool_]":
        return np.zeros(len(samples), dtype=bool)

    def __repr__(self) -> str:
        return "EmptyRegion()"


class RegionIntersection(Region):
    """Intersection of two or more regions."""

    __slots__ = ("parts", "_mbr")

    def __init__(self, parts: Sequence[Region]):
        if not parts:
            raise ValueError("intersection of zero regions is undefined")
        self.parts: tuple[Region, ...] = tuple(parts)
        self._mbr = self._compute_mbr()

    def _compute_mbr(self) -> Mbr | None:
        result: Mbr | None = None
        for part in self.parts:
            part_mbr = part.mbr
            if part_mbr is None:
                return None
            result = part_mbr if result is None else result.intersection(part_mbr)
            if result is None:
                return None
        return result

    @property
    def mbr(self) -> Mbr | None:
        return self._mbr

    def contains(self, point: Point) -> bool:
        if self._mbr is None:
            return False
        return all(part.contains(point) for part in self.parts)

    def contains_many(self, samples: Samples) -> "NDArray[np.bool_]":
        count = len(samples)
        if self._mbr is None or count == 0:
            return np.zeros(count, dtype=bool)
        # Reject whole batches against the intersection MBR with scalar
        # compares, and evaluate each part only on the points all previous
        # parts accepted — the expensive parts (indoor distance
        # constraints) then see small batches.
        bounds = samples.bounds
        assert bounds is not None
        if _mbr_disjoint_from_bounds(self._mbr, bounds):
            return np.zeros(count, dtype=bool)
        if _mbr_covers_bounds(self._mbr, bounds):
            alive = np.ones(count, dtype=bool)
        else:
            alive = _inside_mbr_mask(self._mbr, samples)
        for part in self.parts:
            alive_count = np.count_nonzero(alive)
            if alive_count == 0:
                break
            if alive_count == count:
                alive = part.contains_many(samples).copy()
                continue
            indices = np.flatnonzero(alive)
            accepted = part.contains_many(samples.take(indices))
            alive[indices[~accepted]] = False
        return alive

    def __repr__(self) -> str:
        return f"RegionIntersection({list(self.parts)!r})"


class RegionUnion(Region):
    """Union of zero or more regions (zero parts gives the empty region)."""

    __slots__ = ("parts", "_mbr", "_part_boxes")

    def __init__(self, parts: Sequence[Region]):
        self.parts: tuple[Region, ...] = tuple(
            part for part in parts if part.mbr is not None
        )
        mbrs = [part.mbr for part in self.parts if part.mbr is not None]
        self._mbr = Mbr.union_all(mbrs) if mbrs else None
        # Part bounding boxes as one array for vectorised batch rejection:
        # interval uncertainty regions union dozens of episodes of which
        # only a few are near any given POI.
        self._part_boxes = (
            np.array(
                [[m.min_x, m.max_x, m.min_y, m.max_y] for m in mbrs], dtype=float
            )
            if mbrs
            else np.zeros((0, 4), dtype=float)
        )

    @property
    def mbr(self) -> Mbr | None:
        return self._mbr

    def contains(self, point: Point) -> bool:
        return any(part.contains(point) for part in self.parts)

    def contains_many(self, samples: Samples) -> "NDArray[np.bool_]":
        count = len(samples)
        result = np.zeros(count, dtype=bool)
        if count == 0 or self._mbr is None:
            return result
        bounds = samples.bounds
        assert bounds is not None
        min_x, max_x, min_y, max_y = bounds
        boxes = self._part_boxes
        tolerance = _MBR_TOLERANCE
        overlapping = np.flatnonzero(
            (boxes[:, 0] - tolerance <= max_x)
            & (boxes[:, 1] + tolerance >= min_x)
            & (boxes[:, 2] - tolerance <= max_y)
            & (boxes[:, 3] + tolerance >= min_y)
        )
        for part_index in overlapping:
            part = self.parts[part_index]
            part_mbr = part.mbr
            assert part_mbr is not None
            # Only evaluate the part on points not yet accepted that fall
            # inside the part's bounding box.
            candidates = ~result
            if not _mbr_covers_bounds(part_mbr, bounds):
                candidates &= _inside_mbr_mask(part_mbr, samples)
            candidate_count = np.count_nonzero(candidates)
            if candidate_count == 0:
                continue
            if candidate_count == count:
                result |= part.contains_many(samples)
                continue
            indices = np.flatnonzero(candidates)
            accepted = part.contains_many(samples.take(indices))
            result[indices[accepted]] = True
        return result

    def __repr__(self) -> str:
        return f"RegionUnion({list(self.parts)!r})"


class RegionDifference(Region):
    """Points of ``base`` not in ``subtracted``."""

    __slots__ = ("base", "subtracted")

    def __init__(self, base: Region, subtracted: Region):
        self.base = base
        self.subtracted = subtracted

    @property
    def mbr(self) -> Mbr | None:
        # Subtraction can only shrink the region, so the base MBR is sound.
        return self.base.mbr

    def contains(self, point: Point) -> bool:
        return self.base.contains(point) and not self.subtracted.contains(point)

    def contains_many(self, samples: Samples) -> "NDArray[np.bool_]":
        inside = self.base.contains_many(samples)
        if inside.any():
            inside &= ~self.subtracted.contains_many(samples)
        return inside

    def __repr__(self) -> str:
        return f"RegionDifference({self.base!r}, {self.subtracted!r})"


def intersect_all(parts: Sequence[Region]) -> Region:
    """Intersection of ``parts``; a single part is returned unchanged."""
    if not parts:
        raise ValueError("intersect_all needs at least one region")
    if len(parts) == 1:
        return parts[0]
    return RegionIntersection(parts)


def union_all(parts: Sequence[Region]) -> Region:
    """Union of ``parts``; empty input yields :class:`EmptyRegion`."""
    if not parts:
        return EmptyRegion()
    if len(parts) == 1:
        return parts[0]
    return RegionUnion(parts)
