"""Object presence (paper, Definition 1).

The presence of object ``o`` in POI ``p`` is ``area(UR ∩ p) / area(p)`` —
the fraction of the POI covered by the object's uncertainty region, a value
in ``[0, 1]`` interpretable as the probability that ``o`` was in ``p``.

The estimator samples each POI polygon on a fixed grid once (cached, LRU
bounded) and evaluates region membership vectorised; determinism of the
grid guarantees that every query algorithm assigns identical presence to
identical (object, POI) pairs, so the iterative and join algorithms return
the same flows bit for bit.  An evicted-and-resampled POI regenerates the
exact same grid, so the bound never affects results, only memory.

The grids are handed to regions as memoized
:class:`~repro.geometry.samples.Samples`: the Euclidean distances from
the doors of a grid's room (and from distance sources inside it), which
indoor walking distances are composed from, are computed once per (point,
grid) into the estimator's byte-bounded
:class:`~repro.geometry.samples.SampleMemo` and looked up afterwards.  The memo is the estimator's own, not a module global: each
engine thread owns its estimator.  Like the grid bound, the memo budget
affects memory only; looked-up values are bit-identical to recomputed ones.
"""

from __future__ import annotations

from ..analysis.contracts import check_presence
from ..geometry import (
    DEFAULT_RESOLUTION,
    Region,
    SampleMemo,
    Samples,
    polygon_grid_points,
)
from ..indoor.poi import Poi
from .caching import LruCache

__all__ = ["PresenceEstimator"]

#: Default cap on cached per-POI sample grids.  At the default resolution a
#: grid is a few hundred KB; 1024 grids keep realistic POI universes fully
#: resident while bounding worst-case memory.
DEFAULT_MAX_CACHED_POIS = 1024


class PresenceEstimator:
    """Grid-quadrature presence with bounded per-POI sample caching."""

    def __init__(
        self,
        resolution: int = DEFAULT_RESOLUTION,
        max_cached_pois: int = DEFAULT_MAX_CACHED_POIS,
    ):
        if resolution < 1:
            raise ValueError("resolution must be positive")
        if max_cached_pois < 1:
            raise ValueError("max_cached_pois must be positive")
        self.resolution = resolution
        self._samples: LruCache[Samples] = LruCache(max_cached_pois)
        self.memo = SampleMemo()

    @property
    def sample_cache_size(self) -> int:
        """How many POIs currently have cached sample grids."""
        return len(self._samples)

    def samples_of(self, poi: Poi) -> Samples:
        """The POI's cached grid of sample points (memoized)."""
        cached = self._samples.get(poi.poi_id)
        if cached is None:
            xs, ys, _ = polygon_grid_points(poi.polygon, self.resolution)
            cached = Samples.of(xs, ys, memo=self.memo)
            self._samples.put(poi.poi_id, cached)
        return cached

    def presence(self, region: Region, poi: Poi) -> float:
        """``φ(o)`` — the fraction of ``poi`` covered by ``region``."""
        region_mbr = region.mbr
        if region_mbr is None or not region_mbr.intersects(poi.polygon.mbr):
            return 0.0
        samples = self.samples_of(poi)
        inside = region.contains_many(samples)
        return check_presence(
            float(inside.sum()) / float(len(samples)),
            where=f"presence in POI {poi.poi_id!r}",
        )
