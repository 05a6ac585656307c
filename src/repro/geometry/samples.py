"""Sample sets: the argument of vectorised region membership.

Presence (paper, Definition 1) is measured by testing a POI's fixed grid
of sample points against an uncertainty region.  A :class:`Samples`
handle is what :meth:`Region.contains_many` takes: a grid's points, or a
subset of them.  Composite regions narrow a handle with :meth:`take`,
which composes an index into the grid instead of copying coordinates.

The grids handed out by :class:`~repro.core.presence.PresenceEstimator`
are static, and so are the points indoor walking distances to a grid are
composed from: the doors of the grid's room and the distance sources
inside it.  A grid has few of those, so the Euclidean distances from
them to the whole grid are computed once, kept in the estimator's
byte-bounded :class:`SampleMemo`, and indexed for every subset
(:meth:`memoized_distances`, :meth:`lookup`).  The arithmetic is
elementwise, so an indexed full-grid array holds exactly the values a
direct computation on the subset gives: memoized and direct membership
are bit-identical by construction.

Distances from the device centres of rings, circles and extended
ellipses are computed directly on the points
(:meth:`squared_distances`, :meth:`distances`): a grid meets thousands
of those, more than the budget holds, and an LRU cycling through them
would recompute whole grids at a rate that depends on request order.

Ad-hoc handles (``Samples.of(xs, ys)`` without a memo) compute directly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable

import numpy as np

from .point import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["SAMPLE_MEMO_BYTES", "SampleMemo", "Samples"]

#: Byte budget of one :class:`SampleMemo`.  A full POI grid array at the
#: default resolution is at most 8 KB, so about a thousand grid arrays stay
#: resident: far more than the doors and sources of the paper-default
#: venue's 75 POI rooms need (a few per grid).
SAMPLE_MEMO_BYTES = 8 * 1024 * 1024


class SampleMemo:
    """A byte-bounded LRU of full-grid per-point arrays.

    Keys are ``(grid, anchor key)``; values are read-only arrays.  The
    budget is :data:`SAMPLE_MEMO_BYTES` at construction.  One memo
    belongs to one presence estimator, which is used by one engine
    thread.
    """

    __slots__ = ("max_bytes", "nbytes", "entries")

    def __init__(self) -> None:
        self.max_bytes = SAMPLE_MEMO_BYTES
        self.nbytes = 0
        self.entries: "OrderedDict[Hashable, NDArray[Any]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self.entries)

    def store(self, key: Hashable, value: "NDArray[Any]") -> None:
        """Insert ``value`` (made read-only) and evict down to the budget."""
        value.flags.writeable = False
        self.entries[key] = value
        self.nbytes += value.nbytes
        while self.nbytes > self.max_bytes:
            _, evicted = self.entries.popitem(last=False)
            self.nbytes -= evicted.nbytes


class _Grid:
    """The full point set behind a handle, with its per-grid memo state."""

    __slots__ = ("xs", "ys", "memo", "facts")

    def __init__(
        self,
        xs: "NDArray[np.float64]",
        ys: "NDArray[np.float64]",
        memo: SampleMemo | None,
    ) -> None:
        self.xs = xs
        self.ys = ys
        self.memo = memo
        self.facts: dict[Hashable, Any] = {}


def _bounds(
    xs: "NDArray[np.float64]", ys: "NDArray[np.float64]"
) -> tuple[float, float, float, float] | None:
    if len(xs) == 0:
        return None
    return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())


def _squared_distances(
    xs: "NDArray[np.float64]", ys: "NDArray[np.float64]", x: float, y: float
) -> "NDArray[np.float64]":
    dx = xs - x
    dy = ys - y
    result: "NDArray[np.float64]" = dx * dx + dy * dy
    return result


def _distances(
    xs: "NDArray[np.float64]", ys: "NDArray[np.float64]", x: float, y: float
) -> "NDArray[np.float64]":
    result: "NDArray[np.float64]" = np.hypot(xs - x, ys - y)
    return result


class Samples:
    """A grid of sample points, or a subset of one, for membership tests."""

    __slots__ = ("_grid", "_index", "_xs", "_ys", "_bounds")

    def __init__(self, grid: _Grid, index: "NDArray[np.intp] | None") -> None:
        self._grid = grid
        self._index = index
        self._xs: "NDArray[np.float64] | None" = grid.xs if index is None else None
        self._ys: "NDArray[np.float64] | None" = grid.ys if index is None else None
        self._bounds: tuple[float, float, float, float] | None = None

    @classmethod
    def of(
        cls,
        xs: "NDArray[np.float64]",
        ys: "NDArray[np.float64]",
        memo: SampleMemo | None = None,
    ) -> "Samples":
        """A handle over the points ``(xs[i], ys[i])``.

        Without ``memo`` every per-point quantity is computed directly.
        With one, the arrays are a static grid: per-anchor arrays over it
        are memoized, so its coordinates are made read-only.
        """
        grid = _Grid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), memo)
        if len(grid.xs) != len(grid.ys):
            raise ValueError("xs and ys must have the same length")
        if memo is not None:
            grid.xs.flags.writeable = False
            grid.ys.flags.writeable = False
        return cls(grid, None)

    def __len__(self) -> int:
        return len(self._grid.xs) if self._index is None else len(self._index)

    @property
    def xs(self) -> "NDArray[np.float64]":
        """The x coordinates of the points (gathered once for a subset)."""
        if self._xs is None:
            self._xs = self._grid.xs[self._index]
        return self._xs

    @property
    def ys(self) -> "NDArray[np.float64]":
        """The y coordinates of the points (gathered once for a subset)."""
        if self._ys is None:
            self._ys = self._grid.ys[self._index]
        return self._ys

    @property
    def bounds(self) -> tuple[float, float, float, float] | None:
        """``(min_x, max_x, min_y, max_y)`` of the points; ``None`` if empty."""
        if self._bounds is None:
            self._bounds = _bounds(self.xs, self.ys)
        return self._bounds

    def take(self, indices: "NDArray[np.intp]") -> "Samples":
        """The subset at ``indices`` (positions within this handle)."""
        index = indices if self._index is None else self._index[indices]
        return Samples(self._grid, index)

    def lookup(
        self,
        key: Hashable,
        compute: Callable[["NDArray[np.float64]", "NDArray[np.float64]"], "NDArray[Any]"],
    ) -> "NDArray[Any]":
        """``compute(xs, ys)`` for these points; must be elementwise.

        ``key`` names what ``compute`` derives (its anchor) and must
        determine it.  On a memoized grid the result over the whole grid
        is computed once and indexed; the returned array is read-only
        when it is the memo's own.
        """
        grid = self._grid
        memo = grid.memo
        if memo is None:
            return compute(self.xs, self.ys)
        memo_key = (grid, key)
        full = memo.entries.get(memo_key)
        if full is None:
            full = compute(grid.xs, grid.ys)
            memo.store(memo_key, full)
        else:
            memo.entries.move_to_end(memo_key)
        return full if self._index is None else full[self._index]

    def grid_fact(
        self,
        key: Hashable,
        compute: Callable[["NDArray[np.float64]", "NDArray[np.float64]"], Any],
    ) -> Any:
        """``compute(xs, ys)`` over the grid these points belong to.

        A memoized grid computes it once over all its points and keeps it
        (e.g. the one room the whole grid lies in).  An ad-hoc handle is
        its own grid: the fact is computed on its points each time.
        """
        grid = self._grid
        if grid.memo is None:
            return compute(self.xs, self.ys)
        if key not in grid.facts:
            grid.facts[key] = compute(grid.xs, grid.ys)
        return grid.facts[key]

    def squared_distances(self, anchor: Point) -> "NDArray[np.float64]":
        """``dx * dx + dy * dy`` from ``anchor`` to every point."""
        return _squared_distances(self.xs, self.ys, anchor.x, anchor.y)

    def distances(self, anchor: Point) -> "NDArray[np.float64]":
        """``hypot(dx, dy)`` from ``anchor`` to every point."""
        return _distances(self.xs, self.ys, anchor.x, anchor.y)

    def memoized_distances(self, anchor: Point) -> "NDArray[np.float64]":
        """:meth:`distances`, memoized per (grid, ``anchor``) on a memoized grid.

        Only for anchors a grid has few of (its room's doors, a distance
        source in its room), so that the memo holds all of them.
        """
        x, y = anchor.x, anchor.y
        return self.lookup(("hypot", x, y), lambda xs, ys: _distances(xs, ys, x, y))

    def __repr__(self) -> str:
        subset = "" if self._index is None else " (subset)"
        return f"Samples({len(self)} points{subset})"
