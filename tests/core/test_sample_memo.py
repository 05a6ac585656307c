"""The presence estimator's sample-grid memo is invisible in results.

Regions come from the real snapshot and interval UR builders (topology
check on) over the paper-default office venue.  For random nested
``take()`` subsets of a POI grid, memoized ``contains_many`` and the
memoized distances (Euclidean from doors and device centres, indoor)
must be bit-identical to a direct
computation on ``Samples.of`` over the same raw coordinates: with a warm
memo, after forced eviction, and on a grid spanning two rooms (where the
indoor distances fall back to per-room grouping).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.geometry.samples as samples_module
from repro.core.presence import PresenceEstimator
from repro.datagen import SyntheticConfig, build_synthetic_dataset
from repro.geometry import SampleMemo, Samples

#: The paper-default venue (20 rooms per side, 75 POIs, seed 42) with a
#: small population, so the fixture builds in seconds.
VENUE = SyntheticConfig(num_objects=30, duration=900.0)


@pytest.fixture(scope="module")
def scenario():
    """Engine, real uncertainty regions, and the POIs each one meets."""
    dataset = build_synthetic_dataset(VENUE)
    engine = dataset.engine()
    assert engine.topology is not None
    start, end = dataset.time_span()
    regions = []
    for step in range(6):
        t = start + (end - start) * (step + 0.5) / 6
        for object_id in engine.ott.object_ids[:12]:
            snapshot = engine.snapshot_region_of(object_id, t)
            if snapshot is not None:
                regions.append(snapshot)
            interval = engine.interval_region_of(object_id, t - 120.0, t + 120.0)
            if interval is not None:
                regions.append(interval.region)
    cases = []
    for region in regions:
        if region.mbr is None:
            continue
        pois = [p for p in engine.pois if region.mbr.intersects(p.polygon.mbr)]
        if pois:
            cases.append((region, pois))
    assert len(cases) >= 20
    return engine, cases


def _anchors(engine, poi):
    """Device centres near ``poi`` and their indoor distance fields."""
    box = poi.polygon.mbr.expanded(15.0)
    devices = [
        device
        for device in engine.deployment
        if box.contains_point(device.center)
    ]
    return [(d.center, engine.topology.field_of(d)) for d in devices[:4]]


def _nested(grid: Samples, seeds):
    """A chain of ``take()`` subsets and the raw grid indices it keeps."""
    handle, raw = grid, np.arange(len(grid))
    for seed, keep in seeds:
        mask = np.random.default_rng(seed).random(len(handle)) < keep
        picked = np.flatnonzero(mask)
        handle, raw = handle.take(picked), raw[picked]
    return handle, raw


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_identical(engine, region, poi, handle, xs, ys):
    direct = Samples.of(xs, ys)
    np.testing.assert_array_equal(
        region.contains_many(handle), region.contains_many(direct)
    )
    for center, field in _anchors(engine, poi):
        np.testing.assert_array_equal(
            _bits(handle.squared_distances(center)),
            _bits(direct.squared_distances(center)),
        )
        np.testing.assert_array_equal(
            _bits(handle.distances(center)), _bits(direct.distances(center))
        )
        np.testing.assert_array_equal(
            _bits(handle.memoized_distances(center)),
            _bits(direct.distances(center)),
        )
        np.testing.assert_array_equal(
            _bits(field.distances_to_many(handle)),
            _bits(field.distances_to_many(direct)),
        )


subset_chains = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.05, max_value=1.0),
    ),
    max_size=3,
)
draws = dict(
    case=st.integers(min_value=0, max_value=10**6),
    poi_pick=st.integers(min_value=0, max_value=10**6),
    seeds=subset_chains,
)

#: One estimator shared by every example, so its memo is warm.
WARM = PresenceEstimator()


@settings(max_examples=40, deadline=None)
@given(**draws)
def test_warm_memo_is_bit_identical(scenario, case, poi_pick, seeds):
    engine, cases = scenario
    region, pois = cases[case % len(cases)]
    poi = pois[poi_pick % len(pois)]
    grid = WARM.samples_of(poi)
    for _ in range(2):  # the first pass may fill the memo, the second hits
        handle, raw = _nested(grid, seeds)
        _assert_identical(engine, region, poi, handle, grid.xs[raw], grid.ys[raw])
    assert len(WARM.memo) > 0


@settings(max_examples=25, deadline=None)
@given(**draws)
def test_evicting_memo_is_bit_identical(scenario, case, poi_pick, seeds):
    engine, cases = scenario
    region, pois = cases[case % len(cases)]
    poi = pois[poi_pick % len(pois)]
    with pytest.MonkeyPatch.context() as patch:
        # Room for about two full-grid arrays: nearly every lookup evicts.
        patch.setattr(samples_module, "SAMPLE_MEMO_BYTES", 2 * 8 * 1024)
        estimator = PresenceEstimator()
    assert estimator.memo.max_bytes == 2 * 8 * 1024
    grid = estimator.samples_of(poi)
    for _ in range(2):
        handle, raw = _nested(grid, seeds)
        _assert_identical(engine, region, poi, handle, grid.xs[raw], grid.ys[raw])
        assert estimator.memo.nbytes <= estimator.memo.max_bytes


def _two_room_grid(engine, pois, pick):
    """The sample grids of a POI and a POI in another room, joined."""
    estimator = PresenceEstimator()
    first = pois[pick % len(pois)]
    other = min(
        (p for p in engine.pois if p.room_id != first.room_id),
        key=lambda p: p.polygon.centroid().distance_to(first.polygon.centroid()),
    )
    a, b = estimator.samples_of(first), estimator.samples_of(other)
    return first, np.concatenate([a.xs, b.xs]), np.concatenate([a.ys, b.ys])


@settings(max_examples=25, deadline=None)
@given(**draws)
def test_grid_spanning_two_rooms_is_bit_identical(scenario, case, poi_pick, seeds):
    engine, cases = scenario
    region, pois = cases[case % len(cases)]
    poi, xs, ys = _two_room_grid(engine, pois, poi_pick)
    assert engine.topology.oracle.single_room(xs, ys) is None
    grid = Samples.of(xs, ys, memo=SampleMemo())
    for _ in range(2):
        handle, raw = _nested(grid, seeds)
        _assert_identical(engine, region, poi, handle, xs[raw], ys[raw])


def test_memo_only_caches_full_grid_arrays():
    """A subset lookup stores the whole-grid array and indexes it."""
    memo = SampleMemo()
    xs = np.linspace(0.0, 9.0, 10)
    grid = Samples.of(xs, np.zeros(10), memo=memo)
    calls = []

    def compute(a, b):
        calls.append(len(a))
        return a * 2.0

    subset = grid.take(np.array([1, 3, 5])).take(np.array([0, 2]))
    np.testing.assert_array_equal(subset.lookup("k", compute), [2.0, 10.0])
    np.testing.assert_array_equal(grid.lookup("k", compute), xs * 2.0)
    assert calls == [10]
    assert len(memo) == 1 and memo.nbytes == xs.nbytes
    with pytest.raises(ValueError):
        grid.lookup("k", compute)[0] = 1.0  # memo arrays are read-only
