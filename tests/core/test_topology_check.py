"""Tests for the indoor topology check (paper, Section 3.3, Figure 8).

Scenario modelled on Figure 8(a): two rooms side by side; a device sits in
the left room near the shared wall, the only door between the rooms is far
away.  Points just across the wall are close in Euclidean terms but far by
walking distance — the topology check must exclude them.
"""

# repro: allow-file(context-bypass): compares raw builders with and without a topology checker

import math

import pytest

from repro.core import (
    PathReachabilityConstraint,
    ReachabilityConstraint,
    TopologyChecker,
)
from repro.geometry import Point, Polygon, Samples
from repro.indoor import (
    Deployment,
    Device,
    Door,
    FloorPlan,
    IndoorDistanceOracle,
    Room,
)


@pytest.fixture(scope="module")
def wall_setup():
    """Rooms [0,10]x[0,10] and [10,20]x[0,10]; one door at (10, 9.5)."""
    plan = FloorPlan(
        [
            Room("left", Polygon.rectangle(0, 0, 10, 10)),
            Room("right", Polygon.rectangle(10, 0, 20, 10)),
        ],
        [Door("d", Point(10, 9.5), "left", "right")],
    )
    oracle = IndoorDistanceOracle(plan)
    checker = TopologyChecker(oracle)
    device = Device.at("dev", Point(9, 1), 0.5)  # left room, near the wall
    return plan, oracle, checker, device


class TestReachabilityConstraint:
    def test_same_room_euclidean_reach(self, wall_setup):
        _, _, checker, device = wall_setup
        constraint = checker.ring_constraint(device, budget=4.0)
        assert constraint.contains(Point(6.0, 1.0))  # 3m away, same room
        assert not constraint.contains(Point(3.0, 1.0))  # 6m away

    def test_across_wall_excluded(self, wall_setup):
        # Figure 8(a): (11, 1) is 2m away in Euclidean terms but the walk
        # through the door at (10, 9.5) is ~17m.
        _, _, checker, device = wall_setup
        constraint = checker.ring_constraint(device, budget=4.0)
        assert not constraint.contains(Point(11.0, 1.0))

    def test_across_wall_included_with_generous_budget(self, wall_setup):
        _, oracle, checker, device = wall_setup
        walking = oracle.distance(device.center, Point(11.0, 1.0))
        constraint = checker.ring_constraint(device, budget=walking + 1.0)
        assert constraint.contains(Point(11.0, 1.0))

    def test_mbr_bounded_by_euclidean_reach(self, wall_setup):
        _, _, checker, device = wall_setup
        constraint = checker.ring_constraint(device, budget=4.0)
        box = constraint.mbr
        assert box is not None
        assert box.width <= 2 * (4.0 + device.radius) + 1e-9

    def test_vectorised_matches_scalar(self, wall_setup):
        import numpy as np

        _, _, checker, device = wall_setup
        constraint = checker.ring_constraint(device, budget=6.0)
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 20, 100)
        ys = rng.uniform(0, 10, 100)
        vector = constraint.contains_many(Samples.of(xs, ys))
        for x, y, v in zip(xs, ys, vector):
            assert v == constraint.contains(Point(float(x), float(y)))

    def test_validation(self, wall_setup):
        _, oracle, _, device = wall_setup
        field = oracle.field_from(device.center)
        with pytest.raises(ValueError):
            ReachabilityConstraint(field, -1.0, 5.0)
        with pytest.raises(ValueError):
            ReachabilityConstraint(field, 1.0, -5.0)


class TestPathReachabilityConstraint:
    def test_corridor_between_devices(self, wall_setup):
        plan, oracle, checker, device = wall_setup
        other = Device.at("dev2", Point(1, 1), 0.5)  # same room, 8m apart
        constraint = checker.path_constraint(other, device, budget=10.0)
        assert constraint.contains(Point(5.0, 1.0))  # on the straight path
        # Point across the wall: the walk a -> p -> b through the far door
        # blows the budget.
        assert not constraint.contains(Point(11.0, 1.0))

    def test_direct_path_through_door_allowed(self, wall_setup):
        plan, oracle, checker, _ = wall_setup
        left_dev = Device.at("L", Point(9, 9), 0.5)
        right_dev = Device.at("R", Point(11, 9), 0.5)
        # Walking L -> door(10, 9.5) -> R is short; points near the door
        # are on the path.
        constraint = checker.path_constraint(left_dev, right_dev, budget=4.0)
        assert constraint.contains(Point(10.0, 9.5))

    def test_infeasible_budget_empty(self, wall_setup):
        _, _, checker, device = wall_setup
        other = Device.at("far", Point(1, 1), 0.5)
        constraint = checker.path_constraint(other, device, budget=0.5)
        assert not constraint.contains(Point(5.0, 1.0))

    def test_validation(self, wall_setup):
        _, oracle, _, device = wall_setup
        field = oracle.field_from(device.center)
        with pytest.raises(ValueError):
            PathReachabilityConstraint(field, 1.0, field, 1.0, -2.0)


class TestTopologyChecker:
    def test_field_cache(self, wall_setup):
        _, _, checker, device = wall_setup
        assert checker.field_of(device) is checker.field_of(device)

    def test_negative_budget_clamped(self, wall_setup):
        _, _, checker, device = wall_setup
        constraint = checker.ring_constraint(device, budget=-3.0)
        assert constraint.budget == 0.0


class TestEndToEndExclusion:
    """Figure 8(a) as an engine-level effect: flow not credited to the
    unreachable room."""

    def test_snapshot_region_respects_walls(self, wall_setup):
        from repro.core import SnapshotContext, snapshot_region
        from repro.tracking import TrackingRecord

        plan, oracle, checker, device = wall_setup
        deployment = Deployment([device])
        context = SnapshotContext(
            object_id="o",
            t=14.0,
            rd_pre=TrackingRecord(0, "o", "dev", 5.0, 10.0),
            rd_cov=None,
            rd_suc=TrackingRecord(1, "o", "dev", 18.0, 25.0),
        )
        unchecked = snapshot_region(context, deployment, 1.0, topology=None)
        checked = snapshot_region(context, deployment, 1.0, topology=checker)
        probe = Point(11.0, 1.0)  # across the wall
        assert unchecked.contains(probe)
        assert not checked.contains(probe)
        # Same-room points unaffected.
        same_room = Point(6.0, 1.0)
        assert unchecked.contains(same_room) == checked.contains(same_room)
