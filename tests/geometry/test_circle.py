"""Unit and property tests for :mod:`repro.geometry.circle`."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Circle, Point, Samples, region_area

coordinate = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
radii = st.floats(min_value=0.01, max_value=100.0)
circles = st.builds(Circle, st.builds(Point, coordinate, coordinate), radii)


class TestBasics:
    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1.0)

    def test_area(self):
        assert Circle(Point(0, 0), 2.0).area() == pytest.approx(4 * math.pi)

    def test_mbr(self):
        box = Circle(Point(1, 2), 3.0).mbr
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (-2, -1, 4, 5)

    def test_contains_center_and_boundary(self):
        c = Circle(Point(0, 0), 1.0)
        assert c.contains(Point(0, 0))
        assert c.contains(Point(1, 0))
        assert not c.contains(Point(1.001, 0))

    def test_contains_many_matches_scalar(self):
        c = Circle(Point(0.5, -0.5), 2.0)
        xs = np.linspace(-3, 3, 25)
        ys = np.linspace(-3, 3, 25)
        vector = c.contains_many(Samples.of(xs, ys))
        scalar = [c.contains(Point(x, y)) for x, y in zip(xs, ys)]
        assert list(vector) == scalar


class TestDistances:
    def test_distance_to_inside_point_is_zero(self):
        assert Circle(Point(0, 0), 2.0).distance_to_point(Point(1, 0)) == 0.0

    def test_distance_to_outside_point(self):
        assert Circle(Point(0, 0), 2.0).distance_to_point(Point(5, 0)) == 3.0

    def test_expanded(self):
        c = Circle(Point(1, 1), 2.0).expanded(1.5)
        assert c.radius == 3.5
        assert c.center == Point(1, 1)

    def test_expanded_rejects_negative(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), 1.0).expanded(-0.1)


class TestCircleIntersection:
    def test_overlapping(self):
        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(3, 0), 2.0)
        assert a.intersects_circle(b)

    def test_touching_counts_as_intersecting(self):
        a = Circle(Point(0, 0), 1.0)
        b = Circle(Point(2, 0), 1.0)
        assert a.intersects_circle(b)

    def test_disjoint(self):
        a = Circle(Point(0, 0), 1.0)
        b = Circle(Point(5, 0), 1.0)
        assert not a.intersects_circle(b)

    def test_contained_circle_intersects(self):
        a = Circle(Point(0, 0), 5.0)
        b = Circle(Point(1, 0), 1.0)
        assert a.intersects_circle(b)


class TestBoundary:
    def test_boundary_point_towards(self):
        c = Circle(Point(0, 0), 2.0)
        p = c.boundary_point_towards(Point(10, 0))
        assert p.almost_equal(Point(2.0, 0.0), tolerance=1e-9)

    def test_boundary_point_towards_center_falls_back(self):
        c = Circle(Point(1, 1), 2.0)
        p = c.boundary_point_towards(Point(1, 1))
        assert c.center.distance_to(p) == pytest.approx(2.0)

    def test_sample_boundary_count_and_radius(self):
        c = Circle(Point(0, 0), 3.0)
        points = c.sample_boundary(16)
        assert len(points) == 16
        for p in points:
            assert c.center.distance_to(p) == pytest.approx(3.0)

    def test_sample_boundary_rejects_zero(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), 1.0).sample_boundary(0)


class TestQuadrature:
    def test_area_estimate_converges(self):
        c = Circle(Point(0, 0), 2.0)
        estimate = region_area(c, resolution=200)
        assert estimate == pytest.approx(c.area(), rel=0.01)


class TestProperties:
    @given(circles, st.builds(Point, coordinate, coordinate))
    def test_contains_iff_distance_zero(self, circle, point):
        if circle.contains(point):
            assert circle.distance_to_point(point) <= 1e-6
        else:
            assert circle.distance_to_point(point) > 0.0

    @given(circles, st.builds(Point, coordinate, coordinate))
    def test_contained_point_in_mbr(self, circle, point):
        if circle.contains(point):
            assert circle.mbr.contains_point(point, tolerance=1e-6)
