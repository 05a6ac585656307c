"""Tests for the grid quadrature (:mod:`repro.geometry.area`)."""

import math

import numpy as np
import pytest

from repro.geometry import (
    AREA_EPSILON,
    Circle,
    EmptyRegion,
    Mbr,
    Point,
    Polygon,
    Samples,
    floats_equal,
    grid_points,
    intersection_fraction,
    near_zero,
    polygon_grid_points,
    region_area,
)


class TestGridPoints:
    def test_cell_count_and_area(self):
        xs, ys, cell_area = grid_points(Mbr(0, 0, 10, 10), resolution=10)
        assert len(xs) == 100
        assert cell_area == pytest.approx(1.0)
        assert xs.min() == pytest.approx(0.5)
        assert xs.max() == pytest.approx(9.5)

    def test_total_cell_area_matches_mbr(self):
        box = Mbr(-3, 2, 7, 5)
        xs, ys, cell_area = grid_points(box, resolution=16)
        assert len(xs) * cell_area == pytest.approx(box.area())

    def test_anisotropic_box_keeps_cells_square_ish(self):
        xs, ys, _ = grid_points(Mbr(0, 0, 100, 10), resolution=20)
        unique_x = np.unique(xs)
        unique_y = np.unique(ys)
        assert len(unique_x) == 20
        assert len(unique_y) == 2

    def test_degenerate_box(self):
        xs, ys, cell_area = grid_points(Mbr(1, 1, 1, 1), resolution=8)
        assert len(xs) == 1
        assert cell_area == 0.0

    def test_rejects_zero_resolution(self):
        with pytest.raises(ValueError):
            grid_points(Mbr(0, 0, 1, 1), resolution=0)


class TestPolygonGridPoints:
    def test_all_points_inside_polygon(self):
        shape = Polygon.rectangle(0, 0, 4, 4)
        xs, ys, _ = polygon_grid_points(shape, resolution=8)
        assert shape.contains_many(Samples.of(xs, ys)).all()

    def test_tiny_polygon_falls_back_to_centroid(self):
        sliver = Polygon(
            [Point(0, 0), Point(10, 0.001), Point(10, 0.002), Point(0, 0.001)]
        )
        xs, ys, weight = polygon_grid_points(sliver, resolution=2)
        assert len(xs) >= 1
        assert weight > 0.0


class TestRegionArea:
    def test_rectangle_is_exact(self):
        shape = Polygon.rectangle(0, 0, 8, 4)
        assert region_area(shape, resolution=32) == pytest.approx(32.0, rel=1e-9)

    def test_circle_converges(self):
        circle = Circle(Point(0, 0), 3.0)
        coarse = abs(region_area(circle, resolution=16) - circle.area())
        fine = abs(region_area(circle, resolution=256) - circle.area())
        assert fine < coarse
        assert fine / circle.area() < 0.01

    def test_empty_region_zero(self):
        assert region_area(EmptyRegion()) == 0.0


class TestIntersectionFraction:
    def test_full_coverage(self):
        poi = Polygon.rectangle(0, 0, 2, 2)
        region = Circle(Point(1, 1), 10.0)
        assert intersection_fraction(region, poi) == 1.0

    def test_no_coverage(self):
        poi = Polygon.rectangle(0, 0, 2, 2)
        region = Circle(Point(100, 100), 1.0)
        assert intersection_fraction(region, poi) == 0.0

    def test_half_coverage(self):
        poi = Polygon.rectangle(0, 0, 2, 2)
        region = Polygon.rectangle(0, 0, 1, 2)  # left half
        fraction = intersection_fraction(region, poi, resolution=64)
        assert fraction == pytest.approx(0.5, abs=0.02)

    def test_always_within_unit_interval(self):
        poi = Polygon.rectangle(0, 0, 3, 3)
        for radius in (0.1, 1.0, 2.0, 50.0):
            fraction = intersection_fraction(Circle(Point(1.5, 1.5), radius), poi)
            assert 0.0 <= fraction <= 1.0

    def test_empty_region_gives_zero(self):
        poi = Polygon.rectangle(0, 0, 1, 1)
        assert intersection_fraction(EmptyRegion(), poi) == 0.0

    def test_determinism(self):
        poi = Polygon.rectangle(0, 0, 5, 3)
        region = Circle(Point(2, 2), 2.2)
        values = {intersection_fraction(region, poi) for _ in range(5)}
        assert len(values) == 1


class TestEpsilonHelpers:
    """The shared tolerant comparisons the float-equality rule points to."""

    def test_near_zero_on_round_off(self):
        assert near_zero(0.0)
        assert near_zero(AREA_EPSILON / 2)
        assert near_zero(-AREA_EPSILON / 2)
        assert not near_zero(1e-6)
        assert near_zero(0.25, tolerance=0.5)

    def test_floats_equal_tolerates_representation_noise(self):
        assert floats_equal(0.1 + 0.2, 0.3)
        assert floats_equal(1e9, 1e9 * (1 + 1e-10))
        assert not floats_equal(1.0, 1.0001)
        assert floats_equal(0.0, AREA_EPSILON / 2)

    def test_degenerate_point_region_has_zero_area(self):
        # A zero-radius circle produces a degenerate (single-cell,
        # zero-cell-area) grid; the area must come out exactly 0.0 and
        # near_zero must classify it, never an exact == comparison.
        point_region = Circle(Point(3.0, 4.0), 0.0)
        area = region_area(point_region, resolution=16)
        assert near_zero(area)
        assert area == 0.0

    def test_zero_width_polygon_region_area(self):
        line = Polygon(
            [Point(0, 0), Point(5, 0), Point(5, 1e-15), Point(0, 1e-15)]
        )
        assert near_zero(region_area(line, resolution=8))
