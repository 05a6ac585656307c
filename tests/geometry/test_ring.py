"""Unit and property tests for :mod:`repro.geometry.ring`."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Circle, Point, Ring, Samples, region_area

coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
rings = st.builds(
    Ring,
    st.builds(
        Circle,
        st.builds(Point, coordinate, coordinate),
        st.floats(min_value=0.1, max_value=10.0),
    ),
    st.floats(min_value=0.0, max_value=20.0),
)


class TestBasics:
    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            Ring(Circle(Point(0, 0), 1.0), -0.5)

    def test_radii(self):
        ring = Ring(Circle(Point(0, 0), 2.0), 3.0)
        assert ring.inner_radius == 2.0
        assert ring.outer_radius == 5.0

    def test_area(self):
        ring = Ring(Circle(Point(0, 0), 1.0), 1.0)
        assert ring.area() == pytest.approx(math.pi * (4.0 - 1.0))

    def test_zero_width_ring_has_zero_area(self):
        assert Ring(Circle(Point(0, 0), 2.0), 0.0).area() == 0.0

    def test_mbr_matches_outer_circle(self):
        ring = Ring(Circle(Point(1, 1), 1.0), 2.0)
        assert ring.mbr == ring.outer_circle().mbr


class TestContainment:
    def test_annulus_membership(self):
        ring = Ring(Circle(Point(0, 0), 2.0), 2.0)
        assert not ring.contains(Point(0, 0))  # inside the hole
        assert not ring.contains(Point(1.0, 0))  # still in the hole
        assert ring.contains(Point(2.0, 0))  # inner boundary included
        assert ring.contains(Point(3.0, 0))  # in the band
        assert ring.contains(Point(4.0, 0))  # outer boundary included
        assert not ring.contains(Point(4.01, 0))  # outside

    def test_contains_many_matches_scalar(self):
        ring = Ring(Circle(Point(0.3, -0.7), 1.5), 2.5)
        xs = np.linspace(-5, 5, 41)
        ys = np.linspace(-5, 5, 41)
        vector = ring.contains_many(Samples.of(xs, ys))
        scalar = [ring.contains(Point(x, y)) for x, y in zip(xs, ys)]
        assert list(vector) == scalar

    def test_quadrature_matches_analytic_area(self):
        ring = Ring(Circle(Point(0, 0), 2.0), 3.0)
        assert region_area(ring, resolution=250) == pytest.approx(
            ring.area(), rel=0.02
        )


class TestProperties:
    @given(rings, st.builds(Point, coordinate, coordinate))
    def test_membership_by_distance_band(self, ring, point):
        distance = ring.center.distance_to(point)
        inside = ring.contains(point)
        strictly_in_band = (
            ring.inner_radius + 1e-6 < distance < ring.outer_radius - 1e-6
        )
        strictly_outside = (
            distance < ring.inner_radius - 1e-6
            or distance > ring.outer_radius + 1e-6
        )
        if strictly_in_band:
            assert inside
        if strictly_outside:
            assert not inside

    @given(rings)
    def test_ring_excludes_detection_disk_interior(self, ring):
        # The ring models "the object has LEFT the detection range": points
        # strictly inside the inner circle are never included.
        if ring.inner_radius > 1e-3:
            probe = Point(ring.center.x + ring.inner_radius / 2.0, ring.center.y)
            assert not ring.contains(probe)
