"""Unit and property tests for :mod:`repro.geometry.ellipse`.

The extended ellipse is the paper's inter-detection uncertainty primitive;
its membership predicate is ``dist(p, A) + dist(p, B) <= budget`` with
disk distances.  With point foci (zero radii) it degenerates to a classic
ellipse, which gives an analytic oracle to test against.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Circle, ExtendedEllipse, Point, Samples, region_area

coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestDegenerateClassicEllipse:
    """Zero-radius foci: the textbook two-focus ellipse."""

    def make(self, c=4.0, a=5.0):
        # Foci at (+-c, 0), semi-major a, so semi-minor b = 3 for (4, 5).
        return ExtendedEllipse(
            Circle(Point(-c, 0), 0.0), Circle(Point(c, 0), 0.0), 2.0 * a
        )

    def test_vertices_on_major_axis(self):
        e = self.make()
        assert e.contains(Point(5.0, 0.0))
        assert e.contains(Point(-5.0, 0.0))
        assert not e.contains(Point(5.01, 0.0))

    def test_covertices_on_minor_axis(self):
        e = self.make()
        assert e.contains(Point(0.0, 3.0))
        assert not e.contains(Point(0.0, 3.01))

    def test_analytic_area(self):
        # area = pi * a * b = pi * 5 * 3
        e = self.make()
        assert region_area(e, resolution=250) == pytest.approx(
            math.pi * 15.0, rel=0.02
        )

    def test_analytic_boundary_equation(self):
        e = self.make()
        for angle in np.linspace(0.0, 2 * math.pi, 17):
            x = 5.0 * math.cos(angle)
            y = 3.0 * math.sin(angle)
            assert e.contains(Point(x * 0.99, y * 0.99))
            assert not e.contains(Point(x * 1.02 + 1e-9, y * 1.02))


class TestCircularFoci:
    def test_foci_disks_near_sides_are_included(self):
        e = ExtendedEllipse(Circle(Point(0, 0), 1.0), Circle(Point(10, 0), 1.0), 9.0)
        # Points of disk A facing disk B satisfy the budget trivially.
        assert e.contains(Point(1.0, 0.0))
        assert e.contains(Point(9.0, 0.0))

    def test_far_side_of_focus_disk_can_be_excluded(self):
        # Budget exactly equals the straight gap: only the corridor between
        # the disks qualifies; the far side of disk A is out of reach.
        e = ExtendedEllipse(Circle(Point(0, 0), 1.0), Circle(Point(10, 0), 1.0), 8.0)
        assert e.contains(Point(1.0, 0.0))
        assert e.contains(Point(5.0, 0.0))
        assert not e.contains(Point(-1.0, 0.0))

    def test_infeasible_budget_is_empty(self):
        e = ExtendedEllipse(Circle(Point(0, 0), 1.0), Circle(Point(10, 0), 1.0), 5.0)
        assert e.is_infeasible()
        assert e.mbr is None
        assert not e.contains(Point(5.0, 0.0))

    def test_negative_budget_clamped(self):
        e = ExtendedEllipse(Circle(Point(0, 0), 1.0), Circle(Point(1.5, 0), 1.0), -3.0)
        assert e.path_budget == 0.0
        # Overlapping disks with zero budget: the touching corridor exists.
        assert e.contains(Point(0.75, 0.0))

    def test_mbr_is_sound(self):
        e = ExtendedEllipse(Circle(Point(0, 0), 2.0), Circle(Point(12, 3), 1.0), 15.0)
        assert e.mbr is not None
        xs = np.linspace(e.mbr.min_x - 5, e.mbr.max_x + 5, 60)
        ys = np.linspace(e.mbr.min_y - 5, e.mbr.max_y + 5, 60)
        grid_x, grid_y = np.meshgrid(xs, ys)
        inside = e.contains_many(Samples.of(grid_x.ravel(), grid_y.ravel()))
        for x, y in zip(grid_x.ravel()[inside], grid_y.ravel()[inside]):
            assert e.mbr.contains_point(Point(x, y), tolerance=1e-6)

    def test_contains_many_matches_scalar(self):
        e = ExtendedEllipse(Circle(Point(0, 0), 1.5), Circle(Point(8, 2), 1.0), 10.0)
        xs = np.linspace(-5, 12, 35)
        ys = np.linspace(-5, 8, 35)
        vector = e.contains_many(Samples.of(xs, ys))
        scalar = [e.contains(Point(x, y)) for x, y in zip(xs, ys)]
        assert list(vector) == scalar

    def test_gap_region_excludes_detection_disks(self):
        e = ExtendedEllipse(Circle(Point(0, 0), 1.0), Circle(Point(6, 0), 1.0), 8.0)
        gap = e.gap_region
        assert not gap.contains(Point(0.0, 0.0))
        assert not gap.contains(Point(6.0, 0.0))
        assert gap.contains(Point(3.0, 0.0))


class TestProperties:
    @given(
        st.builds(Point, coordinate, coordinate),
        st.builds(Point, coordinate, coordinate),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=500.0),
        st.builds(Point, coordinate, coordinate),
    )
    def test_membership_matches_predicate(self, ca, cb, ra, rb, budget, probe):
        a, b = Circle(ca, ra), Circle(cb, rb)
        e = ExtendedEllipse(a, b, budget)
        total = a.distance_to_point(probe) + b.distance_to_point(probe)
        if total <= budget - 1e-6:
            assert e.contains(probe)
        if total > budget + 1e-6:
            assert not e.contains(probe)

    @given(
        st.builds(Point, coordinate, coordinate),
        st.builds(Point, coordinate, coordinate),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=500.0),
    )
    def test_gateway_point_inside_when_feasible(self, ca, cb, ra, rb, budget):
        """The point halfway along the straight gap is always reachable."""
        e = ExtendedEllipse(Circle(ca, ra), Circle(cb, rb), budget)
        d = ca.distance_to(cb)
        gap = max(0.0, d - ra - rb)
        if gap > budget - 1e-6:
            return  # infeasible or marginal
        if d <= 1e-9:
            probe = ca  # concentric: the centre is in both disks
        elif gap <= 0.0:
            # Disks overlap: the point on the centre line just inside B's
            # near boundary also lies inside A (since d - rb <= ra).
            probe = ca.lerp(cb, max(0.0, d - rb) / d)
        else:
            # The point between the two boundaries along the center line:
            # dist to A = dist to B = gap / 2.
            probe = ca.lerp(cb, (ra + gap / 2.0) / d)
        assert e.contains(probe)
