"""Line geometry, and the half-turns and screws of the dual-vector kernel."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bennett8._dual import _dual_halfturn, _dual_vector, _line, _screw
from bennett8.errors import ParallelLines
from bennett8.screws import OrientedLine
from conftest import random_line, random_line_pair, random_point, reflect_line, unit_vector
from reference import apply as rotate
from reference import common_perpendicular, dual_angle, line_distance, midline_symmetry_axis, rotation_about

X_AXIS = OrientedLine.from_point_direction(np.zeros(3), np.array([1.0, 0, 0]))
Y_AXIS = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 1, 0]))
Z_AXIS = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0, 1]))


def screw_line(axis: OrientedLine, angle: float, slide: float, line: OrientedLine) -> OrientedLine:
    """The screw about axis, point by point: two points of the line are
    turned about the axis by Rodrigues' formula and slid along it."""

    def image(p):
        r = p - axis.foot()
        turned = (
            np.cos(angle) * r
            + np.sin(angle) * np.cross(axis.d, r)
            + (1 - np.cos(angle)) * np.dot(axis.d, r) * axis.d
        )
        return axis.foot() + turned + slide * axis.d

    p = line.foot()
    q0, q1 = image(p), image(p + line.d)
    return OrientedLine.from_point_direction(q0, q1 - q0)


def screwed(axis: OrientedLine, angle: float, slide: float, line: OrientedLine) -> OrientedLine:
    return _line(_screw(_dual_vector(axis), angle, slide, _dual_vector(line)))


def halfturn(axis: OrientedLine, line: OrientedLine) -> OrientedLine:
    return _line(_dual_halfturn(_dual_vector(axis), _dual_vector(line)))


def test_common_perpendicular_example():
    l2 = OrientedLine.from_point_direction(np.array([0, 0, 1.0]), np.array([0, 1.0, 0]))
    cp = common_perpendicular(X_AXIS, l2)
    assert np.allclose(np.abs(cp.axis.d), [0, 0, 1])
    assert cp.distance == pytest.approx(1.0, abs=1e-14)
    assert cp.angle == pytest.approx(np.pi / 2, abs=1e-14)


def test_common_perpendicular_parallel_rejected():
    shifted = OrientedLine.from_point_direction(np.array([0, 0, 0.7]), np.array([1.0, 0, 0]))
    with pytest.raises(ParallelLines):
        common_perpendicular(X_AXIS, shifted)
    with pytest.raises(ParallelLines):
        common_perpendicular(X_AXIS, X_AXIS)


def test_common_perpendicular_nearly_parallel():
    # 1e-9 rad apart: past the ParallelLines guard, where 1 - cos^2 rounds to 0
    eps = 1e-9
    l2 = OrientedLine.from_point_direction(
        np.array([0, 0.3, 1.0]), np.array([np.cos(eps), np.sin(eps), 0])
    )
    cp = common_perpendicular(X_AXIS, l2)
    assert cp.angle == pytest.approx(eps, rel=1e-12)
    assert cp.distance == pytest.approx(1.0, abs=1e-6)
    # the feet lie over the crossing of the lines' projections onto z = 0
    assert cp.foot1[0] == pytest.approx(-0.3 / np.tan(eps), rel=1e-6)
    assert cp.foot2[:2] == pytest.approx(cp.foot1[:2], abs=1e-6)


def test_common_perpendicular_intersecting():
    other = OrientedLine.from_point_direction(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    cp = common_perpendicular(X_AXIS, other)
    assert cp.distance == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(cp.foot1, [1, 0, 0], atol=1e-14)


def test_line_reflection_examples():
    assert line_distance(halfturn(Z_AXIS, X_AXIS), X_AXIS.reversed()) < 1e-15
    shifted = OrientedLine.from_point_direction(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    want = OrientedLine.from_point_direction(np.array([-1.0, 0, 0]), np.array([0, -1.0, 0]))
    assert line_distance(halfturn(Z_AXIS, shifted), want) < 1e-15
    rng = np.random.default_rng(2)
    for _ in range(50):
        axis, line = random_line(rng), random_line(rng)
        img = halfturn(axis, line)
        assert line_distance(img, reflect_line(axis, line)) < 1e-13
        # applied twice it is the identity
        assert line_distance(halfturn(axis, img), line) < 1e-13


def test_line_reflection_has_zero_scalar_part():
    # the line reflection is the screw whose dual quaternion has the scalar
    # part cos((theta + eps slide) / 2) = 0: the screw by pi without slide
    rng = np.random.default_rng(3)
    for _ in range(50):
        axis, line = random_line(rng), random_line(rng)
        assert line_distance(screwed(axis, np.pi, 0.0, line), halfturn(axis, line)) < 1e-13


def test_compose_of_two_line_reflections_is_screw():
    # reflections about two lines with common perpendicular p and signed
    # dual angle (theta, c) from l1 to l2 about p make the screw about p by
    # angle 2 theta and slide 2c
    rng = np.random.default_rng(4)
    for _ in range(50):
        l1, l2 = random_line_pair(rng, min_cross=0.05)
        cp = common_perpendicular(l1, l2)
        c = np.dot(cp.foot2 - cp.foot1, cp.axis.d)
        x = random_line(rng)
        want = screwed(cp.axis, 2 * cp.angle, 2 * c, x)
        assert line_distance(halfturn(l2, halfturn(l1, x)), want) < 1e-12


def test_reflections_about_intersecting_orthogonal_axes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = random_line(rng)
        assert line_distance(halfturn(Z_AXIS, halfturn(X_AXIS, x)), halfturn(Y_AXIS, x)) < 1e-14


def test_compose_inverse_identity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        axis, line = random_line(rng), random_line(rng)
        angle, slide = rng.uniform(-3, 3), rng.uniform(-2, 2)
        back = screwed(axis, -angle, -slide, screwed(axis, angle, slide, line))
        assert line_distance(back, line) < 1e-12


def test_chain_preserves_norm_and_study():
    # the unit and Pluecker conditions of a line, the counterparts of the
    # Study condition, survive a chain of 100 screws without renormalizing
    rng = np.random.default_rng(8)
    x = _dual_vector(random_line(rng))
    for _ in range(100):
        x = _screw(_dual_vector(random_line(rng)), rng.uniform(-3, 3), rng.uniform(-2, 2), x)
        assert abs(np.linalg.norm(x[:3]) - 1) < 1e-10
        assert abs(np.dot(x[:3], x[3:])) < 1e-10


def test_apply_preserves_pluecker():
    # the dual Rodrigues formula against screwing two points of the line
    rng = np.random.default_rng(9)
    for _ in range(100):
        axis, line = random_line(rng), random_line(rng)
        angle, slide = rng.uniform(-3, 3), rng.uniform(-2, 2)
        img = _screw(_dual_vector(axis), angle, slide, _dual_vector(line))
        assert abs(np.linalg.norm(img[:3]) - 1) < 1e-12
        assert abs(np.dot(img[:3], img[3:])) < 1e-12
        want = screw_line(axis, angle, slide, line)
        assert np.max(np.abs(img - _dual_vector(want))) < 1e-12


def test_screw_without_moments_is_the_rotation():
    rng = np.random.default_rng(10)
    zero = np.zeros(3)
    for _ in range(50):
        p, x, angle = random_point(rng), random_point(rng), rng.uniform(-3, 3)
        img = _screw(np.r_[p.v, zero], angle, 0.0, np.r_[x.v, zero])
        want = rotate(rotation_about(p, angle), x).v
        assert np.max(np.abs(img - np.r_[want, zero])) < 1e-14


def test_dual_angle_examples():
    skew = OrientedLine.from_point_direction(np.array([0, 0, 1.0]), np.array([0, 1.0, 0]))
    assert dual_angle(X_AXIS, skew) == pytest.approx((np.pi / 2, 1.0), abs=1e-14)
    meet = OrientedLine.from_point_direction(
        np.zeros(3), np.array([np.cos(np.pi / 6), np.sin(np.pi / 6), 0])
    )
    ang, off = dual_angle(X_AXIS, meet)
    assert ang == pytest.approx(np.pi / 6, abs=1e-12)
    assert off == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParallelLines):
        dual_angle(X_AXIS, OrientedLine.from_point_direction(np.array([0, 1.0, 0]), -X_AXIS.d))


def test_dual_angle_rigid_invariance():
    rng = np.random.default_rng(12)
    for _ in range(100):
        l1, l2 = random_line_pair(rng, min_cross=0.02)
        a0 = dual_angle(l1, l2)
        cp = common_perpendicular(l1, l2)
        assert a0 == pytest.approx((cp.angle, cp.distance), abs=1e-12)
        axis, angle, slide = random_line(rng), rng.uniform(-3, 3), rng.uniform(-2, 2)
        a1 = dual_angle(*(screwed(axis, angle, slide, line) for line in (l1, l2)))
        assert a1[0] == pytest.approx(a0[0], abs=1e-10)
        assert a1[1] == pytest.approx(a0[1], abs=1e-9)


def test_midline_symmetry_axis():
    rng = np.random.default_rng(14)
    for _ in range(100):
        l1, l2 = random_line_pair(rng, min_cross=0.02)
        s = midline_symmetry_axis(l1, l2)
        img = reflect_line(s, l1)
        assert line_distance(img, l2) < 1e-10
    # intersecting lines: the axis passes through the intersection point
    meet = OrientedLine.from_point_direction(np.array([2.0, 0, 0]), np.array([0, 1.0, 0]))
    s = midline_symmetry_axis(X_AXIS, meet)
    off = np.array([2.0, 0, 0]) - s.foot()
    assert np.linalg.norm(off - np.dot(off, s.d) * s.d) < 1e-12


def test_midline_round_trip_through_reflection():
    rng = np.random.default_rng(15)
    for _ in range(50):
        axis = random_line(rng)
        line = random_line(rng)
        if np.linalg.norm(np.cross(axis.d, line.d)) < 0.05:
            continue
        img = reflect_line(axis, line)
        if np.linalg.norm(np.cross(line.d, img.d)) < 1e-6:
            continue  # line orthogonal to axis maps to its own reverse
        s = midline_symmetry_axis(line, img)
        # recovered axis agrees up to orientation
        assert min(
            line_distance(s, axis), line_distance(s, axis.reversed())
        ) < 1e-9


def test_rotation_about_line_moves_points_correctly():
    assert line_distance(screwed(Z_AXIS, np.pi / 2, 0.0, X_AXIS), Y_AXIS) < 1e-15
    # the half-turn about the line x = 1 along z carries the origin to (2, 0, 0)
    shifted = OrientedLine.from_point_direction(np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))
    want = OrientedLine.from_point_direction(np.array([2.0, 0, 0]), np.array([0, -1.0, 0]))
    assert line_distance(screwed(shifted, np.pi, 0.0, Y_AXIS), want) < 1e-14


LINE = OrientedLine.from_point_direction(np.array([0.3, -1.2, 0.5]), unit_vector(np.random.default_rng(16)))


@given(st.floats(-3, 3), st.floats(-2, 2), st.floats(-3, 3), st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_screws_about_same_axis_commute_and_add(a1, t1, a2, t2):
    combined = screwed(Z_AXIS, a1 + a2, t1 + t2, LINE)
    assert line_distance(screwed(Z_AXIS, a2, t2, screwed(Z_AXIS, a1, t1, LINE)), combined) < 1e-12
    assert line_distance(screwed(Z_AXIS, a1, t1, screwed(Z_AXIS, a2, t2, LINE)), combined) < 1e-12
