"""Line geometry and displacements: examples and invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bennett8.errors import ParallelLines
from bennett8.screws import (
    Displacement,
    OrientedLine,
    apply,
    common_perpendicular,
    compose,
    dual_angle,
    inverse,
    line_distance,
    line_reflection,
    midline_symmetry_axis,
    rotation_about_line,
    screw_displacement,
)
from conftest import random_displacement, random_line, random_line_pair

X_AXIS = OrientedLine.from_point_direction(np.zeros(3), np.array([1.0, 0, 0]))
Z_AXIS = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0, 1]))


def displacement_distance(d1: Displacement, d2: Displacement) -> float:
    """8-vector distance up to the overall dual-quaternion sign."""
    a = np.concatenate([d1.q_r, d1.q_d])
    b = np.concatenate([d2.q_r, d2.q_d])
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


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
    refl = line_reflection(Z_AXIS)
    assert np.allclose(apply(refl, np.array([1.0, 0, 0])), [-1, 0, 0], atol=1e-15)
    # applied twice = identity
    assert displacement_distance(compose(refl, refl), Displacement.identity()) < 1e-15
    img = apply(refl, X_AXIS)
    assert line_distance(img, X_AXIS.reversed()) < 1e-15


def test_line_reflection_has_zero_scalar_part():
    rng = np.random.default_rng(2)
    for _ in range(50):
        refl = line_reflection(random_line(rng))
        assert refl.q_r[0] == 0.0


def test_compose_of_two_line_reflections_is_screw():
    # reflections about two lines with common perpendicular p and signed dual
    # angle (theta, c) from l1 to l2 about p compose to the screw about p with
    # angle 2 theta and translation 2c
    rng = np.random.default_rng(4)
    for _ in range(50):
        l1, l2 = random_line_pair(rng, min_cross=0.05)
        cp = common_perpendicular(l1, l2)
        p = cp.axis
        theta = np.arctan2(np.dot(np.cross(l1.d, l2.d), p.d), np.dot(l1.d, l2.d))
        c = np.dot(cp.foot2 - cp.foot1, p.d)
        d = compose(line_reflection(l2), line_reflection(l1))
        assert displacement_distance(d, screw_displacement(p, 2 * theta, 2 * c)) < 1e-12


def test_reflections_about_intersecting_orthogonal_axes():
    d = compose(line_reflection(Z_AXIS), line_reflection(X_AXIS))
    y_axis = OrientedLine.from_point_direction(np.zeros(3), np.array([0, 1.0, 0]))
    assert displacement_distance(d, line_reflection(y_axis)) < 1e-15


@pytest.mark.parametrize("size", [1.0, 1e4, 1e8])
def test_study_check_is_relative(size):
    # the Study condition q_r . q_d = 0 is checked relative to |q_d|, so a
    # violation of relative size 1e-6 raises at every length unit
    q_r = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="Study"):
        Displacement(q_r, size * np.array([1e-6, 0.0, 1.0, 0.0]))
    # round-off of relative size 1e-12 passes and is projected out
    d = Displacement(q_r, size * np.array([1e-12, 0.0, 1.0, 0.0]))
    assert d.q_d[0] == 0.0


def test_compose_inverse_identity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = random_displacement(rng)
        assert displacement_distance(compose(d, inverse(d)), Displacement.identity()) < 1e-12


def test_chain_preserves_norm_and_study():
    rng = np.random.default_rng(8)
    d = Displacement.identity()
    for _ in range(100):
        d = compose(d, random_displacement(rng))
        qr, qd = d.q_r, d.q_d
        assert abs(np.linalg.norm(qr) - 1) < 1e-10
        assert abs(np.dot(qr, qd)) < 1e-10


def test_apply_preserves_pluecker():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = random_displacement(rng)
        line = apply(d, random_line(rng))
        assert abs(np.linalg.norm(line.d) - 1) < 1e-10
        assert abs(np.dot(line.d, line.m)) < 1e-10


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
        d = random_displacement(rng)
        a1 = dual_angle(apply(d, l1), apply(d, l2))
        assert a1[0] == pytest.approx(a0[0], abs=1e-10)
        assert a1[1] == pytest.approx(a0[1], abs=1e-9)


def test_midline_symmetry_axis():
    rng = np.random.default_rng(14)
    for _ in range(100):
        l1, l2 = random_line_pair(rng, min_cross=0.02)
        s = midline_symmetry_axis(l1, l2)
        img = apply(line_reflection(s), l1)
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
        img = apply(line_reflection(axis), line)
        if np.linalg.norm(np.cross(line.d, img.d)) < 1e-6:
            continue  # line orthogonal to axis maps to its own reverse
        s = midline_symmetry_axis(line, img)
        # recovered axis agrees up to orientation
        assert min(
            line_distance(s, axis), line_distance(s, axis.reversed())
        ) < 1e-9


def test_rotation_about_line_moves_points_correctly():
    rot = rotation_about_line(Z_AXIS, np.pi / 2)
    assert np.allclose(apply(rot, np.array([1.0, 0, 0])), [0, 1, 0], atol=1e-15)
    shifted = OrientedLine.from_point_direction(np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))
    rot = rotation_about_line(shifted, np.pi)
    assert np.allclose(apply(rot, np.array([0.0, 0, 0])), [2, 0, 0], atol=1e-14)


@given(st.floats(-3, 3), st.floats(-2, 2), st.floats(-3, 3), st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_screws_about_same_axis_commute_and_add(a1, t1, a2, t2):
    d1 = screw_displacement(Z_AXIS, a1, t1)
    d2 = screw_displacement(Z_AXIS, a2, t2)
    combined = screw_displacement(Z_AXIS, a1 + a2, t1 + t2)
    assert displacement_distance(compose(d2, d1), combined) < 1e-12
    assert displacement_distance(compose(d1, d2), combined) < 1e-12
