"""Spherical geometry: construction examples and invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bennett8._dual import _qmul, _unsigned_gap
from bennett8.errors import DegenerateCircle
from bennett8.sphere import OrientedGreatCircle, SpherePoint, great_circle_through
from conftest import random_circle, random_circle_pair, random_point
from reference import (
    SphericalRotation,
    antipode,
    apply,
    arc_point,
    circle_angle,
    common_perpendicular_circle,
    halfturn_about,
    lies_on,
    reflect_in_circle,
    rotation_about,
    spherical_distance,
    symmetry_centers,
)

EX = SpherePoint.of(1, 0, 0)
EY = SpherePoint.of(0, 1, 0)
EZ = SpherePoint.of(0, 0, 1)
IDENTITY = SphericalRotation(np.array([1.0, 0, 0, 0]))


def rotation_distance(r1: SphericalRotation, r2: SphericalRotation) -> float:
    """Quaternion distance up to sign; 0 iff same rotation."""
    return _unsigned_gap(r1.q, r2.q)

unit3 = st.tuples(
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
).filter(lambda t: 0.1 < np.linalg.norm(t) <= 1.8)
angles = st.floats(-np.pi, np.pi, allow_nan=False)


def test_antipode_examples():
    assert np.allclose(antipode(EZ).v, [0, 0, -1])
    assert np.allclose(antipode(EX).v, [-1, 0, 0])


@given(unit3)
def test_antipode_involution(v):
    p = SpherePoint(np.array(v))
    assert np.allclose(antipode(antipode(p)).v, p.v, atol=1e-15)


def test_spherical_distance_examples():
    assert spherical_distance(EX, EY) == pytest.approx(np.pi / 2, abs=1e-15)
    assert spherical_distance(EX, antipode(EX)) == pytest.approx(np.pi, abs=1e-15)
    q = SpherePoint.of(1, 1, 1)
    # extended-precision arccos(1/sqrt(3))
    assert spherical_distance(EX, q) == pytest.approx(0.95531661812450928, abs=1e-15)


def test_great_circle_through_examples():
    assert np.allclose(great_circle_through(EX, EY).n, [0, 0, 1])
    with pytest.raises(DegenerateCircle):
        great_circle_through(EX, antipode(EX))
    diag = SpherePoint.of(1, 1, 0)
    assert np.allclose(great_circle_through(EX, diag).n, [0, 0, 1])


def test_circle_angle_examples():
    gz = OrientedGreatCircle(np.array([0.0, 0, 1]))
    gx = OrientedGreatCircle(np.array([1.0, 0, 0]))
    assert circle_angle(gz, gx) == pytest.approx(np.pi / 2, abs=1e-15)
    assert circle_angle(gz, gz.reversed()) == pytest.approx(0.0, abs=1e-15)
    tilted = OrientedGreatCircle(np.array([0.0, np.sin(0.349), np.cos(0.349)]))
    assert circle_angle(gz, tilted) == pytest.approx(0.349, abs=1e-12)


def test_common_perpendicular_circle():
    gz = OrientedGreatCircle(np.array([0.0, 0, 1]))
    gx = OrientedGreatCircle(np.array([1.0, 0, 0]))
    cp = common_perpendicular_circle(gz, gx)
    assert np.allclose(cp.n, [0, 1, 0])  # tie-break picks +ey
    with pytest.raises(DegenerateCircle):
        common_perpendicular_circle(gz, gz.reversed())
    rng = np.random.default_rng(11)
    for _ in range(100):
        g1, g2 = random_circle_pair(rng)
        cp = common_perpendicular_circle(g1, g2)
        assert circle_angle(cp, g1) == pytest.approx(np.pi / 2, abs=1e-10)
        assert circle_angle(cp, g2) == pytest.approx(np.pi / 2, abs=1e-10)


def test_rotation_about_examples():
    r = rotation_about(EZ, np.pi)
    assert np.allclose(r.q, [0, 0, 0, 1])
    assert rotation_distance(rotation_about(EZ, 0.0), IDENTITY) < 1e-15
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_point(rng)
        phi = rng.uniform(-3, 3)
        assert (
            rotation_distance(rotation_about(antipode(p), phi), rotation_about(p, -phi))
            < 1e-15
        )


def test_compose_halfturns_orthogonal_axes():
    q = _qmul(halfturn_about(EY).q, halfturn_about(EX).q)
    assert rotation_distance(SphericalRotation(q), halfturn_about(EZ)) < 1e-15


def test_compose_inverse_identity():
    rng = np.random.default_rng(7)
    q = np.array([rotation_about(random_point(rng), rng.uniform(-3, 3)).q for _ in range(50)])
    conj = q * [1, -1, -1, -1]
    assert np.max(np.abs(_qmul(q.T, conj.T).T - IDENTITY.q)) < 1e-15
    assert np.max(np.abs(_qmul(conj.T, q.T).T - IDENTITY.q)) < 1e-15


def test_halfturn_product_doubles_angle():
    # the half-turns about S1, then S2 make the rotation about unit(S1 x S2)
    # through twice their distance
    rng = np.random.default_rng(13)
    for _ in range(100):
        s1, s2 = random_point(rng), random_point(rng)
        dist = spherical_distance(s1, s2)
        if not 1e-3 < dist < np.pi - 1e-3:
            continue
        q = _qmul(halfturn_about(s2).q, halfturn_about(s1).q)
        want = rotation_about(SpherePoint(np.cross(s1.v, s2.v)), 2 * dist)
        assert rotation_distance(SphericalRotation(q), want) < 1e-12


@given(angles, angles, angles, unit3, unit3, unit3)
@settings(max_examples=60, deadline=None)
def test_compose_associative(a1, a2, a3, v1, v2, v3):
    r1 = rotation_about(SpherePoint(np.array(v1)), a1).q
    r2 = rotation_about(SpherePoint(np.array(v2)), a2).q
    r3 = rotation_about(SpherePoint(np.array(v3)), a3).q
    left = _qmul(_qmul(r3, r2), r1)
    right = _qmul(r3, _qmul(r2, r1))
    assert np.max(np.abs(left - right)) < 1e-14


def test_symmetry_centers_example():
    gz = OrientedGreatCircle(np.array([0.0, 0, 1]))
    gx = OrientedGreatCircle(np.array([1.0, 0, 0]))
    s, s_star, mirror = symmetry_centers(gz, gx)
    # exhaustive check of both candidate axes leaves unit(n1 + n2)
    assert np.allclose(s.v, np.array([1, 0, 1]) / np.sqrt(2), atol=1e-15)
    assert np.allclose(s_star.v, -s.v)
    img = apply(halfturn_about(s), gz)
    assert np.linalg.norm(img.n - gx.n) < 1e-15
    other = SpherePoint(np.array([-1.0, 0, 1]) / np.sqrt(2))
    img_other = apply(halfturn_about(other), gz)
    assert np.linalg.norm(img_other.n - gx.n) > 1  # wrong orientation
    assert np.allclose(mirror.n, s.v)


def test_symmetry_centers_degenerate():
    g = OrientedGreatCircle(np.array([0.3, -0.2, 0.93]))
    with pytest.raises(DegenerateCircle):
        symmetry_centers(g, g.reversed())


def test_symmetry_centers_postcondition_bulk():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        g1, g2 = random_circle_pair(rng)
        s, _, mirror = symmetry_centers(g1, g2)
        img = apply(halfturn_about(s), g1)
        assert np.linalg.norm(img.n - g2.n) < 1e-10
        # S on the common perpendicular circle of the pair
        cp = common_perpendicular_circle(g1, g2)
        assert lies_on(s, cp) < 1e-10
        # the mirror circle exchanges the oriented circles too
        refl = reflect_in_circle(mirror, g1)
        assert np.linalg.norm(refl.n - g2.n) < 1e-10


def test_reflect_in_circle_examples():
    equator = OrientedGreatCircle(np.array([0.0, 0, 1]))
    assert np.allclose(reflect_in_circle(equator, EZ).v, [0, 0, -1])
    on_circle = SpherePoint.of(np.cos(0.3), np.sin(0.3), 0)
    assert np.allclose(reflect_in_circle(equator, on_circle).v, on_circle.v)


def test_reflect_involution_and_orientation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = random_circle(rng)
        p = random_point(rng)
        g = random_circle(rng)
        assert np.allclose(reflect_in_circle(s, reflect_in_circle(s, p)).v, p.v, atol=1e-14)
        assert np.allclose(reflect_in_circle(s, reflect_in_circle(s, g)).n, g.n, atol=1e-14)
        # plane reflection matrix has determinant -1 (orientation reversing)
        mat = np.eye(3) - 2 * np.outer(s.n, s.n)
        assert np.linalg.det(mat) == pytest.approx(-1.0, abs=1e-12)
        # image of the oriented circle: reflected normal, then orientation-flipped
        assert np.allclose(reflect_in_circle(s, g).n, -(mat @ g.n), atol=1e-14)


def test_apply_preserves_unit_norm():
    rng = np.random.default_rng(23)
    for _ in range(200):
        r = rotation_about(random_point(rng), rng.uniform(-3, 3))
        p = apply(r, random_point(rng))
        g = apply(r, random_circle(rng))
        assert abs(np.linalg.norm(p.v) - 1) < 1e-12
        assert abs(np.linalg.norm(g.n) - 1) < 1e-12


def test_arc_point_runs_along_circle():
    g = OrientedGreatCircle(np.array([0.0, 0, 1]))
    p = arc_point(g, EX, np.pi / 2)
    assert np.allclose(p.v, [0, 1, 0], atol=1e-15)
    p = arc_point(g, EX, -np.pi / 2)
    assert np.allclose(p.v, [0, -1, 0], atol=1e-15)
