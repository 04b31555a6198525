"""Independent references the tests check the package against.

The package computes every half-turn, screw, dual angle and cell through the
dual-vector kernel in bennett8._dual. These are the value-object formulas of
the same geometry (rotations as unit quaternions, reflections point by
point, arcs and dual angles one pair at a time, the common perpendicular
from its feet, the symmetry elements from their textbook constructions),
kept here because no code of the package calls them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bennett8.errors import DegenerateCircle, ParallelLines
from bennett8.isogram import Branch, SphericalIsogramPose, _check_branch
from bennett8.oracle import dh_from_spherical_vertices
from bennett8.screws import PARALLEL_EPS, OrientedLine
from bennett8.sphere import COPLANAR_EPS, OrientedGreatCircle, SpherePoint, tie_break_sign

# ---------------------------------------------------------------------------
# Rotations and reflections of the sphere.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SphericalRotation:
    """Rotation of the sphere as a unit quaternion (w, x, y, z); q and -q
    represent the same rotation."""

    q: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.q, dtype=float).reshape(4).copy()
        n = np.linalg.norm(a)
        if n < 1e-14:
            raise ValueError("SphericalRotation: zero quaternion")
        a /= n
        a.setflags(write=False)
        object.__setattr__(self, "q", a)


def antipode(p: SpherePoint) -> SpherePoint:
    return SpherePoint(-p.v)


def spherical_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Central angle in [0, pi], computed with atan2 for stability near 0 and pi."""
    return float(np.arctan2(np.linalg.norm(np.cross(p.v, q.v)), np.dot(p.v, q.v)))


def circle_angle(g1: OrientedGreatCircle, g2: OrientedGreatCircle) -> float:
    """Angle between the carrier planes, folded to [0, pi/2]."""
    th = float(np.arctan2(np.linalg.norm(np.cross(g1.n, g2.n)), np.dot(g1.n, g2.n)))
    return min(th, np.pi - th)


def common_perpendicular_circle(
    g1: OrientedGreatCircle, g2: OrientedGreatCircle
) -> OrientedGreatCircle:
    """Great circle through the poles of both; its spherical centers are g1 ^ g2."""
    c = np.cross(g1.n, g2.n)
    if np.linalg.norm(c) < COPLANAR_EPS:
        raise DegenerateCircle("circles span the same plane")
    c = c / np.linalg.norm(c)
    return OrientedGreatCircle(tie_break_sign(c) * c)


def rotation_about(p: SpherePoint, phi: float) -> SphericalRotation:
    """Rotation by phi about the diameter through p (ccw from outside at p)."""
    return SphericalRotation(
        np.array([np.cos(phi / 2), *(np.sin(phi / 2) * p.v)])
    )


def halfturn_about(p: SpherePoint) -> SphericalRotation:
    return SphericalRotation(np.array([0.0, *p.v]))


def _rotate_vec(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    w = q[0]
    u = q[1:]
    return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


def apply(r: SphericalRotation, x):
    """Conjugation action on SpherePoint or OrientedGreatCircle."""
    if isinstance(x, SpherePoint):
        return SpherePoint(_rotate_vec(r.q, x.v))
    if isinstance(x, OrientedGreatCircle):
        return OrientedGreatCircle(_rotate_vec(r.q, x.n))
    raise TypeError(f"cannot rotate {type(x).__name__}")


def symmetry_centers(
    g1: OrientedGreatCircle, g2: OrientedGreatCircle
) -> tuple[SpherePoint, SpherePoint, OrientedGreatCircle]:
    """Antipodal pair (S, S*) of half-turn centers mapping oriented g1 to
    oriented g2, plus the mirror circle s (polar circle of S) whose
    reflection also exchanges the oriented circles.

    S is the candidate axis whose half-turn matches orientations; the pair is
    tie-broken so S's first nonzero coordinate is positive. S lies on
    common_perpendicular_circle(g1, g2).
    """
    if np.linalg.norm(np.cross(g1.n, g2.n)) < COPLANAR_EPS:
        raise DegenerateCircle("circles span the same plane (includes reversed pairs)")
    a = g1.n + g2.n
    # the half-turn about unit(n1+n2) sends n1 to n2 exactly; unit(n1-n2)
    # would reverse the orientation and is rejected
    a = a / np.linalg.norm(a)
    a = tie_break_sign(a) * a
    s = SpherePoint(a)
    return s, antipode(s), OrientedGreatCircle(a)


def reflect_in_circle(s: OrientedGreatCircle, x):
    """Mirror image in the plane of s.

    Points reflect through the plane. For oriented circles the traversal
    sense flips under the (det = -1) plane reflection, so the image normal is
    the negated reflected normal; this makes the symmetry-center mirror
    exchange oriented circles exactly.
    """
    w = s.n
    if isinstance(x, SpherePoint):
        return SpherePoint(x.v - 2.0 * np.dot(w, x.v) * w)
    if isinstance(x, OrientedGreatCircle):
        return OrientedGreatCircle(-(x.n - 2.0 * np.dot(w, x.n) * w))
    raise TypeError(f"cannot reflect {type(x).__name__}")


def lies_on(p: SpherePoint, g: OrientedGreatCircle) -> float:
    """Incidence residual |p . n| (0 when p is on g)."""
    return float(abs(np.dot(p.v, g.n)))


def arc_point(g: OrientedGreatCircle, p: SpherePoint, s: float) -> SpherePoint:
    """Point at signed arc s from p along the oriented circle g (p must lie on g)."""
    return apply(rotation_about(g.pole(), s), p)


# ---------------------------------------------------------------------------
# Lines in 3-space.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CommonPerpendicular:
    axis: OrientedLine
    distance: float
    angle: float
    foot1: np.ndarray
    foot2: np.ndarray


def common_perpendicular(l1: OrientedLine, l2: OrientedLine) -> CommonPerpendicular:
    """Common perpendicular of two non-parallel lines.

    The axis direction is unit(d1 x d2); distance is the gap between the
    feet, and the angle between the oriented directions keeps the full
    [0, pi] range.
    """
    c = np.cross(l1.d, l2.d)
    nc = np.linalg.norm(c)
    if nc < PARALLEL_EPS:
        raise ParallelLines("lines are parallel (or identical)")
    a = c / nc
    o1, o2 = l1.foot(), l2.foot()
    b = float(np.dot(l1.d, l2.d))
    w0 = o1 - o2
    dd = float(np.dot(l1.d, w0))
    e = float(np.dot(l2.d, w0))
    denom = nc * nc  # = 1 - b*b for unit directions, and > 0 past the guard
    s = (b * e - dd) / denom
    t = (e - b * dd) / denom
    f1 = o1 + s * l1.d
    f2 = o2 + t * l2.d
    return CommonPerpendicular(
        axis=OrientedLine.from_point_direction(f1, a),
        distance=float(np.linalg.norm(f1 - f2)),
        angle=float(np.arctan2(nc, b)),
        foot1=f1,
        foot2=f2,
    )


def dual_angle(l1: OrientedLine, l2: OrientedLine) -> tuple[float, float]:
    """(angle in [0, pi], offset >= 0) between two non-parallel oriented lines:
    theta + eps l is atan2 of the dual cross and dot products, so
    theta = atan2(|d1 x d2|, d1 . d2) and l = |d1 . m2 + m1 . d2| / |d1 x d2|."""
    nc = float(np.linalg.norm(np.cross(l1.d, l2.d)))
    if nc < PARALLEL_EPS:
        raise ParallelLines("lines are parallel (or identical)")
    moment = float(np.dot(l1.d, l2.m) + np.dot(l1.m, l2.d))
    return float(np.arctan2(nc, np.dot(l1.d, l2.d))), abs(moment) / nc


def line_distance(l1: OrientedLine, l2: OrientedLine) -> float:
    """Oriented-line difference: plain (d, m) distance."""
    return float(np.linalg.norm(np.concatenate([l1.d - l2.d, l1.m - l2.m])))


def unoriented_line_distance(l1: OrientedLine, l2: OrientedLine) -> float:
    a = np.concatenate([l1.d, l1.m])
    b = np.concatenate([l2.d, l2.m])
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def midline_symmetry_axis(h1: OrientedLine, h3rev: OrientedLine) -> OrientedLine:
    """Line s whose half-turn maps oriented h1 onto oriented h3rev.

    Passes through the midpoint of the shortest segment between the lines and
    runs along the bisector of their directions.
    """
    cp = common_perpendicular(h1, h3rev)
    w = h1.d + h3rev.d
    nw = np.linalg.norm(w)
    if nw < PARALLEL_EPS:
        # anti-parallel directions already rejected by common_perpendicular,
        # so this cannot trigger for valid inputs; keep as a guard
        raise ParallelLines("direction bisector undefined")
    mid = (cp.foot1 + cp.foot2) / 2
    return OrientedLine.from_point_direction(mid, w / nw)


# ---------------------------------------------------------------------------
# Spherical cells in the loop-closure frame convention of the oracle.
# ---------------------------------------------------------------------------


def dihedral_angles(pose: SphericalIsogramPose) -> tuple[float, float, float, float]:
    """Interior joint angles of the cell in the loop-closure frame convention
    (signed about the vertex radials). Opposite angles are congruent."""
    thetas, _ = dh_from_spherical_vertices([q.v for q in pose.vertices])
    return tuple(float(t) for t in thetas)


def phi2_from_dihedral(branch: Branch, theta_b: float) -> float:
    """Arm angle phi2 encoded by the loop-frame dihedral at vertex b.

    The offset between the two conventions is a constant pi on the minus
    branch (backward-folded coupler joints) and zero on the plus branch
    (supplement-forward joints); used to compare closure-solver output with
    the analytic transmission."""
    _check_branch(branch)
    shift = np.pi if branch == "minus" else 0.0
    x = theta_b + shift
    return float(np.arctan2(np.sin(x), np.cos(x)))


# ---------------------------------------------------------------------------
# Scene polylines, one circle or line at a time.
# ---------------------------------------------------------------------------


def circle_polyline(circle: OrientedGreatCircle, segments: int) -> np.ndarray:
    n = circle.n
    seed = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(n, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    ts = np.linspace(0.0, 2 * np.pi, segments + 1)
    return np.cos(ts)[:, None] * e1 + np.sin(ts)[:, None] * e2


def line_polyline(line: OrientedLine, anchors, segments: int, floor: float = 1e-6) -> np.ndarray:
    """The line over the feet of its anchors, a quarter of their span past
    either end. The span is at least floor, which the scene takes as 1e-6 of
    the design's unit of length."""
    foot = line.foot()
    params = [float(np.dot(np.asarray(p) - foot, line.d)) for p in anchors]
    lo, hi = (min(params), max(params)) if params else (-1.0, 1.0)
    span = max(hi - lo, floor)
    lo -= 0.25 * span
    hi += 0.25 * span
    ts = np.linspace(lo, hi, max(segments, 2))
    return foot + ts[:, None] * line.d
