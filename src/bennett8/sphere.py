"""Spherical carrier geometry: points, oriented great circles, rotations.

Conventions used throughout the package:

* An oriented great circle is represented by its unit normal; traversal is
  counterclockwise when seen from the tip of the normal.
* Rotation angles about a point P of the sphere are positive counterclockwise
  seen from outside at P; replacing P by its antipode flips the sign.
* Two circles count as coplanar (degenerate pair) when the cross product of
  their normals has norm below ``COPLANAR_EPS``. This single threshold is
  used for every degeneracy test in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCircle

COPLANAR_EPS = 1e-10
_TIE_EPS = 1e-9


def _as_unit(v, what: str) -> np.ndarray:
    # float arithmetic on the three coordinates costs less than numpy calls
    # on a 3-vector, and sums them in the order a row-wise (..., 3) sum does
    x, y, z = np.asarray(v, dtype=float).reshape(3).tolist()
    n = math.sqrt(x * x + y * y + z * z)
    if n < 1e-14:
        raise ValueError(f"{what}: zero vector")
    a = np.array([x / n, y / n, z / n])
    a.setflags(write=False)
    return a


def tie_break_sign(v: np.ndarray) -> np.ndarray:
    """+1 if the first coordinate exceeding _TIE_EPS in magnitude is positive,
    else -1, and +1 where none does; of a (3,) vector or a (3, ...) stack."""
    x, y, z = v
    first = np.where(np.abs(x) > _TIE_EPS, x, np.where(np.abs(y) > _TIE_EPS, y, z))
    return np.where(first < -_TIE_EPS, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """Point of the unit sphere, stored as a unit 3-vector."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _as_unit(self.v, "SpherePoint"))

    @classmethod
    def of(cls, x: float, y: float, z: float) -> "SpherePoint":
        return cls(np.array([x, y, z], dtype=float))


@dataclass(frozen=True, eq=False)
class OrientedGreatCircle:
    """Great circle with orientation, stored as the oriented unit normal."""

    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _as_unit(self.n, "OrientedGreatCircle"))

    def reversed(self) -> "OrientedGreatCircle":
        return OrientedGreatCircle(-self.n)

    def pole(self) -> SpherePoint:
        """Spherical center on the positive side (tip of the normal)."""
        return SpherePoint(self.n)


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


def great_circle_through(p: SpherePoint, q: SpherePoint) -> OrientedGreatCircle:
    """Connecting great circle, oriented from p toward q along the shorter arc."""
    c = np.cross(p.v, q.v)
    if np.linalg.norm(c) < COPLANAR_EPS:
        raise DegenerateCircle("points equal or antipodal: no unique great circle")
    return OrientedGreatCircle(c)


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
