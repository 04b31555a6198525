"""Spherical carrier geometry: points and oriented great circles.

Conventions used throughout the package:

* An oriented great circle is represented by its unit normal; traversal is
  counterclockwise when seen from the tip of the normal.
* Rotation angles about a point P of the sphere are positive counterclockwise
  seen from outside at P; replacing P by its antipode flips the sign.
* Two points have no connecting great circle when their cross product has
  norm below ``COPLANAR_EPS`` (they are equal or antipodal).
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


def great_circle_through(p: SpherePoint, q: SpherePoint) -> OrientedGreatCircle:
    """Connecting great circle, oriented from p toward q along the shorter arc."""
    c = np.cross(p.v, q.v)
    if np.linalg.norm(c) < COPLANAR_EPS:
        raise DegenerateCircle("points equal or antipodal: no unique great circle")
    return OrientedGreatCircle(c)
