"""Line geometry in 3-space.

Lines are oriented Pluecker pairs (d, m) with unit direction d and moment
m = p x d for any point p of the line; reversing orientation negates both.
The angle of an oriented line pair uses the full [0, pi] range since
orientation matters downstream. Half-turns and screws act on lines through
the dual-vector kernel in _dual.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParallelLines

PLUCKER_TOL = 1e-10
PARALLEL_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class OrientedLine:
    """Oriented line with unit direction d and moment m = p x d (d . m = 0)."""

    d: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        # float arithmetic on the six coordinates costs less than numpy calls
        # on 3-vectors, and sums them in the order a row-wise (..., 3) sum does
        d0, d1, d2 = np.asarray(self.d, dtype=float).reshape(3).tolist()
        m0, m1, m2 = np.asarray(self.m, dtype=float).reshape(3).tolist()
        nd = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        if nd < 1e-14:
            raise ValueError("OrientedLine: zero direction")
        d0, d1, d2, m0, m1, m2 = d0 / nd, d1 / nd, d2 / nd, m0 / nd, m1 / nd, m2 / nd
        dm = d0 * m0 + d1 * m1 + d2 * m2
        if abs(dm) > PLUCKER_TOL * max(1.0, math.sqrt(m0 * m0 + m1 * m1 + m2 * m2)):
            raise ValueError(f"OrientedLine: Pluecker condition violated (d.m = {abs(dm):.3e})")
        d, m = np.array([d0, d1, d2]), np.array([m0 - dm * d0, m1 - dm * d1, m2 - dm * d2])
        d.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_point_direction(cls, p, d) -> "OrientedLine":
        d = np.asarray(d, dtype=float)
        p = np.asarray(p, dtype=float)
        return cls(d, np.cross(p, d))

    def reversed(self) -> "OrientedLine":
        return OrientedLine(-self.d, -self.m)

    def foot(self) -> np.ndarray:
        """Point of the line closest to the origin."""
        return np.cross(self.d, self.m)


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
