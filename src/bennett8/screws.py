"""Line geometry in 3-space.

Lines are oriented Pluecker pairs (d, m) with unit direction d and moment
m = p x d for any point p of the line; reversing orientation negates both.
Dual angles, feet, half-turns and screws act on lines through the
dual-vector kernel in _dual.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
