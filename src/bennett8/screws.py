"""Line geometry and rigid displacements in 3-space.

Lines are oriented Pluecker pairs (d, m) with unit direction d and moment
m = p x d for any point p of the line; reversing orientation negates both.
Displacements are unit dual quaternions (q_r; q_d) with the Study condition
q_r . q_d = 0; (q, d) and (-q, -d) are the same displacement.

Sign conventions: screw translation is positive along the positive axis
direction (right-handed); the angle of an oriented line pair uses the full
[0, pi] range since orientation matters downstream.
"""
from __future__ import annotations

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
        d = np.asarray(self.d, dtype=float).reshape(3).copy()
        m = np.asarray(self.m, dtype=float).reshape(3).copy()
        nd = np.linalg.norm(d)
        if nd < 1e-14:
            raise ValueError("OrientedLine: zero direction")
        d /= nd
        m /= nd
        err = abs(np.dot(d, m))
        if err > PLUCKER_TOL * max(1.0, np.linalg.norm(m)):
            raise ValueError(f"OrientedLine: Pluecker condition violated (d.m = {err:.3e})")
        m -= np.dot(d, m) * d
        d.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_point_direction(cls, p, d) -> "OrientedLine":
        d = np.asarray(d, dtype=float)
        p = np.asarray(p, dtype=float)
        return cls(d, np.cross(p, d))

    @classmethod
    def from_points(cls, p, q) -> "OrientedLine":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return cls.from_point_direction(p, q - p)

    def reversed(self) -> "OrientedLine":
        return OrientedLine(-self.d, -self.m)

    def foot(self) -> np.ndarray:
        """Point of the line closest to the origin."""
        return np.cross(self.d, self.m)


@dataclass(frozen=True, eq=False)
class Displacement:
    """Rigid displacement as a unit dual quaternion (q_r; q_d)."""

    q_r: np.ndarray
    q_d: np.ndarray

    def __post_init__(self):
        qr = np.asarray(self.q_r, dtype=float).reshape(4).copy()
        qd = np.asarray(self.q_d, dtype=float).reshape(4).copy()
        n = np.linalg.norm(qr)
        if n < 1e-14:
            raise ValueError("Displacement: zero real part")
        qr /= n
        qd /= n
        study = np.dot(qr, qd)
        if abs(study) > PLUCKER_TOL * max(1.0, np.linalg.norm(qd)):
            raise ValueError(f"Displacement: Study condition violated ({study:.3e})")
        qd -= study * qr
        qr.setflags(write=False)
        qd.setflags(write=False)
        object.__setattr__(self, "q_r", qr)
        object.__setattr__(self, "q_d", qd)

    @classmethod
    def identity(cls) -> "Displacement":
        return cls(np.array([1.0, 0, 0, 0]), np.zeros(4))

    def translation(self) -> np.ndarray:
        """Translation vector (2 q_d conj(q_r), vector part)."""
        return 2.0 * _qmul(self.q_d, _qconj(self.q_r))[1:]

    def rotation_matrix_apply(self, v: np.ndarray) -> np.ndarray:
        w = self.q_r[0]
        u = self.q_r[1:]
        return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


def _qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def _qconj(a: np.ndarray) -> np.ndarray:
    return np.array([a[0], -a[1], -a[2], -a[3]])


def compose(d2: Displacement, d1: Displacement) -> Displacement:
    """d2 after d1 (dual quaternion product)."""
    return Displacement(
        _qmul(d2.q_r, d1.q_r),
        _qmul(d2.q_r, d1.q_d) + _qmul(d2.q_d, d1.q_r),
    )


def inverse(d: Displacement) -> Displacement:
    return Displacement(_qconj(d.q_r), _qconj(d.q_d))


def apply(d: Displacement, x):
    """Apply the displacement to a 3-point (array) or an OrientedLine."""
    t = d.translation()
    if isinstance(x, OrientedLine):
        d2 = d.rotation_matrix_apply(x.d)
        m2 = d.rotation_matrix_apply(x.m) + np.cross(t, d2)
        return OrientedLine(d2, m2)
    p = np.asarray(x, dtype=float)
    if p.shape == (3,):
        return d.rotation_matrix_apply(p) + t
    raise TypeError(f"cannot displace {type(x).__name__}")


def line_distance(l1: OrientedLine, l2: OrientedLine) -> float:
    """Oriented-line difference: plain (d, m) distance."""
    return float(np.linalg.norm(np.concatenate([l1.d - l2.d, l1.m - l2.m])))


def unoriented_line_distance(l1: OrientedLine, l2: OrientedLine) -> float:
    a = np.concatenate([l1.d, l1.m])
    b = np.concatenate([l2.d, l2.m])
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


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


def line_reflection(axis: OrientedLine) -> Displacement:
    """Half-turn about the axis; as a dual quaternion this is the line itself."""
    return Displacement(np.array([0.0, *axis.d]), np.array([0.0, *axis.m]))


def screw_displacement(axis: OrientedLine, angle: float, translation: float) -> Displacement:
    """Rotation by angle about the axis line composed with translation along it."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    h = translation / 2
    return Displacement(
        np.array([c, *(s * axis.d)]),
        np.array([-h * s, *(h * c * axis.d + s * axis.m)]),
    )


def rotation_about_line(axis: OrientedLine, angle: float) -> Displacement:
    return screw_displacement(axis, angle, 0.0)


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
