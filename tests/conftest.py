"""Shared random-object generators (seeded; tests stay deterministic)."""
from __future__ import annotations

import numpy as np

from bennett8.isogram import SphericalIsogramSpec
from bennett8.linkage import EightBarSpec, SpatialEightBarSpec
from bennett8.screws import OrientedLine
from bennett8.sphere import OrientedGreatCircle, SpherePoint


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def random_point(rng: np.random.Generator) -> SpherePoint:
    return SpherePoint(unit_vector(rng))


def random_circle(rng: np.random.Generator) -> OrientedGreatCircle:
    return OrientedGreatCircle(unit_vector(rng))


def random_circle_pair(rng: np.random.Generator, min_cross: float = 1e-3):
    while True:
        g1, g2 = random_circle(rng), random_circle(rng)
        if np.linalg.norm(np.cross(g1.n, g2.n)) > min_cross:
            return g1, g2


def random_line(rng: np.random.Generator, box: float = 2.0) -> OrientedLine:
    return OrientedLine.from_point_direction(rng.uniform(-box, box, size=3), unit_vector(rng))


def random_line_pair(rng: np.random.Generator, min_cross: float = 1e-3):
    while True:
        l1, l2 = random_line(rng), random_line(rng)
        if np.linalg.norm(np.cross(l1.d, l2.d)) > min_cross:
            return l1, l2


def reflect_line(axis: OrientedLine, line: OrientedLine) -> OrientedLine:
    """Line reflection in axis, point by point: two points p of the line go
    to 2 f(p) - p, with f(p) the foot of p on the axis."""

    def image(p):
        foot = axis.foot() + np.dot(p - axis.foot(), axis.d) * axis.d
        return 2 * foot - p

    p = line.foot()
    q0, q1 = image(p), image(p + line.d)
    return OrientedLine.from_point_direction(q0, q1 - q0)


def random_isogram_spec(rng: np.random.Generator) -> SphericalIsogramSpec:
    while True:
        alpha = rng.uniform(0.25, np.pi - 0.25)
        beta = rng.uniform(0.25, np.pi - 0.25)
        branch = "plus" if rng.uniform() < 0.5 else "minus"
        if branch == "minus" and abs(np.sin(alpha) - np.sin(beta)) < 0.08:
            continue
        return SphericalIsogramSpec(alpha, beta, branch)


def random_driving_angle(rng: np.random.Generator, margin: float = 0.08) -> float:
    while True:
        phi = rng.uniform(-np.pi + margin, np.pi - margin)
        if abs(phi) > margin:
            return phi


def random_eightbar_spec(rng: np.random.Generator) -> EightBarSpec:
    from bennett8.linkage import validate_spec

    while True:
        u1 = rng.uniform(0.0, 0.4)
        a1 = rng.uniform(0.35, 1.25)
        a2 = rng.uniform(0.35, 1.25)
        if a1 + a2 > np.pi - 0.15:
            continue
        b1 = rng.uniform(0.3, np.pi - 0.3)
        b2 = rng.uniform(0.3, np.pi - 0.3)
        br1 = "plus" if rng.uniform() < 0.5 else "minus"
        br2 = "plus" if rng.uniform() < 0.5 else "minus"
        if br1 == "minus" and abs(np.sin(a1) - np.sin(b1)) < 0.08:
            continue
        if br2 == "minus" and abs(np.sin(a2) - np.sin(b2)) < 0.08:
            continue
        spec = EightBarSpec(u1, u1 + a1, u1 + a1 + a2, b1, b2, br1, br2)
        try:
            v = validate_spec(spec)
        except Exception:
            continue
        # keep the driven cells reasonably conditioned
        if max(abs(v.c21), abs(v.c32), abs(v.c31)) > 25:
            continue
        return spec


def random_spatial_spec(rng: np.random.Generator) -> SpatialEightBarSpec:
    base = random_eightbar_spec(rng)
    return SpatialEightBarSpec(
        u1=base.u1,
        u2=base.u2,
        u3=base.u3,
        beta1=base.beta1,
        beta2=base.beta2,
        branch1=base.branch1,
        branch2=base.branch2,
        a1=rng.uniform(0.4, 1.6),
        a2=rng.uniform(0.4, 1.6),
    )
