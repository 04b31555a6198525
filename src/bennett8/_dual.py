"""Half-turns, screws and their products over the dual numbers.

A dual vector is a (..., 6) array (direction; moment). A unit dual vector is
an oriented line, and every formula here is the spherical one with its
scalars made dual numbers a + eps b (eps^2 = 0), by the transference
principle. With zero moments, or on direction-only 3-vectors where a
formula allows them, it is the spherical formula itself. Quaternions are
(..., 4) arrays (w, x, y, z); the half-turn about the unit vector s is
(0, s).
"""
from __future__ import annotations

import numpy as np

from .errors import ClosureFailure, ParallelLines
from .screws import PARALLEL_EPS, OrientedLine

_TINY = 1e-14


def _dual_vector(line: OrientedLine) -> np.ndarray:
    return np.concatenate([line.d, line.m])


def _line(x: np.ndarray) -> OrientedLine:
    return OrientedLine(x[:3], x[3:])


def _dual_unit(x: np.ndarray) -> np.ndarray:
    """x / |x| over the dual numbers, row by row: (a/|a|, b/|a| - a (a.b)/|a|^3)."""
    a, b = x[..., :3], x[..., 3:]
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    if np.min(na) < _TINY:
        raise ClosureFailure("symmetry axis undefined: the two lines it is built from coincide")
    return np.concatenate([a / na, b / na - a * (np.sum(a * b, axis=-1, keepdims=True) / na**3)], axis=-1)


def _dual_over_square(x: np.ndarray) -> np.ndarray:
    """x / |x|^2 over the dual numbers: (a/|a|^2, b/|a|^2 - 2a (a.b)/|a|^4)."""
    a, b = x[:3], x[3:]
    aa = float(np.dot(a, a))
    if aa < _TINY**2:
        raise ClosureFailure("symmetry axis undefined: the two bars it bisects coincide")
    return np.concatenate([a / aa, b / aa - a * (2 * np.dot(a, b) / aa**2)])


def _dual_halfturn(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Image of the dual vector x under the half-turn about the unit dual
    vector s: 2<s, x> s - x over the dual numbers. On lines this is the line
    reflection in s; with zero moments, or on direction-only 3-vectors, it is
    the spherical half-turn. It does not depend on the orientation of s."""
    out = 2 * np.dot(s[:3], x[:3]) * s - x
    if len(x) > 3:
        out[3:] += 2 * (np.dot(s[:3], x[3:]) + np.dot(s[3:], x[:3])) * s[:3]
    return out


def _dual_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x × y over the dual numbers, row by row of (..., 6) stacks:
    (a × c, a × d + b × c) for x = (a, b) and y = (c, d)."""
    a, b, c, d = (part for z in np.broadcast_arrays(x, y) for part in (z[..., :3], z[..., 3:]))
    ac, ad, bc = np.cross(np.array([a, a, b]), np.array([c, d, c]))
    return np.concatenate([ac, ad + bc], axis=-1)


def _dual_angle(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """screws.dual_angle of the oriented lines x and y, row by row of (..., 6)
    stacks: theta + eps l = atan2(|x × y|, <x, y>) over the dual numbers, in
    which a dual factor of x or y cancels, so rows need be unit lines only to
    rounding. Raises ParallelLines where a pair is parallel."""
    cross = _dual_cross(x, y)
    r = np.linalg.norm(cross[..., :3], axis=-1)
    if np.min(r) < PARALLEL_EPS:
        raise ParallelLines("lines are parallel (or identical)")
    r_dual = np.sum(cross[..., :3] * cross[..., 3:], axis=-1) / r
    p = np.sum(x[..., :3] * y[..., :3], axis=-1)
    q = np.sum(x[..., :3] * y[..., 3:] + x[..., 3:] * y[..., :3], axis=-1)
    # atan2(r + eps r', p + eps q) = atan2(r, p) + eps (p r' - r q) / (r^2 + p^2)
    return np.arctan2(r, p), np.abs(p * r_dual - r * q) / (r * r + p * p)


def _screw(a: np.ndarray, theta: float, slide: float, x: np.ndarray) -> np.ndarray:
    """Image of the dual vector x under the screw about the unit line a by the
    angle theta and the slide along a: the dual Rodrigues formula
    cos T x + sin T (a × x) + (1 - cos T) <a, x> a with T = theta + eps slide.
    With zero moments it is the rotation about a by theta."""
    c, s = np.cos(theta), np.sin(theta)
    # cos T = c - eps slide s, sin T = s + eps slide c
    ax = _dual_cross(a, x)
    p = np.dot(a[:3], x[:3])
    q = np.dot(a[:3], x[3:]) + np.dot(a[3:], x[:3])
    # (1 - cos T) <a, x> = k + eps k'
    k, k_dual = (1 - c) * p, (1 - c) * q + slide * s * p
    return np.concatenate([
        c * x[:3] + s * ax[:3] + k * a[:3],
        c * x[3:] - slide * s * x[:3] + s * ax[3:] + slide * c * ax[:3] + k * a[3:] + k_dual * a[:3],
    ])


def _qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion products p q, row by row of (..., 4) stacks: the rotation
    q, then p."""
    pw, pv, qw, qv = p[..., :1], p[..., 1:], q[..., :1], q[..., 1:]
    return np.concatenate(
        [pw * qw - np.sum(pv * qv, axis=-1, keepdims=True), pw * qv + qw * pv + np.cross(pv, qv)], axis=-1
    )


def _unsigned_gap(x: np.ndarray, y: np.ndarray) -> float:
    """Distance of x from y up to sign."""
    return float(min(np.linalg.norm(x - y), np.linalg.norm(x + y)))
