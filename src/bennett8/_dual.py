"""Half-turns, screws and their products over the dual numbers.

A dual vector is a (..., 6) array (direction; moment). A unit dual vector is
an oriented line, and every formula here is the spherical one with its
scalars made dual numbers a + eps b (eps^2 = 0), by the transference
principle. With zero moments it is the spherical formula itself. Quaternions
are (..., 4) arrays (w, x, y, z); the half-turn about the unit vector s is
(0, s). Dual quaternions are (..., 8) arrays (real quaternion; dual
quaternion); the half-turn about the line s = (d; m) is (0, d; 0, m).
"""
from __future__ import annotations

import numpy as np

from .screws import PARALLEL_EPS, OrientedLine

_TINY = 1e-14
# why a row of _dual_unit and of _dual_over_square is too short: the
# messages of the ClosureFailure its caller raises or records
SHORT_UNIT = "symmetry axis undefined: the two lines it is built from coincide"
SHORT_SQUARE = "symmetry axis undefined: the two bars it bisects coincide"


def _dual_vector(line: OrientedLine) -> np.ndarray:
    return np.concatenate([line.d, line.m])


def _line(x: np.ndarray) -> OrientedLine:
    return OrientedLine(x[:3], x[3:])


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a × b row by row of (..., 3) stacks, in np.cross's bits without its
    axis handling, which costs more than the arithmetic on a few rows."""
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def _dual_dot(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<x, y> over the dual numbers, row by row: (a . c, a . d + b . c) for
    x = (a, b) and y = (c, d)."""
    a, b, c, d = x[..., :3], x[..., 3:], y[..., :3], y[..., 3:]
    return (a * c).sum(axis=-1), (a * d + b * c).sum(axis=-1)


def _dual_norm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x| over the dual numbers, row by row: (|a|, a . b / |a|), or (0, 0)."""
    a, b = x[..., :3], x[..., 3:]
    r = _length(a)
    return r, (a * b).sum(axis=-1) / np.where(r > 0, r, 1.0)


def _dual_unit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / |x| over the dual numbers, row by row: (a/|a|, b/|a| - a (a.b)/|a|^3),
    and the rows too short to have one, |a| < _TINY, whose quotient means
    nothing (SHORT_UNIT says why)."""
    a, b = x[..., :3], x[..., 3:]
    na, na_dual = _dual_norm(x)
    short = na < _TINY
    na, na_dual = np.where(short, 1.0, na)[..., None], na_dual[..., None]
    return np.concatenate([a / na, b / na - a * (na_dual / na**2)], axis=-1), short


def _dual_over_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / |x|^2 over the dual numbers, row by row: (a/|a|^2, b/|a|^2 -
    2a (a.b)/|a|^4), and the rows too short to have one, |a| < _TINY, whose
    quotient means nothing (SHORT_SQUARE says why)."""
    a, b = x[..., :3], x[..., 3:]
    aa = (a * a).sum(axis=-1)
    short = aa < _TINY**2
    aa = np.where(short, 1.0, aa)[..., None]
    return np.concatenate([a / aa, b / aa - a * (2 * (a * b).sum(axis=-1, keepdims=True) / aa**2)], axis=-1), short


def _dual_halfturn(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Image of the dual vector x under the half-turn about the unit dual
    vector s, row by row: 2<s, x> s - x over the dual numbers. On lines this
    is the line reflection in s; with zero moments it is the spherical
    half-turn. It does not depend on the orientation of s."""
    p, q = (2 * part[..., None] for part in _dual_dot(s, x))
    out = p * s - x
    out[..., 3:] += q * s[..., :3]
    return out


def _dual_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x × y over the dual numbers, row by row of (..., 6) stacks:
    (a × c, a × d + b × c) for x = (a, b) and y = (c, d)."""
    a, b, c, d = x[..., :3], x[..., 3:], y[..., :3], y[..., 3:]
    return np.concatenate([_cross(a, c), _cross(a, d) + _cross(b, c)], axis=-1)


def _dual_sin(a: float, da: float) -> tuple[float, float]:
    """sin(a + eps da) of one dual number: (sin a, da cos a)."""
    return np.sin(a), da * np.cos(a)


def _dual_atan2(r: tuple[np.ndarray, np.ndarray], p: tuple[np.ndarray, np.ndarray]):
    """theta + eps l = atan2(r, p) of the dual numbers r and p (pairs of real
    and dual parts), row by row, with l taken as a distance, >= 0."""
    (r, r_dual), (p, q) = r, p
    # atan2(r + eps r', p + eps q) = atan2(r, p) + eps (p r' - r q) / (r^2 + p^2)
    return np.arctan2(r, p), np.abs(p * r_dual - r * q) / (r * r + p * p)


def _dual_angle(x: np.ndarray, y: np.ndarray):
    """screws.dual_angle of the oriented lines x and y, row by row of (..., 6)
    stacks: theta + eps l = atan2(|x × y|, <x, y>) over the dual numbers, in
    which a dual factor of x or y cancels, so rows need be unit lines only to
    rounding; and the rows where x and y are parallel (|x × y| <
    PARALLEL_EPS), whose angle means nothing."""
    r = _dual_norm(_dual_cross(x, y))
    return _dual_atan2(r, _dual_dot(x, y)), r[0] < PARALLEL_EPS


def _screw(a: np.ndarray, theta: float, slide: float, x: np.ndarray) -> np.ndarray:
    """Image of the dual vector x under the screw about the unit line a by the
    angle theta and the slide along a: the dual Rodrigues formula
    cos T x + sin T (a × x) + (1 - cos T) <a, x> a with T = theta + eps slide.
    With zero moments it is the rotation about a by theta."""
    c, s = np.cos(theta), np.sin(theta)
    # cos T = c - eps slide s, sin T = s + eps slide c
    ax = _dual_cross(a, x)
    p, q = _dual_dot(a, x)
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
        [pw * qw - (pv * qv).sum(axis=-1, keepdims=True), pw * qv + qw * pv + _cross(pv, qv)], axis=-1
    )


def _dual_qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Dual-quaternion products p q, row by row of (..., 8) stacks:
    (P + eps P')(Q + eps Q') = P Q + eps (P Q' + P' Q), in one _qmul call."""
    p, q = np.broadcast_arrays(p, q)
    pq, pq_dual, p_dual_q = _qmul(
        np.array([p[..., :4], p[..., :4], p[..., 4:]]), np.array([q[..., :4], q[..., 4:], q[..., :4]])
    )
    return np.concatenate([pq, pq_dual + p_dual_q], axis=-1)


def _length(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) at less overhead."""
    return np.sqrt((x * x).sum(axis=-1))


def _unsigned_gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distance of x from y up to sign, row by row."""
    return np.minimum(_length(x - y), _length(x + y))
