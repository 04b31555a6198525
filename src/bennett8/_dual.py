"""Half-turns, screws and their products over the dual numbers.

A dual vector is a (6, ...) array (direction; moment): components come
first, so a stack of vectors is one contiguous block per component, and
every kernel takes a single (6,) vector and a stack alike, with the same
bits. A unit dual vector is an oriented line, and every formula here is the
spherical one with its scalars made dual numbers a + eps b (eps^2 = 0), by
the transference principle. With zero moments it is the spherical formula
itself. Quaternions are (4, ...) arrays (w, x, y, z); the half-turn about
the unit vector s is (0, s). Dual quaternions are (8, ...) arrays (real
quaternion; dual quaternion); the half-turn about the line s = (d; m) is
(0, d; 0, m), and the product of the half-turns about x and y is
(-<x, y>, x × y) over the dual numbers (McCarthy, 1990), which
_halfturn_product computes without the general product. A kernel that
takes pairs of halves (the dual cross product, the dual-quaternion
product) gathers them into one stack and makes one call on it.
"""
from __future__ import annotations

import numpy as np

from .screws import PARALLEL_EPS, OrientedLine

_TINY = 1e-14
# why a vector of _dual_unit and of _dual_over_square is too short: the
# messages of the ClosureFailure its caller raises or records
SHORT_UNIT = "symmetry axis undefined: the two lines it is built from coincide"
SHORT_SQUARE = "symmetry axis undefined: the two bars it bisects coincide"


def _dual_vector(line: OrientedLine) -> np.ndarray:
    return np.concatenate([line.d, line.m])


def _line(x: np.ndarray) -> OrientedLine:
    return OrientedLine(x[:3], x[3:])


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a × b of (3, ...) stacks, in np.cross's bits without its axis
    handling, which costs more than the arithmetic on a few vectors."""
    return a[_NEXT] * b[_LAST] - a[_LAST] * b[_NEXT]


def _dual_dot(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<x, y> over the dual numbers: (a . c, a . d + b . c) for x = (a, b)
    and y = (c, d)."""
    a, b, c, d = x[:3], x[3:], y[:3], y[3:]
    return (a * c).sum(axis=0), (a * d + b * c).sum(axis=0)


def _dual_norm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x| over the dual numbers: (|a|, a . b / |a|), or (0, 0)."""
    a, b = x[:3], x[3:]
    r = _length(a)
    return r, (a * b).sum(axis=0) / np.where(r > 0, r, 1.0)


def _dual_unit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / |x| over the dual numbers: (a/|a|, b/|a| - a (a.b)/|a|^3), and the
    vectors too short to have one, |a| < _TINY, whose quotient means nothing
    (SHORT_UNIT says why)."""
    na, na_dual = _dual_norm(x)
    short = na < _TINY
    na = np.where(short, 1.0, na)
    out = x / na
    out[3:] -= x[:3] * (na_dual / na**2)
    return out, short


def _dual_over_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / |x|^2 over the dual numbers: (a/|a|^2, b/|a|^2 - 2a (a.b)/|a|^4),
    and the vectors too short to have one, |a| < _TINY, whose quotient means
    nothing (SHORT_SQUARE says why)."""
    a, b = x[:3], x[3:]
    aa = (a * a).sum(axis=0)
    short = aa < _TINY**2
    aa = np.where(short, 1.0, aa)
    out = x / aa
    out[3:] -= a * (2 * (a * b).sum(axis=0) / aa**2)
    return out, short


def _dual_halfturn(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Image of the dual vector x under the half-turn about the unit dual
    vector s: 2<s, x> s - x over the dual numbers. On lines this is the line
    reflection in s; with zero moments it is the spherical half-turn. It
    does not depend on the orientation of s."""
    p, q = (2 * part for part in _dual_dot(s, x))
    out = p * s - x
    out[3:] += q * s[:3]
    return out


# the pairs (a, c), (a, d) and (b, c) of the halves of x = (a, b) and
# y = (c, d), gathered as (3, 3, ...) stacks: component, then pair; and
# gathered with _cross's shifts of the components
_PAIRS_X = np.array([[0, 0, 3], [1, 1, 4], [2, 2, 5]])
_PAIRS_Y = np.array([[0, 3, 0], [1, 4, 1], [2, 5, 2]])
_X_NEXT, _X_LAST, _Y_NEXT, _Y_LAST = (pairs[shift] for pairs in (_PAIRS_X, _PAIRS_Y) for shift in (_NEXT, _LAST))


def _dual_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x × y over the dual numbers: (a × c, a × d + b × c) for x = (a, b)
    and y = (c, d), the three products as one _cross of the stacked pairs,
    each operand gathered from x or y at once."""
    r = x[_X_NEXT] * y[_Y_LAST]
    r -= x[_X_LAST] * y[_Y_NEXT]
    return np.concatenate([r[:, 0], r[:, 1] + r[:, 2]])


def _halfturn_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dual quaternion of the half-turn about the unit dual vector y and
    then about x, the product (0, x)(0, y): (-<x, y>, x × y) over the dual
    numbers (McCarthy, 1990), as an (8, ...) stack. The dual part of -<x, y>
    is summed as the product sums it, -(a . d) - (b . c), so the product
    keeps _dual_qmul's bits but for the signs of zeros."""
    dots, cross = (x[_PAIRS_X] * y[_PAIRS_Y]).sum(axis=0), _dual_cross(x, y)
    return np.concatenate([-dots[:1], cross[:3], -dots[1:2] - dots[2:], cross[3:]])


def _dual_atan2(r: tuple[np.ndarray, np.ndarray], p: tuple[np.ndarray, np.ndarray]):
    """theta + eps l = atan2(r, p) of the dual numbers r and p (pairs of real
    and dual parts), with l taken as a distance, >= 0."""
    (r, r_dual), (p, q) = r, p
    # atan2(r + eps r', p + eps q) = atan2(r, p) + eps (p r' - r q) / (r^2 + p^2)
    return np.arctan2(r, p), np.abs(p * r_dual - r * q) / (r * r + p * p)


def _dual_angle(x: np.ndarray, y: np.ndarray):
    """The dual angle of the oriented lines x and y, theta in [0, pi] and the
    offset l >= 0: theta + eps l = atan2(|x × y|, <x, y>) over the dual
    numbers (McCarthy, 1990), in which a dual factor of
    x or y cancels, so x and y need be unit lines only to rounding; and
    where x and y are parallel (|x × y| < PARALLEL_EPS), whose angle means
    nothing."""
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
    """Quaternion products p q of (4, ...) stacks: the rotation q, then p."""
    pw, pv, qw, qv = p[:1], p[1:], q[:1], q[1:]
    return np.concatenate([pw * qw - (pv * qv).sum(axis=0, keepdims=True), pw * qv + qw * pv + _cross(pv, qv)])


# the pairs (P, Q), (P, Q') and (P', Q) of the halves of p = (P, P') and
# q = (Q, Q'), gathered as (4, 3, ...) stacks: component, then pair
_QPAIRS_P = np.array([[0, 0, 4], [1, 1, 5], [2, 2, 6], [3, 3, 7]])
_QPAIRS_Q = np.array([[0, 4, 0], [1, 5, 1], [2, 6, 2], [3, 7, 3]])


def _dual_qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Dual-quaternion products p q of (8, ...) stacks:
    (P + eps P')(Q + eps Q') = P Q + eps (P Q' + P' Q), in one _qmul call."""
    r = _qmul(p[_QPAIRS_P], q[_QPAIRS_Q])
    return np.concatenate([r[:, 0], r[:, 1] + r[:, 2]])


def _length(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=0) at less overhead, in the bits of
    np.linalg.norm(x.T, axis=-1): numpy sums up to seven terms left to
    right on either axis, but eight along the last axis pairwise."""
    xx = x * x
    if len(x) == 8:
        # ((x0 + x1) + (x2 + x3)) + ((x4 + x5) + (x6 + x7)), a level at a time
        pairs = xx[0::2] + xx[1::2]
        quads = pairs[0::2] + pairs[1::2]
        return np.sqrt(quads[0] + quads[1])
    return np.sqrt(xx.sum(axis=0))


def _nearest(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (3, k, ...) points of the lines g nearest the lines x, of (6, k,
    ...) stacks of lines at right angles: the foot of g plus the foot of x
    projected on g, which is where the two meet once they do."""
    k = g.shape[1]
    feet = _cross(np.concatenate([g[:3], x[:3]], axis=1), np.concatenate([g[3:], x[3:]], axis=1))
    return feet[:, :k] + (feet[:, k:] * g[:3]).sum(axis=0) * g[:3]


def _miss(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance of the points p from the lines x: |p × d - m|."""
    return _length(_cross(p, x[:3]) - x[3:])


def _unsigned_gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distance of x from y up to sign."""
    return np.minimum(_length(x - y), _length(x + y))
