"""Independent numeric loop-closure verification.

Solves single-loop revolute chains by damped Newton on the closure map: the
product of joint rotations and fixed side transfers around the loop must be
the identity. Nothing here evaluates the half-angle transmission law; the
only inputs are side data and an initial guess, so agreement with the
analytic solvers is evidence, not circularity.

Closure map convention (shared with the problem builders): walking the loop,
each joint k contributes Rz(theta_k) about the current joint axis, each side
k a transfer Rx(arc_k) (spherical) or a screw about x with twist arc_k and
translation len_k (spatial). Joint axes are the local z, side directions the
local x of a Denavit-Hartenberg style frame chain.

The closure Jacobian is exact and comes from the same walk around the loop:
with L_k joint k's line in the base frame (the prefix product's z axis, and
on a spatial loop its moment too), d(product)/d(theta_k) = L_k * product / 2
(the joint-screw form of the loop's derivative).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import cos, hypot, sin
from operator import mul

import numpy as np

# The rank rule: a singular value below SV_RATIO times the largest counts as
# zero.
SV_RATIO = 1e-7
# Trust region of solve_loop: the largest change of any joint angle in one
# Newton step, in radians. A full step from a seed near a fold of the loop
# can land where the residual is small but the angles are on no path back to
# the pose the seed was drawn around. The radius starts at _FIRST_STEP and
# doubles after each accepted step, up to MAX_STEP: next to the flat pose of
# a spherical isogram (opposite arcs equal) a first step of MAX_STEP carries
# a seed 0.02-0.05 rad from its pose to the antiparallelogram root beside it.
MAX_STEP = 0.2
_FIRST_STEP = 0.02
# A Newton step in three free joints (a four-joint loop: every cell) solves
# its normal equations in Python floats unless their Gram determinant is at
# most _GRAM_RATIO times the product of its diagonal. That ratio is 1 for
# orthogonal columns and about 1 / cond(J)^2 for two near-parallel ones, and
# the normal equations lose about as many digits as its log; below the bound
# (cond(J) past about 1e5, ten digits lost) np.linalg.lstsq solves the step.
_GRAM_RATIO = 1e-10


def _loop_closure_quat(thetas, arcs, axes=None):
    """Product over the loop of Rz(theta_k) * Rx(arc_k), as one (w, x, y, z)
    quaternion; it equals +-identity exactly when the loop closes. Given a
    list ``axes``, appends each joint's axis in the base frame: the z column
    of the product before the joint's factor."""
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    for th, al in zip(thetas, arcs):
        if axes is not None:
            axes.append((2.0 * (x * z + w * y), 2.0 * (y * z - w * x), w * w - x * x - y * y + z * z))
        ch, sh = cos(0.5 * th), sin(0.5 * th)
        # M *= Rz(th)
        w, x, y, z = (w * ch - z * sh, x * ch + y * sh, y * ch - x * sh, z * ch + w * sh)
        ca, sa = cos(0.5 * al), sin(0.5 * al)
        # M *= Rx(al)
        w, x, y, z = (w * ca - x * sa, x * ca + w * sa, y * ca + z * sa, z * ca - y * sa)
    return (w, x, y, z)


def _loop_closure_dq(thetas, arcs, lens, lines=None):
    """Spatial analogue of _loop_closure_quat: Rz(theta) followed by a screw
    about x with twist arc_k and translation len_k, multiplied around the loop.
    Given a list ``lines``, appends each joint's line in the base frame,
    (direction u; moment t x u): u is the z column of the product before the
    joint's factor, t = 2 vec(dual part * conjugate real part) its translation.
    """
    # running product (w, x, y, z) + e (p, q, r, s)
    w, x, y, z, p, q, r, s = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    for th, al, ln in zip(thetas, arcs, lens):
        if lines is not None:
            ux, uy, uz = 2.0 * (x * z + w * y), 2.0 * (y * z - w * x), w * w - x * x - y * y + z * z
            # (p, Q) * (w, -V) has the vector part w Q - p V - Q x V
            tx = 2.0 * (w * q - p * x - (r * z - s * y))
            ty = 2.0 * (w * r - p * y - (s * x - q * z))
            tz = 2.0 * (w * s - p * z - (q * y - r * x))
            lines.append((ux, uy, uz, ty * uz - tz * uy, tz * ux - tx * uz, tx * uy - ty * ux))
        ch, sh = cos(0.5 * th), sin(0.5 * th)
        ca, sa = cos(0.5 * al), sin(0.5 * al)
        hl = 0.5 * ln
        # the joint's factor Rz(th) * Sx(al, ln) = f + e g: each term is one
        # product, the other terms of the full dual-quaternion product being
        # exact zeros. Adding those zeros turns a -0.0 product into 0.0 (for
        # ca > 0, i.e. |al| <= pi), and so does "+ 0.0", which keeps the
        # full product's bits; ch * ca is never zero.
        fw, fx, fy, fz = ch * ca, ch * sa + 0.0, sh * sa + 0.0, sh * ca + 0.0
        gw = ch * (-hl * sa) + 0.0
        gx = ch * (hl * ca) + 0.0
        gy = sh * (hl * ca) + 0.0
        gz = sh * (-hl * sa) + 0.0
        # (w + e p) * (f + e g) = w f + e (w g + p f), each Hamilton product
        # written out in one fixed order of operations
        w, x, y, z, p, q, r, s = (
            w * fw - x * fx - y * fy - z * fz,
            w * fx + x * fw + y * fz - z * fy,
            w * fy - x * fz + y * fw + z * fx,
            w * fz + x * fy - y * fx + z * fw,
            (w * gw - x * gx - y * gy - z * gz) + (p * fw - q * fx - r * fy - s * fz),
            (w * gx + x * gw + y * gz - z * gy) + (p * fx + q * fw + r * fz - s * fy),
            (w * gy - x * gz + y * gw + z * gx) + (p * fy - q * fz + r * fw + s * fx),
            (w * gz + x * gy - y * gx + z * gw) + (p * fz + q * fy - r * fx + s * fw),
        )
    return (w, x, y, z, p, q, r, s)


@dataclass(frozen=True)
class LoopProblem:
    """Closed revolute loop: one side per joint, in cyclic order.

    ``angles`` is the full joint vector used as the initial guess; the entry
    at ``driving_index`` is held fixed at its given value during solving.
    """

    arcs: tuple[float, ...]
    driving_index: int
    angles: tuple[float, ...]
    offsets: tuple[float, ...] | None = None  # side lengths; None = spherical

    def __post_init__(self):
        n = len(self.arcs)
        if len(self.angles) != n:
            raise ValueError("cyclic consistency: need one joint angle per side")
        if self.offsets is not None and len(self.offsets) != n:
            raise ValueError("cyclic consistency: need one offset per side")
        if not 0 <= self.driving_index < n:
            raise ValueError("driving index out of range")
        # Python floats: the loop products run faster on them than on numpy
        # scalars, with the same bits
        object.__setattr__(self, "_arcs", np.asarray(self.arcs, dtype=float).tolist())
        offsets = None if self.offsets is None else np.asarray(self.offsets, dtype=float).tolist()
        object.__setattr__(self, "_offsets", offsets)

    @property
    def spatial(self) -> bool:
        return self.offsets is not None

    def _signed_product(self, angles, lines=None) -> list[float]:
        """The loop product at a full joint vector, times the sign of its
        scalar part; joint lines are appended to ``lines`` if given."""
        if not isinstance(angles, list):
            angles = np.asarray(angles, dtype=float).tolist()
        if self._offsets is None:
            m = _loop_closure_quat(angles, self._arcs, lines)
        else:
            m = _loop_closure_dq(angles, self._arcs, self._offsets, lines)
        s = 1.0 if m[0] >= 0 else -1.0
        return [s * v for v in m]

    def residual(self, angles) -> np.ndarray:
        """Closure residual at a full joint vector (identity product = 0):
        the signed product's vector part, and on a spatial loop its dual
        part as well."""
        return np.array(self._signed_product(angles)[1:])

    def _residual_and_columns(self, angles) -> tuple[list[float], list[tuple]]:
        """The residual and the Jacobian's columns, one per joint, as Python
        floats from one walk around the loop (see residual_and_jacobian)."""
        lines: list[tuple] = []
        m = self._signed_product(angles, lines)
        if self._offsets is None:
            w, x, y, z = m
            # vec((0, l) (w, v)) = w l + l x v
            cols = [
                (0.5 * (w * a + (b * z - c * y)), 0.5 * (w * b + (c * x - a * z)), 0.5 * (w * c + (a * y - b * x)))
                for a, b, c in lines
            ]
        else:
            w, x, y, z, p, q, r, s = m
            # (0, u; 0, n) (w, v; p, Q): real part vector w u + u x v; dual
            # part -(u . Q + n . v) and p u + u x Q + w n + n x v
            cols = [
                (
                    0.5 * (w * a + (b * z - c * y)),
                    0.5 * (w * b + (c * x - a * z)),
                    0.5 * (w * c + (a * y - b * x)),
                    0.5 * (-(a * q + b * r + c * s) - (d * x + e * y + f * z)),
                    0.5 * (p * a + (b * s - c * r) + w * d + (e * z - f * y)),
                    0.5 * (p * b + (c * q - a * s) + w * e + (f * x - d * z)),
                    0.5 * (p * c + (a * r - b * q) + w * f + (d * y - e * x)),
                )
                for a, b, c, d, e, f in lines
            ]
        return m[1:], cols

    def residual_and_jacobian(self, angles) -> tuple[np.ndarray, np.ndarray]:
        """The residual and its exact Jacobian in every joint angle, driving
        joint included, from one walk around the loop. Column k holds the
        residual's components of L_k * M / 2 for the signed product M and
        joint k's line L_k; at a closed pose that is half the joint's unit
        axis (spherical) or Pluecker line (direction; 0; moment)."""
        r, cols = self._residual_and_columns(angles)
        return np.array(r), np.array(cols).T


@dataclass(frozen=True)
class LoopSolution:
    angles: tuple[float, ...]
    residual_norm: float
    converged: bool
    iterations: int
    residual_history: tuple[float, ...] = field(default=())


def _dot(u, v) -> float:
    return sum(map(mul, u, v))


def _newton_step(cols: list[tuple], r: list[float]) -> list[float]:
    """The least-squares solution s of J s = r for the Jacobian J with the
    given columns. Three columns (every cell) take the 3 x 3 normal equations
    J^T J s = J^T r, solved by their adjugate in Python floats, unless the
    Gram determinant is at most _GRAM_RATIO times the product of its diagonal
    (near-parallel columns); those and any other number of columns take
    np.linalg.lstsq (the minimum-norm solution)."""
    if len(cols) == 3:
        c0, c1, c2 = cols
        g00, g01, g02 = _dot(c0, c0), _dot(c0, c1), _dot(c0, c2)
        g11, g12, g22 = _dot(c1, c1), _dot(c1, c2), _dot(c2, c2)
        a00, a01, a02 = g11 * g22 - g12 * g12, g02 * g12 - g01 * g22, g01 * g12 - g02 * g11
        a11, a12, a22 = g00 * g22 - g02 * g02, g01 * g02 - g00 * g12, g00 * g11 - g01 * g01
        det = g00 * a00 + g01 * a01 + g02 * a02
        if not det <= _GRAM_RATIO * g00 * g11 * g22:
            b0, b1, b2 = _dot(c0, r), _dot(c1, r), _dot(c2, r)
            return [
                (a00 * b0 + a01 * b1 + a02 * b2) / det,
                (a01 * b0 + a11 * b1 + a12 * b2) / det,
                (a02 * b0 + a12 * b1 + a22 * b2) / det,
            ]
    return np.linalg.lstsq(np.array(cols).T, np.array(r), rcond=None)[0].tolist()


def solve_loop(problem: LoopProblem, tol: float = 1e-11, max_iter: int = 100) -> LoopSolution:
    """Damped Newton on the loop-closure map with the driving joint fixed.

    Steps are first shortened to at most the trust radius in every joint,
    then halved (up to 30 times) until the residual norm decreases. The
    radius starts at _FIRST_STEP and doubles after each accepted step, up to
    MAX_STEP.
    Non-convergence is reported, not raised: the solution carries the last
    iterate and a converged flag. The residual and the exact Jacobian come
    from one walk around the loop, once per joint vector: the accepted trial
    of the line search gives the next iterate both. Iterates, residuals and
    Jacobian columns stay lists of Python floats, and the residual norm is
    math.hypot: numpy calls on 3- and 7-vectors cost more than their
    arithmetic (see _newton_step for the step).
    """
    d = problem.driving_index
    full = np.asarray(problem.angles, dtype=float).tolist()
    driving = full[d]

    def joints(x: list[float]) -> list[float]:
        return x[:d] + [driving] + x[d:]

    def fn(x: list[float]) -> tuple[list[float], list[tuple]]:
        r, cols = problem._residual_and_columns(joints(x))
        del cols[d]
        return r, cols

    x = full[:d] + full[d + 1:]
    r, cols = fn(x)
    rn = hypot(*r)
    radius = _FIRST_STEP
    history: list[float] = []
    it = 0
    for it in range(1, max_iter + 1):
        history.append(rn)
        if rn < tol:
            return LoopSolution(tuple(joints(x)), rn, True, it, tuple(history))
        step = _newton_step(cols, r)
        lam = radius / max(max(map(abs, step)), radius)
        for _ in range(30):
            trial = [a - lam * s for a, s in zip(x, step)]
            r, cols = fn(trial)
            trial_norm = hypot(*r)
            if trial_norm < rn:
                x, rn = trial, trial_norm
                radius = min(2 * radius, MAX_STEP)
                break
            lam /= 2
        else:
            x = [a - lam * s for a, s in zip(x, step)]
            r, cols = fn(x)
            rn = hypot(*r)
    history.append(rn)
    return LoopSolution(tuple(joints(x)), rn, rn < tol, it, tuple(history))


def matrix_nullity(jac: np.ndarray) -> int | np.ndarray:
    """Dimension of the null space of jac: columns minus rank, where singular
    values below SV_RATIO times the largest count as zero. For a wide matrix
    the missing rows count toward the nullity as well, and a zero matrix has
    rank 0. jac may be a (..., m, n) stack: one SVD call then gives the
    nullity of each matrix, as an int array of the stack's shape; a single
    matrix gives an int."""
    sv = np.linalg.svd(jac, compute_uv=False)
    # the rule on each matrix's singular values, largest first, as Python
    # floats: on the few values of one matrix that is cheaper than numpy
    nullities = [
        jac.shape[-1] - (sum(x >= SV_RATIO * s[0] for x in s) if s and s[0] > 0.0 else 0)
        for s in sv.reshape(math.prod(sv.shape[:-1]), sv.shape[-1]).tolist()
    ]
    return nullities[0] if jac.ndim == 2 else np.array(nullities, dtype=int).reshape(sv.shape[:-1])


def jacobian_nullity(problem: LoopProblem, solution: LoopSolution) -> int:
    """Closure-Jacobian nullity at a solved pose, driving joint included as
    an unknown. 1 means a one-parameter motion through the pose."""
    if solution.residual_norm > 1e-9:
        raise ValueError("jacobian_nullity needs a solved pose (residual < 1e-9)")
    return matrix_nullity(problem.residual_and_jacobian(solution.angles)[1])


# ---------------------------------------------------------------------------
# Problem builders: turn pose data (vertices / hinge lines) into loop problems.
# These extract Denavit-Hartenberg style parameters geometrically.
# ---------------------------------------------------------------------------


_NEXT, _PREV = [1, 2, 0], [2, 0, 1]  # components k + 1 and k + 2 at k


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (n, 3) arrays: the multiplies and
    subtractions of np.cross, so the same bits, without its axis handling."""
    return a[:, _NEXT] * b[:, _PREV] - a[:, _PREV] * b[:, _NEXT]


def _rows_next(a: np.ndarray) -> np.ndarray:
    """Row k + 1 of a at row k, cyclically: np.roll(a, -1, axis=0)."""
    return np.concatenate((a[1:], a[:1]))


def _rows_prev(a: np.ndarray) -> np.ndarray:
    """Row k - 1 of a at row k, cyclically: np.roll(a, 1, axis=0)."""
    return np.concatenate((a[-1:], a[:-1]))


def _norms(a: np.ndarray) -> np.ndarray:
    """Row norms of an (n, 3) array, with the bits of np.linalg.norm per row."""
    return np.sqrt(np.vecdot(a, a))


def dh_from_spherical_vertices(vertices) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, arcs) of a closed spherical polygon given its vertices.

    Joint axes are the vertex radials z_k; side frames use
    x_k = unit(z_k x z_{k+1}); theta_k is the signed angle about z_k from
    x_{k-1} to x_k, arc_k the positive arc from vertex k to k+1.
    """
    vs = np.array(vertices, dtype=float)
    nxt = _rows_next(vs)
    sides = _cross(vs, nxt)  # row k: z_k x z_{k+1}
    xs = sides / _norms(sides)[:, None]
    xin = _rows_prev(xs)
    turns = _cross(xin, xs)  # row k: x_{k-1} x x_k
    # one call per cell, not per row: np.vecdot runs np.dot's BLAS kernel
    # on each row and the vector np.arctan2 the per-element loop, so the bits
    # are those of per-row calls (tests/test_oracle.py pins both)
    thetas = np.arctan2(np.vecdot(turns, vs), np.vecdot(xin, xs))
    arcs = np.arctan2(np.vecdot(sides, xs), np.vecdot(vs, nxt))
    return thetas, arcs


def problem_from_spherical_vertices(vertices, driving_index: int = 0) -> LoopProblem:
    """Loop problem whose exact solution is the given closed polygon."""
    thetas, arcs = dh_from_spherical_vertices(vertices)
    return LoopProblem(tuple(arcs), driving_index, tuple(thetas))


def dh_from_spatial_joints(axes, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thetas, twists, lengths) of a closed spatial revolute loop.

    ``axes`` are unit hinge directions z_k, ``vertices`` the loop points V_k
    where consecutive sides meet their shared hinge (zero joint offsets).
    """
    zs = np.array(axes, dtype=float)
    zs = zs / _norms(zs)[:, None]
    vs = np.array(vertices, dtype=float)
    nz = _rows_next(zs)
    normals = _cross(zs, nz)  # row k: z_k x z_{k+1}
    dvs = _rows_next(vs) - vs
    lens = _norms(dvs)
    # a side shorter than 1e-12 takes its direction from the hinges
    long = lens > 1e-12
    xs = dvs / np.where(long, lens, 1.0)[:, None]
    if not long.all():
        short = normals[~long]
        xs[~long] = short / _norms(short)[:, None]
    xin = _rows_prev(xs)
    turns = _cross(xin, xs)  # row k: x_{k-1} x x_k
    # per-cell calls with per-row bits, as in dh_from_spherical_vertices
    thetas = np.arctan2(np.vecdot(turns, zs), np.vecdot(xin, xs))
    twists = np.arctan2(np.vecdot(normals, xs), np.vecdot(zs, nz))
    return thetas, twists, lens


def problem_from_spatial_joints(axes, vertices, driving_index: int = 0) -> LoopProblem:
    thetas, twists, lens = dh_from_spatial_joints(axes, vertices)
    return LoopProblem(tuple(twists), driving_index, tuple(thetas), tuple(lens))
