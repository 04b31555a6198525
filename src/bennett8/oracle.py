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

from dataclasses import dataclass, field
from math import cos, sin

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

    def residual_and_jacobian(self, angles) -> tuple[np.ndarray, np.ndarray]:
        """The residual and its exact Jacobian in every joint angle, driving
        joint included, from one walk around the loop. Column k holds the
        residual's components of L_k * M / 2 for the signed product M and
        joint k's line L_k; at a closed pose that is half the joint's unit
        axis (spherical) or Pluecker line (direction; 0; moment)."""
        lines: list[tuple] = []
        m = self._signed_product(angles, lines)
        if self._offsets is None:
            w, x, y, z = m
            # vec((0, l) (w, v)) = w l + l x v
            cols = [(w * a + (b * z - c * y), w * b + (c * x - a * z), w * c + (a * y - b * x))
                    for a, b, c in lines]
        else:
            w, x, y, z, p, q, r, s = m
            # (0, u; 0, n) (w, v; p, Q): real part vector w u + u x v; dual
            # part -(u . Q + n . v) and p u + u x Q + w n + n x v
            cols = [
                (
                    w * a + (b * z - c * y),
                    w * b + (c * x - a * z),
                    w * c + (a * y - b * x),
                    -(a * q + b * r + c * s) - (d * x + e * y + f * z),
                    p * a + (b * s - c * r) + w * d + (e * z - f * y),
                    p * b + (c * q - a * s) + w * e + (f * x - d * z),
                    p * c + (a * r - b * q) + w * f + (d * y - e * x),
                )
                for a, b, c, d, e, f in lines
            ]
        return np.array(m[1:]), 0.5 * np.array(cols).T


@dataclass(frozen=True)
class LoopSolution:
    angles: tuple[float, ...]
    residual_norm: float
    converged: bool
    iterations: int
    residual_history: tuple[float, ...] = field(default=())


def solve_loop(problem: LoopProblem, tol: float = 1e-11, max_iter: int = 100) -> LoopSolution:
    """Damped Newton on the loop-closure map with the driving joint fixed.

    Steps are first shortened to at most the trust radius in every joint,
    then halved (up to 30 times) until the residual norm decreases. The
    radius starts at _FIRST_STEP and doubles after each accepted step, up to
    MAX_STEP.
    Non-convergence is reported, not raised: the solution carries the last
    iterate and a converged flag. The residual and the exact Jacobian come
    from one walk around the loop, once per joint vector: the accepted trial
    of the line search gives the next iterate both.
    """
    free = [k for k in range(len(problem.arcs)) if k != problem.driving_index]
    full = np.array(problem.angles, dtype=float)

    def fn(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = full.copy()
        v[free] = x
        r, jac = problem.residual_and_jacobian(v)
        return r, jac[:, free]

    x = full[free].copy()
    r, jac = fn(x)
    radius = _FIRST_STEP
    history: list[float] = []
    it = 0
    for it in range(1, max_iter + 1):
        rn = float(np.linalg.norm(r))
        history.append(rn)
        if rn < tol:
            full[free] = x
            return LoopSolution(tuple(full), rn, True, it, tuple(history))
        try:
            step = np.linalg.solve(jac, r) if jac.shape[0] == jac.shape[1] else None
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            step = np.linalg.lstsq(jac, r, rcond=None)[0]
        lam = radius / max(float(np.max(np.abs(step))), radius)
        for _ in range(30):
            trial = x - lam * step
            r, jac = fn(trial)
            if float(np.linalg.norm(r)) < rn:
                x = trial
                radius = min(2 * radius, MAX_STEP)
                break
            lam /= 2
        else:
            x = x - lam * step
            r, jac = fn(x)
    rn = float(np.linalg.norm(r))
    history.append(rn)
    full[free] = x
    return LoopSolution(tuple(full), rn, rn < tol, it, tuple(history))


def matrix_nullity(jac: np.ndarray) -> int:
    """Dimension of the null space of jac: columns minus rank, where singular
    values below SV_RATIO times the largest count as zero. For a wide matrix
    the missing rows count toward the nullity as well."""
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return int(jac.shape[1])
    return int(jac.shape[1]) - int(np.sum(sv >= SV_RATIO * sv[0]))


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


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def dh_from_spherical_vertices(vertices) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, arcs) of a closed spherical polygon given its vertices.

    Joint axes are the vertex radials z_k; side frames use
    x_k = unit(z_k x z_{k+1}); theta_k is the signed angle about z_k from
    x_{k-1} to x_k, arc_k the positive arc from vertex k to k+1.
    """
    vs = np.array(vertices, dtype=float)
    n = len(vs)
    nxt = np.roll(vs, -1, axis=0)
    sides = np.cross(vs, nxt)  # row k: z_k x z_{k+1}
    xs = np.array([_unit(c) for c in sides])
    xin = np.roll(xs, 1, axis=0)
    turns = np.cross(xin, xs)  # row k: x_{k-1} x x_k
    # np.dot, np.linalg.norm and np.arctan2 stay per row: their bits differ
    # from a batched or scalar form
    thetas = np.empty(n)
    arcs = np.empty(n)
    for k in range(n):
        thetas[k] = np.arctan2(np.dot(turns[k], vs[k]), np.dot(xin[k], xs[k]))
        arcs[k] = np.arctan2(np.dot(sides[k], xs[k]), np.dot(vs[k], nxt[k]))
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
    zs = np.array([_unit(a) for a in np.array(axes, dtype=float)])
    vs = np.array(vertices, dtype=float)
    n = len(zs)
    nz = np.roll(zs, -1, axis=0)
    normals = np.cross(zs, nz)  # row k: z_k x z_{k+1}
    dvs = np.roll(vs, -1, axis=0) - vs
    lens = np.empty(n)
    xs = np.empty((n, 3))
    for k in range(n):
        ln = np.linalg.norm(dvs[k])
        lens[k] = ln
        xs[k] = dvs[k] / ln if ln > 1e-12 else _unit(normals[k])
    xin = np.roll(xs, 1, axis=0)
    turns = np.cross(xin, xs)  # row k: x_{k-1} x x_k
    # np.dot, np.linalg.norm and np.arctan2 stay per row: their bits differ
    # from a batched or scalar form
    thetas = np.empty(n)
    twists = np.empty(n)
    for k in range(n):
        thetas[k] = np.arctan2(np.dot(turns[k], zs[k]), np.dot(xin[k], xs[k]))
        twists[k] = np.arctan2(np.dot(normals[k], xs[k]), np.dot(zs[k], nz[k]))
    return thetas, twists, lens


def problem_from_spatial_joints(axes, vertices, driving_index: int = 0) -> LoopProblem:
    thetas, twists, lens = dh_from_spatial_joints(axes, vertices)
    return LoopProblem(tuple(twists), driving_index, tuple(thetas), tuple(lens))
