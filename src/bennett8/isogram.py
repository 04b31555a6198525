"""Single four-bar cells: spherical isograms and Bennett isograms.

An isogram is a quadrangle with equal opposite sides. Fixing one side as the
basis, the coupler motion is rational in the half-angle tangents: the arm
circle angles phi_1, phi_2 (measured from the aligned pose on the basis
circle) satisfy tan(phi_2/2) = c21 * tan(phi_1/2), with branch coefficients

    plus:   c21 = sin(beta - alpha) / (sin alpha + sin beta)
    minus:  c21 = sin(alpha - beta) / (sin alpha - sin beta)

for basis arc alpha and arm parameter beta. The branch names refer to the
denominator sign of the classic half-angle law; the numerator sign of the
plus branch is fixed by numerical loop closure under this package's
counterclockwise-positive angle convention (the plus branch counter-rotates
the arms, the minus branch co-rotates them).

Each branch has a unique skew completion of the quadrangle carrying the
half-turn symmetry that swaps opposite vertices: the coupler joints fold
back by beta along the arm circles on the minus branch and sit at the
supplementary arc pi - beta ahead on the plus branch (the other completions
are plane-inscribed cyclic quadrangles with only a mirror symmetry and do
not appear in the linkage).

Bennett isograms are the dual transfer of the spherical cells: arcs become
dual angles (twist + epsilon * length) and the closure survives with pure
revolute hinges exactly when the dual part of the transmission coefficient
vanishes, which is the side-proportion a : b = sin alpha : sin beta.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._dual import SHORT_UNIT, _dual_angle, _dual_cross, _dual_halfturn, _dual_unit, _dual_vector, _length, _line
from ._dual import _miss, _nearest, _screw, _unsigned_gap
from .errors import ClosureFailure, CollapsedPose, DegenerateBranch, DegenerateCircle, ParallelLines
from .screws import PARALLEL_EPS, OrientedLine
from .sphere import OrientedGreatCircle, SpherePoint, great_circle_through, tie_break_sign

Branch = Literal["plus", "minus"]

_DENOM_EPS = 1e-10
_CLOSURE_TOL = 1e-9


def _check_branch(branch: str) -> None:
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")


@dataclass(frozen=True)
class SphericalIsogramSpec:
    """Design of a spherical isogram: basis/coupler arc alpha, arm arc beta,
    and the motion branch (denominator sign of the transmission law)."""

    alpha: float
    beta: float
    branch: Branch = "plus"

    def __post_init__(self):
        _check_branch(self.branch)
        if not 0 < self.alpha < np.pi:
            raise ValueError(f"alpha must lie in (0, pi), got {self.alpha}")
        if not 0 < self.beta < np.pi:
            raise ValueError(f"beta must lie in (0, pi), got {self.beta}")
        if self.branch == "minus" and abs(np.sin(self.alpha) - np.sin(self.beta)) < _DENOM_EPS:
            raise DegenerateBranch("minus branch needs sin(alpha) != sin(beta)")


def transmission_coefficient(spec: SphericalIsogramSpec) -> float:
    """Constant ratio c21 of the halved-angle tangents along the branch: the
    real part of the dual law (see bennett_dual_coefficient)."""
    num, den = _law(spec.alpha, spec.beta, spec.branch)
    return float(num / den)


def coupled_angle(c21: float, phi1: float) -> float:
    """Arm angle phi2 with tan(phi2/2) = c21 * tan(phi1/2), in (-pi, pi].

    Works on the homogeneous half-angle pair so phi1 = pi is a regular point
    (it maps to pi whenever c21 != 0, and to 0 on the degenerate c21 = 0 ray).
    """
    w = np.cos(phi1 / 2)
    s = np.sin(phi1 / 2)
    phi2 = 2.0 * float(np.arctan2(c21 * s, w))
    if phi2 <= -np.pi:
        phi2 += 2 * np.pi
    return phi2


@dataclass(frozen=True, eq=False)
class SphericalIsogramPose:
    """Solved cell: vertices in cyclic order (opposite pairs (a, c), (b, d)),
    the four side circles in side order ab, bc, cd, da, and the arm angles."""

    spec: SphericalIsogramSpec
    a: SpherePoint
    b: SpherePoint
    c: SpherePoint
    d: SpherePoint
    basis_circle: OrientedGreatCircle
    arm_b_circle: OrientedGreatCircle
    coupler_circle: OrientedGreatCircle
    arm_a_circle: OrientedGreatCircle
    phi1: float
    phi2: float

    @property
    def vertices(self) -> tuple[SpherePoint, SpherePoint, SpherePoint, SpherePoint]:
        return (self.a, self.b, self.c, self.d)

    @property
    def side_circles(self):
        return (self.basis_circle, self.arm_b_circle, self.coupler_circle, self.arm_a_circle)


def arm_joint_offset(spec: SphericalIsogramSpec) -> float:
    """Signed arc from a base joint to its coupler joint along the oriented
    arm circle; constant along each branch.

    On the minus branch the coupler joints fold back by beta from the base
    joints; on the plus branch they sit at the supplementary arc pi - beta
    ahead. Both choices close the same arm circles, but only these make the
    quadrangle skew with the half-turn symmetry of a proper isogram (the
    other completions are the cyclic, plane-inscribed quadrangles).
    """
    return -spec.beta if spec.branch == "minus" else np.pi - spec.beta


def _cell_chain(base, a, side, phis, arm_offset):
    """Hinge B, the arms at A and B, and hinges C and D of a cell as dual
    vectors, from its base and hinge A (on the sphere: the basis pole and A,
    moments 0). B is A screwed along the base by side = (alpha, a); each arm
    is the base turned about its hinge by phis = (phi1, phi2); D and C are A
    and B screwed along their arms by arm_offset = (angle, slide)."""
    b = _screw(base, *side, a)
    arm_a, arm_b = (_screw(hinge, phi, 0.0, base) for hinge, phi in zip((a, b), phis))
    return b, arm_a, arm_b, _screw(arm_b, *arm_offset, b), _screw(arm_a, *arm_offset, a)


def _solve_cell(spec, base, a, side, phis, arm_offset):
    """A cell closed by its one check (see _closure), or the error it fails
    with: its hinges A, B, C, D and sides AB, BC, CD, DA as (6, 4) stacks of
    dual vectors, from _cell_chain's inputs, and its vertices, the (3, 4)
    points of the sides AB, AB, CD, CD nearest the hinges. The coupler CD is
    the common perpendicular of C and D, the dual unit of C x D. On the
    sphere the moments are 0 and the vertices the origin."""
    b, arm_a, arm_b, c, d = _cell_chain(base, a, side, phis, arm_offset)
    cross = _dual_cross(c, d)
    if _length(cross[:3]) < PARALLEL_EPS:
        raise ParallelLines("lines are parallel (or identical)")
    coupler, _ = _dual_unit(cross)
    # a dual unit is a line only to rounding, d . m = eps a cot(alpha) in
    # units of length, which on a flat twist fails the absolute Pluecker
    # check of a line near the origin: drop it
    coupler[3:] -= (coupler[:3] * coupler[3:]).sum() * coupler[:3]
    hinges, sides = np.stack([a, b, c, d], axis=1), np.stack([base, arm_b, coupler, arm_a], axis=1)
    # feet of perpendicular lines stay well-conditioned where the sides turn
    # collinear
    vertices = _nearest(sides[:, [0, 0, 2, 2]], hinges)
    resid = _closure(spec, hinges, sides, vertices)
    if not resid <= _CLOSURE_TOL:
        raise ClosureFailure(f"isogram cell failed to close (residual {resid:.3e})")
    return hinges, sides, vertices


def _closure(spec, hinges: np.ndarray, sides: np.ndarray, vertices: np.ndarray) -> float:
    """The closure check of both cell kinds (see _solve_cell for its
    inputs), lengths in units of L (see _length_unit): the largest error of
    the dual angles of the hinges AB, BC, CD, DA against the design,
    (alpha + eps a) on base and coupler and (arm + eps b) on the arms, and
    of each vertex against both of its sides (vertex A ends DA and AB),
    |V x d - m| / L; NaN if any error is NaN. On the sphere a = b = 0,
    arm = |arm_joint_offset| and the vertex terms are 0."""
    if isinstance(spec, SphericalIsogramSpec):
        design, unit = (spec.alpha, abs(arm_joint_offset(spec)), 0.0, 0.0), 1.0
    else:
        design, unit = (spec.alpha_twist, spec.beta_twist, spec.a_len, spec.b_len), _length_unit(spec)
    (theta, length), _ = _dual_angle(hinges, np.roll(hinges, -1, axis=1))
    # np.max keeps a NaN term, which _solve_cell's test fails
    return float(np.max([
        np.abs(theta - np.tile(design[:2], 2)), np.abs(length - np.tile(design[2:], 2)) / unit,
        _miss(vertices, np.roll(sides, 1, axis=1)) / unit, _miss(vertices, sides) / unit,
    ]))


def _pose_closure(pose) -> float:
    """_closure of a solved cell, read from its pose. On the sphere the
    hinges are the vertices and the sides the circles' poles, moment free,
    and the vertices of _closure the origin."""
    if isinstance(pose, SphericalIsogramPose):
        hinges, sides = (np.pad(np.stack(x, axis=1), ((0, 3), (0, 0)))
                         for x in ([q.v for q in pose.vertices], [g.n for g in pose.side_circles]))
        return _closure(pose.spec, hinges, sides, np.zeros((3, 4)))
    hinges, sides = (np.stack([_dual_vector(x) for x in lines], axis=1) for lines in (pose.hinges, pose.side_lines))
    return _closure(pose.spec, hinges, sides, np.stack(pose.vertices, axis=1))


def solve_spherical_isogram(
    spec: SphericalIsogramSpec,
    g0: OrientedGreatCircle,
    p: SpherePoint,
    phi1: float,
) -> SphericalIsogramPose:
    """Pose of the cell with basis from p along oriented g0 and arm angle phi1.

    The basis runs from a = p to b at arc alpha along g0; the arm circles are
    g0 rotated about a and b by phi1 and phi2, with angles measured from the
    aligned pose on g0. Coupler joints sit at the branch's constant arm
    offset (see arm_joint_offset): the moment-free case of the cells' screw
    chain (_solve_cell). Side lengths and closure are verified before the
    pose is returned; the aligned poses are regular here.
    """
    if abs(np.dot(p.v, g0.n)) > 1e-10:
        raise ValueError("base point does not lie on the basis circle")
    phi2 = coupled_angle(transmission_coefficient(spec), phi1)
    hinges, sides, _ = _solve_cell(
        spec, np.r_[g0.n, 0.0, 0.0, 0.0], np.r_[p.v, 0.0, 0.0, 0.0], (spec.alpha, 0.0), (phi1, phi2),
        (arm_joint_offset(spec), 0.0),
    )
    b, c, d = (SpherePoint(x) for x in hinges[:3, 1:].T)
    arm_b, arm_a = (OrientedGreatCircle(sides[:3, k]) for k in (1, 3))
    # fields in the order of vertices and side_circles
    return SphericalIsogramPose(spec, p, b, c, d, g0, arm_b, great_circle_through(d, c), arm_a, phi1, phi2)


def isogram_symmetry_spherical(
    pose: SphericalIsogramPose,
) -> tuple[SpherePoint, OrientedGreatCircle]:
    """Symmetry center S (intersection of the diagonal circles, tie-broken)
    and its polar circle s. The half-turn about S swaps a with c and b with d;
    the reflection in s fixes the configuration as well."""
    try:
        diag_ac = great_circle_through(pose.a, pose.c)
        diag_bd = great_circle_through(pose.b, pose.d)
    except DegenerateCircle as exc:
        raise CollapsedPose("diagonal circles are undefined at this pose") from exc
    cross = np.cross(diag_ac.n, diag_bd.n)
    if np.linalg.norm(cross) < 1e-10:
        raise CollapsedPose("diagonal circles coincide (aligned pose)")
    s_dir = cross / np.linalg.norm(cross)
    s_dir = tie_break_sign(s_dir) * s_dir
    s_point = SpherePoint(s_dir)
    return s_point, OrientedGreatCircle(s_dir)


# ---------------------------------------------------------------------------
# Dual-number transfer of the transmission law (Bennett cells).
# ---------------------------------------------------------------------------


def _law(alpha: float, beta: float, branch: Branch):
    """Numerator and denominator of the transmission law at the angles alpha
    and beta: sin(s beta - s alpha) and sin(alpha) + s sin(beta), with s = 1
    on the plus branch and -1 on the minus one."""
    # the minus branch is the plus one with beta negated, bit for bit
    sign = 1.0 if branch == "plus" else -1.0
    num, den = np.sin(sign * beta - sign * alpha), np.sin(alpha) + sign * np.sin(beta)
    if abs(den) < _DENOM_EPS:
        raise DegenerateBranch(f"{branch}-branch denominator vanishes")
    return num, den


def _dual_law(alpha: float, beta: float, a: float, b: float, branch: Branch):
    """_law at the dual angles alpha + eps*a and beta + eps*b, as (real, dual)
    pairs. Since sin(x + eps dx) = sin x + eps dx cos x, the real parts are
    _law's and the dual parts its derivative along (a, b)."""
    sign = 1.0 if branch == "plus" else -1.0
    num, den = _law(alpha, beta, branch)
    num_dual = (sign * b - sign * a) * np.cos(sign * beta - sign * alpha)
    return (num, num_dual), (den, a * np.cos(alpha) + sign * (b * np.cos(beta)))


def bennett_dual_coefficient(
    alpha_twist: float,
    beta_twist: float,
    a_len: float,
    b_len: float,
    branch: Branch = "plus",
) -> tuple[float, float]:
    """Transmission coefficient evaluated in dual arithmetic with the dual
    angles alpha + eps*a and beta + eps*b.

    The real part equals the spherical coefficient of the twist angles; the
    dual part vanishes exactly on the side proportion a sin(beta) =
    b sin(alpha) (plus branch; the minus branch needs the opposite offset
    sign), which is why pure revolute hinge angles stay real.
    """
    _check_branch(branch)
    (x, dx), (y, dy) = _dual_law(alpha_twist, beta_twist, a_len, b_len, branch)
    return x / y, (dx * y - x * dy) / (y * y)


@dataclass(frozen=True)
class BennettIsogramSpec:
    """Bennett cell design: twists of basis/coupler and arms plus the side
    lengths, tied by the proportion a : b = sin(alpha) : sin(beta)."""

    alpha_twist: float
    beta_twist: float
    a_len: float
    b_len: float

    def __post_init__(self):
        if not 0 < self.alpha_twist < np.pi:
            raise ValueError("alpha_twist must lie in (0, pi)")
        if not 0 < self.beta_twist < np.pi:
            raise ValueError("beta_twist must lie in (0, pi)")
        if self.a_len < 0 or self.b_len < 0:
            raise ValueError("side lengths must be nonnegative")
        lhs = self.a_len * np.sin(self.beta_twist)
        rhs = self.b_len * np.sin(self.alpha_twist)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        if self.a_len == self.b_len == 0.0:
            return  # zero-offset cell: the spherical image itself
        if abs(lhs - rhs) > 1e-10 * scale:
            raise ValueError(
                f"side proportion violated: a*sin(beta)={lhs:.12g} vs b*sin(alpha)={rhs:.12g}"
            )


@dataclass(frozen=True, eq=False)
class BennettIsogramPose:
    """Solved Bennett cell: hinge lines at the four vertices (cyclic order,
    opposite pairs (A, C) and (B, D)), the side lines, the vertex points
    (feet of the common perpendiculars) and the hinge angles."""

    spec: BennettIsogramSpec
    hinge_a: OrientedLine
    hinge_b: OrientedLine
    hinge_c: OrientedLine
    hinge_d: OrientedLine
    base_line: OrientedLine
    arm_b_line: OrientedLine
    coupler_line: OrientedLine
    arm_a_line: OrientedLine
    vertex_a: np.ndarray
    vertex_b: np.ndarray
    vertex_c: np.ndarray
    vertex_d: np.ndarray
    phi1: float
    phi2: float

    @property
    def hinges(self) -> tuple[OrientedLine, OrientedLine, OrientedLine, OrientedLine]:
        return (self.hinge_a, self.hinge_b, self.hinge_c, self.hinge_d)

    @property
    def side_lines(self):
        return (self.base_line, self.arm_b_line, self.coupler_line, self.arm_a_line)

    @property
    def vertices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.vertex_a, self.vertex_b, self.vertex_c, self.vertex_d)


def _length_unit(spec: BennettIsogramSpec) -> float:
    """The unit of length of a cell's checks: a + b, or 1 on zero-offset cells."""
    return (spec.a_len + spec.b_len) or 1.0


def _reference_perpendicular(d: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to d (gauge for the base hinge)."""
    e = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    w = np.cross(e, d)
    return w / np.linalg.norm(w)


def solve_bennett_isogram(
    spec: BennettIsogramSpec,
    base: OrientedLine,
    base_hinge_foot,
    phi1: float,
) -> BennettIsogramPose:
    """Pose of the Bennett cell on the given base line with hinge angle phi1.

    The hinge at vertex A is placed orthogonal to the base through the given
    foot (its direction is a fixed gauge); hinge B sits at dual distance
    (alpha, a) along the base. Each further arm and hinge is the screw image
    of a line already placed, the arm offset (-beta, -b), and the coupler is
    the common perpendicular of hinges C and D (_solve_cell). At the aligned
    reference the arms fold backward, matching the spherical convention.
    Loop closure is verified to 1e-9, lengths in units of a + b (of 1 on
    zero-offset cells), before the pose is returned.
    """
    foot = np.asarray(base_hinge_foot, dtype=float)
    if np.linalg.norm(np.cross(base.d, foot - base.foot())) > 1e-9 * max(1.0, np.linalg.norm(foot)):
        raise ValueError("base hinge foot does not lie on the base line")

    hinge_a = OrientedLine.from_point_direction(foot, _reference_perpendicular(base.d))
    c_real, _ = bennett_dual_coefficient(spec.alpha_twist, spec.beta_twist, spec.a_len, spec.b_len, "plus")
    phi2 = coupled_angle(c_real, phi1)
    hinges, sides, vertices = _solve_cell(
        spec, _dual_vector(base), _dual_vector(hinge_a), (spec.alpha_twist, spec.a_len), (phi1, phi2),
        (-spec.beta_twist, -spec.b_len),
    )
    # fields in the order of hinges, side_lines and vertices
    return BennettIsogramPose(
        spec, hinge_a, *map(_line, hinges.T[1:]), base, *map(_line, sides.T[1:]), *vertices.T.copy(), phi1, phi2
    )


def bennett_symmetry_axis(pose: BennettIsogramPose) -> OrientedLine:
    """Symmetry axis s of the skew isogram: the line reflection in s swaps the
    opposite hinges (A, C) and (B, D). With the hinges oriented as
    solve_bennett_isogram orients them, s is the dual unit of A - C, whose
    line reflection carries A onto -C; on zero-offset cells it passes through
    the common point of the hinges. The reflection of B is checked against
    D, lengths in units of a + b (see _length_unit). Undefined at the
    aligned poses, where the arms lie on the base."""
    # the arms lie on the base at the aligned poses
    if np.linalg.norm(np.cross(pose.arm_a_line.d, pose.base_line.d)) < 1e-9:
        raise CollapsedPose("symmetry axis undefined at the aligned pose")
    a, b, c, d = map(_dual_vector, pose.hinges)
    s, short = _dual_unit(a - c)
    if short:
        raise ClosureFailure(SHORT_UNIT)
    weight = np.r_[np.ones(3), np.full(3, 1.0 / _length_unit(pose.spec))]
    resid = _unsigned_gap(weight * _dual_halfturn(s, b), weight * d)
    if not resid <= _CLOSURE_TOL:
        raise ClosureFailure(f"the symmetry axis does not swap hinges B and D (residual {resid:.3e})")
    return _line(s)
