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

from . import screws
from .errors import ClosureFailure, CollapsedPose, DegenerateBranch, DegenerateCircle, ParallelLines
from .screws import OrientedLine
from .sphere import (
    OrientedGreatCircle,
    SpherePoint,
    apply,
    arc_point,
    great_circle_through,
    rotation_about,
    spherical_distance,
    tie_break_sign,
)

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
    """Constant ratio c21 of the halved-angle tangents along the branch."""
    sa, sb = np.sin(spec.alpha), np.sin(spec.beta)
    if spec.branch == "plus":
        den = sa + sb
        if abs(den) < _DENOM_EPS:
            raise DegenerateBranch("plus-branch denominator vanishes")
        return float(np.sin(spec.beta - spec.alpha) / den)
    den = sa - sb
    if abs(den) < _DENOM_EPS:
        raise DegenerateBranch("minus-branch denominator vanishes")
    return float(np.sin(spec.alpha - spec.beta) / den)


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
    offset (see arm_joint_offset). Side lengths and closure are verified
    before the pose is returned; the aligned poses are regular here.
    """
    if abs(np.dot(p.v, g0.n)) > 1e-10:
        raise ValueError("base point does not lie on the basis circle")
    c21 = transmission_coefficient(spec)
    phi2 = coupled_angle(c21, phi1)

    a = p
    b = arc_point(g0, a, spec.alpha)
    arm_a = apply(rotation_about(a, phi1), g0)
    arm_b = apply(rotation_about(b, phi2), g0)
    offset = arm_joint_offset(spec)
    d = arc_point(arm_a, a, offset)
    c = arc_point(arm_b, b, offset)

    arm_arc = abs(offset)
    sides = (
        spherical_distance(a, b),
        spherical_distance(b, c),
        spherical_distance(c, d),
        spherical_distance(d, a),
    )
    expect = (spec.alpha, arm_arc, spec.alpha, arm_arc)
    worst = max(abs(s - e) for s, e in zip(sides, expect))
    if worst > _CLOSURE_TOL:
        raise ClosureFailure(
            f"isogram cell failed to close (side error {worst:.3e}); "
            "invalid branch/sign combination"
        )
    coupler = great_circle_through(d, c)
    return SphericalIsogramPose(
        spec=spec,
        a=a,
        b=b,
        c=c,
        d=d,
        basis_circle=g0,
        arm_b_circle=arm_b,
        coupler_circle=coupler,
        arm_a_circle=arm_a,
        phi1=phi1,
        phi2=phi2,
    )


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


def dihedral_angles(pose: SphericalIsogramPose) -> tuple[float, float, float, float]:
    """Interior joint angles of the cell in the loop-closure frame convention
    (signed about the vertex radials). Opposite angles are congruent."""
    from .oracle import dh_from_spherical_vertices

    thetas, _ = dh_from_spherical_vertices([q.v for q in pose.vertices])
    return tuple(float(t) for t in thetas)


def phi2_from_dihedral(branch: Branch, theta_b: float) -> float:
    """Arm angle phi2 encoded by the loop-frame dihedral at vertex b.

    The offset between the two conventions is a constant pi on the minus
    branch (backward-folded coupler joints) and zero on the plus branch
    (supplement-forward joints); used to compare closure-solver output with
    the analytic transmission."""
    _check_branch(branch)
    shift = np.pi if branch == "minus" else 0.0
    x = theta_b + shift
    return float(np.arctan2(np.sin(x), np.cos(x)))


# ---------------------------------------------------------------------------
# Dual-number transfer of the transmission law (Bennett cells).
# ---------------------------------------------------------------------------


def _dual_sin(a: float, da: float) -> tuple[float, float]:
    return np.sin(a), da * np.cos(a)


def _dual_div(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    return x[0] / y[0], (x[1] * y[0] - x[0] * y[1]) / (y[0] * y[0])


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
    sa, sa_d = _dual_sin(alpha_twist, a_len)
    sb, sb_d = _dual_sin(beta_twist, b_len)
    if branch == "plus":
        num = _dual_sin(beta_twist - alpha_twist, b_len - a_len)
        den = (sa + sb, sa_d + sb_d)
    else:
        num = _dual_sin(alpha_twist - beta_twist, a_len - b_len)
        den = (sa - sb, sa_d - sb_d)
    if abs(den[0]) < _DENOM_EPS:
        raise DegenerateBranch(f"{branch}-branch denominator vanishes")
    return _dual_div(num, den)


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


def _reference_perpendicular(d: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to d (gauge for the base hinge)."""
    e = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    w = np.cross(e, d)
    return w / np.linalg.norm(w)


def _meet(l1: OrientedLine, l2: OrientedLine, tol: float) -> np.ndarray:
    cp = screws.common_perpendicular(l1, l2)
    if cp.distance > tol:
        raise ClosureFailure(f"expected intersecting lines, gap {cp.distance:.3e}")
    return (cp.foot1 + cp.foot2) / 2


def solve_bennett_isogram(
    spec: BennettIsogramSpec,
    base: OrientedLine,
    base_hinge_foot,
    phi1: float,
) -> BennettIsogramPose:
    """Pose of the Bennett cell on the given base line with hinge angle phi1.

    The hinge at vertex A is placed orthogonal to the base through the given
    foot (its direction is a fixed gauge); hinge B sits at dual distance
    (alpha, a) along the base. At the aligned reference the arms fold
    backward, matching the spherical convention. Loop closure is verified to
    1e-9 before the pose is returned.
    """
    foot = np.asarray(base_hinge_foot, dtype=float)
    if np.linalg.norm(np.cross(base.d, foot - base.foot())) > 1e-9 * max(
        1.0, np.linalg.norm(foot)
    ):
        raise ValueError("base hinge foot does not lie on the base line")

    hinge_a = OrientedLine.from_point_direction(foot, _reference_perpendicular(base.d))
    hinge_b = screws.apply(screws.screw_displacement(base, spec.alpha_twist, spec.a_len), hinge_a)

    c_real, _ = bennett_dual_coefficient(
        spec.alpha_twist, spec.beta_twist, spec.a_len, spec.b_len, "plus"
    )
    phi2 = coupled_angle(c_real, phi1)

    arm_a = screws.apply(screws.rotation_about_line(hinge_a, phi1), base)
    arm_b = screws.apply(screws.rotation_about_line(hinge_b, phi2), base)
    hinge_d = screws.apply(
        screws.screw_displacement(arm_a, -spec.beta_twist, -spec.b_len), hinge_a
    )
    hinge_c = screws.apply(
        screws.screw_displacement(arm_b, -spec.beta_twist, -spec.b_len), hinge_b
    )

    cp = screws.common_perpendicular(hinge_c, hinge_d)
    resid = max(abs(cp.angle - spec.alpha_twist), abs(cp.distance - abs(spec.a_len)))
    if resid > _CLOSURE_TOL:
        raise ClosureFailure(f"Bennett cell failed to close (residual {resid:.3e})")
    coupler = cp.axis

    scale = max(1.0, abs(spec.a_len) + abs(spec.b_len))
    if np.linalg.norm(np.cross(arm_a.d, base.d)) < 1e-9:
        # aligned pose: all sides collinear, vertices are the hinge feet
        vertex_a, vertex_b, vertex_c, vertex_d = (
            screws.common_perpendicular(base, hg).foot1
            for hg in (hinge_a, hinge_b, hinge_c, hinge_d)
        )
    else:
        vertex_a = _meet(base, arm_a, _CLOSURE_TOL * scale)
        vertex_b = _meet(base, arm_b, _CLOSURE_TOL * scale)
        vertex_c = _meet(arm_b, coupler, _CLOSURE_TOL * scale)
        vertex_d = _meet(arm_a, coupler, _CLOSURE_TOL * scale)

    return BennettIsogramPose(
        spec=spec,
        hinge_a=hinge_a,
        hinge_b=hinge_b,
        hinge_c=hinge_c,
        hinge_d=hinge_d,
        base_line=base,
        arm_b_line=arm_b,
        coupler_line=coupler,
        arm_a_line=arm_a,
        vertex_a=vertex_a,
        vertex_b=vertex_b,
        vertex_c=vertex_c,
        vertex_d=vertex_d,
        phi1=phi1,
        phi2=phi2,
    )


def bennett_symmetry_axis(pose: BennettIsogramPose) -> OrientedLine:
    """Symmetry axis s of the skew isogram: the common perpendicular of the
    two vertex diagonals, which it meets at their midpoints. The line
    reflection in s swaps the opposite hinges (A, C) and (B, D).

    Zero-offset cells collapse all four vertices into one point; there the
    axis comes from the direction bisector of the opposite hinges instead.
    """
    len_ac = float(np.linalg.norm(pose.vertex_c - pose.vertex_a))
    len_bd = float(np.linalg.norm(pose.vertex_d - pose.vertex_b))
    if min(len_ac, len_bd) > 1e-9:
        try:
            diag_ac = OrientedLine.from_points(pose.vertex_a, pose.vertex_c)
            diag_bd = OrientedLine.from_points(pose.vertex_b, pose.vertex_d)
            cp = screws.common_perpendicular(diag_ac, diag_bd)
        except ValueError as exc:
            raise CollapsedPose("diagonals degenerate at this pose") from exc
        mid_ac = (pose.vertex_a + pose.vertex_c) / 2
        mid_bd = (pose.vertex_b + pose.vertex_d) / 2
        scale = max(1.0, len_ac)
        if (
            np.linalg.norm(cp.foot1 - mid_ac) > 1e-7 * scale
            or np.linalg.norm(cp.foot2 - mid_bd) > 1e-7 * scale
        ):
            raise ClosureFailure("diagonal feet are not midpoints; not a valid isogram pose")
        return cp.axis
    # concurrent-hinge (spherical-image) cell: bisect the opposite hinges
    best = None
    for hc in (pose.hinge_c, pose.hinge_c.reversed()):
        try:
            axis = screws.midline_symmetry_axis(pose.hinge_a, hc)
        except ParallelLines:
            continue
        refl = screws.line_reflection(axis)
        resid = screws.unoriented_line_distance(screws.apply(refl, pose.hinge_b), pose.hinge_d)
        if best is None or resid < best[0]:
            best = (resid, axis)
    if best is None or best[0] > _CLOSURE_TOL:
        raise CollapsedPose("no hinge-swapping axis at this pose")
    return best[1]
