"""Isogram cells: transmission law, pose solving, symmetry, dual transfer.

Branch fixtures (established by the closure oracle, see test_oracle for the
independent side): under counterclockwise-positive arm angles measured from
the backward-folded aligned pose,

    plus branch   c21 = sin(beta-alpha)/(sin alpha + sin beta)   crossed cell
    minus branch  c21 = sin(alpha-beta)/(sin alpha - sin beta)   non-crossed

The magnitudes match the classic half-angle law; the plus-branch numerator
sign is what actually closes the loop (the arms counter-rotate).
"""
import numpy as np
import pytest

from bennett8.errors import ClosureFailure, CollapsedPose, DegenerateBranch
from bennett8.isogram import (
    BennettIsogramSpec,
    SphericalIsogramSpec,
    arm_joint_offset,
    bennett_dual_coefficient,
    bennett_symmetry_axis,
    coupled_angle,
    dihedral_angles,
    isogram_symmetry_spherical,
    phi2_from_dihedral,
    solve_bennett_isogram,
    solve_spherical_isogram,
    transmission_coefficient,
)
from bennett8.oracle import LoopProblem, problem_from_spherical_vertices, solve_loop
from bennett8.screws import (
    OrientedLine,
    apply as apply_disp,
    line_reflection,
    unoriented_line_distance,
)
from bennett8.sphere import (
    OrientedGreatCircle,
    SpherePoint,
    halfturn_about,
    lies_on,
    apply as rotate,
    spherical_distance,
)
from conftest import random_driving_angle, random_isogram_spec

G0 = OrientedGreatCircle(np.array([0.0, 0, 1]))
P0 = SpherePoint.of(1, 0, 0)
Z_AXIS = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0, 1]))


# ---------------------------------------------------------------------------
# transmission coefficient and coupled angle
# ---------------------------------------------------------------------------


def test_transmission_frozen_values():
    # values frozen from the closure oracle (see the agreement test below)
    assert transmission_coefficient(
        SphericalIsogramSpec(np.pi / 3, np.pi / 4, "plus")
    ) == pytest.approx(-0.1645246645991762, abs=1e-15)
    assert transmission_coefficient(
        SphericalIsogramSpec(np.pi / 3, np.pi / 4, "minus")
    ) == pytest.approx(1.6286262797369302, abs=1e-15)
    # swapping alpha and beta flips the numerator sign
    assert transmission_coefficient(
        SphericalIsogramSpec(np.pi / 4, np.pi / 3, "plus")
    ) == pytest.approx(0.1645246645991762, abs=1e-15)
    # equal arcs on the plus branch transmit angle one-to-... zero coefficient
    assert transmission_coefficient(SphericalIsogramSpec(0.9, 0.9, "plus")) == 0.0


def test_minus_branch_equal_arcs_degenerate():
    with pytest.raises(DegenerateBranch):
        SphericalIsogramSpec(0.9, 0.9, "minus")


def test_transmission_agrees_with_closure_oracle():
    # the oracle never sees the half-angle law: it solves the loop product
    # and the solved ratio tan(phi2/2)/tan(phi1/2) must equal the coefficient
    rng = np.random.default_rng(60)
    for _ in range(20):
        spec = random_isogram_spec(rng)
        c = transmission_coefficient(spec)
        phi1 = random_driving_angle(rng, margin=0.3)
        pose = solve_spherical_isogram(spec, G0, P0, phi1)
        problem = problem_from_spherical_vertices([v.v for v in pose.vertices])
        truth = np.array(problem.angles)
        seeded = LoopProblem(problem.arcs, 0, tuple(truth + np.array([0, 0.05, -0.05, 0.05])))
        sol = solve_loop(seeded)
        assert sol.converged
        phi2 = phi2_from_dihedral(spec.branch, sol.angles[1])
        ratio = np.tan(phi2 / 2) / np.tan(phi1 / 2)
        assert ratio == pytest.approx(c, abs=1e-9)


def test_coupled_angle_examples():
    assert coupled_angle(0.37, 0.0) == 0.0
    assert coupled_angle(0.5, np.pi / 2) == pytest.approx(0.9272952180016121, abs=1e-15)
    # the flip pose maps to the flip pose whenever the coefficient is nonzero
    assert coupled_angle(0.7, np.pi) == pytest.approx(np.pi)
    assert coupled_angle(-0.7, np.pi) == pytest.approx(np.pi)
    # degenerate ray: c = 0 sends the flip pose to 0 by continuity of t2 = c t1
    assert coupled_angle(0.0, np.pi) == 0.0
    assert coupled_angle(2.0, -0.4) == pytest.approx(2 * np.arctan(2 * np.tan(-0.2)))


def test_coupled_angle_range():
    rng = np.random.default_rng(61)
    for _ in range(200):
        phi2 = coupled_angle(rng.uniform(-5, 5), rng.uniform(-np.pi, np.pi))
        assert -np.pi < phi2 <= np.pi


# ---------------------------------------------------------------------------
# spherical pose solving
# ---------------------------------------------------------------------------


def test_solve_aligned_pose_collapses_to_base_circle():
    spec = SphericalIsogramSpec(np.pi / 3, np.pi / 4, "plus")
    pose = solve_spherical_isogram(spec, G0, P0, 0.0)
    for v in pose.vertices:
        assert lies_on(v, G0) < 1e-15


def test_solve_requires_point_on_circle():
    spec = SphericalIsogramSpec(np.pi / 3, np.pi / 4, "plus")
    with pytest.raises(ValueError):
        solve_spherical_isogram(spec, G0, SpherePoint.of(0, 0, 1), 0.3)


def test_solve_sides_and_closure():
    for branch, arm in (("plus", np.pi - np.pi / 4), ("minus", np.pi / 4)):
        spec = SphericalIsogramSpec(np.pi / 3, np.pi / 4, branch)
        assert abs(arm_joint_offset(spec)) == pytest.approx(arm)
        pose = solve_spherical_isogram(spec, G0, P0, 1.0)
        a, b, c, d = pose.vertices
        assert spherical_distance(a, b) == pytest.approx(spec.alpha, abs=1e-12)
        assert spherical_distance(c, d) == pytest.approx(spec.alpha, abs=1e-12)
        assert spherical_distance(b, c) == pytest.approx(arm, abs=1e-12)
        assert spherical_distance(d, a) == pytest.approx(arm, abs=1e-12)
        # side circles carry the vertices
        assert lies_on(a, pose.basis_circle) < 1e-12
        assert lies_on(c, pose.coupler_circle) < 1e-12
        assert lies_on(d, pose.coupler_circle) < 1e-12
        assert lies_on(d, pose.arm_a_circle) < 1e-12
        assert lies_on(c, pose.arm_b_circle) < 1e-12


def test_transmission_ratio_constant_along_branch():
    rng = np.random.default_rng(62)
    for _ in range(10):
        spec = random_isogram_spec(rng)
        c = transmission_coefficient(spec)
        for phi1 in np.linspace(-2.6, 2.6, 9):
            if abs(phi1) < 0.15:
                continue
            pose = solve_spherical_isogram(spec, G0, P0, phi1)
            ratio = np.tan(pose.phi2 / 2) / np.tan(phi1 / 2)
            assert ratio == pytest.approx(c, abs=1e-10)


def test_branches_meet_at_bifurcation():
    # both branches give the aligned pose at phi1 = 0
    for branch in ("plus", "minus"):
        spec = SphericalIsogramSpec(1.1, 0.6, branch)
        pose = solve_spherical_isogram(spec, G0, P0, 0.0)
        assert pose.phi2 == 0.0
        assert max(lies_on(v, G0) for v in pose.vertices) < 1e-15


def test_opposite_interior_angles_congruent():
    rng = np.random.default_rng(63)
    for _ in range(50):
        spec = random_isogram_spec(rng)
        pose = solve_spherical_isogram(spec, G0, P0, random_driving_angle(rng))
        ta, tb, tc, td = dihedral_angles(pose)
        assert abs(ta) == pytest.approx(abs(tc), abs=1e-9)
        assert abs(tb) == pytest.approx(abs(td), abs=1e-9)


# ---------------------------------------------------------------------------
# spherical symmetry center
# ---------------------------------------------------------------------------


def test_symmetry_swaps_opposite_vertices():
    rng = np.random.default_rng(64)
    for _ in range(50):
        spec = random_isogram_spec(rng)
        pose = solve_spherical_isogram(spec, G0, P0, random_driving_angle(rng))
        s_point, _ = isogram_symmetry_spherical(pose)
        half = halfturn_about(s_point)
        assert np.linalg.norm(rotate(half, pose.a).v - pose.c.v) < 1e-10
        assert np.linalg.norm(rotate(half, pose.b).v - pose.d.v) < 1e-10


def test_symmetry_center_is_common_diagonal_midpoint():
    # non-crossed sample pose: the tie-broken center is the common midpoint
    # of both diagonal arcs
    spec = SphericalIsogramSpec(np.pi / 3, np.pi / 4, "minus")
    pose = solve_spherical_isogram(spec, G0, P0, 1.0)
    s_point, _ = isogram_symmetry_spherical(pose)
    mid_ac = SpherePoint(pose.a.v + pose.c.v)
    mid_bd = SpherePoint(pose.b.v + pose.d.v)
    assert spherical_distance(s_point, mid_ac) < 1e-10
    assert spherical_distance(s_point, mid_bd) < 1e-10


def test_symmetry_center_on_diagonal_midpoint_diameter():
    # in general the axis pierces the sphere at the chord-midpoint
    # directions of both diagonals (midpoint or its antipode)
    rng = np.random.default_rng(69)
    for _ in range(25):
        spec = random_isogram_spec(rng)
        pose = solve_spherical_isogram(spec, G0, P0, random_driving_angle(rng))
        s_point, _ = isogram_symmetry_spherical(pose)
        for p, q in ((pose.a, pose.c), (pose.b, pose.d)):
            mid = SpherePoint(p.v + q.v)
            dist = spherical_distance(s_point, mid)
            assert min(dist, np.pi - dist) < 1e-9


def test_symmetry_center_does_not_relabel_other_errors():
    # only a degenerate diagonal circle means a collapsed pose
    with pytest.raises(AttributeError):
        isogram_symmetry_spherical(None)


def test_symmetry_mirror_exchanges_oriented_side_circles():
    # the polar circle of the center is the mirror of the cell: it
    # maps each side circle onto its opposite with matching orientation
    from bennett8.sphere import reflect_in_circle

    rng = np.random.default_rng(68)
    for _ in range(25):
        spec = random_isogram_spec(rng)
        pose = solve_spherical_isogram(spec, G0, P0, random_driving_angle(rng))
        _, s_circle = isogram_symmetry_spherical(pose)
        img_arm = reflect_in_circle(s_circle, pose.arm_a_circle)
        img_base = reflect_in_circle(s_circle, pose.basis_circle)
        assert np.linalg.norm(img_arm.n - pose.arm_b_circle.reversed().n) < 1e-10
        assert np.linalg.norm(img_base.n - pose.coupler_circle.reversed().n) < 1e-10


def test_symmetry_collapsed_pose_rejected():
    spec = SphericalIsogramSpec(np.pi / 3, np.pi / 4, "plus")
    pose = solve_spherical_isogram(spec, G0, P0, 0.0)
    with pytest.raises(CollapsedPose):
        isogram_symmetry_spherical(pose)


# ---------------------------------------------------------------------------
# dual-number transfer
# ---------------------------------------------------------------------------


def test_dual_coefficient_zero_offsets_reduce_to_spherical():
    c_real, c_dual = bennett_dual_coefficient(np.pi / 3, np.pi / 4, 0.0, 0.0, "plus")
    assert c_dual == 0.0
    assert c_real == pytest.approx(
        transmission_coefficient(SphericalIsogramSpec(np.pi / 3, np.pi / 4, "plus")), abs=1e-15
    )


def test_dual_coefficient_vanishes_exactly_on_proportion():
    rng = np.random.default_rng(65)
    for _ in range(200):
        alpha = rng.uniform(0.2, np.pi - 0.2)
        beta = rng.uniform(0.2, np.pi - 0.2)
        k = rng.uniform(0.1, 3.0)
        _, c_dual = bennett_dual_coefficient(
            alpha, beta, k * np.sin(alpha), k * np.sin(beta), "plus"
        )
        assert abs(c_dual) < 1e-12


def test_dual_coefficient_minus_branch_needs_opposite_offset_sign():
    alpha, beta, k = 1.2, 0.7, 1.5
    _, dual_flipped = bennett_dual_coefficient(alpha, beta, k * np.sin(alpha), -k * np.sin(beta), "minus")
    _, dual_plain = bennett_dual_coefficient(alpha, beta, k * np.sin(alpha), k * np.sin(beta), "minus")
    assert abs(dual_flipped) < 1e-12
    assert abs(dual_plain) > 1e-3


def test_dual_coefficient_linear_sensitivity():
    # perturbing the offset off the proportion grows the dual part linearly
    rng = np.random.default_rng(66)
    for _ in range(20):
        alpha = rng.uniform(0.3, np.pi - 0.3)
        beta = rng.uniform(0.3, np.pi - 0.3)
        k = rng.uniform(0.3, 2.0)
        a = k * np.sin(alpha)
        b = k * np.sin(beta)
        delta = 1e-3
        _, d1 = bennett_dual_coefficient(alpha, beta, a, b + delta, "plus")
        _, d2 = bennett_dual_coefficient(alpha, beta, a, b + delta / 2, "plus")
        assert d1 / d2 == pytest.approx(2.0, abs=1e-3)


# ---------------------------------------------------------------------------
# Bennett cells
# ---------------------------------------------------------------------------


def test_bennett_spec_validates_proportion():
    BennettIsogramSpec(np.pi / 2, np.pi / 6, 2.0, 1.0)  # 2 sin(pi/6) = 1 sin(pi/2)
    with pytest.raises(ValueError):
        BennettIsogramSpec(np.pi / 2, np.pi / 6, 2.0, 1.01)


def test_bennett_solve_forced_proportion_closes():
    spec = BennettIsogramSpec(np.pi / 2, np.pi / 6, 2.0, 1.0)
    pose = solve_bennett_isogram(spec, Z_AXIS, np.zeros(3), 1.2)
    from bennett8.screws import dual_angle

    ang, off = dual_angle(pose.hinge_c, pose.hinge_d)
    assert ang == pytest.approx(spec.alpha_twist, abs=1e-9)
    assert off == pytest.approx(spec.a_len, abs=1e-9)
    # sides meet their hinges orthogonally at the vertices
    for side, hinge, vert in (
        (pose.base_line, pose.hinge_a, pose.vertex_a),
        (pose.arm_b_line, pose.hinge_b, pose.vertex_b),
        (pose.coupler_line, pose.hinge_c, pose.vertex_c),
        (pose.arm_a_line, pose.hinge_d, pose.vertex_d),
    ):
        assert abs(np.dot(side.d, hinge.d)) < 1e-9
        off_v = vert - side.foot()
        assert np.linalg.norm(off_v - np.dot(off_v, side.d) * side.d) < 1e-9


@pytest.mark.parametrize("scale", [1e6, 1e8, 1e10])
def test_bennett_large_lengths_raise_only_typed_errors(scale):
    # the demo cell (specs/bennett_isogram_demo.json) with its side lengths
    # scaled: each pose closes or raises ClosureFailure, never a ValueError
    # from the Study check of a displacement
    spec = BennettIsogramSpec(np.pi / 2, np.pi / 6, 2.0 * scale, 1.0 * scale)
    for phi in (0.0, 0.5, 2.0, -2.5):
        try:
            solve_bennett_isogram(spec, Z_AXIS, np.zeros(3), phi)
        except ClosureFailure:
            pass


def test_bennett_solve_aligned_pose_collinear():
    spec = BennettIsogramSpec(np.pi / 2, np.pi / 6, 2.0, 1.0)
    pose = solve_bennett_isogram(spec, Z_AXIS, np.zeros(3), 0.0)
    for side in pose.side_lines:
        assert unoriented_line_distance(side, Z_AXIS) < 1e-12
    # vertices sit on the base line
    for v in pose.vertices:
        assert np.linalg.norm(v[:2]) < 1e-12


def test_bennett_symmetry_axis_swaps_hinges():
    rng = np.random.default_rng(67)
    for _ in range(25):
        alpha = rng.uniform(0.4, 2.4)
        beta = rng.uniform(0.4, 2.4)
        k = rng.uniform(0.4, 2.0)
        spec = BennettIsogramSpec(alpha, beta, k * np.sin(alpha), k * np.sin(beta))
        pose = solve_bennett_isogram(spec, Z_AXIS, np.zeros(3), random_driving_angle(rng))
        axis = bennett_symmetry_axis(pose)
        refl = line_reflection(axis)
        assert unoriented_line_distance(apply_disp(refl, pose.hinge_a), pose.hinge_c) < 1e-9
        assert unoriented_line_distance(apply_disp(refl, pose.hinge_b), pose.hinge_d) < 1e-9
        # reflecting the whole pose reproduces its hinge set (involution)
        imgs = [apply_disp(refl, hg) for hg in pose.hinges]
        back = [apply_disp(refl, im) for im in imgs]
        for hg, bk in zip(pose.hinges, back):
            assert unoriented_line_distance(hg, bk) < 1e-9


def test_bennett_symmetry_axis_zero_offset_passes_through_center():
    # zero offsets make the cell the spherical image itself; the axis runs
    # through the concurrency point of the hinges (the origin here)
    spec = BennettIsogramSpec(1.1, 0.6, 0.0, 0.0)
    pose = solve_bennett_isogram(spec, Z_AXIS, np.zeros(3), 0.9)
    axis = bennett_symmetry_axis(pose)
    assert np.linalg.norm(axis.foot()) < 1e-10


def test_bennett_symmetry_axis_collapsed_rejected():
    spec = BennettIsogramSpec(np.pi / 2, np.pi / 6, 2.0, 1.0)
    pose = solve_bennett_isogram(spec, Z_AXIS, np.zeros(3), 0.0)
    with pytest.raises(CollapsedPose):
        bennett_symmetry_axis(pose)
