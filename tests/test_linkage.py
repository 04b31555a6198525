"""8-bar assembly, validation, symmetry reports, mobility, sweeps."""
import os
from dataclasses import replace

import numpy as np
import pytest

from bennett8.errors import ClosureFailure, CollapsedPose, InvalidSpec
from bennett8.isogram import SphericalIsogramSpec, coupled_angle, transmission_coefficient
from bennett8.linkage import (
    CELLS,
    FAMILIES_SPATIAL,
    FAMILIES_SPHERICAL,
    JOINT_KEYS,
    EightBarSpec,
    SpatialEightBarPose,
    SpatialEightBarSpec,
    SweepSample,
    assemble_spatial,
    assemble_spherical,
    derive_spec,
    derive_third_isogram,
    halfturn_products_report,
    mobility_check,
    phi_grid,
    sweep,
    symmetry_report_spatial,
    validate_spec,
    _cell_design_residual,
    _PLACEMENT,
    _dual_halfturn,
    _mobility_jacobian,
    _spatial_cell_residual,
)
from bennett8.oracle import (
    jacobian_nullity,
    matrix_nullity,
    problem_from_spatial_joints,
    problem_from_spherical_vertices,
    solve_loop,
)
from bennett8.scene import load_spec
from bennett8.screws import apply as apply_displacement
from bennett8.screws import compose as compose_displacements
from bennett8.screws import OrientedLine, common_perpendicular, dual_angle, line_reflection
from bennett8.sphere import OrientedGreatCircle, reflect_in_circle
from bennett8.sphere import apply as rotate
from bennett8.sphere import arc_point, halfturn_about, lies_on, spherical_distance
from bennett8.sphere import compose as compose_rotations
from conftest import (
    random_eightbar_spec,
    random_line,
    random_point,
    random_spatial_spec,
)

SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "specs")

SAMPLE = EightBarSpec(
    u1=0.25,
    u2=0.25 + np.pi / 3,
    u3=0.25 + np.pi / 3 + np.pi / 4,
    beta1=np.pi / 4,
    beta2=np.pi / 5,
    branch1="plus",
    branch2="minus",
)
SAMPLE_SPATIAL = SpatialEightBarSpec(
    u1=SAMPLE.u1,
    u2=SAMPLE.u2,
    u3=SAMPLE.u3,
    beta1=SAMPLE.beta1,
    beta2=SAMPLE.beta2,
    branch1=SAMPLE.branch1,
    branch2=SAMPLE.branch2,
    a1=0.8,
    a2=0.6,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_derives_compatible_third_isogram():
    v = validate_spec(SAMPLE)
    c3 = transmission_coefficient(
        SphericalIsogramSpec(v.alphas[2], v.betas[2], v.branches[2])
    )
    assert c3 == pytest.approx(v.c32 * v.c21, abs=1e-12)


def test_validate_accepts_consistent_supplied_beta3():
    v = validate_spec(SAMPLE)
    explicit = EightBarSpec(
        u1=SAMPLE.u1,
        u2=SAMPLE.u2,
        u3=SAMPLE.u3,
        beta1=SAMPLE.beta1,
        beta2=SAMPLE.beta2,
        branch1=SAMPLE.branch1,
        branch2=SAMPLE.branch2,
        beta3=v.betas[2],
        branch3=v.branches[2],
    )
    v2 = validate_spec(explicit)
    assert v2.betas == v.betas and v2.branches == v.branches


def test_validate_rejects_incompatible_beta3():
    with pytest.raises(InvalidSpec, match="isogram 3"):
        validate_spec(
            EightBarSpec(
                u1=SAMPLE.u1,
                u2=SAMPLE.u2,
                u3=SAMPLE.u3,
                beta1=SAMPLE.beta1,
                beta2=SAMPLE.beta2,
                branch1=SAMPLE.branch1,
                branch2=SAMPLE.branch2,
                beta3=np.pi / 6,
            )
        )


def test_validate_rejects_bad_ranges():
    with pytest.raises(InvalidSpec, match="u1 < u2 < u3"):
        validate_spec(EightBarSpec(0.5, 0.2, 1.0, 1.0, 1.0, "plus", "plus"))
    with pytest.raises(InvalidSpec, match="below pi"):
        validate_spec(EightBarSpec(0.0, 1.8, 3.4, 1.0, 1.0, "plus", "plus"))
    with pytest.raises(InvalidSpec, match="beta1"):
        validate_spec(EightBarSpec(0.0, 1.0, 2.0, 3.5, 1.0, "plus", "plus"))


def test_validate_spatial_offsets_and_rejection():
    v = validate_spec(SAMPLE_SPATIAL)
    k1 = SAMPLE_SPATIAL.a1 / np.sin(v.angular.alphas[0])
    assert v.b[0] == pytest.approx(k1 * np.sin(v.angular.betas[0]))  # plus branch
    assert v.b[1] == pytest.approx(
        -SAMPLE_SPATIAL.a2 / np.sin(v.angular.alphas[1]) * np.sin(v.angular.betas[1])
    )  # minus branch flips the offset sign
    bad = SpatialEightBarSpec(
        u1=SAMPLE.u1,
        u2=SAMPLE.u2,
        u3=SAMPLE.u3,
        beta1=SAMPLE.beta1,
        beta2=SAMPLE.beta2,
        branch1=SAMPLE.branch1,
        branch2=SAMPLE.branch2,
        a1=0.8,
        a2=0.6,
        b1=v.b[0] * 1.01,
    )
    with pytest.raises(InvalidSpec, match="isogram 1"):
        validate_spec(bad)


def test_derive_spec_round_trips():
    completed = derive_spec(SAMPLE)
    assert completed.beta3 is not None and completed.branch3 is not None
    validate_spec(completed)
    spatial = derive_spec(SAMPLE_SPATIAL)
    assert None not in (spatial.b1, spatial.b2, spatial.b3)
    validate_spec(spatial)


def test_derive_third_isogram_always_solvable():
    rng = np.random.default_rng(70)
    for _ in range(100):
        alpha3 = rng.uniform(0.2, np.pi - 0.2)
        target = rng.uniform(-5, 5)
        cands = derive_third_isogram(alpha3, target)
        assert cands
        beta3, branch = cands[0]
        got = transmission_coefficient(SphericalIsogramSpec(alpha3, beta3, branch))
        assert got == pytest.approx(target, abs=1e-9)


# ---------------------------------------------------------------------------
# spherical assembly
# ---------------------------------------------------------------------------


def test_spherical_assembly_closure_and_incidence():
    pose = assemble_spherical(SAMPLE, 0.8)
    assert pose.closure_residual < 1e-12
    worst = 0.0
    for key, joint in pose.joints.items():
        on_g, on_h = lies_on(joint, pose.g[int(key[1])]), lies_on(joint, pose.h[int(key[2])])
        assert on_g < 1e-12 and on_h < 1e-12
        worst = max(worst, on_g, on_h)
    # the dual hinge-bar incidence without moments is the joint-on-circle one
    assert abs(pose.incidence_residual - worst) <= 1e-15


def test_spherical_assembly_cell_structure():
    # each bar carries exactly three joints; the six cells close with equal
    # opposite sides
    pose = assemble_spherical(SAMPLE, 0.8)
    for name in ("g0", "g1", "g2", "g3", "h0", "h1", "h2", "h3"):
        count = sum(
            1
            for key in pose.joints
            if (name[0] == "g" and key[1] == name[1]) or (name[0] == "h" and key[2] == name[1])
        )
        assert count == 3
    for (quad, _sides) in CELLS:
        a, b, c, d = (pose.joints[k] for k in quad)
        assert spherical_distance(a, b) == pytest.approx(spherical_distance(c, d), abs=1e-12)
        assert spherical_distance(b, c) == pytest.approx(spherical_distance(d, a), abs=1e-12)


def test_halfturn_products_report_all_small():
    pose = assemble_spherical(SAMPLE, 0.8)
    rep = halfturn_products_report(pose)
    worst = max(rep.values())
    assert worst < 1e-12, max(rep, key=rep.get)


def test_report_over_random_specs():
    rng = np.random.default_rng(71)
    for _ in range(5):
        spec = random_eightbar_spec(rng)
        for phi in (-1.2, 0.6, 2.2):
            pose = assemble_spherical(spec, phi)
            rep = halfturn_products_report(pose)
            assert max(rep.values()) < 1e-9, max(rep, key=rep.get)


def test_aligned_pose_spherical():
    for phi in (0.0, np.pi):
        pose = assemble_spherical(SAMPLE, phi)
        assert pose.aligned
        assert pose.centers is None
        for joint in pose.joints.values():
            assert abs(joint.v[2]) < 1e-12  # on the base plane exactly
        for circ in (*pose.g, *pose.h):
            assert abs(abs(circ.n[2]) - 1.0) < 1e-12  # same carrier as g0
        with pytest.raises(CollapsedPose):
            halfturn_products_report(pose)


def test_aligned_joint_positions_follow_rigid_offsets():
    # collapse positions keep the rigid on-bar arcs: check one joint whose
    # offset is analytic: R31 sits at the plus-branch supplement
    v = validate_spec(SAMPLE)
    pose = assemble_spherical(v, 0.0)
    expect = arc_point(pose.h[1], pose.joints["R01"], np.pi - v.betas[0])
    assert spherical_distance(pose.joints["R31"], expect) < 1e-9


# ---------------------------------------------------------------------------
# spatial assembly
# ---------------------------------------------------------------------------


def test_spatial_assembly_closure_and_cells():
    pose = assemble_spatial(SAMPLE_SPATIAL, 0.8)
    assert pose.closure_residual < 1e-12
    assert max(pose.cell_residuals) < 1e-12


def test_symmetry_report_spatial_all_small():
    pose = assemble_spatial(SAMPLE_SPATIAL, 0.8)
    rep = symmetry_report_spatial(pose)
    assert max(rep.values()) < 1e-12, max(rep, key=rep.get)


def test_spatial_report_over_random_specs():
    rng = np.random.default_rng(72)
    for _ in range(3):
        spec = random_spatial_spec(rng)
        for phi in (-1.1, 0.7):
            pose = assemble_spatial(spec, phi)
            rep = symmetry_report_spatial(pose)
            assert max(rep.values()) < 1e-9, max(rep, key=rep.get)


def test_aligned_pose_spatial():
    for phi in (0.0, np.pi):
        pose = assemble_spatial(SAMPLE_SPATIAL, phi)
        assert pose.aligned
        for vtx in pose.vertices.values():
            assert np.linalg.norm(vtx[:2]) < 1e-12
        for line in (*pose.g, *pose.h):
            assert abs(abs(line.d[2]) - 1.0) < 1e-12
            assert np.linalg.norm(line.m) < 1e-12
        with pytest.raises(CollapsedPose):
            symmetry_report_spatial(pose)


# ---------------------------------------------------------------------------
# through the aligned poses
# ---------------------------------------------------------------------------

# 0, +-pi, and 1e-12..1e-2 on either side of each
BAND = [0.0, np.pi, -np.pi] + [
    c + side * 10.0**-k for c in (0.0, np.pi, -np.pi) for side in (1, -1) for k in range(2, 13)
]


def _on_bar_invariants(pose) -> np.ndarray:
    """Design constants of a pose: for each pair of joints on one bar, their
    arc (spherical), or the distance of their vertices and the cosine of
    their hinges (spatial)."""
    out = []
    for bar in range(8):
        on_bar = [k for k in JOINT_KEYS if k[1 + bar // 4] == str(bar % 4)]
        for a, b in ((0, 1), (1, 2), (0, 2)):
            ka, kb = on_bar[a], on_bar[b]
            if isinstance(pose, SpatialEightBarPose):
                ia, ib = f"I{ka[1:]}", f"I{kb[1:]}"
                out.append(np.linalg.norm(pose.vertices[ia] - pose.vertices[ib]))
                out.append(np.dot(pose.hinges[ia].d, pose.hinges[ib].d))
            else:
                out.append(spherical_distance(pose.joints[ka], pose.joints[kb]))
    return np.array(out)


@pytest.fixture(scope="module", params=["spherical", "spatial"])
def band_poses(request):
    """(pose at phi1 = 1, poses at BAND) for the demo and three random designs."""
    rng = np.random.default_rng(74)
    spatial = request.param == "spatial"
    draw = random_spatial_spec if spatial else random_eightbar_spec
    assemble = assemble_spatial if spatial else assemble_spherical
    specs = [load_spec(os.path.join(SPECS, f"{request.param}8_demo.json"))]
    specs += [draw(rng) for _ in range(3)]
    out = []
    for spec in specs:
        v = validate_spec(spec)
        out.append((assemble(v, 1.0), [assemble(v, phi) for phi in BAND]))
    return out


def test_band_poses_close(band_poses):
    for _, poses in band_poses:
        worst = max(p.closure_residual for p in poses)
        assert worst <= 1e-11
        for pose in poses:
            if not isinstance(pose, SpatialEightBarPose):
                continue
            # the vertex is where hinge I_ij meets bar g_i
            for key, vtx in pose.vertices.items():
                cp = common_perpendicular(pose.g[int(key[1])], pose.hinges[key])
                assert np.max(np.abs(vtx - (cp.foot1 + cp.foot2) / 2)) <= 1e-13, (key, pose.phi[0])


def test_band_keeps_the_on_bar_invariants(band_poses):
    for reference, poses in band_poses:
        expect = _on_bar_invariants(reference)
        for pose in poses:
            assert np.max(np.abs(_on_bar_invariants(pose) - expect)) <= 1e-11, pose.phi[0]


def test_badly_conditioned_spatial_design_closes():
    # c31 = c21 * c32 is about -1.2e-4 here, so the third arm barely moves
    spec = SpatialEightBarSpec(
        u1=0.09286968585654343,
        u2=0.6535618997524559,
        u3=1.6055389580102268,
        beta1=2.142260154883384,
        beta2=0.9517180089514943,
        branch1="plus",
        branch2="plus",
        a1=0.49704011753357435,
        a2=1.4086210991519086,
    )
    v = validate_spec(spec)
    assert abs(v.angular.c31) < 2e-4
    for phi in (-3.1, -2.0, -1.0, -0.15, 0.15, 1.0, 2.0, 3.1, 0.0, np.pi):
        assert assemble_spatial(v, phi).closure_residual < 1e-10


def test_spatial_spherical_image():
    # the directions of bars and hinges are the spherical pose of the
    # angular design: the placement is the same table of half-turns
    rng = np.random.default_rng(31)
    specs = [SAMPLE_SPATIAL, load_spec(os.path.join(SPECS, "spatial8_demo.json"))]
    specs += [random_spatial_spec(rng) for _ in range(3)]
    for spec in specs:
        v = validate_spec(spec)
        for phi in (1.1, *BAND):
            pose = assemble_spatial(v, phi)
            spherical = assemble_spherical(v.angular, phi)
            for i in range(4):
                assert np.linalg.norm(pose.g[i].d - spherical.g[i].n) < 1e-12
                assert np.linalg.norm(pose.h[i].d - spherical.h[i].n) < 1e-12
            for key, joint in spherical.joints.items():
                assert np.linalg.norm(pose.hinges[f"I{key[1:]}"].d - joint.v) < 1e-12, (key, phi)


def _moved(x: np.ndarray, motion: str, eps: float = 1e-6) -> np.ndarray:
    """The dual vector x rotated by eps about the x axis, or translated by eps
    along z."""
    if motion == "translate":
        return np.r_[x[:3], x[3:] + np.cross([0.0, 0.0, eps], x[:3])]
    c, s = np.cos(eps), np.sin(eps)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return np.r_[rot @ x[:3], rot @ x[3:]]


@pytest.mark.parametrize("phi", [0.8, -2.2])
@pytest.mark.parametrize("joint", ["R13", "R32", "R30", "R20"])
@pytest.mark.parametrize(
    "kind, motion",
    [("spherical", "rotate"), ("spatial", "rotate"), ("spatial", "translate")],
)
def test_misplaced_joint_fails_closure(monkeypatch, kind, motion, joint, phi):
    # move the joint by 1e-6 where the placement table places it: the
    # pose must fail closure
    target = next(i for i, (key, _, _) in enumerate(_PLACEMENT) if key == joint)
    calls = []

    def misplaced(s, x):
        calls.append(None)
        image = _dual_halfturn(s, x)
        return _moved(image, motion) if len(calls) - 1 == target else image

    monkeypatch.setattr("bennett8.linkage._dual_halfturn", misplaced)
    assemble = assemble_spatial if kind == "spatial" else assemble_spherical
    with pytest.raises(ClosureFailure):
        assemble(load_spec(os.path.join(SPECS, f"{kind}8_demo.json")), phi)


# g0 is the z axis, so a translation along z does not move it
_BAR_MOVES = [
    (kind, motion, bar)
    for kind, motion in (("spherical", "rotate"), ("spatial", "rotate"), ("spatial", "translate"))
    for bar in ("g0", "g1", "g2", "g3", "h0", "h1", "h2", "h3")
    if (motion, bar) != ("translate", "g0")
]


@pytest.mark.parametrize("kind, motion, bar", _BAR_MOVES)
def test_moved_bar_fails_the_rotations_about_n(kind, motion, bar):
    # the rotations about N (helices about n in space) carry g0 onto g_i and
    # h_i onto h0: a bar moved by 1e-6 must fail the family that checks them
    spatial = kind == "spatial"
    v = validate_spec(load_spec(os.path.join(SPECS, f"{kind}8_demo.json")))
    for phi in (0.8, -2.2):
        pose = (assemble_spatial if spatial else assemble_spherical)(v, phi)
        bars = list(pose.g if bar[0] == "g" else pose.h)
        i = int(bar[1])
        if spatial:
            moved = _moved(np.r_[bars[i].d, bars[i].m], motion)
            bars[i] = OrientedLine(moved[:3], moved[3:])
            report, family = symmetry_report_spatial, FAMILIES_SPATIAL["helical"]
        else:
            bars[i] = OrientedGreatCircle(_moved(np.r_[bars[i].n, np.zeros(3)], motion)[:3])
            report, family = halfturn_products_report, FAMILIES_SPHERICAL["mapping"]
        rep = report(replace(pose, **{bar[0]: tuple(bars)}))
        assert max(rep[k] for k in family) >= 1e-7, phi


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_large_lengths_raise_only_typed_errors(scale):
    # whether these poses close depends on the length unit (an absolute
    # tolerance), but a failure must be a ClosureFailure, never a ValueError
    spec = load_spec(os.path.join(SPECS, "spatial8_demo.json"))
    v = validate_spec(replace(spec, a1=scale * spec.a1, a2=scale * spec.a2))
    for phi in np.linspace(-3, 3, 13):
        try:
            assemble_spatial(v, phi)
        except ClosureFailure:
            pass


@pytest.mark.parametrize("moments", [True, False], ids=["lines", "moment-free"])
def test_dual_halfturn_is_the_line_reflection(moments):
    # 2<s, x> s - x over the dual numbers: the line reflection in s, and the
    # spherical half-turn where the moments vanish or are left out (3-vectors),
    # which is minus the reflection in the polar circle of s. Two of them are
    # the product of the quaternions, the reference for the rotations about N
    rng = np.random.default_rng(37)
    for _ in range(50):
        if moments:
            a, b, x = random_line(rng), random_line(rng), random_line(rng)
            want = apply_displacement(line_reflection(a), x)
            twice = apply_displacement(compose_displacements(line_reflection(b), line_reflection(a)), x)
            want, twice = np.r_[want.d, want.m], np.r_[twice.d, twice.m]
            a, b, x = (np.r_[line.d, line.m] for line in (a, b, x))
        else:
            a, b, x = random_point(rng), random_point(rng), random_point(rng)
            want = rotate(halfturn_about(a), x).v
            twice = rotate(compose_rotations(halfturn_about(b), halfturn_about(a)), x).v
            mirror = reflect_in_circle(OrientedGreatCircle(a.v), x).v
            assert np.max(np.abs(_dual_halfturn(a.v, x.v) + mirror)) <= 1e-14
            a, b, x = a.v, b.v, x.v
            zero = np.zeros(3)
            padded = _dual_halfturn(np.r_[a, zero], np.r_[x, zero])
            assert np.max(np.abs(padded - np.r_[want, zero])) <= 1e-14
        assert np.max(np.abs(_dual_halfturn(a, x) - want)) <= 1e-14
        assert np.max(np.abs(_dual_halfturn(-a, x) - want)) <= 1e-14
        assert np.max(np.abs(_dual_halfturn(b, _dual_halfturn(a, x)) - twice)) <= 1e-13


# ---------------------------------------------------------------------------
# the Bennett cells against their design
# ---------------------------------------------------------------------------


def _design_residual(v, pose) -> float:
    """The design terms of all six cells, from the pose's hinge lines."""
    worst = 0.0
    for index, (quad, _sides) in enumerate(CELLS):
        hinges = [pose.hinges[f"I{k[1:]}"] for k in quad]
        sides = [dual_angle(hinges[k], hinges[(k + 1) % 4]) for k in range(4)]
        worst = max(worst, _cell_design_residual(v, index, sides))
    return worst


def test_cells_match_their_design_through_the_band():
    rng = np.random.default_rng(5)
    specs = [load_spec(os.path.join(SPECS, "spatial8_demo.json"))]
    specs += [random_spatial_spec(rng) for _ in range(12)]
    for spec in specs:
        v = validate_spec(spec)
        for phi in BAND:
            assert _design_residual(v, assemble_spatial(v, phi)) <= 1e-12, (spec, phi)


@pytest.mark.parametrize("field", ["beta1", "a1", "beta2"])
def test_cells_fail_against_a_changed_design(field):
    spec = load_spec(os.path.join(SPECS, "spatial8_demo.json"))
    pose = assemble_spatial(spec, 0.8)
    changed = validate_spec(replace(spec, **{field: getattr(spec, field) * (1 + 1e-6)}))
    worst = max(
        _spatial_cell_residual(changed, index, pose.hinges)
        for index in range(len(CELLS))
    )
    assert worst >= 1e-7


def test_cell_design_check_ignores_length_unit():
    spec = load_spec(os.path.join(SPECS, "spatial8_demo.json"))

    def residuals(scale):
        scaled = replace(spec, a1=scale * spec.a1, a2=scale * spec.a2)
        v = validate_spec(scaled)
        changed = validate_spec(replace(scaled, a1=scaled.a1 * (1 + 1e-6)))
        poses = [assemble_spatial(v, phi) for phi in (-2.2, 0.0, 0.8)]
        return np.array([_design_residual(w, p) for w in (v, changed) for p in poses])

    for scale in (1e-3, 1e3):
        assert np.max(np.abs(residuals(scale) - residuals(1.0))) < 1e-13


# ---------------------------------------------------------------------------
# mobility
# ---------------------------------------------------------------------------


def test_mobility_nullity_one():
    samples = mobility_check(sweep(SAMPLE, [0.4, -0.9, 1.7]))
    assert all(m.status == "ok" and m.nullity == 1 for m in samples)
    samples = mobility_check(sweep(SAMPLE_SPATIAL, [0.4, -0.9]))
    assert all(m.status == "ok" and m.nullity == 1 for m in samples)


def test_mobility_at_the_aligned_poses():
    # the aligned poses are assembled like any other, so their nullity is
    # measured: 3 on the sphere, where the motion branches cross, and 1 in
    # space, where the collapsed pose stays first-order regular
    rng = np.random.default_rng(74)
    for kind, draw, nullity in (
        ("spherical", random_eightbar_spec, 3),
        ("spatial", random_spatial_spec, 1),
    ):
        specs = [load_spec(os.path.join(SPECS, f"{kind}8_demo.json"))]
        specs += [draw(rng) for _ in range(3)]
        for spec in specs:
            samples = mobility_check(sweep(spec, [0.0, np.pi]))
            assert [(m.status, m.nullity) for m in samples] == [("ok", nullity)] * 2


def test_mobility_reports_unassembled_samples():
    failed = SweepSample(0.5, None, None, "ClosureFailure: synthetic")
    (sample,) = mobility_check([failed])
    assert (sample.phi1, sample.status, sample.nullity) == (0.5, "assembly-failed", None)


# the regular poses of acceptance criterion 6
CRITERION_6_ANGLES = [a for a in np.linspace(-2.4, 2.4, 12) if abs(a) > 0.2][:10]


@pytest.fixture(
    scope="module", params=["spherical-demo", "spatial-demo", "spherical-random", "spatial-random"]
)
def jacobian_poses(request):
    """Poses at the criterion-6 angles of a demo spec or of three random
    specs of one kind."""
    kind = request.param
    if kind.endswith("demo"):
        specs = [load_spec(os.path.join(SPECS, f"{kind[:-5]}8_demo.json"))]
    else:
        rng = np.random.default_rng(74)
        draw = random_eightbar_spec if kind == "spherical-random" else random_spatial_spec
        specs = [draw(rng) for _ in range(3)]
    assemble = assemble_spatial if kind.startswith("spatial") else assemble_spherical
    return [assemble(spec, phi) for spec in specs for phi in CRITERION_6_ANGLES]


def _face_problem(pose, quad):
    if isinstance(pose, SpatialEightBarPose):
        hinges = [f"I{k[1:]}" for k in quad]
        return problem_from_spatial_joints(
            [pose.hinges[k].d for k in hinges], [pose.vertices[k] for k in hinges]
        )
    return problem_from_spherical_vertices([pose.joints[k].v for k in quad])


def test_mobility_jacobian_faces_match_oracle(jacobian_poses):
    # each face block, on its own four joints, is the four-bar's closure
    # Jacobian: nullity 1, as the oracle's finite differences find
    for pose in jacobian_poses:
        jac = _mobility_jacobian(pose)
        rows = jac.shape[0] // len(CELLS)
        for face, (quad, _sides) in enumerate(CELLS):
            block = jac[rows * face : rows * (face + 1), [JOINT_KEYS.index(k) for k in quad]]
            problem = _face_problem(pose, quad)
            assert matrix_nullity(block) == jacobian_nullity(problem, solve_loop(problem)) == 1


def test_mobility_jacobian_spectrum_gap(jacobian_poses):
    # one zero singular value, well separated from the other eleven
    for pose in jacobian_poses:
        sv = np.linalg.svd(_mobility_jacobian(pose), compute_uv=False)
        assert sv.size == len(JOINT_KEYS)
        assert sv[11] / sv[0] < 1e-10
        assert sv[10] / sv[0] > 1e-4


def test_mobility_jacobian_spectrum_ignores_length_unit():
    def ratios(scale):
        spec = replace(SAMPLE_SPATIAL, a1=scale * SAMPLE_SPATIAL.a1, a2=scale * SAMPLE_SPATIAL.a2)
        sv = np.linalg.svd(_mobility_jacobian(assemble_spatial(spec, 0.9)), compute_uv=False)
        return sv[:11] / sv[0]

    for scale in (1e-3, 1e3):
        assert np.allclose(ratios(scale), ratios(1.0), rtol=1e-9, atol=0)


def test_mobility_jacobian_needs_the_loop_signs(jacobian_poses):
    # without the crossing signs the joint screws are independent: the
    # nullity 1 comes from the sign convention, not from the screws alone
    for pose in jacobian_poses:
        assert matrix_nullity(np.abs(_mobility_jacobian(pose))) == 0


def test_incompatible_third_cell_cannot_close():
    # forcing c31 != c32*c21: the third cell's coupler misses the required
    # length for every pose, so the compound cannot assemble
    v = validate_spec(SAMPLE)
    beta3_bad = v.betas[2] + 0.1
    from bennett8.sphere import OrientedGreatCircle, SpherePoint, apply, rotation_about
    from bennett8.isogram import arm_joint_offset

    g0 = OrientedGreatCircle(np.array([0.0, 0, 1]))
    a = SpherePoint.of(np.cos(v.u[0]), np.sin(v.u[0]), 0)
    b = SpherePoint.of(np.cos(v.u[2]), np.sin(v.u[2]), 0)
    phi1 = 0.8
    phi3 = coupled_angle(v.c31, phi1)  # transmission forced by cells 1 and 2
    arm_a = apply(rotation_about(a, phi1), g0)
    arm_b = apply(rotation_about(b, phi3), g0)
    off = arm_joint_offset(SphericalIsogramSpec(v.alphas[2], beta3_bad, v.branches[2]))
    d = arc_point(arm_a, a, off)
    c = arc_point(arm_b, b, off)
    assert abs(spherical_distance(c, d) - v.alphas[2]) > 1e-3


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_phi_grid_endpoints_and_fallback():
    grid = phi_grid(-1.0, 1.0, 2)
    assert grid == [-1.0, 1.0]
    # tan-uniform inside a regular range
    grid = phi_grid(0.0, 2.0, 3)
    assert grid[1] == pytest.approx(2 * np.arctan((np.tan(0.0) + np.tan(1.0)) / 2))
    # ranges touching pi fall back to uniform angles
    grid = phi_grid(2.8, 3.5, 3)
    assert grid == pytest.approx([2.8, 3.15, 3.5])
    # explicit override
    grid = phi_grid(0.0, 2.0, 3, uniform_angle=True)
    assert grid == pytest.approx([0.0, 1.0, 2.0])


def test_sweep_regular_through_flip_pose():
    samples = sweep(SAMPLE, phi_grid(np.pi - 0.3, np.pi + 0.3, 7))
    for s in samples:
        assert s.error is None
        assert s.families["closure"] < 1e-8
        if not s.pose.aligned:
            assert max(s.families.values()) < 1e-8


def test_sweep_endpoints_only():
    samples = sweep(SAMPLE, phi_grid(-1.0, 1.0, 2))
    assert [s.phi1 for s in samples] == [-1.0, 1.0]


def test_sweep_spatial():
    samples = sweep(SAMPLE_SPATIAL, phi_grid(-1.0, 1.0, 5))
    for s in samples:
        assert s.error is None
        worst = max(v for v in s.families.values())
        assert worst < 1e-8


@pytest.mark.parametrize(
    "demo, pose_level, table",
    [
        ("spherical8_demo.json", {"closure", "incidence"}, FAMILIES_SPHERICAL),
        ("spatial8_demo.json", {"closure"}, FAMILIES_SPATIAL),
    ],
)
def test_family_table_covers_every_invariant_once(demo, pose_level, table):
    spec = load_spec(os.path.join(SPECS, demo))
    (sample,) = sweep(spec, [0.8])
    pose = sample.pose
    if isinstance(pose, SpatialEightBarPose):
        report = symmetry_report_spatial(pose)
    else:
        report = halfturn_products_report(pose)
    keys = [k for family in table.values() for k in family]
    assert all(table.values())
    assert len(keys) == len(set(keys))
    assert set(keys) == set(report) | pose_level
    assert list(sample.families) == list(table)


def test_assembly_angles_agree_with_oracle_closure():
    # 50 random (spec, phi1) pairs: the assembled pose's cell-1 loop solved
    # by the closure oracle from perturbed seeds lands back on the assembly's
    # joint angles within 1e-8
    from bennett8.oracle import LoopProblem, problem_from_spherical_vertices, solve_loop

    rng = np.random.default_rng(73)
    for _ in range(50):
        spec = random_eightbar_spec(rng)
        phi1 = rng.uniform(0.15, 2.4) * (1 if rng.uniform() < 0.5 else -1)
        pose = assemble_spherical(spec, phi1)
        cell_vertices = [pose.joints[k].v for k in CELLS[0][0]]
        problem = problem_from_spherical_vertices(cell_vertices)
        truth = np.array(problem.angles)
        noise = rng.uniform(-0.04, 0.04, size=4)
        noise[0] = 0.0
        sol = solve_loop(LoopProblem(problem.arcs, 0, tuple(truth + noise)))
        assert sol.converged
        assert max(abs(a - b) for a, b in zip(sol.angles, truth)) < 1e-8


def test_sweep_records_per_sample_errors(monkeypatch):
    # failures at single samples are reported in place, not raised
    import bennett8.linkage as linkage_mod
    from bennett8.errors import ClosureFailure

    original = linkage_mod.assemble_spherical

    def flaky(v, phi1):
        if 0.4 < phi1 < 0.6:
            raise ClosureFailure("synthetic failure for the error-path test")
        return original(v, phi1)

    monkeypatch.setattr(linkage_mod, "assemble_spherical", flaky)
    samples = sweep(SAMPLE, phi_grid(0.0, 1.0, 5, uniform_angle=True))
    errors = [s for s in samples if s.error is not None]
    assert len(errors) == 1
    assert "synthetic failure" in errors[0].error
    assert all(s.families is not None for s in samples if s.error is None)


def test_bisector_circles_orthogonal_through_pole():
    from bennett8.sphere import circle_angle

    pose = assemble_spherical(SAMPLE, 0.8)
    assert circle_angle(pose.t1, pose.t2) == pytest.approx(np.pi / 2, abs=1e-12)
    # both pass through the pole of n
    assert lies_on(pose.n_pole, pose.t1) < 1e-12
    assert lies_on(pose.n_pole, pose.t2) < 1e-12
