"""8-bar assembly, validation, symmetry reports, mobility, sweeps."""
import os
from dataclasses import replace

import numpy as np
import pytest

from bennett8._dual import (
    _cross,
    _dual_angle,
    _dual_cross,
    _dual_dot,
    _dual_halfturn,
    _dual_norm,
    _dual_over_square,
    _dual_qmul,
    _dual_unit,
    _halfturn_product,
    _length,
    _qmul,
    _screw,
    _unsigned_gap,
)
from bennett8.errors import ClosureFailure, CollapsedPose, InvalidSpec
from bennett8.isogram import SphericalIsogramSpec, coupled_angle, transmission_coefficient
from bennett8.linkage import (
    CELLS,
    FAMILIES,
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
    _cell_design_residuals,
    _cell_residuals,
    _PLACEMENT,
    _assemble,
    _design,
    _mobility_jacobian,
)
from bennett8.oracle import (
    jacobian_nullity,
    matrix_nullity,
    problem_from_spatial_joints,
    problem_from_spherical_vertices,
    solve_loop,
)
from bennett8.scene import load_spec
from bennett8.screws import OrientedLine
from bennett8.sphere import OrientedGreatCircle, SpherePoint
from conftest import (
    random_eightbar_spec,
    random_line,
    random_line_pair,
    random_point,
    random_spatial_spec,
    reflect_line,
)
from reference import apply as rotate
from reference import (
    arc_point,
    common_perpendicular,
    dual_angle,
    halfturn_about,
    lies_on,
    line_distance,
    midline_symmetry_axis,
    reflect_in_circle,
    spherical_distance,
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


@pytest.mark.parametrize("kind", ["spherical", "spatial"])
def test_near_aligned_families_pass(kind):
    # next to the aligned pose of the first seed-5 design, n tilts from e_z
    # by about 5e-13: n and the bisectors t1, t2 must still be exact enough
    # for every family, the bisector family included. In space the bars turn
    # parallel to n there, and the report still holds
    spatial = kind == "spatial"
    specs = [load_spec(os.path.join(SPECS, f"{kind}8_demo.json"))]
    specs.append((random_spatial_spec if spatial else random_eightbar_spec)(np.random.default_rng(5)))
    for spec in specs:
        for sample in sweep(spec, BAND):
            assert sample.error is None, (sample.phi1, sample.error)
            assert max(sample.families.values()) < 1e-8, (sample.phi1, sample.families)


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


def _ill_conditioned_spec(rng, spatial: bool):
    """A design whose largest transmission coefficient |c| lies in (25, 1e3],
    the range conftest.random_eightbar_spec rejects, with arcs over
    (0.1, pi - 0.1)."""
    while True:
        u1 = rng.uniform(0.0, 0.4)
        a1, a2, b1, b2 = rng.uniform(0.1, np.pi - 0.1, size=4)
        if a1 + a2 >= np.pi - 0.1:
            continue
        br1, br2 = ("plus" if rng.uniform() < 0.5 else "minus" for _ in range(2))
        spec = EightBarSpec(u1, u1 + a1, u1 + a1 + a2, b1, b2, br1, br2)
        try:
            v = validate_spec(spec)
        except InvalidSpec:
            continue
        if 25 < max(abs(v.c21), abs(v.c32), abs(v.c31)) <= 1e3:
            break
    if not spatial:
        return spec
    lengths = rng.uniform(0.4, 1.6, size=2)
    return SpatialEightBarSpec(**vars(spec), a1=lengths[0], a2=lengths[1])


@pytest.mark.parametrize("kind", ["spherical", "spatial"])
def test_ill_conditioned_designs_pass(kind):
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = _ill_conditioned_spec(rng, kind == "spatial")
        for sample in sweep(spec, phi_grid(-np.pi, np.pi, 41)):
            assert sample.error is None, (spec, sample.phi1, sample.error)
            assert max(sample.families.values()) < 1e-10, (spec, sample.phi1, sample.families)


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


def _moved(x: np.ndarray, motion: str, eps: float = 1e-6, w=(0.3, -0.5, 0.8)) -> np.ndarray:
    """The dual vector x rotated by eps about the x axis, or translated by
    eps at a right angle to itself, along x × w."""
    if motion == "translate":
        shift = np.cross(x[:3], w)
        shift *= eps / np.linalg.norm(shift)
        return np.r_[x[:3], x[3:] + np.cross(shift, x[:3])]
    c, s = np.cos(eps), np.sin(eps)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return np.r_[rot @ x[:3], rot @ x[3:]]


def _scaled(kind: str, scale: float):
    """The validated demo of a kind, its lengths times scale (the sphere has
    none)."""
    spec = load_spec(os.path.join(SPECS, f"{kind}8_demo.json"))
    if kind == "spatial":
        spec = replace(spec, a1=scale * spec.a1, a2=scale * spec.a2)
    return validate_spec(spec)


@pytest.mark.parametrize("phi", [0.8, -2.2])
@pytest.mark.parametrize("joint", ["R13", "R32", "R30", "R20"])
@pytest.mark.parametrize(
    "kind, motion",
    [("spherical", "rotate"), ("spatial", "rotate"), ("spatial", "translate")],
)
def test_misplaced_joint_fails_closure(monkeypatch, kind, motion, joint, phi):
    # move the joint by 1e-6 where the placement table places it, relative
    # to the unit of length a1 + a2 in space: the pose must fail closure
    # whatever that unit is. The placement runs the table's rows in order,
    # in batches of half-turns
    target = next(i for i, (key, _, _) in enumerate(_PLACEMENT) if key == joint)
    for scale in (1e-8, 1.0, 1e8) if kind == "spatial" else (1.0,):
        v = _scaled(kind, scale)
        length = sum(v.a) if kind == "spatial" else 1.0
        done = []

        def misplaced(s, x):
            image = _dual_halfturn(s, x)
            row = target - sum(done)
            done.append(image.shape[1])
            if 0 <= row < image.shape[1]:
                image[:, row, 0] = _moved(image[:, row, 0], motion, 1e-6 * (length if motion == "translate" else 1.0))
            return image

        monkeypatch.setattr("bennett8.linkage._dual_halfturn", misplaced)
        with pytest.raises(ClosureFailure):
            (assemble_spatial if kind == "spatial" else assemble_spherical)(v, phi)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e6, 1e8])
def test_scaled_spatial_designs_close(scale):
    # the spatial demo and two conftest designs with their lengths scaled
    # close at every angle; their vertices are the unscaled ones times the
    # scale, and their reports are the unscaled ones
    rng = np.random.default_rng(11)
    specs = [load_spec(os.path.join(SPECS, "spatial8_demo.json"))]
    specs += [random_spatial_spec(rng) for _ in range(2)]
    for spec in specs:
        v = validate_spec(spec)
        scaled = validate_spec(replace(spec, a1=scale * spec.a1, a2=scale * spec.a2))
        for phi in np.linspace(-3, 3, 13):
            want, got = assemble_spatial(v, phi), assemble_spatial(scaled, phi)
            size = max(np.max(np.abs(p)) for p in want.vertices.values())
            for key, vertex in got.vertices.items():
                assert np.max(np.abs(vertex / scale - want.vertices[key])) <= 1e-12 * size, (phi, key)
            if not want.aligned:
                rep_want, rep_got = symmetry_report_spatial(want), symmetry_report_spatial(got)
                assert max(abs(rep_got[k] - rep_want[k]) for k in rep_want) <= 1e-12, phi


_MOTIONS = [("spherical", "rotate"), ("spatial", "rotate"), ("spatial", "translate")]
_BAR_MOVES = [
    (kind, motion, bar)
    for kind, motion in _MOTIONS
    for bar in ("g0", "g1", "g2", "g3", "h0", "h1", "h2", "h3")
]


def _moved_families(kind: str, row: int, motion: str) -> list[dict[str, float]]:
    """The centers, products, mapping and bisector families of the demo at
    phi1 = 0.8 and -2.2 with the element in row `row` of the pose (see
    linkage._Grid) moved by 1e-6, and normalized as its value object's
    constructor normalizes it. A translation is made in two directions, and
    each family reads the larger residual: each family is blind to some
    slides, the centers to an axis sliding along n, the bisector to a bar
    sliding along its common perpendicular with n."""
    spatial = kind == "spatial"
    v = validate_spec(load_spec(os.path.join(SPECS, f"{kind}8_demo.json")))
    report = symmetry_report_spatial if spatial else halfturn_products_report
    out = []
    for phi in (0.8, -2.2):
        pose = (assemble_spatial if spatial else assemble_spherical)(v, phi)
        families = dict.fromkeys(("centers", "products", "mapping", "bisector"), 0.0)
        for w in ((0.3, -0.5, 0.8), (0.8, 0.3, -0.5))[: 2 if motion == "translate" else 1]:
            rows = pose.row.copy()
            if spatial:
                line = OrientedLine(*np.split(_moved(rows[row], motion, w=w), 2))
                rows[row] = np.r_[line.d, line.m]
            else:
                rows[row, :3] = SpherePoint(_moved(rows[row], motion, w=w)[:3]).v
            rep = report(replace(pose, row=rows))
            for name in families:
                families[name] = max(families[name], *(rep[k] for k in FAMILIES[name]))
        out.append(families)
    return out


@pytest.mark.parametrize("kind, motion, bar", _BAR_MOVES)
def test_moved_bar_fails_the_rotations_about_n(kind, motion, bar):
    # the rotations about N (screws about n in space) carry g0 onto g_i and
    # h_i onto h0, and t1, t2 exchange the feet (common perpendiculars) of n
    # on g_i and h_i: a bar moved by 1e-6 must fail both families, and the
    # half-turn swaps of the products family, which leave out h0
    failing = ("mapping", "bisector") if bar == "h0" else ("products", "mapping", "bisector")
    for families in _moved_families(kind, int(bar[1]) + (4 if bar[0] == "h" else 0), motion):
        assert min(families[name] for name in failing) >= 1e-7, families


@pytest.mark.parametrize("axis", range(6))
@pytest.mark.parametrize("kind, motion", _MOTIONS)
def test_moved_axis_fails_every_symmetry_family(kind, motion, axis):
    # each axis s_k lies on n, takes part in the half-turn products and in
    # a rotation about N, and t1, t2 swap it with its partner: moved by
    # 1e-6, it fails all four families
    for families in _moved_families(kind, 20 + axis, motion):
        assert min(families.values()) >= 1e-7, families


@pytest.mark.parametrize("moments", [True, False], ids=["lines", "moment-free"])
def test_dual_halfturn_is_the_line_reflection(moments):
    # 2<s, x> s - x over the dual numbers: the line reflection in s, and the
    # spherical half-turn where the moments vanish, which is minus the
    # reflection in the polar circle of s. The references reflect points of
    # the line, and rotate the sphere
    rng = np.random.default_rng(37)
    zero = np.zeros(3)
    for _ in range(50):
        if moments:
            a, b, x = random_line(rng), random_line(rng), random_line(rng)
            want = reflect_line(a, x)
            twice = reflect_line(b, want)
            want, twice = np.r_[want.d, want.m], np.r_[twice.d, twice.m]
            a, b, x = (np.r_[line.d, line.m] for line in (a, b, x))
        else:
            a, b, x = random_point(rng), random_point(rng), random_point(rng)
            want = np.r_[rotate(halfturn_about(a), x).v, zero]
            twice = np.r_[rotate(halfturn_about(b), rotate(halfturn_about(a), x)).v, zero]
            mirror = np.r_[reflect_in_circle(OrientedGreatCircle(a.v), x).v, zero]
            a, b, x = (np.r_[p.v, zero] for p in (a, b, x))
            assert np.max(np.abs(_dual_halfturn(a, x) + mirror)) <= 1e-14
        assert np.max(np.abs(_dual_halfturn(a, x) - want)) <= 1e-14
        assert np.max(np.abs(_dual_halfturn(-a, x) - want)) <= 1e-14
        assert np.max(np.abs(_dual_halfturn(b, _dual_halfturn(a, x)) - twice)) <= 1e-13
        # a stack of vectors is the vectors one by one, for every kernel
        _assert_stacks_are_single_calls(np.array([a, b, x]).T, np.array([x, x, a]).T)


def _assert_same_bits(stacked, singles) -> None:
    """stacked[..., k] is singles[k] bit for bit, part by part of a tuple."""
    if isinstance(stacked, tuple):
        for j, part in enumerate(stacked):
            _assert_same_bits(part, [single[j] for single in singles])
        return
    want = np.stack([np.asarray(single) for single in singles], axis=-1)
    assert want.shape == stacked.shape and want.dtype == stacked.dtype
    assert want.tobytes() == stacked.tobytes()


def _assert_stacks_are_single_calls(x: np.ndarray, y: np.ndarray) -> None:
    """Every kernel of _dual.py on the component-major (6, M) stacks x and y
    is its M calls on single vectors, bit for bit: the 6-vectors, their
    direction and quaternion parts, and the dual quaternions of their
    half-turns, whose 8-component lengths numpy sums in another order. The
    product of two half-turns is _dual_qmul's product of the dual
    quaternions (0, x) and (0, y), bit for bit but for the signs of zeros."""
    sig_x, sig_y = np.zeros((8, x.shape[1])), np.zeros((8, y.shape[1]))
    sig_x[1:4], sig_x[5:], sig_y[1:4], sig_y[5:] = x[:3], x[3:], y[:3], y[3:]
    products = _dual_qmul(sig_x, sig_y)
    assert np.abs(_halfturn_product(x, y)).tobytes() == np.abs(products).tobytes()
    calls = [
        (_cross, x[:3], y[:3]), (_dual_dot, x, y), (_dual_norm, x), (_dual_unit, x), (_dual_over_square, x),
        (_dual_halfturn, x, y), (_dual_cross, x, y), (_dual_angle, x, y), (_qmul, x[:4], y[2:]),
        (_dual_qmul, sig_x, sig_y), (_halfturn_product, x, y), (_length, x), (_length, x[:3]), (_length, products),
        (_unsigned_gap, x, y), (_unsigned_gap, products, sig_x), (lambda a, b: _screw(a, 0.7, -0.3, b), x, y),
    ]
    for kernel, *stacks in calls:
        singles = [kernel(*(stack[:, k] for stack in stacks)) for k in range(stacks[0].shape[1])]
        _assert_same_bits(kernel(*stacks), singles)


@pytest.mark.parametrize("kind", ["spherical", "spatial"])
def test_kernels_on_grid_rows_are_their_single_calls(kind):
    # the stacks the grid runs on: every row of the demo's grid, against
    # the same rows in another order, through both aligned poses
    v = validate_spec(load_spec(os.path.join(SPECS, f"{kind}8_demo.json")))
    rows = _assemble(v, phi_grid(-np.pi, np.pi, 9) + [0.8]).values.reshape(6, -1)
    _assert_stacks_are_single_calls(rows, rows[:, ::-1])


def test_dual_helpers_match_their_references():
    # over stacks of line pairs: the batched dual angle is screws.dual_angle,
    # the dual unit of the dual cross product is the common perpendicular,
    # and the dual unit of the sum is the midline symmetry axis
    rng = np.random.default_rng(41)
    pairs = [random_line_pair(rng) for _ in range(50)]
    x, y = (np.array([np.r_[line.d, line.m] for line in lines]) for lines in zip(*pairs))
    (angles, dists), parallel = _dual_angle(x.T, y.T)
    (perpendiculars, short), (midlines, short_midlines) = _dual_unit(_dual_cross(x.T, y.T)), _dual_unit(x.T + y.T)
    perpendiculars, midlines = perpendiculars.T, midlines.T
    assert not (parallel.any() or short.any() or short_midlines.any())
    for k, (a, b) in enumerate(pairs):
        assert np.max(np.abs(np.r_[angles[k], dists[k]] - dual_angle(a, b))) <= 1e-12
        axis = common_perpendicular(a, b).axis
        assert np.max(np.abs(perpendiculars[k] - np.r_[axis.d, axis.m])) <= 1e-12
        axis = midline_symmetry_axis(a, b)
        assert np.max(np.abs(midlines[k] - np.r_[axis.d, axis.m])) <= 1e-12
    # a parallel pair in the stack is flagged, and only it
    shifted = np.r_[x[0, :3], x[0, 3:] + np.cross([0.3, -0.2, 0.1], x[0, :3])]
    _, parallel = _dual_angle(x.T, np.r_[[shifted], y[1:]].T)
    assert parallel.tolist() == [True] + [False] * 49


# ---------------------------------------------------------------------------
# the Bennett cells against their design
# ---------------------------------------------------------------------------


def _design_residual(v, pose) -> float:
    """The design terms of all six cells, from the pose's hinge lines."""
    sides = []
    for quad, _sides in CELLS:
        hinges = [pose.hinges[f"I{k[1:]}"] for k in quad]
        sides.append([dual_angle(hinges[k], hinges[(k + 1) % 4]) for k in range(4)])
    return float(np.max(_cell_design_residuals(v, np.moveaxis(np.array(sides), -1, 0))))


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
    hinges = np.array([np.r_[line.d, line.m] for line in pose.hinges.values()])
    worst = max(_cell_residuals(changed, hinges.T)[0])
    assert worst >= 1e-7


@pytest.mark.parametrize("kind", ["spherical", "spatial"])
def test_cells_catch_unequal_opposite_sides(kind):
    # joint R20 turned by 1e-6 about joint R23 (a screw about the hinge line
    # in space) keeps side R23-R20 of cell 4, so no side proportion and no
    # cell of the design term sees it; only the opposite sides of cells 4
    # and 5 differ
    v = validate_spec(load_spec(os.path.join(SPECS, f"{kind}8_demo.json")))
    pose = (assemble_spatial if kind == "spatial" else assemble_spherical)(v, 0.8)
    if kind == "spatial":
        joints = np.array([np.r_[pose.hinges[f"I{k[1:]}"].d, pose.hinges[f"I{k[1:]}"].m] for k in JOINT_KEYS])
    else:
        joints = np.array([np.r_[pose.joints[k].v, np.zeros(3)] for k in JOINT_KEYS])
    r20, r23 = JOINT_KEYS.index("R20"), JOINT_KEYS.index("R23")
    joints[r20] = _screw(joints[r23], 1e-6, 0.0, joints[r20])
    quads = joints.T[:, [[JOINT_KEYS.index(k) for k in quad] for quad, _ in CELLS]]
    sides = np.stack(_dual_angle(quads, np.roll(quads, -1, axis=2))[0])
    assert np.max(_cell_design_residuals(v, sides)) <= 1e-12
    residuals = _cell_residuals(v, joints.T)[0].tolist()
    assert min(residuals[3:5]) >= 1e-7 and max(residuals[:3] + residuals[5:]) <= 1e-12


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


def test_mobility_reports_unassembled_samples(monkeypatch):
    # mobility reads a sample's row of its sweep's grid: a sample that
    # failed has none, and certifies nothing
    ok = sweep(SAMPLE, [0.5])[0]
    assert ok.pose is ok.pose and ok.points is not None  # built from the row once
    # and so is each element of a pose
    assert ok.pose.joints is ok.pose.joints
    spatial = sweep(SAMPLE_SPATIAL, [0.5])[0].pose
    assert spatial.hinges is spatial.hinges
    monkeypatch.setattr("bennett8.linkage._CLOSURE_TOL", -1.0)
    failed = sweep(SAMPLE, [0.5, -0.5])
    assert all(isinstance(s, SweepSample) and s.error.startswith("ClosureFailure:") for s in failed)
    assert all(s.pose is None and s.points is None and s.families is None for s in failed)
    for sample, phi1 in zip(mobility_check(failed), (0.5, -0.5), strict=True):
        assert (sample.phi1, sample.status, sample.nullity) == (phi1, "assembly-failed", None)


def test_stacked_nullity_matches_single_matrices():
    # one SVD call over a stack applies the rank rule of a single matrix to
    # each: the mobility Jacobians of the demos and random designs, aligned
    # poses included (nullity 3 on the sphere), and the zero-matrix and
    # wide-matrix cases
    rng = np.random.default_rng(75)
    specs = [load_spec(os.path.join(SPECS, f"{kind}8_demo.json")) for kind in ("spherical", "spatial")]
    specs += [draw(rng) for draw in (random_eightbar_spec, random_spatial_spec) for _ in range(3)]
    runs = []
    for spec in specs:
        samples = sweep(spec, [0.0, 0.4, -0.9, 1.7, np.pi, -2.6])
        stack = np.stack([_mobility_jacobian(s._grid.values[:, 8:20, s._row].T * _design(s._grid.spec)[3])
                          for s in samples])
        singles = [matrix_nullity(jac) for jac in stack]
        assert matrix_nullity(stack).tolist() == singles
        assert [m.nullity for m in mobility_check(samples)] == singles
        aligned = 3 if isinstance(spec, EightBarSpec) else 1
        assert singles == [aligned, 1, 1, 1, aligned, 1]
        runs.append((samples, singles))
    # samples of different sweeps in one call, interleaved and then one
    # sweep's in a row, with a failed one
    mixed = [sample for pair in zip(*(samples for samples, _ in runs)) for sample in pair] + runs[0][0]
    want = [nullity for pair in zip(*(singles for _, singles in runs)) for nullity in pair] + runs[0][1]
    failed = SweepSample(0.1, None, "ClosureFailure: x")
    got = mobility_check(mixed[:3] + [failed] + mixed[3:])
    assert [m.nullity for m in got] == want[:3] + [None] + want[3:]
    assert got[3].status == "assembly-failed"
    wide = rng.normal(size=(3, 5))
    cases = np.stack([np.zeros((3, 5)), wide, np.outer(wide[0], wide[0])[:3], wide[[0, 0, 1]]])
    singles = [matrix_nullity(jac) for jac in cases]
    assert singles == [5, 2, 4, 3]
    assert matrix_nullity(cases).tolist() == singles
    assert matrix_nullity(cases.reshape(2, 2, 3, 5)).tolist() == [singles[:2], singles[2:]]
    assert matrix_nullity(np.zeros((4, 3))) == 3


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


def _screws(pose) -> np.ndarray:
    """The joint screws of a pose, its joint rows weighted by _design."""
    return pose.row[8:20] * _design(pose.spec)[3]


def _face_problem(pose, quad):
    if isinstance(pose, SpatialEightBarPose):
        hinges = [f"I{k[1:]}" for k in quad]
        return problem_from_spatial_joints(
            [pose.hinges[k].d for k in hinges], [pose.vertices[k] for k in hinges]
        )
    return problem_from_spherical_vertices([pose.joints[k].v for k in quad])


def test_mobility_jacobian_faces_match_oracle(jacobian_poses):
    # each face block, on its own four joints, is the four-bar's closure
    # Jacobian: nullity 1, as the oracle's exact loop Jacobian finds
    for pose in jacobian_poses:
        jac = _mobility_jacobian(_screws(pose))
        rows = jac.shape[0] // len(CELLS)
        for face, (quad, _sides) in enumerate(CELLS):
            block = jac[rows * face : rows * (face + 1), [JOINT_KEYS.index(k) for k in quad]]
            problem = _face_problem(pose, quad)
            assert matrix_nullity(block) == jacobian_nullity(problem, solve_loop(problem)) == 1


def test_mobility_jacobian_spectrum_gap(jacobian_poses):
    # one zero singular value, well separated from the other eleven
    for pose in jacobian_poses:
        sv = np.linalg.svd(_mobility_jacobian(_screws(pose)), compute_uv=False)
        assert sv.size == len(JOINT_KEYS)
        assert sv[11] / sv[0] < 1e-10
        assert sv[10] / sv[0] > 1e-4


def test_mobility_jacobian_spectrum_ignores_length_unit():
    def ratios(scale):
        spec = replace(SAMPLE_SPATIAL, a1=scale * SAMPLE_SPATIAL.a1, a2=scale * SAMPLE_SPATIAL.a2)
        screws = _screws(assemble_spatial(spec, 0.9))
        sv = np.linalg.svd(_mobility_jacobian(screws), compute_uv=False)
        return sv[:11] / sv[0]

    for scale in (1e-3, 1e3):
        assert np.allclose(ratios(scale), ratios(1.0), rtol=1e-9, atol=0)


def test_mobility_jacobian_needs_the_loop_signs(jacobian_poses):
    # without the crossing signs the joint screws are independent: the
    # nullity 1 comes from the sign convention, not from the screws alone
    for pose in jacobian_poses:
        assert matrix_nullity(np.abs(_mobility_jacobian(_screws(pose)))) == 0


def test_incompatible_third_cell_cannot_close():
    # forcing c31 != c32*c21: the third cell's coupler misses the required
    # length for every pose, so the compound cannot assemble
    v = validate_spec(SAMPLE)
    beta3_bad = v.betas[2] + 0.1
    from reference import apply, rotation_about
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


def _bits(xs) -> list[int]:
    return np.array(xs, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("n", [2, 3, 7, 25, 41, 101, 256])
def test_phi_grid_is_the_per_sample_expressions(n):
    # the array expressions give each sample the bits of the scalar ones,
    # signs of zero included: tan-spaced, uniform, and the fallback of a
    # range touching pi
    for lo, hi in ((-3.1, 3.1), (-2.0, 2.9), (0.1, 1e-9), (-1.0, 1.0), (0.0, -0.5)):
        ts = np.linspace(np.tan(lo / 2), np.tan(hi / 2), n)
        assert _bits(phi_grid(lo, hi, n)) == _bits([float(2 * np.arctan(t)) for t in ts])
        uniform = [float(x) for x in np.linspace(lo, hi, n)]
        assert _bits(phi_grid(lo, hi, n, uniform_angle=True)) == _bits(uniform)
    for lo, hi in ((-np.pi, np.pi), (2.8, 3.5), (-4.0, -3.0)):
        assert _bits(phi_grid(lo, hi, n)) == _bits([float(x) for x in np.linspace(lo, hi, n)])
    assert all(type(x) is float for x in phi_grid(-3.1, 3.1, n) + phi_grid(-np.pi, np.pi, n))


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


# one table for both linkages, and the same pose-level residuals
_POSE_LEVEL = {"closure", "incidence", "cells"}


@pytest.mark.parametrize(
    "demo, pose_level, table",
    [
        ("spherical8_demo.json", _POSE_LEVEL, FAMILIES),
        ("spatial8_demo.json", _POSE_LEVEL, FAMILIES),
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
    # failures at single samples are reported in place, not raised: joint
    # R13 of the third sample is moved by 1e-6 where the placement table
    # places it, in the first batch of half-turns, which runs the table's
    # rows at every angle. Only that sample fails closure
    phis = phi_grid(0.0, 1.0, 5, uniform_angle=True)
    want = sweep(SAMPLE, phis)
    target = next(i for i, (key, _, _) in enumerate(_PLACEMENT) if key == "R13")
    calls = []

    def misplaced(s, x):
        image = _dual_halfturn(s, x)
        if not calls:
            image[:, target, 2] = _moved(image[:, target, 2], "rotate")
        calls.append(image.shape[1])
        return image

    monkeypatch.setattr("bennett8.linkage._dual_halfturn", misplaced)
    samples = sweep(SAMPLE, phis)
    assert samples[2].error.startswith("ClosureFailure: spherical 8-bar failed to close")
    assert samples[2].pose is None and samples[2].families is None
    for k in (0, 1, 3, 4):
        assert samples[k].error is None and samples[k].families == want[k].families


def _same_bits(x, y) -> bool:
    """x and y hold the same floats, bit for bit, every nan equal to every
    other nan."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    both_nan = np.isnan(x) & np.isnan(y)
    return x.shape == y.shape and np.where(both_nan, 0.0, x).tobytes() == np.where(both_nan, 0.0, y).tobytes()


@pytest.mark.parametrize("kind", ["spherical", "spatial"])
def test_sweep_matches_single_poses(kind):
    # one construction over the grid gives, angle by angle, the pose, the
    # families and the error of assemble_* and the report at that angle
    # alone, bit for bit: the demo, 12 seed-5 conftest designs and the 20
    # ill-conditioned designs, through both aligned poses and next to them
    spatial = kind == "spatial"
    assemble = assemble_spatial if spatial else assemble_spherical
    report_of = symmetry_report_spatial if spatial else halfturn_products_report
    rng = np.random.default_rng(5)
    specs = [load_spec(os.path.join(SPECS, f"{kind}8_demo.json"))]
    specs += [(random_spatial_spec if spatial else random_eightbar_spec)(rng) for _ in range(12)]
    rng = np.random.default_rng(7)
    specs += [_ill_conditioned_spec(rng, spatial) for _ in range(20)]
    phis = phi_grid(-np.pi, np.pi, 41) + BAND + [1e-9, -1e-9]
    for spec in specs:
        v = validate_spec(spec)
        for phi, sample in zip(phis, sweep(v, phis), strict=True):
            try:
                pose = assemble(v, phi)
                report = None if pose.aligned else report_of(pose)
                error = None
            except (ClosureFailure, CollapsedPose) as exc:
                pose, error = None, f"{type(exc).__name__}: {exc}"
            assert sample.phi1 == phi and sample.error == error, (spec, phi)
            if pose is None:
                assert sample.pose is None and sample.points is None and sample.families is None
                continue
            assert sample.pose.aligned == pose.aligned, (spec, phi)
            # the elements, n's pole too, are built from the row and the points
            assert _same_bits(sample.pose.row, pose.row) and _same_bits(sample.pose.points, pose.points), (spec, phi)
            if not pose.aligned:
                # mobility reads the joint screws off the grid: the weighted
                # rows equal those of the pose alone, bit for bit
                screws = sample._grid.values[:, 8:20, sample._row].T * _design(v)[3]
                assert np.array_equal(screws, _screws(pose)), (spec, phi)
            values = {"closure": pose.closure_residual, "incidence": pose.incidence_residual}
            values.update(cells=max(pose.cell_residuals), **(report or {}))
            want = {name: max(values[k] for k in keys) for name, keys in FAMILIES.items() if keys[0] in values}
            assert list(sample.families) == list(want), (spec, phi)
            assert _same_bits(list(sample.families.values()), list(want.values())), (spec, phi, sample.families)
            assert _same_bits(sample.points, pose.points), (spec, phi)


def test_bisector_circles_orthogonal_through_pole():
    from reference import circle_angle

    pose = assemble_spherical(SAMPLE, 0.8)
    assert circle_angle(pose.t1, pose.t2) == pytest.approx(np.pi / 2, abs=1e-12)
    # both pass through the pole of n
    assert lies_on(pose.n_pole, pose.t1) < 1e-12
    assert lies_on(pose.n_pole, pose.t2) < 1e-12


@pytest.mark.parametrize("kind", ["spherical", "spatial"])
def test_n_and_t_match_their_references(kind):
    # in space n is the common perpendicular of s1 and s2, and t the midline
    # of s1 and s4 oriented towards s1; on the sphere t1 mirrors S1 onto S4
    # and t2 mirrors S1 onto -S4
    rng = np.random.default_rng(43)
    spatial = kind == "spatial"
    assemble = assemble_spatial if spatial else assemble_spherical
    specs = [load_spec(os.path.join(SPECS, f"{kind}8_demo.json"))]
    specs += [(random_spatial_spec if spatial else random_eightbar_spec)(rng) for _ in range(3)]
    for spec in specs:
        v = validate_spec(spec)
        for phi in np.linspace(-3.05, 3.05, 12):
            pose = assemble(v, phi)
            if spatial:
                s1, s2, s4 = pose.axes[0], pose.axes[1], pose.axes[3]
                s4 = s4 if np.dot(s1.d, s4.d) >= 0 else s4.reversed()
                assert line_distance(pose.n_line, common_perpendicular(s1, s2).axis) <= 1e-12, phi
                assert line_distance(pose.t_line, midline_symmetry_axis(s1, s4)) <= 1e-12, phi
            else:
                s1, s4 = pose.centers[0], pose.centers[3]
                assert np.linalg.norm(reflect_in_circle(pose.t1, s1).v - s4.v) <= 1e-12, phi
                assert np.linalg.norm(reflect_in_circle(pose.t2, s1).v + s4.v) <= 1e-12, phi
