"""Acceptance suite: one test per criterion, at the stated scale and
tolerance, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""
import json
import time

import numpy as np

from bennett8 import cli
from bennett8.isogram import (
    BennettIsogramSpec,
    bennett_dual_coefficient,
    coupled_angle,
    solve_bennett_isogram,
    solve_spherical_isogram,
    transmission_coefficient,
)
from bennett8.linkage import (
    FAMILIES,
    assemble_spatial,
    assemble_spherical,
    halfturn_products_report,
    mobility_check,
    sweep,
    symmetry_report_spatial,
    validate_spec,
)
from bennett8.oracle import (
    LoopProblem,
    jacobian_nullity,
    problem_from_spatial_joints,
    problem_from_spherical_vertices,
    solve_loop,
)
from bennett8.screws import OrientedLine
from bennett8.sphere import OrientedGreatCircle, SpherePoint
from conftest import (
    random_circle_pair,
    random_driving_angle,
    random_eightbar_spec,
    random_isogram_spec,
    random_spatial_spec,
)
from reference import (
    apply as rotate,
    common_perpendicular_circle,
    halfturn_about,
    lies_on,
    phi2_from_dihedral,
    symmetry_centers,
)
from test_oracle import generic_spatial_4r

G0 = OrientedGreatCircle(np.array([0.0, 0, 1]))
P0 = SpherePoint.of(1, 0, 0)
Z_AXIS = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0, 1]))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_transmission_vs_oracle():
    """100 random cell specs x 20 angles: analytic phi2 agrees with the
    Newton closure oracle within 1e-8, in under 10 seconds."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        spec = random_isogram_spec(rng)
        c21 = transmission_coefficient(spec)
        for _ in range(20):
            phi1 = random_driving_angle(rng, margin=0.1)
            pose = solve_spherical_isogram(spec, G0, P0, phi1)
            problem = problem_from_spherical_vertices([v.v for v in pose.vertices])
            truth = np.array(problem.angles)
            noise = rng.uniform(-0.05, 0.05, size=4)
            noise[0] = 0.0
            sol = solve_loop(LoopProblem(problem.arcs, 0, tuple(truth + noise)))
            assert sol.converged
            phi2_oracle = phi2_from_dihedral(spec.branch, sol.angles[1])
            phi2_analytic = coupled_angle(c21, phi1)
            worst = max(worst, abs(phi2_oracle - phi2_analytic))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "transmission law vs closure oracle",
        worst < 1e-8 and elapsed < 10.0,
        f"worst |dphi2| {worst:.3e}, {elapsed:.2f}s for 2000 solves",
    )


def test_criterion_2_symmetry_center_construction():
    """1000 random oriented circle pairs: the half-turn about S maps g1 onto
    oriented g2 within 1e-10 and S lies on their common perpendicular."""
    rng = np.random.default_rng(102)
    worst_map = 0.0
    worst_member = 0.0
    for _ in range(1000):
        g1, g2 = random_circle_pair(rng, min_cross=1e-3)
        s, _, _ = symmetry_centers(g1, g2)
        image = rotate(halfturn_about(s), g1)
        worst_map = max(worst_map, float(np.linalg.norm(image.n - g2.n)))
        cp = common_perpendicular_circle(g1, g2)
        worst_member = max(worst_member, lies_on(s, cp))
    _report(
        2,
        "half-turn center construction",
        worst_map < 1e-10 and worst_member < 1e-10,
        f"worst image {worst_map:.3e}, worst membership {worst_member:.3e}",
    )


def _spherical_batch(seed: int, n_specs: int, n_angles: int):
    rng = np.random.default_rng(seed)
    for _ in range(n_specs):
        spec = random_eightbar_spec(rng)
        v = validate_spec(spec)
        for _ in range(n_angles):
            phi1 = random_driving_angle(rng, margin=0.12)
            pose = assemble_spherical(v, phi1)
            yield pose, halfturn_products_report(pose)


def test_criterion_3_spherical_compound():
    """20 random spherical specs x 25 angles: joint incidences, aligned
    centers, the rotations about N, and the bisector symmetry, all < 1e-9."""
    worst = {"incidence": 0.0, "centers": 0.0, "mapping": 0.0, "bisector": 0.0}
    count = 0
    for pose, rep in _spherical_batch(103, 20, 25):
        count += 1
        inc = max(
            max(
                lies_on(pose.joints[k], pose.g[int(k[1])]),
                lies_on(pose.joints[k], pose.h[int(k[2])]),
            )
            for k in pose.joints
        )
        worst["incidence"] = max(worst["incidence"], inc)
        for family in ("centers", "mapping", "bisector"):
            worst[family] = max(worst[family], max(rep[k] for k in FAMILIES[family]))
    ok = max(worst.values()) < 1e-9 and count == 500
    _report(3, "compound of six isograms / aligned centers", ok, f"{count} poses, worst {worst}")


def test_criterion_4_halfturn_product_identities():
    """Product identities of the cell half-turns at every tested pose:
    composition transfers, coinciding couplers, and the triple products."""
    worst_products = 0.0
    worst_tau = 0.0
    for _, rep in _spherical_batch(104, 10, 10):
        worst_products = max(
            worst_products, rep["sigma3_conjugates_rho21"], rep["rho42_eq_rho51"], rep["rho62_eq_rho53"], rep["rho61_eq_rho43"]
        )
        worst_tau = max(
            worst_tau,
            rep["tau321_involutive"],
            rep["tau321_halfturn"],
            rep["tau321_axis_in_h1"],
            rep["tau321_axis_in_n"],
        )
    ok = worst_products < 1e-9 and worst_tau < 1e-9
    _report(
        4,
        "half-turn operator identities",
        ok,
        f"worst product {worst_products:.3e}, worst triple {worst_tau:.3e}",
    )


def test_criterion_5_spatial_compound():
    """10 random spatial specs x 25 angles: the cells close, the cell axes
    meet a common perpendicular n at right angles, the half-turn product
    identities hold with line reflections, the screws about n exchange the
    bar cohorts, and t1, t2 swap the axis pairs and the bars' feet on n,
    all < 1e-9."""
    rng = np.random.default_rng(105)
    families = ("centers", "products", "mapping", "bisector")
    worst = dict.fromkeys(("cells", *families), 0.0)
    count = 0
    for _ in range(10):
        spec = random_spatial_spec(rng)
        v = validate_spec(spec)
        for _ in range(25):
            phi1 = random_driving_angle(rng, margin=0.12)
            pose = assemble_spatial(v, phi1)
            rep = symmetry_report_spatial(pose)
            count += 1
            worst["cells"] = max(worst["cells"], *pose.cell_residuals)
            for family in families:
                worst[family] = max(worst[family], max(rep[k] for k in FAMILIES[family]))
    ok = max(worst.values()) < 1e-9 and count == 250
    _report(5, "spatial compound / common perpendicular", ok, f"{count} poses, worst {worst}")


def test_criterion_6_mobility():
    """Jacobian nullity exactly 1 at 10 regular poses of the flexible cell
    and of both compounds; 0 for a generic rigid 4R control loop.

    The control is a generic closed spatial 4R (the flexible-cell condition
    fails for it); a generic spherical 4R is itself a mobile four-bar, so it
    cannot serve as a rigid control."""
    rng = np.random.default_rng(106)
    cell_ok = True
    for _ in range(10):
        alpha = rng.uniform(0.4, 2.2)
        beta = rng.uniform(0.4, 2.2)
        k = rng.uniform(0.5, 2.0)
        spec = BennettIsogramSpec(alpha, beta, k * np.sin(alpha), k * np.sin(beta))
        pose = solve_bennett_isogram(spec, Z_AXIS, np.zeros(3), random_driving_angle(rng))
        problem = problem_from_spatial_joints([h.d for h in pose.hinges], list(pose.vertices))
        sol = solve_loop(problem)
        cell_ok = cell_ok and sol.converged and jacobian_nullity(problem, sol) == 1

    angles = [a for a in np.linspace(-2.4, 2.4, 12) if abs(a) > 0.2][:10]
    sph = mobility_check(sweep(random_eightbar_spec(rng), angles))
    spa = mobility_check(sweep(random_spatial_spec(rng), angles))
    sph_ok = all(m.status == "ok" and m.nullity == 1 for m in sph) and len(sph) == 10
    spa_ok = all(m.status == "ok" and m.nullity == 1 for m in spa) and len(spa) == 10

    control_ok = True
    for _ in range(10):
        axes, verts = generic_spatial_4r(rng)
        problem = problem_from_spatial_joints(axes, verts)
        sol = solve_loop(problem)
        control_ok = control_ok and sol.converged and jacobian_nullity(problem, sol) == 0

    ok = cell_ok and sph_ok and spa_ok and control_ok
    _report(
        6,
        "degree of freedom",
        ok,
        f"cell {cell_ok}, spherical {sph_ok}, spatial {spa_ok}, rigid control {control_ok}",
    )


def test_criterion_7_side_proportion_equivalence():
    """1000 random twist/offset combinations: the dual part of the
    transmission coefficient vanishes (< 1e-12) exactly on the side
    proportion, with linear sensitivity to violations."""
    rng = np.random.default_rng(107)
    ok = True
    slope_ok = True
    for i in range(1000):
        alpha = rng.uniform(0.2, np.pi - 0.2)
        beta = rng.uniform(0.2, np.pi - 0.2)
        k = rng.uniform(0.2, 2.5)
        a = k * np.sin(alpha)
        b = k * np.sin(beta)
        if i % 2 == 0:
            _, dual = bennett_dual_coefficient(alpha, beta, a, b, "plus")
            ok = ok and abs(dual) < 1e-12
        else:
            delta = rng.uniform(1e-6, 1e-2) * max(b, 0.1) * rng.choice([-1, 1])
            _, dual = bennett_dual_coefficient(alpha, beta, a, b + delta, "plus")
            ok = ok and abs(dual) > 1e-12
            if i % 100 == 1:
                _, dual_half = bennett_dual_coefficient(alpha, beta, a, b + delta / 2, "plus")
                slope_ok = slope_ok and abs(dual / dual_half - 2.0) < 1e-2
    _report(
        7,
        "side proportion <=> real transmission",
        ok and slope_ok,
        f"equivalence {ok}, linear slope {slope_ok}",
    )


def test_criterion_8_collapse_poses():
    """Both linkages return aligned poses at phi1 = 0: every bar carrier
    coincides with the base carrier and every joint sits on it, < 1e-10."""
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(5):
        v = validate_spec(random_eightbar_spec(rng))
        pose = assemble_spherical(v, 0.0)
        for joint in pose.joints.values():
            worst = max(worst, abs(joint.v[2]))
        for circ in (*pose.g, *pose.h):
            worst = max(worst, abs(abs(circ.n[2]) - 1.0))
    for _ in range(5):
        v = validate_spec(random_spatial_spec(rng))
        pose = assemble_spatial(v, 0.0)
        for vtx in pose.vertices.values():
            worst = max(worst, float(np.linalg.norm(vtx[:2])))
        for line in (*pose.g, *pose.h):
            worst = max(worst, abs(abs(line.d[2]) - 1.0), float(np.linalg.norm(line.m)))
    _report(8, "aligned collapse poses", worst < 1e-10, f"worst residual {worst:.3e}")


def test_criterion_9_sweep_determinism(tmp_path):
    """cmd_sweep output is byte-identical across two runs."""
    doc = {
        "schema_version": 1,
        "kind": "spherical8",
        "u1": 0.25,
        "u2": 0.25 + np.pi / 3,
        "u3": 0.25 + np.pi / 3 + np.pi / 4,
        "beta1": np.pi / 4,
        "beta2": np.pi / 5,
        "branch1": "plus",
        "branch2": "minus",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli.main(
            [
                "sweep",
                str(spec_path),
                "--from",
                "-2.8",
                "--to",
                "2.8",
                "--samples",
                "41",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    _report(9, "sweep determinism", outs[0] == outs[1], f"{len(outs[0])} bytes compared")
