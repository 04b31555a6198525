"""Numeric closure oracle: solving, convergence, nullity."""
import numpy as np
import pytest

from bennett8.isogram import SphericalIsogramSpec, solve_spherical_isogram
from bennett8.oracle import (
    LoopProblem,
    _loop_closure_dq,
    _loop_closure_quat,
    dh_from_spatial_joints,
    dh_from_spherical_vertices,
    jacobian_nullity,
    problem_from_spatial_joints,
    problem_from_spherical_vertices,
    solve_loop,
)
from bennett8.screws import OrientedLine
from bennett8.sphere import OrientedGreatCircle, SpherePoint
from conftest import random_driving_angle, random_isogram_spec

G0 = OrientedGreatCircle(np.array([0.0, 0, 1]))
P0 = SpherePoint.of(1, 0, 0)


def _cell_vertices(spec, phi1):
    pose = solve_spherical_isogram(spec, G0, P0, phi1)
    return [q.v for q in pose.vertices], pose


def test_loop_product_vanishes_on_closed_polygon():
    rng = np.random.default_rng(20)
    for _ in range(50):
        spec = random_isogram_spec(rng)
        verts, _ = _cell_vertices(spec, random_driving_angle(rng))
        problem = problem_from_spherical_vertices(verts)
        assert np.linalg.norm(problem.residual(np.array(problem.angles))) < 1e-12


def _qmul(a, b):
    """Hamilton product of (w, x, y, z) quaternions, written out."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _dqmul(a, b):
    """(ar + e ad)(br + e bd) = ar br + e (ar bd + ad br), with e^2 = 0."""
    dual = np.add(_qmul(a[0], b[1]), _qmul(a[1], b[0]))
    return _qmul(a[0], b[0]), tuple(dual)


def test_loop_closure_composition():
    # the loop products equal explicit alternating Rz / Rx (screw about x)
    # products; a screw's dual part is t r / 2 for translation t along x
    rng = np.random.default_rng(3)
    for _ in range(50):
        th = rng.uniform(-3, 3, size=4)
        ar = rng.uniform(0.1, 3, size=4)
        ln = rng.uniform(0, 2, size=4)
        m = (1.0, 0.0, 0.0, 0.0)
        dq = (m, (0.0, 0.0, 0.0, 0.0))
        for t, a, d in zip(th, ar, ln):
            rz = (np.cos(t / 2), 0.0, 0.0, np.sin(t / 2))
            rx = (np.cos(a / 2), np.sin(a / 2), 0.0, 0.0)
            screw = (rx, _qmul((0.0, d / 2, 0.0, 0.0), rx))
            m = _qmul(_qmul(m, rz), rx)
            dq = _dqmul(_dqmul(dq, (rz, (0.0, 0.0, 0.0, 0.0))), screw)
        assert np.allclose(_loop_closure_quat(list(th), list(ar)), m, atol=1e-13)
        assert np.allclose(_loop_closure_dq(list(th), list(ar), list(ln)), dq[0] + dq[1], atol=1e-13)


def test_dq_unit_norm_preserved():
    # long spatial loop products stay unit dual quaternions (norm and Study part)
    rng = np.random.default_rng(5)
    th = rng.uniform(-3, 3, size=100)
    ar = rng.uniform(-3, 3, size=100)
    ln = rng.uniform(-2, 2, size=100)
    m = _loop_closure_dq(list(th), list(ar), list(ln))
    qr = np.array(m[:4])
    qd = np.array(m[4:])
    assert abs(np.linalg.norm(qr) - 1) < 1e-10
    assert abs(np.dot(qr, qd)) < 1e-10


def test_solve_loop_converges_back_after_perturbation():
    # seeded from the analytic solution perturbed by 0.05
    spec = SphericalIsogramSpec(np.pi / 3, np.pi / 4, "plus")
    verts, _ = _cell_vertices(spec, 1.0)
    problem = problem_from_spherical_vertices(verts)
    truth = np.array(problem.angles)
    rng = np.random.default_rng(0)
    for _ in range(10):
        noise = rng.uniform(-0.05, 0.05, size=4)
        noise[0] = 0.0
        seeded = LoopProblem(problem.arcs, 0, tuple(truth + noise))
        sol = solve_loop(seeded)
        assert sol.converged
        assert max(abs(a - b) for a, b in zip(sol.angles, truth)) < 1e-9


def test_solve_loop_aligned_seed():
    spec = SphericalIsogramSpec(np.pi / 3, np.pi / 4, "plus")
    verts, _ = _cell_vertices(spec, 1e-9)
    problem = problem_from_spherical_vertices(verts)
    sol = solve_loop(problem)
    assert sol.converged
    assert sol.residual_norm < 1e-11


def test_solve_loop_detects_infeasible_loop():
    # sides that cannot close: one arc longer than the other three combined
    problem = LoopProblem((2.8, 0.1, 0.1, 0.1), 0, (0.3, 0.2, -0.2, 0.1))
    sol = solve_loop(problem)
    assert not sol.converged or sol.residual_norm > 1e-6


def test_newton_quadratic_convergence_near_solution():
    spec = SphericalIsogramSpec(1.1, 0.6, "minus")
    verts, _ = _cell_vertices(spec, 0.9)
    problem = problem_from_spherical_vertices(verts)
    truth = np.array(problem.angles)
    seeded = LoopProblem(problem.arcs, 0, tuple(truth + np.array([0, 0.02, -0.02, 0.02])))
    sol = solve_loop(seeded, tol=1e-13)
    assert sol.converged
    drops = [
        sol.residual_history[k + 1] / max(sol.residual_history[k] ** 2, 1e-300)
        for k in range(len(sol.residual_history) - 2)
        if sol.residual_history[k] < 1e-2
    ]
    # residual ratio r_{k+1} / r_k^2 stays bounded: quadratic contraction
    assert drops and all(d < 1e3 for d in drops)


def test_jacobian_nullity_bennett_isogram():
    # spatial 4R with the side proportion: continuously flexible, nullity 1
    alpha, beta, k = np.pi / 3, np.pi / 4, 1.7
    from bennett8.isogram import BennettIsogramSpec, solve_bennett_isogram

    spec = BennettIsogramSpec(alpha, beta, k * np.sin(alpha), k * np.sin(beta))
    base = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0, 1]))
    pose = solve_bennett_isogram(spec, base, np.zeros(3), 0.8)
    problem = problem_from_spatial_joints([h.d for h in pose.hinges], list(pose.vertices))
    sol = solve_loop(problem)
    assert sol.converged
    assert jacobian_nullity(problem, sol) == 1


def generic_spatial_4r(rng):
    """Closed-by-construction generic spatial 4R: random vertices, hinge at
    each vertex perpendicular to both incident sides (zero joint offsets)."""
    while True:
        verts = [rng.uniform(-1, 1, size=3) for _ in range(4)]
        axes = []
        ok = True
        for k in range(4):
            incoming = verts[k] - verts[k - 1]
            outgoing = verts[(k + 1) % 4] - verts[k]
            n = np.cross(incoming, outgoing)
            if np.linalg.norm(n) < 0.05:
                ok = False
                break
            axes.append(n / np.linalg.norm(n))
        if ok:
            return axes, verts


def test_jacobian_nullity_generic_spatial_quadrilateral_is_rigid():
    # a generic spatial 4R closes at its construction pose but cannot flex
    rng = np.random.default_rng(31)
    for _ in range(5):
        axes, verts = generic_spatial_4r(rng)
        problem = problem_from_spatial_joints(axes, verts)
        sol = solve_loop(problem)
        assert sol.converged  # closes at the constructed pose by definition
        assert jacobian_nullity(problem, sol) == 0


def test_jacobian_nullity_generic_spherical_quadrilateral_is_mobile():
    # a generic spherical 4R is a movable four-bar: closure leaves one degree
    # of freedom, so the driving-joint-included nullity is 1
    rng = np.random.default_rng(37)
    for _ in range(5):
        verts = []
        while len(verts) < 4:
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if all(np.linalg.norm(np.cross(v, w)) > 0.2 for w in verts):
                verts.append(v)
        problem = problem_from_spherical_vertices(verts)
        sol = solve_loop(problem)
        assert sol.converged
        assert jacobian_nullity(problem, sol) == 1


def test_oracle_angle_extraction_matches_transmission():
    # the loop-frame dihedrals encode the arm angles through constant offsets
    # fixed by the branch: theta_A = -phi1 (+pi on the plus branch) and phi2
    # recovers from theta_B via phi2_from_dihedral
    from bennett8.isogram import phi2_from_dihedral

    rng = np.random.default_rng(40)
    for _ in range(25):
        spec = random_isogram_spec(rng)
        phi1 = random_driving_angle(rng)
        verts, pose = _cell_vertices(spec, phi1)
        thetas, _ = dh_from_spherical_vertices(verts)
        shift = 0.0 if spec.branch == "minus" else np.pi
        delta = thetas[0] + phi1 - shift
        assert abs(np.sin(delta)) < 1e-10 and np.cos(delta) > 0
        assert phi2_from_dihedral(spec.branch, thetas[1]) == pytest.approx(
            pose.phi2, abs=1e-10
        )


def test_problem_invariants():
    with pytest.raises(ValueError):
        LoopProblem((1.0, 1.0, 1.0), 0, (0.0, 0.0))  # joints != sides
    with pytest.raises(ValueError):
        LoopProblem((1.0, 1.0, 1.0), 5, (0.0, 0.0, 0.0))


def test_spatial_dh_round_trip():
    rng = np.random.default_rng(50)
    from bennett8.isogram import BennettIsogramSpec, solve_bennett_isogram

    base = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0, 1]))
    for _ in range(20):
        alpha = rng.uniform(0.4, 2.0)
        beta = rng.uniform(0.4, 2.0)
        k = rng.uniform(0.5, 2.0)
        spec = BennettIsogramSpec(alpha, beta, k * np.sin(alpha), k * np.sin(beta))
        pose = solve_bennett_isogram(spec, base, np.zeros(3), random_driving_angle(rng))
        thetas, twists, lens = dh_from_spatial_joints(
            [h.d for h in pose.hinges], list(pose.vertices)
        )
        problem = LoopProblem(tuple(twists), 0, tuple(thetas), tuple(lens))
        assert np.linalg.norm(problem.residual(np.array(thetas))) < 1e-10


def test_spatial_cell_oracle_solve_back():
    # perturb the hinge angles of a closed Bennett cell and let Newton
    # re-derive them from closure alone; phi2 agreement within 1e-8
    from bennett8.isogram import BennettIsogramSpec, solve_bennett_isogram

    base = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0, 1]))
    rng = np.random.default_rng(55)
    for _ in range(15):
        alpha = rng.uniform(0.4, 2.0)
        beta = rng.uniform(0.4, 2.0)
        k = rng.uniform(0.5, 2.0)
        spec = BennettIsogramSpec(alpha, beta, k * np.sin(alpha), k * np.sin(beta))
        pose = solve_bennett_isogram(spec, base, np.zeros(3), random_driving_angle(rng))
        problem = problem_from_spatial_joints([h.d for h in pose.hinges], list(pose.vertices))
        truth = np.array(problem.angles)
        noise = rng.uniform(-0.05, 0.05, size=4)
        noise[0] = 0.0
        sol = solve_loop(LoopProblem(problem.arcs, 0, tuple(truth + noise), problem.offsets))
        assert sol.converged
        assert max(abs(a - b) for a, b in zip(sol.angles, truth)) < 1e-8


def test_solve_loop_keeps_to_the_seeded_branch_next_to_a_fold():
    # cell (R13, R23, R20, R10) of a spatial 8-bar at phi1 = -2.9787: a full
    # Newton step from this seed (0.05 rad from the pose) cuts the residual
    # from 0.10 to 1.1e-3 at angles 0.25 rad away, where the solve then
    # stalled. Capped steps return to the pose
    arcs = (-0.0033709424617957063, 3.0891988749681256, -0.0033709424617957345, 3.089198874968126)
    offsets = (0.15357711524643108, 2.3859261301940884, 0.15357711524643078, 2.385926130194089)
    start = (-2.998345835848411, -0.2085918316572926, -3.0353087370254244, -0.2101899359823727)
    truth = (-2.998345835848411, -0.16286036923260516, -2.9983458358484105, -0.16286036923260544)
    assert np.linalg.norm(LoopProblem(arcs, 0, truth, offsets).residual(np.array(truth))) < 1e-11
    problem = LoopProblem(arcs, 0, start, offsets)
    sol = solve_loop(problem)
    assert sol.converged and sol.iterations <= 10
    assert max(abs(a - b) for a, b in zip(sol.angles, truth)) <= 1e-8
    assert jacobian_nullity(problem, sol) == 1
