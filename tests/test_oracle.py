"""Numeric closure oracle: solving, convergence, nullity."""
import math

import numpy as np
import pytest

from bennett8.isogram import SphericalIsogramSpec, solve_spherical_isogram
from bennett8.oracle import (
    LoopProblem,
    _newton_step,
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


def _flat_dq_mul(a, b):
    """Dual-quaternion product of flat 8-tuples (real part first), composed
    of two-factor Hamilton products: the reference of the inlined loop."""
    ar, ad, br, bd = a[:4], a[4:], b[:4], b[4:]
    d1 = _qmul(ar, bd)
    d2 = _qmul(ad, br)
    return _qmul(ar, br) + (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2], d1[3] + d2[3])


def _reference_loop_closure_dq(thetas, arcs, lens):
    m = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for th, al, ln in zip(thetas, arcs, lens):
        ch, sh = math.cos(0.5 * th), math.sin(0.5 * th)
        rz = (ch, 0.0, 0.0, sh, 0.0, 0.0, 0.0, 0.0)
        ca, sa = math.cos(0.5 * al), math.sin(0.5 * al)
        hl = 0.5 * ln
        sx = (ca, sa, 0.0, 0.0, -hl * sa, hl * ca, 0.0, 0.0)
        m = _flat_dq_mul(m, _flat_dq_mul(rz, sx))
    return m


def _reference_residual(angles, arcs, lens):
    # numpy scalars in: the reference for the residual's Python floats
    if lens is None:
        w, x, y, z = _loop_closure_quat(list(angles), list(arcs))
        s = 1.0 if w >= 0 else -1.0
        return np.array([s * x, s * y, s * z])
    m = _reference_loop_closure_dq(list(angles), list(arcs), list(lens))
    s = 1.0 if m[0] >= 0 else -1.0
    return np.array([s * v for v in m[1:]])


def _bits(values) -> tuple:
    return tuple(float(v).hex() for v in values)


def _random_loop(rng):
    """Joint angles anywhere a Newton iterate may go, twists in [-pi, pi] as
    the problem builders give them, lengths x 1e-8 to 1e8; exact zeros of
    either sign in each."""
    n = int(rng.integers(1, 9))

    def pick(draw, special):
        return [special[rng.integers(len(special))] if rng.uniform() < 0.2 else draw() for _ in range(n)]

    thetas = pick(lambda: rng.uniform(-7, 7), [0.0, -0.0, np.pi, -np.pi, 5e-324])
    arcs = pick(lambda: rng.uniform(-np.pi, np.pi), [0.0, -0.0, np.pi, -np.pi, -5e-324])
    lens = pick(lambda: rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-8, 8), [0.0, -0.0])
    return np.array(thetas), np.array(arcs), np.array(lens)


def test_loop_products_are_bit_identical_to_the_composed_products():
    # one sparse factor per joint, multiplied in inline, gives the bits of
    # the two-factor products it replaced, signs of zero included; and the
    # residual's Python floats give the bits of numpy scalars
    rng = np.random.default_rng(2026)
    for i in range(10_000):
        thetas, arcs, lens = _random_loop(rng)
        ref = _reference_loop_closure_dq(thetas.tolist(), arcs.tolist(), lens.tolist())
        assert _bits(_loop_closure_dq(thetas.tolist(), arcs.tolist(), lens.tolist())) == _bits(ref)
        if i % 10:
            continue
        for offsets in (None, tuple(lens)):
            problem = LoopProblem(tuple(arcs), 0, tuple(thetas), offsets)
            assert _bits(problem.residual(thetas)) == _bits(_reference_residual(thetas, arcs, offsets))


def _central_differences(fn, x, step=1e-6):
    """Reference Jacobian: central differences, one column per variable."""
    cols = []
    for k in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[k] += step
        xm[k] -= step
        cols.append((fn(xp) - fn(xm)) / (2 * step))
    return np.column_stack(cols)


def test_exact_jacobian_matches_central_differences():
    # relative bound: each block of rows (rotation; dual scalar and
    # translation) agrees to 1e-7 of its largest entry, at lengths x 1e-8 to
    # 1e8. Loops whose product has a scalar part within 1e-4 of 0 are left
    # out: the residual's sign flips there, so it has no derivative to
    # difference
    rng = np.random.default_rng(2028)
    checked = 0
    while checked < 2000:
        thetas, arcs, lens = _random_loop(rng)
        spatial = checked % 2 == 1
        if abs(_loop_closure_quat(thetas.tolist(), arcs.tolist())[0]) < 1e-4:
            continue
        checked += 1
        problem = LoopProblem(tuple(arcs), 0, tuple(thetas), tuple(lens) if spatial else None)
        jac = problem.residual_and_jacobian(thetas)[1]
        ref = _central_differences(problem.residual, thetas)
        assert jac.shape == ref.shape == (7 if spatial else 3, thetas.size)
        for rows in (slice(0, 3), slice(3, 7)):
            scale = np.max(np.abs(ref[rows]), initial=0.0)
            assert np.max(np.abs(jac[rows] - ref[rows]), initial=0.0) <= 1e-7 * scale


def test_residual_with_the_jacobian_is_bit_identical_to_the_residual():
    rng = np.random.default_rng(2029)
    for _ in range(2000):
        thetas, arcs, lens = _random_loop(rng)
        for offsets in (None, tuple(lens)):
            problem = LoopProblem(tuple(arcs), 0, tuple(thetas), offsets)
            got = problem.residual_and_jacobian(thetas)[0]
            assert _bits(got) == _bits(problem.residual(thetas))


def _base_frame(z0, x_in):
    """The loop's base frame, rows x, y, z: z is joint 0's axis z0 and x
    the direction x_in of the side into joint 0."""
    return np.array([x_in, np.cross(z0, x_in), z0])


def test_jacobian_columns_at_a_closed_pose_are_half_the_joint_lines():
    # sphere: column k is half joint k's unit axis in the base frame; space:
    # half its Pluecker line (direction; 0; moment), moments about joint 0's
    # vertex, at lengths x 1e-8 to 1e8
    rng = np.random.default_rng(2030)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        verts = rng.normal(size=(n, 3))
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
        thetas, arcs = dh_from_spherical_vertices(list(verts))
        problem = LoopProblem(tuple(arcs), 0, tuple(thetas))
        assert np.linalg.norm(problem.residual(thetas)) < 1e-12
        frame = _base_frame(verts[0], _unit_vector(np.cross(verts[-1], verts[0])))
        jac = problem.residual_and_jacobian(thetas)[1]
        assert np.allclose(jac, 0.5 * frame @ verts.T, rtol=0, atol=1e-12)

        scale = 10 ** rng.uniform(-8, 8)
        while True:
            points = rng.uniform(-1, 1, size=(n, 3))
            axes = np.cross(points - np.roll(points, 1, axis=0), np.roll(points, -1, axis=0) - points)
            if np.all(np.linalg.norm(axes, axis=1) > 0.05):
                break
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        points *= scale
        thetas, twists, lens = dh_from_spatial_joints(list(axes), list(points))
        problem = LoopProblem(tuple(twists), 0, tuple(thetas), tuple(lens))
        assert np.linalg.norm(problem.residual(thetas) / [1, 1, 1, scale, scale, scale, scale]) < 1e-10
        frame = _base_frame(axes[0], _unit_vector(points[0] - points[-1]))
        u = axes @ frame.T
        moment = np.cross((points - points[0]) @ frame.T, u)
        jac = problem.residual_and_jacobian(thetas)[1]
        assert np.allclose(jac[:3], 0.5 * u.T, rtol=0, atol=1e-10)
        assert np.allclose(jac[3], 0.0, rtol=0, atol=1e-10 * scale)
        assert np.allclose(jac[4:], 0.5 * moment.T, rtol=0, atol=1e-10 * scale)


def _unit_vector(v):
    return v / np.linalg.norm(v)


def _dh_spherical_per_vertex(vertices):
    vs = [np.asarray(v, dtype=float) for v in vertices]
    n = len(vs)
    xs = [_unit_vector(np.cross(vs[k], vs[(k + 1) % n])) for k in range(n)]
    thetas = np.empty(n)
    arcs = np.empty(n)
    for k in range(n):
        xin, xout = xs[k - 1], xs[k]
        thetas[k] = np.arctan2(np.dot(np.cross(xin, xout), vs[k]), np.dot(xin, xout))
        nxt = vs[(k + 1) % n]
        arcs[k] = np.arctan2(np.dot(np.cross(vs[k], nxt), xs[k]), np.dot(vs[k], nxt))
    return thetas, arcs


def _dh_spatial_per_vertex(axes, vertices):
    zs = [_unit_vector(np.asarray(a, dtype=float)) for a in axes]
    vs = [np.asarray(v, dtype=float) for v in vertices]
    n = len(zs)
    xs = []
    lens = np.empty(n)
    for k in range(n):
        dv = vs[(k + 1) % n] - vs[k]
        ln = np.linalg.norm(dv)
        lens[k] = ln
        xs.append(dv / ln if ln > 1e-12 else _unit_vector(np.cross(zs[k], zs[(k + 1) % n])))
    thetas = np.empty(n)
    twists = np.empty(n)
    for k in range(n):
        xin, xout = xs[k - 1], xs[k]
        thetas[k] = np.arctan2(np.dot(np.cross(xin, xout), zs[k]), np.dot(xin, xout))
        nz = zs[(k + 1) % n]
        twists[k] = np.arctan2(np.dot(np.cross(zs[k], nz), xs[k]), np.dot(zs[k], nz))
    return thetas, twists, lens


def test_problem_builders_are_bit_identical_to_per_vertex_crosses():
    # two stacked np.cross calls per cell give the bits of one call per vertex
    rng = np.random.default_rng(2027)
    for i in range(1000):
        n = int(rng.integers(3, 9))
        verts = list(rng.normal(size=(n, 3)) / np.sqrt(3))
        got, ref = dh_from_spherical_vertices(verts), _dh_spherical_per_vertex(verts)
        assert all(np.array_equal(a, b) and a.tobytes() == b.tobytes() for a, b in zip(got, ref))
        axes = list(rng.normal(size=(n, 3)))
        points = rng.normal(size=(n, 3)) * 10 ** rng.uniform(-8, 8)
        if i % 4 == 0:
            points[1] = points[0]  # a zero-length side takes its direction from the hinges
        got, ref = dh_from_spatial_joints(axes, list(points)), _dh_spatial_per_vertex(axes, list(points))
        assert all(np.array_equal(a, b) and a.tobytes() == b.tobytes() for a, b in zip(got, ref))


def test_numpy_batched_forms_are_bit_identical_to_per_row_calls():
    # the problem builders make one call per cell and rely on these: if a
    # numpy release breaks one, the builders' bits change with it
    rng = np.random.default_rng(2031)
    a = rng.normal(size=(5000, 3)) * 10 ** rng.uniform(-8, 8, size=(5000, 1))
    b = rng.normal(size=(5000, 3))
    a[::50, 1] = 0.0
    b[::70, 2] = -0.0
    per_row = np.array([np.dot(u, v) for u, v in zip(a, b)])
    assert np.vecdot(a, b).tobytes() == per_row.tobytes(), "np.vecdot differs from per-row np.dot"
    y, x = np.vecdot(a, b), np.vecdot(b, b) * rng.choice([-1.0, 1.0], size=5000)
    per_element = np.array([np.arctan2(v, u) for v, u in zip(y, x)])
    assert np.arctan2(y, x).tobytes() == per_element.tobytes(), "vector np.arctan2 differs per element"
    norms = np.array([np.linalg.norm(u) for u in a])
    assert np.sqrt(np.vecdot(a, a)).tobytes() == norms.tobytes(), "sqrt(vecdot) differs from np.linalg.norm"


def _recorded_passes(monkeypatch):
    """(angle vector, with Jacobian) of every walk around the loop, whether
    for the residual alone or for the residual and the Jacobian."""
    seen = []
    signed_product = LoopProblem._signed_product

    def recorder(self, angles, lines=None):
        seen.append((tuple(np.asarray(angles, dtype=float).tolist()), lines is not None))
        return signed_product(self, angles, lines)

    monkeypatch.setattr(LoopProblem, "_signed_product", recorder)
    return seen


def _perturbed_cell(kind):
    """A spherical or a Bennett cell, seeded a few hundredths of a radian
    from its pose."""
    if kind == "spherical":
        verts, _ = _cell_vertices(SphericalIsogramSpec(np.pi / 3, np.pi / 4, "plus"), 1.0)
        problem = problem_from_spherical_vertices(verts)
    else:
        from bennett8.isogram import BennettIsogramSpec, solve_bennett_isogram

        alpha, beta, k = 0.9, 1.4, 1.3
        spec = BennettIsogramSpec(alpha, beta, k * np.sin(alpha), k * np.sin(beta))
        base = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0, 1]))
        pose = solve_bennett_isogram(spec, base, np.zeros(3), 0.8)
        problem = problem_from_spatial_joints([h.d for h in pose.hinges], list(pose.vertices))
    start = np.array(problem.angles) + np.array([0.0, 0.04, -0.03, 0.05])
    return LoopProblem(problem.arcs, 0, tuple(start), problem.offsets)


@pytest.mark.parametrize("kind", ["spherical", "spatial"])
def test_no_angle_vector_is_evaluated_twice(monkeypatch, kind):
    # each Newton iterate and line-search trial is one walk around the loop,
    # which gives the residual and the Jacobian together; the nullity at the
    # solution is one more walk
    problem = _perturbed_cell(kind)
    seen = _recorded_passes(monkeypatch)
    sol = solve_loop(problem)
    assert sol.converged and sol.iterations > 2
    assert all(with_jacobian for _, with_jacobian in seen)
    assert len(seen) == len({angles for angles, _ in seen})
    del seen[:]
    assert jacobian_nullity(problem, sol) == 1
    assert seen == [(tuple(sol.angles), True)]


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
    from reference import phi2_from_dihedral

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


# Cells of spherical 8-bars where each cell is a spherical isogram (opposite
# arcs equal) within 0.1 rad of its flat pose, seeded 0.018-0.049 rad from the
# pose as the benchmark's oracle cross-check seeds them (seeds 73 ops 264 and
# 928, 810 op 46, 811 op 2504, 907 op 1696). A first step of MAX_STEP carried
# each seed to the antiparallelogram root beside the pose, 0.078-0.29 rad away.
FOLD_CELLS = {
    "73-264": (
        (1.0599991274887797, 0.4545920816613058, 1.0599991274887817, 0.45459208166130777),
        (-0.03877976692734579, -3.0730273213932238, -0.020672463937142147, -3.0724564530602643),
        (-0.03877976692734579, -3.090659085944266, -0.0387797669273514, -3.090659085944268),
    ),
    "73-928": (
        (0.9732981651915111, 0.3250745235713703, 0.973298165191511, 0.3250745235713701),
        (-0.06061689093379332, -3.045364293444153, -0.033514509336629035, -3.040305277425163),
        (-0.06061689093379332, -3.0694670881206667, -0.060616890933793306, -3.0694670881206667),
    ),
    "810-46": (
        (2.1077205592514545, 0.04830000803729559, 2.1077205592514536, 0.048300008037294714),
        (-0.1408045876375568, -3.019790703426376, -0.16435705829934438, -3.037243710617688),
        (-0.1408045876375568, -2.9883388714212624, -0.1408045876375563, -2.9883388714212615),
    ),
    "811-2504": (
        (0.47800166224479357, 1.5485498118551504, 0.47800166224479335, 1.5485498118551502),
        (0.09473589414816144, 2.9413606971667914, 0.04761397929437325, 2.9414839416384404),
        (0.09473589414816144, 2.9877697464380466, 0.09473589414816153, 2.9877697464380466),
    ),
    "907-1696": (
        (0.36496340118321047, 0.6308813347098767, 0.3649634011832104, 0.6308813347098765),
        (0.09599038044860744, 2.9978838571554993, 0.05120815464608349, 2.9915417530370725),
        (0.09599038044860744, 3.033322932883616, 0.09599038044861548, 3.033322932883614),
    ),
}


@pytest.mark.parametrize("cell", sorted(FOLD_CELLS))
def test_solve_loop_keeps_to_the_seeded_branch_next_to_an_isogram_fold(cell):
    arcs, start, truth = FOLD_CELLS[cell]
    assert np.linalg.norm(LoopProblem(arcs, 0, truth).residual(np.array(truth))) < 1e-11
    problem = LoopProblem(arcs, 0, start)
    sol = solve_loop(problem)
    assert sol.converged
    assert max(abs(a - b) for a, b in zip(sol.angles, truth)) <= 1e-8
    assert jacobian_nullity(problem, sol) == 1


def _lstsq_calls(monkeypatch):
    """The Jacobians np.linalg.lstsq is called with."""
    calls = []
    lstsq = np.linalg.lstsq

    def recorder(a, b, rcond=None):
        calls.append(np.array(a))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recorder)
    return calls


@pytest.mark.parametrize("rows", [3, 7])
def test_newton_step_of_three_free_joints_matches_lstsq(monkeypatch, rows):
    # well-conditioned Jacobians, spatial rows 3-6 scaled as lengths x 1e-8
    # to 1e8: the normal equations in Python floats, no lstsq call
    calls = _lstsq_calls(monkeypatch)
    rng = np.random.default_rng(2032 + rows)
    checked = 0
    while checked < 500:
        jac = rng.normal(size=(rows, 3))
        jac[3:] *= 10 ** rng.uniform(-8, 8)
        if np.linalg.cond(jac) > 100:
            continue
        checked += 1
        r = rng.normal(size=rows) * 10 ** rng.uniform(-12, 0)
        ref = np.linalg.lstsq(jac, r, rcond=None)[0]
        del calls[:]
        step = np.array(_newton_step([tuple(c) for c in jac.T.tolist()], r.tolist()))
        assert not calls
        assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("rows", [3, 7])
def test_newton_step_with_parallel_columns_takes_lstsq(monkeypatch, rows):
    # two equal columns: the Gram determinant is below its bound, and the
    # step is lstsq's minimum-norm solution
    calls = _lstsq_calls(monkeypatch)
    rng = np.random.default_rng(2034 + rows)
    for _ in range(20):
        jac = rng.normal(size=(rows, 3))
        jac[:, 2] = jac[:, 1]
        r = rng.normal(size=rows)
        del calls[:]
        step = _newton_step([tuple(c) for c in jac.T.tolist()], r.tolist())
        assert len(calls) == 1 and np.array_equal(calls[0], jac)
        assert step == np.linalg.lstsq(jac, r, rcond=None)[0].tolist()
        assert step[1] == pytest.approx(step[2], rel=1e-12)


def test_solve_loop_with_four_free_joints_converges(monkeypatch):
    # a spherical pentagon: three residuals in four free joints, each Newton
    # step lstsq's minimum-norm solution
    calls = _lstsq_calls(monkeypatch)
    rng = np.random.default_rng(2036)
    for _ in range(20):
        verts = rng.normal(size=(5, 3))
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
        problem = problem_from_spherical_vertices(list(verts))
        start = np.array(problem.angles) + np.append(0.0, rng.uniform(-0.03, 0.03, size=4))
        seeded = LoopProblem(problem.arcs, 0, tuple(start))
        sol = solve_loop(seeded)
        assert sol.converged and sol.residual_norm < 1e-11
        assert sol.angles[0] == problem.angles[0]
        assert np.linalg.norm(seeded.residual(sol.angles)) < 1e-11
        assert max(abs(a - b) for a, b in zip(sol.angles, problem.angles)) < 0.1
    assert calls and all(jac.shape == (3, 4) for jac in calls)
