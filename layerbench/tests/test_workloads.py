"""Failure accounting, determinism of the inputs, and the oracle's start points."""
import filecmp
import os
import time

import numpy as np
import pytest

import designs
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPECS = os.path.join(ROOT, "specs")
DEMOS = {
    "spherical": [os.path.join(SPECS, "spherical8_demo.json")],
    "spatial": [os.path.join(SPECS, "spatial8_demo.json")],
}


def _validated():
    from bennett8 import linkage, scene

    return {p: linkage.validate_spec(scene.load_spec(p)) for ps in DEMOS.values() for p in ps}


def _pose(tmp_path, kind, phi):
    runner = workloads.Runner("pose_export", str(tmp_path), _validated())
    return runner.run({"kind": kind, "spec": DEMOS[kind][0], "phi": phi}, time.perf_counter)


def test_untyped_zero_division_is_counted_with_layer_and_phi(tmp_path):
    res = _pose(tmp_path, "spatial", 1e-7)
    assert res.failed_items == 1
    (f,) = res.failures
    assert (f["class"], f["typed"], f["layer"], f["stage"]) == ("ZeroDivisionError", False, "screws", "raise")
    assert f["phi1"] == 1e-7


def test_typed_closure_failure_is_counted(tmp_path):
    res = _pose(tmp_path, "spatial", 0.003)
    (f,) = res.failures
    assert (f["class"], f["typed"], f["stage"]) == ("ClosureFailure", True, "exit")


def test_regular_pose_passes_its_checks(tmp_path):
    res = _pose(tmp_path, "spherical", 0.8)
    assert res.failures == [] and res.seconds > 0 and len(res.digest) == 64
    assert _pose(tmp_path, "spherical", 0.8).digest == res.digest


def _accept_all(doc, d=None):
    return True


def _oracle_phis(paths):
    return {kind: [[0.5, -1.0]] * len(ps) for kind, ps in paths.items()}


def test_same_seed_same_inputs_and_designs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    pa = designs.write_all(designs.generate(7, 3, SPECS, _accept_all, _accept_all)[0], str(a))
    pb = designs.write_all(designs.generate(7, 3, SPECS, _accept_all, _accept_all)[0], str(b))
    for x, y in zip(pa["spherical"] + pa["spatial"], pb["spherical"] + pb["spatial"]):
        assert filecmp.cmp(x, y, shallow=False)
    phis = _oracle_phis(pa)
    for w in workloads.WORKLOADS:
        for i in range(10):
            x, y = workloads.op_inputs(w, 7, i, pa, phis), workloads.op_inputs(w, 7, i, pb, phis)
            assert os.path.basename(x.pop("spec")) == os.path.basename(y.pop("spec")) and x == y
    assert workloads.op_inputs("pose_export", 7, 0, pa) != workloads.op_inputs("pose_export", 8, 0, pa)


def test_screen_rejections_are_drawn_again_and_counted():
    seen = []

    def screen(doc, d):
        seen.append(d)
        return len(seen) % 3 != 1  # reject the first draw of every third call

    docs, rejected = designs.generate(11, 4, SPECS, _accept_all, screen)
    assert [len(docs[k]) for k in workloads.KINDS] == [5, 5]
    assert sum(rejected.values()) == len(seen) - 8
    assert sorted(set(seen)) == [1, 2, 3, 4]


def test_screen_rejects_a_design_the_program_cannot_close(tmp_path):
    """Seed 309 of the suite's distribution draws, as its 9th random spatial
    design, one whose poses miss the absolute closure tolerance 1e-9 at most
    regular angles (ROADMAP item 1). The screen keeps it out of the
    workloads; this test keeps the defect in view."""
    import worker

    load = worker.loader(str(tmp_path))
    docs, _ = designs.generate(309, 9, SPECS, worker.accepter(load), _accept_all)
    assert not workloads.closes_at_screen_angles(load(docs["spatial"][9]), "spatial")
    assert workloads.closes_at_screen_angles(load(docs["spatial"][8]), "spatial")


def test_pose_export_mix_is_fixed_per_cycle():
    phis = [workloads.op_inputs("pose_export", 3, i, DEMOS)["phi"] for i in range(64)]
    aligned = [p in (0.0, np.pi) for p in phis]
    # every cycle of 8 ops: one aligned pose per linkage kind, at ops 6 and 7
    assert all(sum(aligned[k : k + 8]) == 2 for k in range(0, 64, 8))
    assert [aligned[k] for k in (6, 7)] == [True, True]
    assert {phis[k] for k in range(6, 64, 8)} == {0.0, np.pi}
    margin = workloads.ALIGNED_MARGIN
    assert all(margin < abs(p) < np.pi - margin for p, al in zip(phis, aligned) if not al)


def test_oracle_poses_are_well_conditioned():
    from bennett8 import linkage, oracle

    v = _validated()[DEMOS["spatial"][0]]
    phis = workloads.oracle_poses(5, "spatial", 0, v)
    assert len(phis) == workloads.ORACLE_POSES
    assert phis == workloads.oracle_poses(5, "spatial", 0, v)
    for phi in phis:
        problems = workloads.cell_problems(linkage, oracle, linkage.assemble_spatial(v, phi), True)
        assert min(workloads.free_sigma_min(p) for p in problems) >= workloads.MIN_CELL_SIGMA


def test_oracle_start_point_stays_on_the_branch():
    """Spherical demo, phi1 = -0.264, cell (R13, R23, R20, R10): a joint sits
    0.044 from its folded value, inside the +-0.05 noise. The perturbation is
    bounded by half that distance, so Newton returns to the analytic pose."""
    from bennett8 import linkage, oracle

    v = _validated()[DEMOS["spherical"][0]]
    pose = linkage.assemble_spherical(v, -0.264)
    cell = linkage.CELLS[3][0]
    assert cell == ("R13", "R23", "R20", "R10")
    problem = oracle.problem_from_spherical_vertices([pose.joints[k].v for k in cell])
    truth = np.array(problem.angles)
    assert 0.04 < workloads.fold_distance(truth) < 0.05
    amp = min(workloads.ORACLE_NOISE, 0.5 * workloads.fold_distance(truth))
    for corner in ([1, 1, 1, 1], [-1, -1, -1, -1], [1, -1, 1, -1], [-1, 1, -1, 1]):
        start = truth + amp * np.array(corner, dtype=float)
        start[0] = truth[0]
        sol = oracle.solve_loop(oracle.LoopProblem(problem.arcs, 0, tuple(start)))
        assert sol.converged
        assert np.max(np.abs(workloads.wrap(np.array(sol.angles) - truth))) < workloads.ORACLE_TOL


def test_oracle_op_passes_on_the_demo_pose(tmp_path):
    runner = workloads.Runner("oracle_crosscheck", str(tmp_path), _validated())
    phis = {kind: [workloads.oracle_poses(0, kind, 0, _validated()[DEMOS[kind][0]])] for kind in DEMOS}
    for i in range(4):
        res = runner.run(workloads.op_inputs("oracle_crosscheck", 0, i, DEMOS, phis), time.perf_counter)
        assert res.failures == [] and res.seconds > 0
