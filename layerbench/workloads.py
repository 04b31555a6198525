"""The workloads: the inputs of op i drawn from the seed, the op itself, and
the check of its output.

Every op returns an OpResult; nothing an op raises escapes. A failure is an
op (for sweep_full: a CSV row) that raised, exited non-zero, or failed its
output check. Each failure records its class, the innermost layer it came
from and phi1.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from layers import layer_of

WORKLOADS = ("verify_random", "sweep_full", "pose_export", "oracle_crosscheck")
KINDS = ("spherical", "spatial")
# Ops per cycle. The timed loop stops only at a cycle boundary, so every run
# has the same mix of linkage kinds (and, for pose_export, of aligned poses),
# whatever its length.
CYCLE = {"verify_random": 2, "sweep_full": 2, "pose_export": 8, "oracle_crosscheck": 2}
ITEM = {"sweep_full": "row"}
RESIDUAL_TOL = 1e-8
ORACLE_TOL = 1e-8
ORACLE_NOISE = 0.05
# Random driving angles keep this far from the aligned poses 0 and +-pi, as
# `bennett8 verify` keeps its grid 0.15 from +-pi. Nearer, the program fails
# today (ROADMAP item 1); layerbench/tests pin those failures.
ALIGNED_MARGIN = 0.15
# The oracle solves to a closure residual of 1e-11, which bounds its angle
# error by 1e-11 / (least singular value of the loop's Jacobian in its free
# joints). An oracle pose is used only if that bound is within ORACLE_TOL in
# all six cells, so the comparison with the analytic angles means something.
MIN_CELL_SIGMA = 1e-3
ORACLE_POSES = 4  # driving angles per design in oracle_crosscheck
# A random design is used only if the program assembles it at each of these:
# the ends of the pose and oracle range (+-ALIGNED_MARGIN), the ends of the
# sweep grid (+-3.1) and two angles in between on each side.
SCREEN_ANGLES = (-3.1, -2.0, -1.0, -ALIGNED_MARGIN, ALIGNED_MARGIN, 1.0, 2.0, 3.1)
SWEEP_ARGS = ("--from", "-3.1", "--to", "3.1", "--samples", "101")
SWEEP_ROWS = 101


@dataclass
class OpResult:
    kind: str
    items: int = 1
    failures: list = field(default_factory=list)
    failed_items: int = 0
    seconds: float = 0.0
    digest: str = ""


def op_inputs(workload: str, seed: int, i: int, designs: dict, oracle_phis=None) -> dict:
    """Inputs of op i; a function of (seed, i) and the prepared designs only,
    so any prefix of the op sequence is the same in every run with that seed.
    `oracle_phis[kind][d]` are the driving angles `oracle_poses` chose for
    design d of that kind."""
    kind = KINDS[i % 2]
    specs = designs[kind]
    d = (i // 2) % len(specs)
    inputs = {"kind": kind, "spec": specs[d]}
    rng = np.random.default_rng([seed, i])
    if workload == "pose_export":
        if (i // 2) % 4 == 3:
            # the aligned poses themselves, where the probe-based path runs
            inputs["phi"] = (0.0, math.pi)[(i // 8) % 2]
        else:
            inputs["phi"] = regular_angle(rng)
    elif workload == "oracle_crosscheck":
        phis = oracle_phis[kind][d]
        inputs["phi"] = phis[(i // 2 // len(specs)) % len(phis)]
        inputs["noise"] = rng.uniform(-1.0, 1.0, size=(6, 4)).tolist()
    return inputs


def regular_angle(rng) -> float:
    """Uniform on (-pi, pi) less ALIGNED_MARGIN around 0 and +-pi."""
    while True:
        phi = float(rng.uniform(-math.pi + ALIGNED_MARGIN, math.pi - ALIGNED_MARGIN))
        if abs(phi) > ALIGNED_MARGIN:
            return phi


def closes_at_screen_angles(validated_spec, kind: str) -> bool:
    """Whether the program assembles a design at every SCREEN_ANGLES."""
    from bennett8 import linkage

    assemble = linkage.assemble_spatial if kind == "spatial" else linkage.assemble_spherical
    try:
        for phi in SCREEN_ANGLES:
            assemble(validated_spec, phi)
    except Exception:
        return False
    return True


def oracle_poses(seed: int, kind: str, d: int, validated_spec, count: int = ORACLE_POSES,
                 max_draws: int = 16):
    """`count` regular driving angles of design d of a kind whose six cells
    are all well conditioned (MIN_CELL_SIGMA), drawn from (seed, kind, d);
    None if `max_draws` draws do not give that many."""
    from bennett8 import linkage, oracle

    spatial = kind == "spatial"
    assemble = linkage.assemble_spatial if spatial else linkage.assemble_spherical
    rng = np.random.default_rng([seed, KINDS.index(kind), d])
    phis = []
    for _ in range(max_draws):
        phi = regular_angle(rng)
        problems = cell_problems(linkage, oracle, assemble(validated_spec, phi), spatial)
        if min(free_sigma_min(p) for p in problems) >= MIN_CELL_SIGMA:
            phis.append(phi)
            if len(phis) == count:
                return phis
    return None


def cell_problems(linkage, oracle, pose, spatial: bool) -> list:
    """The oracle's loop problems of the six faces in linkage.CELLS; their
    angles are the pose's analytic joint angles."""
    problems = []
    for cell in linkage.CELLS:
        if spatial:
            keys = [f"I{k[1]}{k[2]}" for k in cell[0]]
            problems.append(oracle.problem_from_spatial_joints(
                [pose.hinges[k].d for k in keys], [pose.vertices[k] for k in keys]
            ))
        else:
            problems.append(oracle.problem_from_spherical_vertices([pose.joints[k].v for k in cell[0]]))
    return problems


def free_sigma_min(problem, step: float = 1e-6) -> float:
    """Least singular value of the central-difference Jacobian of the
    closure residual in the free (non-driving) joints at the problem's angles."""
    x0 = np.array(problem.angles, dtype=float)
    cols = []
    for k in range(len(x0)):
        if k == problem.driving_index:
            continue
        xp, xm = x0.copy(), x0.copy()
        xp[k] += step
        xm[k] -= step
        cols.append((problem.residual(xp) - problem.residual(xm)) / (2 * step))
    return float(np.linalg.svd(np.column_stack(cols), compute_uv=False)[-1])


class Runner:
    """Runs ops against the bennett8 modules it is given. Functions are
    looked up on the modules at call time, so installed wrappers are used."""

    def __init__(self, workload: str, workdir: str, validated: dict):
        from bennett8 import cli, errors, linkage, oracle

        self.workload = workload
        self.cli, self.linkage, self.oracle = cli, linkage, oracle
        self.typed = tuple(
            obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)
        )
        self.validated = validated
        self.obj_path = os.path.join(workdir, "pose.obj")

    def run(self, inputs: dict, clock) -> OpResult:
        res = OpResult(kind=inputs["kind"])
        op = getattr(self, "_" + self.workload)
        try:
            op(inputs, res, clock)
        except (Exception, SystemExit) as exc:  # an op must never abort the run
            res.seconds = 0.0  # no latency for a failed op
            self._raised(res, exc, inputs.get("phi"))
            res.digest = _sha(f"raise {type(exc).__name__}: {exc}")
        if self.workload != "sweep_full":
            res.failed_items = min(1, len(res.failures))
        elif any(f["stage"] != "row" for f in res.failures):
            res.failed_items = res.items  # the sweep as a whole failed
        else:
            res.failed_items = len(res.failures)
        return res

    # -- failure records -------------------------------------------------

    def _raised(self, res: OpResult, exc: BaseException, phi) -> None:
        layer, phi1 = innermost(exc)
        typed = isinstance(exc, self.typed)
        self._failure(res, type(exc).__name__, layer, phi if phi1 is None else phi1, "raise", typed)

    @staticmethod
    def _failure(res, cls, layer, phi1, stage, typed=None, detail=None):
        """Record a failure; `typed` says whether an exception class came
        from bennett8.errors, and is None for a failed output check."""
        rec = {"class": cls, "typed": typed, "layer": layer, "phi1": phi1, "stage": stage}
        if detail:
            rec["detail"] = detail
        res.failures.append(rec)

    def _call_cli(self, argv, res: OpResult, clock):
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(argv))
        res.seconds = clock() - t0
        return rc, out.getvalue(), err.getvalue()

    def _exit_failure(self, res, rc, err_text, phi1):
        try:
            cls = json.loads(err_text.strip().splitlines()[-1])["error"]
        except (ValueError, KeyError, IndexError, TypeError):
            cls = f"exit{rc}"
        typed = any(t.__name__ == cls for t in self.typed)
        # the cli caught the exception, so only a traced run sees its layer
        self._failure(res, cls, "cli", phi1, "exit", typed)

    # -- the ops ----------------------------------------------------------

    def _verify_random(self, inputs, res, clock):
        rc, out, err = self._call_cli(("verify", inputs["spec"]), res, clock)
        res.digest = _sha(f"{rc}\n{out}\n{err}")
        lines = out.splitlines()
        if rc != 0 or not lines or not all(line.startswith("PASS") for line in lines):
            bad = [line for line in lines if not line.startswith("PASS")]
            self._failure(res, "check:verify", None, None, "check", detail=" | ".join(bad)[:300])

    def _sweep_full(self, inputs, res, clock):
        rc, out, err = self._call_cli(("sweep", inputs["spec"], *SWEEP_ARGS), res, clock)
        res.items = SWEEP_ROWS
        res.digest = _sha(f"{rc}\n{out}\n{err}")
        if rc != 0:
            self._exit_failure(res, rc, err, None)
            return
        rows = [line.split(",") for line in out.splitlines()]
        header, body = rows[0], rows[1:]
        if len(body) != SWEEP_ROWS:
            self._failure(res, "check:rows", None, None, "check", detail=f"{len(body)} rows")
            return
        res_cols = [k for k, name in enumerate(header) if name.startswith("res_")]
        for row in body:
            phi1 = float(row[0])
            if row[-1]:
                cls = row[-1].split(":", 1)[0]
                typed = any(t.__name__ == cls for t in self.typed)
                self._failure(res, cls, "linkage.sweep", phi1, "row", typed)
                continue
            worst = max((float(row[k]) for k in res_cols if row[k]), default=0.0)
            if not worst < RESIDUAL_TOL:
                self._failure(res, "check:residual", None, phi1, "row", detail=repr(worst))

    def _pose_export(self, inputs, res, clock):
        phi = inputs["phi"]
        if os.path.exists(self.obj_path):
            os.remove(self.obj_path)
        # --phi=<x>: argparse reads a separate "-1e-07" as an option
        argv = ("pose", inputs["spec"], f"--phi={phi!r}", "--segments", "128", "--obj", self.obj_path)
        rc, out, err = self._call_cli(argv, res, clock)
        obj = ""
        if os.path.exists(self.obj_path):
            with open(self.obj_path, encoding="utf-8") as fh:
                obj = fh.read()
        res.digest = _sha(f"{rc}\n{out}\n{err}\n{obj}")
        if rc != 0:
            self._exit_failure(res, rc, err, phi)
            return
        worst = max(json.loads(out)["residuals"].values())
        if not worst < RESIDUAL_TOL:
            self._failure(res, "check:residual", None, phi, "check", detail=repr(worst))
        elif not obj.strip():
            self._failure(res, "check:obj", None, phi, "check")

    def _oracle_crosscheck(self, inputs, res, clock):
        linkage, oracle = self.linkage, self.oracle
        phi = inputs["phi"]
        spec = self.validated[inputs["spec"]]
        spatial = inputs["kind"] == "spatial"
        t0 = clock()
        pose = (linkage.assemble_spatial if spatial else linkage.assemble_spherical)(spec, phi)
        digest = []
        problems = cell_problems(linkage, oracle, pose, spatial)
        for cell, problem, noise in zip(linkage.CELLS, problems, inputs["noise"]):
            truth = np.array(problem.angles)
            amp = min(ORACLE_NOISE, 0.5 * fold_distance(truth))
            start = truth + amp * np.array(noise)
            start[problem.driving_index] = truth[problem.driving_index]
            seeded = oracle.LoopProblem(problem.arcs, problem.driving_index, tuple(start), problem.offsets)
            sol = oracle.solve_loop(seeded)
            jump = float(np.max(np.abs(wrap(np.array(sol.angles) - truth))))
            nullity = oracle.jacobian_nullity(seeded, sol) if sol.converged else None
            digest.append(f"{sol.angles!r} {sol.converged} {nullity}")
            if not (sol.converged and jump <= ORACLE_TOL and nullity == 1):
                self._failure(
                    res, "check:oracle", None, phi, "check",
                    detail=f"cell {cell[0]}: converged {sol.converged}, jump {jump:.3g}, nullity {nullity}",
                )
        res.seconds = clock() - t0
        res.digest = _sha("\n".join(digest))


def fold_distance(angles) -> float:
    """Distance of a loop from its folded pose: the least distance of any
    joint angle to 0 or pi."""
    a = np.abs(np.asarray(angles, dtype=float))
    return float(np.min(np.abs(a - np.pi * np.round(a / np.pi))))


def wrap(x):
    return (x + np.pi) % (2 * np.pi) - np.pi


def innermost(exc: BaseException):
    """(layer, phi1) where an exception was raised: the layer of the innermost
    public bennett8 function on its traceback, and the innermost phi1 local."""
    layer, phi1 = None, None
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        code = frame.f_code
        fn = frame.f_globals.get(code.co_name)
        fn = getattr(fn, "__wrapped__", fn)
        if getattr(fn, "__code__", None) is code:
            layer = layer_of(frame.f_globals.get("__name__", ""), code.co_name) or layer
        value = frame.f_locals.get("phi1")
        if isinstance(value, (int, float, np.floating)):
            phi1 = float(value)
    return layer, phi1


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
