"""Command-line front end.

Subcommands: validate, pose, sweep, verify, derive. Exit codes: 0 success /
all checks passed, 1 validation failure, 2 verification failure. Errors go
to standard error as one-line JSON diagnostics.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import linkage, scene
from .errors import ClosureFailure, CollapsedPose, DegenerateBranch, InvalidSpec, ParallelLines
from .isogram import (
    SphericalIsogramSpec,
    solve_bennett_isogram,
    solve_spherical_isogram,
)
from .linkage import EightBarSpec, SpatialEightBarSpec
from .scene import format_float
from .screws import OrientedLine
from .sphere import OrientedGreatCircle, SpherePoint

_VALIDATION_ERRORS = (InvalidSpec, DegenerateBranch, ValueError, OSError)


def _fail(exc: Exception, code: int) -> int:
    diag = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(diag), file=sys.stderr)
    return code


def _normalized_dump(spec) -> dict:
    v = linkage.validate_spec(spec)
    doc = scene.dump_spec(linkage.derive_spec(spec))
    spatial = isinstance(v, linkage.ValidatedSpatial)
    ang = v.angular if spatial else v
    derived = {f"alpha{k}": a for k, a in enumerate(ang.alphas, start=1)}
    derived.update(c21=ang.c21, c32=ang.c32, c31=ang.c31)
    if spatial:
        derived.update({f"modulus{k}": m for k, m in enumerate(v.moduli, start=1)})
    doc["derived"] = derived
    return doc


def _validate_any(spec) -> dict:
    """Normalized dump for 8-bar specs; cell specs just echo after their
    constructor checks ran."""
    if isinstance(spec, (EightBarSpec, SpatialEightBarSpec)):
        return _normalized_dump(spec)
    return scene.dump_spec(spec)


def cmd_validate(args) -> int:
    try:
        spec = scene.load_spec(args.spec)
        doc = _validate_any(spec)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)
    print(scene.dumps_json(doc))
    return 0


def cmd_pose(args) -> int:
    try:
        if args.segments < 3:
            raise ValueError(f"--segments must be at least 3, got {args.segments}")
        spec = scene.load_spec(args.spec)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)
    try:
        if isinstance(spec, EightBarSpec):
            pose = linkage.assemble_spherical(spec, args.phi)
        elif isinstance(spec, SpatialEightBarSpec):
            pose = linkage.assemble_spatial(spec, args.phi)
        elif isinstance(spec, SphericalIsogramSpec):
            g0 = OrientedGreatCircle(np.array([0.0, 0.0, 1.0]))
            pose = solve_spherical_isogram(spec, g0, SpherePoint.of(1.0, 0.0, 0.0), args.phi)
        else:
            base = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0.0, 1.0]))
            pose = solve_bennett_isogram(spec, base, np.zeros(3), args.phi)
        doc = scene._scene(pose, args.segments)
    # ParallelLines is a ValueError, but at a pose it fails verification
    except (ClosureFailure, CollapsedPose, ParallelLines) as exc:
        return _fail(exc, 2)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)
    text, obj = scene._scene_texts(doc, bool(args.obj))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        # a nan is the worst residual, as verify reads it
        worst = np.max(list(doc["residuals"].values()), initial=0.0)
        print(f"scene written to {args.out}; worst residual {format_float(worst)}")
    else:
        print(text)
    if args.obj:
        with open(args.obj, "w", encoding="utf-8") as fh:
            fh.write(obj)
    return 0


def _sweep_columns(v, phis) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    """The sweep CSV of a design over phis in dumps_csv's column form: the
    header, the (N, 44) numbers (phi1, the points' x, y, z per key, the
    family residuals), the mask of their empty cells, and each row's error
    text."""
    table = linkage._sweep_table(v, phis)
    # the keys in JOINT_KEYS order, which is sorted
    point_keys = linkage.HINGE_KEYS if isinstance(v, linkage.ValidatedSpatial) else linkage.JOINT_KEYS
    header = ["phi1"]
    for key in point_keys:
        header += [f"{key}_x", f"{key}_y", f"{key}_z"]
    header += [f"res_{k}" for k in linkage.FAMILIES]
    header.append("error")
    # the grid's (3, 12, N) points as N rows of x, y, z per key
    grid = table.grid
    points = grid.points.transpose(2, 1, 0).reshape(len(grid.phi1), -1)
    numbers = np.concatenate([grid.phi1[:, None], points, table.families], axis=1)
    empty = np.concatenate([
        np.zeros((len(grid.phi1), 1), dtype=bool),
        np.repeat(table.failed[:, None], points.shape[1], axis=1),
        table.empty,
    ], axis=1)
    return header, numbers, empty, [text or "" for text in table.errors]


def cmd_sweep(args) -> int:
    try:
        spec = scene.load_spec(args.spec)
        if not isinstance(spec, (EightBarSpec, SpatialEightBarSpec)):
            raise InvalidSpec("sweep expects a spherical8 or spatial8 spec")
        v = linkage.validate_spec(spec)
        grid = linkage.phi_grid(args.phi_from, args.phi_to, args.samples, args.uniform_angle)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)
    header, numbers, empty, texts = _sweep_columns(v, grid)
    text = scene.dumps_csv(header, numbers, empty, texts)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"{len(texts)} samples written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    try:
        # written so that nan fails too
        if not args.tol > 0:
            raise ValueError(f"--tol must be > 0, got {args.tol}")
        spec = scene.load_spec(args.spec)
        if not isinstance(spec, (EightBarSpec, SpatialEightBarSpec)):
            raise InvalidSpec("verify expects a spherical8 or spatial8 spec")
        v = linkage.validate_spec(spec)
        grid = linkage.phi_grid(-np.pi, np.pi, args.phi_grid)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)

    table = linkage._sweep_table(v, grid)
    # each family's worst value over the cells that hold one; a nan is the
    # worst value, and fails
    worst = np.where(table.empty, 0.0, table.families).max(axis=0).tolist()
    shown = (~table.empty.all(axis=0)).tolist()
    lines = [
        f"{'PASS' if value < args.tol else 'FAIL'} {key:<22} worst {format_float(value)}"
        for key, value, show in sorted(zip(linkage.FAMILIES, worst, shown)) if show
    ]
    # one degree of freedom is gated at regular poses; at the aligned poses
    # the spherical linkage has nullity 3 (the spatial one keeps 1)
    regular = np.flatnonzero(table.failed | ~table.grid.aligned)
    mob = linkage.mobility_check(table.samples(regular[:: max(1, len(regular) // 5)]))
    mob_status = "PASS" if mob and all(m.status == "ok" and m.nullity == 1 for m in mob) else "FAIL"
    nullities = sorted({m.nullity for m in mob if m.status == 'ok'})
    lines.append(f"{mob_status} {'mobility':<22} nullities {nullities}")
    lines += [
        f"FAIL assembly             phi={phi1:.6g}: {error}"
        for phi1, error in zip(table.phis, table.errors) if error is not None
    ]
    print("\n".join(lines))
    # the exit code is what the lines say: any FAIL is a verification failure
    return 2 if any(line.startswith("FAIL") for line in lines) else 0


def cmd_derive(args) -> int:
    try:
        spec = scene.load_spec(args.spec)
        if isinstance(spec, (EightBarSpec, SpatialEightBarSpec)):
            completed = linkage.derive_spec(spec)
        else:
            completed = spec  # cell specs carry no derivable fields
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)
    print(scene.dumps_json(scene.dump_spec(completed)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bennett8",
        description="Construct, sweep and verify the spherical and spatial 8-bar linkages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a spec file and print its normalized form")
    p.add_argument("spec")

    p = sub.add_parser("pose", help="assemble one pose and emit a scene file")
    p.add_argument("spec")
    p.add_argument("--phi", type=float, required=True, help="driving angle in radians")
    p.add_argument("--segments", type=int, default=128, help="polyline segments, at least 3: a circle gets "
                   "segments + 1 points (first = last), a line gets segments points")
    p.add_argument("--out", help="write the scene JSON here instead of stdout")
    p.add_argument("--obj", help="also write an OBJ polyline export")

    p = sub.add_parser("sweep", help="sample poses over an angle range into CSV")
    p.add_argument("spec")
    p.add_argument("--from", dest="phi_from", type=float, required=True)
    p.add_argument("--to", dest="phi_to", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument(
        "--uniform-angle",
        action="store_true",
        help="space samples uniformly in phi instead of tan(phi/2)",
    )

    p = sub.add_parser("verify", help="run the invariant families over an angle grid")
    p.add_argument("spec")
    p.add_argument("--phi-grid", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("derive", help="fill in derived spec fields (beta3, branch, offsets)")
    p.add_argument("spec")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    # the parser is built once per process; the command is looked up by name
    # at each call, so a rebinding of cmd_* (or of what they call) is seen
    args = _parser().parse_args(argv)
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
