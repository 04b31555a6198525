"""Command-line front end.

Subcommands: validate, pose, sweep, verify, derive. Exit codes: 0 success /
all checks passed, 1 validation failure, 2 verification failure. Errors go
to standard error as one-line JSON diagnostics.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import linkage, scene
from .errors import ClosureFailure, CollapsedPose, DegenerateBranch, InvalidSpec
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
        doc = scene.scene_from_pose(pose, args.segments)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)
    except (ClosureFailure, CollapsedPose) as exc:
        return _fail(exc, 2)
    text = scene.dumps_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        worst = max(doc["residuals"].values()) if doc["residuals"] else 0.0
        print(f"scene written to {args.out}; worst residual {format_float(worst)}")
    else:
        print(text)
    if args.obj:
        with open(args.obj, "w", encoding="utf-8") as fh:
            fh.write(scene.scene_to_obj(doc))
    return 0


def _sweep_rows(v, grid):
    samples = linkage.sweep(v, grid)
    spatial = isinstance(v, linkage.ValidatedSpatial)
    family_keys = linkage.FAMILIES_SPATIAL if spatial else linkage.FAMILIES_SPHERICAL
    point_keys = list(linkage.HINGE_KEYS if spatial else linkage.JOINT_KEYS)
    point_keys.sort()
    header = ["phi1"]
    for key in point_keys:
        header += [f"{key}_x", f"{key}_y", f"{key}_z"]
    header += [f"res_{k}" for k in family_keys]
    header.append("error")
    rows = [header]
    for s in samples:
        row = [format_float(s.phi1)]
        if s.pose is None:
            row += [""] * (3 * len(point_keys))
        else:
            points = s.pose.vertices if spatial else {k: p.v for k, p in s.pose.joints.items()}
            for key in point_keys:
                row += [format_float(float(c)) for c in points[key]]
        for key in family_keys:
            row.append(format_float(s.families[key]) if s.families and key in s.families else "")
        row.append(s.error or "")
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    try:
        spec = scene.load_spec(args.spec)
        if not isinstance(spec, (EightBarSpec, SpatialEightBarSpec)):
            raise InvalidSpec("sweep expects a spherical8 or spatial8 spec")
        v = linkage.validate_spec(spec)
        grid = linkage.phi_grid(args.phi_from, args.phi_to, args.samples, args.uniform_angle)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)
    rows = _sweep_rows(v, grid)
    text = "\n".join(",".join(row) for row in rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"{len(rows) - 1} samples written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    try:
        spec = scene.load_spec(args.spec)
        if not isinstance(spec, (EightBarSpec, SpatialEightBarSpec)):
            raise InvalidSpec("verify expects a spherical8 or spatial8 spec")
        v = linkage.validate_spec(spec)
        grid = linkage.phi_grid(-np.pi, np.pi, args.phi_grid)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, 1)

    samples = linkage.sweep(v, grid)
    families: dict[str, float] = {}
    for s in samples:
        for key, val in (s.families or {}).items():
            families[key] = max(families.get(key, 0.0), val)
    # one degree of freedom is gated at regular poses; at the aligned poses
    # the spherical linkage has nullity 3 (the spatial one keeps 1)
    regular = [s for s in samples if s.pose is None or not s.pose.aligned]
    mob = linkage.mobility_check(regular[:: max(1, len(regular) // 5)])
    lines = [
        f"{'PASS' if families[key] < args.tol else 'FAIL'} {key:<22} worst {format_float(families[key])}"
        for key in sorted(families)
    ]
    mob_status = "PASS" if mob and all(m.status == "ok" and m.nullity == 1 for m in mob) else "FAIL"
    nullities = sorted({m.nullity for m in mob if m.status == 'ok'})
    lines.append(f"{mob_status} {'mobility':<22} nullities {nullities}")
    lines += [f"FAIL assembly             phi={s.phi1:.6g}: {s.error}" for s in samples if s.error]
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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pose", help="assemble one pose and emit a scene file")
    p.add_argument("spec")
    p.add_argument("--phi", type=float, required=True, help="driving angle in radians")
    p.add_argument("--segments", type=int, default=128, help="polyline samples per circle")
    p.add_argument("--out", help="write the scene JSON here instead of stdout")
    p.add_argument("--obj", help="also write an OBJ polyline export")
    p.set_defaults(func=cmd_pose)

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
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the invariant families over an angle grid")
    p.add_argument("spec")
    p.add_argument("--phi-grid", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="fill in derived spec fields (beta3, branch, offsets)")
    p.add_argument("spec")
    p.set_defaults(func=cmd_derive)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
