"""Spec-file and scene-file serialization (used by the CLI).

Spec files are JSON with a schema_version field; all angles are radians and
unknown fields are rejected. Scene files list every bar with a sampled
polyline, every joint with coordinates, and the pose's symmetry elements
under their customary labels (S1..S6, n, N, t1, t2 for the spherical
linkage; s1..s6, n, t for the spatial one).
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import InvalidSpec
from .isogram import (
    BennettIsogramPose,
    BennettIsogramSpec,
    SphericalIsogramPose,
    SphericalIsogramSpec,
    arm_joint_offset,
)
from .linkage import (
    EightBarPose,
    EightBarSpec,
    SpatialEightBarPose,
    SpatialEightBarSpec,
    halfturn_products_report,
    symmetry_report_spatial,
)
from .screws import OrientedLine, dual_angle
from .sphere import OrientedGreatCircle, spherical_distance

SCHEMA_VERSION = 1

_SPEC_FIELDS: dict[str, tuple[set[str], set[str]]] = {
    # kind -> (required numeric/branch fields, optional fields)
    "spherical8": (
        {"u1", "u2", "u3", "beta1", "beta2", "branch1", "branch2"},
        {"beta3", "branch3"},
    ),
    "spatial8": (
        {"u1", "u2", "u3", "beta1", "beta2", "branch1", "branch2", "a1", "a2"},
        {"beta3", "branch3", "b1", "b2", "b3"},
    ),
    "spherical-isogram": ({"alpha", "beta", "branch"}, set()),
    "bennett-isogram": ({"alpha_twist", "beta_twist", "a_len", "b_len"}, set()),
}

_BRANCH_FIELDS = {"branch", "branch1", "branch2", "branch3"}


def load_spec(path: str):
    """Parse and range-check a spec file; returns the matching spec object."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidSpec("spec file must contain a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidSpec(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    kind = raw.get("kind")
    if kind not in _SPEC_FIELDS:
        raise InvalidSpec(f"unknown kind {kind!r}; expected one of {sorted(_SPEC_FIELDS)}")
    required, optional = _SPEC_FIELDS[kind]
    fields = {k: v for k, v in raw.items() if k not in ("schema_version", "kind")}
    unknown = set(fields) - required - optional
    if unknown:
        raise InvalidSpec(f"unknown fields for kind {kind}: {sorted(unknown)}")
    missing = required - set(fields)
    if missing:
        raise InvalidSpec(f"missing required fields: {sorted(missing)}")
    for key, value in fields.items():
        if key in _BRANCH_FIELDS:
            if value not in ("plus", "minus"):
                raise InvalidSpec(f"{key} must be 'plus' or 'minus', got {value!r}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidSpec(f"{key} must be a number, got {value!r}")

    if kind == "spherical8":
        return EightBarSpec(**fields)
    if kind == "spatial8":
        return SpatialEightBarSpec(**fields)
    if kind == "spherical-isogram":
        return SphericalIsogramSpec(**fields)
    return BennettIsogramSpec(**fields)


def spec_kind(spec) -> str:
    if isinstance(spec, EightBarSpec):
        return "spherical8"
    if isinstance(spec, SpatialEightBarSpec):
        return "spatial8"
    if isinstance(spec, SphericalIsogramSpec):
        return "spherical-isogram"
    if isinstance(spec, BennettIsogramSpec):
        return "bennett-isogram"
    raise TypeError(f"not a spec: {type(spec).__name__}")


def dump_spec(spec) -> dict[str, Any]:
    """Spec object back to its JSON document form (None fields omitted)."""
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "kind": spec_kind(spec)}
    for key, value in vars(spec).items():
        if value is not None:
            doc[key] = value
    return doc


def _vec(v) -> list[float]:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _circle_polyline(circle: OrientedGreatCircle, segments: int) -> list[list[float]]:
    n = circle.n
    seed = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(n, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    ts = np.linspace(0.0, 2 * np.pi, segments + 1)
    return [_vec(np.cos(t) * e1 + np.sin(t) * e2) for t in ts]


def _line_polyline(line: OrientedLine, anchors, segments: int) -> list[list[float]]:
    foot = line.foot()
    params = [float(np.dot(np.asarray(p) - foot, line.d)) for p in anchors]
    lo, hi = (min(params), max(params)) if params else (-1.0, 1.0)
    span = max(hi - lo, 1e-6)
    lo -= 0.25 * span
    hi += 0.25 * span
    ts = np.linspace(lo, hi, max(segments, 2))
    return [_vec(foot + t * line.d) for t in ts]


def _circle_entry(label: str, circle: OrientedGreatCircle, segments: int) -> dict[str, Any]:
    return {
        "id": label,
        "type": "great_circle",
        "normal": _vec(circle.n),
        "polyline": _circle_polyline(circle, segments),
    }


def _line_entry(label: str, line: OrientedLine, anchors, segments: int) -> dict[str, Any]:
    return {
        "id": label,
        "type": "line",
        "direction": _vec(line.d),
        "moment": _vec(line.m),
        "polyline": _line_polyline(line, anchors, segments),
    }


def scene_from_pose(pose, segments: int = 128) -> dict[str, Any]:
    """Scene document for one pose of an 8-bar linkage or of a single cell:
    bars, joints, symmetry elements, residuals."""
    if isinstance(pose, EightBarPose):
        return _scene_spherical(pose, segments)
    if isinstance(pose, SpatialEightBarPose):
        return _scene_spatial(pose, segments)
    if isinstance(pose, SphericalIsogramPose):
        return _scene_spherical_cell(pose, segments)
    return _scene_bennett_cell(pose, segments)


def _scene_spherical(pose: EightBarPose, segments: int) -> dict[str, Any]:
    bars = [_circle_entry(f"g{i}", pose.g[i], segments) for i in range(4)]
    bars += [_circle_entry(f"h{j}", pose.h[j], segments) for j in range(4)]
    joints = [{"id": key, "position": _vec(p.v)} for key, p in pose.joints.items()]
    if pose.aligned:
        symmetry = None
        residuals: dict[str, float] = {"closure": pose.closure_residual}
    else:
        symmetry = {
            "centers": {f"S{k + 1}": _vec(c.v) for k, c in enumerate(pose.centers)},
            "circle_n": _circle_entry("n", pose.n_circle, segments),
            "pole_N": _vec(pose.n_pole.v),
            "t1": _circle_entry("t1", pose.t1, segments),
            "t2": _circle_entry("t2", pose.t2, segments),
        }
        residuals = dict(halfturn_products_report(pose))
        residuals["closure"] = pose.closure_residual
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "spherical8",
        "phi1": pose.phi[0],
        "aligned": pose.aligned,
        "bars": bars,
        "joints": joints,
        "symmetry": symmetry,
        "residuals": residuals,
    }


def _scene_spatial(pose: SpatialEightBarPose, segments: int) -> dict[str, Any]:
    verts = list(pose.vertices.values())
    bars = []
    for i in range(4):
        anchors = [pose.vertices[k] for k in pose.vertices if k[1] == str(i)]
        bars.append(_line_entry(f"g{i}", pose.g[i], anchors or verts, segments))
    for j in range(4):
        anchors = [pose.vertices[k] for k in pose.vertices if k[2] == str(j)]
        bars.append(_line_entry(f"h{j}", pose.h[j], anchors or verts, segments))
    joints = []
    for key, line in pose.hinges.items():
        joints.append(
            {
                "id": key,
                "position": _vec(pose.vertices[key]),
                "direction": _vec(line.d),
            }
        )
    if pose.aligned:
        symmetry = None
        residuals: dict[str, float] = {"closure": pose.closure_residual}
    else:
        symmetry = {
            "axes": {
                f"s{k + 1}": _line_entry(f"s{k + 1}", s, verts, segments)
                for k, s in enumerate(pose.axes)
            },
            "line_n": _line_entry("n", pose.n_line, verts, segments),
            "axis_t": _line_entry("t", pose.t_line, verts, segments),
        }
        residuals = dict(symmetry_report_spatial(pose))
        residuals["closure"] = pose.closure_residual
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "spatial8",
        "phi1": pose.phi[0],
        "aligned": pose.aligned,
        "bars": bars,
        "joints": joints,
        "symmetry": symmetry,
        "residuals": residuals,
    }


def _scene_spherical_cell(pose: SphericalIsogramPose, segments: int) -> dict[str, Any]:
    bars = [
        _circle_entry(label, circ, segments)
        for label, circ in zip(("basis", "arm_b", "coupler", "arm_a"), pose.side_circles)
    ]
    joints = [
        {"id": label, "position": _vec(p.v)} for label, p in zip(("A", "B", "C", "D"), pose.vertices)
    ]
    # side arcs against the design: alpha on base and coupler, the arm offset on the arms
    arm = abs(arm_joint_offset(pose.spec))
    expect = (pose.spec.alpha, arm, pose.spec.alpha, arm)
    verts = pose.vertices
    residual = max(
        abs(spherical_distance(verts[k], verts[(k + 1) % 4]) - e) for k, e in enumerate(expect)
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "spherical-isogram",
        "phi1": pose.phi1,
        "phi2": pose.phi2,
        "bars": bars,
        "joints": joints,
        "symmetry": None,
        "residuals": {"closure": residual},
    }


def _scene_bennett_cell(pose: BennettIsogramPose, segments: int) -> dict[str, Any]:
    verts = list(pose.vertices)
    bars = [
        _line_entry(label, line, verts, segments)
        for label, line in zip(("base", "arm_b", "coupler", "arm_a"), pose.side_lines)
    ]
    joints = [
        {"id": label, "position": _vec(v), "direction": _vec(h.d)}
        for label, v, h in zip(("A", "B", "C", "D"), pose.vertices, pose.hinges)
    ]
    # opposite hinges keep equal dual angles
    ang_ab, off_ab = dual_angle(pose.hinge_a, pose.hinge_b)
    ang_cd, off_cd = dual_angle(pose.hinge_c, pose.hinge_d)
    residual = max(abs(ang_ab - ang_cd), abs(off_ab - off_cd))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bennett-isogram",
        "phi1": pose.phi1,
        "phi2": pose.phi2,
        "bars": bars,
        "joints": joints,
        "symmetry": None,
        "residuals": {"closure": residual},
    }


def scene_to_obj(scene: dict[str, Any]) -> str:
    """Wavefront OBJ text with one polyline object per bar/symmetry element."""
    lines: list[str] = ["# bennett8 scene export"]
    index = 1

    def emit(label: str, polyline) -> None:
        nonlocal index
        lines.append(f"o {label}")
        start = index
        for p in polyline:
            lines.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
            index += 1
        chain = " ".join(str(k) for k in range(start, index))
        lines.append(f"l {chain}")

    for bar in scene["bars"]:
        emit(bar["id"], bar["polyline"])
    symmetry = scene.get("symmetry")
    if symmetry:
        for entry in symmetry.values():
            if isinstance(entry, dict) and "polyline" in entry:
                emit(entry["id"], entry["polyline"])
            elif isinstance(entry, dict):
                for sub in entry.values():
                    if isinstance(sub, dict) and "polyline" in sub:
                        emit(sub["id"], sub["polyline"])
    return "\n".join(lines) + "\n"


def format_float(x: float) -> str:
    return f"{x:.17g}"


def dumps_json(doc: Any) -> str:
    """Deterministic JSON text: sorted keys, and floats in their shortest
    round-trip form, which json.dumps writes already."""

    def default(obj):
        raise TypeError(f"not serializable: {type(obj).__name__}")

    return json.dumps(doc, sort_keys=True, indent=1, default=default)
