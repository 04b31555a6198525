"""Spec-file and scene-file serialization, and the text of every file the
CLI writes: scene JSON, OBJ and sweep CSV (used by the CLI).

Spec files are JSON with a schema_version field; all angles are radians and
unknown fields are rejected. Scene files list every bar with a sampled
polyline, every joint with coordinates, and the pose's symmetry elements
under their customary labels (S1..S6, n, N, t1, t2 for the spherical
linkage; s1..s6, n, t for the spatial one).
"""
from __future__ import annotations

import functools
import json
import math
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import InvalidSpec
from .isogram import (
    BennettIsogramPose,
    BennettIsogramSpec,
    SphericalIsogramPose,
    SphericalIsogramSpec,
    _length_unit,
    _pose_closure,
)
from .linkage import (
    HINGE_KEYS,
    JOINT_KEYS,
    EightBarPose,
    EightBarSpec,
    SpatialEightBarPose,
    SpatialEightBarSpec,
    halfturn_products_report,
    symmetry_report_spatial,
)
from .sphere import _as_unit

SCHEMA_VERSION = 1

# kind -> (spec class, fields a file must give, fields it may give); a
# spherical-isogram file must give its branch, which the class defaults
_KINDS: dict[str, tuple[type, set[str], set[str]]] = {
    "spherical8": (
        EightBarSpec,
        {"u1", "u2", "u3", "beta1", "beta2", "branch1", "branch2"},
        {"beta3", "branch3"},
    ),
    "spatial8": (
        SpatialEightBarSpec,
        {"u1", "u2", "u3", "beta1", "beta2", "branch1", "branch2", "a1", "a2"},
        {"beta3", "branch3", "b1", "b2", "b3"},
    ),
    "spherical-isogram": (SphericalIsogramSpec, {"alpha", "beta", "branch"}, set()),
    "bennett-isogram": (BennettIsogramSpec, {"alpha_twist", "beta_twist", "a_len", "b_len"}, set()),
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
    if kind not in _KINDS:
        raise InvalidSpec(f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    cls, required, optional = _KINDS[kind]
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
    return cls(**fields)


def spec_kind(spec) -> str:
    for kind, (cls, _, _) in _KINDS.items():
        if isinstance(spec, cls):
            return kind
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product, each row with the bits np.dot gives it (a
    row-wise sum rounds differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _circle_polylines(normals: np.ndarray, segments: int) -> np.ndarray:
    """(k, segments + 1, 3) points around the great circles of unit normals
    (k, 3), each from its own basis e1, e2 of the circle's plane."""
    seeds = np.where(np.abs(normals[:, 2:]) < 0.9, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = np.cross(normals, seeds)
    e1 /= np.sqrt(_dot(e1, e1))[:, None]
    e2 = np.cross(normals, e1)
    ts = np.linspace(0.0, 2 * np.pi, segments + 1)
    return np.cos(ts)[:, None] * e1[:, None] + np.sin(ts)[:, None] * e2[:, None]


def _line_polylines(d, m, anchors, mask, unit: float, segments: int) -> np.ndarray:
    """(k, max(segments, 2), 3) points along the lines of Pluecker
    coordinates d, m (k, 3): each spans the feet of its anchors (the rows of
    anchors (a, 3) that its row of mask (k, a) picks) and a quarter of that
    span past either end. The span is at least 1e-6 of the design's unit of
    length, so a scene scales with the design."""
    feet = np.cross(d, m)
    params = _dot(anchors - feet[:, None], d[:, None])
    lo = np.where(mask, params, np.inf).min(axis=1)
    hi = np.where(mask, params, -np.inf).max(axis=1)
    span = np.maximum(hi - lo, 1e-6 * unit)
    ts = np.linspace(lo - 0.25 * span, hi + 0.25 * span, max(segments, 2), axis=1)
    return feet[:, None] + ts[:, :, None] * d[:, None]


def _circle_entries(labels, normals: np.ndarray, segments: int) -> list[dict[str, Any]]:
    return [{"id": label, "type": "great_circle", "normal": n, "polyline": p}
            for label, n, p in zip(labels, normals.tolist(), _circle_polylines(normals, segments))]


def _line_entries(labels, lines: np.ndarray, anchors, mask, unit: float, segments: int) -> list[dict[str, Any]]:
    d, m = lines[:, :3], lines[:, 3:]
    polylines = _line_polylines(d, m, anchors, mask, unit, segments)
    return [{"id": label, "type": "line", "direction": dl, "moment": ml, "polyline": p}
            for label, dl, ml, p in zip(labels, d.tolist(), m.tolist(), polylines)]


def scene_from_pose(pose, segments: int = 128) -> dict[str, Any]:
    """Scene document for one pose of an 8-bar linkage or of a single cell:
    bars, joints, symmetry elements, residuals, in plain JSON values."""
    doc = _scene(pose, segments)
    for entry in _polyline_entries(doc):
        entry["polyline"] = entry["polyline"].tolist()
    return doc


def _scene(pose, segments: int) -> dict[str, Any]:
    """The scene document with each polyline an (n, 3) float array, which
    dumps_json and scene_to_obj write straight from the array. The CLI
    writes this form. A scene's polylines are built in one array pass: all
    its circles at once, or all its lines. As lists, a scene at 128
    segments holds one Python list per point, 1,400 to 2,100 of them;
    CPython's garbage collector counts each, so a pose call ran about two
    collections, and now and then a full one of 5 to 10 ms."""
    if isinstance(pose, EightBarPose):
        return _scene_spherical(pose, segments)
    if isinstance(pose, SpatialEightBarPose):
        return _scene_spatial(pose, segments)
    if isinstance(pose, SphericalIsogramPose):
        return _scene_spherical_cell(pose, segments)
    return _scene_bennett_cell(pose, segments)


def _document(kind: str, angles: dict[str, Any], bars, joints, symmetry, residuals) -> dict[str, Any]:
    """Scene document of any pose: the pose's angles (phi1, and aligned or
    phi2) sit next to the header every scene file shares."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **angles, "bars": bars, "joints": joints,
            "symmetry": symmetry, "residuals": residuals}


def _eightbar_document(pose, kind: str, bars, joints, symmetry, report) -> dict[str, Any]:
    """Scene document of an 8-bar pose. Its residuals are the symmetry report
    (none at the aligned poses), then the pose-level closure, incidence and
    largest cell residual, a nan if any is one."""
    residuals = {} if pose.aligned else dict(report(pose))
    residuals["closure"] = pose.closure_residual
    residuals["incidence"] = pose.incidence_residual
    residuals["cells"] = float(np.max(pose.cell_residuals))
    return _document(kind, {"phi1": pose.phi[0], "aligned": pose.aligned}, bars, joints, symmetry, residuals)


_BARS = ("g0", "g1", "g2", "g3", "h0", "h1", "h2", "h3")


def _scene_spherical(pose: EightBarPose, segments: int) -> dict[str, Any]:
    # the rows of g0..g3, h0..h3 and of n, t1, t2 (see linkage._Grid)
    circles = pose.row[:8] if pose.aligned else pose.row[[*range(8), 26, 27, 28]]
    entries = _circle_entries(_BARS + ("n", "t1", "t2"), circles[:, :3], segments)
    joints = [{"id": key, "position": p} for key, p in zip(JOINT_KEYS, pose.points.tolist())]
    symmetry = None if pose.aligned else {
        "centers": {f"S{k + 1}": c for k, c in enumerate(pose.row[20:26, :3].tolist())},
        "circle_n": entries[8],
        # N as SpherePoint normalizes it again
        "pole_N": _as_unit(pose.row[26, :3], "SpherePoint").tolist(),
        "t1": entries[9],
        "t2": entries[10],
    }
    return _eightbar_document(pose, "spherical8", entries[:8], joints, symmetry, halfturn_products_report)


def _scene_spatial(pose: SpatialEightBarPose, segments: int) -> dict[str, Any]:
    # bar g_i spans the vertices I_ij of any j, bar h_j those of any i, and
    # a symmetry element all twelve; the rows of g0..g3, h0..h3 and of
    # s1..s6, n, t (see linkage._Grid)
    lines = pose.row[:8] if pose.aligned else np.concatenate([pose.row[:8], pose.row[20:28]])
    mask = [[key[side] == i for key in HINGE_KEYS] for side in (1, 2) for i in "0123"]
    labels = _BARS + ("s1", "s2", "s3", "s4", "s5", "s6", "n", "t")
    entries = _line_entries(labels, lines, pose.points, mask + [[True] * len(HINGE_KEYS)] * (len(lines) - 8),
                            sum(pose.spec.a), segments)
    joints = [
        {"id": key, "position": p, "direction": d}
        for key, p, d in zip(HINGE_KEYS, pose.points.tolist(), pose.row[8:20, :3].tolist())
    ]
    symmetry = None if pose.aligned else {
        "axes": {entry["id"]: entry for entry in entries[8:14]},
        "line_n": entries[14],
        "axis_t": entries[15],
    }
    return _eightbar_document(pose, "spatial8", entries[:8], joints, symmetry, symmetry_report_spatial)


def _scene_spherical_cell(pose: SphericalIsogramPose, segments: int) -> dict[str, Any]:
    normals = np.array([c.n for c in pose.side_circles])
    bars = _circle_entries(("basis", "arm_b", "coupler", "arm_a"), normals, segments)
    joints = [
        {"id": label, "position": _vec(p.v)} for label, p in zip(("A", "B", "C", "D"), pose.vertices)
    ]
    residuals = {"closure": _pose_closure(pose)}
    return _document("spherical-isogram", {"phi1": pose.phi1, "phi2": pose.phi2}, bars, joints, None, residuals)


def _scene_bennett_cell(pose: BennettIsogramPose, segments: int) -> dict[str, Any]:
    lines = np.array([np.r_[line.d, line.m] for line in pose.side_lines])
    bars = _line_entries(("base", "arm_b", "coupler", "arm_a"), lines, np.array(pose.vertices),
                         np.ones((4, 4), dtype=bool), _length_unit(pose.spec), segments)
    joints = [
        {"id": label, "position": _vec(v), "direction": _vec(h.d)}
        for label, v, h in zip(("A", "B", "C", "D"), pose.vertices, pose.hinges)
    ]
    residuals = {"closure": _pose_closure(pose)}
    return _document("bennett-isogram", {"phi1": pose.phi1, "phi2": pose.phi2}, bars, joints, None, residuals)


def scene_to_obj(scene: dict[str, Any]) -> str:
    """Wavefront OBJ text with one polyline object per bar/symmetry element. Each coordinate is
    the scene JSON's text of it, its float64's shortest round-trip form, made once for both files.
    OBJ files written with %.17g (still used for CSV and printed values) differ only in that text."""
    return _obj(scene, {})


def _obj(scene: dict[str, Any], vertices: dict[int, str]) -> str:
    chunks, index = ["# bennett8 scene export\n"], 1
    for entry in _polyline_entries(scene):
        polyline, n = entry["polyline"], len(entry["polyline"])
        if id(polyline) not in vertices:
            _coordinates(polyline, vertices)
        chunks.append(f"o {entry['id']}\n{vertices[id(polyline)]}l {' '.join(map(str, range(index, index + n)))}\n")
        index += n
    return "".join(chunks)


def _scene_texts(doc: dict[str, Any], obj: bool) -> tuple[str, str | None]:
    """dumps_json(doc) and, if obj, scene_to_obj(doc), both from one repr of each polyline coordinate."""
    return _json(doc, 0, vertices := {} if obj else None), _obj(doc, vertices) if obj else None


def _coordinates(polyline, vertices: dict[int, str] | None) -> tuple:
    """Coordinates for %s fields: floats (str is repr), or given vertices their repr, also kept there as v lines."""
    flat = tuple(np.asarray(polyline, dtype=np.float64).ravel().tolist())
    if vertices is not None:
        flat = tuple(map(repr, flat))
        vertices[id(polyline)] = ("v %s %s %s\n" * (len(flat) // 3)) % flat
    return flat


def _polyline_entries(scene: dict[str, Any]):
    """The entries of a scene that carry a polyline, in file order: the bars,
    then the symmetry elements, one level of nesting deep."""
    yield from scene["bars"]
    for entry in (scene.get("symmetry") or {}).values():
        if isinstance(entry, dict) and "polyline" in entry:
            yield entry
        elif isinstance(entry, dict):
            yield from (sub for sub in entry.values() if isinstance(sub, dict) and "polyline" in sub)


def format_float(x: float) -> str:
    return f"{x:.17g}"


# what makes RFC 4180 quote a cell
_CSV_QUOTED = re.compile('[,"\r\n]')


def dumps_csv(header: list[str], numbers, empty, texts) -> str:
    """CSV text of a header and N rows, each row its numbers, then one text
    cell. numbers is an (N, k) float array, and empty the (N, k) mask of the
    cells written empty. Numbers are written with %.17g, as format_float
    writes them, and all with one format: each distinct magnitude (float64
    bit pattern of |x|) once, a negative number as its magnitude after a
    minus sign, which is how %.17g writes it (so -0 too; a nan is written
    nan whatever its sign). A text cell that holds a comma, a double quote
    or a line break is written in double quotes, its own doubled, as
    RFC 4180 writes it."""
    numbers = np.asarray(numbers, dtype=np.float64)
    bits, where = np.unique(np.abs(numbers).view(np.int64).ravel(), return_inverse=True)
    words = np.array((("%.17g," * len(bits)) % tuple(bits.view(np.float64).tolist())).split(",")[:-1], dtype=object)
    # the words of the magnitudes, of the negative numbers, and the empty cell's
    words = np.concatenate([words, "-" + words, [""]])
    index = where.reshape(numbers.shape) + len(bits) * (np.signbit(numbers) & ~np.isnan(numbers))
    cells = words[np.where(empty, len(words) - 1, index)].tolist()
    lines = [",".join(header)]
    for row, text in zip(cells, texts):
        if text and _CSV_QUOTED.search(text):
            text = '"' + text.replace('"', '""') + '"'
        row.append(text)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def dumps_json(doc: Any) -> str:
    """Deterministic JSON text, the text of json.dumps(doc, sort_keys=True,
    indent=1): sorted keys, which must be strings, and floats in their
    shortest round-trip form. A list of finite floats, or of 3-float points,
    and an (n, 3) float array of finite values, are written with one format
    (a polyline in the coordinate text of scene_to_obj); strings go through
    encode_basestring_ascii, and every other value through json.dumps."""
    return _json(doc, 0, None)


def _block(items: list[str], level: int, brackets: str = "[]") -> str:
    """A JSON object or array of already written items, at an indent level."""
    inner = "\n" + " " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * level + brackets[1]


def _json(obj: Any, level: int, vertices: dict[int, str] | None) -> str:
    if type(obj) is float and math.isfinite(obj):
        return repr(obj)
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(type(key) is str for key in obj):
            raise TypeError("keys must be str")
        return _block([f"{encode_basestring_ascii(key)}: {_json(value, level + 1, vertices)}"
                       for key, value in sorted(obj.items())], level, "{}")
    if isinstance(obj, np.ndarray):  # an (n, 3) float polyline of _scene
        text = _floats_format(len(obj), level, 3) % _coordinates(obj, vertices)
        if "n" not in text:  # else a nan or inf, which the list form spells as JSON does
            return text
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        text = _json_floats(obj, level)
        return _block([_json(value, level + 1, vertices) for value in obj], level) if text is None else text
    return json.dumps(obj)


def _json_floats(items, level: int) -> str | None:
    """The JSON text of a list of finite floats, or of 3-float points, with
    one format of %s fields (a float's str is its repr); None otherwise."""
    types = set(map(type, items))
    if types == {float}:
        flat, width = items, 1
    elif types <= {list, tuple} and set(map(len, items)) == {3}:
        flat, width = tuple(chain.from_iterable(items)), 3
        if set(map(type, flat)) != {float}:
            return None
    else:
        return None
    text = _floats_format(len(items), level, width) % tuple(flat)
    # float.__repr__ spells only nan and inf with an n; JSON spells them NaN and Infinity
    return None if "n" in text else text


@functools.lru_cache(maxsize=None)
def _floats_format(n: int, level: int, width: int) -> str:
    field = "%s" if width == 1 else _block(["%s"] * width, level + 1)
    return _block([field] * n, level)
