"""Scene serialization: exact round trip and byte-identical reruns."""
import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest

from bennett8 import linkage, scene
from bennett8.cli import main
from bennett8.errors import InvalidSpec
from bennett8.isogram import (
    BennettIsogramPose,
    BennettIsogramSpec,
    SphericalIsogramPose,
    SphericalIsogramSpec,
    solve_bennett_isogram,
    solve_spherical_isogram,
)
from bennett8.linkage import EightBarPose, EightBarSpec, assemble_spatial, assemble_spherical
from bennett8.screws import OrientedLine
from bennett8.sphere import OrientedGreatCircle, SpherePoint

from conftest import (
    random_driving_angle,
    random_eightbar_spec,
    random_isogram_spec,
    random_spatial_spec,
)
from reference import circle_polyline, line_polyline

SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "specs")
DEMOS = [
    "spherical8_demo.json",
    "spatial8_demo.json",
    "spherical_isogram_demo.json",
    "bennett_isogram_demo.json",
]


def _pose(spec, phi):
    if isinstance(spec, EightBarSpec):
        return assemble_spherical(spec, phi)
    if isinstance(spec, SphericalIsogramSpec):
        g0 = OrientedGreatCircle(np.array([0.0, 0.0, 1.0]))
        return solve_spherical_isogram(spec, g0, SpherePoint.of(1.0, 0.0, 0.0), phi)
    if isinstance(spec, BennettIsogramSpec):
        base = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        return solve_bennett_isogram(spec, base, np.zeros(3), phi)
    return assemble_spatial(spec, phi)


def _floats(doc):
    """Every float of a document, in sorted-key order."""
    if isinstance(doc, float):
        yield doc
    elif isinstance(doc, dict):
        for _key, value in sorted(doc.items()):
            yield from _floats(value)
    elif isinstance(doc, (list, tuple)):
        for value in doc:
            yield from _floats(value)


@pytest.mark.parametrize("demo", DEMOS)
def test_spec_kinds_round_trip(demo, tmp_path):
    # load_spec, spec_kind and dump_spec read one table of kinds: a demo
    # dumps back to its file, and the dump loads to an equal spec
    path = os.path.join(SPECS, demo)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    spec = scene.load_spec(path)
    assert scene.spec_kind(spec) == raw["kind"] and scene.dump_spec(spec) == raw
    again = tmp_path / "again.json"
    again.write_text(json.dumps(scene.dump_spec(spec)))
    reloaded = scene.load_spec(str(again))
    assert type(reloaded) is type(spec) and reloaded == spec


def test_spec_kind_rejects_what_is_not_a_spec():
    with pytest.raises(TypeError, match="^not a spec: object$"):
        scene.spec_kind(object())


@pytest.mark.parametrize(
    "drop, add, message",
    [
        ((), {"kind": "hexaflexagon"},
         "unknown kind 'hexaflexagon'; expected one of "
         "['bennett-isogram', 'spatial8', 'spherical-isogram', 'spherical8']"),
        # the class defaults the branch, but a file must give it
        (("branch",), {}, "missing required fields: ['branch']"),
        ((), {"gamma": 1.0}, "unknown fields for kind spherical-isogram: ['gamma']"),
        ((), {"branch": "both"}, "branch must be 'plus' or 'minus', got 'both'"),
    ],
)
def test_spec_diagnostics(tmp_path, drop, add, message):
    with open(os.path.join(SPECS, "spherical_isogram_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in drop:
        del doc[key]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**doc, **add}))
    with pytest.raises(InvalidSpec) as caught:
        scene.load_spec(str(path))
    assert str(caught.value) == message


@pytest.mark.parametrize("phi", [0.7, 0.0])
@pytest.mark.parametrize("demo", DEMOS)
def test_scene_json_round_trips_every_float(demo, phi):
    doc = scene.scene_from_pose(_pose(scene.load_spec(os.path.join(SPECS, demo)), phi), 16)
    back = json.loads(scene.dumps_json(doc))
    assert back == doc
    # bit for bit, signed zeros included
    bits = [float(x).hex() for x in _floats(doc)]
    assert [x.hex() for x in _floats(back)] == bits
    assert len(bits) > 100


@pytest.mark.parametrize("demo", ["spherical8_demo.json", "spatial8_demo.json"])
def test_pose_reruns_are_byte_identical(demo, capsys):
    outs = []
    for _ in range(2):
        assert main(["pose", os.path.join(SPECS, demo), "--phi", "0.7"]) == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1]
    assert len(outs[0]) > 10_000


# ---------------------------------------------------------------------------
# The writers against the per-value references they replaced
# ---------------------------------------------------------------------------


def _reference_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def _reference_obj(doc) -> str:
    """One f-string per vertex, as the OBJ writer formatted them before."""
    lines = ["# bennett8 scene export"]
    index = 1

    def emit(label, polyline):
        nonlocal index
        lines.append(f"o {label}")
        start = index
        for p in polyline:
            lines.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
            index += 1
        lines.append("l " + " ".join(str(k) for k in range(start, index)))

    for bar in doc["bars"]:
        emit(bar["id"], bar["polyline"])
    for entry in (doc.get("symmetry") or {}).values():
        if isinstance(entry, dict) and "polyline" in entry:
            emit(entry["id"], entry["polyline"])
        elif isinstance(entry, dict):
            for sub in entry.values():
                if isinstance(sub, dict) and "polyline" in sub:
                    emit(sub["id"], sub["polyline"])
    return "\n".join(lines) + "\n"


def _reference_csv(v, phis) -> str:
    """One format_float call per value, as the sweep CSV was written before."""
    samples = linkage.sweep(v, phis)
    point_keys = linkage.HINGE_KEYS if isinstance(v, linkage.ValidatedSpatial) else linkage.JOINT_KEYS
    header = ["phi1"] + [f"{k}_{c}" for k in point_keys for c in "xyz"]
    header += [f"res_{k}" for k in linkage.FAMILIES] + ["error"]
    rows = [header]
    for s in samples:
        row = [scene.format_float(s.phi1)]
        if s.points is None:
            row += [""] * (3 * len(point_keys))
        else:
            row += [scene.format_float(c) for c in s.points.ravel().tolist()]
        for key in linkage.FAMILIES:
            row.append(scene.format_float(s.families[key]) if s.families and key in s.families else "")
        row.append(s.error or "")
        rows.append(row)
    return "\n".join(",".join(row) for row in rows) + "\n"


def _assert_same_text(text, reference):
    """Byte for byte; names the first differing line, where pytest's diff
    of two whole scenes would take minutes."""
    if text != reference:
        for n, (a, b) in enumerate(zip(text.splitlines(), reference.splitlines())):
            if a != b:
                pytest.fail(f"line {n}: {a!r} != {b!r}")
        pytest.fail(f"lengths differ: {len(text)} != {len(reference)}")


def _assert_writers_match(doc):
    _assert_same_text(scene.dumps_json(doc), _reference_json(doc))
    _assert_same_text(scene.scene_to_obj(doc), _reference_obj(doc))


@pytest.mark.parametrize("segments", [128, 16, 7, 1])
@pytest.mark.parametrize("phi", [0.0, np.pi, -np.pi, 1e-9, 0.7])
@pytest.mark.parametrize("demo", DEMOS)
def test_writers_match_the_references_on_the_demos(demo, phi, segments):
    pose = _pose(scene.load_spec(os.path.join(SPECS, demo)), phi)
    doc = scene.scene_from_pose(pose, segments)
    _assert_writers_match(doc)
    # the form the CLI writes, each polyline an (n, 3) array
    arrays = scene._scene(pose, segments)
    assert all(isinstance(e["polyline"], np.ndarray) for e in scene._polyline_entries(arrays))
    _assert_same_text(scene.dumps_json(arrays), scene.dumps_json(doc))
    _assert_same_text(scene.scene_to_obj(arrays), scene.scene_to_obj(doc))


@pytest.mark.parametrize("seed", range(4))
def test_writers_match_the_references_on_random_designs(seed):
    rng = np.random.default_rng(seed)
    for spec in (random_eightbar_spec(rng), random_spatial_spec(rng), random_isogram_spec(rng)):
        for phi in (random_driving_angle(rng), 0.0):
            _assert_writers_match(scene.scene_from_pose(_pose(spec, phi), 16))


class _Float(float):
    def __repr__(self):
        return "F"


def test_writers_match_the_references_on_odd_values():
    # an int phi1 (a cell solved at the integer 0), signed zeros, the
    # non-finite floats, and float subclasses such as numpy's, whose %r is
    # not JSON
    spec = scene.load_spec(os.path.join(SPECS, "spherical_isogram_demo.json"))
    doc = scene.scene_from_pose(_pose(spec, 0), 7)
    assert type(doc["phi1"]) is int
    doc["residuals"].update(zero=-0.0, nan=float("nan"), inf=float("inf"), minus_inf=-float("inf"))
    doc["residuals"]["numpy"] = np.float64(0.1)
    doc["residuals"]["subclass"] = _Float(0.2)
    doc["bars"][0]["normal"] = [np.float64(1.0), -0.0, 0.0]
    doc["bars"][1]["polyline"][2] = [float("nan"), 1.0, -float("inf")]
    doc["bars"][2]["polyline"][0] = (np.float64(0.5), 0.25, 0.125)
    doc["bars"][2]["normal"] = [_Float(1.0), 0.0, 0.0]
    doc["bars"][3]["polyline"] = [[1, 2, 3], [True, None, "x"]]
    doc["joints"][0]["position"] = [1, 2.5, False]
    doc["extra"] = {"empty_list": [], "empty_dict": {}, "text": "café", "nested": [[[0.5]]]}
    _assert_same_text(scene.dumps_json(doc), _reference_json(doc))
    obj = dict(doc, bars=doc["bars"][:3])
    _assert_same_text(scene.scene_to_obj(obj), _reference_obj(obj))


def test_array_writers_match_the_references_on_odd_values():
    # the form the CLI writes: a polyline array that holds a nan or an inf is
    # written as its list form is, and one of signed zeros from the array
    spec = scene.load_spec(os.path.join(SPECS, "spherical_isogram_demo.json"))
    doc = scene._scene(_pose(spec, 0.5), 7)
    doc["bars"][0]["polyline"][1] = [float("nan"), -0.0, float("inf")]
    doc["bars"][1]["polyline"][0, 2] = -float("inf")
    doc["bars"][2]["polyline"][:] = -0.0
    lists = dict(doc, bars=[dict(bar, polyline=bar["polyline"].tolist()) for bar in doc["bars"]])
    _assert_same_text(scene.dumps_json(doc), _reference_json(lists))
    _assert_same_text(scene.scene_to_obj(doc), _reference_obj(lists))


# ---------------------------------------------------------------------------
# The polylines against the per-circle and per-line references they replaced
# ---------------------------------------------------------------------------


def _reference_polylines(pose, segments):
    """A pose's scene polylines in file order, one circle or line at a time,
    each line over the anchors the scene gives it."""
    if isinstance(pose, EightBarPose):
        extra = () if pose.aligned else (pose.n_circle, pose.t1, pose.t2)
        return [circle_polyline(circle, segments) for circle in pose.g + pose.h + extra]
    if isinstance(pose, SphericalIsogramPose):
        return [circle_polyline(circle, segments) for circle in pose.side_circles]
    if isinstance(pose, BennettIsogramPose):
        floor = 1e-6 * (pose.spec.a_len + pose.spec.b_len)
        return [line_polyline(line, pose.vertices, segments, floor) for line in pose.side_lines]
    verts = pose.vertices
    anchored = [(line, [p for k, p in verts.items() if k[1] == str(i)]) for i, line in enumerate(pose.g)]
    anchored += [(line, [p for k, p in verts.items() if k[2] == str(j)]) for j, line in enumerate(pose.h)]
    extra = () if pose.aligned else (*pose.axes, pose.n_line, pose.t_line)
    anchored += [(line, list(verts.values())) for line in extra]
    return [line_polyline(line, anchors, segments, 1e-6 * sum(pose.spec.a)) for line, anchors in anchored]


@pytest.mark.parametrize("segments", [1, 7, 128])
@pytest.mark.parametrize("phi", [0.0, np.pi, 1e-9, 0.7])
def test_polylines_match_the_per_line_references(phi, segments):
    # a scene builds all its circles, or all its lines, in one array pass;
    # each polyline keeps the bits, signed zeros included
    rng = np.random.default_rng(26)
    specs = [scene.load_spec(os.path.join(SPECS, demo)) for demo in DEMOS]
    specs += [make(rng) for _ in range(3) for make in (random_eightbar_spec, random_spatial_spec, random_isogram_spec)]
    for spec in specs:
        pose = _pose(spec, phi)
        polylines = [entry["polyline"] for entry in scene._polyline_entries(scene._scene(pose, segments))]
        reference = _reference_polylines(pose, segments)
        assert len(polylines) == len(reference) >= 4
        for got, want in zip(polylines, reference):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1e-8, 1e8])
@pytest.mark.parametrize(
    "demo, lengths, phi",
    [
        ("spatial8_demo.json", ("a1", "a2"), 0.8),
        ("spatial8_demo.json", ("a1", "a2"), 1e-9),
        ("bennett_isogram_demo.json", ("a_len", "b_len"), 0.8),
        ("bennett_isogram_demo.json", ("a_len", "b_len"), 0.0),
    ],
)
def test_line_polylines_scale_with_the_unit_of_length(demo, lengths, phi, scale):
    # a line spans at least 1e-6 of the design's unit of length L, not 1e-6
    # in absolute terms, so a scaled design gives the scaled scene
    spec = scene.load_spec(os.path.join(SPECS, demo))
    scaled = dataclasses.replace(spec, **{key: getattr(spec, key) * scale for key in lengths})
    unit = scale * sum(getattr(spec, key) for key in lengths)
    entries = list(scene._polyline_entries(scene._scene(_pose(spec, phi), 16)))
    for got, want in zip(scene._polyline_entries(scene._scene(_pose(scaled, phi), 16)), entries, strict=True):
        assert np.abs(got["polyline"] - scale * want["polyline"]).max() <= 1e-9 * unit


@pytest.mark.parametrize(
    "grid",
    # the last grid is not symmetric about 0, so few rows mirror another
    [(-3.1, 3.1, 101, False), (-np.pi, np.pi, 41, False), (-3.1, 3.1, 26, True), (-2.0, 2.9, 37, True)],
)
@pytest.mark.parametrize("demo", ["spherical8_demo.json", "spatial8_demo.json"])
def test_sweep_csv_matches_the_reference(demo, grid, capsys):
    path = os.path.join(SPECS, demo)
    lo, hi, n, uniform = grid
    argv = ["sweep", path, f"--from={lo!r}", f"--to={hi!r}", f"--samples={n}"] + ["--uniform-angle"] * uniform
    assert main(argv) == 0
    v = linkage.validate_spec(scene.load_spec(path))
    _assert_same_text(capsys.readouterr().out, _reference_csv(v, linkage.phi_grid(lo, hi, n, uniform)))


@pytest.mark.parametrize("seed", range(3))
def test_sweep_csv_matches_the_reference_on_random_designs(seed, tmp_path):
    rng = np.random.default_rng(seed)
    for k, spec in enumerate((random_eightbar_spec(rng), random_spatial_spec(rng))):
        path = tmp_path / f"spec{k}.json"
        path.write_text(json.dumps(scene.dump_spec(spec)))
        out = tmp_path / f"sweep{k}.csv"
        assert main(["sweep", str(path), "--from=-3.1", "--to=3.1", "--samples=21", "--out", str(out)]) == 0
        reference = _reference_csv(linkage.validate_spec(spec), linkage.phi_grid(-3.1, 3.1, 21))
        _assert_same_text(out.read_text(), reference)


# a spherical design whose samples all fail with ParallelLines: two joints of
# a cell side are parallel at every angle
PARALLEL = EightBarSpec(
    u1=0.6393091628744207, u2=0.6398391594804055, u3=0.6398836059385323,
    beta1=0.011723153850808979, beta2=1e-12, branch1="minus", branch2="minus",
)


def test_sweep_csv_matches_the_reference_where_samples_fail(tmp_path, capsys):
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(scene.dump_spec(PARALLEL)))
    assert main(["sweep", str(path), "--from=-3.1", "--to=3.1", "--samples=21"]) == 0
    text = capsys.readouterr().out
    _assert_same_text(text, _reference_csv(linkage.validate_spec(PARALLEL), linkage.phi_grid(-3.1, 3.1, 21)))
    # a failed row has its angle and its error, and every other cell empty
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        assert row[1:-1] == [""] * 43 and row[-1].startswith("ParallelLines: ")


def test_sweep_csv_empty_cells_of_aligned_rows(capsys):
    # at the aligned poses only the pose-level families have a value
    path = os.path.join(SPECS, "spherical8_demo.json")
    assert main(["sweep", path, f"--from={-np.pi!r}", f"--to={np.pi!r}", "--samples=41"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    report = [header.index(f"res_{key}") for key in ("centers", "products", "mapping", "bisector")]
    pose = [header.index(f"res_{key}") for key in ("closure", "incidence", "cells")]
    aligned = [row for row in rows if abs(float(row[0])) in (0.0, np.pi)]
    assert len(aligned) == 3
    for row in rows:
        assert all(row[k] for k in pose) and not row[-1]
        assert all(not row[k] for k in report) == (row in aligned)


def _dumps_rows(header, rows) -> str:
    """dumps_csv of rows that list their numbers, None for an empty cell,
    then their text."""
    numbers = [[0.0 if x is None else x for x in row[:-1]] for row in rows]
    empty = [[x is None for x in row[:-1]] for row in rows]
    return scene.dumps_csv(header, numbers, empty, [row[-1] for row in rows])


def test_csv_rows_with_empty_cells():
    rows = [
        [0.5, None, 1.0, "ClosureFailure: x"],
        [-0.0, float("nan"), float("inf"), ""],
        [np.float64(0.1), 2, True, "e,f"],
    ]
    expect = ["a,b,c,error", "0.5,,1,ClosureFailure: x", "-0,nan,inf,", '0.10000000000000001,2,1,"e,f"']
    assert _dumps_rows(["a", "b", "c", "error"], rows) == "\n".join(expect) + "\n"


def test_csv_text_cells_read_back_with_their_columns():
    # a message with a comma, a double quote or a line break is quoted as
    # RFC 4180 quotes it, so csv.reader reads every row back with the
    # header's columns and the message as it was
    messages = ["", "ClosureFailure: x", "ClosureFailure: a, b", 'ParallelLines: "s1", s2', "a\nb,c", 'x"y', "\r"]
    rows = [[0.5, None, 1.0, text] for text in messages] + [[0.25, 2.0, 3.0, text] for text in messages]
    read = list(csv.reader(io.StringIO(_dumps_rows(["a", "b", "c", "error"], rows), newline="")))
    assert read[0] == ["a", "b", "c", "error"]
    assert [row[-1] for row in read[1:]] == messages * 2
    assert {len(row) for row in read} == {4}


def test_csv_signed_zeros_and_non_finite_values():
    # 0 and -0 compare equal but are written apart; a nan is nan whatever
    # its sign, as %.17g writes it
    nan = float("nan")
    rows = [
        [0.0, -0.0, nan, -nan, "x"],
        [-0.0, 0.0, float("inf"), -float("inf"), ""],
        [5e-324, -5e-324, 1.0, -1.0, ""],
    ]
    expect = ["a,b,c,d,error", "0,-0,nan,nan,x", "-0,0,inf,-inf,", "4.9406564584124654e-324,-4.9406564584124654e-324,1,-1,"]
    assert _dumps_rows(["a", "b", "c", "d", "error"], rows) == "\n".join(expect) + "\n"


@pytest.mark.parametrize("seed", range(5))
def test_csv_writes_each_cell_as_format_float(seed):
    # values repeated across rows and columns, with either sign, empty
    # cells anywhere and messages that need quoting: each cell is the text
    # format_float gives its value
    rng = np.random.default_rng(seed)
    pool = np.concatenate([rng.normal(size=6), 10.0 ** rng.uniform(-300, 300, 3), [0.0, np.nan, np.inf, np.pi]])
    shape = (int(rng.integers(1, 30)), int(rng.integers(1, 12)))
    numbers = rng.choice(pool, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    empty = rng.random(shape) < 0.2
    texts = [str(rng.choice(["", "ClosureFailure: x", 'a "b", c', "d\ne"])) for _ in range(shape[0])]
    header = [f"c{k}" for k in range(shape[1])] + ["error"]
    rows = [[None if e else x for x, e in zip(row, mask)] + [text]
            for row, mask, text in zip(numbers.tolist(), empty.tolist(), texts)]
    read = list(csv.reader(io.StringIO(scene.dumps_csv(header, numbers, empty, texts), newline="")))
    assert read[0] == header
    want = [["" if x is None else scene.format_float(x) for x in row[:-1]] + [row[-1]] for row in rows]
    assert read[1:] == want
