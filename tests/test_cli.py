"""Command-line front end: exit codes, file formats, determinism."""
import json
import os

import numpy as np
import pytest

from bennett8 import cli, linkage, scene
from bennett8.cli import main

SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "specs")

SPH = {
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
SPA = dict(SPH, kind="spatial8", a1=0.8, a2=0.6)


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write_spec(tmp_path, SPH)
    assert main(["validate", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "spherical8"
    assert "beta3" in doc and "branch3" in doc
    assert doc["derived"]["c31"] == pytest.approx(doc["derived"]["c21"] * doc["derived"]["c32"])


def test_validate_rejects_bad_range(tmp_path, capsys):
    bad = dict(SPH, u3=0.25 + 1.8 + 1.6)
    path = write_spec(tmp_path, bad)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    diag = json.loads(err)
    assert diag["error"] == "InvalidSpec"
    assert "below pi" in diag["message"]


def test_validate_rejects_unknown_field(tmp_path, capsys):
    path = write_spec(tmp_path, dict(SPH, extra=1.0))
    assert main(["validate", path]) == 1
    assert "unknown fields" in json.loads(capsys.readouterr().err)["message"]


def test_validate_rejects_unknown_kind_and_version(tmp_path, capsys):
    assert main(["validate", write_spec(tmp_path, dict(SPH, kind="hexaflexagon"))]) == 1
    capsys.readouterr()
    assert main(["validate", write_spec(tmp_path, dict(SPH, schema_version=2))]) == 1


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1


def test_pose_collapse_scene(tmp_path, capsys):
    path = write_spec(tmp_path, SPH)
    assert main(["pose", path, "--phi", "0"]) == 0
    scene = json.loads(capsys.readouterr().out)
    assert scene["aligned"] is True
    assert scene["symmetry"] is None
    ids = sorted(j["id"] for j in scene["joints"])
    assert len(ids) == 12 and len(set(ids)) == 12
    for joint in scene["joints"]:
        assert abs(joint["position"][2]) < 1e-12


def test_pose_scene_structure_and_obj(tmp_path, capsys):
    path = write_spec(tmp_path, SPA)
    out = tmp_path / "scene.json"
    obj = tmp_path / "scene.obj"
    assert main(
        ["pose", path, "--phi", "0.8", "--segments", "16", "--out", str(out), "--obj", str(obj)]
    ) == 0
    scene = json.loads(out.read_text())
    bar_ids = sorted(b["id"] for b in scene["bars"])
    assert bar_ids == ["g0", "g1", "g2", "g3", "h0", "h1", "h2", "h3"]
    assert sorted(scene["symmetry"]["axes"]) == ["s1", "s2", "s3", "s4", "s5", "s6"]
    assert scene["symmetry"]["line_n"]["id"] == "n"
    assert scene["symmetry"]["axis_t"]["id"] == "t"
    assert max(scene["residuals"].values()) < 1e-9
    text = obj.read_text()
    assert text.startswith("# bennett8 scene export")
    assert "\no n\n" in text and "\no t\n" in text
    # polylines sampled at the requested resolution
    circle_bar = json.loads(out.read_text())["bars"][0]
    assert len(circle_bar["polyline"]) == 16


def test_pose_cell_specs(tmp_path, capsys):
    iso = {
        "schema_version": 1,
        "kind": "spherical-isogram",
        "alpha": np.pi / 3,
        "beta": np.pi / 4,
        "branch": "plus",
    }
    assert main(["pose", write_spec(tmp_path, iso), "--phi", "1.0"]) == 0
    scene = json.loads(capsys.readouterr().out)
    assert scene["residuals"]["closure"] < 1e-12
    ben = {
        "schema_version": 1,
        "kind": "bennett-isogram",
        "alpha_twist": np.pi / 2,
        "beta_twist": np.pi / 6,
        "a_len": 2.0,
        "b_len": 1.0,
    }
    assert main(["pose", write_spec(tmp_path, ben, "b.json"), "--phi", "1.2"]) == 0
    scene = json.loads(capsys.readouterr().out)
    assert scene["phi2"] != 0
    assert scene["residuals"]["closure"] < 1e-9


def test_sweep_csv_and_determinism(tmp_path, capsys):
    path = write_spec(tmp_path, SPH)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", path, "--from", "-1.2", "--to", "1.2", "--samples", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "phi1"
    assert "R01_x" in header and "res_closure" in header and header[-1] == "error"
    assert len(lines) == 10


def test_sweep_spatial_header(tmp_path, capsys):
    path = write_spec(tmp_path, SPA)
    assert main(["sweep", path, "--from", "-0.5", "--to", "0.5", "--samples", "3"]) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert "I01_x" in header and "res_cells" in header


def test_verify_passes_and_fails_by_tolerance(tmp_path, capsys):
    path = write_spec(tmp_path, SPH)
    assert main(["verify", path, "--phi-grid", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "mobility" in out
    # absurd tolerance turns every family into a failure: exit code 2
    assert main(["verify", path, "--phi-grid", "5", "--tol", "1e-20"]) == 2


def test_verify_fails_mobility_on_unassembled_sample(tmp_path, capsys, monkeypatch):
    # a sampled pose that did not assemble certifies nothing about mobility
    failed = [linkage.MobilitySample(0.5, "assembly-failed", None)]
    monkeypatch.setattr(linkage, "mobility_check", lambda samples: failed)
    path = write_spec(tmp_path, SPH)
    assert main(["verify", path, "--phi-grid", "7"]) == 2
    assert "FAIL mobility" in capsys.readouterr().out


def test_verify_fails_a_nan_invariant(capsys, monkeypatch):
    # a family whose values are nan fails verify, as the sweep CSV writes
    # them nan: the family's worst value is nan, not 0
    report = linkage._symmetry_report
    rows = [linkage._REPORT_KEYS.index(key) for key in linkage.FAMILIES["products"]]

    def nan_products(x):
        values, short = report(x)
        values[rows] = np.nan
        return values, short

    monkeypatch.setattr(linkage, "_symmetry_report", nan_products)
    spec = os.path.join(SPECS, "spherical8_demo.json")
    assert main(["verify", spec]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines if "products" in line] == [["FAIL", "products", "worst", "nan"]]
    assert all(line.startswith("PASS") for line in lines if "products" not in line)
    assert main(["sweep", spec, "--from=-1", "--to=1", "--samples=4"]) == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [row[header.index("res_products")] for row in rows] == ["nan"] * 4


def test_pose_out_prints_a_nan_residual(tmp_path, capsys, monkeypatch):
    # a nan anywhere among the residuals is the worst one, as verify reads
    # them; pose has no tolerance gate, so it still exits 0
    monkeypatch.setattr(scene, "halfturn_products_report", lambda pose: {"a": 1e-12, "b": float("nan")})
    out = tmp_path / "scene.json"
    assert main(["pose", os.path.join(SPECS, "spherical8_demo.json"), "--phi=0.8", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"scene written to {out}; worst residual nan\n"
    assert '"b": NaN' in out.read_text()


def test_verify_spatial(tmp_path, capsys):
    path = write_spec(tmp_path, SPA)
    assert main(["verify", path, "--phi-grid", "5"]) == 0
    out = capsys.readouterr().out
    assert "mapping" in out and "FAIL" not in out


@pytest.mark.parametrize("grid", ["2", "3"])
@pytest.mark.parametrize("demo", ["spherical8_demo.json", "spatial8_demo.json"])
def test_verify_exit_code_follows_the_printed_lines(demo, grid, capsys):
    # grids of 2 and 3 sample only the aligned poses, so mobility checks no
    # pose: its FAIL line must make the exit code 2
    assert main(["verify", os.path.join(SPECS, demo), "--phi-grid", grid]) == 2
    out = capsys.readouterr().out
    assert "FAIL mobility               nullities []" in out


@pytest.mark.parametrize(
    "demo, assembler",
    [("spherical8_demo.json", "assemble_spherical"), ("spatial8_demo.json", "assemble_spatial")],
)
def test_verify_assembles_each_grid_angle_once(demo, assembler, capsys, monkeypatch):
    # the grid is the whole circle, built in one construction, and mobility
    # reuses its poses instead of assembling them again
    original = linkage._assemble
    angles = []

    def counting(spec, phis):
        angles.extend(phis)
        return original(spec, phis)

    def unexpected(spec, phi1):
        raise AssertionError(f"{assembler} called at {phi1}")

    monkeypatch.setattr(linkage, "_assemble", counting)
    monkeypatch.setattr(linkage, assembler, unexpected)
    assert main(["verify", os.path.join(SPECS, demo)]) == 0
    assert len(angles) == 25
    assert len(set(angles)) == 25
    assert (min(angles), max(angles)) == (-np.pi, np.pi)


@pytest.mark.parametrize("demo", ["spherical8_demo.json", "spatial8_demo.json"])
def test_verify_builds_no_pose(demo, capsys, monkeypatch):
    # the families and mobility read the sweep's grid, so no pose object of
    # any sample is built
    def unexpected(grid, i):
        raise AssertionError(f"pose built at phi1 = {grid.phi1[i]}")

    monkeypatch.setattr(linkage, "_pose", unexpected)
    assert main(["verify", os.path.join(SPECS, demo)]) == 0
    assert "PASS mobility               nullities [1]" in capsys.readouterr().out


def test_pose_next_to_the_aligned_pose(capsys):
    # the line n turns parallel to the bars next to the aligned pose, and
    # the report still holds there
    spec = os.path.join(SPECS, "spatial8_demo.json")
    for phi in ("1e-7", "1e-11", "-1e-11"):
        assert main(["pose", spec, f"--phi={phi}"]) == 0
        residuals = json.loads(capsys.readouterr().out)["residuals"]
        assert "tau321_halfturn" in residuals and max(residuals.values()) < 1e-9


def test_sweep_records_no_error_next_to_the_aligned_pose(capsys):
    spec = os.path.join(SPECS, "spatial8_demo.json")
    assert main(["sweep", spec, "--from=-1e-11", "--to=1e-11", "--samples=3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [row[-1] for row in rows[1:]] == ["", "", ""]
    # the aligned pose in the middle has no report, so no symmetry family
    columns = dict(zip(rows[0], zip(*rows[1:])))
    assert columns["res_bisector"][1] == "" and all(columns["res_bisector"][::2])
    assert all(columns["res_cells"])


def test_verify_gates_the_tau_halfturns(capsys, monkeypatch):
    # the grid's report, one column per non-aligned pose, with
    # tau321_halfturn broken at every pose
    original = linkage._symmetry_report
    row = linkage._REPORT_KEYS.index("tau321_halfturn")

    def broken(x):
        values, short = original(x)
        values[row] = 1.0
        return values, short

    monkeypatch.setattr(linkage, "_symmetry_report", broken)
    assert main(["verify", os.path.join(SPECS, "spherical8_demo.json")]) == 2
    assert "FAIL products" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "{spec}", "--from", "0", "--to", "1", "--samples", "1"],
        ["verify", "{spec}", "--phi-grid", "1"],
    ],
)
def test_short_grid_is_a_validation_failure(tmp_path, capsys, argv):
    path = write_spec(tmp_path, SPH)
    assert main([a.format(spec=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag == {"error": "ValueError", "message": "need at least two samples"}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (SPH, ["pose", "{spec}", "--phi=0.7", "--segments=0"], "--segments must be at least 3, got 0"),
        (SPH, ["pose", "{spec}", "--phi=0.7", "--segments=-1"], "--segments must be at least 3, got -1"),
        (SPA, ["pose", "{spec}", "--phi=0.7", "--segments=-5"], "--segments must be at least 3, got -5"),
        (SPH, ["pose", "{spec}", "--phi=0.7", "--segments=1"], "--segments must be at least 3, got 1"),
        (SPA, ["pose", "{spec}", "--phi=0.7", "--segments=2"], "--segments must be at least 3, got 2"),
        (SPH, ["verify", "{spec}", "--tol=0"], "--tol must be > 0, got 0.0"),
        (SPA, ["verify", "{spec}", "--tol=-1e-8"], "--tol must be > 0, got -1e-08"),
        (SPH, ["verify", "{spec}", "--tol=nan"], "--tol must be > 0, got nan"),
    ],
)
def test_out_of_range_option_is_a_validation_failure(tmp_path, capsys, doc, argv, message):
    path = write_spec(tmp_path, doc)
    assert main([a.format(spec=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize(
    "demo", ["spherical_isogram_demo.json", "bennett_isogram_demo.json", "spherical8_demo.json", "spatial8_demo.json"]
)
def test_pose_at_nan_is_a_closure_failure(demo, capsys):
    assert main(["pose", os.path.join(SPECS, demo), "--phi=nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ClosureFailure"


def test_derive_round_trip(tmp_path, capsys):
    path = write_spec(tmp_path, SPA)
    assert main(["derive", path]) == 0
    completed = json.loads(capsys.readouterr().out)
    assert {"beta3", "branch3", "b1", "b2", "b3"} <= set(completed)
    path2 = write_spec(tmp_path, completed, "completed.json")
    assert main(["validate", path2]) == 0


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_scaled_demo_next_to_the_aligned_pose(tmp_path, capsys, scale):
    # whether a line of the pose passes the Pluecker check does not depend on
    # the unit of length either
    with open(os.path.join(SPECS, "spatial8_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(a1=doc["a1"] * scale, a2=doc["a2"] * scale)
    path = write_spec(tmp_path, doc)
    for phi in ("1e-6", "1e-9"):
        assert main(["pose", path, f"--phi={phi}"]) == 0
        residuals = json.loads(capsys.readouterr().out)["residuals"]
        assert max(residuals.values()) < 1e-9
    v = linkage.validate_spec(scene.load_spec(path))
    for s in linkage.sweep(v, linkage.phi_grid(-1e-6, 1e-6, 41)):
        if s.error is None:
            assert max(s.families.values()) < 1e-9, (s.phi1, s.families)
        else:
            assert s.error.startswith(("ClosureFailure:", "CollapsedPose:")), (s.phi1, s.error)


def test_a_line_that_fails_its_check_is_a_closure_failure(capsys, monkeypatch):
    # no line passes a negative tolerance: every pose fails, with a typed error
    monkeypatch.setattr(linkage, "PLUCKER_TOL", -1.0)
    spec = os.path.join(SPECS, "spatial8_demo.json")
    assert main(["pose", spec, "--phi=0.7"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ClosureFailure"
    assert main(["sweep", spec, "--from=-1", "--to=1", "--samples=3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[-1].split(":")[0] for row in rows] == ["ClosureFailure"] * 3


def test_commands_are_looked_up_when_called(tmp_path, capsys, monkeypatch):
    # the parser is built once, but a command rebound since is the one that runs
    path = write_spec(tmp_path, SPH)
    assert main(["validate", path]) == 0
    monkeypatch.setattr(cli, "cmd_validate", lambda args: 7)
    assert main(["validate", path]) == 7
    assert main(["derive", path]) == 0
