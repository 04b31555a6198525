"""Typed errors over the validator's whole design region, at every scale.

Every valid 8-bar spec and every phi1 give a pose that closes or one of the
typed errors, and nothing else. The designs are drawn from the region the
validator accepts, not from the well-conditioned one of conftest: arcs down
to 1e-5, totals near pi, arms near the arcs, both branches and lengths from
1e-8 to 1e8, at a grid of angles and next to both aligned poses. The single
cells keep the same contract over the region their spec classes accept.
"""
import json

import numpy as np
import pytest

from bennett8 import cli, errors, linkage, scene
from bennett8.cli import main
from bennett8.errors import InvalidSpec
from bennett8.isogram import (
    BennettIsogramSpec,
    SphericalIsogramSpec,
    bennett_symmetry_axis,
    solve_bennett_isogram,
    solve_spherical_isogram,
)
from bennett8.screws import OrientedLine
from bennett8.sphere import OrientedGreatCircle, SpherePoint

DESIGNS = 500
# a 25-point grid over [-pi, pi], and angles 1e-3 to 1e-11 from 0 and +-pi
BAND = [x for d in (1e-3, 1e-6, 1e-9, 1e-11) for x in (d, -d, np.pi - d, d - np.pi)]
ANGLES = linkage.phi_grid(-np.pi, np.pi, 25) + BAND
# the text of a recorded error starts with the name of its type in errors.py
ERRORS = tuple(obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception))
TYPED = tuple(f"{error.__name__}: " for error in ERRORS)


def _arc(rng) -> float:
    """An arc log-uniform in (1e-5, pi)."""
    return float(10 ** rng.uniform(-5, np.log10(np.pi)))


def _arm(rng, alpha: float) -> float:
    """An arm arc: anywhere in (0, pi), near the cell's arc, or near its
    supplement."""
    pick = rng.integers(3)
    if pick == 0:
        return min(_arc(rng), np.pi - 1e-12)
    near = alpha if pick == 1 else np.pi - alpha
    return float(np.clip(near + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-9, -1), 1e-12, np.pi - 1e-12))


def _design(rng, spatial: bool) -> dict:
    """A raw spec document from the region the validator accepts (it may
    still reject it)."""
    a1, a2 = _arc(rng), _arc(rng)
    if a1 + a2 >= np.pi or rng.random() < 0.25:
        # a total near pi, split as drawn
        total = np.pi - 10 ** rng.uniform(-6, -1)
        a1, a2 = total * a1 / (a1 + a2), total * a2 / (a1 + a2)
    u1 = float(rng.uniform(-1.0, 1.0))
    doc = {
        "schema_version": 1, "kind": "spatial8" if spatial else "spherical8",
        "u1": u1, "u2": u1 + a1, "u3": u1 + a1 + a2,
        "beta1": _arm(rng, a1), "beta2": _arm(rng, a2),
        "branch1": str(rng.choice(["plus", "minus"])), "branch2": str(rng.choice(["plus", "minus"])),
    }
    if spatial:
        scale = 10 ** rng.uniform(-8, 8)
        doc.update(a1=float(scale * rng.uniform(0.1, 1.0)), a2=float(scale * rng.uniform(0.1, 1.0)))
    return doc


def _valid_designs(seed: int, spatial: bool):
    """DESIGNS raw documents with their validated specs, skipping those the
    validator rejects with its typed error."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < DESIGNS:
        doc = _design(rng, spatial)
        spec = (linkage.SpatialEightBarSpec if spatial else linkage.EightBarSpec)(
            **{k: v for k, v in doc.items() if k not in ("schema_version", "kind")}
        )
        try:
            out.append((doc, linkage.validate_spec(spec)))
        except InvalidSpec:
            continue
    return out


@pytest.mark.parametrize("kind, seed", [("spherical", 2026), ("spatial", 2027)])
def test_every_sample_closes_or_carries_a_typed_error(tmp_path, capsys, kind, seed):
    designs = _valid_designs(seed, kind == "spatial")
    # (design, phi1) to pose: a tenth of the designs at three angles, and the
    # first sample that failed with each type of error
    poses = [(doc, phi) for doc, _ in designs[:: DESIGNS // 10] for phi in (0.7, 1e-9, np.pi - 1e-6)]
    failed = {}
    for doc, v in designs:
        # sweep raises nothing: each sample closes, or records a typed error
        # whose text keeps the CSV's columns
        header, numbers, empty, texts = cli._sweep_columns(v, ANGLES)
        rows = [[None if e else x for x, e in zip(row, mask)] + [text]
                for row, mask, text in zip(numbers.tolist(), empty.tolist(), texts)]
        closure = header.index("res_closure")
        for row in rows:
            assert len(row) == len(header), doc
            if row[-1]:
                assert row[-1].startswith(TYPED) and "," not in row[-1], (doc, row[0], row[-1])
                failed.setdefault(row[-1].split(":")[0], (doc, row[0]))
            else:
                assert row[closure] <= 1e-9, (doc, row[0])
        text = scene.dumps_csv(header, numbers, empty, texts)
        assert {line.count(",") for line in text.splitlines()} == {len(header) - 1}, doc
    # pose exits 0 (a closed pose) or 2 (a typed error) on validated specs
    path = tmp_path / "spec.json"
    for doc, phi in poses + list(failed.values()):
        path.write_text(json.dumps(doc))
        assert main(["pose", str(path), f"--phi={phi!r}"]) in (0, 2), (doc, phi)
        capsys.readouterr()


CELL_DESIGNS = 80
# ANGLES, then the aligned poses and their neighbours once more, and nan
CELL_ANGLES = ANGLES + [0.0, np.pi, -np.pi, 1e-9, -1e-9, np.nan]


def _cell_angle(rng) -> float:
    """An arc or twist log-uniform from 1e-5 to pi/2 away from 0 or from pi."""
    d = float(10 ** rng.uniform(-5, np.log10(np.pi / 2)))
    return d if rng.random() < 0.5 else np.pi - d


def _cell_specs(seed: int, kind: str):
    """CELL_DESIGNS specs of one cell kind that their constructors accept;
    Bennett lengths from 1e-8 to 1e8, in the side proportion."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < CELL_DESIGNS:
        alpha, beta = _cell_angle(rng), _cell_angle(rng)
        try:
            if kind == "spherical":
                out.append(SphericalIsogramSpec(alpha, beta, str(rng.choice(["plus", "minus"]))))
            else:
                a = float(10 ** rng.uniform(-8, 8) * rng.uniform(0.1, 1.0))
                out.append(BennettIsogramSpec(alpha, beta, a, a * np.sin(beta) / np.sin(alpha)))
        except ValueError:  # errors.DegenerateBranch is one
            continue
    return out


@pytest.mark.parametrize("kind, seed", [("spherical", 2028), ("bennett", 2029)])
def test_every_cell_pose_is_finite_or_a_typed_error(kind, seed):
    g0, p = OrientedGreatCircle(np.array([0.0, 0.0, 1.0])), SpherePoint.of(1.0, 0.0, 0.0)
    base = OrientedLine.from_point_direction(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    for spec in _cell_specs(seed, kind):
        for phi in CELL_ANGLES:
            try:
                if kind == "spherical":
                    pose = solve_spherical_isogram(spec, g0, p, phi)
                else:
                    pose = solve_bennett_isogram(spec, base, np.zeros(3), phi)
            except ERRORS:
                continue
            points = [v.v for v in pose.vertices] if kind == "spherical" else pose.vertices
            assert np.isfinite(points).all(), (spec, phi)
            if kind == "bennett":
                try:
                    axis = bennett_symmetry_axis(pose)
                except ERRORS:
                    continue
                assert np.isfinite(np.r_[axis.d, axis.m]).all(), (spec, phi)
