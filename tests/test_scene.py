"""Scene serialization: exact round trip and byte-identical reruns."""
import json
import os

import numpy as np
import pytest

from bennett8 import scene
from bennett8.cli import main
from bennett8.isogram import (
    BennettIsogramSpec,
    SphericalIsogramSpec,
    solve_bennett_isogram,
    solve_spherical_isogram,
)
from bennett8.linkage import EightBarSpec, assemble_spatial, assemble_spherical
from bennett8.screws import OrientedLine
from bennett8.sphere import OrientedGreatCircle, SpherePoint

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
