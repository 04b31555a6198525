"""Wrapper coverage and the call counts the traced run sees on demo poses."""
import contextlib
import io
import os
from collections import Counter

import pytest

from tracer import Tracer, bennett8_modules, install, layer_metrics, public_functions

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPHERICAL = os.path.join(ROOT, "specs", "spherical8_demo.json")
SPATIAL = os.path.join(ROOT, "specs", "spatial8_demo.json")


@pytest.fixture
def tracer():
    t = Tracer()
    restore = install(t)
    try:
        yield t
    finally:
        restore()


def _traced_op(t, fn):
    start = len(t.spans)
    t.begin_op(0)
    try:
        fn()
    finally:
        t.end_op()
    spans = t.spans[start:]
    layer = {s[0]: s[3] for s in spans}
    calls = Counter((layer.get(s[1]), s[3], s[4]) for s in spans if s[3] != "op")
    ids = set(layer)
    for (sid, lay, name), agg in t.prims.items():
        if sid in ids:
            calls[(layer[sid], lay, name)] += agg[0]
    return calls


def test_every_binding_of_a_public_function_is_wrapped():
    modules = bennett8_modules()
    originals, unmapped = public_functions(modules)
    assert unmapped == [], "give these public functions a layer in layers.py"
    assert len(originals) > 80
    restore = install(Tracer())
    try:
        for mod in modules:
            for name, obj in vars(mod).items():
                assert id(obj) not in originals, f"{mod.__name__}.{name} is not wrapped"
    finally:
        restore()


@pytest.mark.parametrize(
    "module, name",
    [
        ("linkage", "numeric_nullity"),
        ("linkage", "coupled_angle"),
        ("linkage", "transmission_coefficient"),
        ("cli", "format_float"),
        ("kernels", "quat_mul"),
        ("isogram", "great_circle_through"),
    ],
)
def test_by_name_imports_are_wrapped(tracer, module, name):
    import importlib

    mod = importlib.import_module(f"bennett8.{module}")
    assert hasattr(getattr(mod, name), "__wrapped__")


def test_restore_puts_the_originals_back():
    from bennett8 import linkage

    before = linkage.coupled_angle
    restore = install(Tracer())
    assert linkage.coupled_angle is not before
    restore()
    assert linkage.coupled_angle is before


def test_spatial_pose_and_report_call_counts(tracer):
    from bennett8 import linkage, scene

    spec = scene.load_spec(SPATIAL)

    def op():
        linkage.symmetry_report_spatial(linkage.assemble_spatial(spec, 0.8))

    calls = _traced_op(tracer, op)
    spans = {k: n for k, n in calls.items() if k[1] not in ("sphere", "screws")}
    assert spans == {
        ("op", "linkage.assemble", "assemble_spatial"): 1,
        ("op", "linkage.report", "symmetry_report_spatial"): 1,
        # the report assembles the spherical image pose once
        ("linkage.report", "linkage.assemble", "assemble_spherical"): 1,
        ("linkage.assemble", "linkage.validate", "validate_spec"): 1,
        ("linkage.validate", "isogram", "transmission_coefficient"): 3,
        ("linkage.assemble", "isogram", "coupled_angle"): 4,
    }
    assert calls[("linkage.report", "screws", "common_perpendicular")] == 27
    assert calls[("linkage.assemble", "screws", "common_perpendicular")] == 13
    assert calls[("linkage.assemble", "sphere", "symmetry_centers")] == 6


def test_spherical_verify_call_counts(tracer):
    from bennett8 import cli

    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", SPHERICAL]) == 0

    calls = _traced_op(tracer, op)
    assert calls[("op", "cli", "main")] == 1
    assert calls[("cli", "linkage.assemble", "assemble_spherical")] == 24
    assert calls[("cli", "linkage.report", "halfturn_products_report")] == 24
    assert calls[("cli", "linkage.mobility", "mobility_check")] == 1
    # mobility re-assembles poses the grid already built
    assert calls[("linkage.mobility", "linkage.assemble", "assemble_spherical")] == 6
    assert calls[("linkage.mobility", "oracle", "numeric_nullity")] == 6
    assert calls[("oracle", "kernels", "quat_mul")] == 2550
    assert calls[("cli", "scene", "format_float")] == 7
    assert calls[("cli", "sphere", "lies_on")] == 576
    assert tracer.counters["assemble_calls"] == 30
    assert tracer.counters["assemble_repeats"] == 6
    assert tracer.counters["mobility_nullity_one"] == tracer.counters["mobility_samples"] == 6


def test_tracing_does_not_change_output():
    from bennett8 import cli

    def sweep():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["sweep", SPATIAL, "--from", "-3.1", "--to", "3.1", "--samples", "7"])
        return out.getvalue()

    plain = sweep()
    restore = install(Tracer())
    try:
        traced = sweep()
    finally:
        restore()
    assert traced == plain


def test_layer_metrics_per_op(tracer):
    from bennett8 import cli

    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", SPHERICAL])

    _traced_op(tracer, op)
    m = layer_metrics(tracer.dump(), 1, set())
    assert m["linkage.mobility.calls_per_op"] == (1.0, "calls/op")
    assert m["linkage.assemble.repeat_ratio"] == (pytest.approx(6 / 30), "ratio")
    assert m["linkage.mobility.nullity_one_ratio"] == (1.0, "ratio")
    assert m["linkage.report.self_ms_per_op"][0] > 0
    assert m["oracle.iterations_per_solve"] == (0.0, "iter/solve")
