"""Layer names of the benchmark's trace, and what each one should move.

A layer is a bennett8 module; `linkage` is split by function into the
stages validate, assemble, report, mobility and sweep. Every public
function of every bennett8 module belongs to one layer; the benchmark's
tests fail when a new one does not.
"""

LAYERS = (
    "cli",
    "scene",
    "linkage.validate",
    "linkage.assemble",
    "linkage.report",
    "linkage.mobility",
    "linkage.sweep",
    "isogram",
    "sphere",
    "screws",
    "oracle",
    "kernels",
)

# Layers called tens of thousands of times per op. Their calls are counted
# and timed per parent span instead of opening one span per call.
PRIMITIVE_LAYERS = frozenset({"sphere", "screws", "kernels"})
PRIMITIVE_FUNCTIONS = frozenset({("scene", "format_float")})

_MODULE_LAYERS = {
    "bennett8.cli": "cli",
    "bennett8.scene": "scene",
    "bennett8.isogram": "isogram",
    "bennett8.sphere": "sphere",
    "bennett8.screws": "screws",
    "bennett8.oracle": "oracle",
    "bennett8.kernels": "kernels",
    "bennett8._kernels_py": "kernels",
    "bennett8._kernels_cy": "kernels",
}

_LINKAGE_LAYERS = {
    "validate_spec": "linkage.validate",
    "derive_spec": "linkage.validate",
    "derive_third_isogram": "linkage.validate",
    "assemble_spherical": "linkage.assemble",
    "assemble_spatial": "linkage.assemble",
    "halfturn_products_report": "linkage.report",
    "symmetry_report_spatial": "linkage.report",
    "mobility_check": "linkage.mobility",
    "sweep": "linkage.sweep",
    "phi_grid": "linkage.sweep",
}


def layer_of(module: str, name: str) -> str | None:
    """Layer of the public function `module.name`; None for private names,
    for modules outside bennett8, and for functions no layer claims yet
    (those stay unwrapped, so their time counts to their caller's layer)."""
    if name.startswith("_") or not module.startswith("bennett8"):
        return None
    if module == "bennett8.linkage":
        return _LINKAGE_LAYERS.get(name)
    return _MODULE_LAYERS.get(module)


def is_primitive(layer: str, name: str) -> bool:
    return layer in PRIMITIVE_LAYERS or (layer, name) in PRIMITIVE_FUNCTIONS


# Which end-to-end metric each layer metric should move, on which workload.
# Written down before measuring; printed beside every traced result.
PREDICTIONS = (
    ("sphere.*, screws.*, linkage.report.self_ms_per_op",
     "ops_per_s, op_*_p50_s", "sweep_full, verify_random; small on pose_export; "
     "none on oracle_crosscheck beyond one assembly"),
    ("linkage.assemble.self_ms_per_op, linkage.assemble.repeat_ratio",
     "op_spatial_p50_s", "verify_random"),
    ("linkage.mobility.*, oracle calls under it",
     "op_*_p50_s", "verify_random only; no change on sweep_full and pose_export"),
    ("scene.self_ms_per_op",
     "op_*_p50_s", "pose_export; minor on sweep_full (format_float); none on verify_random"),
    ("oracle.*, kernels.*",
     "ops_per_s", "oracle_crosscheck; slight on spherical verify_random through mobility"),
    ("linkage.validate.*", "setup_s", "all workloads"),
    ("linkage.assemble.errors_per_op, linkage.assemble.untyped_errors",
     "ok_ratio (1 - fail_ratio)", "all workloads; every op succeeds at present, so a rise "
     "here and a drop in ok_ratio mean a change broke an op"),
    ("linkage.assemble.self_ms_per_op on the aligned poses (item 1)",
     "op_*_p50_s, op_*_tail_s", "pose_export (a quarter of its poses are exactly aligned), sweep_full (phi1 = 0)"),
)
