"""bennett8: construction, animation and verification of Bennett's spherical
8-bar linkage and its spatial counterpart built from six Bennett isograms.

The package is organized around small immutable geometry values (points,
oriented great circles, oriented lines), analytic cell and linkage solvers,
and an independent numeric closure oracle used to cross-check every derived
quantity.
"""
from .errors import (
    ClosureFailure,
    CollapsedPose,
    DegenerateBranch,
    DegenerateCircle,
    InvalidSpec,
    ParallelLines,
)
from .sphere import OrientedGreatCircle, SpherePoint
from .screws import OrientedLine
from .isogram import (
    BennettIsogramPose,
    BennettIsogramSpec,
    SphericalIsogramPose,
    SphericalIsogramSpec,
    bennett_dual_coefficient,
    bennett_symmetry_axis,
    coupled_angle,
    isogram_symmetry_spherical,
    solve_bennett_isogram,
    solve_spherical_isogram,
    transmission_coefficient,
)
from .linkage import (
    EightBarPose,
    EightBarSpec,
    SpatialEightBarPose,
    SpatialEightBarSpec,
    assemble_spatial,
    assemble_spherical,
    derive_spec,
    halfturn_products_report,
    mobility_check,
    sweep,
    symmetry_report_spatial,
    validate_spec,
)
from .oracle import LoopProblem, LoopSolution, jacobian_nullity, solve_loop

__version__ = "0.1.0"

# Only one (pure-Python) backend remains; layerbench/worker.py records this in every run.
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    "ClosureFailure",
    "CollapsedPose",
    "DegenerateBranch",
    "DegenerateCircle",
    "InvalidSpec",
    "ParallelLines",
    "SpherePoint",
    "OrientedGreatCircle",
    "OrientedLine",
    "SphericalIsogramSpec",
    "SphericalIsogramPose",
    "BennettIsogramSpec",
    "BennettIsogramPose",
    "transmission_coefficient",
    "coupled_angle",
    "solve_spherical_isogram",
    "isogram_symmetry_spherical",
    "bennett_dual_coefficient",
    "solve_bennett_isogram",
    "bennett_symmetry_axis",
    "EightBarSpec",
    "SpatialEightBarSpec",
    "EightBarPose",
    "SpatialEightBarPose",
    "validate_spec",
    "derive_spec",
    "assemble_spherical",
    "assemble_spatial",
    "halfturn_products_report",
    "symmetry_report_spatial",
    "mobility_check",
    "sweep",
    "LoopProblem",
    "LoopSolution",
    "solve_loop",
    "jacobian_nullity",
]
