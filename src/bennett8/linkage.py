"""Assembly and verification of the 8-bar linkages.

Both linkages share one angular design: three base joints at arc positions
u1 < u2 < u3 on the base bar g0, arm arcs beta1..beta3 and branch signs. The
three driven cells determine three more cells whose couplers land on a single
eighth bar h0; the construction runs entirely through the half-turn /
line-reflection symmetry centers of circle (resp. line) pairs, so every
symmetry property is verified numerically on the assembled pose rather
than assumed.

Link/joint bookkeeping: joint R_ij (hinge I_ij) joins bar g_i to bar h_j,
i != j; each bar carries three joints; the linkgraph is the cube's
1-skeleton. The six four-bar cells are its faces.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._dual import (
    _LAST,
    _NEXT,
    SHORT_SQUARE,
    SHORT_UNIT,
    _cross,
    _dual_angle,
    _dual_atan2,
    _dual_cross,
    _dual_dot,
    _dual_halfturn,
    _dual_norm,
    _dual_over_square,
    _dual_qmul,
    _dual_unit,
    _halfturn_product,
    _length,
    _miss,
    _nearest,
    _unsigned_gap,
)
from .errors import ClosureFailure, CollapsedPose, DegenerateBranch, InvalidSpec, ParallelLines
from .isogram import (
    _CLOSURE_TOL,
    Branch,
    SphericalIsogramSpec,
    arm_joint_offset,
    coupled_angle,
    transmission_coefficient,
)
from .oracle import matrix_nullity
from .screws import PLUCKER_TOL, OrientedLine
from .sphere import OrientedGreatCircle, SpherePoint, tie_break_sign

_ALIGNED_EPS = 1e-12

JOINT_KEYS = tuple(
    f"R{i}{j}" for i in range(4) for j in range(4) if i != j
)
HINGE_KEYS = tuple(f"I{i}{j}" for i in range(4) for j in range(4) if i != j)

# Cells as (vertex joints A,B,C,D | sides AB,BC,CD,DA); the cell's half-turn
# swaps A<->C and B<->D. Cells 1-3 have bases on g0, cells 4-6 couplers on h0.
CELLS = (
    (("R01", "R02", "R32", "R31"), ("g0", "h2", "g3", "h1")),
    (("R02", "R03", "R13", "R12"), ("g0", "h3", "g1", "h2")),
    (("R01", "R03", "R23", "R21"), ("g0", "h3", "g2", "h1")),
    (("R13", "R23", "R20", "R10"), ("h3", "g2", "h0", "g1")),
    (("R21", "R31", "R30", "R20"), ("h1", "g3", "h0", "g2")),
    (("R12", "R32", "R30", "R10"), ("h2", "g3", "h0", "g1")),
)


# ---------------------------------------------------------------------------
# Specs and validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EightBarSpec:
    """Raw spherical 8-bar design. beta3/branch3 may be omitted and derived."""

    u1: float
    u2: float
    u3: float
    beta1: float
    beta2: float
    branch1: Branch
    branch2: Branch
    beta3: float | None = None
    branch3: Branch | None = None


@dataclass(frozen=True)
class SpatialEightBarSpec:
    """Spatial design: the angular data plus base segment lengths a1, a2 and
    (optional) arm offsets; omitted offsets are derived from the per-cell
    moduli k_i = a_i / sin(alpha_i)."""

    u1: float
    u2: float
    u3: float
    beta1: float
    beta2: float
    branch1: Branch
    branch2: Branch
    a1: float
    a2: float
    beta3: float | None = None
    branch3: Branch | None = None
    b1: float | None = None
    b2: float | None = None
    b3: float | None = None


@dataclass(frozen=True)
class ValidatedSpherical:
    u: tuple[float, float, float]
    alphas: tuple[float, float, float]
    betas: tuple[float, float, float]
    branches: tuple[Branch, Branch, Branch]
    c21: float
    c32: float
    c31: float


@dataclass(frozen=True)
class ValidatedSpatial:
    angular: ValidatedSpherical
    a: tuple[float, float]
    b: tuple[float, float, float]
    moduli: tuple[float, float, float]


def derive_third_isogram(alpha3: float, c31: float) -> list[tuple[float, Branch]]:
    """All (beta3, branch) pairs whose transmission coefficient equals c31.

    Every target is realizable on at least one branch; candidates come back
    sorted (plus before minus, then by arc) for deterministic selection.
    """
    out: list[tuple[float, Branch]] = []
    sa3, ca3 = np.sin(alpha3), np.cos(alpha3)
    for branch in ("plus", "minus"):
        if branch == "plus":
            a_c, b_c, c_c = ca3 - c31, -sa3, c31 * sa3
        else:
            a_c, b_c, c_c = c31 - ca3, sa3, c31 * sa3
        amp = float(np.hypot(a_c, b_c))
        if amp < abs(c_c) - 1e-14:
            continue
        phase = np.arctan2(b_c, a_c)
        base = np.arcsin(np.clip(c_c / amp, -1.0, 1.0))
        for root in (base - phase, np.pi - base - phase):
            x = float(np.mod(root, 2 * np.pi))
            if not 1e-9 < x < np.pi - 1e-9:
                continue
            try:
                got = transmission_coefficient(SphericalIsogramSpec(alpha3, x, branch))
            except DegenerateBranch:
                continue
            if abs(got - c31) < 1e-9 and all(abs(x - b0) > 1e-12 or br != branch for b0, br in out):
                out.append((x, branch))
    out.sort(key=lambda t: (t[1] != "plus", t[0]))
    return out


def _cell_coefficient(alpha: float, beta: float, branch: Branch, which: str) -> float:
    try:
        return transmission_coefficient(SphericalIsogramSpec(alpha, beta, branch))
    except (DegenerateBranch, ValueError) as exc:
        raise InvalidSpec(f"isogram {which}: {exc}") from exc


def _validate_angular(spec) -> ValidatedSpherical:
    u = (spec.u1, spec.u2, spec.u3)
    if not (u[0] < u[1] < u[2]):
        raise InvalidSpec("base joints must satisfy u1 < u2 < u3")
    a1, a2, a3 = u[1] - u[0], u[2] - u[1], u[2] - u[0]
    if not 0 < a1 < np.pi:
        raise InvalidSpec(f"alpha1 = u2 - u1 = {a1:.6g} outside (0, pi)")
    if not 0 < a2 < np.pi:
        raise InvalidSpec(f"alpha2 = u3 - u2 = {a2:.6g} outside (0, pi)")
    if not a3 < np.pi:
        raise InvalidSpec(f"alpha1 + alpha2 = {a3:.6g} must stay below pi")
    for name, beta in (("beta1", spec.beta1), ("beta2", spec.beta2)):
        if not 0 < beta < np.pi:
            raise InvalidSpec(f"{name} = {beta:.6g} outside (0, pi)")
    c21 = _cell_coefficient(a1, spec.beta1, spec.branch1, "1")
    c32 = _cell_coefficient(a2, spec.beta2, spec.branch2, "2")
    c31 = c21 * c32

    if spec.beta3 is None:
        if spec.branch3 is not None:
            candidates = [bc for bc in derive_third_isogram(a3, c31) if bc[1] == spec.branch3]
        else:
            candidates = derive_third_isogram(a3, c31)
        if not candidates:
            raise InvalidSpec("no third-isogram arm arc realizes c31 = c32*c21 on the requested branch")
        beta3, branch3 = candidates[0]
    else:
        beta3 = spec.beta3
        if not 0 < beta3 < np.pi:
            raise InvalidSpec(f"beta3 = {beta3:.6g} outside (0, pi)")
        matches = []
        for branch in ("plus", "minus") if spec.branch3 is None else (spec.branch3,):
            try:
                c = transmission_coefficient(SphericalIsogramSpec(a3, beta3, branch))
            except DegenerateBranch:
                continue
            if abs(c - c31) < 1e-9:
                matches.append(branch)
        if not matches:
            raise InvalidSpec(
                "isogram 3: supplied beta3 cannot realize the induced coefficient "
                f"c31 = c32*c21 = {c31:.12g}"
            )
        branch3 = matches[0]
    return ValidatedSpherical(
        u=u,
        alphas=(a1, a2, a3),
        betas=(spec.beta1, spec.beta2, beta3),
        branches=(spec.branch1, spec.branch2, branch3),
        c21=c21,
        c32=c32,
        c31=c31,
    )


def _offset_sign(branch: Branch) -> float:
    # minus-branch cells close with the arm offset measured against the arm
    # direction; the signed proportion is b = sign * k * sin(beta)
    return 1.0 if branch == "plus" else -1.0


def validate_spec(spec):
    """Normalize a raw spec, deriving beta3/branch3 and spatial offsets.

    Rejects infeasible data with a diagnostic naming the violated constraint.
    """
    if isinstance(spec, EightBarSpec):
        return _validate_angular(spec)
    if isinstance(spec, SpatialEightBarSpec):
        angular = _validate_angular(spec)
        if spec.a1 <= 0 or spec.a2 <= 0:
            raise InvalidSpec("base segment lengths a1, a2 must be positive")
        a3 = spec.a1 + spec.a2
        moduli = (
            spec.a1 / np.sin(angular.alphas[0]),
            spec.a2 / np.sin(angular.alphas[1]),
            a3 / np.sin(angular.alphas[2]),
        )
        b = []
        for idx, (given, k, beta, branch) in enumerate(
            zip(
                (spec.b1, spec.b2, spec.b3),
                moduli,
                angular.betas,
                angular.branches,
            ),
            start=1,
        ):
            expected = _offset_sign(branch) * k * np.sin(beta)
            if given is None:
                b.append(float(expected))
            else:
                if abs(given - expected) > 1e-9 * max(1.0, abs(expected)):
                    raise InvalidSpec(
                        f"isogram {idx}: arm offset b{idx} = {given:.12g} violates the "
                        f"signed side proportion (expected {expected:.12g})"
                    )
                b.append(float(given))
        return ValidatedSpatial(angular=angular, a=(spec.a1, spec.a2), b=tuple(b), moduli=moduli)
    raise TypeError(f"cannot validate {type(spec).__name__}")


def _design(v):
    """(angular design, base lengths (a1, a2, a1 + a2), arm offsets b1..b3,
    weights) of a validated spec. The weights (1, 1, 1, 1/L, 1/L, 1/L) put
    the moments of 6-vectors, and every dual part built from them, in units
    of L = a1 + a2; on the sphere every length is 0 and L = 1."""
    if isinstance(v, ValidatedSpatial):
        w = 1.0 / sum(v.a)
        return v.angular, (*v.a, sum(v.a)), v.b, np.array([1.0, 1.0, 1.0, w, w, w])
    return v, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), np.ones(6)


def derive_spec(spec):
    """Completed raw spec with beta3/branch3 (and spatial offsets) filled in."""
    v = validate_spec(spec)
    if isinstance(spec, EightBarSpec):
        return replace(spec, beta3=v.betas[2], branch3=v.branches[2])
    return replace(
        spec,
        beta3=v.angular.betas[2],
        branch3=v.angular.branches[2],
        b1=v.b[0],
        b2=v.b[1],
        b3=v.b[2],
    )


# ---------------------------------------------------------------------------
# Half-angle construction (shared by both linkages)
# ---------------------------------------------------------------------------

# Dual vectors (direction; moment) are 6-arrays; the spherical linkage uses
# their direction halves. g0 is the z axis, so its dual vector is e_z.
_EZ = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
# S1, S2, S3 bisect the arm pairs (h1, h2), (h2, h3), (h3, h1): arm j and
# arm _NEXT[j]


def _half_angle_construction(v: ValidatedSpherical, f: np.ndarray, phi1: np.ndarray):
    """Arms h1..h3, bars g1..g3 and the directions of the symmetry axes
    S1..S6 at each angle of the (N,) array phi1, as (6, 3, N), (6, 3, N) and
    (6, 6, N) stacks of dual vectors, and the angles at which two bars the
    axes bisect coincide (see _dual_over_square), given the (6, 3, 1) stack
    of the f_j below. Base hinge j sits at height x_j on g0 (all 0 for the
    spherical linkage).

    Let W = cos(phi1/2), S = sin(phi1/2), D_j = W^2 + c_j^2 S^2 and
    f_j = e_j x e_z + eps x_j e_j. Since tan(phi_j/2) = c_j tan(phi1/2),
    arm j is ((W^2 - c_j^2 S^2) e_z + 2 c_j W S f_j) / D_j. The difference
    of two arms, and of two bars, carries the factor 2WS, which is cancelled
    by hand, so every direction keeps a finite limit at the aligned poses,
    where WS = 0. The bar that the half-turn about S_i makes of g0 is
    e_z - 2WS kappa_i S_i, with kappa_i = (S_i . e_z) / (WS) in closed form.
    The directions are the arm (bar) differences divided by 2WS, so they
    flip with the sign of WS. Every f_j is at a right angle to e_z, so the
    e_z terms are added to the z column.
    """
    half = phi1 / 2
    w, s = np.cos(half), np.sin(half)
    ws = w * s
    c = np.array([[1.0], [v.c21], [v.c31]])
    cc = c * c
    ww, ccss = w * w, cc * s * s
    den = ww + ccss
    arms = 2 * c * ws * f
    arms[2] += ww - ccss
    arms /= den
    # a_j = (c_k^2 - c_j^2) / (D_j D_k) for the arm pair (j, k = _NEXT[j])
    a = (cc[_NEXT] - cc) / (den * den[_NEXT])
    cd = c / den
    d = cd * f - cd[_NEXT] * f[:, _NEXT]
    d[2] += ws * a
    over, coincide = _dual_over_square(d)
    kappa_s = a * over
    # the half-turns about S2, S3, S1 carry g0 onto g1, g2, g3
    kappa_next = kappa_s[:, _NEXT]
    bars = -(2 * ws) * kappa_next
    bars[2] += 1.0
    # S4, S5, S6 bisect the bar pairs (g1, g2), (g2, g3), (g3, g1)
    axes = np.concatenate([d, kappa_s[:, _LAST] - kappa_next], axis=1)
    return arms, bars, axes, coincide.any(axis=0)


def _n_and_t(s: np.ndarray):
    """For the unit symmetry axes s ((6, 6, N), rows S1..S6): the line n they
    meet at right angles, the dual unit of S1 × S2, and the line t that
    bisects S1 and S4 oriented towards S1, the dual unit of S1 ± S4 (at least
    sqrt 2 long), as a (6, 2, N) stack; the angles where one of them is
    undefined (see _dual_unit); and the angles with S1 . S4 >= 0, where t is
    the dual unit of S1 + S4. On the sphere n and t are the poles of n and
    of t1 or t2."""
    same_side = (s[:3, 0] * s[:3, 3]).sum(axis=0) >= 0
    t = s[:, 0] + np.where(same_side, 1.0, -1.0) * s[:, 3]
    nt, short = _dual_unit(np.stack([_dual_cross(s[:, 0], s[:, 1]), t], axis=1))
    return nt, short.any(axis=0), same_side


# (element, symmetry axis S_k as k - 1, source): the half-turn about S_k
# carries the source onto the element. An element's first entry places it;
# each later entry is a closure check against it. The half-turns about
# S4..S6 carry the oriented arms onto the reversed coupler -h0.
_PLACEMENT = (
    ("R32", 0, "R01"), ("R31", 0, "R02"),
    ("R13", 1, "R02"), ("R12", 1, "R03"),
    ("R21", 2, "R03"), ("R23", 2, "R01"),
    ("-h0", 3, "h3"), ("-h0", 4, "h1"), ("-h0", 5, "h2"),
    ("R20", 3, "R13"), ("R10", 3, "R23"), ("R30", 4, "R21"),
    ("R20", 4, "R31"), ("R10", 5, "R32"), ("R30", 5, "R12"),
)


def _placement_batches():
    """The placement table as rows of one (6, 16, N) stack of elements:
    h1..h3 and R01..R03, then the elements in the order the table places
    them. Per batch of half-turns: its mirrors (S_k as k - 1), its
    sources, the images that place an element and where, and the images
    that check one and against which."""
    elements = ["h1", "h2", "h3", "R01", "R02", "R03"]
    batches = []
    for rows in (_PLACEMENT[:9], _PLACEMENT[9:]):
        sources = [elements.index(src) for _, _, src in rows]
        placed, checked = [], []
        for r, (key, _, _) in enumerate(rows):
            if key in elements:
                checked.append((r, elements.index(key)))
            else:
                placed.append((r, len(elements)))
                elements.append(key)
        batches.append([np.array(column) for column in ([k for _, k, _ in rows], sources, *zip(*placed), *zip(*checked))])
    return elements, batches


_ELEMENTS, _PLACEMENT_BATCHES = _placement_batches()
_JOINT_ELEMENTS = np.array([_ELEMENTS.index(key) for key in JOINT_KEYS])
_JOINT_ELEMENTS_TWICE = np.concatenate([_JOINT_ELEMENTS, _JOINT_ELEMENTS])
# the bars g_i, and h_j (as 4 + j), that joint R_ij (in JOINT_KEYS order)
# joins, as rows of g0..g3, h0..h3
_JOINT_G = np.array([int(key[1]) for key in JOINT_KEYS])
_JOINT_H = np.array([4 + int(key[2]) for key in JOINT_KEYS])
_JOINT_BARS = np.concatenate([_JOINT_G, _JOINT_H])


def _placement(design, phi1: np.ndarray, errors: list):
    """Bars g0..g3, h0..h3 ((6, 8, N) stacks), unit symmetry axes S1..S6 and
    the joints ((6, 6, N) and (6, 12, N), joints in JOINT_KEYS order) at
    each angle of phi1, all as dual vectors, plus per angle the largest
    coupler and joint closure residual and the incidence, lengths in units of
    L (see _design). An angle at which an axis is undefined (two bars it
    bisects, or two lines it is built from, coincide) fails in errors
    (see _flag). Base joint R0j is the hinge along e_j = (cos u_j, sin u_j, 0)
    at height x_j = 0, a1, a1 + a2 on g0, with moment x_j e_z x e_j (zero for
    the spherical linkage). The incidence is the largest part of <R_ij, g_i>
    and <R_ij, h_j> over the dual numbers: the real part is 0 when the joint
    is at a right angle to the bar, the dual part when the two lines meet.
    Without moments it is |R_ij . n|. design is the spec's _design."""
    ang, lengths, _, weights = design
    # f_j = e_j x e_z + eps x_j e_j (see _half_angle_construction) and R0j
    f, base = np.array([
        [(math.sin(u), -math.cos(u), 0.0, x * math.cos(u), x * math.sin(u), 0.0),
         (math.cos(u), math.sin(u), 0.0, -x * math.sin(u), x * math.cos(u), 0.0)]
        for u, x in zip(ang.u, (0.0, lengths[0], lengths[2]))
    ]).transpose(1, 2, 0)[..., None]
    arms, bars, axes, coincide = _half_angle_construction(ang, f, phi1)
    _flag(errors, coincide, ClosureFailure(SHORT_SQUARE))
    units, short = _dual_unit(axes)
    _flag(errors, short.any(axis=0), ClosureFailure(SHORT_UNIT))
    n = len(phi1)
    x = np.empty((6, len(_ELEMENTS), n))
    x[:, :3], x[:, 3:6] = arms, base
    gaps = []
    # one batch of half-turns moves base joints and arms, the next the joints
    # it placed; each batch is one stack of rows at every angle
    for mirrors, sources, images_placing, placed, images_checking, checked in _PLACEMENT_BATCHES:
        images = _dual_halfturn(units[:, mirrors], x[:, sources])
        x[:, placed] = images[:, images_placing]
        gaps.append(images[:, images_checking] - x[:, checked])
    resid = _length(weights[:, None, None] * np.concatenate(gaps, axis=1)).max(axis=0)
    g_h = np.empty((6, 8, n))
    g_h[:, 0], g_h[:, 1:4], g_h[:, 4], g_h[:, 5:] = _EZ[:, None], bars, -x[:, _ELEMENTS.index("-h0")], arms
    real, dual = np.abs(_dual_dot(x[:, _JOINT_ELEMENTS_TWICE], g_h[:, _JOINT_BARS])).max(axis=1)
    incidence = np.maximum(real, dual * weights[3])
    return g_h, units, x[:, _JOINT_ELEMENTS], resid, incidence


# ---------------------------------------------------------------------------
# Assembly of both linkages, over a grid of angles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _EightBarPose:
    """A pose of either 8-bar linkage: its angle's checked row of
    _Grid.values, a read-only (rows, 6) array (see _Grid for the rows), its
    joints (spherical) or vertices (spatial) in JOINT_KEYS order, a
    read-only (12, 3) array, and its residuals. The named elements of each
    kind are built from the row the first time they are read."""

    spec: ValidatedSpherical | ValidatedSpatial
    phi: tuple[float, float, float]
    row: np.ndarray
    points: np.ndarray
    aligned: bool
    closure_residual: float
    incidence_residual: float
    cell_residuals: tuple[float, ...]


def _held(cls, **fields):
    """A value object holding rows of _Grid.values as they are: _values
    normalized and checked them as the object's constructor would."""
    obj = object.__new__(cls)
    for name, x in fields.items():
        object.__setattr__(obj, name, x)
    return obj


def _circle(x: np.ndarray) -> OrientedGreatCircle:
    return _held(OrientedGreatCircle, n=x[:3])


def _point(x: np.ndarray) -> SpherePoint:
    return _held(SpherePoint, v=x[:3])


def _line(x: np.ndarray) -> OrientedLine:
    return _held(OrientedLine, d=x[:3], m=x[3:])


def _element(make, rows, keys=None) -> functools.cached_property:
    """A pose's element, made from its row at the index rows, or its tuple of
    elements at the slice rows (a dict under keys). Rows from 20 on are
    symmetry elements, which an aligned pose does not have: they read None
    there."""

    def read(pose):
        first = rows if isinstance(rows, int) else rows.start
        if pose.aligned and first >= 20:
            return None
        if isinstance(rows, int):
            return make(pose.row[rows])
        elements = map(make, pose.row[rows])
        return tuple(elements) if keys is None else dict(zip(keys, elements))

    return functools.cached_property(read)


class EightBarPose(_EightBarPose):
    """A pose of the spherical 8-bar. Its elements: the circles g and h, the
    joints (SpherePoint by JOINT_KEYS), the centers S1..S6, the circles
    n_circle, t1, t2 and the pole N of n_circle (None at the aligned poses)."""

    g = _element(_circle, slice(0, 4))
    h = _element(_circle, slice(4, 8))
    joints = _element(_point, slice(8, 20), JOINT_KEYS)
    centers = _element(_point, slice(20, 26))
    n_circle = _element(_circle, 26)
    # built by SpherePoint's constructor, which normalizes the row again
    n_pole = _element(lambda x: SpherePoint(x[:3]), 26)
    t1 = _element(_circle, 27)
    t2 = _element(_circle, 28)


class SpatialEightBarPose(_EightBarPose):
    """A pose of the spatial 8-bar. Its elements: the lines g and h, the
    hinges (OrientedLine by HINGE_KEYS) and their vertices (rows of points),
    the axes s1..s6 and the lines n_line, t_line (None at the aligned
    poses)."""

    g = _element(_line, slice(0, 4))
    h = _element(_line, slice(4, 8))
    hinges = _element(_line, slice(8, 20), HINGE_KEYS)
    axes = _element(_line, slice(20, 26))
    n_line = _element(_line, 26)
    t_line = _element(_line, 27)

    @functools.cached_property
    def vertices(self) -> dict[str, np.ndarray]:
        return dict(zip(HINGE_KEYS, self.points))


def _phis(v: ValidatedSpherical, phi1: float) -> tuple[float, float, float]:
    return (phi1, coupled_angle(v.c21, phi1), coupled_angle(v.c31, phi1))


def _is_aligned_angle(phi1):
    return (np.abs(phi1) < _ALIGNED_EPS) | (np.abs(np.abs(phi1) - np.pi) < _ALIGNED_EPS)


@dataclass(frozen=True, eq=False)
class _Grid:
    """The construction of one design at N angles.

    `values` holds the dual vectors of the poses, normalized and checked
    (see _values), as a (6, rows, N) stack: per angle, the rows g0..g3,
    h0..h3, the joints (hinges) in JOINT_KEYS order, S1..S6, n, t1 (t in
    space) and on the sphere t2. A pose is its angle's column (see _pose).
    `points` are the joints
    on the sphere and the vertices in space, (3, 12, N), and `cells` the
    cell residuals, (6, N). `errors` holds each angle's first failure, in
    the order the stages of one pose raise them, or None."""

    spec: ValidatedSpherical | ValidatedSpatial
    phi1: np.ndarray
    values: np.ndarray
    points: np.ndarray
    aligned: np.ndarray
    closure: np.ndarray
    incidence: np.ndarray
    cells: np.ndarray
    errors: list


def _flag(errors: list, rows: np.ndarray, error) -> None:
    """Record the error, an exception or a function of the row that makes
    one, as the failure of each row of the mask that has none yet."""
    if not rows.any():
        return
    for i in np.flatnonzero(rows):
        if errors[i] is None:
            errors[i] = error(i) if callable(error) else error


_DEGENERATE = "a line or point of the pose has no direction or fails the Pluecker condition"


def _values(lines: np.ndarray, aligned: np.ndarray, spatial: bool, length: float) -> tuple[np.ndarray, np.ndarray]:
    """The construction's rows of dual vectors (see _Grid) normalized as the
    value objects' constructors normalize them (OrientedLine in space;
    SpherePoint, OrientedGreatCircle on the sphere), bit for bit, and the
    rows that fail their checks: a zero direction, and the Pluecker condition
    of a line, taken in units of the design's length L (see _design). Aligned
    poses have no symmetry element, so nothing checks theirs."""
    d, m = lines[:3], lines[3:]
    norm = np.sqrt((d * d).sum(axis=0))
    bad = norm < 1e-14
    norm = np.where(bad, 1.0, norm)
    if spatial:
        values = lines / norm
        d, m = values[:3], values[3:]
        # summed left to right, as OrientedLine sums it, zeros' signs included
        prod = d * m
        dm = prod[0] + prod[1] + prod[2]
        bad |= np.abs(dm) > PLUCKER_TOL * np.maximum(length, np.sqrt((m * m).sum(axis=0)))
        m -= dm * d
    else:
        values = np.concatenate([d / norm, m])
    bad[20:, aligned] = False
    return values, bad


def _assemble(v, phis) -> _Grid:
    """Both linkages at every angle of phis, in one pass over (6, rows, N)
    stacks of dual vectors.
    The aligned poses (phi1 = 0 or pi) are the construction's limit there,
    the collapsed layout on g0. Whether a pose closes does not depend on the
    unit of length: every length residual is taken in units of
    L = a1 + a2."""
    spatial = isinstance(v, ValidatedSpatial)
    phi1 = np.asarray(phis, dtype=float).reshape(-1)
    errors: list = [None] * len(phi1)
    design = _design(v)
    bars, units, joints, placement, incidence = _placement(design, phi1, errors)
    aligned = _is_aligned_angle(phi1)
    if spatial:
        # sign(WS) = sign(sin phi1) orients each axis along the difference
        # of the two bars it bisects
        s = np.where(np.sin(phi1) < 0, -1.0, 1.0) * units
        # vertex V_ij: the point of bar g_i nearest hinge I_ij, which is where
        # the two meet at a right angle once the incidence holds; bar h_j
        # must pass through it too (g_i and h_j are parallel at the aligned
        # poses)
        points = _nearest(bars[:, _JOINT_G], joints)
        meet = _miss(points, bars[:, _JOINT_H]).max(axis=0) * design[3][3]
        cells, parallel = _cell_residuals(v, joints)
        _flag(errors, parallel, ParallelLines("lines are parallel (or identical)"))
        closure = np.maximum.reduce([placement, incidence, meet, cells.max(axis=0)])
        _flag(errors, ~(closure <= _CLOSURE_TOL), lambda i: ClosureFailure(
            f"spatial 8-bar failed to close (residual {closure[i]:.3e})"
        ))
        nt, short, _ = _n_and_t(s)
        _flag(errors, short, ClosureFailure(SHORT_UNIT))
        lines = np.concatenate([bars, joints, s, nt], axis=1)
        values, bad = _values(lines, aligned, True, design[1][2])
        _flag(errors, bad.any(axis=0), ClosureFailure(_DEGENERATE))
    else:
        s = tie_break_sign(units[:3]) * units
        nt, short, same_side = _n_and_t(s)
        _flag(errors, short, ClosureFailure(SHORT_UNIT))
        n, t = nt[:, :1], nt[:, 1:]
        # t1 mirrors S1 onto S4 and t2 onto -S4, so t is the pole of t2 where
        # S1 . S4 >= 0 and of t1 otherwise; n x t is the pole of the other
        n_t = np.zeros_like(t)
        n_t[:3] = _cross(n[:3], t[:3])
        n_poles = np.concatenate([n, np.where(same_side, n_t, t), np.where(same_side, t, n_t)], axis=1)
        n_poles *= tie_break_sign(n_poles[:3])
        lines = np.concatenate([bars, joints, s, n_poles], axis=1)
        values, bad = _values(lines, aligned, False, 1.0)
        centers = np.abs((s[:3] * values[:3, 26:27]).sum(axis=0)).max(axis=0)
        closure = np.maximum.reduce([placement, incidence, centers])
        _flag(errors, ~(closure <= _CLOSURE_TOL), lambda i: ClosureFailure(
            f"spherical 8-bar failed to close (residual {closure[i]:.3e})"
        ))
        _flag(errors, bad.any(axis=0), ClosureFailure(_DEGENERATE))
        cells, parallel = _cell_residuals(v, joints)
        _flag(errors, parallel, ParallelLines("lines are parallel (or identical)"))
        points = values[:3, 8:20]
    return _Grid(v, phi1, values, points, aligned, closure, incidence, cells, errors)


def _pose(grid: _Grid, i: int) -> EightBarPose | SpatialEightBarPose:
    """The pose at angle i of the grid: that angle's checked row (see
    _values), points and residuals."""
    v = grid.spec
    row, points = grid.values[..., i].T.copy(), grid.points[..., i].T.copy()
    row.setflags(write=False)
    points.setflags(write=False)
    cls = SpatialEightBarPose if isinstance(v, ValidatedSpatial) else EightBarPose
    return cls(v, _phis(_design(v)[0], float(grid.phi1[i])), row, points, bool(grid.aligned[i]),
               float(grid.closure[i]), float(grid.incidence[i]), tuple(grid.cells[:, i].tolist()))


def _assemble_one(v, phi1: float):
    """The pose at phi1: the grid of that one angle, or the error it fails with."""
    grid = _assemble(v, [phi1])
    if grid.errors[0] is not None:
        raise grid.errors[0]
    return _pose(grid, 0)


def assemble_spherical(spec, phi1: float) -> EightBarPose:
    """Pose of the spherical 8-bar at arm angle phi1: the grid construction
    (see _assemble) at one angle.

    One construction serves every phi1. phi1 = 0 (and the flip pose
    phi1 = pi) are not errors: its limit there is the aligned pose, all bars
    on g0, with the symmetry elements marked absent.
    """
    v = spec if isinstance(spec, ValidatedSpherical) else validate_spec(spec)
    return _assemble_one(v, phi1)


def assemble_spatial(spec, phi1: float) -> SpatialEightBarPose:
    """Pose of the spatial 8-bar at hinge angle phi1, by the construction of
    the spherical one over dual vectors, at one angle (see _assemble); the
    aligned poses (phi1 = 0 or pi) return its limit, the collapsed layout on
    the base line."""
    v = spec if isinstance(spec, ValidatedSpatial) else validate_spec(spec)
    if not isinstance(v, ValidatedSpatial):
        raise TypeError("assemble_spatial needs a spatial spec")
    return _assemble_one(v, phi1)


# ---------------------------------------------------------------------------
# The cells against their design
# ---------------------------------------------------------------------------

# the joints A, B, C, D of each cell, as rows of the joints in JOINT_KEYS
# order, and the joints B, C, D, A that end its sides AB, BC, CD, DA
_CELL_ROWS = np.array([[JOINT_KEYS.index(k) for k in quad] for quad, _ in CELLS])
_CELL_NEXT_ROWS = np.roll(_CELL_ROWS, -1, axis=1)


def _cell_residuals(v, joints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closure of each cell from the joints ((6, 12, ...) stacks, rows in
    JOINT_KEYS order), lengths in units of L (see _design): opposite sides
    have equal dual angles, and the cell is the designed one (see
    _cell_design_residuals). Returns the (6, ...) residuals and the poses
    with two parallel joints on one side, whose dual angle means nothing."""
    # the dual angles (theta, l) of the sides AB, BC, CD, DA of every cell
    sides, parallel = _dual_angle(joints[:, _CELL_ROWS], joints[:, _CELL_NEXT_ROWS])
    weighted = np.array(sides)
    weighted[1] *= _design(v)[3][3]
    # the opposite sides AB, CD and BC, DA have equal dual angles
    opposite = np.abs(weighted[:, :, :2] - weighted[:, :, 2:]).max(axis=(0, 2))
    return np.maximum(opposite, _cell_design_residuals(v, sides)), parallel.any(axis=(0, 1))


def _cell_design_residuals(v, sides: np.ndarray) -> np.ndarray:
    """Distance of each cell from its design, lengths in units of L, given the
    dual angles (theta, l) of the sides AB, BC, CD, DA of the six cells, as
    (2, 6, 4, ...) stacks. Every cell keeps the side proportion
    l_AB sin(theta_BC) = l_BC sin(theta_AB). Cells 1-3 (base on g0) also
    have base and coupler (alpha_i, a_i), with a_3 = a1 + a2, and arms
    (|arm_joint_offset|, |b_i|): beta_i on the minus branch, pi - beta_i on
    the plus branch."""
    ang, lengths, b, weights = _design(v)
    weighted = np.array(sides)
    weighted[1] *= weights[3]
    # l_AB sin(theta_BC) and l_BC sin(theta_AB)
    terms = weighted[1, :, :2] * np.sin(weighted[0, :, 1::-1])
    resid = np.abs(terms[:, 0] - terms[:, 1])
    # the designed (theta, l) of the sides AB, BC, CD, DA of cells 1-3
    design = np.array([
        [(alpha, abs(arm_joint_offset(SphericalIsogramSpec(alpha, beta, branch)))) * 2
         for alpha, beta, branch in zip(ang.alphas, ang.betas, ang.branches)],
        [(a, abs(bi)) * 2 for a, bi in zip(lengths, b)],
    ])
    design[1] *= weights[3]
    off = np.abs(weighted[:, :3] - design.reshape(design.shape + (1,) * (weighted.ndim - 3))).max(axis=(0, 2))
    resid[:3] = np.maximum(resid[:3], off)
    return resid


# ---------------------------------------------------------------------------
# The symmetry report of both linkages
# ---------------------------------------------------------------------------

# Rows of the stack of dual vectors the report works on: its input (a pose's
# first 28 rows, see _Grid), then the common perpendiculars n^g_i, n^h_i of n
# with each bar (on the sphere the points where n meets the circles), the
# line t2, the axes of rho61, rho42, rho53 and of tau321, tau654, and S1 x S2.
_ROW = {name: k for k, name in enumerate((
    "g0", "g1", "g2", "g3", "h0", "h1", "h2", "h3", *JOINT_KEYS, "S1", "S2", "S3", "S4", "S5", "S6", "n", "t1",
    "n^g0", "n^g1", "n^g2", "n^g3", "n^h0", "n^h1", "n^h2", "n^h3",
    "t2", "rho61", "rho42", "rho53", "tau321", "tau654", "S1xS2",
))}
# (key, mirror, element, image): the half-turn about the mirror carries the
# element onto the image reversed
_SWAPS = tuple((f"sigma{k}_swaps_{a}_{b}", f"S{k}", a, b) for k, a, b in (
    (1, "g0", "g3"), (1, "h1", "h2"), (2, "g0", "g1"), (2, "h2", "h3"), (3, "g0", "g2"),
    (3, "h3", "h1"), (4, "g1", "g2"), (5, "g2", "g3"), (6, "g3", "g1"),
))
# (key, mirror, element, image): the same up to orientation; reflecting in
# the circle t is minus the half-turn about its pole
_MIRRORS = (
    *((f"tau_axes_mirror_{t}", t, "tau321", "tau654") for t in ("t1", "t2")),
    *((f"{t}_swaps_S{k}S{k + 3}", t, f"S{k}", f"S{k + 3}") for t in ("t1", "t2") for k in (1, 2, 3)),
    *((f"bisector_{t}_g{i}h{i}", t, f"n^g{i}", f"n^h{i}") for i in range(4) for t in ("t1", "t2")),
)
# (key, S_a, S_b, element, image): the half-turn about S_a and then about
# S_b, the rotation rho_ba about N (a screw about n in space), carries g0
# onto g_i and h_i onto h0
_MAPS = tuple(
    (f"rho{b}{a}_maps_{what}", f"S{a}", f"S{b}", src, dst)
    for a, b, i in ((1, 6, 1), (2, 4, 2), (3, 5, 3))
    for what, src, dst in (("g0", "g0", f"g{i}"), ("h", f"h{i}", "h0"))
)
# (key, p, q): the dual quaternions p and q are one displacement
_PRODUCTS = (
    ("sigma3_conjugates_rho21", "rho32 rho13", "rho12"),
    ("tau321_involutive", "tau321", "tau321 conjugate"),
    *((f"{p}_eq_{q}", p, q) for p, q in (
        ("rho42", "rho51"), ("rho62", "rho53"), ("rho61", "rho43"),
        ("rho54", "rho12"), ("rho65", "rho23"), ("rho46", "rho31"),
    )),
)
# (key, element, line): the element meets the line at a right angle
_PERPENDICULAR = (
    ("tau321_axis_in_h1", "tau321", "h1"), ("tau321_axis_in_n", "tau321", "n"),
    ("tau654_axis_in_g1", "tau654", "g1"), ("tau654_axis_in_n", "tau654", "n"),
)
# four joints with one angle (one dual angle in space) to n, up to orientation
_BANDS = tuple((f"joint_band_{quad[0][1:]}", quad) for quad in (
    ("R10", "R01", "R23", "R32"), ("R20", "R02", "R31", "R13"), ("R30", "R03", "R12", "R21"),
))
# the products rho_XY = sigma_X sigma_Y the report reads: the factors of
# tau321 = sigma3 rho21 and tau654 = sigma6 rho54, the movers' rows, and _PRODUCTS
_RHOS = sorted({name for names in ("rho21", "rho54", *_ROW, *(f"{p} {q}" for _, p, q in _PRODUCTS))
                for name in names.split() if name.startswith("rho")})
# Rows of the report's (8, rows, N) stack of dual quaternions: the rho_XY,
# the half-turns sigma3 and sigma6, the products tau321, tau654 and
# rho32 rho13, and the conjugate of tau321.
_QUAT = {name: k for k, name in enumerate((
    *_RHOS, "sigma3", "sigma6", "tau321", "tau654", "rho32 rho13", "tau321 conjugate",
))}
# the quaternion and dual-quaternion vector parts of the rows
_VECTOR_PARTS = np.array([1, 2, 3, 5, 6, 7])
# the conjugate of a dual quaternion negates its two vector parts
_CONJUGATE = np.array([[1.0], [-1.0], [-1.0], [-1.0], [1.0], [-1.0], [-1.0], [-1.0]])
_AXES_ON_N = tuple(f"rho{rho}_axis_on_N" for rho in ("61", "42", "53"))
_KEYS = {table: tuple(row[0] for row in rows) for table, rows in (
    ("swaps", _SWAPS), ("mirrors", _MIRRORS), ("maps", _MAPS), ("products", _PRODUCTS),
    ("perpendicular", _PERPENDICULAR), ("bands", _BANDS),
)}
# the report's keys, in the order of _symmetry_report's blocks
_REPORT_KEYS = (
    *_KEYS["swaps"], *_KEYS["mirrors"], *_KEYS["maps"], *_KEYS["products"], *_AXES_ON_N,
    "tau321_halfturn", "tau654_halfturn", *_KEYS["perpendicular"], "centers_on_n", "triple_centers_aligned",
    *_KEYS["bands"], "cohort_angles_g", "cohort_angles_h",
)


def _rows(*names: str) -> list[int]:
    return [_ROW[name] for name in names]


def _quats(*names: str) -> list[int]:
    return [_QUAT[name] for name in names]


_BARS = ("g0", "g1", "g2", "g3", "h0", "h1", "h2", "h3")
_AXES = ("S1", "S2", "S3", "S4", "S5", "S6")
# the tables as rows of the stacks: the factors of each rho_XY, and of
# tau321, tau654 and rho32 rho13; the rows each _PRODUCTS pair compares, the
# movers rho61, rho42, rho53, tau321, tau654, and the two half-turns tau
_RHO_FACTORS = tuple(_rows(*(f"S{name[k]}" for name in _RHOS)) for k in (3, 4))
_TAU_FACTORS = (_quats("sigma3", "sigma6", "rho32"), _quats("rho21", "rho54", "rho13"))
_PRODUCT_ROWS = np.array([_quats(*column) for column in list(zip(*_PRODUCTS))[1:]])
_MOVERS = _quats("rho61", "rho42", "rho53", "tau321", "tau654")
_TAUS = _quats("tau321", "tau654")
# n x g_i, n x h_i, n x t1 and S1 x S2
_CROSS_ROWS = (_rows(*["n"] * 9, "S1"), _rows(*_BARS, "t1", "S2"))
# one batch of half-turns (the swaps, the mirrors and the first half-turn of
# each map) with their targets, and the second half-turn of each map
_HALFTURNS = _SWAPS + _MIRRORS + tuple((key, a, e, image) for key, a, _, e, image in _MAPS)
_HALFTURN_ROWS = tuple(_rows(*column) for column in list(zip(*_HALFTURNS))[1:])
_SECOND_HALFTURNS = _rows(*(b for _, _, b, _, _ in _MAPS))
# the pairs of the dual inner products: the table of perpendicular lines,
# S1..S6 with n, S1 x S2 with S3 (whose vanishing puts the first three
# centres in a plane through O), the joints with n, band by band, and the
# bars with n
_BAND_JOINTS = [key for _, quad in _BANDS for key in quad]
_DOT_ROWS = (
    _rows(*(e for _, e, _ in _PERPENDICULAR), *_AXES, "S1xS2", *_BAND_JOINTS, *_BARS),
    _rows(*(line for _, _, line in _PERPENDICULAR), *["n"] * 6, "S3", *["n"] * (len(_BAND_JOINTS) + len(_BARS))),
)
# the runs of those rows whose largest value is one report value: each
# perpendicular pair, S1..S6 (the centres on n) and S1 x S2 with S3
_SIZE_RUNS = [0, 1, 2, 3, 4, 10, 11]
_BAND_DOTS = slice(_SIZE_RUNS[-1], _SIZE_RUNS[-1] + len(_BAND_JOINTS))
_BAR_DOTS = slice(_BAND_DOTS.stop, None)


def _symmetry_report(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the half-turn product identities and the derived
    symmetry statements at non-aligned poses of either linkage, over dual
    vectors: by the transference principle each half-turn about a centre of
    the sphere is a line reflection in space, and the sphere is the
    moment-free case. Entries are distances, up to sign where orientation is
    not part of the statement; a dual scalar reads its larger part.

    x is a (6, 28, N) stack of poses' first 28 rows, weighted by _design.
    Returns the (55, N) values in the order of _REPORT_KEYS, and the poses
    where a line the report needs is undefined (see _dual_unit)."""
    n = x[:, _ROW["n"] : _ROW["n"] + 1]

    # the half-turn about s_k is the dual quaternion (0, s_k), and rho_XY is
    # the product sigma_X sigma_Y, the half-turn about s_Y and then about s_X;
    # tau321 = sigma3 rho21, tau654 = sigma6 rho54, sigma3 rho21 sigma3 = rho32 rho13
    quats = np.zeros((8, len(_QUAT), x.shape[2]))
    quats[:, : len(_RHOS)] = _halfturn_product(x[:, _RHO_FACTORS[0]], x[:, _RHO_FACTORS[1]])
    quats[_VECTOR_PARTS[:, None], _quats("sigma3", "sigma6")] = x[:, _rows("S3", "S6")]
    quats[:, _quats("tau321", "tau654", "rho32 rho13")] = _dual_qmul(
        quats[:, _TAU_FACTORS[0]], quats[:, _TAU_FACTORS[1]]
    )
    quats[:, _QUAT["tau321 conjugate"]] = quats[:, _QUAT["tau321"]] * _CONJUGATE

    # the dual units of n x g_i, n x h_i, n x t1 and of the movers' vector
    # parts are the lines n^g_i, n^h_i, t2 and the movers' axes
    cross = _dual_cross(x[:, _CROSS_ROWS[0]], x[:, _CROSS_ROWS[1]])
    lines, short = _dual_unit(np.concatenate([cross[:, :9], quats[_VECTOR_PARTS[:, None], _MOVERS]], axis=1))
    stack = np.concatenate([x, lines, cross[:, 9:]], axis=1)

    images = _dual_halfturn(stack[:, _HALFTURN_ROWS[0]], stack[:, _HALFTURN_ROWS[1]])
    maps = slice(len(_SWAPS) + len(_MIRRORS), None)
    images[:, maps] = _dual_halfturn(stack[:, _SECOND_HALFTURNS], images[:, maps])
    targets = stack[:, _HALFTURN_ROWS[2]]
    minus, plus = _length(images - targets), _length(images + targets)
    pairs = quats[:, _PRODUCT_ROWS]

    real, dual = _dual_dot(stack[:, _DOT_ROWS[0]], stack[:, _DOT_ROWS[1]])
    dots = np.abs((real, dual))
    # the dual angle of each bar with n, its angle folded into [0, pi/2]
    angles, offsets = _dual_atan2(_dual_norm(cross[:, :8]), (real[_BAR_DOTS], dual[_BAR_DOTS]))
    # the joint bands and the bar cohorts g0..g3, h0..h3: the spread of each
    # run of four rows, the larger of its real and dual parts
    runs = np.concatenate([dots[:, _BAND_DOTS], (np.minimum(angles, np.pi - angles), offsets)], axis=1)
    blocks = [
        plus[: len(_SWAPS)], np.minimum(minus, plus)[len(_SWAPS) : maps.start], minus[maps],
        _unsigned_gap(pairs[:, 0], pairs[:, 1]),
        _unsigned_gap(stack[:, _rows("rho61", "rho42", "rho53")], n),
        np.abs(quats[[[0], [4]], _TAUS]).max(axis=0),
        np.maximum.reduceat(dots, _SIZE_RUNS, axis=1)[:, :-1].max(axis=0),
        np.ptp(runs.reshape(2, -1, 4, x.shape[2]), axis=2).max(axis=0),
    ]
    return np.concatenate(blocks), short.any(axis=0)


def _pose_report(pose) -> dict[str, float]:
    """The symmetry report of one non-aligned pose (see _symmetry_report)."""
    if pose.aligned:
        raise CollapsedPose("symmetry elements are undefined at the aligned pose")
    values, short = _symmetry_report((pose.row[:28] * _design(pose.spec)[3]).T[..., None])
    if short[0]:
        raise ClosureFailure(SHORT_UNIT)
    return dict(zip(_REPORT_KEYS, values[:, 0].tolist()))


def halfturn_products_report(pose: EightBarPose) -> dict[str, float]:
    """The symmetry report (see _symmetry_report) of a spherical pose."""
    return _pose_report(pose)


def symmetry_report_spatial(pose: SpatialEightBarPose) -> dict[str, float]:
    """The symmetry report (see _symmetry_report) of a spatial pose."""
    return _pose_report(pose)


# ---------------------------------------------------------------------------
# Mobility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobilitySample:
    phi1: float
    status: str
    nullity: int | None


# the sign of each joint (column, JOINT_KEYS order) in each face loop (row, CELLS
# order): + where the loop crosses R_ij from g_i into h_j, - the other way, 0 off it
_FACE_SIGNS = np.array([
    [0.0 if key not in quad else 1.0 if sides[quad.index(key) - 1][0] == "g" else -1.0 for key in JOINT_KEYS]
    for quad, sides in CELLS
])


def _mobility_jacobian(screws: np.ndarray) -> np.ndarray:
    """Exact closure Jacobian of a pose in its 12 joint rates, from the joint
    screws, a (12, 6) stack in JOINT_KEYS order.

    Davies' method: the joint twists around every face loop of the cube
    graph sum to zero, so each face in CELLS contributes six rows, with
    column +-s for each of its joints (see _FACE_SIGNS). A hinge's screw s
    is (d, m / L) with m = V x d and L = a1 + a2, so the spectrum does not
    depend on the unit of length; on the sphere s is the unit joint vector
    with zero moment. Any five faces form a cycle basis. A (..., 12, 6)
    stack of screws gives the (..., 36, 12) stack of their Jacobians.
    """
    columns = np.swapaxes(screws, -1, -2)[..., None, :, :]
    return (_FACE_SIGNS[:, None, :] * columns).reshape(*screws.shape[:-2], -1, len(JOINT_KEYS))


def mobility_check(samples) -> list[MobilitySample]:
    """Nullity of the exact loop-closure Jacobian (all 12 joint rates, base
    fixed) at the pose of each sweep sample: 1 at regular poses; at the
    aligned poses 3 for the spherical linkage and 1 for the spatial one.

    The joint screws are read off the sample's row of its sweep's grid, so
    no pose is built, and the Jacobians of all the samples go through one
    stacked SVD. A sample that failed has no row and reads
    "assembly-failed", as its `points` read None."""
    samples = list(samples)
    held = [s for s in samples if s._grid is not None]
    nullities = iter(())
    if held:
        # one gather per run of samples from one sweep: one for all of verify's
        screws = np.concatenate([
            (grid.values[:, 8:20, [s._row for s in run]] * _design(grid.spec)[3][:, None, None]).T
            for grid, run in itertools.groupby(held, key=lambda s: s._grid)
        ])
        nullities = iter(matrix_nullity(_mobility_jacobian(screws)).tolist())
    return [
        MobilitySample(s.phi1, "assembly-failed", None) if s._grid is None
        else MobilitySample(s.phi1, "ok", next(nullities))
        for s in samples
    ]


# ---------------------------------------------------------------------------
# Invariant families and sweep
# ---------------------------------------------------------------------------

# One table for both linkages. Each family gates the maximum of its
# invariants: the report's keys, or the pose-level `closure`, `incidence` and
# `cells` (the largest cell residual), which are families of their own. Every
# invariant is in exactly one family; the family order is the order of the
# sweep CSV's res_* columns.
FAMILIES: dict[str, tuple[str, ...]] = {
    "closure": ("closure",),
    "incidence": ("incidence",),
    "cells": ("cells",),
    "centers": ("centers_on_n", "triple_centers_aligned"),
    "products": (
        *_KEYS["swaps"], *_KEYS["products"], *_KEYS["perpendicular"], "tau321_halfturn", "tau654_halfturn",
    ),
    "mapping": (*_KEYS["maps"], *_AXES_ON_N, *_KEYS["bands"], "cohort_angles_g", "cohort_angles_h"),
    "bisector": _KEYS["mirrors"],
}


# the invariants of a pose as rows of its pose-level residuals (closure,
# incidence, largest cell residual) followed by its report's values, family
# by family, and where each family's run of rows starts
_FAMILY_ROWS = [("closure", "incidence", "cells", *_REPORT_KEYS).index(key) for keys in FAMILIES.values() for key in keys]
_FAMILY_STARTS = [0, *itertools.accumulate(map(len, FAMILIES.values()))][:-1]
# an aligned pose has no report, so only its pose-level families
_POSE_FAMILIES = ("closure", "incidence", "cells")
_REPORT_FAMILIES = np.array([key not in _POSE_FAMILIES for key in FAMILIES])


@dataclass(eq=False)
class SweepSample:
    """One angle of a sweep: its family maxima and the error that failed it,
    and its row of the sweep's grid (none where it failed). The pose is built
    from the row the first time it is read; `points` reads the grid's arrays
    without building it."""

    phi1: float
    families: dict[str, float] | None
    error: str | None
    _grid: _Grid | None = field(default=None, repr=False)
    _row: int = 0

    @functools.cached_property
    def pose(self) -> EightBarPose | SpatialEightBarPose | None:
        """The pose at the sample's angle; None where it failed."""
        return None if self._grid is None else _pose(self._grid, self._row)

    @property
    def points(self) -> np.ndarray | None:
        """The joints (spherical) or the vertices (spatial) of the pose in
        JOINT_KEYS order, as a (12, 3) array, read off the sweep's grid;
        None where the sample failed."""
        return None if self._grid is None else self._grid.points[..., self._row].T


def phi_grid(phi_from: float, phi_to: float, n: int, uniform_angle: bool = False) -> list[float]:
    """Sample grid in phi1. Default spacing is uniform in tan(phi/2); ranges
    that touch an odd multiple of pi (where the tangent is singular) fall
    back to uniform angle spacing, which stays regular through the flip."""
    if n < 2:
        raise ValueError("need at least two samples")
    lo, hi = min(phi_from, phi_to), max(phi_from, phi_to)
    k_lo = int(np.ceil((lo - np.pi) / (2 * np.pi)))
    k_hi = int(np.floor((hi - np.pi) / (2 * np.pi)))
    singular = k_lo <= k_hi
    if uniform_angle or singular:
        return np.linspace(phi_from, phi_to, n).tolist()
    ts = np.linspace(np.tan(phi_from / 2), np.tan(phi_to / 2), n)
    return (2 * np.arctan(ts)).tolist()


class _SweepTable(NamedTuple):
    """A sweep of one design over N angles, as arrays.

    `grid` is the construction (see _Grid), `families` the (N, 7) family
    maxima in FAMILIES order, and `empty` the (N, 7) cells that hold no
    value: every family of an angle that failed, and the report's families
    at an aligned pose. Every other cell holds its value, nan included.
    `errors` holds the text of each angle's typed error, or None, and
    `failed` says which angles have one.

    A NamedTuple: making a dataclass at import added about 0.25 MB to the
    peak resident memory of every command."""

    phis: list
    grid: _Grid
    families: np.ndarray
    empty: np.ndarray
    errors: list[str | None]
    failed: np.ndarray

    def samples(self, rows) -> list[SweepSample]:
        """The SweepSamples of the table's rows, in the given order."""
        out = []
        for i in rows:
            if self.errors[i] is not None:
                out.append(SweepSample(self.phis[i], None, self.errors[i]))
            else:
                names = _POSE_FAMILIES if self.grid.aligned[i] else FAMILIES
                out.append(SweepSample(self.phis[i], dict(zip(names, self.families[i].tolist())), None,
                                       self.grid, int(i)))
        return out


def _sweep_table(v, phis) -> _SweepTable:
    """The sweep of a validated spec at every angle of phis, from one
    construction (_assemble) and one report (_symmetry_report) over the
    whole grid.

    Per-angle failures, each a typed error (see errors.py), are recorded in
    the table and do not abort the sweep; an angle fails as assemble_* and
    the report would fail at that angle alone."""
    phis = list(phis)
    grid = _assemble(v, phis)
    errors = grid.errors
    ok = np.array([e is None for e in errors], dtype=bool) & ~grid.aligned
    values = np.full((3 + len(_REPORT_KEYS), len(errors)), np.nan)
    values[0], values[1], values[2] = grid.closure, grid.incidence, grid.cells.max(axis=0)
    if ok.any():
        failed = np.zeros_like(ok)
        values[3:, ok], failed[ok] = _symmetry_report(grid.values[:, :28, ok] * _design(v)[3][:, None, None])
        _flag(errors, failed, ClosureFailure(SHORT_UNIT))
    families = np.maximum.reduceat(values[_FAMILY_ROWS], _FAMILY_STARTS).T
    failed = np.array([e is not None for e in errors], dtype=bool)
    empty = failed[:, None] | (grid.aligned[:, None] & _REPORT_FAMILIES)
    texts = [None if e is None else f"{type(e).__name__}: {e}" for e in errors]
    return _SweepTable(phis, grid, families, empty, texts, failed)


def sweep(spec, phis) -> list[SweepSample]:
    """Poses plus per-family residual maxima at each angle of phis (see
    _sweep_table), one SweepSample per angle.

    Per-sample failures, each a typed error (see errors.py), are recorded in
    the output and do not abort the sweep; a sample fails as assemble_* and
    the report would fail at its angle alone.
    """
    v = spec if isinstance(spec, (ValidatedSpherical, ValidatedSpatial)) else validate_spec(spec)
    table = _sweep_table(v, phis)
    return table.samples(range(len(table.phis)))
