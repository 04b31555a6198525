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

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import sphere
from ._dual import (
    _dual_angle,
    _dual_cross,
    _dual_halfturn,
    _dual_over_square,
    _dual_unit,
    _dual_vector,
    _line,
    _qmul,
    _unsigned_gap,
)
from .errors import ClosureFailure, CollapsedPose, DegenerateBranch, InvalidSpec, ParallelLines
from .isogram import (
    Branch,
    SphericalIsogramSpec,
    arm_joint_offset,
    coupled_angle,
    transmission_coefficient,
)
from .oracle import matrix_nullity
from .screws import OrientedLine
from .sphere import OrientedGreatCircle, SpherePoint

_ALIGNED_EPS = 1e-12
_CLOSURE_TOL = 1e-9

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


def _half_angle_construction(v: ValidatedSpherical, heights, phi1: float):
    """Arms h1..h3, bars g1..g3 and the directions of the symmetry axes
    S1..S6 at phi1, as dual vectors. Base hinge j sits at height x_j on g0
    (all 0 for the spherical linkage).

    Let W = cos(phi1/2), S = sin(phi1/2), D_j = W^2 + c_j^2 S^2 and
    f_j = e_j x e_z + eps x_j e_j. Since tan(phi_j/2) = c_j tan(phi1/2),
    arm j is ((W^2 - c_j^2 S^2) e_z + 2 c_j W S f_j) / D_j. The difference
    of two arms, and of two bars, carries the factor 2WS, which is cancelled
    by hand, so every direction keeps a finite limit at the aligned poses,
    where WS = 0. The bar that the half-turn about S_i makes of g0 is
    e_z - 2WS kappa_i S_i, with kappa_i = (S_i . e_z) / (WS) in closed form.
    The directions are the arm (bar) differences divided by 2WS, so they
    flip with the sign of WS.
    """
    w, s = np.cos(phi1 / 2), np.sin(phi1 / 2)
    ws = w * s
    c = (1.0, v.c21, v.c31)
    den = [w * w + cj * cj * s * s for cj in c]
    f = [
        np.array([np.sin(u), -np.cos(u), 0.0, x * np.cos(u), x * np.sin(u), 0.0])
        for u, x in zip(v.u, heights)
    ]
    arms = [((w * w - cj * cj * s * s) * _EZ + 2 * cj * ws * fj) / dj for cj, fj, dj in zip(c, f, den)]
    # S1, S2, S3 bisect the arm pairs (h1, h2), (h2, h3), (h3, h1)
    axes, kappa_s = [], []
    for j, k in ((0, 1), (1, 2), (2, 0)):
        a = (c[k] ** 2 - c[j] ** 2) / (den[j] * den[k])
        d = ws * a * _EZ + (c[j] / den[j]) * f[j] - (c[k] / den[k]) * f[k]
        axes.append(d)
        kappa_s.append(a * _dual_over_square(d))
    # the half-turns about S2, S3, S1 carry g0 onto g1, g2, g3
    bars = [_EZ - 2 * ws * kappa_s[i] for i in (1, 2, 0)]
    # S4, S5, S6 bisect the bar pairs (g1, g2), (g2, g3), (g3, g1)
    axes += [kappa_s[2] - kappa_s[1], kappa_s[0] - kappa_s[2], kappa_s[1] - kappa_s[0]]
    return arms, bars, axes


def _n_and_t(s: np.ndarray) -> np.ndarray:
    """For the unit symmetry axes s (rows S1..S6): the line n they meet at right
    angles, the dual unit of S1 × S2, and the line t that bisects S1 and S4
    oriented towards S1, the dual unit of S1 ± S4 (at least sqrt 2 long). On
    the sphere they are the poles of n and of t1 or t2."""
    t = s[0] + (1.0 if np.dot(s[0, :3], s[3, :3]) >= 0 else -1.0) * s[3]
    return _dual_unit(np.array([_dual_cross(s[0], s[1]), t]))


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


def _placement(v: ValidatedSpherical, heights, phi1: float):
    """Bars g0..g3 and h0..h3, unit symmetry axes S1..S6 and the joints (rows
    in JOINT_KEYS order) at phi1, all as dual vectors, plus the largest
    coupler and joint closure residual and the incidence. Base joint R0j is
    the hinge along e_j = (cos u_j, sin u_j, 0) at height x_j on g0, with
    moment x_j e_z x e_j (zero for the spherical linkage). The incidence is
    the largest part of <R_ij, g_i> and <R_ij, h_j> over the dual numbers:
    the real part is 0 when the joint is at a right angle to the bar, the
    dual part when the two lines meet. Without moments it is |R_ij . n|."""
    arms, bars, axes = _half_angle_construction(v, heights, phi1)
    units = _dual_unit(np.array(axes))
    x = {"h1": arms[0], "h2": arms[1], "h3": arms[2]}
    for j, (u, xj) in enumerate(zip(v.u, heights), start=1):
        x[f"R0{j}"] = np.array([np.cos(u), np.sin(u), 0.0, -xj * np.sin(u), xj * np.cos(u), 0.0])
    resid = 0.0
    for key, k, src in _PLACEMENT:
        image = _dual_halfturn(units[k], x[src])
        if key in x:
            resid = max(resid, float(np.linalg.norm(image - x[key])))
        else:
            x[key] = image
    g, h = [_EZ, *bars], [-x["-h0"], *arms]
    joints = np.array([x[k] for k in JOINT_KEYS])
    r = np.r_[joints, joints]
    on = np.array([g[int(k[1])] for k in JOINT_KEYS] + [h[int(k[2])] for k in JOINT_KEYS])
    real = np.sum(r[:, :3] * on[:, :3], axis=1)
    # (d, m) . (m', d') = d . m' + m . d'
    dual = np.sum(r * np.roll(on, 3, axis=1), axis=1)
    incidence = float(np.max(np.abs(np.r_[real, dual])))
    return g, h, units, joints, resid, incidence


# ---------------------------------------------------------------------------
# Spherical assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EightBarPose:
    spec: ValidatedSpherical
    phi: tuple[float, float, float]
    g: tuple[OrientedGreatCircle, ...]
    h: tuple[OrientedGreatCircle, ...]
    joints: Mapping[str, SpherePoint]
    centers: tuple[SpherePoint, ...] | None
    n_circle: OrientedGreatCircle | None
    n_pole: SpherePoint | None
    t1: OrientedGreatCircle | None
    t2: OrientedGreatCircle | None
    aligned: bool
    closure_residual: float
    incidence_residual: float

    def bar(self, key: str) -> OrientedGreatCircle:
        return self.g[int(key[1])] if key[0] == "g" else self.h[int(key[1])]


def _phis(v: ValidatedSpherical, phi1: float) -> tuple[float, float, float]:
    return (phi1, coupled_angle(v.c21, phi1), coupled_angle(v.c31, phi1))


def _is_aligned_angle(phi1: float) -> bool:
    return abs(phi1) < _ALIGNED_EPS or abs(abs(phi1) - np.pi) < _ALIGNED_EPS


def assemble_spherical(spec, phi1: float) -> EightBarPose:
    """Pose of the spherical 8-bar at arm angle phi1.

    One construction serves every phi1. phi1 = 0 (and the flip pose
    phi1 = pi) are not errors: its limit there is the aligned pose, all bars
    on g0, with the symmetry elements marked absent.
    """
    v = spec if isinstance(spec, ValidatedSpherical) else validate_spec(spec)
    g, h, units, joints, placement_resid, incidence = _placement(v, (0.0, 0.0, 0.0), phi1)
    s = np.array([sphere.tie_break_sign(u[:3]) * u for u in units])
    n, t = _n_and_t(s)[:, :3]
    n_circle = OrientedGreatCircle(sphere.tie_break_sign(n) * n)
    centers_resid = float(np.max(np.abs(s[:, :3] @ n_circle.n)))

    closure = max(placement_resid, incidence, centers_resid)
    if not closure <= _CLOSURE_TOL:
        raise ClosureFailure(f"spherical 8-bar failed to close (residual {closure:.3e})")

    aligned = _is_aligned_angle(phi1)
    # t1 mirrors S1 onto S4 and t2 onto -S4, so t is the pole of t2 where
    # S1 . S4 >= 0 and of t1 otherwise; n x t is the pole of the other
    poles = [np.cross(n, t), t] if np.dot(s[0, :3], s[3, :3]) >= 0 else [t, np.cross(n, t)]
    t1, t2 = (OrientedGreatCircle(sphere.tie_break_sign(p) * p) for p in poles)
    return EightBarPose(
        spec=v,
        phi=_phis(v, phi1),
        g=tuple(OrientedGreatCircle(b[:3]) for b in g),
        h=tuple(OrientedGreatCircle(b[:3]) for b in h),
        joints={k: SpherePoint(p[:3]) for k, p in zip(JOINT_KEYS, joints)},
        centers=None if aligned else tuple(SpherePoint(c[:3]) for c in s),
        n_circle=None if aligned else n_circle,
        n_pole=None if aligned else n_circle.pole(),
        t1=None if aligned else t1,
        t2=None if aligned else t2,
        aligned=aligned,
        closure_residual=closure,
        incidence_residual=incidence,
    )


# ---------------------------------------------------------------------------
# Reports (spherical)
# ---------------------------------------------------------------------------


# (i, a, b): the product of the half-turns about S_a and then S_b, the
# rotation about N that the spherical report names rho_{b+1}{a+1}, carries g0
# onto g_i and h_i onto h0. Over the dual numbers it is a screw about n.
_ABOUT_N = ((1, 0, 5), (2, 1, 3), (3, 2, 4))


def _about_n(s, g, h):
    """(i, a, b, |rho g0 - g_i|, |rho h_i - h0|) for each rotation rho of
    _ABOUT_N, given the axes s, bars g and bars h as dual (or direction)
    vectors."""
    for i, a, b in _ABOUT_N:
        g_img, h_img = (_dual_halfturn(s[b], _dual_halfturn(s[a], x)) for x in (g[0], h[i]))
        yield i, a, b, float(np.linalg.norm(g_img - g[i])), float(np.linalg.norm(h_img - h[0]))


def halfturn_products_report(pose: EightBarPose) -> dict[str, float]:
    """Residuals of the half-turn product identities and the derived
    symmetry statements at a non-collapsed pose. All entries are distances
    (quaternion distances up to sign for the product identities). Each
    half-turn acts by _dual_halfturn on the direction vectors; reflecting in
    the circle t is -_dual_halfturn(t.n, .), and the mirror checks are up to
    sign."""
    if pose.aligned:
        raise CollapsedPose("half-turn products are undefined at the aligned pose")
    s = np.array([c.v for c in pose.centers])
    g, h = [c.n for c in pose.g], [c.n for c in pose.h]
    t1, t2 = pose.t1.n, pose.t2.n
    rep: dict[str, float] = {}

    for key, k, src, dst in (
        ("sigma1_swaps_g0_g3", 0, g[0], g[3]),
        ("sigma1_swaps_h1_h2", 0, h[1], h[2]),
        ("sigma2_swaps_g0_g1", 1, g[0], g[1]),
        ("sigma2_swaps_h2_h3", 1, h[2], h[3]),
        ("sigma3_swaps_g0_g2", 2, g[0], g[2]),
        ("sigma3_swaps_h3_h1", 2, h[3], h[1]),
        ("sigma4_swaps_g1_g2", 3, g[1], g[2]),
        ("sigma5_swaps_g2_g3", 4, g[2], g[3]),
        ("sigma6_swaps_g3_g1", 5, g[3], g[1]),
    ):
        rep[key] = float(np.linalg.norm(_dual_halfturn(s[k], src) + dst))

    # the half-turn about S_k is the quaternion (0, S_k), and rho_XY is the
    # product sigma_X sigma_Y, the half-turn about S_Y and then about S_X
    sig = np.c_[np.zeros(6), s]
    products = _qmul(sig[:, None], sig)
    rho = {f"rho{x + 1}{y + 1}": products[x, y] for x in range(6) for y in range(6)}
    # tau321 = sigma3 rho21, tau654 = sigma6 rho54; sigma3 rho21 sigma3 = rho32 rho13
    tau321, tau654, conj = _qmul(
        np.array([sig[2], sig[5], rho["rho32"]]), np.array([rho["rho21"], rho["rho54"], rho["rho13"]])
    )
    axis321, axis654 = (tau[1:] / np.linalg.norm(tau[1:]) for tau in (tau321, tau654))
    rep["sigma3_conjugates_rho21"] = _unsigned_gap(conj, rho["rho12"])
    rep["tau321_involutive"] = _unsigned_gap(tau321, tau321 * [1, -1, -1, -1])
    rep["tau321_halfturn"] = float(abs(tau321[0]))
    rep["tau321_axis_in_h1"] = float(abs(np.dot(axis321, h[1])))
    rep["tau321_axis_in_n"] = float(abs(np.dot(axis321, pose.n_circle.n)))
    rep["tau654_halfturn"] = float(abs(tau654[0]))
    rep["tau654_axis_in_g1"] = float(abs(np.dot(axis654, g[1])))
    rep["tau654_axis_in_n"] = float(abs(np.dot(axis654, pose.n_circle.n)))
    rep["tau_axes_mirror_t1"] = _unsigned_gap(_dual_halfturn(t1, axis321), axis654)
    rep["tau_axes_mirror_t2"] = _unsigned_gap(_dual_halfturn(t2, axis321), axis654)

    for key, other in (("rho42", "rho51"), ("rho62", "rho53"), ("rho61", "rho43")):
        rep[f"{key}_eq_{other}"] = _unsigned_gap(rho[key], rho[other])
    for _, a, b, to_g, to_h in _about_n(s, g, h):
        key = f"rho{b + 1}{a + 1}"
        rep[f"{key}_maps_g0"], rep[f"{key}_maps_h"] = to_g, to_h
        q = rho[key][1:]
        rep[f"{key}_axis_on_N"] = _unsigned_gap(q / np.linalg.norm(q), pose.n_pole.v)
    for key, other in (("rho54", "rho12"), ("rho65", "rho23"), ("rho46", "rho31")):
        rep[f"{key}_eq_{other}"] = _unsigned_gap(rho[key], rho[other])

    for t_key, t in (("t1", t1), ("t2", t2)):
        for k in range(3):
            rep[f"{t_key}_swaps_S{k + 1}S{k + 4}"] = _unsigned_gap(_dual_halfturn(t, s[k]), s[k + 3])
    n = pose.n_circle
    bars = np.array([*g, *h])
    # the points n ^ g_i and n ^ h_i (rows i and i + 4), which t1 and t2
    # exchange, and the angle of each bar's plane to n's, folded into [0, pi/2]
    x = np.cross(n.n, bars)
    r = np.linalg.norm(x, axis=1, keepdims=True)
    x /= r
    angles = np.arctan2(r[:, 0], bars @ n.n)
    angles = np.minimum(angles, np.pi - angles)
    for i in range(4):
        rep[f"bisector_t1_g{i}h{i}"] = _unsigned_gap(_dual_halfturn(t1, x[i]), x[i + 4])
        rep[f"bisector_t2_g{i}h{i}"] = _unsigned_gap(_dual_halfturn(t2, x[i]), x[i + 4])

    rep["centers_on_n"] = float(np.max(np.abs(s @ n.n)))
    # coplanarity through O of the first three centers
    rep["triple_centers_aligned"] = float(abs(np.dot(np.cross(s[0], s[1]), s[2])))
    for quad_key, quad in (
        ("joint_band_10", ("R10", "R01", "R23", "R32")),
        ("joint_band_20", ("R20", "R02", "R31", "R13")),
        ("joint_band_30", ("R30", "R03", "R12", "R21")),
    ):
        ds = [abs(float(np.dot(pose.joints[k].v, n.n))) for k in quad]
        rep[quad_key] = max(ds) - min(ds)
    rep["cohort_angles_g"] = float(np.ptp(angles[:4]))
    rep["cohort_angles_h"] = float(np.ptp(angles[4:]))
    return rep


# ---------------------------------------------------------------------------
# Spatial assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpatialEightBarPose:
    spec: ValidatedSpatial
    phi: tuple[float, float, float]
    g: tuple[OrientedLine, ...]
    h: tuple[OrientedLine, ...]
    hinges: Mapping[str, OrientedLine]
    vertices: Mapping[str, np.ndarray]
    axes: tuple[OrientedLine, ...] | None
    n_line: OrientedLine | None
    t_line: OrientedLine | None
    aligned: bool
    closure_residual: float
    cell_residuals: tuple[float, ...]

    def bar(self, key: str) -> OrientedLine:
        return self.g[int(key[1])] if key[0] == "g" else self.h[int(key[1])]


def assemble_spatial(spec, phi1: float) -> SpatialEightBarPose:
    """Pose of the spatial 8-bar at hinge angle phi1, by the construction of
    the spherical one over dual vectors; the aligned poses (phi1 = 0 or pi)
    return its limit, the collapsed layout on the base line."""
    v = spec if isinstance(spec, ValidatedSpatial) else validate_spec(spec)
    if not isinstance(v, ValidatedSpatial):
        raise TypeError("assemble_spatial needs a spatial spec")
    ang = v.angular
    xs = (0.0, v.a[0], v.a[0] + v.a[1])
    g, h, units, hinges, placement_resid, incidence = _placement(ang, xs, phi1)
    # sign(WS) = sign(sin phi1) orients each axis along the difference of
    # the two bars it bisects
    s = (-1.0 if np.sin(phi1) < 0 else 1.0) * units

    # vertex V_ij: the point of bar g_i nearest hinge I_ij, which is where
    # the two meet at a right angle once the incidence holds; bar h_j must
    # pass through it too (g_i and h_j are parallel at the aligned poses)
    gi = np.array([g[int(k[1])] for k in JOINT_KEYS])
    hj = np.array([h[int(k[2])] for k in JOINT_KEYS])
    feet = np.cross(np.array([gi[:, :3], hinges[:, :3]]), np.array([gi[:, 3:], hinges[:, 3:]]))
    vertices = feet[0] + np.sum(feet[1] * gi[:, :3], axis=1, keepdims=True) * gi[:, :3]
    meet_resid = float(np.max(np.linalg.norm(np.cross(vertices, hj[:, :3]) - hj[:, 3:], axis=1)))

    cell_residuals = _spatial_cell_residuals(v, hinges)
    closure = max(placement_resid, incidence, meet_resid, max(cell_residuals))
    if not closure <= _CLOSURE_TOL:
        raise ClosureFailure(f"spatial 8-bar failed to close (residual {closure:.3e})")

    aligned = _is_aligned_angle(phi1)
    n, t = _n_and_t(s)

    return SpatialEightBarPose(
        spec=v,
        phi=_phis(ang, phi1),
        g=tuple(map(_line, g)),
        h=tuple(map(_line, h)),
        hinges=dict(zip(HINGE_KEYS, map(_line, hinges))),
        vertices=dict(sorted(zip(HINGE_KEYS, vertices))),
        axes=None if aligned else tuple(map(_line, s)),
        n_line=None if aligned else _line(n),
        t_line=None if aligned else _line(t),
        aligned=aligned,
        closure_residual=closure,
        cell_residuals=cell_residuals,
    )


def _spatial_cell_residuals(v: ValidatedSpatial, hinges: np.ndarray) -> tuple[float, ...]:
    """Bennett-cell closure of each cell, from the hinges (rows in JOINT_KEYS
    order): opposite sides have equal dual angles, and the cell is the one the
    spec designs (see _cell_design_residual). That each side meets its two
    hinges at right angles is the incidence of _placement."""
    quads = hinges[[[JOINT_KEYS.index(k) for k in quad] for quad, _ in CELLS]]
    # the dual angles (theta, l) of the sides AB, BC, CD, DA of every cell
    sides = np.stack(_dual_angle(quads, np.roll(quads, -1, axis=1)), axis=-1)
    # the opposite sides AB, CD and BC, DA have equal dual angles
    opposite = np.max(np.abs(sides[:, :2] - sides[:, 2:]), axis=(1, 2))
    return tuple(max(float(r), _cell_design_residual(v, i, sides[i])) for i, r in enumerate(opposite))


def _cell_design_residual(v: ValidatedSpatial, index: int, dual_sides) -> float:
    """Distance of cell CELLS[index] from its design, with lengths in units
    of L = a1 + a2. dual_sides are the dual angles (theta, l) of the sides
    AB, BC, CD, DA. Every cell keeps the Bennett side proportion
    l_AB sin(theta_BC) = l_BC sin(theta_AB). Cells 1-3 (base on g0) also
    have base and coupler (alpha_i, a_i), with a_3 = a1 + a2, and arms
    (|arm_joint_offset|, |b_i|): beta_i on the minus branch, pi - beta_i
    on the plus branch."""
    lengths = (*v.a, sum(v.a))
    scale = 1.0 / lengths[2]
    (theta_ab, l_ab), (theta_bc, l_bc) = dual_sides[:2]
    resid = scale * abs(l_ab * np.sin(theta_bc) - l_bc * np.sin(theta_ab))
    if index < 3:
        ang = v.angular
        cell = SphericalIsogramSpec(ang.alphas[index], ang.betas[index], ang.branches[index])
        base = (ang.alphas[index], lengths[index])
        arm = (abs(arm_joint_offset(cell)), abs(v.b[index]))
        for (theta, length), (theta0, length0) in zip(dual_sides, (base, arm, base, arm)):
            resid = max(resid, abs(theta - theta0), scale * abs(length - length0))
    return float(resid)


# ---------------------------------------------------------------------------
# Reports (spatial)
# ---------------------------------------------------------------------------


def symmetry_report_spatial(pose: SpatialEightBarPose) -> dict[str, float]:
    """Residuals of the spatial symmetry statements: the six cell axes meet a
    common line n orthogonally, the screws about n that are the products of
    the line reflections in two cell axes exchange the bar cohorts, and the
    axis t swaps the paired cell axes. Each line reflection acts by
    _dual_halfturn on (d, m) 6-vectors."""
    if pose.aligned:
        raise CollapsedPose("symmetry elements are undefined at the aligned pose")
    try:
        return _spatial_report(pose)
    except ParallelLines as exc:
        # n and the bars turn parallel as the pose collapses
        raise CollapsedPose(f"symmetry elements degenerate next to the aligned pose: {exc}") from exc


def _spatial_report(pose: SpatialEightBarPose) -> dict[str, float]:
    rep: dict[str, float] = {}
    n, t = _dual_vector(pose.n_line), _dual_vector(pose.t_line)
    s = np.array([_dual_vector(a) for a in pose.axes])
    bars = np.array([_dual_vector(b) for b in (*pose.g, *pose.h)])
    # dual angles with n of s1..s6, t and the bars g0..g3, h0..h3
    angles, dists = _dual_angle(np.array([*s, t, *bars]), n)
    for k, name in enumerate((*(f"s{k}" for k in range(1, 7)), "t")):
        rep[f"{name}_meets_n"] = float(dists[k])
        rep[f"{name}_orth_n"] = float(abs(angles[k] - np.pi / 2))
    for k in range(3):
        rep[f"t_swaps_s{k + 1}s{k + 4}"] = _unsigned_gap(_dual_halfturn(t, s[k]), s[k + 3])

    for i, _, _, to_g, to_h in _about_n(s, bars[:4], bars[4:]):
        rep[f"helix_g0g{i}"], rep[f"helix_h{i}h0"] = to_g, to_h

    # each bar's distance to n, and its angle to n folded into [0, pi/2]
    folds = np.minimum(angles[7:], np.pi - angles[7:])
    for what, values in (("dists", dists[7:]), ("angles", folds)):
        for name, part in (("g", values[:4]), ("h", values[4:])):
            rep[f"{name}_{what}_to_n"] = float(np.ptp(part))
    # the common perpendiculars of n with g_i and with h_i, which t swaps
    cp = _dual_unit(_dual_cross(n, bars))
    for i in range(4):
        rep[f"cp_mirror_g{i}h{i}"] = _unsigned_gap(_dual_halfturn(t, cp[i]), cp[i + 4])

    rep["cells"] = max(pose.cell_residuals)
    return rep


# ---------------------------------------------------------------------------
# Mobility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobilitySample:
    phi1: float
    status: str
    nullity: int | None


def _mobility_jacobian(pose: EightBarPose | SpatialEightBarPose) -> np.ndarray:
    """Exact closure Jacobian of the assembled pose in its 12 joint rates.

    Davies' method: the joint twists around every face loop of the cube
    graph sum to zero, so each face in CELLS contributes one block with
    column +-s for each of its joints R_ij. The screw s is the unit joint
    vector (spherical) or the hinge's Pluecker vector (d, m / L) with
    m = V x d and L = a1 + a2, so the spectrum does not depend on the unit
    of length (spatial). The sign is + where the loop crosses R_ij from g_i
    into h_j. Any five faces form a cycle basis; the sixth adds no rank.
    """
    if isinstance(pose, SpatialEightBarPose):
        scale = 1.0 / sum(pose.spec.a)
        screw = {}
        for key in JOINT_KEYS:
            line = pose.hinges[f"I{key[1:]}"]
            screw[key] = np.concatenate([line.d, scale * line.m])
    else:
        screw = {key: pose.joints[key].v for key in JOINT_KEYS}
    rows = len(screw[JOINT_KEYS[0]])
    jac = np.zeros((rows * len(CELLS), len(JOINT_KEYS)))
    for face, (quad, sides) in enumerate(CELLS):
        for k, key in enumerate(quad):
            # joint k of the face joins side k-1 to side k
            sign = 1.0 if sides[k - 1][0] == "g" else -1.0
            jac[rows * face : rows * (face + 1), JOINT_KEYS.index(key)] = sign * screw[key]
    return jac


def mobility_check(samples) -> list[MobilitySample]:
    """Nullity of the exact loop-closure Jacobian (all 12 joint rates, base
    fixed) at the pose of each sweep sample: 1 at regular poses; at the
    aligned poses 3 for the spherical linkage and 1 for the spatial one."""
    out: list[MobilitySample] = []
    for s in samples:
        if s.pose is None:
            out.append(MobilitySample(s.phi1, "assembly-failed", None))
        else:
            out.append(MobilitySample(s.phi1, "ok", matrix_nullity(_mobility_jacobian(s.pose))))
    return out


# ---------------------------------------------------------------------------
# Invariant families and sweep
# ---------------------------------------------------------------------------

# Each family gates the maximum of its invariants: the keys of the pose's
# report plus the pose-level residuals `closure` and `incidence`, which are
# families of their own. Every invariant is in exactly one family; the
# family order is the order of the sweep CSV's res_* columns.
FAMILIES_SPHERICAL: dict[str, tuple[str, ...]] = {
    "closure": ("closure",),
    "incidence": ("incidence",),
    "centers": ("centers_on_n", "triple_centers_aligned"),
    "products": (
        "sigma1_swaps_g0_g3", "sigma1_swaps_h1_h2", "sigma2_swaps_g0_g1", "sigma2_swaps_h2_h3",
        "sigma3_swaps_g0_g2", "sigma3_swaps_h3_h1", "sigma4_swaps_g1_g2", "sigma5_swaps_g2_g3",
        "sigma6_swaps_g3_g1", "sigma3_conjugates_rho21", "tau321_involutive", "tau321_halfturn",
        "tau321_axis_in_h1", "tau321_axis_in_n", "tau654_halfturn", "tau654_axis_in_g1",
        "tau654_axis_in_n", "rho42_eq_rho51", "rho62_eq_rho53", "rho61_eq_rho43",
        "rho54_eq_rho12", "rho65_eq_rho23", "rho46_eq_rho31",
    ),
    "mapping": (
        *(
            f"{rho}_{what}"
            for rho in ("rho61", "rho42", "rho53")
            for what in ("maps_g0", "maps_h", "axis_on_N")
        ),
        "joint_band_10", "joint_band_20", "joint_band_30", "cohort_angles_g", "cohort_angles_h",
    ),
    "bisector": (
        "tau_axes_mirror_t1", "tau_axes_mirror_t2",
        *(f"{t}_swaps_{pair}" for t in ("t1", "t2") for pair in ("S1S4", "S2S5", "S3S6")),
        *(f"bisector_{t}_g{i}h{i}" for i in range(4) for t in ("t1", "t2")),
    ),
}
FAMILIES_SPATIAL: dict[str, tuple[str, ...]] = {
    "closure": ("closure",),
    "cells": ("cells",),
    "perpendicular": tuple(f"s{k}_{what}" for k in range(1, 7) for what in ("meets_n", "orth_n")),
    "helical": ("helix_g0g1", "helix_h1h0", "helix_g0g2", "helix_h2h0", "helix_g0g3", "helix_h3h0"),
    "axis_t": (
        "t_meets_n", "t_orth_n", "t_swaps_s1s4", "t_swaps_s2s5", "t_swaps_s3s6",
        *(f"cp_mirror_g{i}h{i}" for i in range(4)),
    ),
    "cohorts": ("g_dists_to_n", "h_dists_to_n", "g_angles_to_n", "h_angles_to_n"),
}


@dataclass(frozen=True)
class SweepSample:
    phi1: float
    pose: EightBarPose | SpatialEightBarPose | None
    families: dict[str, float] | None
    error: str | None


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
        return [float(x) for x in np.linspace(phi_from, phi_to, n)]
    ts = np.linspace(np.tan(phi_from / 2), np.tan(phi_to / 2), n)
    return [float(2 * np.arctan(t)) for t in ts]


def _families(pose, report: dict[str, float] | None) -> dict[str, float]:
    """Family maxima of one pose. An aligned pose has no report, so only its
    pose-level families are present."""
    values = {"closure": pose.closure_residual}
    if isinstance(pose, SpatialEightBarPose):
        table = FAMILIES_SPATIAL
    else:
        table = FAMILIES_SPHERICAL
        values["incidence"] = pose.incidence_residual
    names = tuple(values) if report is None else tuple(table)
    values.update(report or {})
    return {name: max(values[k] for k in table[name]) for name in names}


def sweep(spec, phis) -> list[SweepSample]:
    """Poses plus per-family residual maxima at each angle of phis.

    Per-sample failures are recorded in the output and do not abort the sweep.
    """
    v = spec if isinstance(spec, (ValidatedSpherical, ValidatedSpatial)) else validate_spec(spec)
    spatial = isinstance(v, ValidatedSpatial)
    assemble = assemble_spatial if spatial else assemble_spherical
    report_of = symmetry_report_spatial if spatial else halfturn_products_report
    samples: list[SweepSample] = []
    for phi1 in phis:
        try:
            pose = assemble(v, phi1)
            report = None if pose.aligned else report_of(pose)
            samples.append(SweepSample(phi1, pose, _families(pose, report), None))
        except (ClosureFailure, CollapsedPose) as exc:
            samples.append(SweepSample(phi1, None, None, f"{type(exc).__name__}: {exc}"))
    return samples
