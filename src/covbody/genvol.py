"""Dual volumes with general radial kernels, and the two chord-integral
bounds they satisfy against concave ray functions.

A kernel G(r, theta) with one-sided homogeneity of degree alpha bounds the
weighted chord integral of h(f) from below (G(ur) >= u^a G(r)) or above
(G(ur) <= u^a G(r)) by a 1-D concavity constant times a dual volume; the
upper bound integrates over the tangent-extension body Ltilde with radial
-f(0,theta)/(df/dr at 0). Equality holds exactly for ray-affine f with
constant center value and exactly homogeneous G, and both checkers share one
inner quadrature rule so those fixtures cancel to machine precision.

Kernels and ray functions take whole sets of directions: a kernel maps radii
(N, Q) and one direction per row (N, d) to (N, Q), and a ray function reads
N rays at once (`ConcaveRayFn.rays`). Every ray integral here goes through
`_ray_sums`, a chunk of rays at a time, on one rule, `_ray_rule`:
Gauss-Jacobi for the weight t^alpha on [0, 1], scaled to each [0, rho].
Every kernel is r^alpha times a smooth factor, so the power is integrated
exactly at any alpha > -1, and a power kernel (or h(f) times one, for
polynomial h(f)) exactly to rounding.

Concavity of f along rays is the caller's precondition; nothing here samples
it. The covariogram fixture g^s gets it from the density's s-concavity,
which the caller checks (for s-concave mu, g^s is concave on D^m K by the
Borell-Brascamp-Lieb inequality); the closed-form fixtures are concave by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import gauss_jacobi_01
from .covariogram import CovRay, MDirection, diffbody_polytope, diffbody_radial
from .errors import InputError, NumericError, job_field, job_number, spec_kind
from .measure import ConstantDensity, Density, WeightedMeasure
from .oracle import rng_for
from .polytope import DEDUPE_BLOCK, StarBodyFn
from .projection import ProjectionBody
from .report import VerifyReport

__all__ = [
    "KernelG",
    "ConcaveRayFn",
    "power_kernel",
    "power_density_kernel",
    "kernel_from_spec",
    "affine_ray_fn",
    "profile_ray_fn",
    "capped_ray_fn",
    "covariogram_ray_fn",
    "dual_volume",
    "chord_lower_check",
    "chord_upper_check",
    "beta_constant",
]


# Relative gate between the inner rule of dual_volume and its doubling.
DUAL_GATE = 1e-6

# KernelG.validate: random (u, r, theta) triples, drawn with r below
# VALIDATE_RADIUS, and the radius of its integrability test near 0.
VALIDATE_SAMPLES = 100
VALIDATE_RADIUS = 1.0

# Gauss nodes of beta_constant's 1-D rule.
BETA_NODES = 96

# chord_upper_check: a ray derivative at 0 within OMEGA_TOL of 0 puts the
# direction in Omega_f.
OMEGA_TOL = 1e-8


def _ray_rule(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w on [0, 1] with rho * (w @ G(rho * t)) =
    int_0^rho G(r) dr for G = r^alpha q(r), q a polynomial of degree < 2n:
    the n-node Gauss-Jacobi rule for t^alpha, its weights divided by
    t^alpha. Every ray scales this one rule."""
    t, w = gauss_jacobi_01(n, alpha)
    return t, w * t ** -alpha


def _ray_sums(G: "KernelG", dirs: np.ndarray, radii: np.ndarray, n: int,
              factor: Callable[[slice], np.ndarray] | None = None) -> np.ndarray:
    """w @ (factor * G(rho t, theta)) on each ray (theta, rho) of dirs and
    radii, by the n-node `_ray_rule`: times rho, the ray's integral of
    factor G over [0, rho]. factor(rows) gives the factor (R, n) of the
    rays dirs[rows] at the rule's radii (1 when None). The rays go a chunk
    at a time, each chunk's tables within DEDUPE_BLOCK floats (a 3-D
    default dual volume would otherwise hold 20000 x 128 of them), and a
    ray's sum is the same bits in any chunk."""
    t, w = _ray_rule(n, G.alpha)
    sums = np.empty(len(radii))
    step = max(1, DEDUPE_BLOCK // n)
    for a in range(0, len(radii), step):
        rows = slice(a, a + step)
        vals = G(radii[rows, None] * t, dirs[rows])
        if factor is not None:
            vals = factor(rows) * vals
        sums[rows] = np.einsum("nq,q->n", vals, w)
    return sums


def _ray_integral(G: "KernelG", weights: np.ndarray, dirs: np.ndarray,
                  radii: np.ndarray, n: int,
                  factor: Callable[[slice], np.ndarray] | None = None) -> float:
    """sum_i weights_i int_0^radii_i factor G(r, dirs_i) dr (`_ray_sums`)."""
    # einsum, not a BLAS dot: its sum does not depend on the thread count
    return float(np.einsum("n,n->", weights * radii, _ray_sums(G, dirs, radii, n, factor)))


@dataclass(frozen=True)
class KernelG:
    """Positive kernel G(r, theta) on (0, inf) x S^(d-1) with a declared
    homogeneity side: "lower" means G(ur) >= u^alpha G(r) for u in [0,1],
    "upper" the reverse, "both" exact homogeneity. `fn` maps radii (N, Q)
    and one direction per row (N, d) to the values (N, Q)."""

    dim: int
    alpha: float
    side: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (r (N, Q), theta (N, d)) -> (N, Q)
    label: str = "kernel"

    def __post_init__(self):
        if self.alpha <= -1:
            raise InputError("kernel exponent alpha must exceed -1")
        if self.side not in ("lower", "upper", "both"):
            raise InputError(f"unknown kernel side {self.side!r}")

    def __call__(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(r, dtype=float), theta), dtype=float)

    def validate(self, seed: int = 42) -> None:
        """Spot-check positivity and the declared homogeneity side at
        VALIDATE_SAMPLES random (u, r, theta), and integrability near 0 by
        quadrature refinement on four random directions. Raises with the
        first failed triple so callers can surface it."""
        rng = rng_for(seed, f"kernel-{self.label}")
        theta = rng.standard_normal((VALIDATE_SAMPLES, self.dim))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        r = rng.uniform(1e-3, VALIDATE_RADIUS, VALIDATE_SAMPLES)
        u = rng.uniform(0.0, 1.0, VALIDATE_SAMPLES)
        g_r, g_ur = self(np.stack([r, np.maximum(u * r, 1e-300)], axis=1), theta).T
        ref = u**self.alpha * g_r
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = (g_ur - ref) / np.maximum(np.abs(ref), 1e-300)
        signed = (g_r <= 0) | (g_ur <= 0)
        below = ~signed & (rel < -1e-9) & (self.side in ("lower", "both"))
        above = ~signed & (rel > 1e-9) & (self.side in ("upper", "both"))
        bad = signed | below | above
        if bad.any():
            i = int(np.argmax(bad))
            at = f"r={r[i]:.6g}, theta={np.round(theta[i], 4).tolist()}"
            if signed[i]:
                raise InputError(f"kernel '{self.label}' is not positive at {at}")
            relation = ">=" if below[i] else "<="
            raise InputError(f"kernel '{self.label}' fails G(ur) {relation} u^alpha G(r) "
                             f"at u={u[i]:.6g}, {at}")
        theta = rng.standard_normal((4, self.dim))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        radii = np.full(len(theta), VALIDATE_RADIUS)
        coarse, fine = (VALIDATE_RADIUS * _ray_sums(self, theta, radii, n) for n in (64, 128))
        bad = ~(np.isfinite(coarse) & np.isfinite(fine)) | (
            np.abs(fine - coarse) > 1e-4 * np.maximum(np.abs(fine), 1e-12))
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericError(
                f"kernel '{self.label}' integral near 0 does not converge "
                f"({coarse[i]:.6g} vs {fine[i]:.6g} under refinement)")


def power_kernel(dim: int, alpha: float, scale: float = 1.0) -> KernelG:
    """G(r, theta) = scale * r^alpha; exactly homogeneous, valid on both
    sides. scale = dim with alpha = dim-1 reproduces the volume kernel."""
    if scale <= 0:
        raise InputError("kernel scale must be positive")
    return KernelG(dim, alpha, "both",
                   lambda r, theta: scale * r**alpha,
                   label=f"power({alpha})")


def power_density_kernel(dim: int, alpha: float, density: Density) -> KernelG:
    """G(r, theta) = r^alpha * phi(r theta). The homogeneity side follows the
    density's radial monotonicity: non-decreasing phi gives the upper side
    (phi(u r theta) <= phi(r theta) for u <= 1), anything else is declared
    lower and left to validate() to confirm."""
    if density.dim != dim:
        raise InputError("density dimension does not match the kernel")
    if isinstance(density, ConstantDensity):
        side = "both"
    elif density.radially_nondecreasing:
        side = "upper"
    else:
        side = "lower"

    def fn(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        points = r[..., None] * theta[:, None, :]
        return r**alpha * density(points.reshape(-1, dim)).reshape(r.shape)

    return KernelG(dim, alpha, side, fn, label=f"power-density({alpha})")


def kernel_from_spec(spec: dict, dim: int) -> KernelG:
    """Parse the kernel input schema ({"type": "power", ...} or
    {"type": "power-density", ...})."""
    from .measure import density_from_spec

    kind = spec_kind(spec, "kernel", {"power": {"exponent", "scale"},
                                      "power-density": {"exponent", "density"}})
    alpha = job_number(spec.get("exponent", dim - 1), "kernel exponent")
    if kind == "power":
        return power_kernel(dim, alpha,
                            job_number(spec.get("scale", 1.0), "kernel scale"))
    return power_density_kernel(dim, alpha, density_from_spec(
        job_field(spec, "density", "a power-density kernel"), dim))


@dataclass(frozen=True)
class ConcaveRayFn:
    """Non-negative function f(r, theta), concave in r on [0, rho_L(theta)]
    and zero beyond. `rays(dirs, t)` reads it on the rays of N directions
    (N, dim) at the fractions t (Q,) of each ray's length: what the chord
    bounds read, rho_L (N,), f(rho_L t_j) (N, Q), f(0) (N,) and df/dr at
    0 (N,). Concavity is the constructor's precondition and is not
    checked."""

    dim: int
    rays: Callable[[np.ndarray, np.ndarray], tuple]  # (dirs, t) -> (rho_L, f, f(0), df/dr(0))


def affine_ray_fn(L: StarBodyFn, peak: float = 1.0) -> ConcaveRayFn:
    """f(r, theta) = peak * (1 - r/rho_L(theta))_+ — the ray-affine equality
    fixture of both chord bounds."""
    if peak <= 0:
        raise InputError("peak must be positive")
    return profile_ray_fn(L, lambda t: peak * (1.0 - t), -peak)


def profile_ray_fn(L: StarBodyFn, profile: Callable[[np.ndarray], np.ndarray],
                   dprofile0: float) -> ConcaveRayFn:
    """f(r, theta) = profile(r / rho_L(theta)) for a profile on [0,1] with
    profile(t) = 0 for t >= 1; dprofile0 is profile'(0+). The profile must
    be concave: the caller's precondition, which is not checked."""
    p0 = float(profile(np.array([0.0]))[0])

    def rays(dirs: np.ndarray, t: np.ndarray) -> tuple:
        rho = L.radial(dirs)
        f = np.where(t < 1.0, profile(np.minimum(t, 1.0)), 0.0)
        return rho, np.broadcast_to(f, (len(rho), len(t))), np.full(len(rho), p0), dprofile0 / rho

    return ConcaveRayFn(L.dim, rays)


def capped_ray_fn(L: StarBodyFn, cap_cos: float = 0.5,
                  peak: float = 1.0) -> ConcaveRayFn:
    """Piecewise fixture with a flat polar cap: constant peak along rays with
    <theta, e_1> >= cap_cos (their derivative at 0 vanishes), the affine tent
    elsewhere. Exercises the Omega branch of the upper chord bound."""

    def rays(dirs: np.ndarray, t: np.ndarray) -> tuple:
        rho = L.radial(dirs)
        cap = np.asarray(dirs)[:, 0] >= cap_cos
        f = np.where(cap[:, None], np.where(t <= 1.0, peak, 0.0),
                     peak * np.maximum(1.0 - t, 0.0))
        return rho, f, np.full(len(rho), peak), np.where(cap, 0.0, -peak / rho)

    return ConcaveRayFn(L.dim, rays)


def covariogram_ray_fn(K, mu: WeightedMeasure, m: int, s: float) -> ConcaveRayFn:
    """f(r, thetabar) = g(K, r thetabar)^s for the m-th order covariogram g
    of the weighted body, read from each ray's fit (`CovRay.profile`):
    support is the m-th difference body, the center value is mu(K)^s, and
    the ray derivative at 0 is the exact -s mu(K)^(s-1) * h of the
    projection body. f is concave along rays when mu is s-concave; the
    caller checks that class. mu(K) is read once. At m = 1 rho_D of a set
    of rays comes from one `radial_batch` of the polytope K - K, a hull of
    V^2 points in R^n; at m >= 2 from one stacked `diffbody_radial` call,
    the LPs of all the rays in one simplex tableau, since the hull of
    D^m(K) (V^(m+1) points in R^(nm)) costs as much as hundreds to
    thousands of them."""
    if s <= 0:
        raise InputError("the covariogram fixture needs s > 0")
    n = K.dim
    muK = float(mu.mass(K))
    body = ProjectionBody(K, mu, m)
    D = diffbody_polytope(K, 1) if m == 1 else None

    def rays(dirs: np.ndarray, t: np.ndarray) -> tuple:
        dirs = np.asarray(dirs, dtype=float)
        thetas = [MDirection(u.reshape(m, n)) for u in dirs]
        if D is None:
            rho = diffbody_radial(K, dirs.reshape(-1, m, n))
        else:
            rho = D.radial_batch(dirs, np.zeros(n * m))
        g = np.empty((len(dirs), len(t)))
        for i, theta in enumerate(thetas):
            g[i] = CovRay._read(K, mu, theta, muK, rho[i]).profile()(rho[i] * t)
        f = np.where(g > 0, np.maximum(g, 0.0) ** s, 0.0)
        slope = -s * muK ** (s - 1.0) * body.support_batch(dirs)
        return rho, f, np.full(len(dirs), muK ** s), slope

    return ConcaveRayFn(n * m, rays)


def dual_volume(G: KernelG, L: StarBodyFn, quad, *, inner: int = 64) -> float:
    """(1/d) int_S int_0^rho_L G(r, theta) dr dtheta by Gauss quadrature on
    every ray; refuses to return a value the inner rule has not converged
    on (a relative change above DUAL_GATE when the node count doubles)."""
    if G.dim != L.dim or quad.dim != G.dim:
        raise InputError("kernel, star body and quadrature dimensions differ")
    return _dual_volume(G, quad, np.asarray(L.radial(quad.nodes), dtype=float), inner)


def _dual_volume(G: KernelG, quad, rho: np.ndarray, inner: int) -> float:
    totals = [_ray_integral(G, quad.weights, quad.nodes, rho, n) for n in (inner, 2 * inner)]
    if not all(math.isfinite(v) for v in totals) or (
            abs(totals[1] - totals[0]) > DUAL_GATE * max(abs(totals[1]), 1e-12)):
        raise NumericError(
            f"dual volume inner quadrature did not converge "
            f"({totals[0]:.10g} vs {totals[1]:.10g} at {inner}/{2*inner} nodes)")
    return totals[1] / G.dim


def beta_constant(h: Callable[[np.ndarray], np.ndarray], f0, alpha: float):
    """(alpha+1) int_0^1 h(f0 tau)(1-tau)^alpha dtau for each centre value
    of the array f0 (or for one number), the weight (1-tau)^alpha carried by
    Gauss-Jacobi in 1 - tau."""
    t, w = gauss_jacobi_01(BETA_NODES, alpha)
    vals = np.asarray(h(np.asarray(f0, dtype=float)[..., None] * (1.0 - t)), dtype=float)
    return (alpha + 1.0) * np.einsum("...q,q->...", vals, w)


def chord_lower_check(f: ConcaveRayFn, h, G: KernelG, quad, *,
                      inner: int = 64, tolerance: float = 1e-3) -> VerifyReport:
    """int int h(f) G dr dtheta >= d * beta_alpha * dual_volume(G, supp f),
    with beta_alpha the infimum over directions of the 1-D concavity
    constant. Needs the lower homogeneity side, and f concave along rays
    (a precondition of the caller, not checked here)."""
    if G.side not in ("lower", "both"):
        raise InputError("chord lower bound needs a kernel with the lower side")
    if f.dim != G.dim or quad.dim != G.dim:
        raise InputError("ray function, kernel and quadrature dimensions differ")
    rho, fvals, f0, _ = f.rays(quad.nodes, _ray_rule(inner, G.alpha)[0])
    lhs = _ray_integral(G, quad.weights, quad.nodes, rho, inner,
                        lambda rows: np.asarray(h(fvals[rows]), dtype=float))
    # beta depends on the centre value alone, which most fixtures share
    beta = float(beta_constant(h, np.unique(f0), G.alpha).min())
    rhs = G.dim * beta * _dual_volume(G, quad, rho, inner)
    rel = (lhs - rhs) / max(abs(rhs), 1e-300)
    return VerifyReport(
        name="chord-lower", lhs=lhs, rhs=rhs, ratio=lhs / rhs, bound=1.0,
        margin=rel + tolerance, passed=bool(rel >= -tolerance),
        samples=len(quad.nodes), seed=0, tolerance=tolerance,
        notes=f"beta_alpha={beta:.12g} (infimum over {len(quad.nodes)} directions)",
    )


def chord_upper_check(f: ConcaveRayFn, h, G: KernelG, quad, *,
                      inner: int = 64, tolerance: float = 1e-3) -> VerifyReport:
    """int int h(f) G dr dtheta <= beta_b * [integral of G over Ltilde off
    Omega_f] + [h(f(0,theta))-weighted G mass on Omega_f], where Omega_f
    holds the directions with vanishing ray derivative at 0 and
    rho_Ltilde = -f(0,theta) / (df/dr at 0). Needs the upper side, the
    ray maximum at r = 0 (checked) and f concave along rays (a precondition
    of the caller, not checked here)."""
    if G.side not in ("upper", "both"):
        raise InputError("chord upper bound needs a kernel with the upper side")
    if f.dim != G.dim or quad.dim != G.dim:
        raise InputError("ray function, kernel and quadrature dimensions differ")
    rho, fvals, f0, slope = f.rays(quad.nodes, _ray_rule(inner, G.alpha)[0])
    high = fvals.max(axis=1, initial=0.0) > f0 * (1.0 + 1e-9) + 1e-12
    rising = slope > OMEGA_TOL
    if (high | rising).any():
        i = int(np.argmax(high | rising))
        where = f"direction {np.round(quad.nodes[i], 4).tolist()}"
        if high[i]:
            raise InputError(f"ray function does not attain its maximum at r = 0 on {where}")
        raise InputError(
            f"positive ray derivative at 0 contradicts the maximum condition on {where}")
    lhs = _ray_integral(G, quad.weights, quad.nodes, rho, inner,
                        lambda rows: np.asarray(h(fvals[rows]), dtype=float))
    flat = np.abs(slope) <= OMEGA_TOL
    steep = ~flat
    h0 = np.asarray(h(f0[flat]), dtype=float)
    omega_term = _ray_integral(G, quad.weights[flat] * h0, quad.nodes[flat], rho[flat], inner)
    rho_tilde = np.full(len(rho), np.nan)
    rho_tilde[steep] = -f0[steep] / slope[steep]
    tilde_sum = _ray_integral(G, quad.weights[steep], quad.nodes[steep], rho_tilde[steep], inner)
    # with no non-flat directions the first term vanishes
    beta_b = float(beta_constant(h, np.unique(f0[steep]), G.alpha).max()) if steep.any() else 0.0
    rhs = beta_b * tilde_sum + omega_term
    rel = (rhs - lhs) / max(abs(rhs), 1e-300)
    n_omega = int(flat.sum())
    note = f"beta_b={beta_b:.12g}; {n_omega} of {len(quad.nodes)} directions flat"
    if n_omega == 0:
        note += "; Omega empty: bound equals d * beta_b * dual volume of Ltilde"
    rows = tuple({"direction": i, "rho_L": a, "rho_Ltilde": b, "in_omega": c}
                 for i, (a, b, c) in enumerate(zip(rho.tolist(), rho_tilde.tolist(),
                                                   flat.astype(int).tolist())))
    return VerifyReport(
        name="chord-upper", lhs=lhs, rhs=rhs, ratio=lhs / rhs, bound=1.0,
        margin=rel + tolerance, passed=bool(rel >= -tolerance),
        samples=len(quad.nodes), seed=0, tolerance=tolerance,
        notes=note, rows=rows,
    )
