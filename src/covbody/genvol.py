"""Dual volumes with general radial kernels, and the two chord-integral
bounds they satisfy against concave ray functions.

A kernel G(r, theta) with one-sided homogeneity of degree alpha bounds the
weighted chord integral of h(f) from below (G(ur) >= u^a G(r)) or above
(G(ur) <= u^a G(r)) by a 1-D concavity constant times a dual volume; the
upper bound integrates over the tangent-extension body Ltilde with radial
-f(0,theta)/(df/dr at 0). Equality holds exactly for ray-affine f with
constant center value and exactly homogeneous G, and both checkers share one
inner quadrature rule so those fixtures cancel to machine precision.

Every ray integral here runs on one rule, `_ray_rule`: Gauss-Jacobi for the
weight t^alpha on [0, 1], scaled to each [0, rho]. Every kernel is r^alpha times
a smooth factor, so the power is integrated exactly at any alpha > -1, and a
power kernel (or h(f) times one, for polynomial h(f)) exactly to rounding.

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
from .covariogram import CovRay, MDirection
from .errors import InputError, NumericError, job_field, job_number, spec_kind
from .measure import ConstantDensity, Density, WeightedMeasure
from .oracle import rng_for
from .polytope import StarBodyFn
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
    t^alpha. Every ray scales this one rule: a table of scaled rows would
    hold directions x nodes values (20000 x 128 on a 3-D default)."""
    t, w = gauss_jacobi_01(n, alpha)
    return t, w * t ** -alpha


@dataclass(frozen=True)
class KernelG:
    """Positive kernel G(r, theta) on (0, inf) x S^(d-1) with a declared
    homogeneity side: "lower" means G(ur) >= u^alpha G(r) for u in [0,1],
    "upper" the reverse, "both" exact homogeneity."""

    dim: int
    alpha: float
    side: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (r (N,), theta (d,)) -> (N,)
    label: str = "kernel"

    def __post_init__(self):
        if self.alpha <= -1:
            raise InputError("kernel exponent alpha must exceed -1")
        if self.side not in ("lower", "upper", "both"):
            raise InputError(f"unknown kernel side {self.side!r}")

    def __call__(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(r, dtype=float), theta), dtype=float)

    def validate(self, seed: int = 42) -> None:
        """Spot-check positivity and the declared homogeneity side at random
        (u, r, theta), and integrability near 0 by quadrature refinement.
        Raises with the failed triple so callers can surface it."""
        rng = rng_for(seed, f"kernel-{self.label}")
        for _ in range(VALIDATE_SAMPLES):
            theta = rng.standard_normal(self.dim)
            theta /= np.linalg.norm(theta)
            r = float(rng.uniform(1e-3, VALIDATE_RADIUS))
            u = float(rng.uniform(0.0, 1.0))
            g_r = float(self(np.array([r]), theta)[0])
            g_ur = float(self(np.array([max(u * r, 1e-300)]), theta)[0])
            if g_r <= 0 or g_ur <= 0:
                raise InputError(
                    f"kernel '{self.label}' is not positive at r={r:.6g}, "
                    f"theta={np.round(theta, 4).tolist()}")
            ref = u**self.alpha * g_r
            rel = (g_ur - ref) / max(abs(ref), 1e-300)
            if self.side in ("lower", "both") and rel < -1e-9:
                raise InputError(
                    f"kernel '{self.label}' fails G(ur) >= u^alpha G(r) at "
                    f"u={u:.6g}, r={r:.6g}, theta={np.round(theta, 4).tolist()}")
            if self.side in ("upper", "both") and rel > 1e-9:
                raise InputError(
                    f"kernel '{self.label}' fails G(ur) <= u^alpha G(r) at "
                    f"u={u:.6g}, r={r:.6g}, theta={np.round(theta, 4).tolist()}")
        rules = [_ray_rule(n, self.alpha) for n in (64, 128)]
        for _ in range(4):
            theta = rng.standard_normal(self.dim)
            theta /= np.linalg.norm(theta)
            vals = [VALIDATE_RADIUS * float(w @ self(VALIDATE_RADIUS * t, theta))
                    for t, w in rules]
            if not all(math.isfinite(v) for v in vals) or (
                    abs(vals[1] - vals[0]) > 1e-4 * max(abs(vals[1]), 1e-12)):
                raise NumericError(
                    f"kernel '{self.label}' integral near 0 does not converge "
                    f"({vals[0]:.6g} vs {vals[1]:.6g} under refinement)")


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
        return r**alpha * density(r[:, None] * theta[None, :])

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
    and zero beyond, carrying its support star body and the two ray values
    the chord bounds need at r = 0. Concavity is the constructor's
    precondition and is not checked."""

    support: StarBodyFn
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (r (N,), theta (d,)) -> (N,)
    value_at_zero: Callable[[np.ndarray], float]
    ray_derivative_at_zero: Callable[[np.ndarray], float]

    @property
    def dim(self) -> int:
        return self.support.dim

    def __call__(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(r, dtype=float), theta), dtype=float)


def affine_ray_fn(L: StarBodyFn, peak: float = 1.0) -> ConcaveRayFn:
    """f(r, theta) = peak * (1 - r/rho_L(theta))_+ — the ray-affine equality
    fixture of both chord bounds."""
    if peak <= 0:
        raise InputError("peak must be positive")

    def fn(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        rho = L.radial_one(theta)
        return peak * np.maximum(1.0 - r / rho, 0.0)

    return ConcaveRayFn(
        support=L, fn=fn,
        value_at_zero=lambda theta: peak,
        ray_derivative_at_zero=lambda theta: -peak / L.radial_one(theta))


def profile_ray_fn(L: StarBodyFn, profile: Callable[[np.ndarray], np.ndarray],
                   dprofile0: float) -> ConcaveRayFn:
    """f(r, theta) = profile(r / rho_L(theta)) for a profile on [0,1] with
    profile(t) = 0 for t >= 1; dprofile0 is profile'(0+). The profile must
    be concave: the caller's precondition, which is not checked."""

    def fn(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        t = np.asarray(r, dtype=float) / L.radial_one(theta)
        return np.where(t < 1.0, profile(np.minimum(t, 1.0)), 0.0)

    p0 = float(profile(np.array([0.0]))[0])
    return ConcaveRayFn(
        support=L, fn=fn,
        value_at_zero=lambda theta: p0,
        ray_derivative_at_zero=lambda theta: dprofile0 / L.radial_one(theta))


def capped_ray_fn(L: StarBodyFn, cap_cos: float = 0.5,
                  peak: float = 1.0) -> ConcaveRayFn:
    """Piecewise fixture with a flat polar cap: constant peak along rays with
    <theta, e_1> >= cap_cos (their derivative at 0 vanishes), the affine tent
    elsewhere. Exercises the Omega branch of the upper chord bound."""

    def in_cap(theta: np.ndarray) -> bool:
        return float(theta[0]) >= cap_cos

    def fn(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        rho = L.radial_one(theta)
        if in_cap(theta):
            return np.where(np.asarray(r, dtype=float) <= rho, peak, 0.0)
        return peak * np.maximum(1.0 - r / rho, 0.0)

    return ConcaveRayFn(
        support=L, fn=fn,
        value_at_zero=lambda theta: peak,
        ray_derivative_at_zero=lambda theta: (
            0.0 if in_cap(theta) else -peak / L.radial_one(theta)))


def covariogram_ray_fn(K, mu: WeightedMeasure, m: int, s: float) -> ConcaveRayFn:
    """f(r, thetabar) = g(K, r thetabar)^s for the m-th order covariogram g
    of the weighted body, read from each ray's fit (`CovRay.profile`):
    support is the m-th difference body, the center value is mu(K)^s, and
    the ray derivative at 0 is the exact -s mu(K)^(s-1) * h of the
    projection body. f is concave along rays when mu is s-concave; the
    caller checks that class."""
    if s <= 0:
        raise InputError("the covariogram fixture needs s > 0")
    n = K.dim
    muK = float(mu.mass(K))
    body = ProjectionBody(K, mu, m)
    cache: dict[bytes, CovRay] = {}

    def ray_for(theta: np.ndarray) -> CovRay:
        key = np.round(np.asarray(theta, dtype=float), 12).tobytes()
        if key not in cache:
            cache[key] = CovRay(K, mu, MDirection(np.asarray(theta).reshape(m, n)))
        return cache[key]

    def fn(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        g = ray_for(theta).profile()(r)
        return np.array([v ** s if v > 0 else 0.0 for v in g])

    support = StarBodyFn(n * m, lambda dirs: np.array(
        [ray_for(u).rho_D for u in np.asarray(dirs, dtype=float)]))
    return ConcaveRayFn(
        support=support, fn=fn,
        value_at_zero=lambda theta: muK ** s,
        ray_derivative_at_zero=lambda theta: -s * muK ** (s - 1.0) * body.support(
            MDirection(np.asarray(theta, dtype=float).reshape(m, n))))


def dual_volume(G: KernelG, L: StarBodyFn, quad, *, inner: int = 64) -> float:
    """(1/d) int_S int_0^rho_L G(r, theta) dr dtheta by per-node Gauss
    quadrature; refuses to return a value the inner rule has not converged
    on (a relative change above DUAL_GATE when the node count doubles)."""
    if G.dim != L.dim or quad.dim != G.dim:
        raise InputError("kernel, star body and quadrature dimensions differ")
    rho = np.asarray(L.radial(quad.nodes), dtype=float)
    totals = []
    for n in (inner, 2 * inner):
        t, w = _ray_rule(n, G.alpha)
        totals.append(sum(float(quad.weights[i] * rho[i]) * float(w @ G(rho[i] * t, theta))
                          for i, theta in enumerate(quad.nodes)))
    if not all(math.isfinite(v) for v in totals) or (
            abs(totals[1] - totals[0]) > DUAL_GATE * max(abs(totals[1]), 1e-12)):
        raise NumericError(
            f"dual volume inner quadrature did not converge "
            f"({totals[0]:.10g} vs {totals[1]:.10g} at {inner}/{2*inner} nodes)")
    return totals[1] / G.dim


def beta_constant(h: Callable[[np.ndarray], np.ndarray], f0: float,
                  alpha: float) -> float:
    """(alpha+1) int_0^1 h(f0 tau)(1-tau)^alpha dtau, the weight
    (1-tau)^alpha carried by Gauss-Jacobi in 1 - tau."""
    t, w = gauss_jacobi_01(BETA_NODES, alpha)
    return (alpha + 1.0) * float(np.asarray(h(f0 * (1.0 - t)), dtype=float) @ w)


def _chord_lhs(f: ConcaveRayFn, h, G: KernelG, quad, rho: np.ndarray,
               inner: int) -> float:
    t, w = _ray_rule(inner, G.alpha)
    acc = 0.0
    for i, theta in enumerate(quad.nodes):
        r = rho[i] * t
        vals = np.asarray(h(f(r, theta)), dtype=float)
        acc += float(quad.weights[i] * rho[i]) * float(w @ (vals * G(r, theta)))
    return acc


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
    rho = np.asarray(f.support.radial(quad.nodes), dtype=float)
    lhs = _chord_lhs(f, h, G, quad, rho, inner)
    beta = min(beta_constant(h, f.value_at_zero(theta), G.alpha)
               for theta in quad.nodes)
    rhs = G.dim * beta * dual_volume(G, f.support, quad, inner=inner)
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
    rho = np.asarray(f.support.radial(quad.nodes), dtype=float)
    t, w = _ray_rule(inner, G.alpha)
    lhs = 0.0
    omega_term = 0.0
    tilde_sum = 0.0
    beta_b = -math.inf
    n_omega = 0
    rows = []
    for i, theta in enumerate(quad.nodes):
        r = rho[i] * t
        fvals = f(r, theta)
        f0 = float(f.value_at_zero(theta))
        if fvals.max(initial=0.0) > f0 * (1.0 + 1e-9) + 1e-12:
            raise InputError(
                "ray function does not attain its maximum at r = 0 on "
                f"direction {np.round(theta, 4).tolist()}")
        hvals = np.asarray(h(fvals), dtype=float)
        lhs += float(quad.weights[i] * rho[i]) * float(w @ (hvals * G(r, theta)))
        fp = float(f.ray_derivative_at_zero(theta))
        if fp > OMEGA_TOL:
            raise InputError(
                "positive ray derivative at 0 contradicts the maximum "
                f"condition on direction {np.round(theta, 4).tolist()}")
        if abs(fp) <= OMEGA_TOL:
            n_omega += 1
            h0 = float(np.asarray(h(np.array([f0])), dtype=float)[0])
            omega_term += float(quad.weights[i] * rho[i]) * h0 * float(w @ G(r, theta))
            rows.append({"direction": i, "rho_L": float(rho[i]),
                         "rho_Ltilde": float("nan"), "in_omega": 1})
        else:
            z = -f0 / fp
            tilde_sum += float(quad.weights[i] * z) * float(w @ G(z * t, theta))
            beta_b = max(beta_b, beta_constant(h, f0, G.alpha))
            rows.append({"direction": i, "rho_L": float(rho[i]),
                         "rho_Ltilde": z, "in_omega": 0})
    if n_omega == len(quad.nodes):
        beta_b = 0.0  # no non-flat directions; first term vanishes
    rhs = beta_b * tilde_sum + omega_term
    rel = (rhs - lhs) / max(abs(rhs), 1e-300)
    note = f"beta_b={beta_b:.12g}; {n_omega} of {len(quad.nodes)} directions flat"
    if n_omega == 0:
        note += "; Omega empty: bound equals d * beta_b * dual volume of Ltilde"
    return VerifyReport(
        name="chord-upper", lhs=lhs, rhs=rhs, ratio=lhs / rhs, bound=1.0,
        margin=rel + tolerance, passed=bool(rel >= -tolerance),
        samples=len(quad.nodes), seed=0, tolerance=tolerance,
        notes=note, rows=tuple(rows),
    )
