"""Dual volumes with general radial kernels, and the two chord-integral
bounds they satisfy against concave ray functions.

A kernel G(r, theta) with one-sided homogeneity of degree alpha bounds the
weighted chord integral of h(f) from below (G(ur) >= u^a G(r)) or above
(G(ur) <= u^a G(r)) by a 1-D concavity constant times a dual volume; the
upper bound integrates over the tangent-extension body Ltilde with radial
-f(0,theta)/(df/dr at 0). Equality holds exactly for ray-affine f with
constant center value and exactly homogeneous G, and both checkers share one
inner quadrature rule so those fixtures cancel to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import graded_gauss
from .covariogram import CovRay, MDirection
from .errors import InputError, NumericError
from .measure import ConcavityF, ConstantDensity, Density, WeightedMeasure
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


# Largest grading power the kernel rule accepts, i.e. alpha >= -0.99. Beyond
# it a growing share of the Gauss nodes falls below the floating-point range,
# where the rule samples only the declared power, not the kernel.
MAX_GRADING = 100.0

# Relative gate between the inner rule of dual_volume and its doubling.
DUAL_GATE = 1e-6


def _grading(alpha: float) -> float:
    """Substitution exponent k for r = rho * u^k on a kernel ~ r^alpha.

    For alpha < 0, k = 1/(alpha + 1) makes k (alpha + 1) = 1, so r^alpha dr
    becomes the constant rho^(alpha+1) k du and a power kernel integrates
    exactly. Raises NumericError when alpha + 1 < 1/MAX_GRADING.
    """
    if alpha >= 0:
        return 1
    k = 1.0 / (alpha + 1.0)
    if k > MAX_GRADING:
        raise NumericError(
            f"kernel exponent {alpha:g} is too close to -1 for the graded rule "
            f"(grading power {k:.6g} above {MAX_GRADING:g})")
    return k


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

    def validate(self, radius: float = 1.0, samples: int = 100, seed: int = 42) -> None:
        """Spot-check positivity and the declared homogeneity side at random
        (u, r, theta), and integrability near 0 by quadrature refinement.
        Raises with the failed triple so callers can surface it."""
        rng = rng_for(seed, f"kernel-{self.label}")
        for _ in range(samples):
            theta = rng.standard_normal(self.dim)
            theta /= np.linalg.norm(theta)
            r = float(rng.uniform(1e-3, radius))
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
        for _ in range(4):
            theta = rng.standard_normal(self.dim)
            theta /= np.linalg.norm(theta)
            vals = []
            for n in (64, 128):
                r, w = graded_gauss(radius, n, _grading(self.alpha))
                vals.append(float(w @ self(r, theta)))
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

    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("kernel spec must be an object with a 'type'")
    kind = spec["type"]
    allowed = {"power": {"type", "exponent", "scale"},
               "power-density": {"type", "exponent", "density"}}.get(kind)
    if allowed is None:
        raise InputError(f"unknown kernel type {kind!r}")
    extra = set(spec) - allowed
    if extra:
        raise InputError(f"unknown kernel spec keys {sorted(extra)}")
    alpha = float(spec.get("exponent", dim - 1))
    if kind == "power":
        return power_kernel(dim, alpha, float(spec.get("scale", 1.0)))
    return power_density_kernel(dim, alpha, density_from_spec(spec["density"], dim))


@dataclass(frozen=True)
class ConcaveRayFn:
    """Non-negative function f(r, theta), concave in r on [0, rho_L(theta)]
    and zero beyond, carrying its support star body and the two ray values
    the chord bounds need at r = 0."""

    support: StarBodyFn
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (r (N,), theta (d,)) -> (N,)
    value_at_zero: Callable[[np.ndarray], float]
    ray_derivative_at_zero: Callable[[np.ndarray], float]
    label: str = "rayfn"

    @property
    def dim(self) -> int:
        return self.support.dim

    def __call__(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(r, dtype=float), theta), dtype=float)

    def concavity_check(self, samples: int = 60, seed: int = 42,
                        tol: float = 1e-8) -> None:
        """Midpoint concavity spot-check on sampled (theta, r-pair)."""
        rng = rng_for(seed, f"rayfn-{self.label}")
        for _ in range(samples):
            theta = rng.standard_normal(self.dim)
            theta /= np.linalg.norm(theta)
            rho = self.support.radial_one(theta)
            r1, r2 = sorted(rng.uniform(0.0, rho, size=2))
            fm, f1, f2 = self(np.array([(r1 + r2) / 2, r1, r2]), theta)
            scale = max(abs(f1), abs(f2), 1.0)
            if fm < (f1 + f2) / 2 - tol * scale:
                raise InputError(
                    f"ray function '{self.label}' fails midpoint concavity at "
                    f"theta={np.round(theta, 4).tolist()}, r={r1:.6g},{r2:.6g}")


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
        ray_derivative_at_zero=lambda theta: -peak / L.radial_one(theta),
        label="affine")


def profile_ray_fn(L: StarBodyFn, profile: Callable[[np.ndarray], np.ndarray],
                   dprofile0: float, label: str = "profile") -> ConcaveRayFn:
    """f(r, theta) = profile(r / rho_L(theta)) for a concave profile on [0,1]
    with profile(t) = 0 for t >= 1; dprofile0 is profile'(0+)."""

    def fn(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        t = np.asarray(r, dtype=float) / L.radial_one(theta)
        return np.where(t < 1.0, profile(np.minimum(t, 1.0)), 0.0)

    p0 = float(profile(np.array([0.0]))[0])
    return ConcaveRayFn(
        support=L, fn=fn,
        value_at_zero=lambda theta: p0,
        ray_derivative_at_zero=lambda theta: dprofile0 / L.radial_one(theta),
        label=label)


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
            0.0 if in_cap(theta) else -peak / L.radial_one(theta)),
        label="capped")


def covariogram_ray_fn(K, mu: WeightedMeasure, m: int, F: ConcavityF) -> ConcaveRayFn:
    """f(r, thetabar) = F(g(K, r thetabar)) for the m-th order covariogram g
    of the weighted body: support is the m-th difference body, the center
    value is F(mu(K)), and the ray derivative at 0 is the exact
    -F'(mu(K)) * h of the projection body. F must be increasing with
    F(0) = 0 so f stays non-negative."""
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
        g = ray_for(theta).g_many(np.asarray(r, dtype=float))
        return np.array([F.F(v) if v > 0 else 0.0 for v in g])

    support = StarBodyFn(n * m, lambda dirs: np.array(
        [ray_for(u).rho_D for u in np.asarray(dirs, dtype=float)]))
    return ConcaveRayFn(
        support=support, fn=fn,
        value_at_zero=lambda theta: F.F(muK),
        ray_derivative_at_zero=lambda theta: -F.F_prime(muK) * body.support(
            MDirection(np.asarray(theta, dtype=float).reshape(m, n))),
        label="covariogram")


def dual_volume(G: KernelG, L: StarBodyFn, quad, *, inner: int = 64) -> float:
    """(1/d) int_S int_0^rho_L G(r, theta) dr dtheta by per-node Gauss
    quadrature; refuses to return a value the inner rule has not converged
    on (a relative change above DUAL_GATE when the node count doubles)."""
    if G.dim != L.dim or quad.dim != G.dim:
        raise InputError("kernel, star body and quadrature dimensions differ")
    rho = np.asarray(L.radial(quad.nodes), dtype=float)
    totals = []
    for n in (inner, 2 * inner):
        acc = 0.0
        for i, theta in enumerate(quad.nodes):
            r, w = graded_gauss(float(rho[i]), n, _grading(G.alpha))
            acc += float(quad.weights[i]) * float(w @ G(r, theta))
        totals.append(acc)
    if not all(math.isfinite(v) for v in totals) or (
            abs(totals[1] - totals[0]) > DUAL_GATE * max(abs(totals[1]), 1e-12)):
        raise NumericError(
            f"dual volume inner quadrature did not converge "
            f"({totals[0]:.10g} vs {totals[1]:.10g} at {inner}/{2*inner} nodes)")
    return totals[1] / G.dim


def beta_constant(h: Callable[[np.ndarray], np.ndarray], f0: float,
                  alpha: float, nodes: int = 96) -> float:
    """(alpha+1) int_0^1 h(f0 tau)(1-tau)^alpha dtau on the reflected rule
    tau = 1 - r, graded toward tau = 1 when alpha < 0."""
    r, w = graded_gauss(1.0, nodes, _grading(alpha))
    vals = np.asarray(h(f0 * (1.0 - r)), dtype=float)
    return (alpha + 1.0) * float((vals * r**alpha) @ w)


def _chord_lhs(f: ConcaveRayFn, h, G: KernelG, quad, rho: np.ndarray,
               inner: int) -> float:
    acc = 0.0
    for i, theta in enumerate(quad.nodes):
        r, w = graded_gauss(float(rho[i]), inner, _grading(G.alpha))
        vals = np.asarray(h(f(r, theta)), dtype=float)
        acc += float(quad.weights[i]) * float(w @ (vals * G(r, theta)))
    return acc


def chord_lower_check(f: ConcaveRayFn, h, G: KernelG, quad, *,
                      inner: int = 64, tolerance: float = 1e-3) -> VerifyReport:
    """int int h(f) G dr dtheta >= d * beta_alpha * dual_volume(G, supp f),
    with beta_alpha the infimum over directions of the 1-D concavity
    constant. Needs the lower homogeneity side."""
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
                      inner: int = 64, tolerance: float = 1e-3,
                      omega_tol: float = 1e-8) -> VerifyReport:
    """int int h(f) G dr dtheta <= beta_b * [integral of G over Ltilde off
    Omega_f] + [h(f(0,theta))-weighted G mass on Omega_f], where Omega_f
    holds the directions with vanishing ray derivative at 0 and
    rho_Ltilde = -f(0,theta) / (df/dr at 0). Needs the upper side and the
    ray maximum at r = 0."""
    if G.side not in ("upper", "both"):
        raise InputError("chord upper bound needs a kernel with the upper side")
    if f.dim != G.dim or quad.dim != G.dim:
        raise InputError("ray function, kernel and quadrature dimensions differ")
    rho = np.asarray(f.support.radial(quad.nodes), dtype=float)
    lhs = 0.0
    omega_term = 0.0
    tilde_sum = 0.0
    beta_b = -math.inf
    n_omega = 0
    rows = []
    for i, theta in enumerate(quad.nodes):
        r, w = graded_gauss(float(rho[i]), inner, _grading(G.alpha))
        fvals = f(r, theta)
        f0 = float(f.value_at_zero(theta))
        if fvals.max(initial=0.0) > f0 * (1.0 + 1e-9) + 1e-12:
            raise InputError(
                "ray function does not attain its maximum at r = 0 on "
                f"direction {np.round(theta, 4).tolist()}")
        hvals = np.asarray(h(fvals), dtype=float)
        lhs += float(quad.weights[i]) * float(w @ (hvals * G(r, theta)))
        fp = float(f.ray_derivative_at_zero(theta))
        if fp > omega_tol:
            raise InputError(
                "positive ray derivative at 0 contradicts the maximum "
                f"condition on direction {np.round(theta, 4).tolist()}")
        if abs(fp) <= omega_tol:
            n_omega += 1
            h0 = float(np.asarray(h(np.array([f0])), dtype=float)[0])
            omega_term += float(quad.weights[i]) * h0 * float(w @ G(r, theta))
            rows.append({"direction": i, "rho_L": float(rho[i]),
                         "rho_Ltilde": float("nan"), "in_omega": 1})
        else:
            z = -f0 / fp
            rz, wz = graded_gauss(z, inner, _grading(G.alpha))
            tilde_sum += float(quad.weights[i]) * float(wz @ G(rz, theta))
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
