"""Radial mean bodies R^m_p: the p-th means of ray lengths over a weighted
body, via the direct definition and via the Mellin form of the covariogram.

Two independent evaluation routes are kept deliberately separate: the direct
route integrates min_i rho_{K-x}(-theta_i)^p over K (polar tensor grid, or
Monte Carlo under an "mc" integration strategy) and never touches the
covariogram; the Mellin route integrates g(r thetabar) r^(p-1) along the ray.
Their agreement is the identity under test.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._quad import geometric_gauss, graded_gauss
from .covariogram import FIT_GATE, CovRay, MDirection, as_mdirection, diffbody_radial
from .errors import InputError, NumericError
from .measure import WeightedMeasure
from .oracle import rng_for, sphere_quadrature
from .polytope import Polytope
from .projection import ProjectionBody
from .report import VerifyReport

P0_SWITCH = 1e-3


def _exit_lengths(K: Polytope, X: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """t(x, v) = max{t >= 0: x + t v in K} for each x in X (N, n) and each
    row v of dirs (M, n); X must lie in K."""
    slack = K.b[None, :] - X @ K.A.T                       # (N, F)
    denom = dirs @ K.A.T                                   # (M, F)
    slack = np.maximum(slack, 0.0)
    out = np.empty((len(X), len(dirs)))
    for j in range(len(dirs)):
        pos = denom[j] > 1e-13
        if not pos.any():
            raise InputError("direction has no exit facet; K unbounded?")
        out[:, j] = (slack[:, pos] / denom[j, pos]).min(axis=1)
    return out


def _polar_grid(K: Polytope, graded: bool, angular: int, radial: int):
    """Quadrature points and weights for integrals over K in polar form
    around the interior point: sum_j w_j int_0^rho(u_j) (.) r^(n-1) dr."""
    x0 = K.interior_point
    quad = sphere_quadrature(K.dim, count=angular)
    rho = K.radial_batch(quad.nodes, x0)                   # (A,)
    # reflected rule r = rho (1 - s); grading clusters nodes at the exit
    s, ws = graded_gauss(1.0, radial, 2 if graded else 1)
    R = rho[:, None] * (1.0 - s)[None, :]                  # (A, radial)
    W = (quad.weights * rho)[:, None] * ws[None, :] * R ** (K.dim - 1)
    X = x0[None, None, :] + R[:, :, None] * quad.nodes[:, None, :]
    return X.reshape(-1, K.dim), W.reshape(-1)


def _mean_over_K(K: Polytope, mu: WeightedMeasure, theta: MDirection,
                 transform, graded: bool, angular: int, radial: int) -> float:
    """(1/mu(K)) int_K transform(f(x)) dmu with f = min_i exit length; the
    normalizer is the same-grid mass so quadrature bias cancels."""
    X, W = _polar_grid(K, graded, angular, radial)
    f = _exit_lengths(K, X, -theta.blocks).min(axis=1)
    phi = mu.density(X)
    wphi = W * phi
    den = float(wphi.sum())
    if den <= 0:
        raise NumericError("vanishing mass on the polar grid")
    return float((wphi * transform(f)).sum() / den)


def _mc_mean_over_K(K: Polytope, mu: WeightedMeasure, theta: MDirection,
                    transform, n_samples: int, seed: int, tag: str) -> float:
    lo, hi = K.bounding_box()
    rng = rng_for(seed, tag)
    total_w = 0.0
    total_wf = 0.0
    remaining = n_samples
    while remaining > 0:
        batch = min(remaining, 200_000)
        remaining -= batch
        pts = rng.uniform(lo, hi, size=(batch, K.dim))
        inside = (pts @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
        pts = pts[inside]
        if len(pts) == 0:
            continue
        f = _exit_lengths(K, pts, -theta.blocks).min(axis=1)
        keep = f > 0
        phi = mu.density(pts[keep])
        total_w += float(phi.sum())
        total_wf += float((phi * transform(f[keep])).sum())
    if total_w <= 0:
        raise NumericError("no Monte Carlo samples landed in K")
    return total_wf / total_w


def _direct_angular_default(dim: int) -> int:
    # the angular integrand carries integrable shadow-boundary singularities,
    # so the angle mesh, not the radial rule, limits accuracy
    return 2048 if dim == 2 else 8192


def rmb_radial_direct(K: Polytope, mu: WeightedMeasure, p: float,
                      theta: MDirection | Sequence[Sequence[float]], *,
                      angular: int | None = None, radial: int = 48,
                      n_samples: int = 600_000, seed: int = 42) -> float:
    """rho_{R_p}(thetabar) from the defining K-integral of the p-th power."""
    theta = as_mdirection(theta)
    if theta.n != K.dim:
        raise InputError("direction dimension mismatch")
    if p == math.inf:
        return diffbody_radial(K, theta)
    if p <= -1:
        raise InputError("p must exceed -1")
    if abs(p) < P0_SWITCH:
        return rmb_radial_p0(K, mu, theta, angular=angular, radial=radial, seed=seed)
    angular = _direct_angular_default(K.dim) if angular is None else angular
    if mu.integration.resolve(mu.density) == "mc":
        boost = 3 if p < 0 else 1
        tag = f"rmb-direct:{p}:{zlib.crc32(np.round(theta.flat, 12).tobytes()):x}"
        mean = _mc_mean_over_K(K, mu, theta, lambda f: f ** p,
                               boost * n_samples, seed, tag)
    else:
        mean = _mean_over_K(K, mu, theta, lambda f: f ** p,
                            graded=p < 0, angular=angular, radial=radial)
    return float(mean ** (1.0 / p))


def rmb_radial_p0(K: Polytope, mu: WeightedMeasure,
                  theta: MDirection | Sequence[Sequence[float]], *,
                  angular: int | None = None, radial: int = 48,
                  n_samples: int = 600_000, seed: int = 42) -> float:
    """The p = 0 (geometric mean) body: exp of the mean log ray length."""
    theta = as_mdirection(theta)
    angular = _direct_angular_default(K.dim) if angular is None else angular
    if mu.integration.resolve(mu.density) == "mc":
        tag = f"rmb-p0:{zlib.crc32(np.round(theta.flat, 12).tobytes()):x}"
        mean = _mc_mean_over_K(K, mu, theta, np.log, n_samples, seed, tag)
    else:
        mean = _mean_over_K(K, mu, theta, np.log, graded=True,
                            angular=angular, radial=radial)
    return float(math.exp(mean))


def rmb_radial_mellin(K: Polytope, mu: WeightedMeasure, p: float,
                      theta: MDirection | Sequence[Sequence[float]], *,
                      ray: CovRay | None = None,
                      h_pi: float | None = None) -> float:
    """rho_{R_p}(thetabar) from the ray integral of the covariogram.

    p > 0:      rho^p = (p/mu(K)) int_0^rho_D g(r) r^(p-1) dr.
    p in (-1,0): rho^p = (p/mu(K)) int_0^rho_D (g - mu(K) + h r) r^(p-1) dr
                 - (p/(p+1)) (h/mu(K)) rho_D^(p+1) + rho_D^p,
    with h the exact facet-sum projection support (the subtraction is an
    algebraic identity for any constant h; the exact value makes the
    remaining integrand O(r^(p+1))).

    Under a constant density ("exact" integration) g is integrated in closed
    form from its piecewise-polynomial ray profile; otherwise a graded Gauss
    rule samples g and must pass a refinement gate.
    """
    theta = as_mdirection(theta)
    if p == math.inf:
        return diffbody_radial(K, theta)
    if p <= -1:
        raise InputError("p must exceed -1")
    if p == 0:
        raise InputError("p = 0 has no Mellin form; use rmb_radial_p0")
    if ray is None:
        ray = CovRay(K, mu, theta)
    exact = mu.integration.resolve(mu.density) == "exact"
    if h_pi is None and (p < 0 or exact):
        h_pi = ProjectionBody(K, mu, theta.m).support(theta)
    if not exact:
        return _mellin_graded(ray, p, h_pi)
    try:
        return _mellin_exact(ray, p, h_pi)
    except NumericError as exc:
        raise NumericError(f"Mellin ray integral at p={p:g}: {exc}") from exc


def _mellin_exact(ray: CovRay, p: float, h_pi: float) -> float:
    """rho_{R_p} from the exact profile of g, in the variable u = r/rho_D.

    The first piece's constant and linear coefficients must reproduce mu(K)
    and -h (the identity -g'(0+) = h_Pi) within FIT_GATE * mu(K) on its
    local variable. It integrates term by term in closed form; for p < 0
    only its quadratic and cubic terms remain in the bracket, since the
    constant and linear ones are mu(K) and -h u rho_D exactly. Later
    pieces use Gauss on geometric sub-intervals with enough nodes for
    u^(p-1); they evaluate only the fitted polynomials.
    """
    prof = ray.profile()
    mu_K, rho_D = ray.mu_K, ray.rho_D
    head, width = prof.coeffs[0], prof.breaks[1]
    if (abs(head[0] - mu_K) > FIT_GATE * mu_K
            or abs(head[1] + h_pi * width) > FIT_GATE * mu_K):
        raise NumericError(
            f"ray profile breaks -g'(0+) = h or g(0) = mu(K) on its first "
            f"piece: fit {head[0]:.12g}, {-head[1] / width:.12g} against "
            f"{mu_K:.12g}, {h_pi:.12g} ({prof.pieces} pieces, {ray.describe()})")
    u = prof.breaks / rho_D
    k = np.arange(len(head)) if p > 0 else np.arange(2, len(head))
    J = u[1] ** p * float(np.sum(head[k] / (k + p)))
    if prof.pieces > 1:
        # u^(p-1) times a cubic, each sub-interval spanning a factor 2 in u
        nodes = 12 + math.ceil(abs(p - 1.0) / 2.0)
        U, W = geometric_gauss(u[1:], nodes)
        vals = prof(rho_D * U)
        if p < 0:
            vals = vals - mu_K + h_pi * rho_D * U
        J += float(np.sum(W * vals * U ** (p - 1.0)))
    ratio = (p / mu_K) * J
    if p < 0:
        ratio += 1.0 - (p / (p + 1.0)) * (h_pi * rho_D / mu_K)
    if ratio <= 0:
        raise NumericError(f"nonpositive Mellin value {ratio:.6g} from "
                           f"{prof.pieces} profile pieces, {ray.describe()}")
    return float(rho_D * ratio ** (1.0 / p))


# The graded route: node count of the coarse level and the relative gate
# between it and the doubled level.
GRADED_NODES = 96
GRADED_GATE = 1e-6


def _mellin_graded(ray: CovRay, p: float, h_pi: float | None) -> float:
    """rho_{R_p} by graded Gauss sampling of g on GRADED_NODES and twice as
    many nodes; a relative change above GRADED_GATE is an error. The route
    for non-constant densities, and the reference the exact route is tested
    against."""
    rho_D, mu_K = ray.rho_D, ray.mu_K
    if p > 0:
        def level(n_nodes: int) -> float:
            r, w = graded_gauss(rho_D, n_nodes)
            g = ray.g_many(r)
            return (p / mu_K) * float(np.sum(w * g * r ** (p - 1.0)))
    else:
        if h_pi is None:
            h_pi = ProjectionBody(ray.K, ray.mu, ray.theta.m).support(ray.theta)
        tail = -(p / (p + 1.0)) * (h_pi / mu_K) * rho_D ** (p + 1.0) + rho_D ** p
        # The bracket g - mu(K) + h r is O(r^2), so below r_cut it is pure
        # rounding/quadrature noise amplified by r^(p-1). Keep nodes on
        # [r_cut, rho_D] and close [0, r_cut] with the quadratic model
        # fitted at the innermost kept node.
        r_cut = 1e-3 * rho_D

        def level(n_nodes: int) -> float:
            r, w = graded_gauss(rho_D - r_cut, n_nodes)
            r = r_cut + r
            g = ray.g_many(r)
            bracket = g - mu_K + h_pi * r
            J = float(np.sum(w * bracket * r ** (p - 1.0)))
            q_fit = bracket[0] / (r[0] * r[0])
            J += q_fit * r_cut ** (p + 2.0) / (p + 2.0)
            return (p / mu_K) * J + tail

    coarse = level(GRADED_NODES)
    fine = level(2 * GRADED_NODES)
    if abs(fine - coarse) > GRADED_GATE * max(abs(fine), 1e-300):
        raise NumericError(
            f"Mellin quadrature did not converge at p={p:g}: {coarse} vs {fine} "
            f"at {GRADED_NODES}/{2 * GRADED_NODES} nodes, {ray.describe()}")
    if fine <= 0:
        raise NumericError(f"nonpositive Mellin value at p={p:g}; ray integral "
                           f"unstable at {2 * GRADED_NODES} nodes, {ray.describe()}")
    return float(fine ** (1.0 / p))


def rmb_limit_neg1(K: Polytope, mu: WeightedMeasure,
                   theta: MDirection | Sequence[Sequence[float]],
                   p_seq: Sequence[float] = (-0.9, -0.99, -0.999),
                   tolerance: float = 0.01, seed: int = 42) -> VerifyReport:
    """(p+1)^(1/p) rho_{R_p} -> mu(K) rho_{polar Pi} as p -> -1; the value at
    the last p of the sequence must land within `tolerance` of the target."""
    theta = as_mdirection(theta)
    if not p_seq or any(q <= -1 or q >= 0 for q in p_seq):
        raise InputError("p_seq must lie in (-1, 0)")
    body = ProjectionBody(K, mu, theta.m)
    target = float(mu.mass(K)) * body.polar_radial(theta)
    ray = CovRay(K, mu, theta)
    h_pi = body.support(theta)
    rows = []
    for q in p_seq:
        val = (q + 1.0) ** (1.0 / q) * rmb_radial_mellin(
            K, mu, q, theta, ray=ray, h_pi=h_pi)
        rows.append({"p": q, "value": val, "target": target,
                     "rel_error": abs(val - target) / target})
    err = rows[-1]["rel_error"]
    return VerifyReport(
        name="rmb-limit-neg1", lhs=rows[-1]["value"], rhs=target,
        ratio=rows[-1]["value"] / target, bound=1.0, margin=tolerance - err,
        passed=bool(err <= tolerance), samples=len(p_seq), seed=seed,
        tolerance=tolerance, notes="values tabulated along p_seq", rows=tuple(rows),
    )


@dataclass(frozen=True)
class RadialMeanBody:
    """R^m_p as a functional body: evaluates its radial function on demand."""

    K: Polytope
    mu: WeightedMeasure
    p: float
    m: int
    method: str = "mellin"  # {direct | mellin}

    def __post_init__(self):
        if self.p != math.inf and self.p <= -1:
            raise InputError("p must exceed -1 (or be +inf)")
        if self.method not in ("direct", "mellin"):
            raise InputError(f"unknown method {self.method!r}")

    @property
    def dim(self) -> int:
        return self.K.dim * self.m

    def radial(self, theta: MDirection | Sequence[Sequence[float]], **kw) -> float:
        theta = as_mdirection(theta, self.m)
        if theta.m != self.m:
            raise InputError("direction block count mismatch")
        if self.p == math.inf:
            return diffbody_radial(self.K, theta)
        if abs(self.p) < P0_SWITCH:
            return rmb_radial_p0(self.K, self.mu, theta, **kw)
        if self.method == "direct":
            return rmb_radial_direct(self.K, self.mu, self.p, theta, **kw)
        return rmb_radial_mellin(self.K, self.mu, self.p, theta, **kw)
