"""Radial mean bodies R^m_p: the p-th means of ray lengths over a weighted
body, via the direct definition and via the Mellin form of the covariogram.

Two independent evaluation routes are kept deliberately separate: the direct
route integrates min_i rho_{K-x}(-theta_i)^p over K on a fixed polar tensor
grid and never touches the covariogram; the Mellin route integrates
g(r thetabar) r^(p-1) along the ray. Their agreement is the identity under
test. One Mellin integrator serves every density: it integrates the one
fit of g along the ray (`CovRay.profile`), piece by piece between the
ray's breakpoints, so every p of a ray shares the same covariogram
evaluations. There is no integration strategy to choose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebval

from ._quad import chebyshev_01, chebyshev_jacobi_01, geometric_gauss, graded_gauss
from .covariogram import (CHECK_NODE, FIT_GATE, CovRay, MDirection, as_mdirection,
                          diffbody_radial)
from .errors import InputError, NumericError
from .measure import WeightedMeasure
from .oracle import sphere_quadrature
from .polytope import Polytope
from .projection import ProjectionBody
from .report import VerifyReport

P0_SWITCH = 1e-3

# The direct route's polar grid: directions on the sphere for n = 2 and for
# n = 3, and Gauss nodes per ray. The angular integrand carries integrable
# shadow-boundary singularities, so the angle mesh, not the radial rule,
# limits accuracy.
DIRECT_ANGULAR_2D = 2048
DIRECT_ANGULAR_3D = 8192
DIRECT_RADIAL = 48


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


def _polar_grid(K: Polytope, graded: bool):
    """Quadrature points and weights for integrals over K in polar form
    around the interior point: sum_j w_j int_0^rho(u_j) (.) r^(n-1) dr."""
    x0 = K.interior_point
    angular = DIRECT_ANGULAR_2D if K.dim == 2 else DIRECT_ANGULAR_3D
    quad = sphere_quadrature(K.dim, count=angular)
    rho = K.radial_batch(quad.nodes, x0)                   # (A,)
    # reflected rule r = rho (1 - s); grading clusters nodes at the exit
    s, ws = graded_gauss(1.0, DIRECT_RADIAL, 2 if graded else 1)
    R = rho[:, None] * (1.0 - s)[None, :]                  # (A, DIRECT_RADIAL)
    W = (quad.weights * rho)[:, None] * ws[None, :] * R ** (K.dim - 1)
    X = x0[None, None, :] + R[:, :, None] * quad.nodes[:, None, :]
    return X.reshape(-1, K.dim), W.reshape(-1)


def _mean_over_K(K: Polytope, mu: WeightedMeasure, theta: MDirection,
                 transform, graded: bool) -> float:
    """(1/mu(K)) int_K transform(f(x)) dmu with f = min_i exit length; the
    normalizer is the same-grid mass so quadrature bias cancels."""
    X, W = _polar_grid(K, graded)
    f = _exit_lengths(K, X, -theta.blocks).min(axis=1)
    phi = mu.density(X)
    wphi = W * phi
    den = float(wphi.sum())
    if den <= 0:
        raise NumericError("vanishing mass on the polar grid")
    return float((wphi * transform(f)).sum() / den)


def rmb_radial_direct(K: Polytope, mu: WeightedMeasure, p: float,
                      theta: MDirection | Sequence[Sequence[float]]) -> float:
    """rho_{R_p}(thetabar) from the defining K-integral of the p-th power."""
    theta = as_mdirection(theta)
    if theta.n != K.dim:
        raise InputError("direction dimension mismatch")
    if p == math.inf:
        return diffbody_radial(K, theta)
    if p <= -1:
        raise InputError("p must exceed -1")
    if abs(p) < P0_SWITCH:
        return rmb_radial_p0(K, mu, theta)
    mean = _mean_over_K(K, mu, theta, lambda f: f ** p, graded=p < 0)
    return float(mean ** (1.0 / p))


def rmb_radial_p0(K: Polytope, mu: WeightedMeasure,
                  theta: MDirection | Sequence[Sequence[float]]) -> float:
    """The p = 0 (geometric mean) body: exp of the mean log ray length."""
    theta = as_mdirection(theta)
    return float(math.exp(_mean_over_K(K, mu, theta, np.log, graded=True)))


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

    The integral runs piece by piece between the ray's breakpoints, where g
    is smooth, for every density (see `_mellin`).
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
    if h_pi is None and p < 0:
        h_pi = ProjectionBody(K, mu, theta.m).support(theta)
    try:
        return _mellin(ray, p, h_pi)
    except NumericError as exc:
        raise NumericError(f"Mellin ray integral at p={p:g}: {exc}") from exc


def _mellin(ray: CovRay, p: float, h_pi: float | None) -> float:
    """rho_{R_p} in the variable u = r/rho_D, integrated over the pieces of
    `ray.profile()`, the one fit of g along the ray for every density.

    The first piece [0, u_1] integrates its fit exactly against u^(p-1) by
    the cached weights of `chebyshev_jacobi_01`: on g itself when p > 0,
    and when p < 0 on the fit of (g - mu(K) + h r)/r^2 from the same
    evaluations, against u^(p+1). That fit must reproduce g at the piece's
    check node within FIT_GATE * mu(K); it fails when -g'(0+) = h does not
    hold. Later pieces use Gauss on geometric sub-intervals of the fit.
    """
    prof = ray.profile()
    mu_K, rho_D = ray.mu_K, ray.rho_D
    u = prof.breaks / rho_D
    if p > 0:
        J = u[1] ** p * float(chebyshev_jacobi_01(prof.degree, p - 1.0) @ prof.values[0])
        tail = 0.0
    else:
        t, to_coeffs = chebyshev_01(prof.degree)
        U = u[1] * t
        bracket = (prof.values[0] - mu_K + h_pi * rho_D * U) / (U * U)
        J = u[1] ** (p + 2.0) * float(chebyshev_jacobi_01(prof.degree, p + 1.0) @ bracket)
        tail = 1.0 - (p / (p + 1.0)) * (h_pi * rho_D / mu_K)
        r = prof.breaks[1] * CHECK_NODE  # the first piece's check node
        U = r / rho_D
        fit = mu_K - h_pi * r + U * U * chebval(2.0 * CHECK_NODE - 1.0, to_coeffs @ bracket)
        resid = abs(ray.g(r) - fit)
        if resid > FIT_GATE * mu_K:
            raise NumericError(
                f"first piece breaks -g'(0+) = h: the fit of (g - mu(K) + h r)/r^2 "
                f"misses its check node by {resid:.3g} against gate "
                f"{FIT_GATE * mu_K:.3g} with h = {h_pi:.12g} ({_where(ray, prof)})")
    # Gauss with N nodes on a sub-interval spanning a factor 2 in u takes the
    # fit times u^(p-1) to rounding once 2N exceeds degree + 21 + |p - 1|
    nodes = (prof.degree + 22) // 2 + math.ceil(abs(p - 1.0) / 2.0)
    U, W = geometric_gauss(u[1:], nodes)
    vals = prof(rho_D * U)
    if p < 0:
        vals = vals - mu_K + h_pi * rho_D * U
    value = (p / mu_K) * (J + float(np.sum(W * vals * U ** (p - 1.0)))) + tail
    if value <= 0:
        raise NumericError(f"nonpositive value {value:.6g} ({_where(ray, prof)})")
    return float(rho_D * value ** (1.0 / p))


def _where(ray: CovRay, prof) -> str:
    """The piece count, evaluations per piece and direction of a failure."""
    return (f"{prof.pieces} pieces, {prof.degree + 2} evaluations per piece, "
            f"{ray.describe()}")


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

    def radial(self, theta: MDirection | Sequence[Sequence[float]]) -> float:
        theta = as_mdirection(theta, self.m)
        if theta.m != self.m:
            raise InputError("direction block count mismatch")
        if abs(self.p) < P0_SWITCH:
            return rmb_radial_p0(self.K, self.mu, theta)
        if self.method == "direct":
            return rmb_radial_direct(self.K, self.mu, self.p, theta)
        return rmb_radial_mellin(self.K, self.mu, self.p, theta)
