"""The weighted mth-order projection body, its polar, and two checkers.

h(xbar) = sum_F w_F max_i <x_i, u_F>_- over the facet atoms (u_F, w_F) of the
weighted surface measure; the polar body has radial function 1/h. Both are
used functionally (no vertex representation in R^(nm) is ever built).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .covariogram import MDirection, as_mdirection, covariogram
from .errors import DegenerateMeasureError, InputError
from .measure import (FacetMeasure, WeightedMeasure, transform_measure,
                      weighted_surface_measure)
from .polytope import LinearMap, Polytope, StarBodyFn, apply_linear, star_volume
from .report import VerifyReport


class ProjectionBody:
    """Pi^m_mu K, held as the facet atoms of S^mu_K plus the block count m."""

    def __init__(self, K: Polytope, mu: WeightedMeasure, m: int):
        if m < 1:
            raise InputError("m must be >= 1")
        self.n = K.dim
        self.m = int(m)
        self.surface = weighted_surface_measure(K, mu)

    def support(self, xbar) -> float:
        """h(xbar) for one m-tuple; accepts an (m, n) array, a flat vector of
        length n*m, or an MDirection. Not restricted to unit vectors."""
        if isinstance(xbar, MDirection):
            blocks = xbar.blocks
        else:
            blocks = np.asarray(xbar, dtype=float)
            if blocks.ndim == 1:
                blocks = blocks.reshape(self.m, self.n)
        if blocks.shape != (self.m, self.n):
            raise InputError("xbar must have m blocks of dimension n")
        return float(self.support_batch(blocks.reshape(1, -1))[0])

    def support_batch(self, flats: np.ndarray) -> np.ndarray:
        """h for each row of an (N, n*m) array."""
        flats = np.asarray(flats, dtype=float)
        blocks = flats.reshape(len(flats), self.m, self.n)
        dots = np.einsum("kmi,fi->kmf", blocks, self.surface.normals)
        neg = np.maximum(-dots, 0.0).max(axis=1)
        return neg @ self.surface.weights

    def polar_radial(self, theta: MDirection | Sequence[float]) -> float:
        theta = as_mdirection(theta, self.m)
        h = self.support(theta)
        if h <= 1e-14:
            raise DegenerateMeasureError("zero projection support; polar radial undefined")
        return 1.0 / h

    def polar_radial_batch(self, dirs: np.ndarray) -> np.ndarray:
        h = self.support_batch(dirs)
        if (h <= 1e-14).any():
            raise DegenerateMeasureError("zero projection support; polar radial undefined")
        return 1.0 / h

    def polar_star(self) -> StarBodyFn:
        return StarBodyFn(self.n * self.m, self.polar_radial_batch)


def projection_support(K: Polytope, mu: WeightedMeasure, xbar) -> float:
    blocks = np.atleast_2d(np.asarray(xbar, dtype=float))
    return ProjectionBody(K, mu, m=len(blocks)).support(blocks)


def polar_projection_radial(K: Polytope, mu: WeightedMeasure,
                            theta: MDirection | Sequence[float]) -> float:
    theta = as_mdirection(theta)
    return ProjectionBody(K, mu, theta.m).polar_radial(theta)


def polar_projection_volume(K: Polytope, mu: WeightedMeasure, m: int,
                            quad=None) -> float:
    """vol_{nm}(Pi^{o,m}_mu K); exact arc integration when nm = 2, sphere
    quadrature otherwise (quad required)."""
    body = ProjectionBody(K, mu, m)
    if body.n * body.m == 2:
        return _polar_volume_2d(body.surface)
    if quad is None:
        raise InputError("sphere quadrature required for nm > 2")
    return star_volume(body.polar_star(), quad)


def _polar_volume_2d(surface: FacetMeasure) -> float:
    """(1/2) integral of h(phi)^-2 over the circle, arc-exact.

    On each arc between consecutive breakpoints (facet-normal angles +- pi/2)
    the active set is constant and h(phi) = A cos phi + B sin phi, so the arc
    integral is tan(phi - psi)/R^2 with (R, psi) the polar form of (A, B).
    """
    alphas = np.arctan2(surface.normals[:, 1], surface.normals[:, 0])
    breaks = np.concatenate([alphas + np.pi / 2, alphas - np.pi / 2])
    breaks = np.unique(np.mod(breaks, 2 * np.pi))
    breaks = np.concatenate([breaks, [breaks[0] + 2 * np.pi]])
    total = 0.0
    for phi0, phi1 in zip(breaks[:-1], breaks[1:]):
        if phi1 - phi0 < 1e-14:
            continue
        mid = 0.5 * (phi0 + phi1)
        active = np.cos(mid - alphas) < 0.0
        if not active.any():
            raise DegenerateMeasureError("projection support vanishes on an arc")
        A = -float(np.sum(surface.weights[active] * np.cos(alphas[active])))
        B = -float(np.sum(surface.weights[active] * np.sin(alphas[active])))
        R2 = A * A + B * B
        if R2 <= 1e-28:
            raise DegenerateMeasureError("projection support vanishes on an arc")
        psi = math.atan2(B, A)
        total += (math.tan(phi1 - psi) - math.tan(phi0 - psi)) / R2
    return 0.5 * total


def _extrapolate_to_zero(hs: np.ndarray, vals: np.ndarray) -> float:
    """Polynomial extrapolation of vals(h) to h = 0 (Neville tableau)."""
    t = list(vals.astype(float))
    n = len(t)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            t[i] = (hs[i - j] * t[i] - hs[i] * t[i - 1]) / (hs[i - j] - hs[i])
    return t[n - 1]


def variational_check(K: Polytope, mu: WeightedMeasure,
                      theta: MDirection | Sequence[float],
                      steps: Sequence[float] = (1e-2, 5e-3, 2.5e-3),
                      tolerance: float = 1e-3, seed: int = 42) -> VerifyReport:
    """Checks -d/dr g(r thetabar)|_{0+} = h(thetabar): forward differences at
    the given steps, Richardson-extrapolated, against the facet-sum value."""
    theta = as_mdirection(theta)
    hs = np.asarray(sorted(steps, reverse=True), dtype=float)
    if (hs <= 0).any():
        raise InputError("steps must be positive")
    g0 = float(mu.mass(K))
    diffs = np.array([(covariogram(K, mu, theta.shifts(h)) - g0) / h for h in hs])
    deriv = _extrapolate_to_zero(hs, diffs)
    h_pi = ProjectionBody(K, mu, theta.m).support(theta)
    err = abs(-deriv - h_pi) / max(abs(h_pi), 1e-300)
    return VerifyReport(
        name="variational", lhs=-deriv, rhs=h_pi, ratio=-deriv / h_pi if h_pi else math.inf,
        bound=1.0, margin=tolerance - err, passed=bool(err <= tolerance),
        samples=1, seed=seed, tolerance=tolerance,
        notes=f"forward differences at steps {list(hs)}, Richardson-extrapolated",
    )


def barred_inverse_apply(T: LinearMap, flats: np.ndarray, m: int) -> np.ndarray:
    """T^{-1} applied blockwise to each row of an (N, n*m) array."""
    n = T.matrix.shape[0]
    blocks = flats.reshape(len(flats), m, n)
    out = np.einsum("ij,kmj->kmi", T.inverse, blocks)
    return out.reshape(len(flats), m * n)


def linear_covariance_check(K: Polytope, mu: WeightedMeasure, T: LinearMap,
                            dirs: Sequence[MDirection], tolerance: float | None = None,
                            seed: int = 42) -> VerifyReport:
    """h_{Pi(TK), mu} (thetabar) = |det T| h_{Pi K, mu o T}(Tbar^{-1} thetabar)
    at each direction."""
    dirs = [as_mdirection(d) for d in dirs]
    if not dirs:
        raise InputError("at least one direction required")
    m = dirs[0].m
    if tolerance is None:
        tolerance = 1e-6 if mu.exact else 1e-3
    left = ProjectionBody(apply_linear(T, K), mu, m)
    right = ProjectionBody(K, transform_measure(mu, T), m)
    flats = np.array([d.flat for d in dirs])
    lhs = left.support_batch(flats)
    rhs = T.det_abs * right.support_batch(barred_inverse_apply(T, flats, m))
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    worst = int(np.argmax(rel))
    rows = tuple(
        {"direction": i, "lhs": float(lhs[i]), "rhs": float(rhs[i]), "rel_error": float(rel[i])}
        for i in range(len(dirs))
    )
    err = float(rel[worst])
    return VerifyReport(
        name="linear-covariance", lhs=float(lhs[worst]), rhs=float(rhs[worst]),
        ratio=float(lhs[worst] / rhs[worst]), bound=1.0, margin=tolerance - err,
        passed=bool(err <= tolerance), samples=len(dirs), seed=seed, tolerance=tolerance,
        notes="worst direction reported; per-direction rows attached", rows=rows,
    )
