"""The weighted mth-order projection body, its polar, and two checkers.

h(xbar) = sum_F w_F max_i <x_i, u_F>_- over the facet atoms (u_F, w_F) of the
weighted surface measure; the polar body has radial function 1/h. Both are
used functionally, except for the polar body's volume at nm <= 4: there the
points of the polar body's boundary over the facet normals of Pi^m_mu K
span it, and one hull of them gives its volume exactly.

`variational_check` checks -g'(0+) = h at all of a job's directions at once:
one covariogram call over every direction and step, and one read of mu(K)
and of Pi^m_mu K.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull

from ._quad import hull_simplices, simplex_volumes
from .covariogram import MDirection, as_mdirection, covariogram
from .errors import DegenerateMeasureError, InputError
from .measure import WeightedMeasure, transform_measure, weighted_surface_measure
from .polytope import (LinearMap, Polytope, StarBodyFn, _row_subsets,
                       _volume_of_points, apply_linear, star_volume)
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


# Largest nm at which polar_projection_volume takes the hull route: at
# nm = 6 a 10-facet body has C(30, 5) candidate normals.
EXACT_POLAR_DIM = 4


def polar_projection_volume(K: Polytope, mu: WeightedMeasure, m: int,
                            quad=None) -> float:
    """vol_{nm}(Pi^{o,m}_mu K): exact when quad is None, which needs
    nm <= EXACT_POLAR_DIM; the sphere rule quad otherwise.

    Pi^m_mu K is the Minkowski sum over the facet atoms of the simplices
    w_F conv{0, -u_F (x) e_1, ..., -u_F (x) e_m}, so each of its facet
    normals is orthogonal to nm - 1 independent edge directions u_F (x) e_i
    and u_F (x) (e_i - e_j) of the summands. The generalized cross product
    of every (nm - 1)-subset of them, with both signs, is a candidate
    normal u; each u / h(u) lies on the polar body's boundary, and the
    vertices of the polar body are among them, so their hull is the body.
    """
    body = ProjectionBody(K, mu, m)
    d = body.n * body.m
    if quad is not None:
        return star_volume(body.polar_star(), quad)
    if d > EXACT_POLAR_DIM:
        raise InputError(f"sphere quadrature required for nm > {EXACT_POLAR_DIM}")
    # a zero-weight atom is no summand, so its edges bound nothing; the edges
    # of -u_F are parallel to those of u_F, so one atom of each pair spans both
    normals = body.surface.normals[body.surface.weights > 0]
    antipodal = np.abs(normals @ normals.T + 1.0) < 1e-12
    normals = normals[~np.triu(antipodal, 1).any(axis=0)]
    eye = np.eye(body.m)
    i, j = np.triu_indices(body.m, 1)
    blocks = np.vstack([eye, eye[i] - eye[j]])
    edges = (blocks[:, None, :, None] * normals[None, :, None, :]).reshape(-1, d)
    minors = edges[_row_subsets(len(edges), d - 1)]
    # cofactor k of each minor: the determinant without column k
    others = np.array([[c for c in range(d) if c != k] for k in range(d)],
                      dtype=np.intp).reshape(d, d - 1)
    u = np.linalg.det(np.moveaxis(minors[:, :, others], 2, 1)) * (-1.0) ** np.arange(d)
    size = np.linalg.norm(u, axis=1)
    keep = size > 1e-12
    u = u[keep] / size[keep, None]
    if len(u) == 0:
        raise DegenerateMeasureError("projection body is lower-dimensional")
    u = np.concatenate([u, -u])
    pts = u * body.polar_radial_batch(u)[:, None]
    if d <= 2:
        return float(_volume_of_points(d, pts, [len(pts)])[0])
    # a cloud, not a vertex set with known facets: from R^3 up its hull
    # comes from Qhull, as a body build's does
    return float(simplex_volumes(hull_simplices(pts, ConvexHull(pts))).sum())


def _extrapolate_to_zero(hs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Polynomial extrapolation of vals(h) to h = 0 (Neville tableau), for
    each row of vals (N, len(hs))."""
    t = list(np.asarray(vals, dtype=float).T)
    n = len(t)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            t[i] = (hs[i - j] * t[i] - hs[i] * t[i - 1]) / (hs[i - j] - hs[i])
    return t[n - 1]


def variational_check(K: Polytope, mu: WeightedMeasure,
                      thetas: Sequence[MDirection | Sequence[Sequence[float]]],
                      steps: Sequence[float] = (1e-2, 5e-3, 2.5e-3),
                      tolerance: float = 1e-3, seed: int = 42) -> list[VerifyReport]:
    """Checks -d/dr g(r thetabar)|_{0+} = h(thetabar) at each direction of
    thetas: forward differences at the given steps, Richardson-extrapolated,
    against the facet-sum value. One report per direction; every
    direction's steps share one covariogram call, and mu(K) and Pi^m_mu K
    are read once."""
    thetas = [as_mdirection(theta) for theta in thetas]
    hs = np.asarray(sorted(steps, reverse=True), dtype=float)
    if len(hs) == 0 or not (np.isfinite(hs) & (hs > 0)).all() or (np.diff(hs) == 0).any():
        raise InputError(f"steps must be a non-empty list of distinct positive "
                         f"numbers, got {list(steps)}")
    if not thetas:
        raise InputError("at least one direction required")
    blocks = np.array([theta.blocks for theta in thetas])  # (N, m, n)
    g0 = float(mu.mass(K))
    g = covariogram(K, mu, (hs[None, :, None, None] * blocks[:, None]).reshape(
        -1, *blocks.shape[1:])).reshape(len(thetas), len(hs))
    lhs = -_extrapolate_to_zero(hs, (g - g0) / hs)
    rhs = ProjectionBody(K, mu, blocks.shape[1]).support_batch(blocks.reshape(len(thetas), -1))
    reports = []
    for deriv, h_pi in zip(lhs.tolist(), rhs.tolist()):
        err = abs(deriv - h_pi) / max(abs(h_pi), 1e-300)
        reports.append(VerifyReport(
            name="variational", lhs=deriv, rhs=h_pi,
            ratio=deriv / h_pi if h_pi else math.inf, bound=1.0, margin=tolerance - err,
            passed=bool(err <= tolerance), samples=1, seed=seed, tolerance=tolerance,
            notes=f"forward differences at steps {list(hs)}, Richardson-extrapolated"))
    return reports


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
