"""Quadrature rules and simplicial decompositions.

The package builds its quadrature rules here and nowhere else:

- `graded_gauss` is the graded 1-D rule: Gauss-Legendre on [0, rho],
  graded toward 0 by r = rho u^power for integrable endpoint singularities;
- `geometric_gauss` is the composite 1-D rule on intervals away from 0:
  Gauss-Legendre on geometric sub-intervals [s, 2s], for integrands that
  carry a power r^q of any size;
- `simplex_rule` is the one simplex rule: a collapsed (Duffy) tensor Gauss
  rule on k-simplices embedded in R^d, one simplex or a stack of them.

Both read the cached Gauss-Legendre table `gauss_01`; `simplex_rule` also
caches its barycentric table per (k, level). All deterministic.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputError, NumericError


# Smallest node of the graded rule: r^q stays finite there for |q| <= 1.
R_FLOOR = 1e-300


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=64)
def gauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = leggauss(int(n))
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


def graded_gauss(rho: float, n: int, power: float = 2) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [0, rho] graded toward 0 via r = rho * u^power.

    Clusters nodes near r = 0 so integrands with an integrable r^p
    (p > -1) endpoint singularity are resolved after the change of
    variables; weights absorb the Jacobian rho * power * u^(power-1).
    power = 1 is the plain rule; rho = 0 gives a zero rule. A real power
    is tuned to r^(1/power - 1), which the graded rule integrates exactly;
    nodes that would fall below R_FLOOR (large powers) sit at R_FLOOR with
    the weight that keeps that integrand exact there.
    """
    u, w = gauss_01(n)
    r = rho * u**power
    dr = rho * power * u ** (power - 1) * w
    low = (r < R_FLOOR) & (rho > 0)
    if low.any():
        r = np.where(low, R_FLOOR, r)
        dr = np.where(low, rho ** (1.0 / power) * power * w * R_FLOOR ** (1.0 - 1.0 / power), dr)
    return r, dr


def geometric_gauss(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule on [edges[0], edges[-1]], 0 < edges[0], with
    each interval [edges[k], edges[k+1]] split into geometric sub-intervals
    [s, min(2s, edges[k+1])] carrying n nodes apiece.

    On each sub-interval r^q varies by at most a factor 2^|q|, so the rule
    integrates a polynomial times r^q to rounding once n exceeds about
    |q|/2 plus a few nodes. No node lies on an edge.
    """
    lo, hi = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        s = a
        while s < b:
            lo.append(s)
            hi.append(min(2.0 * s, b))
            s = hi[-1]
    u, w = gauss_01(n)
    lo, width = np.array(lo, dtype=float), np.array(hi) - np.array(lo)
    nodes = lo[:, None] + width[:, None] * u[None, :]
    return nodes.ravel(), (width[:, None] * w[None, :]).ravel()


@functools.lru_cache(maxsize=16)
def _simplex_table(k: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric nodes (Q, k+1) and weights (Q,) of the collapsed tensor
    rule on the reference k-simplex; the weights sum to 1/k!."""
    u, w = gauss_01(level)
    t = np.stack(np.meshgrid(*[u] * k, indexing="ij"), axis=-1).reshape(-1, k)
    wt = np.stack(np.meshgrid(*[w] * k, indexing="ij"), axis=-1).reshape(-1, k)
    # Duffy map: partial products c_j = t_1 ... t_j give the barycentric
    # coordinates c_(j-1) - c_j (c_0 = 1) and c_k; the Jacobian is
    # t_1^(k-1) t_2^(k-2) ... t_(k-1) = c_1 c_2 ... c_(k-1).
    c = np.cumprod(t, axis=1)
    bary = np.hstack([1.0 - c[:, :1], c[:, :-1] - c[:, 1:], c[:, -1:]])
    weights = wt.prod(axis=1) * c[:, :-1].prod(axis=1)
    return _frozen(bary, weights)


def simplex_rule(verts: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor Gauss rule on k-simplices in R^d, 1 <= k <= d <= 3.

    verts is one simplex (k+1, d) or a stack (S, k+1, d). Returns points
    (S*Q, d), simplex by simplex, and weights summing to each simplex's
    k-volume. The collapsed (Duffy) map keeps Gauss-order accuracy for
    smooth integrands.
    """
    verts = np.asarray(verts, dtype=float)
    if verts.ndim == 2:
        verts = verts[None]
    k, d = verts.shape[1] - 1, verts.shape[2]
    if not 1 <= k <= d <= 3:
        raise InputError(f"simplex_rule needs 1 <= k <= d <= 3, got k={k}, d={d}")
    bary, wref = _simplex_table(k, int(level))
    # k! times the k-volume: the root sum of squares of the k x k minors
    # of the edge matrix (Cauchy-Binet), |det| when k = d
    edges = verts[:, 1:] - verts[:, :1]
    cols = list(itertools.combinations(range(d), k))
    minors = np.linalg.det(edges[:, :, cols].transpose(0, 2, 1, 3))
    scale = np.sqrt((minors * minors).sum(axis=1))
    pts = bary @ verts
    return pts.reshape(-1, d), (scale[:, None] * wref[None, :]).ravel()


def order_polygon(pts: np.ndarray) -> np.ndarray:
    """Order 2-D points counterclockwise around their mean."""
    c = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
    return pts[np.argsort(ang, kind="stable")]


def triangulate_vertices(dim: int, pts: np.ndarray) -> list[np.ndarray]:
    """Split the convex hull of pts into simplices sharing the vertex mean.

    Returns a list of (dim+1, dim) vertex arrays. Raises NumericError if the
    point set is degenerate (lower-dimensional hull).
    """
    pts = np.asarray(pts, dtype=float)
    if dim == 1:
        lo, hi = pts.min(), pts.max()
        if hi - lo <= 0:
            raise NumericError("degenerate 1-d point set")
        return [np.array([[lo], [hi]])]
    if dim == 2:
        if len(pts) < 3:
            raise NumericError("degenerate 2-d point set")
        ring = order_polygon(pts)
        c = ring.mean(axis=0)
        tris = []
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            u, v = a - c, b - c
            if abs(u[0] * v[1] - u[1] * v[0]) > 1e-14:
                tris.append(np.array([c, a, b]))
        if not tris:
            raise NumericError("degenerate 2-d point set")
        return tris
    if dim == 3:
        from scipy.spatial import ConvexHull, QhullError

        if len(pts) < 4:
            raise NumericError("degenerate 3-d point set")
        try:
            hull = ConvexHull(pts)
        except QhullError as exc:
            raise NumericError(f"degenerate 3-d point set: {exc}") from exc
        c = pts[hull.vertices].mean(axis=0)
        tets = []
        for simp in hull.simplices:
            tri = pts[simp]
            vol6 = abs(np.linalg.det(tri - c))
            if vol6 > 1e-14:
                tets.append(np.vstack([c[None, :], tri]))
        if not tets:
            raise NumericError("degenerate 3-d point set")
        return tets
    raise InputError(f"triangulate_vertices supports dim <= 3, got {dim}")
