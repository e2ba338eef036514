"""Shared test utilities: independent oracles and fixture generators.

Everything here is deliberately naive (grids, rejection sampling, closed
forms) so that agreement with the library is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from covbody._quad import gauss_01
from covbody.covariogram import BREAK_MERGE, CovRay, MDirection, covariogram
from covbody.errors import InputError, NumericError
from covbody.measure import WeightedMeasure
from covbody.oracle import sphere_quadrature
from covbody.polytope import Polytope, lifted_system


def grid_covariogram(K: Polytope, mu: WeightedMeasure, shifts,
                     level: int = 200) -> float:
    """Covariogram by midpoint-grid integration over K's bounding box.

    Independent of the library's vertex-based integration: evaluates the
    indicator of K cap_i (x_i + K) and the density on a level^n grid.
    """
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    lo, hi = K.bounding_box()
    axes = [np.linspace(lo[j] + 0.5 * (hi[j] - lo[j]) / level,
                        hi[j] - 0.5 * (hi[j] - lo[j]) / level, level)
            for j in range(K.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    cell = np.prod((hi - lo) / level)
    ok = (pts @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
    for sh in shifts:
        ok &= ((pts - sh) @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
    if not ok.any():
        return 0.0
    return float(mu.density(pts[ok]).sum() * cell)


def polar_grid_radial_mean(K: Polytope, mu: WeightedMeasure, p: float,
                           theta: MDirection) -> float:
    """rho_{R_p}(thetabar) from the defining K-integral of f^p, f(x) =
    min_i rho_{K-x}(-theta_i), on a polar tensor grid around K's interior
    point: 2048 directions by `sphere_quadrature`, 48 Gauss nodes per ray
    graded toward the boundary when p < 0. The normalizer is the same
    grid's mass, so quadrature bias in mu(K) cancels.

    Independent of the library's exit-facet cells: it evaluates exit
    lengths pointwise. The shadow boundaries of f over the sphere limit it
    to about 1e-4 to 1e-3 on polygons."""
    x0 = K.interior_point
    quad = sphere_quadrature(K.dim, count=2048)
    rho = K.radial_batch(quad.nodes, x0)
    s, ws = gauss_01(48)
    if p < 0:  # s = u^2 clusters the nodes at the boundary, ds = 2u du
        s, ws = s * s, 2.0 * s * ws
    R = rho[:, None] * (1.0 - s)[None, :]
    W = (quad.weights * rho)[:, None] * ws[None, :] * R ** (K.dim - 1)
    X = (x0[None, None, :] + R[:, :, None] * quad.nodes[:, None, :]).reshape(-1, K.dim)
    slack = np.maximum(K.b[None, :] - X @ K.A.T, 0.0)
    f = np.full(len(X), np.inf)
    for v in -theta.blocks:
        denom = K.A @ v
        pos = denom > 1e-13
        f = np.minimum(f, (slack[:, pos] / denom[pos]).min(axis=1))
    wphi = W.reshape(-1) * mu.density(X)
    return float((wphi @ f ** p / wphi.sum()) ** (1.0 / p))


def quad_mellin(ray: CovRay, p: float) -> float:
    """rho_{R_p}(thetabar) for p > 0 by adaptive QUADPACK on each piece of
    the ray between `ray.breakpoints()`, in u = r / rho_D; the first piece
    carries u^(p-1) as the algebraic weight of `quad`. Samples g through
    `covariogram`, not through the ray's cache."""
    u = np.concatenate([[0.0], ray.breakpoints(), [ray.rho_D]]) / ray.rho_D

    def g(s: float) -> float:
        return covariogram(ray.K, ray.mu, ray.theta.shifts(ray.rho_D * s))

    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    J = quad(g, 0.0, u[1], weight="alg", wvar=(p - 1.0, 0.0), **opts)[0]
    for a, b in zip(u[1:-1], u[2:]):
        J += quad(lambda s: g(s) * s ** (p - 1.0), a, b, **opts)[0]
    return ray.rho_D * ((p / ray.mu_K) * J) ** (1.0 / p)


def qhull_breakpoints(ray: CovRay) -> np.ndarray:
    """The ray's breakpoints as Qhull sees them: the heights r in
    (0, rho_D) of the vertices of P = {(x, r) : A x - r c <= b}, whose
    height-r slice is K cap_i (K + r theta_i), merged within
    BREAK_MERGE * rho_D. Qhull intersects the halfspaces about P's
    Chebyshev centre, found by `linprog`."""
    A, b, c = lifted_system(ray.K, ray.theta.blocks)
    M = np.hstack([A, -c[:, None]])
    # the centre z and radius t: maximize t subject to M z + t |M_i| <= b
    dim = M.shape[1]
    res = linprog(-np.eye(dim + 1)[-1],
                  A_ub=np.hstack([M, np.linalg.norm(M, axis=1)[:, None]]), b_ub=b,
                  bounds=[(None, None)] * dim + [(0.0, None)])
    assert res.status == 0 and res.x[-1] > 0
    hs = HalfspaceIntersection(np.hstack([M, -b[:, None]]), res.x[:-1])
    tol = BREAK_MERGE * ray.rho_D
    r = np.sort(hs.intersections[:, -1])
    r = r[(r > tol) & (r < ray.rho_D - tol)]
    if len(r) == 0:
        return r
    return r[np.concatenate([[True], np.diff(r) > tol])]


def _quad_checked(fn, lo: float, hi: float) -> float:
    val, err = quad(fn, lo, hi, epsrel=1e-12, epsabs=1e-14, limit=400)
    assert math.isfinite(val) and err <= 1e-8 * max(abs(val), 1e-12), (val, err)
    return val


def berwald_quad_F(s: float, p: float, muK: float) -> float:
    """The chains' constant for an s-concave measure from its defining
    integral: ((p/muK) int_0^1 F^-1[F(muK)(1 - t)] t^(p-1) dt)^(-1/p) with
    F = t^s, by adaptive QUADPACK in t = u^2 (which keeps the t^(p-1)
    weight integrable), the integrand shifted by -muK when p < 0."""
    FK = muK ** s
    # the shifted bracket is O(t) near 0, killing the t^(p-1) singularity
    shift = muK if p < 0 else 0.0

    def integrand(u: float) -> float:
        t = u * u
        return ((FK * (1.0 - t)) ** (1.0 / s) - shift) * t ** (p - 1.0) * 2.0 * u

    mean = shift / muK + (p / muK) * _quad_checked(integrand, 0.0, 1.0)
    return mean ** (-1.0 / p)


def berwald_quad_Q(p: float, muK: float) -> float:
    """The chains' constant for a log-concave measure from its defining
    integral: ((p/muK) int_0^inf Q^-1[Q(muK) - t] t^(p-1) dt)^(-1/p) with
    Q = log, truncated where the integrand drops below 1e-14 of muK; for
    p < 0 the head (0, 1) is shifted by -muK and the tail is plain."""
    QK = math.log(muK)

    def raw(t: float) -> float:
        return math.exp(QK - t)

    hi = 1.0
    while raw(hi) > 1e-14 * muK:
        hi *= 2.0
    if p > 0:
        mean = (p / muK) * _quad_checked(
            lambda u: raw(u * u) * (u * u) ** (p - 1.0) * 2.0 * u, 0.0, math.sqrt(hi))
    else:
        head = _quad_checked(
            lambda u: (raw(u * u) - muK) * (u * u) ** (p - 1.0) * 2.0 * u, 0.0, 1.0)
        tail = _quad_checked(lambda t: raw(t) * t ** (p - 1.0), 1.0, hi)
        mean = 1.0 + (p / muK) * (head + tail)
    return mean ** (-1.0 / p)


def concavity_mean_quad(s: float, muK: float, d: int) -> float:
    """d int_0^1 F^-1[F(muK) t] (1 - t)^(d-1) dt for F = t^s, the 1-D mean
    of the general volume-ratio bound, by adaptive QUADPACK."""
    FK = muK ** s
    return d * _quad_checked(lambda t: (FK * t) ** (1.0 / s) * (1.0 - t) ** (d - 1),
                             0.0, 1.0)


def gauss_box_mass(sigma: float, lo, hi) -> float:
    """int over the box of exp(-|x|^2 / (2 sigma^2)), as a 1-D erf product."""
    total = 1.0
    for a, b in zip(np.atleast_1d(lo), np.atleast_1d(hi)):
        total *= sigma * math.sqrt(math.pi / 2.0) * (
            math.erf(b / (sigma * math.sqrt(2))) -
            math.erf(a / (sigma * math.sqrt(2))))
    return total


def random_polytope(rng: np.random.Generator, dim: int,
                    npoints: int = 12) -> Polytope:
    """Convex hull of random points; guaranteed full-dimensional."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(npoints, dim))
        try:
            P = Polytope.from_vertices(pts)
        except Exception:
            continue
        if P.volume > 1e-3:
            return P


def random_polygon(rng: np.random.Generator, k: int) -> Polytope:
    """A k-gon inscribed in a circle, at jittered, evenly spread angles
    (consecutive angles stay 0.4 * 2pi/k apart, so all k points are
    vertices)."""
    angles = rng.uniform(0, 2 * math.pi) + 2 * math.pi * (
        np.arange(k) + rng.uniform(-0.3, 0.3, size=k)) / k
    radius = rng.uniform(0.7, 1.3)
    center = rng.uniform(-0.3, 0.3, size=2)
    return Polytope.from_vertices(
        center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


def exit_length_square(x: np.ndarray, theta: np.ndarray) -> float:
    """rho_{[0,1]^2 - x}(-theta): exit length of the ray x - t theta, t >= 0."""
    t = math.inf
    for j in range(2):
        if theta[j] > 1e-15:
            t = min(t, x[j] / theta[j])
        elif theta[j] < -1e-15:
            t = min(t, (x[j] - 1.0) / theta[j])
    return t


def parallel_body_difference(K: Polytope, mu: WeightedMeasure,
                             eps: float = 1e-3) -> float:
    """(mu(K + eps B) - mu(K)) / eps: the independent reference for the
    boundary mass mu^+(dK) of `measure.boundary_measure_total`.

    The outer shell is decomposed exactly: facet prisms plus vertex sectors
    (n = 2, any density; n = 1 likewise), or the Steiner formula (n = 3,
    constant density).
    """
    density = mu.density
    if K.dim == 1:
        lo, hi = K.vertices.min(), K.vertices.max()
        u, w = gauss_01(32)
        left = (lo - eps) + eps * u
        right = hi + eps * u
        total = eps * float(w @ density(left[:, None]) + w @ density(right[:, None]))
        return total / eps
    if K.dim == 2:
        total = 0.0
        u, w = gauss_01(24)
        for f in K.facets:
            a, b = f.vertices[0], f.vertices[-1]
            s, t = np.meshgrid(u, u, indexing="ij")
            pts = a + s[..., None] * (b - a) + (eps * t)[..., None] * f.normal
            wt = np.outer(w, w) * np.linalg.norm(b - a) * eps
            total += float(wt.ravel() @ density(pts.reshape(-1, 2)))
        # vertex sectors: wedge between the two adjacent facet normals
        for v in K.vertices:
            adj = [f for f in K.facets
                   if np.abs(f.normal @ v - f.offset) < 1e-9]
            if len(adj) != 2:
                raise NumericError("vertex with != 2 incident edges")
            a0 = math.atan2(adj[0].normal[1], adj[0].normal[0])
            a1 = math.atan2(adj[1].normal[1], adj[1].normal[0])
            span = (a1 - a0) % (2.0 * math.pi)
            if span > math.pi:
                a0, span = a1, 2.0 * math.pi - span
            phi = a0 + span * u
            r = eps * u
            R, PHI = np.meshgrid(r, phi, indexing="ij")
            pts = np.stack([v[0] + R * np.cos(PHI), v[1] + R * np.sin(PHI)], axis=-1)
            wt = np.outer(eps * w * r, span * w)  # r dr dphi
            total += float(wt.ravel() @ density(pts.reshape(-1, 2)))
        return total / eps
    if K.dim == 3 and mu.exact:
        surf = sum(f.area for f in K.facets)
        edge_term = 0.0
        for i in range(len(K.facets)):
            for j in range(i + 1, len(K.facets)):
                fi, fj = K.facets[i], K.facets[j]
                shared = [v for v in fi.vertices
                          if np.abs(fj.normal @ v - fj.offset) < 1e-9
                          and np.abs(fi.normal @ v - fi.offset) < 1e-9]
                shared = np.array(shared)
                if len(shared) < 2:
                    continue
                d2 = np.linalg.norm(shared[:, None, :] - shared[None, :, :], axis=-1)
                length = float(d2.max())
                gamma = math.acos(float(np.clip(fi.normal @ fj.normal, -1, 1)))
                edge_term += length * gamma
        shell = surf * eps + 0.5 * edge_term * eps**2 + (4.0 * math.pi / 3.0) * eps**3
        return density.c * shell / eps
    raise InputError("parallel-body difference implemented for n <= 2 "
                     "(any density) and n = 3 (constant density)")
