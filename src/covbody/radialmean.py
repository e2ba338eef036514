"""Radial mean bodies R^m_p: the p-th means of ray lengths over a weighted
body, via the direct definition and via the Mellin form of the covariogram.

Two independent evaluation routes are kept deliberately separate. The
direct route integrates f^p, f(x) = min_i rho_{K-x}(-theta_i), over K and
never touches the covariogram: f is the least of the affine exit lengths
through K's facets, so K splits into cells on which f is one of them, and
each cell's simplices are integrated along the level sets of that affine
function (`_direct_integral`): Gauss-Jacobi in the level t, log-weighted
at p = 0, and the simplex rule on each slice. That is exact to rounding
under a constant density and converges spectrally under a smooth one;
there is no grid. The Mellin route integrates g(r thetabar) r^(p-1)
along the ray. Their agreement is the identity under test. One Mellin
integrator serves every density: it integrates the one fit of g along the
ray (`CovRay.profile`), piece by piece between the ray's breakpoints, so
every p of a ray shares the same covariogram evaluations. There is no
integration strategy to choose.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebval

from ._quad import (chebyshev_01, chebyshev_jacobi_01, gauss_01, gauss_jacobi_01,
                    geometric_gauss, log_gauss_01, simplex_rule, triangulate_vertices)
from .covariogram import (CHECK_NODE, FIT_GATE, CovRay, MDirection, as_mdirection,
                          diffbody_radial)
from .errors import InputError, NumericError
from .measure import WeightedMeasure
from .polytope import TOL, Polytope, dedupe_points, enumerate_vertices, row_slack
from .projection import ProjectionBody
from .report import VerifyReport

P0_SWITCH = 1e-3

# The direct route's rules: Gauss nodes in t per interval of a simplex's
# vertex levels (per geometric sub-interval away from 0, plus |p|/2), and
# the Gauss level of the rule on each level-set slice.
DIRECT_T_NODES = 12
DIRECT_SLICE_LEVEL = 10

# Exit lengths below LEVEL_SNAP times the largest are taken as 0 (the cell
# touches the exit facet there), and vertex levels closer than that merge.
# That is the vertex kernel's resolution: the basic solutions at a vertex
# where more than n rows meet scatter by up to about this much. Near p = -1
# the mean reacts to a level error e like e^(p+1), so a vertex of level 0
# must not be taken for one just above it.
LEVEL_SNAP = 1e-9

# The slices of a simplex whose vertices are sorted by level, one entry per
# interval between consecutive levels: (n-1)-simplices, each given by the
# edges (a, b), level(a) <= t <= level(b), whose points at level t span it.
# In R^3 the middle interval's slice is a quadrilateral, two triangles.
_SLICES = {
    2: ([((0, 1), (0, 2))], [((0, 2), (1, 2))]),
    3: ([((0, 1), (0, 2), (0, 3))],
        [((0, 2), (0, 3), (1, 3)), ((0, 2), (1, 3), (1, 2))],
        [((0, 3), (1, 3), (2, 3))]),
}


def _exit_cells(K: Polytope, theta: MDirection):
    """Split K into cells on which f = min_i rho_{K-x}(-theta_i) is affine.

    For each block i and facet F with a_F . theta_i < 0, the exit length
    l(x) = (b_F - a_F . x) / (-a_F . theta_i) is affine, and f is the least
    of them on K. The hypograph P = {(x, t) : x in K, 0 <= t <= l(x) for
    every l} is a polytope; its top facet {t = l_j} projects to the cell
    C_j = {x in K : l_j(x) <= l_k(x) for all k}. One vertex enumeration of P
    gives every cell's vertices. Identical functions l (two blocks meeting a
    facet at the same angle) are one row of P, so their cell counts once.

    Returns the cells' simplices (S, n+1, n) and, for each, the l_j of its
    cell as alpha_j (S, n) and beta_j (S,), with l_j(x) = beta_j - alpha_j . x.
    """
    n = K.dim
    slope = -(theta.blocks @ K.A.T)                        # (m, F)
    i, F = np.nonzero(slope > 1e-13)
    if len(np.unique(i)) < theta.m:
        raise InputError("direction has no exit facet; K unbounded?")
    # t <= l(x) as a_F . x + slope t <= b_F, rows scaled to unit normals
    top = np.column_stack([K.A[F], slope[i, F], K.b[F]])
    top = dedupe_points(top / np.linalg.norm(top[:, :-1], axis=1)[:, None])
    floor = np.zeros((1, n + 2))
    floor[0, n] = -1.0
    # with t >= 0 a top row implies its facet's row of K: leaving those out
    # keeps P's vertices at t = 0 from being cut by twice as many rows
    rest = np.setdiff1d(np.arange(len(K.b)), F)
    rows = np.vstack([np.column_stack([K.A[rest], np.zeros(len(rest)), K.b[rest]]),
                      top, floor])
    verts = enumerate_vertices(rows[:, :-1], rows[:, -1])
    on_top = np.abs(verts @ top[:, :-1].T - top[:, -1]) <= TOL  # (V, J)
    # every cell at once, each from its own vertices; a lower-dimensional
    # cell gets no simplex
    cell, vert = np.nonzero(on_top.T)
    slack = None
    if n == 3:
        # a cell's faces are the rows of P other than its own top row, which
        # meets all its vertices
        slack = row_slack(rows[:, :-1], rows[:, -1], verts)[vert]
        slack[np.arange(len(vert)), len(rest) + cell] = np.inf
    simplices, counts = triangulate_vertices(n, verts[vert, :n], on_top.sum(axis=0), slack)
    if len(simplices) == 0:
        raise NumericError("no exit-facet cell of K has volume")
    owner = np.repeat(np.arange(len(top)), counts)
    alpha, beta = top[:, :n] / top[:, n:n + 1], top[:, -1] / top[:, n]
    return simplices, alpha[owner], beta[owner]


def _level_rule(lo: np.ndarray, hi: np.ndarray, p: float):
    """Nodes t and weights w with sum w G(t) = int_lo^hi h(t) G(t) dt for
    smooth G, interval by interval, h(t) = t^p (log t at p = 0); returns
    them with the index of each node's interval. An interval from 0 carries
    h in a Gauss-Jacobi (log-weighted at p = 0) rule; the others use Gauss
    on geometric sub-intervals times h."""
    nodes = DIRECT_T_NODES + math.ceil(abs(p) / 2.0)
    first = lo == 0.0
    a = hi[first][:, None]
    if p == 0:
        # log(a u) = log a + log u on [0, a]
        u, wu = log_gauss_01(nodes)
        w0 = a * (wu + np.log(a) * gauss_01(nodes)[1])
    else:
        u, wu = gauss_jacobi_01(nodes, p)
        w0 = a ** (p + 1.0) * wu
    t1, w1, sub = geometric_gauss(lo[~first], hi[~first], nodes)
    w1 = w1 * (np.log(t1) if p == 0 else t1 ** p)
    return (np.concatenate([(a * u).ravel(), t1]), np.concatenate([w0.ravel(), w1]),
            np.concatenate([np.repeat(np.flatnonzero(first), nodes),
                            np.flatnonzero(~first)[sub]]))


def _direct_integral(K: Polytope, mu: WeightedMeasure, theta: MDirection,
                     p: float) -> tuple[float, float]:
    """(int_K h(f / tau) dmu / mu(K), tau) for f = min_i rho_{K-x}(-theta_i),
    h(t) = t^p (log t at p = 0), and tau the largest f on K's cells.

    On each simplex of a cell f is the affine l_j, so the integral runs
    along its level sets: in t between the simplex's sorted vertex levels
    (`_level_rule`), and over each slice {l_j = t} by `simplex_rule`, the
    slice's vertices moving affinely in t. The coarea factor is 1/|alpha_j|.
    All slices of the job go through one rule call and one density call.
    """
    if K.dim not in _SLICES:
        raise InputError(f"the direct route needs n in (2, 3), got n = {K.dim}")
    simplices, alpha, beta = _exit_cells(K, theta)
    levels = beta[:, None] - np.einsum("svk,sk->sv", simplices, alpha)
    order = np.argsort(levels, axis=1, kind="stable")
    levels = np.take_along_axis(levels, order, axis=1)
    simplices = np.take_along_axis(simplices, order[..., None], axis=1)
    tau = float(levels.max())
    levels = np.maximum(levels / tau, 0.0)
    levels[levels <= LEVEL_SNAP] = 0.0
    s, k = np.nonzero(np.diff(levels, axis=1) > LEVEL_SNAP)
    t, w, at = _level_rule(levels[s, k], levels[s, k + 1], p)
    s, k = s[at], k[at]
    w = w * tau / np.linalg.norm(alpha[s], axis=1)          # dt = tau d(t/tau)
    slices, weights = [], []
    for kk, shapes in enumerate(_SLICES[K.dim]):
        sel = k == kk
        sk, tk = s[sel, None], t[sel, None]
        for edges in shapes:
            a, b = np.array(edges).T
            frac = ((tk - levels[sk, a]) / (levels[sk, b] - levels[sk, a]))[..., None]
            slices.append(simplices[sk, a] + frac * (simplices[sk, b] - simplices[sk, a]))
            weights.append(w[sel])
    # a constant density needs only each slice's volume
    weights = np.concatenate(weights)
    X, W = simplex_rule(np.concatenate(slices), 1 if mu.exact else DIRECT_SLICE_LEVEL)
    W = (W.reshape(len(weights), -1) * weights[:, None]).ravel()
    mass = float(mu.mass(K))
    if mass <= 0:
        raise NumericError("vanishing mass of K")
    total = float(W @ mu.density(X))
    return total / mass, tau


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
    mean, tau = _direct_integral(K, mu, theta, p)
    if mean <= 0:
        raise NumericError(f"nonpositive mean {mean:.6g} of f^p over K")
    return float(tau * mean ** (1.0 / p))


def rmb_radial_p0(K: Polytope, mu: WeightedMeasure,
                  theta: MDirection | Sequence[Sequence[float]]) -> float:
    """The p = 0 (geometric mean) body: exp of the mean log ray length."""
    theta = as_mdirection(theta)
    if theta.n != K.dim:
        raise InputError("direction dimension mismatch")
    mean_log, tau = _direct_integral(K, mu, theta, 0.0)
    return float(tau * math.exp(mean_log))


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
    U, W, _ = geometric_gauss(u[1:-1], u[2:], nodes)
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
