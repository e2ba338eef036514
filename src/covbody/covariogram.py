"""The mth-order weighted covariogram, the mth-order difference body, and the
roof function.

For a body K and weighted measure mu, the covariogram at an m-tuple
xbar = (x_1, ..., x_m) is mu(K cap_i (x_i + K)). Its support is the mth-order
difference body D^m(K) in R^(nm), whose radial function is computed two ways:
a per-direction linear program (the reference route) and an exact polytope
built as the linear image of K^(m+1), used for batched evaluation.

Along one ray, `CovRay` caches evaluations of g and, under a constant
density, fits g exactly as a polynomial of degree <= n between the
breakpoints where the intersection changes combinatorial type.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._quad import _frozen, gauss_01
from .errors import InputError, NumericError
from .measure import WeightedMeasure, _integrate_points
from .polytope import Polytope, StarBodyFn, _build_from_points, _intersection_vertices
from .simplexlp import solve_lp_max


@dataclass(frozen=True)
class MDirection:
    """A point thetabar = (theta_1, ..., theta_m) of S^(nm-1), stored as
    m blocks of length n."""

    blocks: np.ndarray  # (m, n)

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        object.__setattr__(self, "blocks", blocks)
        if blocks.ndim != 2:
            raise InputError("MDirection blocks must be an (m, n) array")
        nrm2 = float((blocks * blocks).sum())
        if abs(nrm2 - 1.0) > 1e-12:
            raise InputError(f"MDirection must be unit: sum |theta_i|^2 = {nrm2}")
        blocks.setflags(write=False)

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.blocks.reshape(-1)

    @staticmethod
    def normalized(blocks: Sequence[Sequence[float]]) -> "MDirection":
        b = np.asarray(blocks, dtype=float)
        nrm = np.linalg.norm(b.reshape(-1))
        if nrm < 1e-14:
            raise InputError("cannot normalize a zero direction")
        return MDirection(b / nrm)

    def shifts(self, r: float) -> np.ndarray:
        return float(r) * self.blocks


def as_mdirection(theta, m: int | None = None) -> MDirection:
    if isinstance(theta, MDirection):
        return theta
    b = np.asarray(theta, dtype=float)
    if b.ndim == 1:
        if m is None or m == 1:
            b = b[None, :]
        else:
            b = b.reshape(m, -1)
    return MDirection(b)


def covariogram(K: Polytope, mu: WeightedMeasure, xbar: Sequence[Sequence[float]]) -> float:
    """g_{mu,m}(K, xbar) = mu(K cap_i (x_i + K)); 0 when the intersection is
    empty or degenerate."""
    shifts = np.asarray(xbar, dtype=float)
    if shifts.ndim == 1:
        shifts = shifts[None, :]
    if shifts.shape[1] != K.dim:
        raise InputError("shift dimension mismatch")
    pts = _intersection_vertices(K, shifts)
    if pts is None:
        return 0.0
    return _integrate_points(mu, K.dim, pts)


def diffbody_radial(K: Polytope, theta: MDirection | Sequence[Sequence[float]]) -> float:
    """rho_{D^m(K)}(thetabar) by the defining LP:

    maximize r subject to y in K and y - r theta_i in K, over (y, r).
    """
    theta = as_mdirection(theta)
    n = K.dim
    if theta.n != n:
        raise InputError("direction dimension mismatch")
    m = theta.m
    A_rows = [np.hstack([K.A, np.zeros((len(K.b), 1))])]
    for i in range(m):
        A_rows.append(np.hstack([K.A, -(K.A @ theta.blocks[i])[:, None]]))
    A = np.vstack(A_rows)
    b = np.concatenate([K.b] * (m + 1))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    x0 = np.concatenate([K.interior_point, [0.0]])
    res = solve_lp_max(c, A, b, x0)
    if res.status != "optimal":
        raise NumericError(f"difference-body LP did not converge ({res.status})")
    return float(res.value)


def _fast_unique(pts: np.ndarray) -> np.ndarray:
    return np.unique(np.round(pts, 9), axis=0)


def diffbody_polytope(K: Polytope, m: int) -> Polytope:
    """The exact polytope D^m(K) in R^(nm).

    D^m(K) is the image of K^(m+1) under (y, z_1, ..., z_m) -> (y - z_i)_i,
    so its vertices lie among the images of vertex tuples.
    """
    if m < 1:
        raise InputError("m must be >= 1")
    V = K.vertices
    cands = np.array([
        np.concatenate([y - V[t] for t in tup])
        for y in V
        for tup in itertools.product(range(len(V)), repeat=m)
    ])
    cands = _fast_unique(cands)
    return _build_from_points(K.dim * m, cands, allow_degenerate=False)


def diffbody_star(K: Polytope, m: int, method: str = "hull") -> StarBodyFn:
    """Radial function of D^m(K) as a star body about the origin."""
    d = K.dim * m
    if method == "hull":
        D = diffbody_polytope(K, m)
        origin = np.zeros(d)
        return StarBodyFn(d, lambda dirs: D.radial_batch(dirs, origin))
    if method == "lp":
        def rad(dirs: np.ndarray) -> np.ndarray:
            return np.array([diffbody_radial(K, MDirection(np.asarray(u).reshape(m, -1)))
                             for u in dirs])
        return StarBodyFn(d, rad)
    raise InputError(f"unknown diffbody method {method!r}")


def roof(L: Polytope | StarBodyFn, x: Sequence[float]) -> float:
    """The tent profile: 1 at the origin, affine to 0 at the boundary of L,
    0 outside. The origin must be interior to L."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return 1.0
    u = x / r
    if isinstance(L, Polytope):
        rho = L.radial(u, base=np.zeros(L.dim))
    else:
        rho = L.radial_one(u)
    return max(0.0, 1.0 - r / rho)


# Relative width below which two breakpoints of a ray profile are one, and
# the relative gate on the check node of each fitted piece. Covariogram
# values carry the vertex-enumeration tolerances (polytope.TOL, dedupe at
# 1e-8), so the gate sits just above that level, far below the deviation a
# missed breakpoint leaves inside a piece.
BREAK_MERGE = 1e-9
FIT_GATE = 1e-8


@functools.lru_cache(maxsize=8)
def _row_subsets(rows: int, k: int) -> np.ndarray:
    """All k-subsets of range(rows) as a read-only (C(rows, k), k) array."""
    idx = np.array(list(itertools.combinations(range(rows), k)), dtype=np.intp)
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=4)
def _fit_table(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Fit nodes of one piece in its local variable t in [0, 1]: the n+1
    Chebyshev points, the inverse of their Vandermonde matrix (values ->
    ascending coefficients in t), and a check node distinct from them."""
    j = np.arange(n + 1)
    t = 0.5 * (1.0 - np.cos((2 * j + 1) * np.pi / (2 * (n + 1))))
    inv = np.linalg.inv(np.vander(t, increasing=True))
    return _frozen(t, inv) + (0.5 * (math.sqrt(5.0) - 1.0),)


@dataclass(frozen=True)
class RayProfile:
    """g(r thetabar) under a constant density: on piece k, r in
    [breaks[k], breaks[k+1]], g is the polynomial sum_j coeffs[k, j] t^j in
    the local variable t = (r - breaks[k]) / (breaks[k+1] - breaks[k])."""

    breaks: np.ndarray  # (P + 1,), 0 = breaks[0] < ... < breaks[P] = rho_D
    coeffs: np.ndarray  # (P, n + 1), ascending powers of t

    def __post_init__(self):
        self.breaks.setflags(write=False)
        self.coeffs.setflags(write=False)

    @property
    def pieces(self) -> int:
        return len(self.coeffs)

    def __call__(self, r) -> np.ndarray:
        """The fitted g at each r in [0, rho_D]."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        k = np.clip(np.searchsorted(self.breaks, r, side="right") - 1, 0, self.pieces - 1)
        t = (r - self.breaks[k]) / (self.breaks[k + 1] - self.breaks[k])
        return np.polynomial.polynomial.polyval(t, self.coeffs[k].T, tensor=False)


class CovRay:
    """Cached covariogram evaluations along one ray r -> g(r thetabar).

    Shared by the Mellin transforms, slices, and chord-integral fixtures so
    that expensive g evaluations are reused across p values and refinements.
    Under a constant density g is a polynomial of degree <= n between the
    breakpoints of the ray, and `profile` fits it exactly piece by piece.
    """

    def __init__(self, K: Polytope, mu: WeightedMeasure, theta: MDirection):
        self.K = K
        self.mu = mu
        self.theta = as_mdirection(theta)
        self.mu_K = float(mu.mass(K))
        if self.mu_K <= 0:
            raise InputError("measure of K must be positive")
        self.rho_D = diffbody_radial(K, self.theta)
        self._cache: dict[float, float] = {}
        self._profile: RayProfile | None = None

    def g(self, r: float) -> float:
        r = float(r)
        if r < 0:
            raise InputError("ray parameter must be >= 0")
        if r == 0.0:
            return self.mu_K
        val = self._cache.get(r)
        if val is None:
            val = covariogram(self.K, self.mu, self.theta.shifts(r))
            self._cache[r] = val
        return val

    def g_many(self, rs: np.ndarray) -> np.ndarray:
        return np.array([self.g(r) for r in np.asarray(rs, dtype=float)])

    def describe(self) -> str:
        """The direction, rounded, for error messages that name a rerun."""
        return f"direction {np.round(self.theta.flat, 6).tolist()}"

    def breakpoints(self) -> np.ndarray:
        """Sorted r in (0, rho_D) at which the intersection K cap_i (K + r
        theta_i) changes combinatorial type, so that g is one polynomial
        between consecutive breakpoints.

        The intersection is {A x <= b + r c} with c = 0 on K's rows and
        c = A theta_i on the i-th translate. Its type changes only where n+1
        rows meet in one point of it; det[A_S | b_S + r c_S] = d0 + r d1 is
        linear in r, so each (n+1)-subset S gives one candidate root. Rows
        that meet for every r (d1 = 0, as at non-simple vertices) move no
        breakpoint. Roots closer than BREAK_MERGE * rho_D are merged.
        """
        K, n = self.K, self.K.dim
        blocks = self.theta.blocks
        A = np.vstack([K.A] * (len(blocks) + 1))
        b = np.concatenate([K.b] * (len(blocks) + 1))
        c = np.concatenate([np.zeros(len(K.b))] + [K.A @ th for th in blocks])
        S = _row_subsets(len(b), n + 1)
        AS = A[S]                                               # (N, n+1, n)
        last = np.stack([b[S], c[S]])[..., None]                # (2, N, n+1, 1)
        d0, d1 = np.linalg.det(np.concatenate([np.stack([AS, AS]), last], axis=-1))
        tol = BREAK_MERGE * self.rho_D
        # rows are unit normals and |c| <= 1, so d1 of rows that meet for
        # every r is rounding noise far below this cut
        moving = np.abs(d1) > 1e-11
        r = -d0[moving] / d1[moving]
        inside = (r > tol) & (r < self.rho_D - tol)
        S, r = S[moving][inside], r[inside]
        if len(r) == 0:
            return np.empty(0)
        # the common point of S: solve the best-conditioned n of its n+1 rows
        keep = np.array([[k for k in range(n + 1) if k != j] for j in range(n + 1)])
        sub = A[S][:, keep]                                     # (C, n+1, n, n)
        best = np.argmax(np.abs(np.linalg.det(sub)), axis=1)
        rows = np.arange(len(r))
        sub = sub[rows, best]
        regular = np.abs(np.linalg.det(sub)) > 1e-12
        beta = np.take_along_axis(b[S] + r[:, None] * c[S], keep[best], axis=1)
        x = np.linalg.solve(sub[regular], beta[regular][..., None])[..., 0]
        r = r[regular]
        slack = b[:, None] + c[:, None] * r[None, :] - A @ x.T
        r = np.sort(r[(slack >= -1e-9 * (1.0 + self.rho_D)).all(axis=0)])
        if len(r) == 0:
            return r
        return r[np.concatenate([[True], np.diff(r) > tol])]

    def profile(self) -> RayProfile:
        """The exact piecewise-polynomial g along the ray (constant density).

        Each piece is fitted from n+1 evaluations through `g` at Chebyshev
        nodes of its local variable; one more evaluation at a check node
        must match the fit within FIT_GATE * mu(K), or NumericError is
        raised (a missed breakpoint leaves a visible residual). Cached, so
        every p of one ray shares one fit.
        """
        if self._profile is not None:
            return self._profile
        if not self.mu.exact:
            raise InputError("the ray profile is piecewise polynomial only "
                             "under a constant density")
        t, inv, t_check = _fit_table(self.K.dim)
        breaks = np.concatenate([[0.0], self.breakpoints(), [self.rho_D]])
        coeffs = np.empty((len(breaks) - 1, len(t)))
        for k, (a, w) in enumerate(zip(breaks[:-1], np.diff(breaks))):
            coeffs[k] = inv @ self.g_many(a + w * t)
            fit = np.polynomial.polynomial.polyval(t_check, coeffs[k])
            resid = abs(self.g(a + w * t_check) - fit)
            if resid > FIT_GATE * self.mu_K:
                raise NumericError(
                    f"ray profile fit misses its check node on piece {k + 1} of "
                    f"{len(coeffs)} (r in [{a:.9g}, {a + w:.9g}], {len(t) + 1} "
                    f"evaluations per piece): residual {resid:.3g} against gate "
                    f"{FIT_GATE * self.mu_K:.3g}, {self.describe()}")
        self._profile = RayProfile(breaks, coeffs)
        return self._profile


@dataclass(frozen=True)
class CovariogramSlice:
    """g along one ray, tabulated on a Gauss grid of [0, rho_D] plus the
    endpoints; `values` recomputes g exactly at arbitrary r."""

    direction: MDirection
    rho_D: float
    nodes: np.ndarray
    node_values: np.ndarray
    values: Callable[[float], float]

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.node_values.setflags(write=False)


def covariogram_slice(K: Polytope, mu: WeightedMeasure,
                      theta: MDirection | Sequence[Sequence[float]],
                      grid: int = 32) -> CovariogramSlice:
    ray = CovRay(K, mu, as_mdirection(theta))
    u, _ = gauss_01(grid)
    nodes = np.concatenate([[0.0], ray.rho_D * u, [ray.rho_D]])
    vals = ray.g_many(nodes)
    return CovariogramSlice(ray.theta, ray.rho_D, nodes, vals, ray.g)
