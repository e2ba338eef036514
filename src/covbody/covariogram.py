"""The mth-order weighted covariogram, the mth-order difference body, and the
roof function.

For a body K and weighted measure mu, the covariogram at an m-tuple
xbar = (x_1, ..., x_m) is mu(K cap_i (x_i + K)). Its support is the mth-order
difference body D^m(K) in R^(nm), whose radial function is computed two ways:
a per-direction linear program (the reference route) and an exact polytope
built as the linear image of K^(m+1), used for batched evaluation.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._quad import gauss_01
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


def _tag_for(name: str, arr: np.ndarray) -> str:
    return f"{name}:{zlib.crc32(np.round(arr, 12).tobytes()):x}"


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
    val, _ = _integrate_points(mu, K.dim, pts, tag=_tag_for("covariogram", shifts))
    return val


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


class CovRay:
    """Cached covariogram evaluations along one ray r -> g(r thetabar).

    Shared by the Mellin transforms, slices, and chord-integral fixtures so
    that expensive g evaluations are reused across p values and refinements.
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
