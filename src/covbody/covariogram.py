"""The mth-order weighted covariogram, the mth-order difference body, and the
roof function.

For a body K and weighted measure mu, the covariogram at an m-tuple
xbar = (x_1, ..., x_m) is mu(K cap_i (x_i + K)). Its support is the mth-order
difference body D^m(K) in R^(nm), whose radial function is computed two ways:
a per-direction linear program (the reference route) and an exact polytope
built as the linear image of K^(m+1), used for batched evaluation.

`covariogram` takes one m-tuple or a stack of them: a stack's values come
from one vertex enumeration over K's lifted table and one integration call,
each the same bits as the m-tuple alone.

Along one ray, every consumer reads g from one fit (`CovRay.profile`), piece
by piece between the breakpoints where the intersection changes combinatorial
type: one Chebyshev series per piece, exact (degree n) under a constant
density and of degree FIT_DEGREE under any other. The fit evaluates every
node of its pieces in one covariogram call, and one more per round of
halved pieces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebval

from ._quad import _frozen, chebyshev_01, gauss_01
from .errors import InputError, NumericError
from .measure import WeightedMeasure, _integrate_points
from .polytope import (DEDUPE_BLOCK, TOL, Polytope, StarBodyFn, _basic_solutions,
                       _build_from_points, _intersection_vertices, lifted_system)
from .simplexlp import _dot, solve_lp_max


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


def covariogram(K: Polytope, mu: WeightedMeasure,
                xbar: Sequence[Sequence[float]]) -> float | np.ndarray:
    """g_{mu,m}(K, xbar) = mu(K cap_i (x_i + K)); 0 when the intersection is
    empty or degenerate.

    xbar is one m-tuple of shifts (m, n), or one shift (n,), which gives a
    float, or a stack of m-tuples (S, m, n), which gives the S values from
    one vertex enumeration and one integration call. A value is the same
    bits whatever stack it rides in."""
    shifts = np.asarray(xbar, dtype=float)
    if shifts.ndim == 1:
        shifts = shifts[None, :]
    if shifts.ndim not in (2, 3) or shifts.shape[-1] != K.dim:
        raise InputError("shift dimension mismatch")
    pts, sizes, slack = _intersection_vertices(K, shifts if shifts.ndim == 3 else shifts[None])
    values = _integrate_points(mu, K.dim, pts, sizes, slack)
    return values if shifts.ndim == 3 else float(values[0])


def diffbody_radial(K: Polytope, theta: MDirection | np.ndarray) -> float | np.ndarray:
    """rho_{D^m(K)}(thetabar) by the defining LP:

    maximize r subject to y in K and y - r theta_i in K, over (y, r).

    theta is one direction, an MDirection or its blocks (m, n), which gives
    a float, or a stack of blocks (N, m, n), which gives the N values from
    one stacked `solve_lp_max` call per DEDUPE_BLOCK floats of constraints.
    Each LP's c = A theta_i is summed row by row, so a direction's value is
    the same bits whatever stack it rides in."""
    single = isinstance(theta, MDirection) or np.ndim(theta) < 3
    if single:
        stack = as_mdirection(theta).blocks[None]
    else:
        stack = np.asarray(theta, dtype=float)
        nrm2 = (stack * stack).sum(axis=(1, 2))
        off = np.abs(nrm2 - 1.0) > 1e-12
        if off.any():
            i = int(off.argmax())
            raise InputError(f"direction {i} of {len(stack)} must be unit: "
                             f"sum |theta_i|^2 = {nrm2[i]}")
    if stack.shape[-1] != K.dim:
        raise InputError("direction dimension mismatch")
    S, m, n = stack.shape
    # y - r theta_i in K for every i: A y - r c <= b in the lifted system
    A = K.lifted_table(m + 1).A
    h = len(K.b)
    b = np.concatenate([K.b] * (m + 1))
    objective = np.zeros(n + 1)
    objective[-1] = 1.0
    x0 = np.zeros(n + 1)
    x0[:n] = K.interior_point
    rho = np.empty(S)
    step = max(1, DEDUPE_BLOCK // A.size)
    for s in range(0, S, step):
        part = stack[s:s + step]
        M = np.zeros((len(part), len(A), n + 1))
        M[:, :, :n] = A
        M[:, h:, n] = -_dot(K.A, part[:, :, None, :]).reshape(len(part), -1)
        res = solve_lp_max(objective, M, b, x0)
        bad = res.status != "optimal"
        if bad.any():
            i = int(bad.argmax())
            raise NumericError(
                f"difference-body LP {s + i} of {S} did not converge ({res.status[i]}), "
                f"direction {np.round(stack[s + i].reshape(-1), 6).tolist()}")
        rho[s:s + step] = res.value
    return float(rho[0]) if single else rho


def diffbody_polytope(K: Polytope, m: int) -> Polytope:
    """The exact polytope D^m(K) in R^(nm).

    D^m(K) is the image of K^(m+1) under (y, z_1, ..., z_m) -> (y - z_i)_i,
    so its vertices lie among the images of vertex tuples.
    """
    if m < 1:
        raise InputError("m must be >= 1")
    V = K.vertices
    tuples = V[np.array(list(itertools.product(range(len(V)), repeat=m)))]  # (T, m, n)
    cands = (V[:, None, None, :] - tuples[None]).reshape(-1, K.dim * m)
    return _build_from_points(K.dim * m, cands, allow_degenerate=False)


def diffbody_star(K: Polytope, m: int, method: str = "hull") -> StarBodyFn:
    """Radial function of D^m(K) as a star body about the origin."""
    d = K.dim * m
    if method == "hull":
        D = diffbody_polytope(K, m)
        origin = np.zeros(d)
        return StarBodyFn(d, lambda dirs: D.radial_batch(dirs, origin))
    if method == "lp":
        return StarBodyFn(d, lambda dirs: diffbody_radial(
            K, np.asarray(dirs, dtype=float).reshape(-1, m, K.dim)))
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
        rho = float(L.radial(u[None])[0])
    return max(0.0, 1.0 - r / rho)


# Relative width below which two breakpoints of a ray profile are one, and
# the relative gate on the check node of each fitted piece. Covariogram
# values carry the vertex-enumeration tolerances (polytope.TOL, dedupe at
# 1e-8), so the gate sits just above that level, far below the deviation a
# missed breakpoint leaves inside a piece.
BREAK_MERGE = 1e-9
FIT_GATE = 1e-8
# Degree of each piece's fit under a non-constant density, where g is
# smooth but no polynomial (a constant density takes degree n, which is
# exact), and the local t of each piece's check node, which falls well
# inside a gap between the fit nodes of every degree used.
FIT_DEGREE = 20
CHECK_NODE = 0.5 * (math.sqrt(5.0) - 1.0)
# Halvings of a non-constant density's piece whose check node misses, before
# the fit gives up: a narrow density needs shorter pieces, not a higher degree.
SPLIT_DEPTH = 2


@dataclass(frozen=True)
class RayProfile:
    """g(r thetabar) fitted piece by piece: on piece k, r in [breaks[k],
    breaks[k+1]], g is the Chebyshev series sum_j coeffs[k, j] T_j(2t - 1)
    in the local variable t = (r - breaks[k]) / (breaks[k+1] - breaks[k]),
    interpolating `values[k]`, the evaluations of g at the points t_j of
    `_quad.chebyshev_01(degree)`. The breaks are the ray's breakpoints and
    the midpoints of any piece `CovRay.profile` halved."""

    breaks: np.ndarray  # (P + 1,), 0 = breaks[0] < ... < breaks[P] = rho_D
    values: np.ndarray  # (P, degree + 1)
    coeffs: np.ndarray  # (P, degree + 1)

    def __post_init__(self):
        _frozen(self.breaks, self.values, self.coeffs)

    @property
    def pieces(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def __call__(self, r) -> np.ndarray:
        """The fitted g at each r >= 0; 0 from rho_D on, where g vanishes."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        k = np.clip(np.searchsorted(self.breaks, r, side="right") - 1, 0, self.pieces - 1)
        x = 2.0 * (r - self.breaks[k]) / (self.breaks[k + 1] - self.breaks[k]) - 1.0
        return np.where(r < self.breaks[-1], chebval(x, self.coeffs[k].T, tensor=False), 0.0)


class CovRay:
    """g(r thetabar) along one ray, described once by `profile` for the
    Mellin transforms, slices and chord-integral fixtures of a direction.

    Between the breakpoints of the ray g is smooth for every density, and
    a polynomial of degree <= n under a constant density. `profile` fits it
    piece by piece, once, from degree + 2 evaluations per piece, and every
    consumer reads that one fit. The memo in `g` holds each evaluation, so
    a gate that re-asks for a check node costs nothing; `profile` fills it
    a round of pieces at a time, in one covariogram call.
    """

    def __init__(self, K: Polytope, mu: WeightedMeasure, theta: MDirection):
        self._start(K, mu, as_mdirection(theta), float(mu.mass(K)), None)

    @classmethod
    def _read(cls, K: Polytope, mu: WeightedMeasure, theta: MDirection,
              mu_K: float, rho_D: float) -> "CovRay":
        """The ray of theta, given mu(K) and rho_D, which a caller with many
        rays of one body reads once for all of them."""
        ray = cls.__new__(cls)
        ray._start(K, mu, theta, mu_K, rho_D)
        return ray

    def _start(self, K: Polytope, mu: WeightedMeasure, theta: MDirection,
               mu_K: float, rho_D: float | None) -> None:
        self.K = K
        self.mu = mu
        self.theta = theta
        self.mu_K = mu_K
        if self.mu_K <= 0:
            raise InputError("measure of K must be positive")
        self.rho_D = diffbody_radial(K, theta) if rho_D is None else float(rho_D)
        self._cache: dict[float, float] = {}
        self._profile: RayProfile | None = None

    def g(self, r: float) -> float:
        r = float(r)
        if r < 0:
            raise InputError("ray parameter must be >= 0")
        if r == 0.0:
            return self.mu_K
        if r not in self._cache:
            self._evaluate([r])
        return self._cache[r]

    def _evaluate(self, rs) -> None:
        """Put g at every r > 0 of rs that the memo lacks into it, from one
        covariogram call."""
        new = [r for r in dict.fromkeys(map(float, rs)) if r > 0.0 and r not in self._cache]
        if new:
            values = covariogram(self.K, self.mu, np.multiply.outer(new, self.theta.blocks))
            self._cache.update(zip(new, values.tolist()))

    def describe(self) -> str:
        """The direction, rounded, for error messages that name a rerun."""
        return f"direction {np.round(self.theta.flat, 6).tolist()}"

    def breakpoints(self) -> np.ndarray:
        """Sorted r in (0, rho_D) at which the intersection K cap_i (K + r
        theta_i) changes combinatorial type, so that g is one polynomial
        between consecutive breakpoints.

        The intersection is the height-r slice of one polytope in R^(n+1),
        P = {(x, r) : A x - r c <= b} (`lifted_system`), whose top height is
        rho_D. A slice changes type only at the height of a vertex of P, so
        the breakpoints are the vertex heights strictly inside (0, rho_D),
        read from the body's lifted table with no factoring of their own.
        The rows of each regular n-subset T stay tight along the line
        x0 + r x1 (`_basic_solutions` at b and at c), which meets row j at
        r = (b - A x0)_j / (A x1 - c)_j: a vertex of P when that point
        satisfies every row and [A | -c] is regular on T and j, whose
        determinant is det A_T (A x1 - c)_j (a Schur complement). Heights
        closer than BREAK_MERGE * rho_D are merged.
        """
        table = self.K.lifted_table(self.theta.m + 1)
        A, b, c = lifted_system(self.K, self.theta.blocks)
        idx, _, det = table.factors
        x0, x1 = _basic_solutions(table, b), _basic_solutions(table, c)
        # einsum, not a matmul: one fixed loop, whatever the BLAS
        gap = b - np.einsum("hj,jk->kh", A, x0)
        slope = np.einsum("hj,jk->kh", A, x1) - c
        regular = det[:, None] * np.abs(slope) > 1e-12
        np.put_along_axis(regular, idx, False, axis=1)  # T's own rows: noise
        # T's line satisfies every row within TOL, A x <= b + r c + TOL, for
        # r in [lo, hi]; a row with slope 0 holds for every r or for none
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = (gap + TOL) / slope
        lo = np.where(slope < 0, reach, -np.inf).max(axis=1)
        hi = np.where(slope > 0, reach, np.inf).min(axis=1)
        hi[((slope == 0) & (gap < -TOL)).any(axis=1)] = -np.inf
        t, j = np.nonzero(regular)
        r = gap[t, j] / slope[t, j]
        tol = BREAK_MERGE * self.rho_D
        r = np.sort(r[(r > tol) & (r < self.rho_D - tol) & (lo[t] <= r) & (r <= hi[t])])
        if len(r) == 0:
            return r
        return r[np.concatenate([[True], np.diff(r) > tol])]

    def profile(self) -> RayProfile:
        """The piecewise fit of g along the ray.

        Each piece between breakpoints is fitted from degree + 1 evaluations
        at Chebyshev points of its local variable: degree n under a
        constant density, where the fit is exact, and FIT_DEGREE otherwise.
        One more evaluation at CHECK_NODE must match the fit within
        FIT_GATE * mu(K). Under a constant density a miss means a missed
        breakpoint, and NumericError is raised at once; under any other
        density the piece is halved and each half refitted, at most
        SPLIT_DEPTH times, before NumericError is raised (a density too
        narrow for the degree leaves a residual that shrinks with the
        width). The pieces go in rounds: every node of a round, all pieces
        at once, in one covariogram call through the memo, then the halves
        of the pieces that missed. Cached, so every consumer of one ray
        shares one fit.
        """
        if self._profile is not None:
            return self._profile
        degree = self.K.dim if self.mu.exact else FIT_DEGREE
        depth = 0 if self.mu.exact else SPLIT_DEPTH
        t, to_coeffs = chebyshev_01(degree)
        nodes = np.append(t, CHECK_NODE)
        ends = np.concatenate([[0.0], self.breakpoints(), [self.rho_D]])
        todo = [(ends[k], ends[k + 1], k, 0) for k in range(len(ends) - 1)]
        gate = FIT_GATE * self.mu_K
        fits = []  # (left end, right end, values, coeffs) of each interval
        while todo:  # a round: every interval still to fit, left to right
            xs = [a + (b - a) * nodes for a, b, _, _ in todo]
            self._evaluate(np.concatenate(xs))
            halves = []
            for (a, b, k, halvings), x in zip(todo, xs):
                vals = np.array([self.g(r) for r in x[:-1]])
                c = to_coeffs @ vals
                resid = abs(self.g(x[-1]) - chebval(2.0 * CHECK_NODE - 1.0, c))
                if resid <= gate:
                    fits.append((a, b, vals, c))
                elif halvings < depth:
                    mid = 0.5 * (a + b)
                    halves += [(a, mid, k, halvings + 1), (mid, b, k, halvings + 1)]
                else:
                    raise NumericError(
                        f"ray profile fit misses its check node on r in [{a:.9g}, {b:.9g}] "
                        f"of piece {k + 1} of {len(ends) - 1} ({degree + 2} evaluations per "
                        f"piece, halved {halvings} times): residual {resid:.3g} against "
                        f"gate {gate:.3g}, {self.describe()}")
            todo = halves
        fits.sort(key=lambda fit: fit[0])
        _, right, values, coeffs = zip(*fits)
        self._profile = RayProfile(np.array([0.0, *right]), np.array(values), np.array(coeffs))
        return self._profile


@dataclass(frozen=True)
class CovariogramSlice:
    """g along one ray, tabulated on a Gauss grid of [0, rho_D] plus the
    endpoints; `values` is the ray's fit of g, which takes any r >= 0."""

    direction: MDirection
    rho_D: float
    nodes: np.ndarray
    node_values: np.ndarray
    values: RayProfile

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.node_values.setflags(write=False)


def covariogram_slice(K: Polytope, mu: WeightedMeasure,
                      theta: MDirection | Sequence[Sequence[float]],
                      grid: int = 32) -> CovariogramSlice:
    """`CovRay.profile` tabulated at `grid` Gauss nodes of [0, rho_D] and both ends."""
    ray = CovRay(K, mu, as_mdirection(theta))
    u, _ = gauss_01(grid)
    nodes = np.concatenate([[0.0], ray.rho_D * u, [ray.rho_D]])
    prof = ray.profile()
    return CovariogramSlice(ray.theta, ray.rho_D, nodes, prof(nodes), prof)
