"""Convex polytopes: halfspace/vertex representations and geometric primitives.

A Polytope is a bounded intersection of halfspaces with cached vertices and
facet data. All predicates use floating point with absolute tolerance 1e-9;
bodies are full-dimensional (positive interior radius). Degenerate
(lower-dimensional) intersections are representable with volume 0 so that
covariogram-type integrands can vanish without raising.

Everything here is immutable after construction and safe for concurrent
read-only use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ._quad import order_polygon
from .errors import InputError, NumericError
from .simplexlp import solve_lp_max

TOL = 1e-9


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise InputError("zero normal vector")
    return v / n


@dataclass(frozen=True)
class Halfspace:
    """The set {x : <normal, x> <= offset} with a unit normal."""

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self):
        nrm = math.sqrt(sum(c * c for c in self.normal))
        if abs(nrm - 1.0) > 1e-12:
            raise InputError(f"halfspace normal must be unit, |a| = {nrm}")

    @staticmethod
    def of(a: Sequence[float], b: float) -> "Halfspace":
        """Build from an unnormalized inequality <a, x> <= b."""
        a = np.asarray(a, dtype=float)
        nrm = np.linalg.norm(a)
        if nrm < 1e-14:
            raise InputError("zero normal vector")
        return Halfspace(tuple(a / nrm), float(b) / nrm)


@dataclass(frozen=True)
class Facet:
    """One facet: unit outer normal, offset, (n-1)-measure, ordered vertices."""

    normal: np.ndarray
    offset: float
    area: float
    vertices: np.ndarray  # (k, n), ordered along the facet for n in {2, 3}

    def __post_init__(self):
        self.normal.setflags(write=False)
        self.vertices.setflags(write=False)


def enumerate_vertices(A: np.ndarray, b: np.ndarray, tol: float = TOL) -> np.ndarray:
    """All vertices of {A x <= b}: basic solutions that satisfy every row.

    Batched over the n-subsets of rows. Suitable for the small systems this
    package works with (tens of rows, n <= 3 ambient, nm <= 6 lifted).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    H, n = A.shape
    if n == 1:
        pos = A[:, 0] > tol
        neg = A[:, 0] < -tol
        if not pos.any() or not neg.any():
            return np.empty((0, 1))
        hi = (b[pos] / A[pos, 0]).min()
        lo = (b[neg] / A[neg, 0]).max()
        if lo > hi + tol:
            return np.empty((0, 1))
        if hi - lo <= tol:
            return np.array([[0.5 * (lo + hi)]])
        return np.array([[lo], [hi]])
    if H < n:
        return np.empty((0, n))
    idx = np.array(list(itertools.combinations(range(H), n)))
    M = A[idx]
    det = np.abs(np.linalg.det(M))
    ok = det > 1e-12
    if not ok.any():
        return np.empty((0, n))
    X = np.linalg.solve(M[ok], b[idx[ok]][..., None])[..., 0]
    feas = (A @ X.T <= b[:, None] + tol).all(axis=0)
    pts = X[feas]
    return dedupe_points(pts)


def dedupe_points(pts: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Merge points closer than tol (in max-norm); keeps first occurrences."""
    if len(pts) <= 1:
        return pts
    kept: list[np.ndarray] = []
    for p in pts:
        if all(np.abs(p - q).max() > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def _volume_of_points(dim: int, pts: np.ndarray) -> float:
    """Volume of the convex hull of pts; 0 when degenerate."""
    if pts is None or len(pts) < dim + 1:
        return 0.0
    if dim == 1:
        return float(pts.max() - pts.min())
    if dim == 2:
        ring = order_polygon(pts)
        x, y = ring[:, 0], ring[:, 1]
        return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))) / 2.0
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return 0.0
    c = pts.mean(axis=0)
    vol = 0.0
    for simp in hull.simplices:
        vol += abs(np.linalg.det(pts[simp] - c))
    return vol / math.factorial(dim)


def _simplex_facet_area(dim: int, verts: np.ndarray) -> float:
    # verts: dim points spanning an (dim-1)-simplex in R^dim
    if dim == 1:
        return 1.0  # counting measure for endpoints
    if dim == 2:
        return float(np.linalg.norm(verts[1] - verts[0]))
    edges = verts[1:] - verts[0]
    gram = edges @ edges.T
    return math.sqrt(max(float(np.linalg.det(gram)), 0.0)) / math.factorial(dim - 1)


def _order_facet_vertices(normal: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Order facet vertices along the facet (2-D edge) or around it (3-D)."""
    dim = pts.shape[1]
    if dim >= 4:
        return pts  # ordering only matters for facet quadrature in dim <= 3
    if dim <= 2 or len(pts) <= 3:
        if dim == 3 and len(pts) == 3:
            return pts
        if dim == 2:
            d = pts[:, 0] if np.ptp(pts[:, 0]) >= np.ptp(pts[:, 1]) else pts[:, 1]
            return pts[np.argsort(d, kind="stable")]
        return pts
    # project to a 2-D frame in the facet plane and sort by angle
    u = np.zeros(3)
    u[np.argmin(np.abs(normal))] = 1.0
    e1 = _unit(np.cross(normal, u))
    e2 = np.cross(normal, e1)
    c = pts.mean(axis=0)
    ang = np.arctan2((pts - c) @ e2, (pts - c) @ e1)
    return pts[np.argsort(ang, kind="stable")]


class Polytope:
    """Bounded convex polytope with cached halfspaces, vertices and facets."""

    def __init__(self, dim: int, A: np.ndarray, b: np.ndarray, vertices: np.ndarray,
                 facets: tuple[Facet, ...], *, _degenerate: bool = False):
        self.dim = int(dim)
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.vertices = np.asarray(vertices, dtype=float)
        self.facets = facets
        self.is_degenerate = _degenerate
        if _degenerate:
            self.interior_point = None
            self.interior_radius = 0.0
            self.volume = 0.0
        else:
            c = self.vertices.mean(axis=0)
            self.interior_point = c
            self.interior_radius = float((self.b - self.A @ c).min())
            if self.interior_radius <= 0:
                raise InputError("polytope has empty interior")
            self.volume = self._compute_volume()
        for arr in (self.A, self.b, self.vertices):
            arr.setflags(write=False)

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_vertices(pts: Sequence[Sequence[float]]) -> "Polytope":
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2:
            raise InputError("vertices must be a 2-d array")
        dim = pts.shape[1]
        return _build_from_points(dim, pts, allow_degenerate=False)

    @staticmethod
    def from_halfspaces(halfspaces: Sequence[Halfspace] | tuple[np.ndarray, np.ndarray]) -> "Polytope":
        if isinstance(halfspaces, tuple) and len(halfspaces) == 2:
            A = np.asarray(halfspaces[0], dtype=float)
            b = np.asarray(halfspaces[1], dtype=float)
        else:
            A = np.array([h.normal for h in halfspaces], dtype=float)
            b = np.array([h.offset for h in halfspaces], dtype=float)
        norms = np.linalg.norm(A, axis=1)
        if (norms < 1e-14).any():
            raise InputError("zero normal in halfspace list")
        A = A / norms[:, None]
        b = b / norms
        verts = enumerate_vertices(A, b)
        dim = A.shape[1]
        if len(verts) < dim + 1:
            raise InputError("halfspace system is empty or lower-dimensional")
        P = _build_from_points(dim, verts, allow_degenerate=False)
        _check_bounded(A, b, P.interior_point)
        return P

    @staticmethod
    def named(name: str, dim: int) -> "Polytope":
        if dim < 1 or dim > 3:
            raise InputError(f"named bodies support dim 1..3, got {dim}")
        if name == "simplex":
            pts = np.vstack([np.zeros(dim), np.eye(dim)])
        elif name == "cube":
            pts = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
        elif name == "cross":
            pts = np.vstack([np.eye(dim), -np.eye(dim)])
        else:
            raise InputError(f"unknown named body {name!r}")
        return Polytope.from_vertices(pts)

    @staticmethod
    def from_spec(spec: dict) -> "Polytope":
        """Parse the body input schema (vrep / hrep / named)."""
        if not isinstance(spec, dict) or "type" not in spec:
            raise InputError("body spec must be an object with a 'type'")
        kind = spec["type"]
        if kind == "vrep":
            return Polytope.from_vertices(spec["vertices"])
        if kind == "hrep":
            hs = [Halfspace.of(h["a"], h["b"]) for h in spec["halfspaces"]]
            return Polytope.from_halfspaces(hs)
        if kind == "named":
            return Polytope.named(spec["name"], int(spec["dim"]))
        raise InputError(f"unknown body type {kind!r}")

    # -- queries ----------------------------------------------------------

    @property
    def halfspaces(self) -> list[Halfspace]:
        return [Halfspace(tuple(a), float(bb)) for a, bb in zip(self.A, self.b)]

    def support(self, u: Sequence[float]) -> float:
        u = np.asarray(u, dtype=float)
        return float((self.vertices @ u).max())

    def support_batch(self, dirs: np.ndarray) -> np.ndarray:
        return (self.vertices @ np.asarray(dirs, dtype=float).T).max(axis=0)

    def radial(self, u: Sequence[float], base: Sequence[float] | None = None) -> float:
        return float(self.radial_batch(np.asarray(u, dtype=float)[None, :], base)[0])

    def radial_batch(self, dirs: np.ndarray, base: Sequence[float] | None = None) -> np.ndarray:
        """rho_{P-base}(u) for each row u of dirs; base defaults to the
        cached interior point and must be strictly interior."""
        if self.is_degenerate:
            raise InputError("radial undefined for degenerate polytope")
        base = self.interior_point if base is None else np.asarray(base, dtype=float)
        slack = self.b - self.A @ base
        if slack.min() <= 0:
            raise InputError("radial base point is not interior")
        denom = self.A @ np.asarray(dirs, dtype=float).T  # (H, N)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(denom > 1e-13, slack[:, None] / denom, np.inf)
        rho = ratios.min(axis=0)
        if not np.isfinite(rho).all():
            raise NumericError("radial ray never exits the polytope (unbounded?)")
        return rho

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def translate(self, v: Sequence[float]) -> "Polytope":
        v = np.asarray(v, dtype=float)
        facets = tuple(
            Facet(f.normal.copy(), f.offset + float(f.normal @ v), f.area, f.vertices + v)
            for f in self.facets
        )
        return Polytope(self.dim, self.A, self.b + self.A @ v, self.vertices + v, facets,
                        _degenerate=self.is_degenerate)

    def _compute_volume(self) -> float:
        return _volume_of_points(self.dim, self.vertices)

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"facets={len(self.facets)}, volume={self.volume:.6g})")


def _build_from_points(dim: int, pts: np.ndarray, allow_degenerate: bool) -> Polytope:
    pts = dedupe_points(np.asarray(pts, dtype=float))
    if dim == 1:
        lo, hi = float(pts.min()), float(pts.max())
        if hi - lo <= TOL:
            if allow_degenerate:
                return Polytope(1, np.zeros((0, 1)), np.zeros(0), pts[:1], (), _degenerate=True)
            raise InputError("1-d polytope is degenerate")
        A = np.array([[1.0], [-1.0]])
        b = np.array([hi, -lo])
        verts = np.array([[lo], [hi]])
        facets = (
            Facet(np.array([-1.0]), -lo, 1.0, np.array([[lo]])),
            Facet(np.array([1.0]), hi, 1.0, np.array([[hi]])),
        )
        return Polytope(1, A, b, verts, facets)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        if allow_degenerate:
            return Polytope(dim, np.zeros((0, dim)), np.zeros(0), pts, (), _degenerate=True)
        raise InputError(f"vertex set is degenerate: {exc}") from exc
    verts = pts[hull.vertices]
    groups: dict[tuple, list[int]] = {}
    for i, eq in enumerate(np.round(hull.equations, 7)):
        groups.setdefault(tuple(eq), []).append(i)
    facets = []
    A_rows, b_rows = [], []
    for ids in groups.values():
        eqs = hull.equations[ids]
        normal = _unit(eqs[:, :dim].mean(axis=0))
        offset = float(-eqs[:, dim].mean())
        vid = sorted({v for i in ids for v in hull.simplices[i]})
        fverts = pts[vid]
        area = sum(_simplex_facet_area(dim, pts[hull.simplices[i]]) for i in ids)
        facets.append(Facet(normal, offset, float(area), _order_facet_vertices(normal, fverts)))
        A_rows.append(normal)
        b_rows.append(offset)
    return Polytope(dim, np.array(A_rows), np.array(b_rows), verts, tuple(facets))


def _check_bounded(A: np.ndarray, b: np.ndarray, x0: np.ndarray) -> None:
    """Boundedness via LPs along +-e_i; raises InputError when unbounded."""
    n = A.shape[1]
    for i in range(n):
        for sgn in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = sgn
            if solve_lp_max(c, A, b, x0).status == "unbounded":
                raise InputError("halfspace system is unbounded")


# -- module-level operations (thin wrappers over the method forms) ----------


def intersect_translates(K: Polytope, shifts: Sequence[Sequence[float]]) -> Polytope | None:
    """K intersected with each translate shift_i + K; None when empty.

    The result's halfspaces are the canonical (pruned) facet-defining ones.
    A touching, lower-dimensional intersection is returned as a degenerate
    polytope with volume 0.
    """
    if K.is_degenerate:
        raise InputError("K must be a body")
    shifts = np.asarray(list(shifts), dtype=float).reshape(-1, K.dim)
    pts = _intersection_vertices(K, shifts)
    if pts is None:
        return None
    return _build_from_points(K.dim, pts, allow_degenerate=True)


def _intersection_vertices(K: Polytope, shifts: np.ndarray) -> np.ndarray | None:
    """Vertex set of K cap (shift_i + K), or None when empty. Fast path."""
    if len(shifts) == 0:
        return K.vertices
    A = np.vstack([K.A] * (len(shifts) + 1))
    b = np.concatenate([K.b] + [K.b + K.A @ s for s in shifts])
    pts = enumerate_vertices(A, b)
    if len(pts) == 0:
        return None
    return pts


def volume(P: Polytope | None) -> float:
    if P is None:
        return 0.0
    return P.volume


def support(P: Polytope, u: Sequence[float]) -> float:
    return P.support(u)


def radial(P: Polytope, base: Sequence[float] | None, u: Sequence[float]) -> float:
    return P.radial(u, base)


@dataclass
class LinearMap:
    """Invertible linear map with cached |det| and inverse."""

    matrix: np.ndarray
    det_abs: float = field(init=False)
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise InputError("linear map must be square")
        det = float(np.linalg.det(self.matrix))
        if abs(det) <= 1e-12:
            raise InputError("linear map is singular")
        self.det_abs = abs(det)
        self.inverse = np.linalg.inv(self.matrix)
        self.matrix.setflags(write=False)
        self.inverse.setflags(write=False)


def apply_linear(T: LinearMap, P: Polytope) -> Polytope:
    return Polytope.from_vertices(P.vertices @ T.matrix.T)


@dataclass(frozen=True)
class StarBodyFn:
    """Star body in R^d given functionally by its radial function."""

    dim: int
    radial: Callable[[np.ndarray], np.ndarray]  # (N, d) -> (N,)

    def radial_one(self, u: Sequence[float]) -> float:
        return float(self.radial(np.asarray(u, dtype=float)[None, :])[0])

    @staticmethod
    def of_polytope(P: Polytope, base: Sequence[float] | None = None) -> "StarBodyFn":
        return StarBodyFn(P.dim, lambda dirs: P.radial_batch(dirs, base))

    @staticmethod
    def ball(dim: int, r: float = 1.0) -> "StarBodyFn":
        return StarBodyFn(dim, lambda dirs: np.full(len(dirs), float(r)))

    @staticmethod
    def scaled(S: "StarBodyFn", c: float) -> "StarBodyFn":
        return StarBodyFn(S.dim, lambda dirs: float(c) * S.radial(dirs))


def star_volume(S: StarBodyFn, quad, with_error: bool = False):
    """(1/d) * sum_i w_i rho(u_i)^d; stderr only meaningful for MC rules."""
    if S.dim != quad.dim:
        raise InputError("star body and quadrature dimensions differ")
    rho = np.asarray(S.radial(quad.nodes), dtype=float)
    if not np.isfinite(rho).all() or (rho <= 0).any():
        raise InputError("radial function must be positive and finite on nodes")
    vals = rho**S.dim
    # einsum, not a BLAS dot: its sum does not depend on the thread count
    vol = float(np.einsum("i,i->", quad.weights, vals)) / S.dim
    if not with_error:
        return vol
    if quad.kind.startswith("mc"):
        n = len(vals)
        se = float(quad.weights.sum() * vals.std(ddof=1) / math.sqrt(n)) / S.dim
    else:
        se = 0.0
    return vol, se
