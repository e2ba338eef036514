"""Convex polytopes: halfspace/vertex representations and geometric primitives.

A Polytope is a bounded intersection of halfspaces with cached vertices and
facet data. All predicates use floating point with absolute tolerance 1e-9;
bodies are full-dimensional (positive interior radius). Degenerate
(lower-dimensional) intersections are representable with volume 0 so that
covariogram-type integrands can vanish without raising.

Everything here is immutable after construction and safe for concurrent
read-only use; a body's lifted vertex-enumeration tables (`lifted_table`)
are filled in on first use, and filling one twice gives the same table.

Vertex enumeration and hull volumes take stacks: `enumerate_vertices` one
system per row of a stack of right-hand sides, `_intersection_vertices`
one intersection per m-tuple of a stack of shifts, and `_volume_of_points`
one volume per run of points. A stack's members come out set by set with
their counts, each the same bits as when it goes alone. A 3-D vertex set
carries each row's slack at its points (`row_slack`): the rows its points
meet are its facets, which triangulate it with no hull
(`_quad.facet_fans`). Qhull builds bodies from points, once per body.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ._quad import (hull_simplices, order_polygon, segment_sums, simplex_volumes,
                    triangulate_vertices)
from .errors import InputError, NumericError, job_field, job_number, spec_kind

TOL = 1e-9


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise InputError("zero normal vector")
    return v / n


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


@functools.lru_cache(maxsize=16)
def _row_subsets(rows: int, k: int) -> np.ndarray:
    """All k-subsets of range(rows) as a read-only (C(rows, k), k) array."""
    idx = np.array(list(itertools.combinations(range(rows), k)), dtype=np.intp)
    idx.setflags(write=False)
    return idx


class SubsetTable:
    """The n-row subsets of a system {A x <= b} whose A stays fixed while b
    varies: the regular subsets (|det| > 1e-12) with their inverses, ordered
    by descending |det|, ties in lexicographic order (a stable sort), so the
    best-conditioned basic solution of a point comes first.

    A is copied at once; the subsets are factored on first use, since
    callers that only read A (an LP over the lifted system) need no factors.
    The table holds no reference to the body it came from.
    """

    def __init__(self, A: np.ndarray):
        self.A = np.array(A, dtype=float)
        self.A.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        """A's shape, so a table stands wherever A's is read (the span
        counters of jobbench/spans.py count each enumeration's subsets by it)."""
        return self.A.shape

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(idx, inv, det): the regular subsets' row indices (k, n),
        inverses column by column (n, n, k), inv[j, i, t] being entry
        (i, j) of subset t's inverse, and |det| (k,)."""
        return _factor(self.A)


def _factor(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, inverses and |det| of the regular n-row subsets of A,
    in descending |det| order (stable). The |det| stays, since it scales
    the regularity test of each subset plus one row (`CovRay.breakpoints`)."""
    H, n = A.shape
    if H < n:
        return np.empty((0, n), dtype=np.intp), np.empty((n, n, 0)), np.empty(0)
    idx = _row_subsets(H, n)
    M = A[idx]
    det = np.abs(np.linalg.det(M))
    keep = np.flatnonzero(det > 1e-12)
    keep = keep[np.argsort(-det[keep], kind="stable")]
    idx, det = idx[keep], det[keep]
    inv = np.ascontiguousarray(np.linalg.inv(M[keep]).transpose(2, 1, 0))
    for arr in (idx, inv, det):
        arr.setflags(write=False)
    return idx, inv, det


def enumerate_vertices(system: SubsetTable | np.ndarray,
                       b: np.ndarray) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """All vertices of {A x <= b}: basic solutions that satisfy every row.

    `system` is A's `SubsetTable`, or A itself, whose table is then built
    for this call alone. b is one right-hand side (H,), which gives its
    vertex array, or a stack (S, H), which gives the vertices of every
    system, set by set, and each set's count. A stack costs one product of
    the table's inverses with every b, one feasibility test and one
    segmented dedupe per chunk of systems, a chunk's feasibility tests
    holding at most DEDUPE_BLOCK floats; the vertex kept at a point where
    more than n rows meet is the basic solution of the subset with the
    largest |det|. A system's vertices are the same bits whatever it is
    stacked with. Suitable for the small systems this package works with
    (tens of rows, n <= 3 ambient, nm <= 6 lifted).
    """
    table = system if isinstance(system, SubsetTable) else SubsetTable(system)
    A = table.A
    B = np.asarray(b, dtype=float)
    stack = B.reshape(-1, A.shape[0])
    if A.shape[1] == 1:
        pts, sizes = _interval_ends(A[:, 0], stack)
    else:
        step = max(1, DEDUPE_BLOCK // max(1, len(table.factors[0]) * A.shape[0]))
        if len(stack) <= step:
            pts, sizes = _feasible_vertices(table, stack)
        else:
            parts = [_feasible_vertices(table, stack[s:s + step])
                     for s in range(0, len(stack), step)]
            pts = np.concatenate([p for p, _ in parts])
            sizes = np.concatenate([c for _, c in parts])
    return (pts, sizes) if B.ndim == 2 else pts


def _interval_ends(a: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of each {x in R : a x <= b} for the rows b of B: both
    ends, one point where they meet within TOL, none when empty."""
    pos, neg = a > TOL, a < -TOL
    if not pos.any() or not neg.any():
        return np.empty((0, 1)), np.zeros(len(B), dtype=np.intp)
    hi = (B[:, pos] / a[pos]).min(axis=1)
    lo = (B[:, neg] / a[neg]).max(axis=1)
    empty = lo > hi + TOL
    one = ~empty & (hi - lo <= TOL)
    ends = np.stack([np.where(one, 0.5 * (lo + hi), lo), hi], axis=1)
    take = np.stack([~empty, ~empty & ~one], axis=1)
    return ends[take][:, None], take.sum(axis=1)


def _feasible_vertices(table: SubsetTable, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`enumerate_vertices` on a stack B (S, H): the deduped feasible basic
    solutions of each row, set by set, and each set's count."""
    X = _basic_solutions(table, B)  # (n, S, k)
    # a stacked matmul runs one BLAS product per system, of that system's
    # shape, so the stack changes no bit of it
    feasible = (table.A @ X.transpose(1, 0, 2) <= (B + TOL)[:, :, None]).all(axis=1)
    count = feasible.sum(axis=1)
    # each system's feasible points, in table order, padded to the largest
    # count: Q[:, s, valid[s]]
    valid = np.arange(count.max(initial=0)) < count[:, None]
    Q = np.zeros((len(X),) + valid.shape)
    Q.reshape(len(X), -1)[:, valid.ravel()] = np.compress(
        feasible.ravel(), X.reshape(len(X), -1), axis=1)
    keep = _first_of_clusters(Q, valid)
    return Q.transpose(1, 2, 0)[keep], keep.sum(axis=1)


def _basic_solutions(table: SubsetTable, b: np.ndarray) -> np.ndarray:
    """The common point of every regular n-subset T of the rows of
    {A x <= b}, feasible or not, in the table's descending |det| order,
    coordinate by coordinate: (n, k) for one right-hand side b (H,), and
    (n, S, k) for a stack (S, H). Linear in b: at b + r c the point of T
    moves along the line x(b) + r x(c)."""
    idx, inv, _ = table.factors
    shape = (len(inv),) + (1,) * (b.ndim - 1) + (len(idx),)
    rhs = b[..., idx.T]  # b at each subset's j-th row: (n, k), or (S, n, k)
    # summed one product at a time: an einsum picks its loop, and with it
    # fused multiply-adds, by the shape of the stack, so a point's bits
    # would depend on what b is stacked with
    X = inv[0].reshape(shape) * rhs[..., 0, :]
    for j in range(1, len(inv)):
        X += inv[j].reshape(shape) * rhs[..., j, :]
    return X


# Most floats a block of dedupe_points' pairwise differences may hold, and
# the budget that chunks the stacked temporaries of vertex enumeration and
# integration.
DEDUPE_BLOCK = 1 << 16

# Max-norm distance within which dedupe_points merges two points.
DEDUPE_TOL = 1e-8


def dedupe_points(pts: np.ndarray) -> np.ndarray:
    """Merge points closer than DEDUPE_TOL (in max-norm), keeping first
    occurrences: a point goes when it lies within DEDUPE_TOL of an earlier
    point that stays. Vertex enumeration hands its points over in its
    table's descending |det| order, so there the first occurrence is the
    best-conditioned basic solution.

    Pairs are compared a block of rows at a time, so memory stays below
    DEDUPE_BLOCK floats however many points there are.
    """
    return pts[_first_of_clusters(pts.T[:, None, :], np.ones((1, len(pts)), dtype=bool))[0]]


def _first_of_clusters(Q: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """`dedupe_points` on each set of a padded stack Q (n, S, w), held
    coordinate by coordinate, set s holding the points Q[:, s, valid[s]]:
    which points stay, as a mask (S, w). Points of two sets are never
    compared."""
    n, S, w = Q.shape
    if w <= 1:
        return valid.copy()
    rows = max(1, DEDUPE_BLOCK // (w * n))  # rows of one set per block
    sets = max(1, rows // w)  # sets per block
    col = np.arange(w)
    firsts, laters = [], []
    for s in range(0, S, sets):
        for r in range(0, w, rows):
            # pairs of this block's rows with the later valid points of their
            # set, within DEDUPE_TOL in every coordinate
            gap = Q[:, s:s + sets, r:r + rows, None] - Q[:, s:s + sets, None, :]
            close = (np.abs(gap, out=gap) <= DEDUPE_TOL).all(axis=0)
            close &= col > col[r:r + rows, None]
            close &= valid[s:s + sets, None, :]
            i, j, k = np.nonzero(close)
            if len(i):
                base = (s + i) * w
                firsts.append(base + r + j)
                laters.append(base + k)
    keep = valid.copy()
    if not firsts:
        return keep
    first, later = np.concatenate(firsts), np.concatenate(laters)
    # keep[j] = no kept i < j is close to j; iterating from all-kept settles
    # one more link of any chain of close points per pass, and a pass that
    # keeps the same first points as the one before reaches the fixed point
    flat = keep.reshape(-1)
    flat[later] = False
    alive = flat[first]
    if alive.all():
        return keep
    while True:
        flat[:] = valid.reshape(-1)
        flat[later[alive]] = False
        if (flat[first] == alive).all():
            return keep
        alive = flat[first]


def row_slack(A: np.ndarray, B: np.ndarray, pts: np.ndarray, sizes=None) -> np.ndarray:
    """How far inside each row of its system each vertex lies, (len(pts),
    R): B[s, r] - A_r p for point p of set s, from which `facet_fans`
    reads the rows each vertex meets. B is one right-hand side (R,) for
    all of pts, or one per set (S, R), set s holding the next sizes[s]
    points; A's rows are unit normals. Summed a column at a time, so a
    point's slacks are the same bits in any stack."""
    B = np.asarray(B, dtype=float)
    if B.ndim == 2:
        B = np.repeat(B, sizes, axis=0)
    lhs = pts[:, :1] * A[:, 0]
    for j in range(1, A.shape[1]):
        lhs += pts[:, j:j + 1] * A[:, j]
    return B - lhs


def _volume_of_points(dim: int, pts: np.ndarray, sizes,
                      slack: np.ndarray | None = None) -> np.ndarray:
    """Volume of the convex hull of each vertex set, the runs of pts of
    sizes[i] points: the sum over its `triangulate_vertices` simplices
    (in R^3 from its rows' slack); 0 for a lower-dimensional set."""
    simplices, counts = triangulate_vertices(dim, pts, sizes, slack)
    return segment_sums(simplex_volumes(simplices), counts)


def _order_facet_vertices(normal: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Order facet vertices along the facet (2-D edge) or around it (3-D)."""
    dim = pts.shape[1]
    if dim == 2:
        d = pts[:, 0] if np.ptp(pts[:, 0]) >= np.ptp(pts[:, 1]) else pts[:, 1]
        return pts[np.argsort(d, kind="stable")]
    if dim != 3 or len(pts) <= 3:
        return pts  # ordering only matters for facet quadrature in dim <= 3
    # project to a 2-D frame in the facet plane and sort by angle
    u = np.zeros(3)
    u[np.argmin(np.abs(normal))] = 1.0
    e1 = _unit(np.cross(normal, u))
    e2 = np.cross(normal, e1)
    return pts[order_polygon(pts @ np.stack([e1, e2], axis=1))]


class Polytope:
    """Bounded convex polytope with cached halfspaces, vertices and facets."""

    def __init__(self, dim: int, A: np.ndarray, b: np.ndarray, vertices: np.ndarray,
                 facets: tuple[Facet, ...], volume: float, *, _degenerate: bool = False):
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
            self.volume = float(volume)
        for arr in (self.A, self.b, self.vertices):
            arr.setflags(write=False)
        self._lifted: dict[int, SubsetTable] = {}

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_vertices(pts: Sequence[Sequence[float]]) -> "Polytope":
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2:
            raise InputError("vertices must be a 2-d array")
        dim = pts.shape[1]
        return _build_from_points(dim, pts, allow_degenerate=False)

    @staticmethod
    def from_halfspaces(halfspaces: tuple[np.ndarray, np.ndarray]) -> "Polytope":
        """The body {x : A x <= b} of halfspaces = (A, b), rows in any
        scale (each is normalised)."""
        A = np.asarray(halfspaces[0], dtype=float)
        b = np.asarray(halfspaces[1], dtype=float)
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
        kind = spec_kind(spec, "body", {"vrep": {"vertices"}, "hrep": {"halfspaces"},
                                        "named": {"name", "dim"}})
        if kind == "vrep":
            return Polytope.from_vertices(
                job_number(job_field(spec, "vertices", "a vrep body"), "body.vertices", 2))
        if kind == "hrep":
            hs = job_field(spec, "halfspaces", "an hrep body")
            if not isinstance(hs, list):
                raise InputError(f"body.halfspaces must be a list, got {hs!r}")
            a, b = [], []
            for i, h in enumerate(hs):
                where = f"body.halfspaces[{i}]"
                if not isinstance(h, dict):
                    raise InputError(f"{where} must be an object, got {h!r}")
                a.append(job_field(h, "a", where))
                b.append(job_field(h, "b", where))
            return Polytope.from_halfspaces((job_number(a, "body.halfspaces.a", 2),
                                             job_number(b, "body.halfspaces.b", 1)))
        return Polytope.named(job_field(spec, "name", "a named body"), int(
            job_number(job_field(spec, "dim", "a named body"), "body.dim")))

    # -- queries ----------------------------------------------------------

    def support(self, u: Sequence[float]) -> float:
        u = np.asarray(u, dtype=float)
        return float((self.vertices @ u).max())

    def support_batch(self, dirs: np.ndarray) -> np.ndarray:
        return (self.vertices @ np.asarray(dirs, dtype=float).T).max(axis=0)

    def radial(self, u: Sequence[float], base: Sequence[float] | None = None) -> float:
        return float(self.radial_batch(np.asarray(u, dtype=float)[None, :], base)[0])

    def radial_batch(self, dirs: np.ndarray, base: Sequence[float] | None = None) -> np.ndarray:
        """rho_{P-base}(u) for each row u of dirs; base defaults to the
        cached interior point and must be strictly interior. The directions
        go a chunk at a time, each chunk's (H, N) ratios within DEDUPE_BLOCK
        floats, and a direction's radius is the same bits in any chunk."""
        if self.is_degenerate:
            raise InputError("radial undefined for degenerate polytope")
        base = self.interior_point if base is None else np.asarray(base, dtype=float)
        slack = self.b - self.A @ base
        if slack.min() <= 0:
            raise InputError("radial base point is not interior")
        dirs = np.asarray(dirs, dtype=float)
        rho = np.empty(len(dirs))
        step = max(1, DEDUPE_BLOCK // len(self.A))
        for s in range(0, len(dirs), step):
            # einsum, not a matmul: one fixed loop, whatever the chunk
            denom = np.einsum("hj,nj->hn", self.A, dirs[s:s + step])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 1e-13, slack[:, None] / denom, np.inf)
            rho[s:s + step] = ratios.min(axis=0)
        if not np.isfinite(rho).all():
            raise NumericError("radial ray never exits the polytope (unbounded?)")
        return rho

    def lifted_table(self, copies: int) -> SubsetTable:
        """The `SubsetTable` of [A; ...; A] (`copies` times), the lifted
        system of K cap_i (K + x_i) with copies - 1 translates: built on
        first use and kept with the body, so every evaluation of one body
        shares it and it goes when the body goes."""
        table = self._lifted.get(copies)
        if table is None:
            table = self._lifted[copies] = SubsetTable(np.vstack([self.A] * copies))
        return table

    @functools.cached_property
    def slack(self) -> np.ndarray | None:
        """Each row's slack at each vertex (`row_slack`), from which a body
        in R^3 is triangulated; None in other dimensions."""
        return row_slack(self.A, self.b, self.vertices) if self.dim == 3 else None

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"facets={len(self.facets)}, volume={self.volume:.6g})")


def _build_from_points(dim: int, pts: np.ndarray, allow_degenerate: bool) -> Polytope:
    pts = dedupe_points(np.asarray(pts, dtype=float))
    if dim == 1:
        lo, hi = float(pts.min()), float(pts.max())
        if hi - lo <= TOL:
            if allow_degenerate:
                return Polytope(1, np.zeros((0, 1)), np.zeros(0), pts[:1], (), 0.0,
                                _degenerate=True)
            raise InputError("1-d polytope is degenerate")
        A = np.array([[1.0], [-1.0]])
        b = np.array([hi, -lo])
        verts = np.array([[lo], [hi]])
        facets = (
            Facet(np.array([-1.0]), -lo, 1.0, np.array([[lo]])),
            Facet(np.array([1.0]), hi, 1.0, np.array([[hi]])),
        )
        return Polytope(1, A, b, verts, facets, hi - lo)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        if allow_degenerate:
            return Polytope(dim, np.zeros((0, dim)), np.zeros(0), pts, (), 0.0, _degenerate=True)
        raise InputError(f"vertex set is degenerate: {exc}") from exc
    verts = pts[hull.vertices]
    groups: dict[tuple, list[int]] = {}
    for i, eq in enumerate(np.round(hull.equations, 7)):
        groups.setdefault(tuple(eq), []).append(i)
    areas = simplex_volumes(pts[hull.simplices])
    facets = []
    A_rows, b_rows = [], []
    for ids in groups.values():
        eqs = hull.equations[ids]
        normal = _unit(eqs[:, :dim].mean(axis=0))
        offset = float(-eqs[:, dim].mean())
        vid = sorted({v for i in ids for v in hull.simplices[i]})
        fverts = pts[vid]
        facets.append(Facet(normal, offset, float(areas[ids].sum()),
                            _order_facet_vertices(normal, fverts)))
        A_rows.append(normal)
        b_rows.append(offset)
    # In R^6 the cones over a hull with non-vertex points can overlap on
    # merged facets (D^2 of the unit cube summed to 28.19, not 27); a hull
    # of the vertices alone splits the body. Up to R^4 they split it on
    # every body tried, and a body build there keeps its one Qhull call.
    cones = (hull_simplices(pts, hull) if dim <= 4 or len(verts) == len(pts)
             else hull_simplices(verts, ConvexHull(verts)))
    volume = simplex_volumes(cones).sum()
    return Polytope(dim, np.array(A_rows), np.array(b_rows), verts, tuple(facets), volume)


def _check_bounded(A: np.ndarray, b: np.ndarray, x0: np.ndarray) -> None:
    """Boundedness via one stack of LPs along +-e_i; raises InputError when
    one is unbounded."""
    # simplexlp reads DEDUPE_BLOCK from this module
    from .simplexlp import solve_lp_max

    n = A.shape[1]
    objectives = np.kron(np.eye(n), [[1.0], [-1.0]])  # e_1, -e_1, e_2, ...
    status = solve_lp_max(objectives, np.broadcast_to(A, (2 * n, *A.shape)), b, x0).status
    if (status == "unbounded").any():
        raise InputError("halfspace system is unbounded")
    stuck = np.flatnonzero(status == "limit")
    if stuck.size:
        i = int(stuck[0])
        raise NumericError(f"boundedness LP {i} of {2 * n}, along {'+-'[i % 2]}e_{i // 2 + 1}, "
                           f"reached the simplex iteration limit")


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
    pts = _intersection_vertices(K, shifts[None])[0]
    if len(pts) == 0:
        return None
    return _build_from_points(K.dim, pts, allow_degenerate=True)


def lifted_system(K: Polytope, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K cap_i (K + r blocks_i) as {x : A x <= b + r c}: K's rows, then
    each translate's, with c = 0 on K's rows and c = A blocks_i on the
    i-th translate's. A is the one of K's `lifted_table`."""
    copies = len(blocks) + 1
    A = K.lifted_table(copies).A
    b = np.concatenate([K.b] * copies)
    c = np.concatenate([np.zeros(len(K.b))] + [K.A @ th for th in blocks])
    return A, b, c


def _intersection_vertices(K: Polytope, shifts: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Vertex sets of K cap_i (x_i + K), one per m-tuple of a stack of
    shifts (S, m, n): every set's points, set by set, each set's count
    (0 when empty), from one `enumerate_vertices` of the stacked b + c over
    K's lifted table, and in R^3, where it triangulates them, each point's
    slack in each row (`row_slack`); None elsewhere."""
    S, m, n = shifts.shape
    if m == 0:
        pts, sizes = np.tile(K.vertices, (S, 1)), np.full(S, len(K.vertices))
        return pts, sizes, row_slack(K.A, K.b, pts) if n == 3 else None
    # b + A x_i on each translate's rows, one product per m-tuple (see
    # `_feasible_vertices`)
    h = len(K.b)
    B = np.empty((S, (m + 1) * h))
    B[:, :h] = K.b
    B[:, h:] = (shifts @ K.A.T + K.b).reshape(S, m * h)
    table = K.lifted_table(m + 1)
    pts, sizes = enumerate_vertices(table, B)
    return pts, sizes, row_slack(table.A, B, pts, sizes) if n == 3 else None


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

    @staticmethod
    def of_polytope(P: Polytope, base: Sequence[float] | None = None) -> "StarBodyFn":
        return StarBodyFn(P.dim, lambda dirs: P.radial_batch(dirs, base))

    @staticmethod
    def ball(dim: int, r: float = 1.0) -> "StarBodyFn":
        return StarBodyFn(dim, lambda dirs: np.full(len(dirs), float(r)))


def star_volume(S: StarBodyFn, quad) -> float:
    """(1/d) * sum_i w_i rho(u_i)^d."""
    if S.dim != quad.dim:
        raise InputError("star body and quadrature dimensions differ")
    rho = np.asarray(S.radial(quad.nodes), dtype=float)
    if not np.isfinite(rho).all() or (rho <= 0).any():
        raise InputError("radial function must be positive and finite on nodes")
    vals = rho**S.dim
    # einsum, not a BLAS dot: its sum does not depend on the thread count
    return float(np.einsum("i,i->", quad.weights, vals)) / S.dim
