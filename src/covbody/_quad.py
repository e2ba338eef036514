"""Quadrature rules and simplicial decompositions.

The package builds its quadrature rules here and nowhere else:

- `gauss_jacobi_01` and `log_gauss_01` are the rules on [0, 1] that carry
  the endpoint weights t^q and log t. Gauss-Jacobi is the package's one
  rule for an endpoint power weight: it also integrates the kernels of
  `genvol` (r^alpha times a smooth factor) exactly in the power;
- `geometric_gauss` is the composite 1-D rule on intervals away from 0:
  Gauss-Legendre on geometric sub-intervals [s, 2s], for integrands that
  carry a power r^q of any size;
- `chebyshev_01` gives the Chebyshev points of [0, 1] and the map from
  values at them to the coefficients of their interpolant, and
  `chebyshev_jacobi_01` the weights that integrate that interpolant
  against t^q (moments by `gauss_jacobi_01`);
- `simplex_rule` is the one simplex rule: a collapsed (Duffy) tensor Gauss
  rule on k-simplices embedded in R^d, one simplex or a stack of them.

Each 1-D rule is built once: the Legendre rules read the cached table
`gauss_01`, the Jacobi ones `gauss_jacobi_01`; the Chebyshev tables and
`simplex_rule` cache their own. All deterministic.

The geometry kernel lives here too: `simplex_volumes` is the one simplex
volume formula, and `triangulate_vertices` / `hull_simplices` the one
simplicial decomposition of a convex hull, shared by exact volumes
(`polytope._volume_of_points`, body builds) and by the simplex rule.
`triangulate_vertices` takes many vertex sets at once, and `segment_sums`
sums what they give set by set. In R^3 the sets come from halfspace
systems, and `facet_fans` splits them all from the rows their points
meet, with no Qhull call; Qhull (`hull_simplices`) stays for point clouds,
whose facets are unknown, and for the rare set that is no polytope on its
rows.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import leggauss, legvander
from scipy.spatial import ConvexHull, QhullError
from scipy.special import roots_jacobi

from .errors import InputError


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=64)
def gauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = leggauss(int(n))
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


@functools.lru_cache(maxsize=8)
def chebyshev_01(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree+1 Chebyshev points t_j of [0, 1], and the matrix taking
    values at them to the coefficients of their interpolant in the
    Chebyshev polynomials T_k(2t - 1), k = 0..degree."""
    j = np.arange(degree + 1)
    x = -np.cos((2 * j + 1) * np.pi / (2 * (degree + 1)))
    return _frozen(0.5 * (x + 1.0), np.linalg.inv(chebvander(x, degree)))


@functools.lru_cache(maxsize=64)
def chebyshev_jacobi_01(degree: int, q: float) -> np.ndarray:
    """Weights w on the points t_j of `chebyshev_01(degree)` with
    sum_j w_j f(t_j) = int_0^1 f(t) t^q dt, q > -1, for every polynomial f
    of degree <= degree: the moments of the interpolant's basis, taken by
    Gauss-Jacobi with enough nodes to be exact."""
    t, w = gauss_jacobi_01(degree // 2 + 1, q)
    return _frozen(w @ chebvander(2.0 * t - 1.0, degree) @ chebyshev_01(degree)[1])[0]


def geometric_gauss(lo: np.ndarray, hi: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss rule on the intervals [lo_i, hi_i], 0 < lo_i: each
    is split into the geometric sub-intervals [s, min(2s, hi_i)] for
    s = lo_i, 2 lo_i, ... (an empty interval has none), which carry n nodes
    apiece. Returns the nodes and weights, interval by interval in
    increasing order, and the index i of each node's interval.

    On each sub-interval r^q varies by at most a factor 2^|q|, so the rule
    integrates a polynomial times r^q to rounding once n exceeds about
    |q|/2 plus a few nodes. No node lies on an interval's end.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    count = np.ceil(np.log2(hi / lo)).astype(np.intp)
    # log2 may round either way: make 2^count lo the first power >= hi
    count += np.ldexp(lo, count) < hi
    count -= (count > 1) & (np.ldexp(lo, count - 1) >= hi)
    owner = np.repeat(np.arange(len(lo)), count)
    step = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    a = np.ldexp(lo[owner], step)
    width = np.minimum(2.0 * a, hi[owner]) - a
    u, w = gauss_01(n)
    nodes = a[:, None] + width[:, None] * u[None, :]
    return nodes.ravel(), (width[:, None] * w[None, :]).ravel(), np.repeat(owner, n)


@functools.lru_cache(maxsize=64)
def gauss_jacobi_01(n: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights on [0, 1] for the weight t^q, q > -1:
    sum_j w_j f(t_j) = int_0^1 t^q f(t) dt for f of degree < 2n."""
    x, w = roots_jacobi(int(n), 0.0, float(q))
    return _frozen(0.5 * (x + 1.0), w / 2.0 ** (q + 1.0))


@functools.lru_cache(maxsize=8)
def log_gauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of `gauss_01(n)` and weights w with sum_j w_j f(t_j) =
    int_0^1 log(t) f(t) dt for f of degree < n: the integral of the
    interpolant, by the moments of log t against the shifted Legendre
    polynomials, -1 for k = 0 and (-1)^(k+1) / (k (k+1)) for k >= 1."""
    t, w = gauss_01(n)
    k = np.arange(n)
    moments = np.where(k == 0, -1.0, (-1.0) ** (k + 1) / np.maximum(k * (k + 1), 1))
    # the interpolant's Legendre coefficients are (2k+1) sum_j w_j P_k(t_j) f(t_j)
    basis = legvander(2.0 * t - 1.0, n - 1)
    return _frozen(t.copy(), w * (basis @ ((2 * k + 1) * moments)))


@functools.lru_cache(maxsize=16)
def _simplex_table(k: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric nodes (Q, k+1) and weights (Q,) of the collapsed tensor
    rule on a k-simplex, as fractions of its volume: the weights sum to 1."""
    u, w = gauss_01(level)
    t = np.stack(np.meshgrid(*[u] * k, indexing="ij"), axis=-1).reshape(-1, k)
    wt = np.stack(np.meshgrid(*[w] * k, indexing="ij"), axis=-1).reshape(-1, k)
    # Duffy map: partial products c_j = t_1 ... t_j give the barycentric
    # coordinates c_(j-1) - c_j (c_0 = 1) and c_k; the Jacobian is
    # t_1^(k-1) t_2^(k-2) ... t_(k-1) = c_1 c_2 ... c_(k-1).
    c = np.cumprod(t, axis=1)
    bary = np.hstack([1.0 - c[:, :1], c[:, :-1] - c[:, 1:], c[:, -1:]])
    weights = wt.prod(axis=1) * c[:, :-1].prod(axis=1) * math.factorial(k)
    return _frozen(bary, weights)


def simplex_volumes(verts: np.ndarray) -> np.ndarray:
    """k-volumes of k-simplices in R^d: verts is one simplex (k+1, d) or a
    stack (S, k+1, d), 1 <= k <= d.

    k! times the k-volume is |det| of the k x k edge matrix when k = d, and
    the root of the Gram determinant of the edges when k < d.
    """
    verts = np.asarray(verts, dtype=float)
    edges = verts[..., 1:, :] - verts[..., :1, :]
    k, d = edges.shape[-2:]
    if k == d:
        scaled = np.abs(np.linalg.det(edges))
    else:
        gram = edges @ np.swapaxes(edges, -1, -2)
        scaled = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    return scaled / math.factorial(k)


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
    pts = bary @ verts
    return pts.reshape(-1, d), (simplex_volumes(verts)[:, None] * wref[None, :]).ravel()


def order_polygon(pts: np.ndarray) -> np.ndarray:
    """Indices that order 2-D points counterclockwise around their mean."""
    c = pts.mean(axis=0)
    return np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]), kind="stable")


def _cones(apex: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """The simplices from apex over each facet simplex of a stack (S, d, d)."""
    cones = np.empty((len(facets), facets.shape[1] + 1, facets.shape[2]))
    cones[:, 0] = apex
    cones[:, 1:] = facets
    return cones


def hull_simplices(pts: np.ndarray, hull: ConvexHull) -> np.ndarray:
    """The cones from the mean of the hull's vertices over its facet
    simplices: a stack (S, d+1, d) that splits the hull."""
    # the hull's vertices in input order, without the sort in `hull.vertices`
    vertices = np.flatnonzero(np.bincount(hull.simplices.ravel(), minlength=len(pts)))
    return _cones(pts[vertices].sum(axis=0) / len(vertices), pts[hull.simplices])


def segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The sum of each run of values along axis 0, run i holding the next
    sizes[i] entries (0 for an empty run). A run's sum reads its own
    entries alone, so it is the same bits whatever runs lie beside it."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = sizes.cumsum() - sizes
    if sizes.all() and len(values):
        return np.add.reduceat(values, starts, axis=0)
    out = np.zeros((len(sizes),) + np.shape(values)[1:])
    full = sizes > 0
    if full.any():
        out[full] = np.add.reduceat(values, starts[full], axis=0)
    return out


# Slack up to which a vertex meets a row of its system: rounding, far below
# polytope.DEDUPE_TOL. A set whose vertices vertex enumeration merged from
# near-copies lies up to about DEDUPE_TOL off the merged rows, misses
# incidences at this tolerance and takes its own hull.
INCIDENCE_TOL = 1e-12

# Each axis first, then the others in cyclic order.
_CYCLES = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _faces(meets: np.ndarray, sizes: np.ndarray, starts: np.ndarray,
           width: int) -> tuple[np.ndarray, ...]:
    """The faces of each set of a stack, set s holding the points
    starts[s]:starts[s] + sizes[s], from which rows its points meet,
    meets (P, R). Returns each face's set, its points as a mask (F, width)
    over the set's positions, and its count of them, set by set; and which
    sets a row meets entirely (lower-dimensional, no face). A face is a row
    that meets at least 3 points of a set but not all, and of rows that
    meet the same points the first stands for them all."""
    hits = np.add.reduceat(meets, starts, axis=0, dtype=np.intp)  # (S, R)
    face = (hits >= 3) & (hits < sizes[:, None])
    flat = (hits == sizes[:, None]).any(axis=1)
    if flat.any():
        face[flat] = False
    fs, fr = np.nonzero(face)  # set by set, rows in order
    at = np.arange(width)
    member = meets[np.minimum(starts[fs, None] + at, len(meets) - 1), fr[:, None]]
    if (sizes < width).any():
        member &= at < sizes[fs, None]
    # sorted by set and by the mask read as a binary number, copies of a
    # face (a shift parallel to a facet) fall next to each other; the
    # number is exact up to 53 points
    key = member @ np.ldexp(1.0, -at)
    order = np.lexsort((key, fs))
    same = (np.diff(fs[order]) == 0) & (np.diff(key[order]) == 0)
    if width > 53:
        same &= (member[order[1:]] == member[order[:-1]]).all(axis=1)
    first = np.ones(len(fs), dtype=bool)
    first[order[1:][same]] = False
    return fs[first], member[first], hits[fs, fr][first], flat


def facet_fans(pts: np.ndarray, sizes: np.ndarray,
               slack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split vertex sets in R^3 of at least 4 points each into simplices
    from slack (len(pts), R), how far inside each row of its halfspace
    system each point lies: all sets at once, with no hull. Returns the
    simplices, set by set, each set's count of them, and which sets they
    cover; a set they do not cover gets no simplex here.

    A point meets a row when its |slack| is at most INCIDENCE_TOL, and the
    rows a set's points meet give its faces (`_faces`). With Euler's
    formula the distinct faces of a 3-polytope with V vertices, k points
    each, have sum (k - 2) = 2V - 4, and a point counted on a face it is
    not on, or missed on one it is on, breaks that sum. A set is covered
    when the sum holds and no point lies outside a row by more than the
    tolerance; a set a row meets entirely is lower-dimensional, covered
    with no simplex. Any other set's points are not the vertices of a
    polytope with these rows as facets at this tolerance, as when vertex
    enumeration merges near-copies of a vertex or keeps a basic solution
    just outside a row nearly parallel to another.

    Each face's points are sorted by angle about the face's mean after a
    projection along face mean - set mean, a direction never parallel to
    the face, so the projection keeps the ring's order. Each ring is
    fanned from its first point, k - 2 triangles (2V - 4 in all, as many
    as a Qhull hull gives), and each triangle is coned from the set's
    mean.
    """
    starts = sizes.cumsum() - sizes
    width = int(sizes.max(initial=0))
    fs, member, k, flat = _faces(np.abs(slack) <= INCIDENCE_TOL, sizes, starts, width)
    counts = np.bincount(fs, weights=k - 2, minlength=len(sizes)).astype(np.intp)
    covered = counts == 2 * sizes - 4
    low = slack.min(axis=1)
    if low.min(initial=0.0) < -INCIDENCE_TOL:
        covered &= np.minimum.reduceat(low, starts) >= -INCIDENCE_TOL
    covered |= flat
    if not covered.all():
        keep = covered[fs]
        fs, member, k = fs[keep], member[keep], k[keep]
        counts[~covered] = 0
    if not len(fs):
        return np.empty((0, 4, 3)), counts, covered
    f, local = np.nonzero(member)  # face by face
    point = starts[fs[f]] + local
    fstart = k.cumsum() - k
    center = np.add.reduceat(pts, starts, axis=0) / sizes[:, None]
    fmean = np.add.reduceat(pts[point], fstart, axis=0) / k[:, None]
    # along d onto the coordinate plane of d's largest entry: any
    # projection along d keeps the cyclic order
    d = fmean - center[fs]
    axes = _CYCLES[np.abs(d).argmax(axis=1)]
    d = d[np.arange(len(d))[:, None], axes][f]
    rel = (pts[point] - fmean[f])[np.arange(len(f))[:, None], axes[f]]
    height = rel[:, 0] / d[:, 0]
    angle = np.arctan2(rel[:, 2] - height * d[:, 2], rel[:, 1] - height * d[:, 1])
    ring = point[np.lexsort((angle, f))]
    # ring point j of face f closes triangle (0, j, j + 1) for 1 <= j <= k - 2
    inner = np.ones(len(ring), dtype=bool)
    inner[fstart] = False
    inner[fstart + k - 1] = False
    mid = np.flatnonzero(inner)
    owner = f[mid]
    cones = np.stack([center[fs[owner]], pts[ring[fstart[owner]]],
                      pts[ring[mid]], pts[ring[mid + 1]]], axis=1)
    return cones, counts, covered


def _with_hulls(pts: np.ndarray, sizes: np.ndarray, simplices: np.ndarray,
                counts: np.ndarray, covered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The simplices of a stack of sets, set by set, and their counts: the
    given ones for the covered sets (counts 0 elsewhere), and the
    `hull_simplices` of its own Qhull hull for every other set, none when
    Qhull finds it lower-dimensional."""
    counts = counts.copy()
    starts = sizes.cumsum() - sizes
    missing = np.flatnonzero(~covered)
    runs = np.split(simplices, counts.cumsum()[missing])
    parts = [runs[0]]
    for s, run in zip(missing.tolist(), runs[1:]):
        own = pts[starts[s]:starts[s] + sizes[s]]
        try:
            cones = hull_simplices(own, ConvexHull(own))
        except QhullError:
            cones = simplices[:0]
        counts[s] = len(cones)
        parts += [cones, run]
    return np.concatenate(parts), counts


def triangulate_vertices(dim: int, pts: np.ndarray, sizes: np.ndarray,
                         slack: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Split the convex hull of each vertex set in R^dim into simplices:
    cones from an interior apex over the boundary. The sets are runs of
    pts, set i holding the next sizes[i] points. Returns every set's
    simplices, set by set, as one stack (T, dim+1, dim), and each set's
    count of them: 0 for a set of at most dim points or a
    lower-dimensional one.

    In R^1 a set's simplex is its extent. In R^2 every set in convex
    position (as every intersection is) is fanned from its mean over its
    counterclockwise ring, all sets at once. In R^3 the sets are vertex
    sets of halfspace systems, and `slack` (len(pts), R) gives how far
    inside each of its system's R rows each point lies: `facet_fans`
    triangulates them all at once from it. A set that neither fan covers,
    and every set from R^4 up, goes through `hull_simplices` of its own
    Qhull hull. Degenerate fan triangles are kept (volume 0). A set's
    simplices depend on its own points alone.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, dim)
    sizes = np.asarray(sizes, dtype=np.intp)
    if dim == 3 and slack is None:
        raise InputError("3-D vertex sets are triangulated from their rows' slack")
    solid = sizes > dim
    if not solid.all():  # the sets of at most dim points get no simplex
        keep = np.repeat(solid, sizes)
        simplices, counts = triangulate_vertices(
            dim, pts[keep], sizes[solid], None if slack is None else slack[keep])
        sizes = np.zeros(len(sizes), dtype=np.intp)
        sizes[solid] = counts
        return simplices, sizes
    ends = sizes.cumsum()
    starts = ends - sizes
    if dim == 1:
        lo = np.minimum.reduceat(pts[:, 0], starts) if len(pts) else np.empty(0)
        hi = np.maximum.reduceat(pts[:, 0], starts) if len(pts) else np.empty(0)
        return np.stack([lo, hi], axis=1)[hi > lo, :, None], (hi > lo).astype(np.intp)
    if dim == 3:
        simplices, counts, covered = facet_fans(pts, sizes, slack)
    elif dim == 2 and len(pts):
        owner = np.repeat(np.arange(len(sizes)), sizes)
        center = np.add.reduceat(pts, starts) / sizes[:, None]
        rel = pts - center[owner]
        ring = pts[np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), owner))]
        after = np.arange(1, len(pts) + 1)
        after[ends - 1] = starts
        fans = np.empty((len(pts), 3, 2))
        fans[:, 0] = center[owner]
        fans[:, 1] = ring
        fans[:, 2] = ring[after]
        edges = fans[:, 2] - ring
        e0, e1 = edges[:, 0], edges[:, 1]
        length = np.hypot(e0, e1)
        # no reflex turn, one whose sine falls below -1e-12: the ring is the
        # hull's boundary, and a turn let through costs at most 1e-12 of the
        # area of the triangle its two edges span
        reflex = e0 * e1[after] - e1 * e0[after] < -1e-12 * length * length[after]
        if not reflex.any():
            return fans, sizes
        covered = np.ones(len(sizes), dtype=bool)
        covered[owner[reflex]] = False
        simplices, counts = fans[covered[owner]], np.where(covered, sizes, 0)
    else:
        simplices = np.empty((0, dim + 1, dim))
        counts, covered = np.zeros(len(sizes), dtype=np.intp), np.zeros(len(sizes), dtype=bool)
    if covered.all():
        return simplices, counts
    return _with_hulls(pts, sizes, simplices, counts, covered)
