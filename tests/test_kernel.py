"""The geometry kernel: one simplex-volume formula, one hull decomposition
shared by exact volumes and the simplex rule, one dedupe, and vertex
enumeration through row-subset tables. A body factors each lifted table
once (`Polytope.lifted_table`); its vertices match a plain per-call
`np.linalg.solve`, warming it changes no value, and it goes with the body."""

import contextlib
import gc
import io
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from covbody import _quad, cli, polytope
from covbody._quad import simplex_rule, simplex_volumes, triangulate_vertices
from covbody.covariogram import MDirection, covariogram, diffbody_polytope, diffbody_radial
from covbody.measure import ConstantDensity, WeightedMeasure
from covbody.polytope import (Polytope, _volume_of_points, dedupe_points,
                              enumerate_vertices, intersect_translates)
from helpers import random_polygon, random_polytope


def cloud_with_duplicates(seed: int, dim: int, count: int, copies: int,
                          convex: bool = False):
    """Random points in [-1, 1]^dim, or on an ellipsoid (convex position,
    as vertex sets are), plus copies of some of them, exact or moved by at
    most 1e-10 (well inside dedupe's 1e-8), in a shuffled order. Returns
    the cloud and the index of each point's original."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (count, dim))
    if convex:
        base *= rng.uniform(0.2, 2.0, dim) / np.linalg.norm(base, axis=1, keepdims=True)
    src = rng.integers(0, count, copies)
    near = (rng.random(copies) < 0.5)[:, None]
    moved = base[src] + near * rng.uniform(-1e-10, 1e-10, (copies, dim))
    pts = np.vstack([base, moved])
    label = np.concatenate([np.arange(count), src])
    perm = rng.permutation(len(pts))
    return pts[perm], label[perm]


CLOUDS = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
                   st.integers(8, 30), st.integers(0, 12), st.booleans())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(CLOUDS)
def test_volume_of_points_is_the_hull_volume(case):
    pts, _ = cloud_with_duplicates(*case)
    dim = pts.shape[1]
    vol = _volume_of_points(dim, pts)
    assert vol == pytest.approx(ConvexHull(pts).volume, rel=1e-12)
    if dim <= 3:
        # the simplex rule splits the hull the same way
        _, w = simplex_rule(triangulate_vertices(dim, pts), 3)
        assert w.sum() == pytest.approx(vol, rel=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(CLOUDS)
def test_dedupe_keeps_the_first_point_of_each_cluster(case):
    pts, label = cloud_with_duplicates(*case)
    _, first = np.unique(label, return_index=True)
    np.testing.assert_array_equal(dedupe_points(pts), pts[np.sort(first)])


def test_dedupe_drops_only_points_close_to_a_kept_one():
    # 0.6e-8 is close to 0 and goes; 1.2e-8 is close only to the dropped
    # point, so it stays
    pts = np.array([[0.0], [0.6e-8], [1.2e-8], [0.0]])
    np.testing.assert_array_equal(dedupe_points(pts), [[0.0], [1.2e-8]])


def test_dedupe_memory_stays_linear():
    # the D^2 K candidates of a 10-vertex 3-polytope: 1000 points in R^6; a
    # pairwise k x k x d difference array would take 48 MB
    V = np.random.default_rng(5).standard_normal((10, 3))
    cands = np.array([np.concatenate([y - V[i], y - V[j]])
                      for y in V for i in range(10) for j in range(10)])
    tracemalloc.start()
    kept = dedupe_points(cands)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(kept) == 1000 - 9  # the ten zero vectors merge
    assert peak < 2_000_000


@pytest.mark.parametrize("k, d", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (4, 6), (6, 6)])
def test_simplex_volumes_match_the_gram_formula(k, d):
    rng = np.random.default_rng(k * 10 + d)
    verts = rng.standard_normal((5, k + 1, d))
    edges = verts[:, 1:] - verts[:, :1]
    gram = np.sqrt(np.linalg.det(edges @ edges.transpose(0, 2, 1)))
    expect = gram / np.prod(np.arange(1, k + 1))
    np.testing.assert_allclose(simplex_volumes(verts), expect, rtol=1e-12)
    assert simplex_volumes(verts[0]) == pytest.approx(expect[0], rel=1e-12)


@pytest.fixture
def hull_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return ConvexHull(*args, **kwargs)

    for module in (polytope, _quad):
        monkeypatch.setattr(module, "ConvexHull", counting)
    return calls


def test_body_build_runs_qhull_once(hull_calls):
    pts = np.random.default_rng(3).standard_normal((12, 3))
    K = Polytope.from_vertices(pts)
    assert len(hull_calls) == 1
    assert K.volume == pytest.approx(ConvexHull(pts).volume, rel=1e-12)
    triangle = Polytope.named("simplex", 2)
    hull_calls.clear()
    D = diffbody_polytope(triangle, 2)  # a body in R^4
    assert len(hull_calls) == 1
    assert D.volume == pytest.approx(_volume_of_points(4, D.vertices), rel=1e-12)


PRISM = Polytope.from_vertices([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                [0, 0, 1], [1, 0, 1], [0, 1, 1]])


# D^m of a product is the product of the factors' D^m; D^2 of [0, 1] is a
# hexagon of area 3, D^3 of it has volume 4, and D^m of an n-simplex has
# volume C(nm + n, n) vol(K)^m
@pytest.mark.parametrize("K, m, closed_form", [
    (Polytope.named("cube", 2), 2, 9.0),
    (Polytope.named("simplex", 3), 2, 84 / 36),
    (Polytope.named("cube", 3), 2, 27.0),
    (Polytope.named("cube", 2), 3, 16.0),
    (PRISM, 2, 15 / 4 * 3),
], ids=["square-m2", "tetrahedron-m2", "cube-m2", "square-m3", "prism-m2"])
def test_difference_body_volume_closed_forms(K, m, closed_form):
    # in R^6 the cones over a hull of every candidate point overlapped:
    # the cube read 28.19
    assert diffbody_polytope(K, m).volume == pytest.approx(closed_form, rel=1e-12)


@pytest.mark.parametrize("name, rows, expect", [
    # octahedron: every vertex lies on four facets (non-simple)
    ("octahedron", [s for s in itertools.product((-1.0, 1.0), repeat=3)],
     np.vstack([np.eye(3), -np.eye(3)])),
    ("cube", [v for v in np.vstack([np.eye(3), -np.eye(3)])],
     np.array(list(itertools.product((-1.0, 1.0), repeat=3)))),
])
def test_enumerate_vertices(name, rows, expect):
    A = np.array(rows, dtype=float)
    b = np.ones(len(A))
    verts = enumerate_vertices(A, b)
    assert len(verts) == len(expect)
    key = lambda P: sorted(map(tuple, np.round(P, 12)))
    assert key(verts) == key(expect)


def plain_basic_solutions(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every feasible basic solution of {A x <= b} by np.linalg.solve on
    each regular n-subset of rows, in lexicographic order, undeduped: the
    reference that the cached tables replace."""
    n = A.shape[1]
    idx = np.array(list(itertools.combinations(range(len(A)), n)))
    M = A[idx]
    ok = np.abs(np.linalg.det(M)) > 1e-12
    X = np.linalg.solve(M[ok], b[idx[ok]][..., None])[..., 0]
    return X[(A @ X.T <= b[:, None] + polytope.TOL).all(axis=0)]


def kernel_body(kind: str, seed: int) -> Polytope:
    rng = np.random.default_rng(seed)
    if kind == "polygon":
        return random_polygon(rng, int(rng.integers(3, 9)))
    if kind == "polytope3":
        return random_polytope(rng, 3, int(rng.integers(5, 11)))
    return Polytope.named(kind, int(rng.integers(2, 4)))


# cube and cross: vertices of K cap (K + x) where more than n rows meet
KERNEL_CASES = st.tuples(st.sampled_from(["polygon", "polytope3", "cube", "cross"]),
                         st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
                         st.floats(0.0, 1.0) | st.floats(1.0 + 1e-6, 1.05))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(KERNEL_CASES)
@example(("cross", 1, 1, 1.0))
@example(("cube", 2, 2, 1.0))
@example(("polytope3", 3, 2, 1.0))
@example(("polygon", 4, 1, 1.0 + 1e-6))
def test_cached_table_gives_the_plain_solve_vertices(case):
    kind, seed, m, s = case
    K = kernel_body(kind, seed)
    theta = MDirection.normalized(np.random.default_rng(seed).standard_normal((m, K.dim)))
    shifts = theta.shifts(s * diffbody_radial(K, theta))
    pts = polytope._intersection_vertices(K, shifts)  # through K's cached table
    A = np.vstack([K.A] * (m + 1))
    b = np.concatenate([K.b] + [K.b + K.A @ x for x in shifts])
    ref = plain_basic_solutions(A, b)
    if s > 1.0:
        assert pts is None and len(ref) == 0
        return
    # one vertex per cluster of the reference's basic solutions, each the
    # solution of one subset to 1e-12, and every basic solution merged
    # into one of them
    gap = np.abs(pts[:, None, :] - ref[None, :, :]).max(axis=2)
    assert len(pts) == len(dedupe_points(ref))
    assert gap.min(axis=1).max() <= 1e-12
    assert gap.min(axis=0).max() <= polytope.DEDUPE_TOL
    if s == 1.0:
        # rho_D's translates only touch K
        P = intersect_translates(K, shifts)
        assert P is None or P.volume == 0.0


def test_a_warm_table_changes_no_value():
    mu = WeightedMeasure(ConstantDensity(3, 1.0))
    shifts = np.array([[0.2, -0.1, 0.05], [-0.05, 0.15, 0.1]])
    cold = covariogram(Polytope.named("cross", 3), mu, shifts)
    K = Polytope.named("cross", 3)
    covariogram(K, mu, 0.5 * shifts)  # fills the m = 2 table
    covariogram(K, mu, shifts[:1])  # and the m = 1 one
    assert covariogram(K, mu, shifts) == cold


@pytest.fixture
def factorings(monkeypatch):
    """The shapes of the systems whose row subsets get factored."""
    shapes = []
    factor = polytope._factor

    def counting(A):
        shapes.append(A.shape)
        return factor(A)

    monkeypatch.setattr(polytope, "_factor", counting)
    return shapes


@pytest.mark.parametrize("command, params, lifted", [
    ("verify-variational", {"m": 1, "directions": 12}, [(16, 3)]),
    ("verify-variational", {"m": 2, "directions": 12}, [(24, 3)]),
    # every ray's breakpoints come from the same table
    ("verify-chain", {"m": 1, "branch": "s", "s": 1 / 3, "p_list": [0.5, 1.0, 2.0]},
     [(16, 3)]),
])
def test_each_lifted_table_is_factored_once_per_job(factorings, command, params, lifted):
    job = {"command": command, "body": {"name": "cross", "dim": 3}, "params": params}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(job) == 0
    assert factorings == lifted


def test_no_table_outlives_its_body():
    K = Polytope.named("cross", 3)
    covariogram(K, WeightedMeasure(ConstantDensity(3, 1.0)), [[0.2, 0.1, 0.05]])
    body, table = weakref.ref(K), weakref.ref(K.lifted_table(2))
    del K
    gc.collect()
    assert body() is None and table() is None
    # nor does a job keep its body once it is done
    gc.collect()
    before = sum(isinstance(o, Polytope) for o in gc.get_objects())
    job = {"command": "verify-variational", "body": {"name": "cube", "dim": 3},
           "params": {"m": 2, "directions": 4}}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(job) == 0
    gc.collect()
    assert sum(isinstance(o, Polytope) for o in gc.get_objects()) == before
