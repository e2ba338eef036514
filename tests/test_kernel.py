"""The geometry kernel: one simplex-volume formula, one hull decomposition
shared by exact volumes and the simplex rule, one dedupe, and vertex
enumeration through one cached row-subset table."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from covbody import _quad, polytope
from covbody._quad import simplex_rule, simplex_volumes, triangulate_vertices
from covbody.covariogram import diffbody_polytope
from covbody.polytope import (Polytope, _volume_of_points, dedupe_points,
                              enumerate_vertices)


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


def test_translate_runs_no_qhull(hull_calls):
    K = Polytope.named("cross", 3)
    hull_calls.clear()
    T = K.translate([0.3, -0.2, 0.1])
    assert hull_calls == []
    assert T.volume == K.volume


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
