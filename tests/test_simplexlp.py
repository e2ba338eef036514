"""LP solver tests: fixed instances plus a scipy cross-check."""

import numpy as np
import pytest
import scipy.optimize

from covbody import simplexlp
from covbody.covariogram import diffbody_radial
from covbody.errors import InputError, NumericError
from covbody.oracle import rng_for, sphere_quadrature
from covbody.polytope import Polytope, lifted_system
from covbody.simplexlp import LPStack, solve_lp_max
from helpers import random_polygon, random_polytope, scalar_lp_max


def test_box_lp():
    # maximize x + y over [0,1]^2
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    b = np.array([1.0, 0, 1, 0])
    res = solve_lp_max(np.array([1.0, 1.0]), A, b, np.array([0.5, 0.5]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)


def test_degenerate_vertex():
    # three constraints meet at the optimum (1, 1)
    A = np.array([[1.0, 0], [0, 1], [1, 1], [-1, 0], [0, -1]])
    b = np.array([1.0, 1, 2, 0, 0])
    res = solve_lp_max(np.array([1.0, 1.0]), A, b, np.array([0.2, 0.2]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_unbounded():
    A = np.array([[-1.0, 0], [0, -1]])
    b = np.array([0.0, 0])
    res = solve_lp_max(np.array([1.0, 0]), A, b, np.array([1.0, 1.0]))
    assert res.status == "unbounded"


def test_shape_validation():
    with pytest.raises(InputError):
        solve_lp_max(np.ones(3), np.eye(2), np.ones(2), np.zeros(2))


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, 14))
        A = rng.normal(size=(m, n))
        # keep the feasible region bounded and give 0 interior slack
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([rng.uniform(0.1, 1.0, size=m), np.full(2 * n, 2.0)])
        c = rng.normal(size=n)
        res = solve_lp_max(c, A, b, np.zeros(n))
        ref = scipy.optimize.linprog(-c, A_ub=A, b_ub=b, bounds=(None, None))
        assert res.status == "optimal"
        assert ref.status == 0
        assert res.value == pytest.approx(-ref.fun, abs=1e-7)
        assert (A @ res.x <= b + 1e-8).all()


# -- stacks: every LP of a stack is the reference solver's, bit for bit -----


def diffbody_lps(K: Polytope, blocks: np.ndarray):
    """The difference-body LPs of a stack of directions (S, m, n): maximize
    r subject to A y - r c <= b (`lifted_system`), as (c, A, b, x0) with A
    a stack and the rest shared."""
    A = np.array([np.hstack([a, -c[:, None]]) for a, _, c in
                  (lifted_system(K, bl) for bl in blocks)])
    b = lifted_system(K, blocks[0])[1]
    objective = np.eye(K.dim + 1)[-1]
    return objective, A, b, np.append(K.interior_point, 0.0)


def edge_directions(K: Polytope, m: int) -> np.ndarray:
    """Directions whose blocks run along K's edges, up to m of them spread
    over the blocks: the rays on which Bland's ties occur."""
    V = K.vertices
    edges = [V[j] - V[i] for i in range(len(V)) for j in range(len(V)) if i != j]
    out = []
    for k in range(len(edges)):
        bl = np.array([edges[(k + 3 * i) % len(edges)] for i in range(m)])
        out.append(bl / np.linalg.norm(bl))
    return np.array(out)


def assert_same_as_reference(res, c, A, b, x0):
    for i in range(len(A)):
        ref = scalar_lp_max(c if c.ndim == 1 else c[i], A[i], b if b.ndim == 1 else b[i],
                            x0 if x0.ndim == 1 else x0[i])
        assert res.status[i] == ref.status
        if ref.status == "optimal":
            np.testing.assert_array_equal(res.x[i], ref.x)
            assert res.value[i] == ref.value
        else:
            assert res.value[i] == np.inf and np.isnan(res.x[i]).all()


STACK_BODIES = {
    "triangle": Polytope.named("simplex", 2),
    "square": Polytope.named("cube", 2),
    "hexagon": random_polygon(np.random.default_rng(4), 6),
    "cube": Polytope.named("cube", 3),
    "simplex3": Polytope.named("simplex", 3),
    "polytope3": random_polytope(np.random.default_rng(5), 3, 8),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(STACK_BODIES))
def test_each_lp_of_a_stack_is_the_reference_solution(name, m):
    K = STACK_BODIES[name]
    rng = rng_for(11, f"lp-stack-{name}-{m}")
    blocks = rng.standard_normal((12, m, K.dim))
    blocks /= np.linalg.norm(blocks.reshape(12, -1), axis=1)[:, None, None]
    if name in ("cube", "simplex3", "square", "triangle"):
        blocks = np.concatenate([blocks, edge_directions(K, m)])
    c, A, b, x0 = diffbody_lps(K, blocks)
    res = solve_lp_max(c, A, b, x0)
    assert isinstance(res, LPStack) and (res.status == "optimal").all()
    assert_same_as_reference(res, c, A, b, x0)


def test_random_stacks_with_per_lp_vectors():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        N, m = 30, 9
        A = np.concatenate([rng.normal(size=(N, m, n)),
                            np.broadcast_to(np.vstack([np.eye(n), -np.eye(n)]), (N, 2 * n, n))],
                           axis=1)
        b = np.concatenate([rng.uniform(0.1, 1.0, (N, m)), np.full((N, 2 * n), 2.0)], axis=1)
        c = rng.normal(size=(N, n))
        x0 = rng.uniform(-0.01, 0.01, (N, n))
        res = solve_lp_max(c, A, b, x0)
        assert (res.status == "optimal").all()
        assert_same_as_reference(res, c, A, b, x0)
        # the shared forms of c, b and x0 give the per-LP rows' bits
        shared = solve_lp_max(c[0], A, b[0], x0[0])
        per_lp = solve_lp_max(np.tile(c[0], (N, 1)), A, np.tile(b[0], (N, 1)),
                              np.tile(x0[0], (N, 1)))
        np.testing.assert_array_equal(shared.x, per_lp.x)
        np.testing.assert_array_equal(shared.value, per_lp.value)


def test_an_unbounded_lp_is_flagged_alone():
    K = STACK_BODIES["hexagon"]
    blocks = sphere_quadrature(4, count=8, seed=2).nodes.reshape(8, 2, 2)
    c, A, b, x0 = diffbody_lps(K, blocks)
    # the positive orthant with its start at (1, ..., 1): max r unbounded
    n = A.shape[2]
    loose = np.zeros_like(A[0])
    loose[:n] = -np.eye(n)
    b_loose = np.zeros(len(b))
    b_loose[n:] = 1.0
    mixed = np.insert(A, 3, loose, axis=0)
    bs = np.insert(np.tile(b, (len(A), 1)), 3, b_loose, axis=0)
    x0s = np.insert(np.tile(x0, (len(A), 1)), 3, np.ones(n), axis=0)
    res = solve_lp_max(c, mixed, bs, x0s)
    assert res.status.tolist() == ["optimal"] * 3 + ["unbounded"] + ["optimal"] * 5
    alone = solve_lp_max(c, A, b, x0)
    keep = np.arange(len(mixed)) != 3
    np.testing.assert_array_equal(res.x[keep], alone.x)
    np.testing.assert_array_equal(res.value[keep], alone.value)
    assert res.value[3] == np.inf and np.isnan(res.x[3]).all()
    assert_same_as_reference(res, c, mixed, bs, x0s)


def test_an_infeasible_start_raises():
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    b = np.array([1.0, 0, 1, 0])
    with pytest.raises(InputError, match="infeasible"):
        solve_lp_max(np.ones(2), A, b, np.array([2.0, 0.5]))
    x0 = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, -1.0]])
    with pytest.raises(InputError, match="LP 2 of 3"):
        solve_lp_max(np.ones(2), np.stack([A] * 3), b, x0)


def test_the_chunk_size_changes_no_bit(monkeypatch):
    K = STACK_BODIES["polytope3"]
    blocks = sphere_quadrature(6, count=40, seed=4).nodes.reshape(40, 2, 3)
    c, A, b, x0 = diffbody_lps(K, blocks)
    whole = solve_lp_max(c, A, b, x0)
    tableau = (A.shape[1] + 1) * (2 * A.shape[2] + A.shape[1] + 1)
    for budget in (1, 3 * tableau, 7 * tableau + 5):
        monkeypatch.setattr(simplexlp, "DEDUPE_BLOCK", budget)
        part = solve_lp_max(c, A, b, x0)
        np.testing.assert_array_equal(part.status, whole.status)
        np.testing.assert_array_equal(part.x, whole.x)
        np.testing.assert_array_equal(part.value, whole.value)


def test_the_iteration_limit_names_the_first_lp(monkeypatch):
    K = STACK_BODIES["cube"]
    blocks = edge_directions(K, 2)[:8]
    c, A, b, x0 = diffbody_lps(K, blocks)
    mixed = False
    for limit in range(1, 12):
        monkeypatch.setattr(simplexlp, "MAX_ITER", limit)
        stuck = []
        for a in A:
            try:
                scalar_lp_max(c, a, b, x0)
                stuck.append(False)
            except NumericError:
                stuck.append(True)
        res = solve_lp_max(c, A, b, x0)
        np.testing.assert_array_equal(res.status == "limit", stuck)
        if any(stuck) and not all(stuck):
            mixed = True
            first = stuck.index(True)
            with pytest.raises(NumericError, match="iteration limit"):
                solve_lp_max(c, A[first], b, x0)
            with pytest.raises(NumericError, match=rf"LP {first} of 8 did not converge "
                                                   r"\(limit\), direction \["):
                diffbody_radial(K, blocks)
    assert mixed
