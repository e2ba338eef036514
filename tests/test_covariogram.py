"""Covariogram, difference body and roof function."""

import contextlib
import io
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from covbody import _quad, cli, measure, polytope
from covbody.covariogram import (CovRay, MDirection, as_mdirection, covariogram,
                                 covariogram_slice, diffbody_polytope,
                                 diffbody_radial, diffbody_star, roof)
from covbody.measure import GaussianDensity, WeightedMeasure
from covbody.oracle import mc_measure, rng_for, sphere_quadrature
from covbody.polytope import Polytope, StarBodyFn, intersect_translates
from helpers import gauss_box_mass, grid_covariogram, random_polygon, random_polytope

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)
LEB2 = WeightedMeasure.lebesgue(2)


def search_diffbody_radial(K: Polytope, blocks: np.ndarray,
                           coarse: int = 30, rounds: int = 12) -> float:
    """Independent oracle: maximize min_i rho_{K-y}(-theta_i) over y in K by
    grid search with box refinement around the incumbent."""
    blocks = np.asarray(blocks, dtype=float)

    def r_of(Y: np.ndarray) -> np.ndarray:
        inside = (Y @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
        out = np.full(len(Y), -np.inf)
        vals = np.full(len(Y), np.inf)
        for th in blocks:
            den = K.A @ (-th)
            mask = den > 1e-15
            num = K.b[None, mask] - Y @ K.A[mask].T
            vals = np.minimum(vals, (num / den[mask][None, :]).min(axis=1))
        out[inside] = vals[inside]
        return out

    lo, hi = K.bounding_box()
    lo, hi = lo.astype(float), hi.astype(float)
    best_y, best = None, -np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[j], hi[j], coarse) for j in range(K.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        Y = np.stack([m.reshape(-1) for m in mesh], axis=1)
        vals = r_of(Y)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_y = float(vals[k]), Y[k]
        span = (hi - lo) * 0.25
        lo, hi = best_y - span / 2, best_y + span / 2
    return best


class TestCovariogram:
    def test_value_at_origin_is_mass(self):
        assert covariogram(SQUARE, LEB2, [(0.0, 0.0)]) == pytest.approx(1.0)
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        assert covariogram(TRIANGLE, mu, [(0.0, 0.0)]) == pytest.approx(
            mu.mass(TRIANGLE), rel=1e-9)

    def test_square_product_formula(self):
        assert covariogram(SQUARE, LEB2, [(0.5, 0.0)]) == pytest.approx(0.5)
        # g(x) = (1-|x1|)(1-|x2|) on the square
        rng = rng_for(42, "square-product")
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, size=2)
            want = (1 - abs(x[0])) * (1 - abs(x[1]))
            assert covariogram(SQUARE, LEB2, [x]) == pytest.approx(
                want, abs=1e-9)

    def test_second_order_square(self):
        val = covariogram(SQUARE, LEB2, [(0.5, 0.0), (0.0, 0.5)])
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_outside_support_is_zero(self):
        assert covariogram(TRIANGLE, LEB2, [(2.0, 2.0)]) == 0.0

    def test_symmetry_first_order(self):
        rng = rng_for(42, "cov-symmetry")
        for _ in range(25):
            x = rng.uniform(-0.8, 0.8, size=2)
            assert covariogram(TRIANGLE, LEB2, [x]) == pytest.approx(
                covariogram(TRIANGLE, LEB2, [-x]), abs=1e-9)

    def test_against_grid_oracle(self):
        for shifts in ([(0.3, 0.1)], [(0.25, 0.0), (0.0, 0.4)]):
            got = covariogram(TRIANGLE, LEB2, shifts)
            ref = grid_covariogram(TRIANGLE, LEB2, shifts, level=400)
            assert got == pytest.approx(ref, abs=2e-3)

    def test_gaussian_square_exact_product(self):
        # box-box intersection keeps the erf product closed form
        rng = rng_for(42, "cov-erf")
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        for _ in range(20):
            x = rng.uniform(-0.6, 0.6, size=2)
            got = covariogram(SQUARE, mu, [x])
            lo = np.maximum(0.0, x)
            hi = np.minimum(1.0, 1.0 + x)
            assert got == pytest.approx(gauss_box_mass(1.0, lo, hi), abs=1e-12)

    def test_against_mc_oracle(self):
        rng = rng_for(42, "cov-mc")
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        for case in range(6):
            x = rng.uniform(-0.4, 0.4, size=2)
            got = covariogram(TRIANGLE, mu, [x])
            lo, hi = TRIANGLE.bounding_box()
            est, err = mc_measure(
                mu.density,
                lambda X: ((X @ TRIANGLE.A.T <= TRIANGLE.b + 1e-12).all(axis=1) &
                           ((X - x) @ TRIANGLE.A.T <= TRIANGLE.b + 1e-12).all(axis=1)),
                (lo, hi), n_samples=1_000_000, seed=42, tag=f"cov-mc-{case}")
            assert abs(got - est) <= 3.0 * err + 1e-9


class TestDiffbodyRadial:
    def test_square_axis(self):
        theta = MDirection(np.array([[1.0, 0.0]]))
        assert diffbody_radial(SQUARE, theta) == pytest.approx(1.0, abs=1e-9)

    def test_triangle_hexagon_vertex(self):
        d = np.array([[1.0, -1.0]]) / math.sqrt(2)
        assert diffbody_radial(TRIANGLE, MDirection(d)) == pytest.approx(
            math.sqrt(2), abs=1e-9)

    def test_second_order_square_diagonal(self):
        bar = np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2)
        got = diffbody_radial(SQUARE, MDirection(bar))
        # y = (1,1) allows exit length sqrt(2) in both block directions
        assert got == pytest.approx(math.sqrt(2), abs=1e-9)
        assert got == pytest.approx(search_diffbody_radial(SQUARE, bar),
                                    abs=1e-6)

    def test_lp_matches_search_oracle(self):
        rng = rng_for(42, "lp-oracle")
        for K in (SQUARE, TRIANGLE):
            for m in (1, 2):
                for _ in range(5):
                    bar = rng.standard_normal((m, 2))
                    bar /= np.linalg.norm(bar)
                    got = diffbody_radial(K, MDirection(bar))
                    ref = search_diffbody_radial(K, bar)
                    assert got == pytest.approx(ref, abs=1e-6)

    def test_lp_matches_hull_route(self):
        rng = rng_for(42, "lp-hull")
        for K, m in ((TRIANGLE, 1), (TRIANGLE, 2), (SQUARE, 2)):
            star_lp = diffbody_star(K, m, "lp")
            star_hull = diffbody_star(K, m, "hull")
            dirs = rng.standard_normal((40, 2 * m))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            a = star_lp.radial(dirs)
            b = star_hull.radial(dirs)
            assert np.max(np.abs(a - b)) < 1e-9

    def test_first_order_polytope_is_minkowski_difference(self):
        D = diffbody_polytope(TRIANGLE, 1)
        want = sorted(map(tuple, np.round(
            [[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]], 9)))
        got = sorted(map(tuple, np.round(D.vertices, 9)))
        assert got == want
        assert D.volume == pytest.approx(3.0, abs=1e-9)

    def test_support_property(self):
        # g > 0 strictly inside D^m(K), g = 0 strictly outside
        rng = rng_for(42, "support-property")
        for m in (1, 2):
            dirs = rng.standard_normal((50, 2 * m))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            for u in dirs:
                bar = u.reshape(m, 2)
                rho = diffbody_radial(TRIANGLE, MDirection(bar))
                inside = covariogram(TRIANGLE, LEB2, (1 - 1e-4) * rho * bar)
                outside = covariogram(TRIANGLE, LEB2, (1 + 1e-4) * rho * bar)
                assert inside > 0.0
                assert outside == 0.0


class TestConcavity:
    def test_power_concavity_constant_density(self):
        # g^(1/n) is concave along segments inside D(K)
        rng = rng_for(42, "cov-concavity")
        count = 0
        while count < 200:
            a, b = rng.uniform(-1.0, 1.0, size=(2, 2))
            ga = covariogram(TRIANGLE, LEB2, [a])
            gb = covariogram(TRIANGLE, LEB2, [b])
            if ga <= 0 or gb <= 0:
                continue
            gm = covariogram(TRIANGLE, LEB2, [(a + b) / 2])
            assert gm ** 0.5 >= (ga ** 0.5 + gb ** 0.5) / 2 - 1e-9
            count += 1

    def test_log_concavity_gaussian_density(self):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        rng = rng_for(42, "cov-log-concavity")
        count = 0
        while count < 100:
            a, b = rng.uniform(-0.9, 0.9, size=(2, 2))
            ga = covariogram(SQUARE, mu, [a])
            gb = covariogram(SQUARE, mu, [b])
            if ga <= 0 or gb <= 0:
                continue
            gm = covariogram(SQUARE, mu, [(a + b) / 2])
            assert math.log(gm) >= (math.log(ga) + math.log(gb)) / 2 - 1e-7
            count += 1


class TestSlice:
    def test_square_axis_slice(self):
        theta = MDirection(np.array([[1.0, 0.0]]))
        sl = covariogram_slice(SQUARE, LEB2, theta, grid=8)
        assert sl.rho_D == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(sl.node_values - (1.0 - sl.nodes))) < 1e-9
        assert sl.values(sl.rho_D * (1 + 1e-6)) == 0.0

    def test_triangle_sqrt_affine(self):
        rng = rng_for(42, "tri-affine")
        u = rng.standard_normal(2)
        theta = MDirection.normalized(u[None, :])
        sl = covariogram_slice(TRIANGLE, LEB2, theta, grid=16)
        want = math.sqrt(0.5) * (1.0 - sl.nodes / sl.rho_D)
        assert np.max(np.abs(np.sqrt(sl.node_values) - want)) < 1e-9

    def test_simplex_affinity_all_orders(self):
        # g^(1/n)(r theta) = vol(K)^(1/n) (1 - r / rho_D) on simplices
        for dim in (2, 3):
            K = Polytope.named("simplex", dim)
            mu = WeightedMeasure.lebesgue(dim)
            vol = K.volume
            rng = rng_for(42, f"affinity-{dim}")
            for m in (1, 2):
                for _ in range(5):
                    bar = rng.standard_normal((m, dim))
                    theta = MDirection.normalized(bar)
                    sl = covariogram_slice(K, mu, theta, grid=12)
                    lhs = sl.node_values ** (1.0 / dim)
                    rhs = vol ** (1.0 / dim) * (1.0 - sl.nodes / sl.rho_D)
                    assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_monotone_nonincreasing(self):
        theta = MDirection.normalized(np.array([[0.7, 0.3], [-0.2, 0.5]]))
        sl = covariogram_slice(TRIANGLE, LEB2, theta, grid=24)
        assert (np.diff(sl.node_values) <= 1e-12).all()


class TestRoof:
    def test_center_and_boundary(self):
        L = Polytope.from_vertices([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        assert roof(L, [0.0, 0.0]) == 1.0
        assert roof(L, [0.5, 0.0]) == pytest.approx(0.5, abs=1e-12)
        assert roof(L, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert roof(L, [3.0, 0.0]) == 0.0

    def test_star_body_input(self):
        S = StarBodyFn.ball(2, 2.0)
        assert roof(S, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_as_mdirection_shapes():
    md = as_mdirection(np.array([[1.0, 0.0]]))
    assert md.m == 1 and md.n == 2
    md2 = as_mdirection(np.eye(2) / math.sqrt(2))
    assert md2.m == 2
    assert np.allclose(md2.flat, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


# -- a stack of shifts in one call ---------------------------------------------


def batch_body(kind: str, seed: int) -> Polytope:
    rng = np.random.default_rng(seed)
    if kind == "polygon":
        return random_polygon(rng, int(rng.integers(3, 9)))
    if kind == "polytope3":
        return random_polytope(rng, 3, int(rng.integers(5, 11)))
    return Polytope.named(kind, int(rng.integers(2, 4)))


def batch_measure(density: str, dim: int) -> WeightedMeasure:
    if density == "gaussian":
        return WeightedMeasure(GaussianDensity(dim, 0.8))
    return WeightedMeasure.lebesgue(dim)


# fractions of rho_D along each ray: from 0 to translates that only touch
# (1) and past them
RAY_FRACTIONS = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 0.999, 1.0, 1.05])


def ray_shifts(K: Polytope, seed: int, m: int, rays: int = 3):
    """The m-tuples r thetabar along `rays` random rays, at RAY_FRACTIONS of
    each ray's rho_D, as one stack (S, m, n), and the fraction of each."""
    rng = np.random.default_rng(seed)
    blocks = np.array([MDirection.normalized(rng.standard_normal((m, K.dim))).blocks
                       for _ in range(rays)])
    rho = np.array([diffbody_radial(K, b) for b in blocks])
    shifts = (rho[:, None] * RAY_FRACTIONS)[:, :, None, None] * blocks[:, None]
    return shifts.reshape(-1, m, K.dim), np.tile(RAY_FRACTIONS, rays)


BATCH_CASES = st.tuples(st.sampled_from(["polygon", "polytope3", "cube", "cross"]),
                        st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
                        st.sampled_from(["lebesgue", "gaussian"]))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(BATCH_CASES)
@example(("cube", 1, 2, "lebesgue"))
@example(("cross", 3, 1, "gaussian"))
def test_a_stack_gives_every_shift_its_own_value(case):
    kind, seed, m, density = case
    K = batch_body(kind, seed)
    mu = batch_measure(density, K.dim)
    shifts, fraction = ray_shifts(K, seed, m)
    got = covariogram(K, mu, shifts)
    # bitwise the value of each shift alone, in any order
    np.testing.assert_array_equal(got, [covariogram(K, mu, x) for x in shifts])
    order = np.random.default_rng(seed).permutation(len(shifts))
    np.testing.assert_array_equal(covariogram(K, mu, shifts[order]), got[order])
    # the measure of the intersection Qhull builds from the same vertices
    ref = np.array([mu.mass(intersect_translates(K, x)) for x in shifts])
    assert np.abs(got - ref).max() <= 1e-13 * mu.mass(K)
    assert (got[fraction >= 1.0] == 0.0).all()


@pytest.mark.parametrize("kind, seed, m, density", [
    ("polygon", 4, 1, "lebesgue"), ("polygon", 5, 2, "gaussian"),
    ("polytope3", 6, 1, "lebesgue"), ("cross", 7, 2, "gaussian")])
def test_values_do_not_depend_on_the_chunks(monkeypatch, kind, seed, m, density):
    K = batch_body(kind, seed)
    mu = batch_measure(density, K.dim)
    shifts, _ = ray_shifts(K, seed, m)
    whole = covariogram(K, mu, shifts)
    table = K.lifted_table(m + 1)
    for budget in (1, len(table.factors[0]) * table.shape[0] * 3):
        # one row per dedupe block and one shift per chunk, then a few
        for module in (polytope, measure):
            monkeypatch.setattr(module, "DEDUPE_BLOCK", budget)
        np.testing.assert_array_equal(covariogram(K, mu, shifts), whole)


class TestDegenerateStacks:
    def test_non_simple_slice_vertices(self):
        # axis and diagonal shifts of the cube and the octahedron: four or
        # more facets meet at vertices of the intersection
        steps = [-0.5, 0.0, 0.25, 0.5]
        shifts = np.array([[x] for x in itertools.product(steps, repeat=3)])
        cube = Polytope.named("cube", 3)
        got = covariogram(cube, WeightedMeasure.lebesgue(3), shifts)
        want = np.prod(1.0 - np.abs(shifts[:, 0]), axis=1)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        octahedron = Polytope.named("cross", 3)
        got = covariogram(octahedron, WeightedMeasure.lebesgue(3), shifts)
        ref = [intersect_translates(octahedron, x).volume for x in shifts]
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)

    def test_touching_translates_give_zero(self):
        # the translates meet K in a facet, an edge or a vertex
        for K, x in ((Polytope.named("cube", 2), [[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]]),
                     (Polytope.named("cube", 3), [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                                                  [1.0, 1.0, 1.0], [0.0, -1.0, 0.3]]),
                     (Polytope.named("cross", 2), [[1.0, 1.0], [2.0, 0.0]])):
            shifts = np.array(x)[:, None, :]
            mu = WeightedMeasure.lebesgue(K.dim)
            assert (covariogram(K, mu, shifts) == 0.0).all()
            assert all(covariogram(K, mu, s) == 0.0 for s in shifts)

    def test_an_empty_stack_gives_no_values(self):
        for K in (Polytope.named("cube", 1), SQUARE, Polytope.named("cross", 3)):
            for mu in (WeightedMeasure.lebesgue(K.dim),
                       WeightedMeasure(GaussianDensity(K.dim, 1.0))):
                for m in (1, 2):
                    assert covariogram(K, mu, np.empty((0, m, K.dim))).shape == (0,)

    def test_reflex_sets_take_their_own_hull(self, monkeypatch):
        hulls = []

        def counting(points):
            hulls.append(len(points))
            return ConvexHull(points)

        monkeypatch.setattr(_quad, "ConvexHull", counting)
        square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        # an interior point, and a near-copy of a corner just inside the
        # hull: both turn the ring the wrong way
        sets = [square, square + [[0.5, 0.4]], square + [[1.0 - 1e-10, 1.0 - 3e-10]],
                [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]]
        pts = np.concatenate(sets)
        sizes = [len(p) for p in sets]
        simplices, counts = _quad.triangulate_vertices(2, pts, sizes)
        assert hulls == [5, 5]
        np.testing.assert_allclose(polytope._volume_of_points(2, pts, sizes),
                                   [1.0, 1.0, 1.0, 1.0], rtol=1e-15)
        ends = np.cumsum(counts)
        for k, p in enumerate(sets):
            alone, _ = _quad.triangulate_vertices(2, np.array(p), [len(p)])
            np.testing.assert_array_equal(simplices[ends[k] - counts[k]:ends[k]], alone)


def count_calls(code, fn):
    """Calls of a code object while fn runs, counted by the profiler hook
    (as the job benchmark's own test counts them), and fn's result."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


class TestOneEnumerationPerCall:
    """A job or ray evaluates all its shifts in one vertex enumeration: a
    return to one call per shift shows here as a count above 1."""

    CODE = polytope._intersection_vertices.__code__
    HEXAGON = {"type": "vrep", "vertices": [
        [math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]}

    @staticmethod
    def run(job):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(job)
        return code, out.getvalue()

    def test_a_polygon_variational_job_makes_one_call(self):
        job = {"command": "verify-variational", "body": self.HEXAGON,
               "params": {"directions": 24}}
        calls, (code, text) = count_calls(self.CODE, lambda: self.run(job))
        assert code == 0 and calls == 1
        assert self.run(job) == (code, text)  # a rerun is byte-identical

    @pytest.mark.parametrize("K, m", [
        (random_polygon(np.random.default_rng(3), 6), 1),
        (random_polygon(np.random.default_rng(4), 7), 2),
        (Polytope.named("cross", 3), 2)])
    def test_a_constant_density_ray_makes_one_call(self, K, m):
        theta = MDirection.normalized(np.random.default_rng(5).standard_normal((m, K.dim)))
        ray = CovRay(K, WeightedMeasure.lebesgue(K.dim), theta)
        calls, prof = count_calls(self.CODE, ray.profile)
        assert calls == 1
        assert len(ray._cache) == prof.pieces * (K.dim + 2)

