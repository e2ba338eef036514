"""The ray profile of the covariogram: breakpoints, the piecewise fit (exact
under a constant density) and its gates, and the paper's identities
checked on it as properties over random bodies."""

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covbody.covariogram as covariogram_mod
from covbody.covariogram import CovRay, MDirection, covariogram
from covbody.errors import NumericError
from covbody.measure import GaussianDensity, LinearPowerDensity, WeightedMeasure
from covbody.polytope import Polytope
from covbody.projection import ProjectionBody
from covbody.radialmean import rmb_radial_mellin
from covbody.verify import ChainSpec, chain_check

from helpers import qhull_breakpoints, random_polygon, random_polytope

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


def _simplicial_3polytope(rng: np.random.Generator) -> Polytope:
    """Hull of 5 to 7 random points on a sphere: simplicial, all extreme."""
    while True:
        pts = rng.standard_normal((int(rng.integers(5, 8)), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        K = Polytope.from_vertices(pts * rng.uniform(0.7, 1.3))
        if K.volume > 0.05 and len(K.vertices) == len(pts):
            return K


@st.composite
def bodies_and_rays(draw):
    """(K, theta): a random 4- to 8-gon, a random simplicial 3-polytope,
    the octahedron or the cube, with m in {1, 2} and a random direction."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("polygon", "polytope3", "cross3", "cube3")))
    if kind == "polygon":
        K = random_polygon(rng, int(rng.integers(4, 9)))
    elif kind == "polytope3":
        K = _simplicial_3polytope(rng)
    else:
        K = Polytope.named(kind[:-1], 3)
    m = draw(st.sampled_from((1, 2)))
    return K, MDirection.normalized(rng.standard_normal((m, K.dim)))


def _measure(name: str, n: int) -> WeightedMeasure:
    if name == "gaussian":
        return WeightedMeasure(GaussianDensity(n, 1.0))
    if name == "linear-power":
        return WeightedMeasure(LinearPowerDensity([0.3, 0.2, 0.1][:n], 1.0, 1.0))
    return WeightedMeasure.lebesgue(n)


@PROPERTY
@given(bodies_and_rays(), st.sampled_from(("lebesgue", "gaussian")))
def test_first_piece_is_mass_and_projection_support(case, density):
    # g(0) = mu(K) and -g'(0+) = h_Pi hold for every density
    K, theta = case
    mu = _measure(density, K.dim)
    ray = CovRay(K, mu, theta)
    prof = ray.profile()
    h = ProjectionBody(K, mu, theta.m).support(theta)
    slope = 2.0 / prof.breaks[1] * chebval(-1.0, chebder(prof.coeffs[0]))
    assert float(prof(0.0)[0]) == pytest.approx(ray.mu_K, rel=1e-9)
    assert -slope == pytest.approx(h, rel=1e-9)


@PROPERTY
@given(bodies_and_rays())
def test_breakpoints_are_the_vertex_heights_qhull_finds(case):
    # a missed breakpoint fails a check node, but a spurious one only costs
    # n + 2 evaluations; an independent route catches both
    K, theta = case
    ray = CovRay(K, WeightedMeasure.lebesgue(K.dim), theta)
    got, want = ray.breakpoints(), qhull_breakpoints(ray)
    assert len(got) == len(want)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * ray.rho_D


@pytest.mark.parametrize("m", (1, 2))
def test_breakpoints_of_a_12_point_polytope_match_qhull(m):
    # 16 facets: 48 lifted rows at m = 2, whose table holds ~15 000
    # regular 3-row subsets
    rng = np.random.default_rng(12)
    K = random_polytope(rng, 3, 12)
    mu = WeightedMeasure.lebesgue(3)
    for _ in range(3):
        ray = CovRay(K, mu, MDirection.normalized(rng.standard_normal((m, 3))))
        got, want = ray.breakpoints(), qhull_breakpoints(ray)
        assert len(got) == len(want) > 0
        assert np.abs(got - want).max() <= 1e-12 * ray.rho_D


@PROPERTY
@given(bodies_and_rays(), st.floats(0.01, 0.99))
def test_profile_matches_direct_evaluation(case, frac):
    K, theta = case
    mu = WeightedMeasure.lebesgue(K.dim)
    ray = CovRay(K, mu, theta)
    r = frac * ray.rho_D
    want = covariogram(K, mu, r * theta.blocks)
    assert float(ray.profile()(r)[0]) == pytest.approx(want, abs=1e-12 * K.volume)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(bodies_and_rays(), st.sampled_from(("gaussian", "linear-power")),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_profile_matches_covariogram_under_smooth_densities(case, density, fracs):
    # the FIT_DEGREE fit between breakpoints is no exact polynomial, but
    # matches g far below the check-node gate
    K, theta = case
    mu = _measure(density, K.dim)
    ray = CovRay(K, mu, theta)
    r = np.array(fracs) * ray.rho_D
    want = [covariogram(K, mu, x * theta.blocks) for x in r]
    assert np.abs(ray.profile()(r) - want).max() <= 1e-10 * ray.mu_K


@PROPERTY
@given(bodies_and_rays())
def test_covariogram_vanishes_beyond_the_difference_body(case):
    # and so does the ray's fit, which no consumer may extrapolate there
    K, theta = case
    ray = CovRay(K, WeightedMeasure.lebesgue(K.dim), theta)
    beyond = ray.rho_D * np.array([1.0 + 1e-6, 1.5, 10.0])
    assert covariogram(K, ray.mu, beyond[0] * theta.blocks) == 0.0
    assert (ray.profile()(beyond) == 0.0).all()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_simplex_chain_collapses_to_equality(n, m, seed):
    K = Polytope.named("simplex", n)
    spec = ChainSpec(branch="s", s=1.0 / n, p_list=(-0.5, 0.5, 1.0, 3.0), m=m,
                     directions=3, seed=seed)
    rep = chain_check(K, WeightedMeasure.lebesgue(n), spec)
    for row in rep.rows:
        terms = [v for k, v in row.items() if k != "direction"]
        assert (max(terms) - min(terms)) / max(terms) <= 1e-10


class TestBreakpoints:
    def test_simplex_and_cube_rays_have_no_breakpoints(self):
        # g(r theta) = vol (1 - r/rho_D)^n on simplices, a product of
        # affine widths on the cube: one polynomial on all of [0, rho_D]
        theta = MDirection.normalized([[0.3, -0.5, 0.8]])
        for name in ("simplex", "cube"):
            ray = CovRay(Polytope.named(name, 3), WeightedMeasure.lebesgue(3), theta)
            assert len(ray.breakpoints()) == 0
            assert ray.profile().pieces == 1
            assert len(ray._cache) == 5  # n + 1 fit nodes and one check node

    def test_breakpoints_are_kinks_of_g(self):
        # across each breakpoint the one-sided fits differ; inside a piece
        # the fit reproduces g to rounding
        rng = np.random.default_rng(3)
        K = random_polygon(rng, 6)
        ray = CovRay(K, WeightedMeasure.lebesgue(2), MDirection.normalized([[1.0, 0.4]]))
        prof = ray.profile()
        assert prof.pieces >= 2
        for k in range(1, prof.pieces):
            assert not np.allclose(prof.coeffs[k - 1], prof.coeffs[k])
        r = np.linspace(0.0, ray.rho_D, 57)[1:-1]
        direct = [covariogram(K, ray.mu, x * ray.theta.blocks) for x in r]
        assert np.abs(prof(r) - direct).max() <= 1e-12 * K.volume

    def test_missed_breakpoint_fails_the_check_node(self, monkeypatch):
        rng = np.random.default_rng(3)
        K = random_polygon(rng, 6)
        monkeypatch.setattr(CovRay, "breakpoints", lambda self: np.empty(0))
        ray = CovRay(K, WeightedMeasure.lebesgue(2), MDirection.normalized([[1.0, 0.4]]))
        with pytest.raises(NumericError, match=r"piece 1 of 1 .*direction \["):
            ray.profile()

    def test_profile_is_cached(self):
        ray = CovRay(Polytope.named("cross", 2), WeightedMeasure.lebesgue(2),
                     MDirection.normalized([[0.2, 0.9]]))
        prof = ray.profile()
        evals = len(ray._cache)
        assert ray.profile() is prof
        assert len(ray._cache) == evals

    def test_gate_failure_names_direction_and_pieces(self, monkeypatch):
        monkeypatch.setattr(covariogram_mod, "FIT_GATE", -1.0)
        K = Polytope.named("simplex", 2)
        spec = ChainSpec(branch="s", s=0.5, p_list=(1.0, 2.0), directions=3)
        with pytest.raises(NumericError) as info:
            chain_check(K, WeightedMeasure.lebesgue(2), spec)
        msg = str(info.value)
        assert msg.startswith("chain direction 0 of 3: Mellin ray integral at p=2:")
        assert "piece 1 of 1" in msg and "direction [" in msg

    def test_first_piece_gate_rejects_a_wrong_projection_support(self):
        K = Polytope.named("simplex", 2)
        mu = WeightedMeasure.lebesgue(2)
        theta = MDirection.normalized([[0.2, 0.9]])
        h = ProjectionBody(K, mu, 1).support(theta)
        with pytest.raises(NumericError, match=r"at p=-0.5: .*-g'\(0\+\) = h"):
            rmb_radial_mellin(K, mu, -0.5, theta, h_pi=h * (1.0 + 1e-6))
