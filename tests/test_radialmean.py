"""Radial mean bodies: direct and Mellin routes, limits, and monotonicity."""

import math

import numpy as np
import pytest

import covbody.covariogram as covariogram_mod
import covbody.radialmean as radialmean_mod
from covbody import cli
from covbody.covariogram import (FIT_DEGREE, SPLIT_DEPTH, CovRay, MDirection,
                                 diffbody_radial)
from covbody.errors import InputError, NumericError
from covbody.measure import GaussianDensity, LinearPowerDensity, WeightedMeasure
from covbody.oracle import rng_for, sphere_quadrature
from covbody.polytope import Polytope
from covbody.projection import ProjectionBody
from covbody.radialmean import (rmb_limit_neg1, rmb_radial_direct,
                                rmb_radial_mellin, rmb_radial_p0)

from helpers import (polar_grid_radial_mean, qhull_breakpoints, quad_mellin,
                     random_polygon, random_polytope)

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)
# a body and direction whose hypograph has a cell vertex on an exit facet
# where more than n + 1 of its rows meet
EXIT_AT_DEGENERATE_VERTEX = (
    Polytope.from_vertices([
        [-0.7700233384, 0.4601131683, 0.7922509659],
        [0.2797944418, 1.1388747298, -0.238707106],
        [-1.09514296, -0.4326632899, -0.213929982],
        [0.4849147778, 0.142317166, 1.0848525913],
        [0.5931647724, -0.1585289887, -1.0272905017],
        [0.1251979582, -1.190213435, 0.0043718223]]),
    MDirection.normalized([[-0.8150341086, 0.572694639, -0.0879787032]]))
LEB2 = WeightedMeasure.lebesgue(2)
E1 = MDirection(np.array([[1.0, 0.0]]))


class TestFrozenValues:
    # on the square in direction e1 the ray length is 1 - x1, so the p-th
    # mean is ((p+1)^-1)^(1/p) in closed form
    def test_square_p1(self):
        assert rmb_radial_mellin(SQUARE, LEB2, 1.0, E1) == pytest.approx(
            0.5, abs=1e-9)

    def test_square_p2(self):
        assert rmb_radial_mellin(SQUARE, LEB2, 2.0, E1) == pytest.approx(
            1.0 / math.sqrt(3.0), abs=1e-9)

    def test_square_p_half(self):
        assert rmb_radial_mellin(SQUARE, LEB2, 0.5, E1) == pytest.approx(
            4.0 / 9.0, abs=1e-9)

    def test_square_p_minus_half(self):
        assert rmb_radial_mellin(SQUARE, LEB2, -0.5, E1) == pytest.approx(
            0.25, abs=1e-9)

    def test_square_second_order_diagonal(self):
        bar = MDirection(np.eye(2) / math.sqrt(2))
        # g(r bar) = (1 - r/sqrt(2))^2, so the p = 1 mean is sqrt(2)/3
        assert rmb_radial_mellin(SQUARE, LEB2, 1.0, bar) == pytest.approx(
            math.sqrt(2.0) / 3.0, abs=1e-9)

    def test_square_geometric_mean(self):
        got = rmb_radial_p0(SQUARE, LEB2, E1)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)


class TestRouteAgreement:
    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.0])
    def test_direct_vs_mellin_lebesgue(self, p):
        for K in (SQUARE, TRIANGLE):
            a = rmb_radial_mellin(K, LEB2, p, E1)
            b = rmb_radial_direct(K, LEB2, p, E1)
            assert b == pytest.approx(a, rel=1e-10)

    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.0])
    def test_direct_vs_mellin_gaussian(self, p):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        a = rmb_radial_mellin(TRIANGLE, mu, p, E1)
        b = rmb_radial_direct(TRIANGLE, mu, p, E1)
        assert b == pytest.approx(a, rel=1e-10)

    def test_second_order_triangle(self):
        bar = MDirection.normalized(rng_for(42, "rmb-m2").standard_normal((2, 2)))
        a = rmb_radial_mellin(TRIANGLE, LEB2, 2.0, bar)
        b = rmb_radial_direct(TRIANGLE, LEB2, 2.0, bar)
        assert b == pytest.approx(a, rel=1e-10)

    @pytest.mark.parametrize("p", [-0.5, 2.0])
    def test_polar_grid_reference(self, p):
        # the naive pointwise reference, at its own accuracy
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        want = rmb_radial_mellin(TRIANGLE, mu, p, E1)
        got = polar_grid_radial_mean(TRIANGLE, mu, p, E1)
        assert got == pytest.approx(want, rel=5e-3)

    def test_integration_by_parts_p1(self):
        # rho_{R_1} mu(K) = int_0^rho_D g dr = -int_0^rho_D g'(r) r dr
        ray = CovRay(TRIANGLE, LEB2, E1)
        r = np.linspace(0.0, ray.rho_D, 4001)
        g = np.array([ray.g(x) for x in r])
        lhs = rmb_radial_mellin(TRIANGLE, LEB2, 1.0, E1) * ray.mu_K
        assert np.trapezoid(g, r) == pytest.approx(lhs, rel=1e-6)
        dg = np.gradient(g, r)
        assert -np.trapezoid(dg * r, r) == pytest.approx(lhs, rel=0.01)


class TestExactDirectRoute:
    """The direct route integrates f^p exactly over the cells of K where
    one exit length is least, so it meets the Mellin route to rounding."""

    DENSITIES = {
        "constant": WeightedMeasure.lebesgue,
        "gaussian": lambda n: WeightedMeasure(GaussianDensity(n, 0.8)),
        "linear-power": lambda n: WeightedMeasure(
            LinearPowerDensity(np.full(n, 0.2), 1.5, 1.0)),
    }

    @staticmethod
    def _agree(K, mu, theta, ps=(-0.5, 0.5, 2.0)):
        ray = CovRay(K, mu, theta)
        h = ProjectionBody(K, mu, theta.m).support(theta)
        for p in ps:
            want = rmb_radial_mellin(K, mu, p, theta, ray=ray, h_pi=h)
            assert rmb_radial_direct(K, mu, p, theta) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("i", range(6))
    def test_random_polygons(self, i, m, density):
        rng = rng_for(42, f"direct-cells-polygon-{i}-{m}")
        K = random_polygon(rng, 3 + i)
        theta = MDirection.normalized(rng.standard_normal((m, 2)))
        self._agree(K, self.DENSITIES[density](2), theta)

    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("body, m", [("polytope6", 1), ("polytope6", 2),
                                         ("polytope8", 1), ("cube", 1), ("cube", 2),
                                         ("cross", 1), ("cross", 2)])
    def test_polytopes3(self, body, m, density):
        rng = rng_for(42, f"direct-cells-{body}-{m}")
        if body.startswith("polytope"):
            K = random_polytope(rng, 3, int(body[len("polytope"):]))
        else:
            K = Polytope.named(body, 3)
        theta = MDirection.normalized(rng.standard_normal((m, 3)))
        self._agree(K, self.DENSITIES[density](3), theta)

    def test_extreme_p(self):
        # near -1 the mean is set by the exit facets, at large p by the
        # longest chords; the t-rule gains |p|/2 nodes for the latter
        theta = MDirection.normalized([[1.0, 0.3]])
        for mu in (LEB2, WeightedMeasure(GaussianDensity(2, 1.0))):
            self._agree(TRIANGLE, mu, theta, ps=(-0.99, -0.9, 20.0, 200.0))

    def test_vertex_at_the_kernel_resolution_counts_as_exit(self):
        # a degenerate vertex of this body yields a cell vertex at a level
        # near 0 (5.6e-12 of the largest exit length when the kernel kept
        # an ill-conditioned basic solution there); left above 0, the cell
        # would miss the layer next to the exit facet, which carries a
        # share e^(p+1) of the mean: 5e-2 at p = -0.9
        K, theta = EXIT_AT_DEGENERATE_VERTEX
        self._agree(K, WeightedMeasure(GaussianDensity(3, 1.0122598304)), theta,
                    ps=(-0.9, -0.5, 0.5))

    def test_cell_vertices_on_an_exit_facet_are_well_conditioned(self):
        # where more than n + 1 hypograph rows meet, the kernel keeps the
        # basic solution of largest |det|, so a cell vertex on an exit
        # facet lies on it to rounding, far inside LEVEL_SNAP
        simplices, alpha, beta = radialmean_mod._exit_cells(*EXIT_AT_DEGENERATE_VERTEX)
        levels = np.abs(beta[:, None] - np.einsum("svk,sk->sv", simplices, alpha))
        top = levels.max()
        low = levels[levels < 1e-9 * top]
        assert len(low) > 0
        assert low.max() <= 1e-14 * top

    @pytest.mark.parametrize("K", [TRIANGLE, SQUARE], ids=["triangle", "square"])
    def test_equal_blocks_count_once(self, K):
        # theta_1 = theta_2 makes each exit length appear in both blocks;
        # counted twice, the mean would come out twice the Mellin value
        u = rng_for(42, "direct-ties").standard_normal(2)
        bar = MDirection.normalized(np.stack([u, u]))
        for mu in (LEB2, WeightedMeasure(GaussianDensity(2, 0.8))):
            self._agree(K, mu, bar, ps=(-0.5, 1.0, 2.0))

    @pytest.mark.parametrize("case", ["triangle", "hexagon-gaussian", "cross3-gaussian"])
    def test_p0_is_the_limit_of_small_p(self, case):
        # rho_p = exp(E log f + p Var(log f) / 2 + O(p^2)): the mean of the
        # logs at p = +-1e-4 meets log rho_0 to O(p^2)
        if case == "triangle":
            K, mu, theta = TRIANGLE, LEB2, E1
        elif case == "hexagon-gaussian":
            rng = rng_for(42, "direct-p0-hexagon")
            K, mu = random_polygon(rng, 6), WeightedMeasure(GaussianDensity(2, 0.8))
            theta = MDirection.normalized(rng.standard_normal((2, 2)))
        else:
            K, mu = Polytope.named("cross", 3), WeightedMeasure(GaussianDensity(3, 1.0))
            theta = MDirection.normalized(rng_for(42, "direct-p0-cross").standard_normal((1, 3)))
        logs = [math.log(rmb_radial_mellin(K, mu, p, theta)) for p in (-1e-4, 1e-4)]
        assert rmb_radial_p0(K, mu, theta) == pytest.approx(
            math.exp(0.5 * sum(logs)), rel=1e-8)

    def test_route_never_reads_the_covariogram(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the direct route evaluated the covariogram")

        monkeypatch.setattr(radialmean_mod, "CovRay", refuse)
        monkeypatch.setattr(covariogram_mod, "CovRay", refuse)
        monkeypatch.setattr(covariogram_mod, "covariogram", refuse)
        monkeypatch.setattr(covariogram_mod, "_integrate_points", refuse)
        mu = WeightedMeasure(GaussianDensity(3, 1.0))
        theta = MDirection.normalized(rng_for(42, "direct-independent").standard_normal((2, 3)))
        K = Polytope.named("cross", 3)
        assert 0.0 < rmb_radial_direct(K, mu, 0.5, theta) < diffbody_radial(K, theta)
        assert 0.0 < rmb_radial_p0(K, mu, theta) < diffbody_radial(K, theta)


class TestKinkedRays:
    """Random polygons: g has kinks along most rays. The Mellin route
    integrates between them and must match QUADPACK on the same pieces."""

    CASES = [(k, m) for k in range(4, 9) for m in (1, 2)] + [(6, 1), (7, 2)]
    GAUSS = WeightedMeasure(GaussianDensity(2, 1.0))

    @staticmethod
    def _case(i, k, m):
        rng = rng_for(42, f"mellin-kinks-{i}")
        K = random_polygon(rng, k)
        return K, MDirection.normalized(rng.standard_normal((m, 2)))

    def _check(self, i, mu):
        K, theta = self._case(i, *self.CASES[i])
        ray = CovRay(K, mu, theta)
        got = {p: rmb_radial_mellin(K, mu, p, theta, ray=ray)
               for p in (2.0, 3.0, 20.0, 200.0)}
        for p, value in got.items():
            assert 0.0 < value < ray.rho_D
            assert value == pytest.approx(quad_mellin(ray, p), rel=1e-12)
        return K, theta, got

    @pytest.mark.parametrize("i", range(12))
    def test_mellin_returns_a_value_at_every_p(self, i):
        K, theta, got = self._check(i, LEB2)
        for p in (2.0, 3.0):
            want = rmb_radial_direct(K, LEB2, p, theta)
            assert got[p] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("i", range(12))
    def test_breakpoints_match_qhull(self, i):
        K, theta = self._case(i, *self.CASES[i])
        ray = CovRay(K, LEB2, theta)
        got, want = ray.breakpoints(), qhull_breakpoints(ray)
        assert len(got) == len(want) > 0
        assert np.abs(got - want).max() <= 1e-12 * ray.rho_D

    @pytest.mark.parametrize("i", range(12))
    def test_gaussian_mellin_returns_a_value_at_every_p(self, i):
        self._check(i, self.GAUSS)

    @pytest.mark.parametrize("i", range(12))
    def test_narrow_gaussian_matches_quadpack(self, i):
        mu = WeightedMeasure(GaussianDensity(2, 0.5))
        K, theta = self._case(i, *self.CASES[i])
        ray = CovRay(K, mu, theta)
        for p in (0.5, 2.0, 20.0):
            got = rmb_radial_mellin(K, mu, p, theta, ray=ray)
            assert got == pytest.approx(quad_mellin(ray, p), rel=1e-6)

    @pytest.mark.parametrize("i", range(12))
    def test_narrower_gaussian_halves_long_pieces(self, i):
        # at sigma 0.3 the degree-FIT_DEGREE fit of some long pieces misses
        # its check node; their halves meet it, at every p
        mu = WeightedMeasure(GaussianDensity(2, 0.3))
        K, theta = self._case(i, *self.CASES[i])
        ray = CovRay(K, mu, theta)
        assert 0.0 < rmb_radial_mellin(K, mu, -0.5, theta, ray=ray) < ray.rho_D
        for p in (0.5, 2.0, 20.0):
            got = rmb_radial_mellin(K, mu, p, theta, ray=ray)
            assert got == pytest.approx(quad_mellin(ray, p), rel=1e-10)

    def test_every_p_shares_the_evaluations_of_the_fit(self):
        K, theta = self._case(0, *self.CASES[0])
        ray = CovRay(K, self.GAUSS, theta)
        for p in (-0.5, 0.5, 1.0, 2.0, 3.0):
            rmb_radial_mellin(K, self.GAUSS, p, theta, ray=ray)
        pieces = ray.profile().pieces
        assert pieces >= 2
        assert len(ray._cache) == (FIT_DEGREE + 2) * pieces

    def test_piece_gate_failure_names_its_rerun(self, monkeypatch):
        # without its breakpoints the first piece spans a kink of g, which
        # no smooth fit follows to its check node, however often halved
        monkeypatch.setattr(CovRay, "breakpoints", lambda self: np.empty(0))
        K, theta = self._case(0, *self.CASES[0])
        with pytest.raises(NumericError) as info:
            rmb_radial_mellin(K, self.GAUSS, 3.0, theta)
        msg = str(info.value)
        assert "p=3" in msg and "check node on r in [" in msg
        assert f"of piece 1 of 1 ({FIT_DEGREE + 2} evaluations per piece, " \
            f"halved {SPLIT_DEPTH} times)" in msg
        assert f"direction {np.round(theta.flat, 6).tolist()}" in msg


class TestIdentities:
    # vol_2(R_2 K) = (1/2) int_S rho^2 = (1/mu(K)) int g dx = vol(K) for
    # every density mu, by Fubini; the 64-direction midpoint rule on the
    # angle limits the agreement (kinks of rho over the sphere)
    DENSITIES = {"lebesgue": LEB2,
                 "gaussian": WeightedMeasure(GaussianDensity(2, 0.8)),
                 "linear-power": WeightedMeasure(LinearPowerDensity([0.3, 0.2], 1.0, 1.0))}
    # at least twice the largest gap over the three densities
    TOL = {"triangle": 4e-3, "hexagon": 2e-4}

    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("body", sorted(TOL))
    def test_second_mean_body_has_the_volume_of_K(self, body, density):
        K = TRIANGLE if body == "triangle" else random_polygon(np.random.default_rng(4), 6)
        mu = self.DENSITIES[density]
        quad = sphere_quadrature(2, count=64)
        rho = np.array([rmb_radial_mellin(K, mu, 2.0, MDirection(u[None]))
                        for u in quad.nodes])
        assert 0.5 * float(quad.weights @ rho ** 2) == pytest.approx(
            K.volume, rel=self.TOL[body])


class TestLimits:
    def test_p0_continuity(self):
        # the ray length is uniform on [0, 1], so rho_p = (1 + p)^(-1/p),
        # which tends to 1/e as p -> 0 with slope 1/(2e)
        v0 = rmb_radial_p0(SQUARE, LEB2, E1)
        for p in (-2e-3, 2e-3):
            got = rmb_radial_direct(SQUARE, LEB2, p, E1)
            assert got == pytest.approx((1.0 + p) ** (-1.0 / p), abs=1e-12)
            assert got - v0 == pytest.approx(p / (2.0 * math.e), rel=2e-3)

    def test_infinity_is_difference_body(self):
        bar = MDirection.normalized(rng_for(42, "rmb-inf").standard_normal((2, 2)))
        assert rmb_radial_direct(TRIANGLE, LEB2, math.inf, bar) == \
            diffbody_radial(TRIANGLE, bar)
        assert rmb_radial_mellin(TRIANGLE, LEB2, math.inf, bar) == \
            diffbody_radial(TRIANGLE, bar)

    def test_neg1_square_axis(self):
        rep = rmb_limit_neg1(SQUARE, LEB2, E1)
        assert rep.passed
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        # g(r e1) = 1 - r is linear, so (p+1)^(1/p) rho_{R_p} equals the
        # target at every p, not only in the limit
        assert max(row["rel_error"] for row in rep.rows) <= 1e-15

    def test_neg1_triangle_axis(self):
        rep = rmb_limit_neg1(TRIANGLE, LEB2, E1)
        assert rep.passed
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)

    def test_neg1_gaussian_second_order(self):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        bar = MDirection.normalized(rng_for(42, "cal").standard_normal((2, 2)))
        rep = rmb_limit_neg1(TRIANGLE, mu, bar)
        assert rep.passed
        assert rep.rows[-1]["rel_error"] < 0.01


class TestMonotonicity:
    def test_means_increase_in_p(self):
        # power means are nondecreasing in p and capped by the sup, rho_D
        rng = rng_for(42, "rmb-monotone")
        for K, m in ((TRIANGLE, 1), (SQUARE, 2)):
            bar = MDirection.normalized(rng.standard_normal((m, 2)))
            vals = [rmb_radial_mellin(K, LEB2, -0.5, bar),
                    rmb_radial_p0(K, LEB2, bar),
                    rmb_radial_mellin(K, LEB2, 1.0, bar),
                    rmb_radial_mellin(K, LEB2, 3.0, bar),
                    diffbody_radial(K, bar)]
            for lo, hi in zip(vals[:-1], vals[1:]):
                assert lo <= hi + 1e-9

    def test_scaling_covariance(self):
        big = Polytope.from_vertices(2.0 * TRIANGLE.vertices)
        for p in (-0.5, 1.0):
            a = rmb_radial_mellin(TRIANGLE, LEB2, p, E1)
            b = rmb_radial_mellin(big, WeightedMeasure.lebesgue(2), p, E1)
            assert b == pytest.approx(2.0 * a, rel=1e-9)


class TestValidation:
    def test_p_at_most_minus_one_rejected(self):
        for p in (-1.0, -2.0):
            with pytest.raises(InputError):
                rmb_radial_direct(SQUARE, LEB2, p, E1)
            with pytest.raises(InputError):
                rmb_radial_mellin(SQUARE, LEB2, p, E1)

    def test_p_zero_has_no_mellin_form(self):
        with pytest.raises(InputError):
            rmb_radial_mellin(SQUARE, LEB2, 0.0, E1)

    # the method and the block count m are chosen where a job names them;
    # the routes take neither, so the rmb command refuses them
    RMB_JOB = {"command": "rmb", "body": {"type": "named", "name": "cube", "dim": 2}}

    def test_unknown_method_rejected(self, capsys):
        params = {"p": 1.0, "direction": [1.0, 0.0], "method": "quadrature"}
        assert cli.run({**self.RMB_JOB, "params": params}) == 2
        assert "params.method" in capsys.readouterr().err

    def test_block_count_mismatch(self, capsys):
        params = {"p": 1.0, "m": 2, "direction": [1.0, 0.0]}
        assert cli.run({**self.RMB_JOB, "params": params}) == 2
        assert "params.direction" in capsys.readouterr().err

    def test_dispatch_small_p_to_geometric_mean(self):
        assert rmb_radial_direct(SQUARE, LEB2, 5e-4, E1) == rmb_radial_p0(SQUARE, LEB2, E1)

    def test_bad_p_seq_rejected(self):
        with pytest.raises(InputError):
            rmb_limit_neg1(SQUARE, LEB2, E1, p_seq=(-0.5, 0.5))
