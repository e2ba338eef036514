"""Radial mean bodies: direct and Mellin routes, limits, and monotonicity."""

import math

import numpy as np
import pytest

from covbody.covariogram import (FIT_DEGREE, SPLIT_DEPTH, CovRay, MDirection,
                                 diffbody_radial)
from covbody.errors import InputError, NumericError
from covbody.measure import GaussianDensity, LinearPowerDensity, WeightedMeasure
from covbody.oracle import rng_for, sphere_quadrature
from covbody.polytope import Polytope
from covbody.radialmean import (RadialMeanBody, rmb_limit_neg1, rmb_radial_direct,
                                rmb_radial_mellin, rmb_radial_p0)

from helpers import qhull_breakpoints, quad_mellin, random_polygon

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)
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
        assert got == pytest.approx(math.exp(-1.0), rel=1e-5)


class TestRouteAgreement:
    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.0])
    def test_direct_vs_mellin_lebesgue(self, p):
        for K in (SQUARE, TRIANGLE):
            a = rmb_radial_mellin(K, LEB2, p, E1)
            b = rmb_radial_direct(K, LEB2, p, E1)
            assert b == pytest.approx(a, rel=5e-3)

    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.0])
    def test_direct_vs_mellin_gaussian(self, p):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        a = rmb_radial_mellin(TRIANGLE, mu, p, E1)
        b = rmb_radial_direct(TRIANGLE, mu, p, E1)
        assert b == pytest.approx(a, rel=5e-3)

    def test_second_order_triangle(self):
        bar = MDirection.normalized(rng_for(42, "rmb-m2").standard_normal((2, 2)))
        a = rmb_radial_mellin(TRIANGLE, LEB2, 2.0, bar)
        b = rmb_radial_direct(TRIANGLE, LEB2, 2.0, bar)
        assert b == pytest.approx(a, rel=5e-3)

    def test_integration_by_parts_p1(self):
        # rho_{R_1} mu(K) = int_0^rho_D g dr = -int_0^rho_D g'(r) r dr
        ray = CovRay(TRIANGLE, LEB2, E1)
        r = np.linspace(0.0, ray.rho_D, 4001)
        g = np.array([ray.g(x) for x in r])
        lhs = rmb_radial_mellin(TRIANGLE, LEB2, 1.0, E1) * ray.mu_K
        assert np.trapezoid(g, r) == pytest.approx(lhs, rel=1e-6)
        dg = np.gradient(g, r)
        assert -np.trapezoid(dg * r, r) == pytest.approx(lhs, rel=0.01)


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
            assert got[p] == pytest.approx(want, rel=1e-4)

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
        v0 = rmb_radial_p0(SQUARE, LEB2, E1)
        below = rmb_radial_direct(SQUARE, LEB2, -2e-3, E1)
        above = rmb_radial_direct(SQUARE, LEB2, 2e-3, E1)
        assert below == pytest.approx(v0, rel=5e-3)
        assert above == pytest.approx(v0, rel=5e-3)

    def test_infinity_is_difference_body(self):
        bar = MDirection.normalized(rng_for(42, "rmb-inf").standard_normal((2, 2)))
        assert rmb_radial_direct(TRIANGLE, LEB2, math.inf, bar) == \
            diffbody_radial(TRIANGLE, bar)
        body = RadialMeanBody(TRIANGLE, LEB2, math.inf, 2)
        assert body.radial(bar) == diffbody_radial(TRIANGLE, bar)

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
            with pytest.raises(InputError):
                RadialMeanBody(SQUARE, LEB2, p, 1)

    def test_p_zero_has_no_mellin_form(self):
        with pytest.raises(InputError):
            rmb_radial_mellin(SQUARE, LEB2, 0.0, E1)

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            RadialMeanBody(SQUARE, LEB2, 1.0, 1, method="quadrature")

    def test_block_count_mismatch(self):
        body = RadialMeanBody(SQUARE, LEB2, 1.0, 2)
        with pytest.raises(InputError):
            body.radial(E1)

    def test_dispatch_small_p_to_geometric_mean(self):
        body = RadialMeanBody(SQUARE, LEB2, 5e-4, 1)
        assert body.radial(E1) == rmb_radial_p0(SQUARE, LEB2, E1)

    def test_bad_p_seq_rejected(self):
        with pytest.raises(InputError):
            rmb_limit_neg1(SQUARE, LEB2, E1, p_seq=(-0.5, 0.5))
