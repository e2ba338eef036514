"""Inequality harness: constants, chains, and volume-ratio checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from covbody.covariogram import CovRay, MDirection
from covbody.errors import InputError, NumericError
from covbody.measure import (ConcavityF, GaussianDensity, WeightedMeasure,
                             log_concavity, power_concavity)
from covbody.polytope import Polytope
from covbody.projection import ProjectionBody
from covbody.radialmean import rmb_radial_mellin
from covbody.verify import (ChainSpec, berwald_const_F, berwald_const_Q,
                            chain_check, direction_mesh, gen_binom,
                            general_zhang_check, rogers_shephard_check,
                            zhang_check)
from helpers import random_polygon

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)
LEB2 = WeightedMeasure.lebesgue(2)


class TestConstants:
    def test_gen_binom_integers(self):
        for a in range(1, 7):
            for k in range(1, 7):
                assert gen_binom(a, k) == pytest.approx(
                    math.comb(a + k, k), rel=1e-12)

    def test_gen_binom_domain(self):
        with pytest.raises(InputError):
            gen_binom(-1.0, 2.0)
        with pytest.raises(InputError):
            gen_binom(2.0, -1.5)
        # a + k <= -1 puts Gamma(a + k + 1) at a pole or below it, where
        # its sign flips; the magnitude alone would be silently wrong
        for a, k in ((-0.7, -0.7), (-0.5, -0.5)):
            with pytest.raises(InputError):
                gen_binom(a, k)

    @pytest.mark.parametrize("s", [1.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.0, 3.0])
    def test_power_constant_two_routes(self, s, p):
        # quadrature route must match the closed generalized binomial,
        # independently of the total mass
        want = gen_binom(1.0 / s, p) ** (1.0 / p)
        F = power_concavity(s)
        for muK in (0.5, 1.0, 2.7):
            assert berwald_const_F(F, p, muK) == pytest.approx(want, rel=1e-9)

    def test_log_constant_closed_form(self):
        Q = log_concavity()
        assert berwald_const_Q(Q, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert berwald_const_Q(Q, 2.0) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.5])
    def test_log_constant_generic_route(self, p):
        # renaming the log disables the closed form and exercises the
        # truncated numeric path, which must agree
        Q = ConcavityF(name="renamed", F=math.log, F_inv=math.exp,
                       F_prime=lambda t: 1.0 / t)
        want = math.exp(-math.lgamma(1.0 + p) / p)
        for muK in (0.5, 1.0, 3.0):
            assert berwald_const_Q(Q, p, muK) == pytest.approx(want, rel=1e-8)

    def test_constant_domain_errors(self):
        F = power_concavity(0.5)
        for bad_p in (-1.0, 0.0):
            with pytest.raises(InputError):
                berwald_const_F(F, bad_p, 1.0)
            with pytest.raises(InputError):
                berwald_const_Q(log_concavity(), bad_p)
        with pytest.raises(InputError):
            berwald_const_F(F, 1.0, 0.0)


class TestChain:
    def test_triangle_equality_every_direction(self):
        spec = ChainSpec(branch="s", p_list=(0.5, 1.0, 2.0), s=0.5,
                         directions=40)
        rep = chain_check(TRIANGLE, LEB2, spec)
        assert rep.passed
        labels = ["rho_D", "p=2", "p=1", "p=0.5", "endpoint"]
        for row in rep.rows:
            terms = [row[k] for k in labels]
            spread = (max(terms) - min(terms)) / max(terms)
            assert spread < 1e-6

    def test_square_passes_with_room(self):
        spec = ChainSpec(branch="s", p_list=(0.5, 1.0, 2.0), s=0.5,
                         directions=40)
        rep = chain_check(SQUARE, LEB2, spec)
        assert rep.passed
        assert rep.margin > 1e-3

    def test_square_axis_strict_margins(self):
        # each adjacent pair holds strictly at e1
        theta = MDirection(np.array([[1.0, 0.0]]))
        ray = CovRay(SQUARE, LEB2, theta)
        h = ProjectionBody(SQUARE, LEB2, 1).support(theta)
        terms = [ray.rho_D]
        for p in (2.0, 1.0, 0.5):
            c = gen_binom(2.0, p) ** (1.0 / p)
            terms.append(c * rmb_radial_mellin(SQUARE, LEB2, p, theta, ray=ray))
        terms.append(2.0 * ray.mu_K / h)
        for a, b in zip(terms[:-1], terms[1:]):
            assert (b - a) / b > 1e-3

    def test_gaussian_q_branch_second_order(self):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        spec = ChainSpec(branch="Q", p_list=(0.5, 1.0, 2.0),
                         F=log_concavity(), m=2, directions=8)
        rep = chain_check(TRIANGLE, mu, spec)
        assert rep.passed
        assert "rho_D" not in rep.rows[0]

    # The graded Mellin rule that smooth densities use misses its 1e-6 gate
    # at the kinks of g along the ray (exit 3 from the CLI). Per-piece
    # Gauss on the ray's breakpoints would mend it and flip this test.
    @pytest.mark.xfail(strict=True, raises=NumericError,
                       reason="graded Mellin rule at p = 3 on kinked rays")
    @pytest.mark.parametrize("seed", [4, 5])
    def test_gaussian_q_branch_on_random_hexagon(self, seed):
        K = random_polygon(np.random.default_rng(seed), 6)
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        spec = ChainSpec(branch="Q", p_list=(2.0, 3.0), F=log_concavity(),
                         directions=4)
        assert chain_check(K, mu, spec).passed

    def test_f_branch_matches_s_branch(self):
        # power F through the quadrature constants reproduces the s-branch
        s_rep = chain_check(TRIANGLE, LEB2, ChainSpec(
            branch="s", p_list=(1.0,), s=0.5, directions=6))
        f_rep = chain_check(TRIANGLE, LEB2, ChainSpec(
            branch="F", p_list=(1.0,), F=power_concavity(0.5), directions=6))
        assert f_rep.passed
        for a, b in zip(s_rep.rows, f_rep.rows):
            assert b["p=1"] == pytest.approx(a["p=1"], rel=1e-9)
            assert b["endpoint"] == pytest.approx(a["endpoint"], rel=1e-9)

    def test_near_neg1_meets_endpoint(self):
        spec = ChainSpec(branch="s", p_list=(-0.999,), s=0.5, directions=6)
        rep = chain_check(TRIANGLE, LEB2, spec)
        assert rep.passed
        for row in rep.rows:
            assert row["p=-0.999"] == pytest.approx(row["endpoint"], rel=0.01)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            ChainSpec(branch="t", p_list=(1.0,), s=0.5)
        with pytest.raises(InputError):
            ChainSpec(branch="s", p_list=(), s=0.5)
        with pytest.raises(InputError):
            ChainSpec(branch="s", p_list=(1.0, 0.5), s=0.5)
        with pytest.raises(InputError):
            ChainSpec(branch="s", p_list=(0.0, 1.0), s=0.5)
        with pytest.raises(InputError):
            ChainSpec(branch="s", p_list=(1.0,))
        with pytest.raises(InputError):
            ChainSpec(branch="F", p_list=(1.0,))
        with pytest.raises(InputError):
            ChainSpec(branch="s", p_list=(1.0,), s=0.5, m=0)


class TestRogersShephard:
    def test_triangle_hits_upper_bound(self):
        rep = rogers_shephard_check(TRIANGLE, 1)
        assert rep.passed
        assert rep.lhs == pytest.approx(6.0, abs=1e-9)
        assert rep.rhs == pytest.approx(6.0, abs=1e-12)

    def test_square_hits_lower_bound(self):
        rep = rogers_shephard_check(SQUARE, 1)
        assert rep.passed
        assert rep.lhs == pytest.approx(4.0, abs=1e-9)

    def test_cube_three_dimensional(self):
        rep = rogers_shephard_check(Polytope.named("cube", 3), 1)
        assert rep.passed
        assert rep.lhs == pytest.approx(8.0, abs=1e-9)
        assert rep.rhs == pytest.approx(20.0, abs=1e-12)

    def test_triangle_second_order(self):
        rep = rogers_shephard_check(TRIANGLE, 2, count=20_000)
        assert rep.passed
        assert rep.rhs == pytest.approx(15.0, abs=1e-12)
        assert rep.lhs == pytest.approx(15.0, rel=0.02)


class TestZhang:
    def test_triangle_equality(self):
        rep = zhang_check(TRIANGLE, LEB2, 0.5, [LEB2])
        assert rep.passed
        assert rep.bound == pytest.approx(6.0, abs=1e-12)
        assert rep.ratio == pytest.approx(6.0, rel=1e-3)

    def test_square_strict(self):
        rep = zhang_check(SQUARE, LEB2, 0.5, [LEB2])
        assert rep.passed
        assert rep.ratio > rep.bound * 1.01
        assert rep.ratio == pytest.approx(8.0, rel=1e-3)

    def test_triangle_second_order(self):
        rep = zhang_check(TRIANGLE, LEB2, 0.5, [LEB2, LEB2], count=100_000)
        assert rep.passed
        assert rep.bound == pytest.approx(15.0, abs=1e-12)
        assert rep.ratio == pytest.approx(15.0, rel=0.02)

    def test_general_reduces_to_power(self):
        # d int_0^1 F^-1[F(muK) t] (1-t)^(d-1) dt = muK / C(1/s + d, d)
        for s in (1.0 / 3.0, 0.5):
            F = power_concavity(s)
            for muK in (0.5, 2.0):
                for d in (2, 4):
                    FK = F.F(muK)
                    val = d * quad(
                        lambda t: F.F_inv(FK * t) * (1.0 - t) ** (d - 1),
                        0.0, 1.0, epsrel=1e-12)[0]
                    assert val == pytest.approx(
                        muK / gen_binom(1.0 / s, d), rel=1e-9)

    def test_general_triangle_equality(self):
        rep = general_zhang_check(TRIANGLE, LEB2, power_concavity(0.5), [LEB2])
        assert rep.passed
        assert rep.ratio == pytest.approx(1.0, rel=2e-3)
        assert "weak form holds" in rep.notes

    def test_general_square_strict(self):
        rep = general_zhang_check(SQUARE, LEB2, power_concavity(0.5), [LEB2])
        assert rep.passed
        assert rep.ratio > 1.01

    def test_dispatch_on_concavity_object(self):
        rep = zhang_check(TRIANGLE, LEB2, power_concavity(0.5), [LEB2])
        assert rep.name == "general-zhang"

    def test_factor_measures_must_be_nondecreasing(self):
        gauss = WeightedMeasure(GaussianDensity(2, 1.0))
        with pytest.raises(InputError):
            zhang_check(TRIANGLE, LEB2, 0.5, [gauss])
        with pytest.raises(InputError):
            zhang_check(TRIANGLE, LEB2, 0.5, [])
        with pytest.raises(InputError):
            zhang_check(TRIANGLE, LEB2, -0.5, [LEB2])


def test_direction_mesh_deterministic():
    a = direction_mesh(4, 50, seed=7)
    b = direction_mesh(4, 50, seed=7)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
