"""Inequality harness: constants, chains, and volume-ratio checks."""

import math
import tracemalloc

import numpy as np
import pytest
from covbody.covariogram import CovRay, MDirection
from covbody.errors import InputError, NumericError
from covbody.measure import (ConstantDensity, GaussianDensity,
                             LinearPowerDensity, WeightedMeasure)
from covbody.oracle import mc_measure, sphere_quadrature
from covbody.polytope import Polytope, StarBodyFn, star_volume
from covbody.projection import ProjectionBody
from covbody.radialmean import rmb_radial_mellin
from covbody.verify import (ChainSpec, berwald_const_F, berwald_const_Q,
                            chain_check, direction_mesh, gen_binom,
                            general_zhang_check, rogers_shephard_check,
                            zhang_check, _denominator_integral, _nu_mass_of_star)
from helpers import (berwald_quad_F, berwald_quad_Q, concavity_mean_quad,
                     random_polygon)

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)
LEB2 = WeightedMeasure.lebesgue(2)


class TestConstants:
    def test_gen_binom_integers(self):
        for a in range(1, 7):
            for k in range(1, 7):
                assert gen_binom(a, k) == pytest.approx(
                    math.comb(a + k, k), rel=1e-12)

    def test_gen_binom_integers_are_exact(self):
        # an exact simplex ratio must not read above its constant
        for a in range(0, 9):
            for k in range(0, 9):
                assert gen_binom(float(a), k) == math.comb(a + k, k)
        assert gen_binom(2, 4) == 15.0
        assert gen_binom(6.0, 3.0) == 84.0

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
        # the closed generalized binomial must match the quadrature of the
        # defining integral, whatever the total mass
        got = berwald_const_F(s, p)
        assert got == gen_binom(1.0 / s, p) ** (1.0 / p)
        for muK in (0.5, 1.0, 2.7):
            assert got == pytest.approx(berwald_quad_F(s, p, muK), rel=1e-9)

    def test_log_constant_closed_form(self):
        assert berwald_const_Q(1.0) == pytest.approx(1.0, rel=1e-12)
        assert berwald_const_Q(2.0) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.5])
    def test_log_constant_generic_route(self, p):
        # the truncated quadrature of the defining integral must agree
        # with Gamma(1 + p)^(-1/p), whatever the total mass
        for muK in (0.5, 1.0, 3.0):
            assert berwald_const_Q(p) == pytest.approx(berwald_quad_Q(p, muK),
                                                       rel=1e-8)

    def test_constant_domain_errors(self):
        for bad_p in (-1.0, 0.0):
            with pytest.raises(InputError):
                berwald_const_F(0.5, bad_p)
            with pytest.raises(InputError):
                berwald_const_Q(bad_p)
        for bad_s in (0.0, -0.5, None):
            with pytest.raises(InputError):
                berwald_const_F(bad_s, 1.0)


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
        spec = ChainSpec(branch="Q", p_list=(0.5, 1.0, 2.0), m=2, directions=8)
        rep = chain_check(TRIANGLE, mu, spec)
        assert rep.passed
        assert "rho_D" not in rep.rows[0]

    def test_the_rays_share_one_mass_and_one_lp_stack(self, monkeypatch):
        # mu(K) is read once for all the directions, and their rho_D come
        # from one stacked difference-body call, the same bits as alone
        from covbody import verify as verify_mod
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        spec = ChainSpec(branch="s", p_list=(1.0,), s=0.25, m=2, directions=6)
        want = chain_check(TRIANGLE, mu, spec)
        masses, stacks = [], []
        real_mass, real_radial = WeightedMeasure.mass, verify_mod.diffbody_radial
        monkeypatch.setattr(WeightedMeasure, "mass",
                            lambda self, P: masses.append(P) or real_mass(self, P))
        monkeypatch.setattr(verify_mod, "diffbody_radial",
                            lambda K, th: stacks.append(np.shape(th)) or real_radial(K, th))
        rep = chain_check(TRIANGLE, mu, spec)
        assert len(masses) == 1 and stacks == [(6, 2, 2)]
        assert rep.rows == want.rows
        for row, u in zip(rep.rows, direction_mesh(4, 6, spec.seed)):
            assert row["rho_D"] == real_radial(TRIANGLE, u.reshape(2, 2))

    # g has kinks along these rays, so the Mellin route must integrate
    # between them to meet its gate at p = 3
    @pytest.mark.parametrize("seed", range(8))
    def test_gaussian_q_branch_on_random_hexagon(self, seed):
        K = random_polygon(np.random.default_rng(seed), 6)
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        spec = ChainSpec(branch="Q", p_list=(2.0, 3.0), directions=4)
        assert chain_check(K, mu, spec).passed

    def test_f_branch_matches_s_branch(self):
        # F = t^s is the s-branch under another name
        s_rep = chain_check(TRIANGLE, LEB2, ChainSpec(
            branch="s", p_list=(1.0,), s=0.5, directions=6))
        f_rep = chain_check(TRIANGLE, LEB2, ChainSpec(
            branch="F", p_list=(1.0,), s=0.5, directions=6))
        assert f_rep.passed and f_rep.name == "chain-F"
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
            ChainSpec(branch="s", p_list=(1.0,), s=0.5, m=0)

    def test_branch_takes_its_class(self):
        # s > 0 on the s- and F-branches, None (log-concave) on the Q-branch
        with pytest.raises(InputError, match="the Q-branch"):
            ChainSpec(branch="F", p_list=(1.0,))
        with pytest.raises(InputError, match="s- or F-branch"):
            ChainSpec(branch="Q", p_list=(1.0,), s=0.5)
        for branch in ("s", "F"):
            with pytest.raises(InputError, match="needs s > 0"):
                ChainSpec(branch=branch, p_list=(1.0,), s=-0.5)

    def test_q_branch_endpoint_is_the_mass(self):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        rep = chain_check(TRIANGLE, mu, ChainSpec(branch="Q", p_list=(1.0,),
                                                  directions=3))
        h = ProjectionBody(TRIANGLE, mu, 1).support
        dirs = direction_mesh(2, 3, 42)
        for row, u in zip(rep.rows, dirs):
            want = mu.mass(TRIANGLE) / h(MDirection(u[None, :]))
            assert row["endpoint"] == pytest.approx(want, rel=1e-12)


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
        assert rep.samples == 20_000

    @pytest.mark.parametrize("K, ratio", [
        (TRIANGLE, 15.0), (SQUARE, 9.0), (Polytope.named("simplex", 3), 84.0)])
    def test_second_order_exact(self, K, ratio):
        # simplices meet the bound C(nm + n, n); the square's D^2 is the
        # product over its two coordinates of D^2 [0, 1], the hexagon
        # {|a|, |b|, |a - b| <= 1} of area 3
        rep = rogers_shephard_check(K, 2)
        assert rep.passed
        assert rep.lhs == pytest.approx(ratio, rel=1e-12)
        assert rep.samples == 1
        assert rep.notes == "exact polytope volume"


class TestZhang:
    def test_triangle_equality(self):
        rep = zhang_check(TRIANGLE, LEB2, 0.5, [LEB2])
        assert rep.passed
        assert rep.bound == pytest.approx(6.0, abs=1e-12)
        assert rep.ratio == pytest.approx(6.0, rel=1e-12)
        assert rep.samples == 1
        assert rep.notes.startswith("numerator exact polytope volume")

    def test_square_strict(self):
        rep = zhang_check(SQUARE, LEB2, 0.5, [LEB2])
        assert rep.passed
        assert rep.ratio > rep.bound * 1.01
        assert rep.ratio == pytest.approx(8.0, rel=1e-3)

    def test_triangle_second_order(self):
        rep = zhang_check(TRIANGLE, LEB2, 0.5, [LEB2, LEB2])
        assert rep.passed
        assert rep.bound == pytest.approx(15.0, abs=1e-12)
        assert rep.ratio == pytest.approx(15.0, rel=1e-12)

    def test_count_keeps_the_sphere_rule(self):
        rep = zhang_check(TRIANGLE, LEB2, 0.5, [LEB2, LEB2], count=100_000)
        assert rep.passed
        assert rep.samples == 100_000
        assert rep.ratio == pytest.approx(15.0, rel=0.02)

    def test_constant_factors_scale_the_exact_numerator(self):
        c2 = WeightedMeasure(ConstantDensity(2, 2.0))
        one = zhang_check(TRIANGLE, LEB2, 0.5, [LEB2, LEB2])
        two = zhang_check(TRIANGLE, LEB2, 0.5, [LEB2, c2])
        assert two.lhs == pytest.approx(2.0 * one.lhs, rel=1e-12)
        assert two.ratio == pytest.approx(one.ratio, rel=1e-12)

    def test_general_reduces_to_power(self):
        # d int_0^1 F^-1[F(muK) t] (1-t)^(d-1) dt = muK / C(1/s + d, d),
        # the 1-D mean general_zhang_check reports
        for s in (1.0 / 3.0, 0.5):
            for muK in (0.5, 2.0):
                for d in (2, 4):
                    assert concavity_mean_quad(s, muK, d) == pytest.approx(
                        muK / gen_binom(1.0 / s, d), rel=1e-9)

    def test_general_triangle_equality(self):
        rep = general_zhang_check(TRIANGLE, LEB2, 0.5, [LEB2])
        assert rep.passed
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.notes.endswith(f"; 1-D concavity mean {0.5 / 6.0:.12g}")

    @pytest.mark.parametrize("K, s, nus, count", [
        (TRIANGLE, 0.5, [LEB2], None),
        (SQUARE, 0.5, [LEB2], None),
        (TRIANGLE, 0.5, [LEB2, LEB2], None),
        (TRIANGLE, 0.5, [LEB2, LEB2], 100_000),
        (TRIANGLE, 0.5, [LEB2, WeightedMeasure(ConstantDensity(2, 2.0))], None),
        (SQUARE, 0.25, [WeightedMeasure(LinearPowerDensity([0.3, 0.2]))], None),
    ], ids=["triangle", "square", "triangle-m2", "triangle-m2-count", "constant-c2",
            "linear-power"])
    def test_general_is_zhang_over_its_bound(self, K, s, nus, count):
        # under F = t^s the general form divides zhang_check's inequality by
        # mu(K): same verdict and margin, ratio over the bound
        zhang = zhang_check(K, LEB2, s, nus, count=count)
        general = general_zhang_check(K, LEB2, s, nus, count=count)
        assert general.passed == zhang.passed
        assert general.margin == pytest.approx(zhang.margin, abs=1e-15)
        assert general.ratio == zhang.ratio / zhang.bound
        assert general.bound == 1.0
        assert general.lhs * K.volume == pytest.approx(zhang.lhs, rel=1e-15)
        assert general.rhs == pytest.approx(zhang.rhs * zhang.bound / K.volume, rel=1e-15)

    def test_general_square_strict(self):
        rep = general_zhang_check(SQUARE, LEB2, 0.5, [LEB2])
        assert rep.passed
        assert rep.ratio > 1.01

    def test_second_order_numerator_stays_small(self):
        # constant factors need no radial rule over the 200 000 directions
        tracemalloc.start()
        try:
            zhang_check(TRIANGLE, LEB2, 0.5, [LEB2, LEB2], count=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_factor_measures_must_be_nondecreasing(self):
        gauss = WeightedMeasure(GaussianDensity(2, 1.0))
        with pytest.raises(InputError):
            zhang_check(TRIANGLE, LEB2, 0.5, [gauss])
        with pytest.raises(InputError):
            zhang_check(TRIANGLE, LEB2, 0.5, [])
        with pytest.raises(InputError):
            zhang_check(TRIANGLE, LEB2, -0.5, [LEB2])

    def test_general_refuses_log(self):
        # F^-1[F(muK) t] = muK^t tends to 1 as t -> 0 under F = log
        with pytest.raises(InputError, match="F = log"):
            general_zhang_check(TRIANGLE, LEB2, None, [LEB2])
        with pytest.raises(InputError):
            general_zhang_check(TRIANGLE, LEB2, 0.0, [LEB2])


def _mc_denominator(K, mu, nus, n_samples, seed):
    """int_K prod_i nu_i(y - K) dmu(y) as one Monte Carlo integral over
    K^(m+1) in R^(n(m+1)): density phi_mu(y) prod_i phi_i(y - z_i), every
    block (y, z_1, ..., z_m) in K."""
    n, m = K.dim, len(nus)
    lo, hi = K.bounding_box()

    def density(X):
        y = X[:, :n]
        out = mu.density(y)
        for i, nu in enumerate(nus):
            out = out * nu.density(y - X[:, n * (i + 1):n * (i + 2)])
        return out

    def member(X):
        return np.all([(X[:, n * j:n * (j + 1)] @ K.A.T <= K.b + 1e-12).all(axis=1)
                       for j in range(m + 1)], axis=0)

    return mc_measure(density, member, (np.tile(lo, m + 1), np.tile(hi, m + 1)),
                      n_samples=n_samples, seed=seed, tag="zhang-denominator-reference")


class TestZhangDenominator:
    """The denominator int_K prod_i nu_i(y - K) dmu(y): the nested simplex
    rule against an independent Monte Carlo reference and a closed form,
    exact under constant factors, seed-free, and gated."""

    LP2 = [WeightedMeasure(LinearPowerDensity([0.3, 0.2])),
           WeightedMeasure(LinearPowerDensity([-0.1, 0.5], 0.0, 2.0))]
    LP3 = [WeightedMeasure(LinearPowerDensity([0.3, 0.2, 0.1])),
           WeightedMeasure(LinearPowerDensity([-0.2, 0.1, 0.4], 0.0, 2.0))]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("body", ["triangle", "cube"])
    def test_matches_monte_carlo(self, body, m):
        if body == "triangle":
            K, mu, nus = TRIANGLE, LEB2, self.LP2[:m]
        else:
            K, mu, nus = (Polytope.named("cube", 3),
                          WeightedMeasure(GaussianDensity(3, 1.0)), self.LP3[:m])
        got = _denominator_integral(K, mu, nus, 0.02)
        est, se = _mc_denominator(K, mu, nus, 10**6, seed=1)
        assert abs(got - est) <= 3.0 * se

    def test_constant_factors_are_exact(self):
        c2 = WeightedMeasure(ConstantDensity(2, 2.0))
        gauss = WeightedMeasure(GaussianDensity(2, 1.0))
        vol = SQUARE.volume
        assert _denominator_integral(SQUARE, gauss, [c2, LEB2], 0.02) == (
            (2.0 * vol) * (1.0 * vol) * gauss.mass(SQUARE))
        # a constant factor stands outside the rule of the varying ones
        assert _denominator_integral(SQUARE, gauss, [c2, self.LP2[0]], 0.02) == (
            (2.0 * vol) * _denominator_integral(SQUARE, gauss, [self.LP2[0]], 0.02))

    def test_seed_moves_only_a_sphere_rule(self):
        # m = 2 with count takes a seeded sphere rule in R^4 for the numerator
        one = zhang_check(TRIANGLE, LEB2, 0.5, self.LP2, count=2000, seed=1)
        two = zhang_check(TRIANGLE, LEB2, 0.5, self.LP2, count=2000, seed=2)
        assert one.rhs == two.rhs
        assert one.lhs != two.lhs

    def test_levels_that_disagree_raise(self):
        # at tolerance 1e-6 the two levels' relative gap (4.1e-5 on this
        # kinked factor) exceeds a tenth of it
        with pytest.raises(NumericError, match=r"level 16 and .* at level 20, more than"):
            zhang_check(TRIANGLE, LEB2, 0.5, self.LP2[:1], tolerance=1e-6)
        assert zhang_check(TRIANGLE, LEB2, 0.5, self.LP2[:1]).passed

    @pytest.mark.parametrize("K, a, k, count", [
        (TRIANGLE, [0.3, 0.2], 1.0, None),
        (Polytope.from_vertices([[0.1, -0.4], [1.3, 0.2], [-0.5, 0.9]]), [0.3, 0.2], 1.0,
         None),
        (TRIANGLE, [-0.3, 0.5], 2.0, None),
        (Polytope.named("simplex", 3), [0.3, 0.2, 0.1], 1.0, 20_000),
    ], ids=["triangle", "other-triangle", "triangle-k2", "tetrahedron"])
    def test_homogeneous_factor_closed_form(self, K, a, k, count):
        # Zhang's inequality for a homogeneous measure, as in Langharst,
        # Roysdon and Zvavitch: nu with density phi = (<a, x>)_+^k is
        # (n + k)-homogeneous. Under Lebesgue mu, g^(1/n) is concave along
        # rays and -g'(0+) = h_{Pi K}, so g(r u) <= vol(K) (1 - r / R(u))^n
        # with R = n vol(K) rho_{polar Pi K} >= rho_D, equal on simplices. In
        # polar coordinates int_K nu(y - K) dy = int phi(u) int_0^rho_D
        # r^(n+k-1) g(r u) dr du is then at most vol(K) B(n + k, n + 1)
        # int phi(u) R(u)^(n+k) du, while at s = 1/n the numerator is vol(K)
        # int phi(u) R(u)^(n+k) / (n + k) du: the ratio is at least
        # 1 / ((n + k) B(n + k, n + 1)) = C(2n + k, n), reached on simplices.
        n = K.dim
        rep = zhang_check(K, WeightedMeasure.lebesgue(n), 1.0 / n,
                          [WeightedMeasure(LinearPowerDensity(a, 0.0, k))], count=count)
        assert rep.ratio == pytest.approx(math.comb(2 * n + int(k), n), rel=1e-3)

    def test_homogeneous_factor_square_is_strict(self):
        rep = zhang_check(SQUARE, LEB2, 0.5, self.LP2[:1])
        assert rep.ratio > 1.5 * math.comb(5, 2)


class TestNuMass:
    """The numerator's mass of a star body under the product of the factor
    measures, against closed forms on the same sphere rule."""

    COUNT, SEED = 2000, 7

    @staticmethod
    def _radial(dirs):
        return 0.8 + 0.3 * dirs[:, 0] ** 2 - 0.1 * dirs[:, -1]

    @pytest.mark.parametrize("m", [1, 2])
    def test_constant_factors_scale_the_star_volume(self, m):
        nus = [WeightedMeasure(ConstantDensity(2, c)) for c in (1.7, 0.6)[:m]]
        d = 2 * m
        got = _nu_mass_of_star(nus, self._radial, d, 2, self.COUNT, self.SEED)
        want = math.prod((1.7, 0.6)[:m]) * star_volume(
            StarBodyFn(d, self._radial), sphere_quadrature(d, self.COUNT, self.SEED))
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2])
    def test_linear_power_factor_takes_the_radial_rule(self, m):
        # (<a, r u> + 0)_+^k = r^k (<a, u>)_+^k, so the radial integral is
        # (<a, u>)_+^k rho^(d+k) / (d+k), which the Gauss rule integrates
        # exactly; at m = 2 a constant factor stands next to it
        a, k, c = np.array([0.6, -0.8]), 1.0, 1.7
        nus = [WeightedMeasure(LinearPowerDensity(a, 0.0, k)),
               WeightedMeasure(ConstantDensity(2, c))][:m]
        d = 2 * m
        got = _nu_mass_of_star(nus, self._radial, d, 2, self.COUNT, self.SEED)
        sphere = sphere_quadrature(d, self.COUNT, self.SEED)
        rho = self._radial(sphere.nodes)
        phi = np.maximum(sphere.nodes[:, :2] @ a, 0.0) ** k
        want = (c if m == 2 else 1.0) * float(
            sphere.weights @ (phi * rho ** (d + k))) / (d + k)
        assert got == pytest.approx(want, rel=1e-12)


def test_direction_mesh_deterministic():
    a = direction_mesh(4, 50, seed=7)
    b = direction_mesh(4, 50, seed=7)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
