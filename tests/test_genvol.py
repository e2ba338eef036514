"""Dual volumes with general kernels and the two chord-integral bounds."""

import collections
import json
import math

import numpy as np
import pytest
from scipy.special import gamma, gammainc

import covbody.genvol as genvol
from covbody import cli
from covbody.covariogram import CovRay, MDirection, covariogram, diffbody_radial
from covbody.errors import InputError, NumericError
from covbody.genvol import (KernelG, affine_ray_fn, beta_constant,
                            capped_ray_fn, chord_lower_check,
                            chord_upper_check, covariogram_ray_fn,
                            dual_volume, kernel_from_spec, power_density_kernel,
                            power_kernel, profile_ray_fn)
from covbody.measure import (GaussianDensity, LinearPowerDensity,
                             WeightedMeasure, check_concavity_tag)
from covbody.oracle import sphere_quadrature
from covbody.polytope import Polytope, StarBodyFn, star_volume
from covbody.projection import ProjectionBody

from helpers import random_polygon

TRIANGLE = Polytope.named("simplex", 2)
SQUARE = Polytope.named("cube", 2)
LEB2 = WeightedMeasure.lebesgue(2)
DISK = StarBodyFn.ball(2)


def ident(t):
    return np.asarray(t, dtype=float)


class TestDualVolume:
    def test_disk_volume_kernel(self):
        quad = sphere_quadrature(2, count=512)
        G = power_kernel(2, 1.0, scale=2.0)
        assert dual_volume(G, DISK, quad) == pytest.approx(math.pi, rel=1e-9)

    def test_disk_flat_kernel(self):
        quad = sphere_quadrature(2, count=512)
        G = power_kernel(2, 0.0)
        assert dual_volume(G, DISK, quad) == pytest.approx(math.pi, rel=1e-9)

    def test_polytope_matches_star_volume(self):
        quad = sphere_quadrature(2, count=4096)
        G = power_kernel(2, 1.0, scale=2.0)
        L = StarBodyFn.of_polytope(TRIANGLE)
        got = dual_volume(G, L, quad)
        assert got == pytest.approx(star_volume(L, quad), rel=1e-12)
        assert got == pytest.approx(TRIANGLE.volume, rel=1e-3)

    def test_singular_kernel_graded(self):
        # alpha = -1/2 integrates to 2 sqrt(rho) per ray: (1/2) * 2pi * 2
        quad = sphere_quadrature(2, count=64)
        G = power_kernel(2, -0.5)
        got = dual_volume(G, DISK, quad, inner=128)
        assert got == pytest.approx(2.0 * math.pi, rel=1e-7)

    @pytest.mark.parametrize("alpha", [-0.5, -0.8, -0.9, -0.95, -0.99, -0.999])
    def test_power_kernel_near_minus_one_is_exact(self, alpha):
        # r^alpha is the weight of the Gauss-Jacobi ray rule
        G = power_kernel(2, alpha)
        got = dual_volume(G, StarBodyFn.ball(2), sphere_quadrature(2, count=32))
        assert got == pytest.approx(math.pi / (alpha + 1.0), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 1.5, 2.5])
    def test_fractional_power_kernel_is_exact(self, alpha):
        # a non-integer alpha >= 0 is the rule's weight as well
        G = power_kernel(2, alpha)
        got = dual_volume(G, DISK, sphere_quadrature(2, count=32))
        assert got == pytest.approx(math.pi / (alpha + 1.0), rel=0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.999, 0.3, 0.5])
    def test_fractional_power_density_kernel_converges(self, alpha):
        # pi int_0^1 r^alpha exp(-r^2/2) dr, by the lower incomplete gamma
        G = power_density_kernel(2, alpha, GaussianDensity(2, 1.0))
        G.validate()
        a = (alpha + 1.0) / 2.0
        want = math.pi * 2.0 ** (a - 1.0) * gamma(a) * gammainc(a, 0.5)
        got = dual_volume(G, DISK, sphere_quadrature(2, count=32))
        assert got == pytest.approx(want, rel=1e-10)

    def test_nonconvergent_kernel_raises(self):
        # the linear-power factor (x_1 + 0.3)_+^0.5 kinks inside the disk,
        # which no Gauss rule on [0, rho] resolves to the doubling gate
        quad = sphere_quadrature(2, count=16)
        G = power_density_kernel(2, 1.0, LinearPowerDensity([1.0, 0.0], 0.3, 0.5))
        with pytest.raises(NumericError, match="did not converge"):
            dual_volume(G, DISK, quad)

    def test_dimension_mismatch(self):
        quad = sphere_quadrature(3, count=16)
        with pytest.raises(InputError):
            dual_volume(power_kernel(2, 1.0), DISK, quad)


class TestKernels:
    def test_spec_power_defaults(self):
        G = kernel_from_spec({"type": "power"}, 2)
        assert G.alpha == 1.0 and G.side == "both"
        G.validate()

    def test_spec_power_density_sides(self):
        lower = kernel_from_spec(
            {"type": "power-density", "exponent": 1.0,
             "density": {"type": "gaussian", "sigma": 1.0}}, 2)
        assert lower.side == "lower"
        lower.validate()
        # b = 0 keeps the linear factor radially nondecreasing
        upper = kernel_from_spec(
            {"type": "power-density", "exponent": 1.0,
             "density": {"type": "linear-power", "a": [1.0, 0.0]}}, 2)
        assert upper.side == "upper"

    def test_spec_rejects_unknown(self):
        with pytest.raises(InputError):
            kernel_from_spec({"type": "exp"}, 2)
        with pytest.raises(InputError):
            kernel_from_spec({}, 2)
        # a stray key must error, not silently fall back to the default
        with pytest.raises(InputError, match="alpha"):
            kernel_from_spec({"type": "power", "alpha": -0.5}, 2)
        with pytest.raises(InputError):
            power_kernel(2, -1.0)
        with pytest.raises(InputError):
            KernelG(2, 1.0, "sideways", lambda r, t: r)

    def test_validate_catches_wrong_side(self):
        gauss = GaussianDensity(2, 1.0)
        bad = KernelG(2, 1.0, "upper",
                      lambda r, theta: r * gauss(r[..., None] * theta[:, None, :]),
                      label="misdeclared")
        with pytest.raises(InputError, match="fails G"):
            bad.validate()

    def test_validate_catches_negative_kernel(self):
        bad = KernelG(2, 1.0, "both", lambda r, theta: r - 0.5,
                      label="signed")
        with pytest.raises(InputError, match="not positive"):
            bad.validate()


class TestBetaConstant:
    def test_identity_alpha_one(self):
        assert beta_constant(ident, 1.0, 1.0) == pytest.approx(
            1.0 / 3.0, rel=1e-12)

    def test_square_alpha_two(self):
        # 3 int tau^2 (1-tau)^2 dtau = 1/10
        assert beta_constant(lambda t: np.asarray(t) ** 2, 1.0, 2.0) == \
            pytest.approx(0.1, rel=1e-12)

    def test_scales_with_f0(self):
        a = beta_constant(ident, 2.0, 1.0)
        assert a == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_singular_alpha(self):
        # (1/2) int tau (1-tau)^(-1/2) dtau = B(2, 1/2)/2 = 2/3
        got = beta_constant(ident, 1.0, -0.5)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-5)


class TestChordBounds:
    def test_affine_equality_both_branches(self):
        quad = sphere_quadrature(2, count=64)
        f = affine_ray_fn(DISK)
        G = power_kernel(2, 1.0)
        lo = chord_lower_check(f, ident, G, quad)
        up = chord_upper_check(f, ident, G, quad)
        assert lo.passed and up.passed
        assert lo.lhs == pytest.approx(math.pi / 3.0, abs=1e-9)
        assert abs(lo.ratio - 1.0) < 1e-6
        assert abs(up.ratio - 1.0) < 1e-6
        assert "Omega empty" in up.notes
        for row in up.rows:
            assert row["rho_Ltilde"] == pytest.approx(row["rho_L"], rel=1e-12)

    def test_parabola_strictly_above(self):
        quad = sphere_quadrature(2, count=64)
        f = profile_ray_fn(DISK, lambda t: 1.0 - t * t, 0.0)
        rep = chord_lower_check(f, ident, power_kernel(2, 1.0), quad)
        assert rep.passed
        assert rep.ratio == pytest.approx(1.5, rel=1e-9)
        assert rep.margin > 0.01

    def test_capped_flat_directions(self):
        quad = sphere_quadrature(2, count=128)
        f = capped_ray_fn(DISK, 0.5)
        rep = chord_upper_check(f, ident, power_kernel(2, 1.0), quad)
        assert rep.passed
        flats = sum(r["in_omega"] for r in rep.rows)
        # the cap <theta, e1> >= 1/2 covers a third of the circle
        assert flats == 42
        assert "42 of 128" in rep.notes

    def test_everywhere_flat_collapses_to_identity(self):
        quad = sphere_quadrature(2, count=128)
        f = profile_ray_fn(DISK, lambda t: np.ones_like(t), 0.0)
        rep = chord_upper_check(f, ident, power_kernel(2, 1.0), quad)
        assert rep.passed
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_side_requirements(self):
        quad = sphere_quadrature(2, count=16)
        f = affine_ray_fn(DISK)
        lower_only = power_density_kernel(2, 1.0, GaussianDensity(2, 1.0))
        with pytest.raises(InputError):
            chord_upper_check(f, ident, lower_only, quad)
        upper_only = KernelG(2, 1.0, "upper",
                             lambda r, theta: r * (1.0 + r * r),
                             label="increasing-factor")
        upper_only.validate()
        with pytest.raises(InputError):
            chord_lower_check(f, ident, upper_only, quad)

    def test_max_away_from_zero_rejected(self):
        quad = sphere_quadrature(2, count=16)
        f = profile_ray_fn(DISK, lambda t: t * (1.0 - t), 1.0)
        with pytest.raises(InputError, match="maximum at r = 0"):
            chord_upper_check(f, ident, power_kernel(2, 1.0), quad)


class TestCovariogramFixture:
    # f = F(g) for F = t^(1/2), h = F^{-1} = t^2, G = r^(d-1): the chord
    # machinery then reproduces the volume-ratio bound for the measure
    H = staticmethod(lambda t: np.asarray(t, dtype=float) ** 2)

    def test_simplex_equality_both_branches(self):
        quad = sphere_quadrature(2, count=64)
        f = covariogram_ray_fn(TRIANGLE, LEB2, 1, 0.5)
        G = power_kernel(2, 1.0)
        lo = chord_lower_check(f, self.H, G, quad)
        up = chord_upper_check(f, self.H, G, quad)
        assert lo.passed and up.passed
        assert abs(lo.ratio - 1.0) < 1e-6
        assert abs(up.ratio - 1.0) < 1e-6

    def test_square_strict_both_branches(self):
        quad = sphere_quadrature(2, count=64)
        f = covariogram_ray_fn(SQUARE, LEB2, 1, 0.5)
        G = power_kernel(2, 1.0)
        lo = chord_lower_check(f, self.H, G, quad)
        up = chord_upper_check(f, self.H, G, quad)
        assert lo.passed and up.passed
        assert lo.ratio > 1.4
        assert up.ratio < 0.8

    def test_tangent_body_is_scaled_polar_projection(self):
        # F(muK) / F'(muK) = muK / s for F = t^s
        quad = sphere_quadrature(2, count=32)
        for K in (TRIANGLE, SQUARE):
            f = covariogram_ray_fn(K, LEB2, 1, 0.5)
            rep = chord_upper_check(f, self.H, power_kernel(2, 1.0), quad)
            body = ProjectionBody(K, LEB2, 1)
            muK = K.volume
            scale = muK / 0.5
            for row, theta in zip(rep.rows, quad.nodes):
                want = scale / body.support(theta[None, :])
                assert row["rho_Ltilde"] == pytest.approx(want, rel=1e-9)

    def test_beta_matches_concavity_mean(self):
        # beta_b = (alpha+1) int h(F(muK) tau)(1-tau)^alpha dtau equals the
        # 1-D mean muK / C(1/s + d, d) of the volume-ratio bound
        for K in (TRIANGLE, SQUARE):
            muK = K.volume
            got = beta_constant(self.H, math.sqrt(muK), 1.0)
            assert got == pytest.approx(muK / 6.0, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("density", ["lebesgue", "gaussian"])
    def test_fixture_is_F_of_the_covariogram(self, density, m):
        # relative to the fixture's maximum mu(K)^(1/2): near rho_D g vanishes,
        # and both routes round at the level of 1e-16 mu(K)
        K = random_polygon(np.random.default_rng(4), 6)
        mu = LEB2 if density == "lebesgue" else WeightedMeasure(GaussianDensity(2, 1.0))
        f = covariogram_ray_fn(K, mu, m, 0.5)
        rng = np.random.default_rng(11)
        for _ in range(4):
            theta = rng.standard_normal(2 * m)
            theta /= np.linalg.norm(theta)
            t = rng.uniform(0.0, 1.0, size=16)
            rho, got, _, _ = f.rays(theta[None], t)
            want = [covariogram(K, mu, x * theta.reshape(m, 2)) ** 0.5 for x in rho[0] * t]
            assert np.abs(got[0] - want).max() <= 1e-10 * mu.mass(K) ** 0.5

    @pytest.mark.parametrize("K, count", [
        (random_polygon(np.random.default_rng(4), 6), 64),
        (random_polygon(np.random.default_rng(5), 5), 32),
        (Polytope.named("cross", 3), 32)], ids=["hexagon", "pentagon", "cross3"])
    def test_rho_D_of_the_fixture_is_the_lp_value(self, K, count):
        # at m = 1 the fixture reads rho_D of all its rays from one
        # radial_batch of K - K; every other ray solves the LP of
        # `diffbody_radial`
        quad = sphere_quadrature(K.dim, count=count, seed=3)
        rho, _, _, _ = covariogram_ray_fn(K, WeightedMeasure.lebesgue(K.dim), 1, 0.5).rays(
            quad.nodes, np.array([0.5]))
        lp = [diffbody_radial(K, MDirection(u[None])) for u in quad.nodes]
        np.testing.assert_allclose(rho, lp, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("K, m", [(Polytope.named("cube", 3), 2),
                                      (Polytope.named("cube", 2), 3)], ids=["cube3-m2", "square-m3"])
    def test_from_m_2_each_ray_solves_its_lp(self, monkeypatch, K, m):
        # the hull of D^2 of the cube (512 points in R^6) costs as much as
        # about 1800 of these LPs
        monkeypatch.setattr(genvol, "diffbody_polytope",
                            lambda *args: pytest.fail("D^m(K) was built"))
        quad = sphere_quadrature(K.dim * m, count=4, seed=3)
        rho, _, _, _ = covariogram_ray_fn(K, WeightedMeasure.lebesgue(K.dim), m, 0.5).rays(
            quad.nodes, np.array([0.5]))
        lp = [diffbody_radial(K, MDirection(u.reshape(m, K.dim))) for u in quad.nodes]
        np.testing.assert_array_equal(rho, lp)

    def test_chord_check_reads_one_fit_per_ray(self, monkeypatch):
        # the chord rules' radii cost no evaluation beyond the ray's fit:
        # n + 2 per piece under a constant density
        g = CovRay.g
        asked = collections.Counter()

        def counting_g(ray, r):
            asked[ray] += 1
            return g(ray, r)

        monkeypatch.setattr(CovRay, "g", counting_g)
        K = random_polygon(np.random.default_rng(4), 6)
        f = covariogram_ray_fn(K, LEB2, 1, 0.5)
        chord_upper_check(f, self.H, power_kernel(2, 1.0), sphere_quadrature(2, count=32))
        asked = dict(asked)
        assert len(asked) == 32
        for ray, calls in asked.items():
            assert calls <= (K.dim + 2) * ray.profile().pieces

    def test_non_concave_f_rejected(self, capsys):
        # s = 2 > 1/n: the job's class check refuses it before any ray
        code = cli.run({"command": "verify-chord",
                        "body": {"name": "simplex", "dim": 2},
                        "params": {"fixture": "covariogram", "s": 2.0}})
        assert code == 2
        assert "infeasible" in capsys.readouterr().err


# densities with a class they pass, each on its own random hexagons
CLASSES = {"lebesgue": (LEB2, 0.5, 21),
           "gaussian": (WeightedMeasure(GaussianDensity(2, 1.0)), 0.1, 22),
           "linear-power": (WeightedMeasure(
               LinearPowerDensity([0.5, 0.3], 2.0, 1.0)), 1.0 / 3.0, 23)}
HEXAGON = StarBodyFn.of_polytope(random_polygon(np.random.default_rng(3), 6))
CLOSED_FORM = {"affine": lambda: affine_ray_fn(HEXAGON),
               "parabola": lambda: profile_ray_fn(HEXAGON, lambda t: 1.0 - t * t, 0.0),
               "capped": lambda: capped_ray_fn(HEXAGON, 0.5)}


def _ray_fn(case: str):
    if case in CLOSED_FORM:
        return CLOSED_FORM[case]()
    density, m = case.split("-m")
    mu, s, seed = CLASSES[density]
    K = random_polygon(np.random.default_rng([seed, int(m)]), 6)
    ok, msg = check_concavity_tag(mu.density, s, K.bounding_box())
    assert ok, msg
    return covariogram_ray_fn(K, mu, int(m), s)


@pytest.mark.parametrize("case", [f"{d}-m{m}" for d in CLASSES for m in (1, 2)]
                         + list(CLOSED_FORM))
def test_ray_fn_is_midpoint_concave(case):
    # the precondition of both chord bounds: for an s-concave mu, g^s is
    # concave along every ray of D^m K (Borell-Brascamp-Lieb), and the
    # closed-form fixtures are concave by construction
    f = _ray_fn(case)
    rng = np.random.default_rng(5)
    for _ in range(8):
        theta = rng.standard_normal(f.dim)
        theta /= np.linalg.norm(theta)
        t1, t2 = np.sort(rng.uniform(0.0, 1.0, size=(2, 16)), axis=0)
        _, fvals, f0, _ = f.rays(theta[None], np.concatenate([(t1 + t2) / 2, t1, t2]))
        fm, f1, f2 = fvals.reshape(3, 16)
        assert (fm - (f1 + f2) / 2).min() >= -1e-8 * f0[0]


def _counting(G: KernelG):
    """G, and the list its calls append to."""
    calls = []

    def fn(r, theta):
        calls.append(r.shape)
        return G.fn(r, theta)

    return KernelG(G.dim, G.alpha, G.side, fn, G.label), calls


class TestOnePassPerCheck:
    """A check evaluates its kernel on whole tables of rays: the number of
    kernel calls does not grow with the number of directions."""

    def test_dual_volume_calls_do_not_grow_with_directions(self):
        counts = []
        for count in (64, 512):
            G, calls = _counting(power_kernel(2, 1.0))
            dual_volume(G, HEXAGON, sphere_quadrature(2, count=count))
            counts.append(len(calls))
        assert counts == [2, 2]  # one per node count of the gate

    def test_chord_upper_makes_a_fixed_number_of_calls(self):
        # the lhs, the Omega term and the Ltilde term
        counts = []
        for count in (64, 512):
            G, calls = _counting(power_kernel(2, 1.0))
            chord_upper_check(capped_ray_fn(HEXAGON, 0.5), ident, G,
                              sphere_quadrature(2, count=count))
            counts.append(len(calls))
        assert counts == [3, 3]


@pytest.mark.parametrize("budget", [1, 3 * 128])
def test_chunks_of_rays_give_the_same_bits(monkeypatch, budget):
    # budget 1 puts one ray in each chunk; 3 * 128 puts three rays of the
    # doubled dual-volume rule and six of the 64-node chord rule, with a
    # shorter last chunk
    quad = sphere_quadrature(2, count=64)
    lower = power_density_kernel(2, 1.0, GaussianDensity(2, 1.0))
    parabola = profile_ray_fn(HEXAGON, lambda t: 1.0 - t * t, 0.0)

    def results():
        lo = chord_lower_check(parabola, ident, lower, quad)
        up = chord_upper_check(capped_ray_fn(HEXAGON, 0.5), ident, power_kernel(2, 1.0), quad)
        return json.dumps([dual_volume(lower, HEXAGON, quad), lo.to_json(), up.to_json(),
                           up.rows])

    whole = results()
    monkeypatch.setattr(genvol, "DEDUPE_BLOCK", budget)
    assert results() == whole
