"""Weighted measures: integration, surface measure, linear pushforward."""

import math

import numpy as np
import pytest

import covbody.measure as measure_mod
from covbody.errors import InputError
from covbody.measure import (ConstantDensity, GaussianDensity,
                             LinearPowerDensity, ProductDensity,
                             WeightedMeasure, boundary_measure_total,
                             check_concavity_tag, density_from_spec,
                             integrate_over_polytope, transform_measure,
                             weighted_surface_measure)
from covbody.oracle import rng_for
from covbody.polytope import LinearMap, Polytope, apply_linear
from helpers import gauss_box_mass, parallel_body_difference

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)


class TestIntegrate:
    def test_constant(self):
        mu = WeightedMeasure(ConstantDensity(2, 2.0))
        assert integrate_over_polytope(mu, SQUARE) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        mu = WeightedMeasure.lebesgue(2)
        assert integrate_over_polytope(mu, None) == 0.0

    def test_gaussian_wide_box(self):
        box = Polytope.from_vertices([[-5, -5], [5, -5], [5, 5], [-5, 5]])
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        val = integrate_over_polytope(mu, box)
        assert val == pytest.approx(2.0 * math.pi, rel=5e-3)

    def test_gaussian_matches_erf_product(self):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        val = integrate_over_polytope(mu, SQUARE)
        assert val == pytest.approx(gauss_box_mass(1.0, [0, 0], [1, 1]),
                                    rel=1e-3)

    def test_linear_power(self):
        mu = WeightedMeasure(LinearPowerDensity([1.0, 0.0]))
        assert integrate_over_polytope(mu, SQUARE) == pytest.approx(
            0.5, rel=1e-6)

    def test_additivity(self):
        # split the square at x = 0.4
        left = Polytope.from_vertices([[0, 0], [0.4, 0], [0.4, 1], [0, 1]])
        right = Polytope.from_vertices([[0.4, 0], [1, 0], [1, 1], [0.4, 1]])
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        total = integrate_over_polytope(mu, SQUARE)
        parts = (integrate_over_polytope(mu, left) +
                 integrate_over_polytope(mu, right))
        assert parts == pytest.approx(total, rel=1e-3)


def _atoms(fm) -> dict:
    return {tuple(np.round(n, 9)): w for n, w in zip(fm.normals, fm.weights)}


class TestSurfaceMeasure:
    def test_square_lebesgue(self):
        fm = weighted_surface_measure(SQUARE, WeightedMeasure.lebesgue(2))
        got = _atoms(fm)
        for normal in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]:
            assert got[normal] == pytest.approx(1.0, abs=1e-9)

    def test_triangle_lebesgue(self):
        fm = weighted_surface_measure(TRIANGLE, WeightedMeasure.lebesgue(2))
        s = 1.0 / math.sqrt(2)
        got = _atoms(fm)
        assert got[(-1.0, 0.0)] == pytest.approx(1.0, abs=1e-9)
        assert got[(0.0, -1.0)] == pytest.approx(1.0, abs=1e-9)
        assert got[(round(s, 9), round(s, 9))] == pytest.approx(
            math.sqrt(2), abs=1e-9)

    def test_square_coordinate_density(self):
        mu = WeightedMeasure(LinearPowerDensity([1.0, 0.0]))
        got = _atoms(weighted_surface_measure(SQUARE, mu))
        assert got[(-1.0, 0.0)] == pytest.approx(0.0, abs=1e-9)
        assert got[(1.0, 0.0)] == pytest.approx(1.0, abs=1e-6)
        assert got[(0.0, 1.0)] == pytest.approx(0.5, abs=1e-6)
        assert got[(0.0, -1.0)] == pytest.approx(0.5, abs=1e-6)

    def test_cube_linear_density_facets(self):
        # phi = <a, x> + b on the unit cube: the facet x_i = c carries
        # a_i c + b + (sum of the other a_j) / 2, which the rule integrates
        # exactly on every fan triangle
        a, b = np.array([1.0, 2.0, 3.0]), 0.5
        mu = WeightedMeasure(LinearPowerDensity(a, b, 1.0))
        got = _atoms(weighted_surface_measure(Polytope.named("cube", 3), mu))
        assert len(got) == 6
        for i in range(3):
            rest = (a.sum() - a[i]) / 2.0
            for c, sign in ((0.0, -1.0), (1.0, 1.0)):
                normal = tuple(sign if j == i else 0.0 for j in range(3))
                assert got[normal] == pytest.approx(a[i] * c + b + rest, rel=1e-12)

    def test_constant_density_closes(self):
        # Minkowski: sum of area-weighted normals vanishes
        for P in (TRIANGLE, Polytope.named("cross", 3)):
            fm = weighted_surface_measure(P, WeightedMeasure.lebesgue(P.dim))
            resultant = fm.weights @ fm.normals
            assert np.max(np.abs(resultant)) < 1e-9


class TestBoundaryTotal:
    def test_square_perimeter(self):
        assert boundary_measure_total(
            SQUARE, WeightedMeasure.lebesgue(2)) == pytest.approx(4.0, abs=1e-9)

    def test_cube_surface(self):
        K = Polytope.named("cube", 3)
        assert boundary_measure_total(
            K, WeightedMeasure.lebesgue(3)) == pytest.approx(6.0, abs=1e-9)

    def test_square_coordinate_density(self):
        # edge integrals: 0 at x1=0, 1 at x1=1, 1/2 on top and bottom
        mu = WeightedMeasure(LinearPowerDensity([1.0, 0.0]))
        assert boundary_measure_total(SQUARE, mu) == pytest.approx(2.0, rel=1e-6)

    def test_matches_parallel_body_difference(self):
        for mu in (WeightedMeasure.lebesgue(2),
                   WeightedMeasure(GaussianDensity(2, 1.0))):
            total = boundary_measure_total(SQUARE, mu)
            fd = parallel_body_difference(SQUARE, mu, eps=1e-3)
            assert fd == pytest.approx(total, rel=0.02)


class TestTransform:
    def test_lebesgue_invariant(self):
        T = LinearMap(np.array([[2.0, 1.0], [0.0, 1.0]]))
        nu = transform_measure(WeightedMeasure.lebesgue(2), T)
        X = rng_for(42, "transform").standard_normal((10, 2))
        assert np.allclose(nu.density(X), 1.0)

    def test_gaussian_rescales(self):
        T = LinearMap(2.0 * np.eye(2))
        nu = transform_measure(WeightedMeasure(GaussianDensity(2, 1.0)), T)
        assert isinstance(nu.density, GaussianDensity)
        assert nu.density.sigma == pytest.approx(0.5)

    def test_linear_power_pullback(self):
        T = LinearMap(np.diag([3.0, 1.0]))
        nu = transform_measure(WeightedMeasure(LinearPowerDensity([1.0, 0.0])), T)
        assert isinstance(nu.density, LinearPowerDensity)
        assert np.allclose(nu.density.a, [3.0, 0.0])

    def test_change_of_variables(self):
        # int_P phi(Tx) dx = |det T|^{-1} int_{TP} phi
        T = LinearMap(np.array([[1.5, 0.4], [0.0, 0.8]]))
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        lhs = integrate_over_polytope(transform_measure(mu, T), TRIANGLE)
        rhs = integrate_over_polytope(mu, apply_linear(T, TRIANGLE)) / T.det_abs
        assert lhs == pytest.approx(rhs, rel=1e-3)


class TestConcavityTags:
    BOX = ([0.0, 0.0], [1.0, 1.0])

    def test_constant_is_one_over_n_concave(self):
        ok, _ = check_concavity_tag(ConstantDensity(2), 0.5, self.BOX)
        assert ok

    def test_gaussian_log_concave(self):
        ok, _ = check_concavity_tag(GaussianDensity(2, 1.0), None, self.BOX)
        assert ok

    def test_gaussian_fails_s_tag(self):
        ok, msg = check_concavity_tag(GaussianDensity(2, 1.0), 0.5, self.BOX)
        assert not ok
        assert "constant" in msg

    def test_s_above_dimension_bound_rejected(self):
        ok, msg = check_concavity_tag(LinearPowerDensity([1.0, 0.0]), 0.9, self.BOX)
        assert not ok
        assert "infeasible" in msg

    def test_linear_power_default_tag(self):
        # (<a, x>)_+^k is 1/(n+k)-concave: 1/3 for n = 2, k = 1
        ok, _ = check_concavity_tag(LinearPowerDensity([1.0, 0.0]), 1.0 / 3, self.BOX)
        assert ok

    def test_class_must_be_positive(self):
        with pytest.raises(InputError, match="s > 0"):
            check_concavity_tag(ConstantDensity(2), 0.0, self.BOX)

    def test_constant_density_needs_no_sample(self, monkeypatch):
        # a constant density is log-concave and s-concave for every s <= 1/n
        def no_draw(*args):
            raise AssertionError("the spot check drew a sample")

        monkeypatch.setattr(measure_mod, "rng_for", no_draw)
        for s in (0.5, 0.3, None):
            ok, _ = check_concavity_tag(ConstantDensity(2), s, self.BOX)
            assert ok
        ok, msg = check_concavity_tag(ConstantDensity(2), 0.6, self.BOX)
        assert not ok
        assert "infeasible" in msg


class TestDensitySpec:
    def test_types(self):
        assert isinstance(density_from_spec({"type": "constant"}, 2),
                          ConstantDensity)
        assert isinstance(density_from_spec({"type": "gaussian", "sigma": 2.0},
                                            2), GaussianDensity)
        d = density_from_spec({"type": "linear-power", "a": [1, 0], "b": 0.5,
                               "k": 2.0}, 2)
        assert isinstance(d, LinearPowerDensity)
        assert d.k == 2.0
        p = density_from_spec({"type": "product", "dims": [1, 1], "factors": [
            {"type": "constant"}, {"type": "gaussian"}]}, 2)
        assert isinstance(p, ProductDensity)

    def test_unknown_type(self):
        with pytest.raises(InputError):
            density_from_spec({"type": "cauchy"}, 2)

    def test_unknown_key(self):
        with pytest.raises(InputError, match="sd"):
            density_from_spec({"type": "gaussian", "sd": 2.0}, 2)

    def test_concavity_key_is_unknown(self):
        with pytest.raises(InputError, match="concavity"):
            density_from_spec({"type": "gaussian",
                               "concavity": {"kind": "log"}}, 2)

