"""Projection body support, polar radial/volume, and the two checkers."""

import math

import numpy as np
import pytest

import covbody.projection as projection_mod
from covbody.covariogram import MDirection, diffbody_radial
from covbody.errors import DegenerateMeasureError, InputError
from covbody.measure import (GaussianDensity, LinearPowerDensity,
                             WeightedMeasure, weighted_surface_measure)
from covbody.oracle import rng_for, sphere_quadrature
from covbody.polytope import LinearMap, Polytope
from covbody.projection import (ProjectionBody, linear_covariance_check,
                                polar_projection_radial,
                                polar_projection_volume, projection_support,
                                variational_check)

from helpers import random_polytope

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)
LEB2 = WeightedMeasure.lebesgue(2)


class TestSupport:
    def test_square_axis(self):
        assert projection_support(SQUARE, LEB2, [[1.0, 0.0]]) == pytest.approx(
            1.0, abs=1e-12)

    def test_triangle_axis(self):
        assert projection_support(TRIANGLE, LEB2, [[1.0, 0.0]]) == pytest.approx(
            1.0, abs=1e-12)

    def test_zero_direction(self):
        assert projection_support(SQUARE, LEB2, [[0.0, 0.0]]) == 0.0

    def test_first_order_equals_half_absolute_sum(self):
        # with a constant density the facet atoms close up, so the one-sided
        # sum equals the classical half integral of |<u, normal>|
        fm = weighted_surface_measure(TRIANGLE, LEB2)
        rng = rng_for(42, "proj-cauchy")
        for _ in range(30):
            u = rng.standard_normal(2)
            half = 0.5 * float(np.abs(fm.normals @ u) @ fm.weights)
            assert projection_support(TRIANGLE, LEB2, [u]) == pytest.approx(
                half, rel=1e-12)

    def test_diagonal_collapse(self):
        # repeating one block leaves the max unchanged: h_m(x,...,x) = h_1(x)
        rng = rng_for(42, "proj-diagonal")
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        for _ in range(20):
            x = rng.standard_normal(2)
            h1 = projection_support(TRIANGLE, mu, [x])
            h2 = projection_support(TRIANGLE, mu, [x, x])
            assert h2 == pytest.approx(h1, rel=1e-12)

    def test_positive_homogeneity(self):
        body = ProjectionBody(TRIANGLE, LEB2, 2)
        rng = rng_for(42, "proj-homog")
        for _ in range(20):
            x = rng.standard_normal(4)
            c = float(rng.uniform(0.1, 5.0))
            assert body.support(c * x) == pytest.approx(c * body.support(x),
                                                        abs=1e-12)

    def test_sublinearity(self):
        body = ProjectionBody(SQUARE, LEB2, 2)
        rng = rng_for(42, "proj-sublinear")
        for _ in range(50):
            x, y = rng.standard_normal((2, 4))
            assert body.support(x + y) <= body.support(x) + body.support(y) + 1e-9

    def test_batch_matches_scalar(self):
        body = ProjectionBody(TRIANGLE, LEB2, 2)
        rng = rng_for(42, "proj-batch")
        flats = rng.standard_normal((10, 4))
        batch = body.support_batch(flats)
        for row, val in zip(flats, batch):
            assert body.support(row) == pytest.approx(float(val), rel=1e-14)


class TestPolar:
    def test_square_polar_radial(self):
        theta = MDirection(np.array([[1.0, 0.0]]))
        assert polar_projection_radial(SQUARE, LEB2, theta) == pytest.approx(
            1.0, abs=1e-12)

    def test_zero_support_raises(self):
        # phi(x) = x1 wipes out the x1 = 0 facet atom, so no atom opposes e1
        mu = WeightedMeasure(LinearPowerDensity(np.array([1.0, 0.0])))
        with pytest.raises(DegenerateMeasureError):
            ProjectionBody(SQUARE, mu, 1).polar_radial(
                MDirection(np.array([[1.0, 0.0]])))

    def test_triangle_polar_volume_exact(self):
        # vol(K) * vol(polar projection body) = 3/2 on the triangle
        assert polar_projection_volume(TRIANGLE, LEB2, 1) == pytest.approx(
            3.0, abs=1e-9)

    def test_square_polar_volume_exact(self):
        # h(u) = |u1| + |u2|, so the polar body is the cross-polytope
        assert polar_projection_volume(SQUARE, LEB2, 1) == pytest.approx(
            2.0, abs=1e-9)

    def test_quad_required_above_four(self):
        with pytest.raises(InputError):
            polar_projection_volume(Polytope.named("simplex", 3),
                                    WeightedMeasure.lebesgue(3), 2)

    def test_triangle_second_order_volume(self):
        quad = sphere_quadrature(4, count=100_000, seed=42)
        got = polar_projection_volume(TRIANGLE, LEB2, 2, quad)
        assert got == pytest.approx(15.0 / 4.0, rel=0.02)

    @pytest.mark.parametrize("K, m, product", [
        (TRIANGLE, 2, 15.0 / 16.0),
        (Polytope.named("simplex", 3), 1, 20.0 / 27.0)])
    def test_simplex_volume_product_exact(self, K, m, product):
        # Zhang's equality case: vol(K)^(nm - m) vol(polar Pi^m K) =
        # C(nm + n, n) / n^(nm) at a simplex
        mu = WeightedMeasure.lebesgue(K.dim)
        got = K.volume ** (K.dim * m - m) * polar_projection_volume(K, mu, m)
        assert got == pytest.approx(product, rel=1e-12)

    def test_antipodal_atoms_share_their_edges(self, monkeypatch):
        # the regular 12-gon's atoms form 6 antipodal pairs with parallel
        # edges, so 6 x 3 edge directions give C(18, 3) = 816 subsets, not
        # C(36, 3) = 7140, and the volume all 36 edges gave
        angles = 2.0 * np.pi * np.arange(12) / 12
        K = Polytope.from_vertices(np.c_[np.cos(angles), np.sin(angles)])
        sizes = []
        row_subsets = projection_mod._row_subsets

        def counted(rows, k):
            subsets = row_subsets(rows, k)
            sizes.append(len(subsets))
            return subsets

        monkeypatch.setattr(projection_mod, "_row_subsets", counted)
        assert polar_projection_volume(K, LEB2, 2) == pytest.approx(
            0.24610418369141557, rel=1e-12)
        assert sizes == [816]

    def test_exact_matches_sphere_rule_under_gaussian(self):
        # two independent routes: the hull of boundary points over the
        # candidate normals, and the seeded 200 000-node sphere rule
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        exact = polar_projection_volume(TRIANGLE, mu, 2)
        quad = sphere_quadrature(4, count=200_000, seed=42)
        assert exact == pytest.approx(polar_projection_volume(TRIANGLE, mu, 2, quad),
                                      rel=0.01)

    def test_exact_matches_sphere_rule_on_random_body(self):
        K = random_polytope(np.random.default_rng(5), 3, npoints=7)
        mu = WeightedMeasure.lebesgue(3)
        quad = sphere_quadrature(3, count=20_000)
        assert polar_projection_volume(K, mu, 1) == pytest.approx(
            polar_projection_volume(K, mu, 1, quad), rel=1e-3)

    def test_zero_support_volume_raises(self):
        mu = WeightedMeasure(LinearPowerDensity(np.array([1.0, 0.0])))
        with pytest.raises(DegenerateMeasureError):
            polar_projection_volume(SQUARE, mu, 1)

    def test_zhang_inclusion(self):
        # rho_D(theta) <= n vol(K) rho_polar(theta) for the constant density
        rng = rng_for(42, "zhang-inclusion")
        for K in (SQUARE, TRIANGLE):
            vol = K.volume
            for m in (1, 2):
                body = ProjectionBody(K, LEB2, m)
                dirs = rng.standard_normal((250, 2 * m))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                for u in dirs:
                    theta = MDirection(u.reshape(m, 2))
                    lhs = diffbody_radial(K, theta)
                    rhs = 2 * vol / body.support(theta)
                    assert lhs <= rhs + 1e-9


class TestVariational:
    def test_square_axis_lebesgue(self):
        theta = MDirection(np.array([[1.0, 0.0]]))
        rep = variational_check(SQUARE, LEB2, theta, tolerance=1e-6)
        assert rep.passed
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_triangle_second_order_random(self):
        rng = rng_for(42, "variational-m2")
        bar = rng.standard_normal((2, 2))
        theta = MDirection.normalized(bar)
        rep = variational_check(TRIANGLE, LEB2, theta, tolerance=1e-3)
        assert rep.passed

    def test_square_gaussian(self):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        theta = MDirection(np.array([[1.0, 0.0]]))
        rep = variational_check(SQUARE, mu, theta, tolerance=1e-3)
        assert rep.passed

    def test_bad_steps_rejected(self):
        theta = MDirection(np.array([[1.0, 0.0]]))
        with pytest.raises(InputError):
            variational_check(SQUARE, LEB2, theta, steps=(1e-2, 0.0))


class TestLinearCovariance:
    def test_identity_map_exact(self):
        T = LinearMap(np.eye(2))
        dirs = [MDirection.normalized(rng_bar) for rng_bar in
                rng_for(42, "lincov-id").standard_normal((10, 1, 2))]
        rep = linear_covariance_check(TRIANGLE, LEB2, T, dirs)
        assert rep.passed
        assert all(row["rel_error"] < 1e-12 for row in rep.rows)

    def test_axis_scaling_square(self):
        T = LinearMap(np.diag([2.0, 1.0]))
        theta = MDirection(np.array([[1.0, 0.0]]))
        rep = linear_covariance_check(SQUARE, LEB2, T, [theta])
        assert rep.passed
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_second_order(self):
        mu = WeightedMeasure(GaussianDensity(2, 1.0))
        rng = rng_for(42, "lincov-gauss")
        T = LinearMap(np.array([[1.3, 0.4], [-0.2, 0.9]]))
        dirs = [MDirection.normalized(rng.standard_normal((2, 2)))
                for _ in range(20)]
        rep = linear_covariance_check(TRIANGLE, mu, T, dirs)
        assert rep.passed
        assert rep.tolerance == 1e-3

    def test_constant_density_tight_default(self):
        T = LinearMap(np.array([[1.0, 0.5], [0.0, 1.0]]))
        rng = rng_for(42, "lincov-shear")
        dirs = [MDirection.normalized(rng.standard_normal((1, 2)))
                for _ in range(20)]
        rep = linear_covariance_check(SQUARE, LEB2, T, dirs)
        assert rep.passed
        assert rep.tolerance == 1e-6

    def test_empty_dirs_rejected(self):
        with pytest.raises(InputError):
            linear_covariance_check(SQUARE, LEB2, LinearMap(np.eye(2)), [])
