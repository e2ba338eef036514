"""Polytope primitives: representations, volume, support/radial, linear maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbody import polytope
from covbody.errors import InputError
from covbody.oracle import mc_measure, rng_for, sphere_quadrature
from covbody.polytope import (LinearMap, Polytope, StarBodyFn, apply_linear,
                              intersect_translates, star_volume)
from helpers import random_polytope

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)
CENTERED_SQUARE = Polytope.from_vertices(
    [[-1, -1], [1, -1], [1, 1], [-1, 1]])


class TestConstruction:
    def test_named_bodies(self):
        assert Polytope.named("cube", 3).volume == pytest.approx(1.0, abs=1e-12)
        assert TRIANGLE.volume == pytest.approx(0.5, abs=1e-12)
        assert Polytope.named("cross", 2).volume == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(InputError):
            Polytope.named("cube", 4)
        with pytest.raises(InputError):
            Polytope.named("octahedron", 3)

    def test_halfspace_vertex_roundtrip(self):
        # H-rep -> vertices -> H-rep preserves the support function
        P = Polytope.from_vertices([[0, 0], [2, 0], [2, 1], [0.5, 1.5]])
        Q = Polytope.from_halfspaces((P.A, P.b))
        rng = rng_for(42, "roundtrip")
        for _ in range(100):
            u = rng.standard_normal(2)
            assert Q.support(u) == pytest.approx(P.support(u), abs=1e-9)

    def test_unbounded_rejected(self):
        with pytest.raises(InputError):
            Polytope.from_halfspaces(([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]))

    def test_from_spec(self):
        P = Polytope.from_spec({"type": "named", "name": "simplex", "dim": 2})
        assert P.volume == pytest.approx(0.5)
        Q = Polytope.from_spec({"type": "vrep",
                                "vertices": [[0, 0], [1, 0], [0, 1]]})
        assert Q.volume == pytest.approx(0.5)
        with pytest.raises(InputError):
            Polytope.from_spec({"vertices": [[0, 0], [1, 0], [0, 1]]})


class TestIntersectTranslates:
    def test_empty_shift_list(self):
        P = intersect_translates(SQUARE, [])
        assert P is not None
        assert P.volume == pytest.approx(1.0, abs=1e-12)

    def test_axis_shift(self):
        P = intersect_translates(SQUARE, [(0.5, 0.0)])
        assert P.volume == pytest.approx(0.5, abs=1e-12)
        assert P.support([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert P.support([-1.0, 0.0]) == pytest.approx(-0.5, abs=1e-12)

    def test_disjoint(self):
        assert intersect_translates(TRIANGLE, [(2.0, 2.0)]) is None

    def test_two_shifts(self):
        P = intersect_translates(SQUARE, [(0.5, 0.0), (0.0, 0.5)])
        assert P.volume == pytest.approx(0.25, abs=1e-12)


class TestVolume:
    def test_hexagon_difference_body(self):
        # DK of the standard triangle: C(4,2) * vol(K) = 6 * 0.5
        hexagon = Polytope.from_vertices(
            [[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]])
        assert hexagon.volume == pytest.approx(3.0, abs=1e-12)

    def test_degenerate_is_zero(self):
        # translates that share only an edge meet in a segment
        P = intersect_translates(SQUARE, [(1.0, 0.0)])
        assert P.is_degenerate and P.volume == 0.0

    def test_against_mc_oracle(self):
        # acceptance: exact volume within 3 standard errors on random bodies
        from helpers import random_polytope
        rng = rng_for(42, "volume-oracle")
        for case in range(20):
            P = random_polytope(rng, int(rng.integers(2, 4)))
            lo, hi = P.bounding_box()
            est, err = mc_measure(
                lambda X: np.ones(len(X)),
                lambda X: (X @ P.A.T <= P.b[None, :] + 1e-12).all(axis=1),
                (lo, hi), n_samples=200_000, seed=42, tag=f"vol-{case}")
            assert abs(P.volume - est) <= 3.0 * err + 1e-12


class TestSupportRadial:
    def test_support_values(self):
        assert CENTERED_SQUARE.support([1.0, 0.0]) == pytest.approx(1.0)
        assert TRIANGLE.support([1.0, 1.0]) == pytest.approx(1.0)
        assert TRIANGLE.support([0.0, 0.0]) == pytest.approx(0.0)

    def test_radial_values(self):
        o = np.zeros(2)
        assert CENTERED_SQUARE.radial([1.0, 0.0], o) == pytest.approx(1.0)
        d = np.array([1.0, 1.0]) / math.sqrt(2)
        assert CENTERED_SQUARE.radial(d, o) == pytest.approx(math.sqrt(2))
        assert TRIANGLE.radial([1.0, 0.0], [0.25, 0.25]) == pytest.approx(0.5)

    def test_radial_needs_interior_base(self):
        with pytest.raises(InputError):
            TRIANGLE.radial([1.0, 0.0], [2.0, 2.0])

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_radial_scales_with_body(self, c):
        T = LinearMap(c * np.eye(2))
        P = apply_linear(T, CENTERED_SQUARE)
        u = np.array([0.6, 0.8])
        assert P.radial(u, np.zeros(2)) == pytest.approx(
            c * CENTERED_SQUARE.radial(u, np.zeros(2)), rel=1e-9)

    def test_boundary_point_on_ray(self):
        rng = rng_for(42, "radial-boundary")
        for _ in range(50):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            base = np.array([0.25, 0.25])
            r = TRIANGLE.radial(u, base)
            x = base + r * u
            assert np.max(TRIANGLE.A @ x - TRIANGLE.b) == pytest.approx(
                0.0, abs=1e-9)


class TestLinearMap:
    def test_identity(self):
        P = apply_linear(LinearMap(np.eye(2)), TRIANGLE)
        assert P.volume == pytest.approx(TRIANGLE.volume, abs=1e-12)

    def test_scaling(self):
        P = apply_linear(LinearMap(2.0 * np.eye(2)), SQUARE)
        assert P.volume == pytest.approx(4.0, abs=1e-9)
        assert P.support([1.0, 0.0]) == pytest.approx(2.0)

    def test_determinant_scales_volume(self):
        T = LinearMap(np.array([[2.0, 0.3], [0.0, 1.0]]))
        P = apply_linear(T, TRIANGLE)
        assert P.volume == pytest.approx(T.det_abs * TRIANGLE.volume, rel=1e-9)

    def test_singular_rejected(self):
        with pytest.raises(InputError):
            LinearMap(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_support_adjoint_identity(self):
        rng = rng_for(42, "adjoint")
        for _ in range(20):
            M = rng.standard_normal((2, 2))
            if abs(np.linalg.det(M)) < 0.1:
                continue
            u = rng.standard_normal(2)
            P = apply_linear(LinearMap(M), TRIANGLE)
            assert P.support(u) == pytest.approx(
                TRIANGLE.support(M.T @ u), rel=1e-9, abs=1e-12)


class TestFacets:
    def test_cube_surface_area(self):
        total = sum(f.area for f in Polytope.named("cube", 3).facets)
        assert total == pytest.approx(6.0, abs=1e-9)

    def test_triangle_facets(self):
        areas = sorted(f.area for f in TRIANGLE.facets)
        assert areas == pytest.approx([1.0, 1.0, math.sqrt(2)], abs=1e-9)

    def test_facet_vertices_on_hyperplane(self):
        for f in Polytope.named("cross", 3).facets:
            for v in f.vertices:
                n = np.asarray(f.normal)
                assert np.dot(n, v) == pytest.approx(
                    np.dot(n, f.vertices[0]), abs=1e-9)


class TestStarVolume:
    def test_disk(self):
        quad = sphere_quadrature(2, 512, 42)
        assert star_volume(StarBodyFn.ball(2), quad) == pytest.approx(
            math.pi, rel=1e-9)

    def test_square_radial(self):
        quad = sphere_quadrature(2, 4096, 42)
        S = StarBodyFn.of_polytope(CENTERED_SQUARE, np.zeros(2))
        assert star_volume(S, quad) == pytest.approx(4.0, rel=1e-3)

    def test_nonpositive_radial_rejected(self):
        quad = sphere_quadrature(2, 64, 42)
        bad = StarBodyFn(2, lambda dirs: np.full(len(dirs), -1.0))
        with pytest.raises(InputError):
            star_volume(bad, quad)

    def test_mc_rule_ball_volume(self):
        quad = sphere_quadrature(4, 20_000, 42)
        val = star_volume(StarBodyFn.ball(4), quad)
        assert val == pytest.approx(math.pi**2 / 2, rel=3e-2)


def test_radii_are_the_same_bits_in_any_chunk(monkeypatch):
    # the directions go a chunk of DEDUPE_BLOCK floats of ratios at a time
    P = random_polytope(rng_for(3, "radial-chunks"), 3, 12)
    dirs = sphere_quadrature(3, count=999).nodes
    whole = P.radial_batch(dirs)
    np.testing.assert_array_equal([P.radial(u) for u in dirs[:50]], whole[:50])
    for budget in (1, len(P.A) * 7, len(P.A) * 500 + 3):
        monkeypatch.setattr(polytope, "DEDUPE_BLOCK", budget)
        np.testing.assert_array_equal(P.radial_batch(dirs), whole)
