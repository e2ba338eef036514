"""Monte Carlo measure oracle and sphere quadrature rules."""

import math

import numpy as np
import pytest

from covbody import oracle
from covbody.errors import InputError
from covbody.oracle import mc_measure, rng_for, sphere_quadrature
from helpers import gauss_box_mass

SPHERE_AREA_3 = 4.0 * math.pi
SPHERE_AREA_4 = 2.0 * math.pi**2


class TestRng:
    def test_deterministic(self):
        a = rng_for(42, "x").standard_normal(5)
        b = rng_for(42, "x").standard_normal(5)
        assert np.array_equal(a, b)

    def test_tag_separates_streams(self):
        a = rng_for(42, "x").standard_normal(5)
        b = rng_for(42, "y").standard_normal(5)
        assert not np.array_equal(a, b)


class TestSphereQuadrature:
    def test_dim_validation(self):
        with pytest.raises(InputError):
            sphere_quadrature(1)

    def test_circle_total_measure(self):
        quad = sphere_quadrature(2, 256, 42)
        assert quad.weights.sum() == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert np.allclose(np.linalg.norm(quad.nodes, axis=1), 1.0)

    def test_circle_moment(self):
        # int cos^2 over S^1 = pi; midpoint rule is spectrally accurate
        quad = sphere_quadrature(2, 256, 42)
        val = float(quad.weights @ quad.nodes[:, 0] ** 2)
        assert val == pytest.approx(math.pi, abs=1e-12)

    def test_fibonacci_abs_moment(self):
        # int_{S^2} |u_3| du = 2 pi (two polar caps of int |cos| sin dphi = 1)
        quad = sphere_quadrature(3, 10_000, 42)
        assert quad.weights.sum() == pytest.approx(SPHERE_AREA_3, rel=1e-12)
        val = float(quad.weights @ np.abs(quad.nodes[:, 2]))
        assert val == pytest.approx(2.0 * math.pi, rel=1e-3)

    def test_gaussian_directions_second_moment(self):
        # int <u, e_1>^2 over S^3 = |S^3| / 4
        count = 200_000
        quad = sphere_quadrature(4, count, 42)
        assert quad.weights.sum() == pytest.approx(SPHERE_AREA_4, rel=1e-12)
        samples = quad.nodes[:, 0] ** 2
        val = float(quad.weights @ samples)
        stderr = SPHERE_AREA_4 * float(samples.std()) / math.sqrt(count)
        assert abs(val - SPHERE_AREA_4 / 4.0) <= 3.0 * stderr

    def test_seed_reproducibility(self):
        a = sphere_quadrature(4, 1000, 7)
        b = sphere_quadrature(4, 1000, 7)
        assert np.array_equal(a.nodes, b.nodes)


class TestMcMeasure:
    def test_unit_square_in_larger_box(self):
        est, err = mc_measure(
            lambda X: np.ones(len(X)),
            lambda X: ((X >= 0.0) & (X <= 1.0)).all(axis=1),
            ([-1.0, -1.0], [2.0, 2.0]), n_samples=1_000_000, seed=42)
        assert abs(est - 1.0) <= 3.0 * err

    def test_triangle(self):
        est, err = mc_measure(
            lambda X: np.ones(len(X)),
            lambda X: (X >= 0.0).all(axis=1) & (X.sum(axis=1) <= 1.0),
            ([0.0, 0.0], [1.0, 1.0]), n_samples=400_000, seed=42)
        assert abs(est - 0.5) <= 3.0 * err

    def test_gaussian_on_unit_box(self):
        target = gauss_box_mass(1.0, [0.0, 0.0], [1.0, 1.0])
        est, err = mc_measure(
            lambda X: np.exp(-0.5 * (X * X).sum(axis=1)),
            lambda X: np.ones(len(X), dtype=bool),
            ([0.0, 0.0], [1.0, 1.0]), n_samples=400_000, seed=42)
        assert abs(est - target) <= 3.0 * err

    def test_empty_box_rejected(self):
        with pytest.raises(InputError):
            mc_measure(lambda X: np.ones(len(X)),
                       lambda X: np.ones(len(X), dtype=bool),
                       ([1.0], [0.0]))

    def test_stderr_halves_with_4x_samples(self):
        kw = dict(density=lambda X: np.ones(len(X)),
                  membership=lambda X: (X.sum(axis=1) <= 1.0),
                  box=([0.0, 0.0], [1.0, 1.0]))
        _, e1 = mc_measure(kw["density"], kw["membership"], kw["box"],
                           n_samples=50_000, seed=42, tag="half-a")
        _, e2 = mc_measure(kw["density"], kw["membership"], kw["box"],
                           n_samples=200_000, seed=42, tag="half-b")
        assert e2 == pytest.approx(e1 / 2.0, rel=0.3)

    def test_deterministic(self):
        args = (lambda X: np.ones(len(X)),
                lambda X: (X.sum(axis=1) <= 1.0),
                ([0.0, 0.0], [1.0, 1.0]))
        assert mc_measure(*args, seed=9) == mc_measure(*args, seed=9)

    def test_the_chunks_change_no_bit(self, monkeypatch):
        # the samples are drawn once; membership and density take them a
        # chunk at a time
        seen = []

        def member(X):
            seen.append(len(X))
            return (X @ np.array([1.0, 2.0, -0.5]) <= 1.0)

        args = (lambda X: np.exp(-0.5 * (X * X).sum(axis=1)), member,
                ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]))
        whole = mc_measure(*args, n_samples=5000, seed=3)
        assert seen == [5000]
        for budget in (3, 3 * 777, 3 * 4999):
            monkeypatch.setattr(oracle, "DEDUPE_BLOCK", budget)
            seen.clear()
            assert mc_measure(*args, n_samples=5000, seed=3) == whole
            assert max(seen) == budget // 3 and sum(seen) == 5000
