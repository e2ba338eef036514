"""Weighted measures d(mu) = phi d(lambda): densities, integration over
polytopes, the weighted surface-area measure, and a midpoint spot-check of
a density's concavity class (s > 0, or None for log-concave).

A measure is its density; there is no integration strategy to choose. A
constant density c integrates exactly, as c * volume over a polytope and
c * area over a facet. Any other density uses a fixed per-simplex Gauss rule
(SIMPLEX_LEVEL = 12) on a triangulation of the polytope. No integral here
uses Monte Carlo; `oracle.mc_measure` is the independent Monte Carlo check.

Densities are assumed continuous on a neighborhood of the bodies they are
integrated over (facet integrals are otherwise ambiguous at jump points).
A density carries no concavity class: the check that relies on one states
it, and `check_concavity_tag` spot-checks it against the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._quad import segment_sums, simplex_rule, triangulate_vertices
from .errors import DegenerateMeasureError, InputError, job_field, job_number, spec_kind
from .oracle import rng_for
from .polytope import DEDUPE_BLOCK, LinearMap, Polytope, _volume_of_points

__all__ = [
    "Density", "ConstantDensity", "GaussianDensity",
    "LinearPowerDensity", "ProductDensity", "ComposedDensity",
    "WeightedMeasure", "FacetMeasure",
    "integrate_over_polytope", "weighted_surface_measure",
    "boundary_measure_total", "transform_measure",
    "density_from_spec", "check_concavity_tag",
]


class Density:
    """Nonnegative weight phi; subclasses implement pointwise evaluation."""

    dim: int
    radially_nondecreasing: bool

    def __call__(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compose_linear(self, M: np.ndarray) -> "Density":
        """The density x -> phi(M x)."""
        return ComposedDensity(self, M)


class ConstantDensity(Density):
    def __init__(self, dim: int, c: float = 1.0):
        if c <= 0:
            raise InputError("constant density must be positive")
        self.dim = dim
        self.c = float(c)
        self.radially_nondecreasing = True

    def __call__(self, X):
        return np.full(np.asarray(X).shape[0], self.c)

    def compose_linear(self, M):
        return self


class GaussianDensity(Density):
    """phi(x) = exp(-|x|^2 / (2 sigma^2)); log-concave, radially decreasing."""

    def __init__(self, dim: int, sigma: float = 1.0):
        if sigma <= 0:
            raise InputError("gaussian sigma must be positive")
        self.dim = dim
        self.sigma = float(sigma)
        self.radially_nondecreasing = False

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        return np.exp(-0.5 * (X * X).sum(axis=-1) / self.sigma**2)

    def compose_linear(self, M):
        M = np.asarray(M, dtype=float)
        MtM = M.T @ M
        c2 = MtM[0, 0]
        if np.abs(MtM - c2 * np.eye(self.dim)).max() < 1e-12 and c2 > 0:
            return GaussianDensity(self.dim, self.sigma / math.sqrt(c2))
        return ComposedDensity(self, M)


class LinearPowerDensity(Density):
    """phi(x) = (<a, x> + b)_+^k.

    As a measure weight on an n-dim body this is 1/(n+k)-concave (the density
    is 1/k-concave on its support). Radially nondecreasing only when b = 0.
    """

    def __init__(self, a: Sequence[float], b: float = 0.0, k: float = 1.0):
        self.a = np.asarray(a, dtype=float)
        self.a.setflags(write=False)
        self.dim = len(self.a)
        self.b = float(b)
        self.k = float(k)
        if self.k < 0:
            raise InputError("linear-power exponent must be >= 0")
        self.radially_nondecreasing = (self.b == 0.0)

    def __call__(self, X):
        v = np.maximum(np.asarray(X, dtype=float) @ self.a + self.b, 0.0)
        return v**self.k

    def compose_linear(self, M):
        return LinearPowerDensity(np.asarray(M, dtype=float).T @ self.a, self.b, self.k)


class ProductDensity(Density):
    """phi(x) = prod_i phi_i(x_i) over consecutive coordinate blocks."""

    def __init__(self, factors: Sequence[Density]):
        self.factors = tuple(factors)
        self.dim = sum(f.dim for f in self.factors)
        self.radially_nondecreasing = all(f.radially_nondecreasing for f in self.factors)

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        out = np.ones(X.shape[0])
        off = 0
        for f in self.factors:
            out *= f(X[:, off:off + f.dim])
            off += f.dim
        return out


class ComposedDensity(Density):
    """phi(M x) for an invertible M; closed under further composition."""

    def __init__(self, inner: Density, M: np.ndarray):
        self.inner = inner
        self.M = np.asarray(M, dtype=float)
        if self.M.shape != (inner.dim, inner.dim):
            raise InputError("composition matrix shape mismatch")
        self.M.setflags(write=False)
        self.dim = inner.dim
        self.radially_nondecreasing = inner.radially_nondecreasing

    def __call__(self, X):
        return self.inner(np.asarray(X, dtype=float) @ self.M.T)

    def compose_linear(self, M):
        return ComposedDensity(self.inner, self.M @ np.asarray(M, dtype=float))


# Gauss level of the per-simplex rule that integrates a non-constant density.
SIMPLEX_LEVEL = 12


@dataclass(frozen=True)
class WeightedMeasure:
    """The measure phi d(lambda); it integrates as the module docstring says."""

    density: Density

    @property
    def dim(self) -> int:
        return self.density.dim

    @property
    def exact(self) -> bool:
        """True when the density is constant, so that integrals over
        polytopes and facets are exact multiples of volume and area."""
        return isinstance(self.density, ConstantDensity)

    @staticmethod
    def lebesgue(dim: int) -> "WeightedMeasure":
        return WeightedMeasure(ConstantDensity(dim))

    def mass(self, P: Polytope | None) -> float:
        return integrate_over_polytope(self, P)


def integrate_over_polytope(mu: WeightedMeasure, P: Polytope | None) -> float:
    """mu(P); 0 for empty/degenerate P. Under a constant density c it is c
    times the body's volume, which needs no triangulation."""
    if P is None or P.is_degenerate:
        return 0.0
    if mu.exact:
        return mu.density.c * P.volume
    return float(_integrate_points(mu, P.dim, P.vertices, [len(P.vertices)], P.slack)[0])


def _integrate_points(mu: WeightedMeasure, dim: int, pts: np.ndarray, sizes,
                      slack: np.ndarray | None = None) -> np.ndarray:
    """Integral of the density over the convex hull of each vertex set,
    the runs of pts of sizes[i] points, in R^3 triangulated from its rows'
    slack (`triangulate_vertices`); 0 for a lower-dimensional set.
    Under a non-constant density the simplex rule runs on whole sets, as
    many per call as keep its nodes within DEDUPE_BLOCK floats, and each
    set's sum reads its own nodes alone."""
    if mu.exact:
        return mu.density.c * _volume_of_points(dim, pts, sizes, slack)
    simplices, counts = triangulate_vertices(dim, pts, sizes, slack)
    nodes = SIMPLEX_LEVEL ** dim  # per simplex
    step = max(1, DEDUPE_BLOCK // max(1, int(counts.max(initial=0)) * nodes * dim))
    out = np.zeros(len(counts))
    first = 0
    for s in range(0, len(counts), step):
        part = counts[s:s + step]
        last = first + int(part.sum())
        if last > first:
            X, w = simplex_rule(simplices[first:last], SIMPLEX_LEVEL)
            out[s:s + step] = segment_sums(w * mu.density(X), part * nodes)
        first = last
    return out


# -- weighted surface-area measure ------------------------------------------


@dataclass(frozen=True)
class FacetMeasure:
    """Finitely supported surface measure: one atom (normal, weight) per facet."""

    normals: np.ndarray  # (F, n)
    weights: np.ndarray  # (F,)

    def __post_init__(self):
        if (self.weights < -1e-12).any():
            raise DegenerateMeasureError("negative facet weight")
        self.normals.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def weighted_surface_measure(K: Polytope, mu: WeightedMeasure) -> FacetMeasure:
    """S^mu_K: per-facet integrals of the density against surface measure."""
    if K.is_degenerate:
        raise InputError("surface measure needs a body")
    density = mu.density
    normals = np.array([f.normal for f in K.facets])
    weights = np.empty(len(K.facets))
    # Gauss level of the facet rule: 2-D facets are edges, 3-D facets fans
    level = 24 if K.dim == 2 else 12
    for i, f in enumerate(K.facets):
        ring = f.vertices
        if mu.exact:
            weights[i] = density.c * f.area
        elif K.dim == 1:
            weights[i] = float(density(ring)[0])
        elif K.dim in (2, 3):
            # a 2-D facet is one edge; a 3-D facet polygon is fanned into
            # triangles from its first vertex
            fan = ([[0, len(ring) - 1]] if K.dim == 2 else
                   [[0, j, j + 1] for j in range(1, len(ring) - 1)])
            pts, w = simplex_rule(ring[fan], level)
            weights[i] = float(w @ density(pts))
        else:
            raise InputError(f"surface measure unsupported in dim {K.dim}")
    return FacetMeasure(normals, weights)


def boundary_measure_total(K: Polytope, mu: WeightedMeasure) -> float:
    """mu^+(dK): total mass of the weighted surface-area measure."""
    return weighted_surface_measure(K, mu).total


def transform_measure(mu: WeightedMeasure, T: LinearMap) -> WeightedMeasure:
    """The measure with density x -> phi(T x)."""
    return WeightedMeasure(mu.density.compose_linear(T.matrix))


# Midpoint pairs drawn by check_concavity_tag.
CONCAVITY_PAIRS = 200


def check_concavity_tag(density: Density, s: float | None,
                        box: tuple[Sequence[float], Sequence[float]],
                        seed: int = 42) -> tuple[bool, str]:
    """Spot-check that the density is s-concave (s > 0), or log-concave
    (s None), by midpoint tests inside the box.

    s > 1/n fails for every density, and a constant density, which is
    log-concave and s-concave for every s <= 1/n, passes without a sample.
    Otherwise s = 1/n demands a constant density; s < 1/n checks midpoint
    concavity of phi^gamma with gamma = s/(1 - n s) on pairs where phi > 0;
    log-concave checks midpoint concavity of log phi.
    """
    if s is not None and s <= 0:
        raise InputError("s-concavity needs s > 0")
    n = density.dim
    if s is not None and s >= 1.0 / n + 1e-12:
        return False, f"s = {s} > 1/n is infeasible for a density on R^{n}"
    if isinstance(density, ConstantDensity):
        return True, "a constant density is log-concave and s-concave for s <= 1/n"
    pairs = CONCAVITY_PAIRS
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rng = rng_for(seed, "concavity-spotcheck")
    X = lo + (hi - lo) * rng.random((4 * pairs, n))
    vals = density(X)
    if s is None:
        mask = vals > 0
        X = X[mask]
        if len(X) < 2 * pairs:
            return False, "density vanishes on too much of the test box"
        A, B = X[:pairs], X[pairs:2 * pairs]
        mid = 0.5 * (A + B)
        lhs = np.log(density(mid))
        rhs = 0.5 * (np.log(density(A)) + np.log(density(B)))
        bad = int((lhs < rhs - 1e-9).sum())
        return bad == 0, f"log-concavity midpoint check: {bad} violations / {pairs}"
    if abs(s - 1.0 / n) < 1e-12:
        spread = float(vals.max() - vals.min())
        ok = spread <= 1e-9 * max(1.0, float(vals.max()))
        return ok, f"s = 1/n requires constant density (spread {spread:.2e})"
    gamma = s / (1.0 - n * s)
    mask = vals > 1e-12
    X = X[mask]
    if len(X) < 2 * pairs:
        return False, "density vanishes on too much of the test box"
    A, B = X[:pairs], X[pairs:2 * pairs]
    mid = 0.5 * (A + B)
    lhs = density(mid)**gamma
    rhs = 0.5 * (density(A)**gamma + density(B)**gamma)
    bad = int((lhs < rhs - 1e-9).sum())
    return bad == 0, f"{gamma:.3g}-concavity midpoint check: {bad} violations / {pairs}"


def density_from_spec(spec: dict, dim: int | None = None) -> Density:
    """Parse the density input schema; with `dim` given, the density must
    live in R^dim."""
    density = _density_of_spec(spec, dim)
    if dim is not None and density.dim != dim:
        raise InputError(f"the density spec gives a density on R^{density.dim}, "
                         f"where R^{dim} is needed")
    return density


def _density_of_spec(spec: dict, dim: int | None) -> Density:
    kind = spec_kind(spec, "density", {"constant": {"c"}, "gaussian": {"sigma"},
                                       "linear-power": {"a", "b", "k"},
                                       "product": {"factors", "dims"}})
    if kind == "constant":
        if dim is None:
            raise InputError("constant density needs an ambient dimension")
        return ConstantDensity(dim, job_number(spec.get("c", 1.0), "density c"))
    if kind == "gaussian":
        if dim is None:
            raise InputError("gaussian density needs an ambient dimension")
        return GaussianDensity(dim, job_number(spec.get("sigma", 1.0), "density sigma"))
    if kind == "linear-power":
        return LinearPowerDensity(job_number(job_field(spec, "a", "a linear-power density"),
                                             "density a", 1),
                                  job_number(spec.get("b", 0.0), "density b"),
                                  job_number(spec.get("k", 1.0), "density k"))
    specs = job_field(spec, "factors", "a product density")
    if not isinstance(specs, list):
        raise InputError(f"density factors must be a list, got {specs!r}")
    dims = job_number(spec.get("dims", []), "density dims", 1)
    if len(dims) and len(dims) != len(specs):
        raise InputError("density dims must give one dimension per factor")
    factors = []
    for i, f in enumerate(specs):
        fdim = int(dims[i]) if len(dims) else None
        factors.append(density_from_spec(f, fdim))
    return ProductDensity(factors)
