"""Weighted measures d(mu) = phi d(lambda): densities with concavity metadata,
integration over polytopes, and the weighted surface-area measure.

A measure is its density; there is no integration strategy to choose. A
constant density c integrates exactly, as c * volume over a polytope and
c * area over a facet. Any other density uses a fixed per-simplex Gauss rule
(SIMPLEX_LEVEL = 12) on a triangulation of the polytope. No integral here
uses Monte Carlo; `oracle.mc_measure` is the independent Monte Carlo check.

Densities are assumed continuous on a neighborhood of the bodies they are
integrated over (facet integrals are otherwise ambiguous at jump points).
The concavity metadata is declarative and spot-checkable, never proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._quad import gauss_01, simplex_rule, triangulate_vertices
from .errors import DegenerateMeasureError, InputError, NumericError
from .oracle import rng_for
from .polytope import LinearMap, Polytope

__all__ = [
    "Concavity", "Density", "ConstantDensity", "GaussianDensity",
    "LinearPowerDensity", "ProductDensity", "ComposedDensity",
    "WeightedMeasure", "FacetMeasure", "ConcavityF",
    "integrate_over_polytope", "weighted_surface_measure",
    "boundary_measure_total", "parallel_body_difference", "transform_measure",
    "density_from_spec", "power_concavity", "log_concavity",
    "check_concavity_tag",
]


@dataclass(frozen=True)
class Concavity:
    """Declared concavity class of a measure: s-concave, log-concave,
    F-concave (named), or none."""

    kind: str  # "s" | "log" | "f" | "none"
    s: float | None = None
    tag: str | None = None

    def __post_init__(self):
        if self.kind not in ("s", "log", "f", "none"):
            raise InputError(f"unknown concavity kind {self.kind!r}")
        if self.kind == "s" and (self.s is None or self.s <= 0):
            raise InputError("s-concavity needs s > 0")


class Density:
    """Nonnegative weight phi; subclasses implement pointwise evaluation."""

    dim: int
    concavity: Concavity
    radially_nondecreasing: bool

    def __call__(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compose_linear(self, M: np.ndarray) -> "Density":
        """The density x -> phi(M x)."""
        return ComposedDensity(self, M)


class ConstantDensity(Density):
    def __init__(self, dim: int, c: float = 1.0, concavity: Concavity | None = None):
        if c <= 0:
            raise InputError("constant density must be positive")
        self.dim = dim
        self.c = float(c)
        self.concavity = concavity or Concavity("s", 1.0 / dim)
        self.radially_nondecreasing = True

    def __call__(self, X):
        return np.full(np.asarray(X).shape[0], self.c)

    def compose_linear(self, M):
        return self


class GaussianDensity(Density):
    """phi(x) = exp(-|x|^2 / (2 sigma^2)); log-concave, radially decreasing."""

    def __init__(self, dim: int, sigma: float = 1.0, concavity: Concavity | None = None):
        if sigma <= 0:
            raise InputError("gaussian sigma must be positive")
        self.dim = dim
        self.sigma = float(sigma)
        self.concavity = concavity or Concavity("log")
        self.radially_nondecreasing = False

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        return np.exp(-0.5 * (X * X).sum(axis=-1) / self.sigma**2)

    def compose_linear(self, M):
        M = np.asarray(M, dtype=float)
        MtM = M.T @ M
        c2 = MtM[0, 0]
        if np.abs(MtM - c2 * np.eye(self.dim)).max() < 1e-12 and c2 > 0:
            return GaussianDensity(self.dim, self.sigma / math.sqrt(c2), self.concavity)
        return ComposedDensity(self, M)


class LinearPowerDensity(Density):
    """phi(x) = (<a, x> + b)_+^k.

    As a measure weight on an n-dim body this is 1/(n+k)-concave (the density
    is 1/k-concave on its support). Radially nondecreasing only when b = 0.
    """

    def __init__(self, a: Sequence[float], b: float = 0.0, k: float = 1.0,
                 concavity: Concavity | None = None):
        self.a = np.asarray(a, dtype=float)
        self.a.setflags(write=False)
        self.dim = len(self.a)
        self.b = float(b)
        self.k = float(k)
        if self.k < 0:
            raise InputError("linear-power exponent must be >= 0")
        self.concavity = concavity or Concavity("s", 1.0 / (self.dim + self.k))
        self.radially_nondecreasing = (self.b == 0.0)

    def __call__(self, X):
        v = np.maximum(np.asarray(X, dtype=float) @ self.a + self.b, 0.0)
        return v**self.k

    def compose_linear(self, M):
        return LinearPowerDensity(np.asarray(M, dtype=float).T @ self.a, self.b,
                                  self.k, self.concavity)


class ProductDensity(Density):
    """phi(x) = prod_i phi_i(x_i) over consecutive coordinate blocks."""

    def __init__(self, factors: Sequence[Density], concavity: Concavity | None = None):
        self.factors = tuple(factors)
        self.dim = sum(f.dim for f in self.factors)
        self.concavity = concavity or Concavity("none")
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
        self.concavity = inner.concavity  # affine-invariant classes
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
    """mu(P); 0 for empty/degenerate P."""
    if P is None or P.is_degenerate:
        return 0.0
    return _integrate_points(mu, P.dim, P.vertices)


def _integrate_points(mu: WeightedMeasure, dim: int, pts: np.ndarray) -> float:
    """Integral of the density over the convex hull of pts."""
    if mu.exact:
        from .polytope import _volume_of_points

        return mu.density.c * _volume_of_points(dim, pts)
    try:
        simplices = triangulate_vertices(dim, pts)
    except NumericError:
        return 0.0
    X, w = simplex_rule(np.asarray(simplices), SIMPLEX_LEVEL)
    return float(w @ mu.density(X))


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


def parallel_body_difference(K: Polytope, mu: WeightedMeasure,
                             eps: float = 1e-3) -> float:
    """(mu(K + eps B) - mu(K)) / eps, for cross-validating the boundary mass.

    The outer shell is decomposed exactly: facet prisms plus vertex sectors
    (n = 2, any density; n = 1 likewise), or the Steiner formula (n = 3,
    constant density).
    """
    density = mu.density
    if K.dim == 1:
        lo, hi = K.vertices.min(), K.vertices.max()
        u, w = gauss_01(32)
        left = (lo - eps) + eps * u
        right = hi + eps * u
        total = eps * float(w @ density(left[:, None]) + w @ density(right[:, None]))
        return total / eps
    if K.dim == 2:
        total = 0.0
        u, w = gauss_01(24)
        for f in K.facets:
            a, b = f.vertices[0], f.vertices[-1]
            s, t = np.meshgrid(u, u, indexing="ij")
            pts = a + s[..., None] * (b - a) + (eps * t)[..., None] * f.normal
            wt = np.outer(w, w) * np.linalg.norm(b - a) * eps
            total += float(wt.ravel() @ density(pts.reshape(-1, 2)))
        # vertex sectors: wedge between the two adjacent facet normals
        for v in K.vertices:
            adj = [f for f in K.facets
                   if np.abs(f.normal @ v - f.offset) < 1e-9]
            if len(adj) != 2:
                raise NumericError("vertex with != 2 incident edges")
            a0 = math.atan2(adj[0].normal[1], adj[0].normal[0])
            a1 = math.atan2(adj[1].normal[1], adj[1].normal[0])
            span = (a1 - a0) % (2.0 * math.pi)
            if span > math.pi:
                a0, span = a1, 2.0 * math.pi - span
            phi = a0 + span * u
            r = eps * u
            R, PHI = np.meshgrid(r, phi, indexing="ij")
            pts = np.stack([v[0] + R * np.cos(PHI), v[1] + R * np.sin(PHI)], axis=-1)
            wt = np.outer(eps * w * r, span * w)  # r dr dphi
            total += float(wt.ravel() @ density(pts.reshape(-1, 2)))
        return total / eps
    if K.dim == 3 and mu.exact:
        surf = sum(f.area for f in K.facets)
        edge_term = 0.0
        for i in range(len(K.facets)):
            for j in range(i + 1, len(K.facets)):
                fi, fj = K.facets[i], K.facets[j]
                shared = [v for v in fi.vertices
                          if np.abs(fj.normal @ v - fj.offset) < 1e-9
                          and np.abs(fi.normal @ v - fi.offset) < 1e-9]
                shared = np.array(shared)
                if len(shared) < 2:
                    continue
                d2 = np.linalg.norm(shared[:, None, :] - shared[None, :, :], axis=-1)
                length = float(d2.max())
                gamma = math.acos(float(np.clip(fi.normal @ fj.normal, -1, 1)))
                edge_term += length * gamma
        shell = surf * eps + 0.5 * edge_term * eps**2 + (4.0 * math.pi / 3.0) * eps**3
        return density.c * shell / eps
    raise InputError("parallel-body difference implemented for n <= 2 "
                     "(any density) and n = 3 (constant density)")


def transform_measure(mu: WeightedMeasure, T: LinearMap) -> WeightedMeasure:
    """The measure with density x -> phi(T x)."""
    return WeightedMeasure(mu.density.compose_linear(T.matrix))


# -- F-concavity scaffolding -------------------------------------------------


@dataclass(frozen=True)
class ConcavityF:
    """Strictly increasing F with inverse and derivative, on (lo, hi)."""

    name: str
    F: Callable[[float], float]
    F_inv: Callable[[float], float]
    F_prime: Callable[[float], float]
    lo: float = 0.0
    hi: float = math.inf

    def validate(self, samples: Sequence[float]) -> None:
        for y in samples:
            t = self.F_inv(y)
            if abs(self.F(t) - y) > 1e-9 * max(1.0, abs(y)):
                raise NumericError(f"{self.name}: F(F_inv(y)) != y at y={y}")
        for t in samples:
            if not (self.lo < t < self.hi):
                continue
            h = 1e-6 * max(1.0, abs(t))
            fd = (self.F(t + h) - self.F(t - h)) / (2 * h)
            fp = self.F_prime(t)
            if abs(fd - fp) > 1e-6 * max(1.0, abs(fp)):
                raise NumericError(f"{self.name}: F_prime mismatch at t={t}")


def power_concavity(s: float) -> ConcavityF:
    """F(t) = t^s on (0, inf); the s-concave case."""
    if s <= 0:
        raise InputError("power concavity needs s > 0")
    return ConcavityF(
        name=f"power({s})",
        F=lambda t: t**s,
        F_inv=lambda y: y ** (1.0 / s),
        F_prime=lambda t: s * t ** (s - 1.0),
    )


def log_concavity() -> ConcavityF:
    """Q(t) = log t on (0, inf); the log-concave case."""
    return ConcavityF(
        name="log",
        F=math.log,
        F_inv=math.exp,
        F_prime=lambda t: 1.0 / t,
    )


def check_concavity_tag(density: Density, box: tuple[Sequence[float], Sequence[float]],
                        pairs: int = 200, seed: int = 42) -> tuple[bool, str]:
    """Spot-check the declared concavity by midpoint tests inside the box.

    s-concave with s = 1/n demands a constant density; s < 1/n checks
    midpoint concavity of phi^gamma with gamma = s/(1 - n s) on pairs where
    phi > 0; log-concave checks midpoint concavity of log phi.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rng = rng_for(seed, "concavity-spotcheck")
    n = density.dim
    tag = density.concavity
    X = lo + (hi - lo) * rng.random((4 * pairs, n))
    vals = density(X)
    if tag.kind == "none":
        return True, "no concavity declared"
    if tag.kind == "log":
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
    if tag.kind == "s":
        s = tag.s
        if abs(s - 1.0 / n) < 1e-12:
            spread = float(vals.max() - vals.min())
            ok = spread <= 1e-9 * max(1.0, float(vals.max()))
            return ok, f"s = 1/n requires constant density (spread {spread:.2e})"
        if s > 1.0 / n:
            return False, f"s = {s} > 1/n is infeasible for a density on R^{n}"
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
    return True, "f-concavity tags are validated via their ConcavityF object"


def density_from_spec(spec: dict, dim: int | None = None) -> Density:
    """Parse the density input schema."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("density spec must be an object with a 'type'")
    concavity = None
    if "concavity" in spec:
        c = spec["concavity"]
        kind = c.get("kind")
        if kind == "s":
            concavity = Concavity("s", float(c["s"]))
        elif kind == "log":
            concavity = Concavity("log")
        elif kind == "none":
            concavity = Concavity("none")
        else:
            raise InputError(f"unknown concavity kind {kind!r}")
    kind = spec["type"]
    allowed = {"constant": {"type", "concavity", "c"},
               "gaussian": {"type", "concavity", "sigma"},
               "linear-power": {"type", "concavity", "a", "b", "k"},
               "product": {"type", "concavity", "factors", "dims"}}.get(kind)
    if allowed is None:
        raise InputError(f"unknown density type {kind!r}")
    extra = set(spec) - allowed
    if extra:
        raise InputError(f"unknown density spec keys {sorted(extra)}")
    if kind == "constant":
        if dim is None:
            raise InputError("constant density needs an ambient dimension")
        return ConstantDensity(dim, float(spec.get("c", 1.0)), concavity)
    if kind == "gaussian":
        if dim is None:
            raise InputError("gaussian density needs an ambient dimension")
        return GaussianDensity(dim, float(spec.get("sigma", 1.0)), concavity)
    if kind == "linear-power":
        return LinearPowerDensity(spec["a"], float(spec.get("b", 0.0)),
                                  float(spec.get("k", 1.0)), concavity)
    dims = spec.get("dims")
    factors = []
    for i, f in enumerate(spec["factors"]):
        fdim = dims[i] if dims else None
        factors.append(density_from_spec(f, fdim))
    return ProductDensity(factors, concavity)
