"""The inequality harness: sharp constants, inclusion chains, and volume-ratio
bounds for the difference-body / radial-mean / polar-projection operators.

A concavity class is one number, s > 0 for s-concave or None for
log-concave, and each sharp constant is a closed form in it: the
generalized binomial C(1/s + p, p) or Gamma(1 + p). The chain and ratio
checkers evaluate radial functions per direction and assert the monotone
orderings with split tolerances: near-exact slack on exact paths,
percent-level slack on quadrature paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quad import gauss_01, simplex_rule, triangulate_vertices
from .covariogram import CovRay, MDirection, diffbody_polytope, diffbody_star
from .errors import InputError, NumericError
from .measure import WeightedMeasure
from .oracle import sphere_quadrature
from .polytope import Polytope, StarBodyFn, star_volume
from .projection import EXACT_POLAR_DIM, ProjectionBody, polar_projection_volume
from .radialmean import rmb_radial_mellin
from .report import VerifyReport

__all__ = [
    "VerifyReport",
    "ChainSpec",
    "gen_binom",
    "berwald_const_F",
    "berwald_const_Q",
    "direction_mesh",
    "chain_check",
    "rogers_shephard_check",
    "zhang_check",
    "general_zhang_check",
]


def gen_binom(a: float, k: float) -> float:
    """Generalized binomial C(a+k, k) = Gamma(a+k+1)/(Gamma(a+1) Gamma(k+1)),
    for a, k and a + k all above -1, where every Gamma factor is positive;
    exact when a and k are integers."""
    if a <= -1 or k <= -1 or a + k <= -1:
        raise InputError("gen_binom needs a, k and a + k to exceed -1")
    if float(a).is_integer() and float(k).is_integer():
        return float(math.comb(int(a + k), int(k)))
    return math.exp(math.lgamma(a + k + 1.0) - math.lgamma(a + 1.0)
                    - math.lgamma(k + 1.0))


def berwald_const_F(s: float, p: float) -> float:
    """Sharp constant C(1/s + p, p)^(1/p) of the chains for an s-concave
    measure (F = t^s), the p-mean of F^(-1)[F(mu(K))(1 - t)] / mu(K)
    against t^(p-1) dt to the power -1/p; independent of mu(K)."""
    if s is None or s <= 0:
        raise InputError("the power constant needs s > 0")
    if p <= -1 or p == 0:
        raise InputError("p must lie in (-1, 0) or (0, inf)")
    return gen_binom(1.0 / s, p) ** (1.0 / p)


def berwald_const_Q(p: float) -> float:
    """Sharp constant Gamma(1 + p)^(-1/p) of the chains for a log-concave
    measure (Q = log), the same p-mean of Q^(-1)[Q(mu(K)) - t] / mu(K)
    = exp(-t) over (0, inf)."""
    if p <= -1 or p == 0:
        raise InputError("p must lie in (-1, 0) or (0, inf)")
    return math.exp(-math.lgamma(1.0 + p) / p)


def direction_mesh(d: int, count: int, seed: int = 42) -> np.ndarray:
    """Deterministic direction set on S^(d-1): low-discrepancy for d <= 3,
    seeded uniform beyond."""
    return sphere_quadrature(d, count=count, seed=seed).nodes


@dataclass(frozen=True)
class ChainSpec:
    """Which inclusion chain to run, and the concavity class its constants
    assume: branch "s" or "F" for an s-concave measure (s > 0; "F" is the
    same chain under F = t^s), "Q" for a log-concave one (s None; no
    difference-body term)."""

    branch: str
    p_list: tuple[float, ...]
    s: float | None = None
    m: int = 1
    directions: int = 200
    seed: int = 42
    slack: float | None = None  # None: pick by density class

    def __post_init__(self):
        if self.branch not in ("s", "F", "Q"):
            raise InputError(f"unknown chain branch {self.branch!r}")
        ps = tuple(float(p) for p in self.p_list)
        if not ps:
            raise InputError("p_list must be non-empty")
        if any(q <= -1 or q == 0 for q in ps):
            raise InputError("each p must lie in (-1, 0) or (0, inf)")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise InputError("p_list must be strictly increasing")
        if self.branch == "F" and self.s is None:
            raise InputError("the F-branch needs F^(-1)[F(mu(K))(1 - t)] -> 0 as t -> 1, "
                             "which F = log does not give; log-concave measures take "
                             "the Q-branch")
        if self.branch == "Q" and self.s is not None:
            raise InputError("the Q-branch needs Q^(-1)[Q(mu(K)) - t] for every t > 0, "
                             "which F = t^s does not give; s-concave measures take "
                             "the s- or F-branch")
        if self.branch != "Q" and (self.s is None or self.s <= 0):
            raise InputError(f"the {self.branch}-branch needs s > 0")
        if self.m < 1:
            raise InputError("m must be a positive integer")
        object.__setattr__(self, "p_list", ps)


def chain_check(K: Polytope, mu: WeightedMeasure, spec: ChainSpec) -> VerifyReport:
    """Per direction on S^(nm-1), asserts the monotone chain of scaled radial
    values, smallest first:

      rho_D  <=  c(p) rho_{R_p}  (descending p)  <=  endpoint * rho_{polar Pi}

    s- and F-branch: c(p) = C(1/s+p, p)^(1/p), endpoint (1/s) mu(K);
    Q-branch: c(p) = Gamma(1+p)^(-1/p), endpoint mu(K), no rho_D term.
    """
    muK = float(mu.mass(K))
    slack = spec.slack
    if slack is None:
        slack = 1e-6 if mu.exact else 1e-2
    desc = tuple(sorted(spec.p_list, reverse=True))
    include_D = spec.branch != "Q"
    if include_D:
        consts = [berwald_const_F(spec.s, p) for p in desc]
        endpoint = muK / spec.s
    else:
        consts = [berwald_const_Q(p) for p in desc]
        endpoint = muK
    labels = ((["rho_D"] if include_D else [])
              + [f"p={p:g}" for p in desc] + ["endpoint"])

    body = ProjectionBody(K, mu, spec.m)
    dirs = direction_mesh(K.dim * spec.m, spec.directions, spec.seed)
    rows = []
    worst = math.inf
    worst_pair = (0.0, 1.0)
    for idx, u in enumerate(dirs):
        theta = MDirection(u.reshape(spec.m, K.dim))
        ray = CovRay(K, mu, theta)
        h_pi = body.support(theta)
        terms = [ray.rho_D] if include_D else []
        try:
            for c, p in zip(consts, desc):
                terms.append(c * rmb_radial_mellin(K, mu, p, theta, ray=ray, h_pi=h_pi))
        except NumericError as exc:
            raise NumericError(f"chain direction {idx} of {len(dirs)}: {exc}") from exc
        terms.append(endpoint / h_pi)
        row: dict[str, float] = {"direction": idx}
        row.update(zip(labels, terms))
        rows.append(row)
        for a, b in zip(terms, terms[1:]):
            margin = (b - a) / max(abs(b), 1e-300)
            if margin < worst:
                worst = margin
                worst_pair = (a, b)
    passed = worst >= -slack
    return VerifyReport(
        name=f"chain-{spec.branch}",
        lhs=worst_pair[0], rhs=worst_pair[1],
        ratio=worst_pair[0] / worst_pair[1],
        bound=1.0, margin=worst + slack, passed=bool(passed),
        samples=len(dirs), seed=spec.seed, tolerance=slack,
        notes="terms " + " <= ".join(labels) + "; worst adjacent pair reported",
        rows=tuple(rows),
    )


# Largest nm at which the difference body's volume comes from its polytope
# unless a sphere rule is asked for.
EXACT_DIFFBODY_DIM = 6

# Sphere-rule nodes of a volume in R^(nm) that has no exact route.
DEFAULT_COUNT = 200_000


def rogers_shephard_check(K: Polytope, m: int, *, count: int | None = None,
                          tolerance: float = 0.02, seed: int = 42) -> VerifyReport:
    """vol_{nm}(D^m K) / vol_n(K)^m against the upper bound C(nm+n, n).

    The volume is that of the exact difference-body polytope at m = 1,
    which also enforces the lower bound 2^n, and at m >= 2 when count is
    None and nm <= EXACT_DIFFBODY_DIM. Otherwise it integrates the radial
    function on count directions of S^(nm-1) (DEFAULT_COUNT when None)."""
    n = K.dim
    vol_K = K.volume
    if m == 1 or (count is None and n * m <= EXACT_DIFFBODY_DIM):
        ratio = diffbody_polytope(K, m).volume / vol_K ** m
        samples = 1
        note = "exact polytope volume" + ("; lower bound 2^n enforced" if m == 1 else "")
    else:
        samples = count or DEFAULT_COUNT
        q = sphere_quadrature(n * m, count=samples, seed=seed)
        ratio = star_volume(diffbody_star(K, m), q) / vol_K ** m
        note = f"radial quadrature on {samples} directions"
    upper = gen_binom(n * m, n)
    lower = 2.0 ** n if m == 1 else 0.0
    ok = (ratio <= upper * (1.0 + tolerance)
          and ratio >= lower * (1.0 - tolerance))
    margin = min(upper * (1.0 + tolerance) - ratio,
                 ratio - lower * (1.0 - tolerance))
    return VerifyReport(
        name="rogers-shephard", lhs=ratio, rhs=upper, ratio=ratio / upper,
        bound=upper, margin=margin, passed=bool(ok),
        samples=samples, seed=seed, tolerance=tolerance, notes=note,
    )


# Gauss nodes per direction of _nu_mass_of_star's radial rule.
NU_MASS_NODES = 32


def _nu_mass_of_star(nu_list, radial_fn, d: int, n: int, count: int,
                     seed: int) -> float:
    """Mass, under the product of the factor measures, of the star body with
    the given radial function. Constant factors contribute their c_i; with
    no other factor the mass is prod_i c_i times the star body's volume,
    and otherwise a per-direction Gauss quadrature of
    int_0^rho prod_i phi_i(r u_i) r^(d-1) dr over the varying factors."""
    sphere = sphere_quadrature(d, count=count, seed=seed)
    const_part = math.prod((nu.density.c for nu in nu_list if nu.exact), start=1.0)
    varying = [(i, nu) for i, nu in enumerate(nu_list) if not nu.exact]
    if not varying:
        return const_part * star_volume(StarBodyFn(d, radial_fn), sphere)
    rho = radial_fn(sphere.nodes)
    t, w = gauss_01(NU_MASS_NODES)
    R = rho[:, None] * t[None, :]
    X = R[:, :, None] * sphere.nodes[:, None, :]
    phi = np.full(R.shape, const_part)
    for i, nu in varying:
        block = X[:, :, i * n:(i + 1) * n].reshape(-1, n)
        phi *= nu.density(block).reshape(R.shape)
    # einsum, not a BLAS product: its sums do not depend on the thread count
    inner = np.einsum("ij,j->i", phi * R ** (d - 1), w) * rho
    return float(np.einsum("i,i->", sphere.weights, inner))


def _polar_nu_mass(K: Polytope, mu: WeightedMeasure, nu_list, scale: float,
                   count: int | None, seed: int) -> tuple[float, int | None]:
    """The mass of scale * polar-Pi^m_mu K under the product of the factor
    measures, and the sphere-rule size it took (None when exact).

    Exact when every factor is constant, count is None and nm <=
    EXACT_POLAR_DIM: prod_i c_i scale^(nm) vol(polar-Pi). Otherwise
    `_nu_mass_of_star` on count directions (by default 1000 up to nm = 3,
    DEFAULT_COUNT beyond)."""
    m = len(nu_list)
    d = K.dim * m
    if count is None and d <= EXACT_POLAR_DIM and all(nu.exact for nu in nu_list):
        c = math.prod((nu.density.c for nu in nu_list), start=1.0)
        return c * scale ** d * polar_projection_volume(K, mu, m), None
    if count is None:
        count = 1000 if d <= 3 else DEFAULT_COUNT
    body = ProjectionBody(K, mu, m)
    return _nu_mass_of_star(nu_list, lambda dirs: scale * body.polar_radial_batch(dirs),
                            d, K.dim, count, seed), count


# Outer-by-inner node pairs per density call of the nested rule.
DENOMINATOR_CHUNK = 65_536


def _nested_rule(K: Polytope, mu: WeightedMeasure, factors, level: int) -> float:
    """sum_j w_j phi_mu(y_j) prod_i sum_k w_k phi_i(y_j - y_k) on the nodes
    y and weights w of the simplex rule at this level on K's
    triangulation: the outer integral over K and each inner
    nu_i(y_j - K) = int_K phi_i(y_j - z) dz share one rule."""
    X, w = simplex_rule(triangulate_vertices(K.dim, K.vertices), level)
    values = mu.density(X) * w
    rows = max(1, DENOMINATOR_CHUNK // len(X))
    for start in range(0, len(X), rows):
        Y = X[start:start + rows]
        diff = (Y[:, None, :] - X[None, :, :]).reshape(-1, K.dim)
        for phi in factors:
            # einsum, not a BLAS product: its sums do not depend on the thread count
            values[start:start + rows] *= np.einsum(
                "jk,k->j", phi(diff).reshape(len(Y), len(X)), w)
    return float(values.sum())


def _denominator_integral(K: Polytope, mu: WeightedMeasure, nu_list,
                          tolerance: float) -> float:
    """int_K prod_i nu_i(y - K) dmu(y). Each constant factor contributes
    c_i vol(K), so under constant factors this is prod_i c_i vol(K) mu(K).
    The varying factors take `_nested_rule` at two levels and the higher
    one's value; when the two differ by more than a tenth of the tolerance
    (relative), a factor's kink is not resolved and NumericError names
    both."""
    const_part = math.prod((nu.density.c * K.volume for nu in nu_list if nu.exact),
                           start=1.0)
    varying = [nu.density for nu in nu_list if not nu.exact]
    if not varying:
        return const_part * float(mu.mass(K))
    levels = (16, 20) if K.dim <= 2 else (6, 8)
    low, high = (_nested_rule(K, mu, varying, level) for level in levels)
    if abs(high - low) > 0.1 * tolerance * abs(high):
        raise NumericError(f"the Zhang denominator is {low:.12g} at simplex level "
                           f"{levels[0]} and {high:.12g} at level {levels[1]}, more "
                           f"than a tenth of the tolerance {tolerance:g} apart")
    return const_part * high


def zhang_check(K: Polytope, mu: WeightedMeasure, s: float, nu_list,
                *, count: int | None = None, tolerance: float = 0.02,
                seed: int = 42) -> VerifyReport:
    """Volume-ratio bound for the polar projection body:

      mu(K) nu((1/s) mu(K) polar-Pi) / int_K prod nu_i(y-K) dmu
          >= C(nm + 1/s, nm)

    with nu the product of the radially non-decreasing factor measures.
    The numerator is exact under constant factors up to nm =
    EXACT_POLAR_DIM unless count asks for the sphere rule
    (`_polar_nu_mass`); the denominator is `_denominator_integral`, exact
    under constant factors and a gated nested simplex rule otherwise. Its
    one seeded part is the numerator's sphere rule from nm = 4 up."""
    return _zhang(K, mu, s, nu_list, count, tolerance, seed)[1]


def _zhang(K: Polytope, mu: WeightedMeasure, s: float, nu_list, count: int | None,
           tolerance: float, seed: int) -> tuple[float, VerifyReport]:
    """mu(K) and `zhang_check`'s report."""
    s = float(s)
    if s <= 0:
        raise InputError("s must be positive")
    _require_nondecreasing(nu_list)
    muK = float(mu.mass(K))
    mass, count = _polar_nu_mass(K, mu, nu_list, muK / s, count, seed)
    numerator = muK * mass
    denominator = _denominator_integral(K, mu, nu_list, tolerance)
    ratio = numerator / denominator
    bound = gen_binom(1.0 / s, K.dim * len(nu_list))
    passed = ratio >= bound * (1.0 - tolerance)
    return muK, VerifyReport(
        name="zhang", lhs=numerator, rhs=denominator, ratio=ratio,
        bound=bound, margin=ratio / bound - (1.0 - tolerance),
        passed=bool(passed), samples=count or 1, seed=seed, tolerance=tolerance,
        notes=("numerator exact polytope volume" if count is None
               else f"numerator over {count} directions") + "; denominator "
              + ("exact (constant factors)" if all(nu.exact for nu in nu_list)
                 else "nested simplex rule"),
    )


def general_zhang_check(K: Polytope, mu: WeightedMeasure, s: float, nu_list,
                        *, count: int | None = None, tolerance: float = 0.02,
                        seed: int = 42) -> VerifyReport:
    """General concavity form of the volume-ratio bound:

      nu((F(muK)/F'(muK)) polar-Pi)
          >= int_K prod nu_i(y-K) dmu
             / (nm int_0^1 F^{-1}[F(muK) t] (1-t)^(nm-1) dt),

    for F = t^s: dilation muK/s, 1-D mean muK / C(1/s + nm, nm). That is
    `zhang_check`'s inequality over muK, so the report is `zhang_check`'s
    with lhs / muK, rhs * bound / muK, ratio / bound and bound 1.
    F = log (s None) has no such bound: F^{-1}[F(muK) t] tends to 1, not 0,
    as t -> 0, and its dilation muK log muK is not positive for muK <= 1."""
    if s is None:
        raise InputError("the general volume-ratio bound needs F^(-1)[F(mu(K)) t] -> 0 "
                         "as t -> 0, which F = log does not give")
    muK, rep = _zhang(K, mu, s, nu_list, count, tolerance, seed)
    return replace(rep, name="general-zhang", lhs=rep.lhs / muK,
                   rhs=rep.rhs * rep.bound / muK, ratio=rep.ratio / rep.bound,
                   bound=1.0,
                   notes=f"{rep.notes}; 1-D concavity mean {muK / rep.bound:.12g}")


def _require_nondecreasing(nu_list) -> None:
    if not nu_list:
        raise InputError("nu_list must contain at least one factor measure")
    for nu in nu_list:
        if not nu.density.radially_nondecreasing:
            raise InputError(
                "each factor measure must have a radially non-decreasing density")
