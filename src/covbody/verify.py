"""The inequality harness: sharp constants, inclusion chains, and volume-ratio
bounds for the difference-body / radial-mean / polar-projection operators.

Constants come in two independent routes (closed-form generalized binomial
vs. 1-D quadrature of the defining integral); the chain and ratio checkers
evaluate radial functions per direction and assert the monotone orderings
with split tolerances: near-exact slack on exact paths, percent-level slack
on quadrature paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from ._quad import gauss_01
from .covariogram import CovRay, MDirection, diffbody_polytope, diffbody_star
from .errors import InputError, NumericError
from .measure import (
    ConcavityF,
    WeightedMeasure,
    integrate_over_polytope,
)
from .oracle import rng_for, sphere_quadrature
from .polytope import Polytope, star_volume
from .projection import ProjectionBody
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
    for a, k and a + k all above -1, where every Gamma factor is positive."""
    if a <= -1 or k <= -1 or a + k <= -1:
        raise InputError("gen_binom needs a, k and a + k to exceed -1")
    return math.exp(math.lgamma(a + k + 1.0) - math.lgamma(a + 1.0)
                    - math.lgamma(k + 1.0))


def _quad_checked(fn, lo: float, hi: float, what: str) -> float:
    val, err = quad(fn, lo, hi, epsrel=1e-12, epsabs=1e-14, limit=400)
    if not math.isfinite(val) or err > 1e-8 * max(abs(val), 1e-12):
        raise NumericError(f"{what}: quadrature did not converge "
                           f"(value {val}, error estimate {err})")
    return val


def berwald_const_F(F: ConcavityF, p: float, muK: float) -> float:
    """Sharp constant for an F-concave measure of total mass muK:
    ((p/muK) * mean of F^{-1}[F(muK)(1-t)] against t^(p-1) dt)^(-1/p),
    with the integrand shifted by -muK on the p in (-1,0) branch."""
    if muK <= 0:
        raise InputError("muK must be positive")
    if p <= -1 or p == 0:
        raise InputError("p must lie in (-1, 0) or (0, inf)")
    FK = F.F(muK)
    # substitute t = u^2 so the t^(p-1) endpoint weight stays integrable
    if p > 0:
        def integrand(u: float) -> float:
            t = u * u
            return F.F_inv(FK * (1.0 - t)) * t ** (p - 1.0) * 2.0 * u

        mean = (p / muK) * _quad_checked(integrand, 0.0, 1.0, "berwald_const_F")
    else:
        def integrand(u: float) -> float:
            t = u * u
            # bracket is O(t) near 0, killing the t^(p-1) singularity
            return (F.F_inv(FK * (1.0 - t)) - muK) * t ** (p - 1.0) * 2.0 * u

        mean = 1.0 + (p / muK) * _quad_checked(integrand, 0.0, 1.0, "berwald_const_F")
    if mean <= 0:
        raise NumericError("berwald_const_F: nonpositive p-mean")
    return mean ** (-1.0 / p)


def berwald_const_Q(Q: ConcavityF, p: float, muK: float = 1.0) -> float:
    """Sharp constant for Q-concave measures (Q increasing, possibly
    negative-valued). Q = log has the closed form Gamma(1+p)^(-1/p); other Q
    integrate Q^{-1}[Q(muK) - t] t^(p-1) over (0, inf), truncated where the
    integrand drops below 1e-14 of its peak."""
    if muK <= 0:
        raise InputError("muK must be positive")
    if p <= -1 or p == 0:
        raise InputError("p must lie in (-1, 0) or (0, inf)")
    if Q.name == "log":
        return math.exp(-math.lgamma(1.0 + p) / p)
    QK = Q.F(muK)

    def raw(t: float) -> float:
        return Q.F_inv(QK - t)

    hi = 1.0
    while raw(hi) > 1e-14 * muK:
        hi *= 2.0
        if hi > 1e9:
            raise NumericError("berwald_const_Q: integrand tail does not decay")
    if p > 0:
        def integrand(u: float) -> float:
            t = u * u
            return raw(t) * t ** (p - 1.0) * 2.0 * u

        mean = (p / muK) * _quad_checked(integrand, 0.0, math.sqrt(hi),
                                         "berwald_const_Q")
    else:
        # split at t = 1: shifted head (integrable bracket), plain tail
        def head(u: float) -> float:
            t = u * u
            return (raw(t) - muK) * t ** (p - 1.0) * 2.0 * u

        def tail(t: float) -> float:
            return raw(t) * t ** (p - 1.0)

        mean = 1.0 + (p / muK) * (
            _quad_checked(head, 0.0, 1.0, "berwald_const_Q")
            + _quad_checked(tail, 1.0, hi, "berwald_const_Q"))
    if mean <= 0:
        raise NumericError("berwald_const_Q: nonpositive p-mean")
    return mean ** (-1.0 / p)


def direction_mesh(d: int, count: int, seed: int = 42) -> np.ndarray:
    """Deterministic direction set on S^(d-1): low-discrepancy for d <= 3,
    seeded uniform beyond."""
    return sphere_quadrature(d, count=count, seed=seed).nodes


@dataclass(frozen=True)
class ChainSpec:
    """Which inclusion chain to run: branch "s" (power concavity, needs s),
    "F" (general concave F), or "Q" (increasing Q; no difference-body term)."""

    branch: str
    p_list: tuple[float, ...]
    s: float | None = None
    F: ConcavityF | None = None
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
        if self.branch == "s" and (self.s is None or self.s <= 0):
            raise InputError("the s-branch needs s > 0")
        if self.branch in ("F", "Q") and self.F is None:
            raise InputError(f"the {self.branch}-branch needs a concavity function")
        if self.m < 1:
            raise InputError("m must be a positive integer")
        object.__setattr__(self, "p_list", ps)


def chain_check(K: Polytope, mu: WeightedMeasure, spec: ChainSpec) -> VerifyReport:
    """Per direction on S^(nm-1), asserts the monotone chain of scaled radial
    values, smallest first:

      rho_D  <=  c(p) rho_{R_p}  (descending p)  <=  endpoint * rho_{polar Pi}

    s-branch: c(p) = C(1/s+p, p)^(1/p), endpoint (1/s) mu(K);
    F-branch: c(p) = berwald_const_F,   endpoint F(muK)/F'(muK);
    Q-branch: c(p) = berwald_const_Q,   endpoint 1/Q'(muK), no rho_D term.
    """
    muK = float(mu.mass(K))
    slack = spec.slack
    if slack is None:
        slack = 1e-6 if mu.exact else 1e-2
    desc = tuple(sorted(spec.p_list, reverse=True))
    if spec.branch == "s":
        consts = [gen_binom(1.0 / spec.s, p) ** (1.0 / p) for p in desc]
        endpoint = muK / spec.s
        include_D = True
    elif spec.branch == "F":
        consts = [berwald_const_F(spec.F, p, muK) for p in desc]
        endpoint = spec.F.F(muK) / spec.F.F_prime(muK)
        include_D = True
    else:
        consts = [berwald_const_Q(spec.F, p, muK) for p in desc]
        endpoint = 1.0 / spec.F.F_prime(muK)
        include_D = False
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


def rogers_shephard_check(K: Polytope, m: int, *, count: int = 200_000,
                          tolerance: float = 0.02, seed: int = 42) -> VerifyReport:
    """vol_{nm}(D^m K) / vol_n(K)^m against the upper bound C(nm+n, n).
    m = 1 uses the exact difference-body polytope and also enforces the
    lower bound 2^n; m >= 2 integrates the radial function on S^(nm-1)."""
    n = K.dim
    vol_K = K.volume
    if m == 1:
        ratio = diffbody_polytope(K, 1).volume / vol_K
        samples = 1
        note = "exact polytope volume; lower bound 2^n enforced"
    else:
        q = sphere_quadrature(n * m, count=count, seed=seed)
        ratio = star_volume(diffbody_star(K, m), q) / vol_K ** m
        samples = count
        note = f"radial quadrature on {count} directions"
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


def _nu_mass_of_star(nu_list, radial_fn, d: int, n: int, count: int,
                     seed: int, nodes: int = 32) -> float:
    """Mass, under the product of the factor measures, of the star body with
    the given radial function: per-direction Gauss quadrature of
    int_0^rho prod_i phi_i(r u_i) r^(d-1) dr."""
    sphere = sphere_quadrature(d, count=count, seed=seed)
    rho = radial_fn(sphere.nodes)
    t, w = gauss_01(nodes)
    R = rho[:, None] * t[None, :]
    X = R[:, :, None] * sphere.nodes[:, None, :]
    phi = np.ones(R.shape)
    for i, nu in enumerate(nu_list):
        block = X[:, :, i * n:(i + 1) * n].reshape(-1, n)
        phi *= nu.density(block).reshape(R.shape)
    # einsum, not a BLAS product: its sums do not depend on the thread count
    inner = np.einsum("ij,j->i", phi * R ** (d - 1), w) * rho
    return float(np.einsum("i,i->", sphere.weights, inner))


def _denominator_integral(K: Polytope, mu: WeightedMeasure, nu_list,
                          n_mc: int, seed: int) -> float:
    """int_K prod_i nu_i(y - K) dmu(y). Constant-density factors contribute
    the exact c_i vol(K); any remaining factors force Monte Carlo over K with
    a polytope-mass evaluation per sample."""
    n = K.dim
    const_part = 1.0
    varying = []
    for nu in nu_list:
        if nu.exact:
            const_part *= nu.density.c * K.volume
        else:
            varying.append(nu)
    if not varying:
        return const_part * float(mu.mass(K))
    reflected = Polytope.from_vertices(-K.vertices)
    lo, hi = K.bounding_box()
    rng = rng_for(seed, "zhang-denominator")
    total = 0.0
    kept = 0
    while kept < n_mc:
        pts = rng.uniform(lo, hi, size=(4 * n_mc, n))
        inside = (pts @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
        for y in pts[inside]:
            if kept >= n_mc:
                break
            val = const_part * float(mu.density(y[None, :])[0])
            for nu in varying:
                val *= integrate_over_polytope(nu, reflected.translate(y))
            total += val
            kept += 1
    return total / kept * K.volume


def zhang_check(K: Polytope, mu: WeightedMeasure, s_or_F, nu_list,
                *, count: int | None = None, n_mc: int = 2000,
                tolerance: float = 0.02, seed: int = 42) -> VerifyReport:
    """Volume-ratio bound for the polar projection body:

      mu(K) nu((1/s) mu(K) polar-Pi) / int_K prod nu_i(y-K) dmu
          >= C(nm + 1/s, nm)

    with nu the product of the radially non-decreasing factor measures.
    Passing a ConcavityF instead of s runs the general-F form."""
    if isinstance(s_or_F, ConcavityF):
        return general_zhang_check(K, mu, s_or_F, nu_list, count=count,
                                   n_mc=n_mc, tolerance=tolerance, seed=seed)
    s = float(s_or_F)
    if s <= 0:
        raise InputError("s must be positive")
    _require_nondecreasing(nu_list)
    n, m = K.dim, len(nu_list)
    d = n * m
    if count is None:
        count = 1000 if d <= 3 else 200_000
    muK = float(mu.mass(K))
    body = ProjectionBody(K, mu, m)
    scale = muK / s
    numerator = muK * _nu_mass_of_star(
        nu_list, lambda dirs: scale * body.polar_radial_batch(dirs),
        d, n, count, seed)
    denominator = _denominator_integral(K, mu, nu_list, n_mc, seed)
    ratio = numerator / denominator
    bound = gen_binom(1.0 / s, d)
    passed = ratio >= bound * (1.0 - tolerance)
    exact_denom = all(nu.exact for nu in nu_list)
    return VerifyReport(
        name="zhang", lhs=numerator, rhs=denominator, ratio=ratio,
        bound=bound, margin=ratio / bound - (1.0 - tolerance),
        passed=bool(passed), samples=count, seed=seed, tolerance=tolerance,
        notes=f"numerator over {count} directions; denominator "
              + ("exact (constant factors)" if exact_denom
                 else f"Monte Carlo with {n_mc} samples"),
    )


def general_zhang_check(K: Polytope, mu: WeightedMeasure, F: ConcavityF, nu_list,
                        *, count: int | None = None, n_mc: int = 2000,
                        tolerance: float = 0.02, seed: int = 42) -> VerifyReport:
    """General concavity form of the volume-ratio bound:

      nu((F(muK)/F'(muK)) polar-Pi)
          >= int_K prod nu_i(y-K) dmu
             / (nm int_0^1 F^{-1}[F(muK) t] (1-t)^(nm-1) dt).
    """
    _require_nondecreasing(nu_list)
    n, m = K.dim, len(nu_list)
    d = n * m
    if count is None:
        count = 1000 if d <= 3 else 200_000
    muK = float(mu.mass(K))
    body = ProjectionBody(K, mu, m)
    scale = F.F(muK) / F.F_prime(muK)
    lhs = _nu_mass_of_star(
        nu_list, lambda dirs: scale * body.polar_radial_batch(dirs),
        d, n, count, seed)
    FK = F.F(muK)
    mean_1d = d * _quad_checked(
        lambda t: F.F_inv(FK * t) * (1.0 - t) ** (d - 1),
        0.0, 1.0, "general_zhang_check")
    product_integral = _denominator_integral(K, mu, nu_list, n_mc, seed)
    rhs = product_integral / mean_1d
    # mean_1d <= muK always, so dividing by muK instead weakens the bound
    weak_ok = lhs >= product_integral / muK * (1.0 - tolerance)
    passed = lhs >= rhs * (1.0 - tolerance) and weak_ok
    return VerifyReport(
        name="general-zhang", lhs=lhs, rhs=rhs, ratio=lhs / rhs, bound=1.0,
        margin=lhs / rhs - (1.0 - tolerance), passed=bool(passed),
        samples=count, seed=seed, tolerance=tolerance,
        notes=f"1-D concavity mean {mean_1d:.12g}; weak form "
              f"{'holds' if weak_ok else 'FAILS'}",
    )


def _require_nondecreasing(nu_list) -> None:
    if not nu_list:
        raise InputError("nu_list must contain at least one factor measure")
    for nu in nu_list:
        if not nu.density.radially_nondecreasing:
            raise InputError(
                "each factor measure must have a radially non-decreasing density")
