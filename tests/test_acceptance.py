"""End-to-end acceptance sweep: one test per headline guarantee.

Each test prints a single "[criterion NN] PASS/FAIL" line with the measured
numbers and enforces its stated tolerance and, where one is given, its time
budget. Scale: dimensions 2 and 3, translate counts m in {1, 2}.
"""

import math
import time

import numpy as np
import pytest

from covbody.covariogram import (CovRay, MDirection, covariogram,
                                 covariogram_slice, diffbody_polytope,
                                 diffbody_radial)
from covbody.genvol import (affine_ray_fn, beta_constant, chord_lower_check,
                            chord_upper_check, covariogram_ray_fn,
                            power_kernel, profile_ray_fn)
from covbody.measure import GaussianDensity, WeightedMeasure
from covbody.oracle import mc_measure, sphere_quadrature
from covbody.polytope import LinearMap, Polytope, StarBodyFn
from covbody.projection import (ProjectionBody, linear_covariance_check,
                                polar_projection_volume, variational_check)
from covbody.radialmean import (rmb_limit_neg1, rmb_radial_direct,
                                rmb_radial_mellin)
from covbody.verify import (ChainSpec, berwald_const_F, berwald_const_Q,
                            chain_check, direction_mesh, gen_binom,
                            rogers_shephard_check)

from helpers import berwald_quad_F, berwald_quad_Q, random_polytope

SQUARE = Polytope.named("cube", 2)
TRIANGLE = Polytope.named("simplex", 2)
LEB2 = WeightedMeasure.lebesgue(2)
GAUSS2 = WeightedMeasure(GaussianDensity(2, 1.0))

BODIES = {"square": SQUARE, "triangle": TRIANGLE}
DENSITIES = {"lebesgue": LEB2, "gaussian": GAUSS2}


def conclude(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def unit_directions(d, count, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(count, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def test_01_difference_body_volume_ratio():
    t0 = time.perf_counter()
    ratio_tri = diffbody_polytope(TRIANGLE, 1).volume / TRIANGLE.volume
    ratio_sq = diffbody_polytope(SQUARE, 1).volume / SQUARE.volume
    elapsed = time.perf_counter() - t0
    ok = (abs(ratio_tri - 6.0) <= 6.0 * 1e-9
          and abs(ratio_sq - 4.0) <= 4.0 * 1e-9
          and elapsed < 1.0)
    conclude(1, ok, f"vol(DK)/vol(K): triangle {ratio_tri:.12f} (want 6), "
                    f"square {ratio_sq:.12f} (want 4 = 2^2), {elapsed:.2f}s")


def test_02_difference_body_volume_ratio_order_two():
    t0 = time.perf_counter()
    rep = rogers_shephard_check(TRIANGLE, 2, seed=42)
    elapsed = time.perf_counter() - t0
    rel = abs(rep.lhs - 15.0) / 15.0
    ok = rep.passed and rel <= 1e-12 and elapsed < 60.0
    conclude(2, ok, f"vol_4(D^2 K)/vol(K)^2 = {rep.lhs!r} "
                    f"(want 15 within 1e-12, got {rel:.1e}) from the exact "
                    f"polytope, {elapsed:.2f}s")


def test_03_polar_projection_volume_product():
    t0 = time.perf_counter()
    prod_tri = TRIANGLE.volume * polar_projection_volume(TRIANGLE, LEB2, 1)
    prod_sq = SQUARE.volume * polar_projection_volume(SQUARE, LEB2, 1)
    elapsed = time.perf_counter() - t0
    ok = (abs(prod_tri - 1.5) <= 1e-6
          and prod_sq > 1.5
          and abs(prod_sq - 2.0) <= 1e-6
          and elapsed < 1.0)
    conclude(3, ok, f"vol(K) vol(polar Pi K): triangle {prod_tri:.8f} "
                    f"(want 1.5), square {prod_sq:.8f} (> 1.5 strictly), "
                    f"{elapsed:.2f}s")


def test_04_polar_projection_volume_product_order_two():
    t0 = time.perf_counter()
    prod = TRIANGLE.volume ** 2 * polar_projection_volume(TRIANGLE, LEB2, 2)
    elapsed = time.perf_counter() - t0
    want = 15.0 / 16.0
    rel = abs(prod - want) / want
    ok = rel <= 1e-12 and elapsed < 60.0
    conclude(4, ok, f"vol(K)^2 vol_4(polar Pi^2 K) = {prod!r} "
                    f"(want 15/16 within 1e-12, got {rel:.1e}) from the exact "
                    f"hull, {elapsed:.2f}s")


def test_05_covariogram_derivative_matches_projection_support():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    combos = [(mu, m) for mu in (LEB2, GAUSS2) for m in (1, 2)]
    bodies = (SQUARE, TRIANGLE)
    worst = 0.0
    for i in range(100):
        mu, m = combos[i % 4]
        K = bodies[(i // 4) % 2]
        v = rng.normal(size=2 * m)
        theta = MDirection((v / np.linalg.norm(v)).reshape(m, 2))
        rep = variational_check(K, mu, theta)
        worst = max(worst, rep.tolerance - rep.margin)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 30.0
    conclude(5, ok, f"worst relative error of extrapolated -dg/dr vs h over "
                    f"100 random (body, direction) draws: {worst:.2e} "
                    f"(tolerance 1e-3), {elapsed:.2f}s")


def test_06_direct_and_mellin_routes_agree():
    t0 = time.perf_counter()
    ps = (-0.5, 0.5, 1.0, 2.0)
    dirs = direction_mesh(2, 50)
    worst = 0.0
    for K in (SQUARE, TRIANGLE):
        for mu in (LEB2, GAUSS2):
            h_body = ProjectionBody(K, mu, 1)
            for u in dirs:
                theta = MDirection(u[None, :])
                ray = CovRay(K, mu, theta)
                h = h_body.support(theta)
                for p in ps:
                    a = rmb_radial_direct(K, mu, p, theta)
                    b = rmb_radial_mellin(K, mu, p, theta, ray=ray, h_pi=h)
                    worst = max(worst, abs(a - b) / b)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    conclude(6, ok, f"worst direct-vs-Mellin relative gap over square and "
                    f"triangle, constant and gaussian weights, "
                    f"p in {ps}, 50 directions each: {worst:.2e} "
                    f"(tolerance 1e-10), {elapsed:.2f}s")


def test_07_scaled_radial_mean_chains():
    t0 = time.perf_counter()
    ps = (0.5, 1.0, 2.0)
    runs = [
        ("triangle/lebesgue m=1", TRIANGLE, LEB2,
         ChainSpec(branch="s", p_list=ps, s=0.5, m=1, directions=200)),
        ("square/lebesgue m=1", SQUARE, LEB2,
         ChainSpec(branch="s", p_list=ps, s=0.5, m=1, directions=200)),
        ("triangle/gaussian m=1", TRIANGLE, GAUSS2,
         ChainSpec(branch="Q", p_list=ps, m=1, directions=200)),
        ("square/gaussian m=1", SQUARE, GAUSS2,
         ChainSpec(branch="Q", p_list=ps, m=1, directions=200)),
        ("triangle/lebesgue m=2", TRIANGLE, LEB2,
         ChainSpec(branch="s", p_list=ps, s=0.5, m=2, directions=200)),
        ("square/gaussian m=2", SQUARE, GAUSS2,
         ChainSpec(branch="Q", p_list=ps, m=2, directions=200)),
    ]
    all_hold = True
    reports = []
    for label, K, mu, spec in runs:
        rep = chain_check(K, mu, spec)
        all_hold &= rep.passed
        reports.append(rep)

    # the simplex chain with constant weight collapses to equality everywhere
    eq = reports[0]
    labels = ["rho_D", "p=2", "p=1", "p=0.5", "endpoint"]
    spread = 0.0
    for row in eq.rows:
        terms = [row[k] for k in labels]
        spread = max(spread, (max(terms) - min(terms)) / max(terms))

    # the square chain is strict; measure the margin on the first axis
    theta = MDirection(np.array([[1.0, 0.0]]))
    ray = CovRay(SQUARE, LEB2, theta)
    h = ProjectionBody(SQUARE, LEB2, 1).support(theta)
    terms = [ray.rho_D]
    for p in sorted(ps, reverse=True):
        terms.append(gen_binom(2.0, p) ** (1.0 / p)
                     * rmb_radial_mellin(SQUARE, LEB2, p, theta, ray=ray, h_pi=h))
    terms.append(SQUARE.volume / 0.5 / h)
    strict_margin = min((b - a) / b for a, b in zip(terms, terms[1:]))

    elapsed = time.perf_counter() - t0
    ok = (all_hold and spread <= 1e-6 and strict_margin > 1e-3
          and elapsed < 120.0)
    conclude(7, ok, f"6 chains at 200 directions each hold; "
                    f"triangle/lebesgue equality spread {spread:.2e} "
                    f"(<= 1e-6), square axis strict margin "
                    f"{strict_margin:.2e} (> 1e-3), {elapsed:.2f}s")


def test_08_limit_toward_polar_projection_body():
    t0 = time.perf_counter()
    worst = 0.0
    for bname, K in BODIES.items():
        for dname, mu in DENSITIES.items():
            for m in (1, 2):
                for u in unit_directions(2 * m, 4, seed=11):
                    rep = rmb_limit_neg1(K, mu, MDirection(u.reshape(m, 2)))
                    worst = max(worst, rep.tolerance - rep.margin)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 30.0
    conclude(8, ok, f"(p+1)^(1/p) rho at p = -0.999 vs mass times polar "
                    f"projection radial: worst relative error {worst:.2e} "
                    f"over 8 body/weight/m combinations x 4 directions "
                    f"(tolerance 1%), {elapsed:.2f}s")


@pytest.mark.xfail(strict=True, reason=(
    "rho at p = 200 approaches rho_D only like (p+1)^(-1/p): the measured "
    "gap is ~2.6% on the square axis and ~4.8% on the triangle, so a 1% "
    "band at p = 200 cannot be met"))
def test_09_limit_toward_difference_body():
    t0 = time.perf_counter()
    gaps = {}
    for bname, K in BODIES.items():
        for dname, mu in DENSITIES.items():
            for m in (1, 2):
                worst = 0.0
                for u in unit_directions(2 * m, 4, seed=13):
                    theta = MDirection(u.reshape(m, 2))
                    r200 = rmb_radial_mellin(K, mu, 200.0, theta)
                    rd = diffbody_radial(K, theta)
                    worst = max(worst, abs(r200 - rd) / rd)
                gaps[f"{bname}/{dname}/m={m}"] = worst
    elapsed = time.perf_counter() - t0
    worst = max(gaps.values())
    detail = ", ".join(f"{k} {v:.2%}" for k, v in sorted(gaps.items()))
    conclude(9, worst <= 0.01,
             f"rho at p = 200 vs rho_D gaps: {detail} (tolerance 1%), "
             f"{elapsed:.2f}s")


def test_10_linear_covariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    maps = []
    while len(maps) < 20:
        M = rng.uniform(-1.0, 1.5, size=(2, 2))
        if abs(np.linalg.det(M)) > 0.3:
            maps.append(LinearMap(M))
    dirs1 = [MDirection(u[None, :]) for u in direction_mesh(2, 50)]
    dirs2 = [MDirection(u.reshape(2, 2)) for u in direction_mesh(4, 50)]
    worst = {"lebesgue": 0.0, "gaussian": 0.0}
    ok = True
    for dname, mu in DENSITIES.items():
        for T in maps:
            for dirs in (dirs1, dirs2):
                rep = linear_covariance_check(TRIANGLE, mu, T, dirs)
                ok &= rep.passed
                worst[dname] = max(worst[dname], rep.tolerance - rep.margin)
    elapsed = time.perf_counter() - t0
    ok &= worst["lebesgue"] <= 1e-6 and worst["gaussian"] <= 1e-3
    conclude(10, ok, f"support identity under 20 random invertible maps, "
                     f"50 directions, m in {{1, 2}}: worst error "
                     f"{worst['lebesgue']:.2e} constant (<= 1e-6), "
                     f"{worst['gaussian']:.2e} gaussian (<= 1e-3), "
                     f"{elapsed:.2f}s")


def test_11_simplex_covariogram_affinity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        K = Polytope.named("simplex", n)
        mu = WeightedMeasure.lebesgue(n)
        vol = K.volume
        for m in (1, 2):
            for u in unit_directions(n * m, 5, seed=31):
                sl = covariogram_slice(K, mu, MDirection(u.reshape(m, n)),
                                       grid=32)
                want = vol ** (1.0 / n) * (1.0 - sl.nodes / sl.rho_D)
                got = np.maximum(sl.node_values, 0.0) ** (1.0 / n)
                worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    conclude(11, ok, f"g^(1/n) along rays vs vol^(1/n)(1 - r/rho_D) on "
                     f"simplices, n in {{2, 3}}, m in {{1, 2}}: worst "
                     f"deviation {worst:.2e} at 32 Gauss nodes "
                     f"(tolerance 1e-9), {elapsed:.2f}s")


def test_12_normalization_constants():
    t0 = time.perf_counter()
    worst_f = 0.0
    # closed forms against the quadrature of the defining integrals
    for s in (1.0 / 3.0, 0.5, 1.0):
        for p in (0.5, 1.0, 2.0, 3.0):
            got = berwald_const_F(s, p)
            for muK in (0.5, 1.0, 2.7):
                want = berwald_quad_F(s, p, muK)
                worst_f = max(worst_f, abs(got - want) / want)
    worst_q = 0.0
    for p in (0.5, 1.0, 2.0, 3.0):
        want = berwald_quad_Q(p, 1.0)
        got = berwald_const_Q(p)
        worst_q = max(worst_q, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst_f <= 1e-9 and worst_q <= 1e-9
    conclude(12, ok, f"generalized binomial vs power-concavity quadrature "
                     f"{worst_f:.2e}, Gamma(1+p)^(-1/p) vs log-concavity "
                     f"quadrature {worst_q:.2e} (both <= 1e-9), "
                     f"{elapsed:.2f}s")


def test_13_chord_integral_bounds():
    t0 = time.perf_counter()
    quad = sphere_quadrature(2, count=64)
    disk = StarBodyFn.ball(2)
    G = power_kernel(2, 1.0)

    def ident(t):
        return np.asarray(t, dtype=float)

    # ray-affine profile with a homogeneous kernel: both bounds are equalities
    f = affine_ray_fn(disk)
    lo = chord_lower_check(f, ident, G, quad)
    up = chord_upper_check(f, ident, G, quad)
    eq_gap = max(abs(lo.ratio - 1.0), abs(up.ratio - 1.0))

    # strictly concave perturbation: strictly inside the bound
    parab = chord_lower_check(
        profile_ray_fn(disk, lambda t: 1.0 - t * t, 0.0),
        ident, G, quad)

    # covariogram profile f = g^(1/2), h = t^2: the bound machinery lands on
    # the volume-ratio constant, with equality on the simplex
    H = lambda t: np.asarray(t, dtype=float) ** 2
    fc = covariogram_ray_fn(TRIANGLE, LEB2, 1, 0.5)
    clo = chord_lower_check(fc, H, G, quad)
    cup = chord_upper_check(fc, H, G, quad)
    cov_gap = max(abs(clo.ratio - 1.0), abs(cup.ratio - 1.0))
    beta_gap = abs(beta_constant(H, math.sqrt(TRIANGLE.volume), 1.0)
                   - TRIANGLE.volume / 6.0) / (TRIANGLE.volume / 6.0)

    elapsed = time.perf_counter() - t0
    ok = (lo.passed and up.passed and eq_gap <= 1e-6
          and parab.passed and parab.margin > 0.01
          and clo.passed and cup.passed and cov_gap <= 0.01
          and beta_gap <= 0.01)
    conclude(13, ok, f"affine equality gap {eq_gap:.2e} (<= 1e-6), parabola "
                     f"margin {parab.margin:.3f} (> 0.01, ratio "
                     f"{parab.ratio:.4f}), covariogram fixture gap "
                     f"{cov_gap:.2e} and beta vs mass/6 gap {beta_gap:.2e} "
                     f"(both <= 1%), {elapsed:.2f}s")


def test_14_monte_carlo_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_z = 0.0
    for i in range(20):
        if i < 7:
            dim = 2 + (i % 2)
            K = random_polytope(rng, dim)
            exact = K.volume
            density = lambda X: np.ones(len(X))
            member = lambda X, K=K: (X @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
        elif i < 14:
            K = random_polytope(rng, 2)
            mu = WeightedMeasure(GaussianDensity(2, rng.uniform(0.6, 1.4)))
            exact = float(mu.mass(K))
            density = mu.density
            member = lambda X, K=K: (X @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
        else:
            K = random_polytope(rng, 2)
            mu = LEB2 if i % 2 else GAUSS2
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            x = 0.3 * diffbody_radial(K, u[None, :]) * u
            exact = covariogram(K, mu, [x])
            density = (lambda X: np.ones(len(X))) if i % 2 else mu.density
            member = lambda X, K=K, x=x: (
                ((X @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1))
                & (((X - x) @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)))
        est, se = mc_measure(density, member, K.bounding_box(),
                             n_samples=200_000, seed=500 + i,
                             tag=f"acceptance-{i}")
        worst_z = max(worst_z, abs(exact - est) / se)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0
    conclude(14, ok, f"volumes, weighted masses and covariogram values vs "
                     f"rejection sampling on 20 randomized cases: worst "
                     f"|z| = {worst_z:.2f} standard errors (<= 3), "
                     f"{elapsed:.2f}s")
