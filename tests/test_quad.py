"""Quadrature rules: exactness of the simplex rule, the dual-volume ray
rule, the geometric composite rule, the Gauss-Jacobi and log-weighted rules
and the Chebyshev-Jacobi weights; and the guard that keeps the rules'
constructors in `_quad`."""

import ast
import itertools
import math
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expi

import covbody
from covbody._quad import (chebyshev_01, chebyshev_jacobi_01, gauss_01, gauss_jacobi_01,
                          geometric_gauss, log_gauss_01, simplex_rule)
from covbody.errors import InputError
from covbody.genvol import _ray_rule

F = Fraction
SIMPLICES = {
    "segment in R^2": [(F(1, 2), F(1, 3)), (F(2), F(5, 4))],
    "triangle in R^2": [(F(1, 4), F(1, 2)), (F(3, 2), F(1, 3)), (F(2, 3), F(7, 4))],
    "triangle in R^3": [(F(1, 2), F(1, 4), F(1)), (F(2), F(1, 3), F(1, 2)),
                        (F(3, 4), F(3, 2), F(5, 4))],
    "tetrahedron": [(F(1, 4), F(1, 2), F(1, 3)), (F(3, 2), F(1, 3), F(1, 2)),
                    (F(2, 3), F(7, 4), F(1, 4)), (F(1, 2), F(2, 3), F(3, 2))],
}


def _volume(verts: np.ndarray) -> float:
    edges = verts[1:] - verts[0]
    return math.sqrt(np.linalg.det(edges @ edges.T)) / math.factorial(len(edges))


def _exact_monomial(verts, alpha) -> Fraction:
    """int_S x^alpha dS / vol(S), exactly: expand x^alpha in barycentric
    coordinates and use int_S lambda^beta dS = k! vol(S) beta! / (k + |beta|)!."""
    k = len(verts) - 1
    poly = {(0,) * (k + 1): F(1)}
    for i, a in enumerate(alpha):
        for _ in range(a):
            grown = defaultdict(F)
            for beta, c in poly.items():
                for j, v in enumerate(verts):
                    b = list(beta)
                    b[j] += 1
                    grown[tuple(b)] += c * v[i]
            poly = grown
    return math.factorial(k) * sum(
        c * math.prod(math.factorial(b) for b in beta) / math.factorial(k + sum(beta))
        for beta, c in poly.items())


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("name", list(SIMPLICES))
def test_simplex_rule_exact_on_monomials(name, level):
    verts = SIMPLICES[name]
    k, d = len(verts) - 1, len(verts[0])
    V = np.array(verts, dtype=float)
    pts, w = simplex_rule(V, level)
    vol = _volume(V)
    assert w.sum() == pytest.approx(vol, rel=1e-14)
    for alpha in itertools.product(range(2 * level - k + 1), repeat=d):
        if sum(alpha) > 2 * level - 1 - (k - 1):
            continue
        got = float(w @ np.prod(pts ** np.array(alpha), axis=1))
        want = vol * float(_exact_monomial(verts, alpha))
        assert got == pytest.approx(want, rel=1e-13), alpha


@pytest.mark.parametrize("k,d", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_stacked_call_is_concatenation(k, d):
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((5, k + 1, d))
    pts, w = simplex_rule(stack, 5)
    parts = [simplex_rule(s, 5) for s in stack]
    np.testing.assert_allclose(pts, np.vstack([p for p, _ in parts]), rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(w, np.concatenate([q for _, q in parts]), rtol=1e-15, atol=0)


def test_simplex_rule_rejects_bad_shapes():
    with pytest.raises(InputError):
        simplex_rule(np.zeros((4, 2)), 3)  # a 3-simplex cannot sit in R^2
    with pytest.raises(InputError):
        simplex_rule(np.zeros((5, 4)), 3)  # R^4 is out of range


@pytest.mark.parametrize("alpha", [-0.999, -0.5, 0.0, 1.0, 2.5])
def test_ray_rule_integrates_powers_exactly(alpha):
    # r^(alpha+j) on [0, rho] for every j < 2n, the rule scaled to each rho:
    # the power is the rule's weight, so alpha near -1 costs no nodes. The
    # power itself is exact to rounding at every alpha. Past it, at
    # alpha = -0.999 the node nearest 0 (t ~ 1.6e-5) carries the absolute
    # rounding of roots_jacobi's x = 2t - 1, about 1e-16, so the moments
    # lose to 2e-11
    t, w = _ray_rule(8, alpha)
    rho = np.array([0.3, 1.0, 1.7])
    for j in range(16):
        e = alpha + j + 1.0
        got = rho * ((rho[:, None] * t) ** (alpha + j) @ w)
        rtol = 1e-13 if j == 0 or alpha > -0.99 else 5e-11
        np.testing.assert_allclose(got, rho ** e / e, rtol=rtol)


@pytest.mark.parametrize("p", [-0.3, -0.5, -0.7, -0.9])
def test_graded_gauss_resolves_power_singularity(p):
    # the endpoint-weighted ray rule that replaced the graded substitution
    # rule resolves r^p on [0, rho]; the plain rule misses the endpoint
    # singularity by orders of magnitude
    rho = 1.7
    want = rho ** (p + 1.0) / (p + 1.0)
    t, w = _ray_rule(64, p)
    assert rho * float(w @ (rho * t) ** p) == pytest.approx(want, rel=1e-5)
    t1, w1 = gauss_01(64)
    assert abs(rho * float(w1 @ (rho * t1) ** p) - want) > 1e-4 * want


def test_graded_gauss_floor_keeps_matched_power_exact():
    # r^(1/100 - 1) drove the graded rule's innermost nodes below the
    # floating-point range and needed a floor; the ray rule carries the power
    # as its weight, so every node stays positive and the integral exact
    t, w = _ray_rule(64, -0.99)
    assert t.min() > 0.0
    assert 2.0 * float(w @ (2.0 * t) ** -0.99) == pytest.approx(100.0 * 2.0 ** 0.01,
                                                                rel=1e-13)


@pytest.mark.parametrize("alpha", [-0.999, 0.0, 2.5])
def test_ray_rule_nodes_are_interior(alpha):
    # a kernel r^alpha with alpha < 0 is infinite at r = 0, so no node may
    # sit there
    t, w = _ray_rule(16, alpha)
    assert 0.0 < t.min() and t.max() < 1.0 and (w > 0).all()
    assert np.isfinite(t ** alpha).all()


@pytest.mark.parametrize("q", [-1.999, -0.5, 0.5, 19.5, 199.0, 199.37])
def test_geometric_gauss_integrates_powers(q):
    # r^(j+q), j <= 3, on [1e-6, 0.3] and [0.3, 1]: closed forms; the node
    # count follows the rule the Mellin route uses
    edges = np.array([1e-6, 0.3, 1.0])
    r, w, at = geometric_gauss(edges[:-1], edges[1:], 12 + math.ceil(abs(q) / 2))
    assert not np.isin(r, edges).any()
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        sel = at == i
        assert ((r[sel] > a) & (r[sel] < b)).all()
        for j in range(4):
            e = j + q + 1.0
            want = (b**e - a**e) / e
            assert float(w[sel] @ r[sel] ** (j + q)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("degree", [2, 3, 20])
@pytest.mark.parametrize("q", [-0.75, -0.5, 0.0, 1.5, 19.0, 199.0])
def test_chebyshev_jacobi_weights_integrate_the_interpolant(degree, q):
    # int_0^1 t^k t^q dt = 1/(k+q+1) for every power the interpolant holds
    t, _ = chebyshev_01(degree)
    w = chebyshev_jacobi_01(degree, q)
    for k in range(degree + 1):
        assert float(w @ t ** k) == pytest.approx(1.0 / (k + q + 1.0), rel=1e-12, abs=1e-15)


def _geometric_gauss_loop(edges, n):
    """The sub-interval loop `geometric_gauss` vectorises: s doubles from
    each edge until it reaches the next."""
    lo, hi, at = [], [], []
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        s = a
        while s < b:
            lo.append(s)
            hi.append(min(2.0 * s, b))
            at.append(i)
            s = hi[-1]
    u, w = gauss_01(n)
    lo, width = np.array(lo, dtype=float), np.array(hi) - np.array(lo)
    return ((lo[:, None] + width[:, None] * u[None, :]).ravel(),
            (width[:, None] * w[None, :]).ravel(), np.repeat(at, n))


def test_geometric_gauss_matches_the_loop_bitwise():
    # doubling is exact in floating point, so the vectorised split must give
    # the loop's nodes and weights to the bit, powers of 2 apart included
    rng = np.random.default_rng(3)
    for _ in range(500):
        e = np.sort(rng.uniform(0.0, 1.0, size=rng.integers(2, 6))) ** rng.uniform(1, 30)
        e = np.sort(np.concatenate([e, e[-1:] * 2.0 ** rng.integers(0, 3, size=2)]))
        want, got = _geometric_gauss_loop(e, 5), geometric_gauss(e[:-1], e[1:], 5)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


@pytest.mark.parametrize("q", [-0.99, -0.5, 0.5, 2.0, 20.0])
def test_gauss_jacobi_exact_on_polynomials(q):
    t, w = gauss_jacobi_01(8, q)
    for k in range(16):
        assert w @ t ** k == pytest.approx(1.0 / (k + q + 1.0), rel=1e-13)


def test_log_gauss_exact_on_polynomials():
    # int_0^1 t^k log t dt = -1 / (k + 1)^2
    t, w = log_gauss_01(12)
    for k in range(12):
        assert w @ t ** k == pytest.approx(-1.0 / (k + 1) ** 2, rel=1e-13)
    # and spectrally close on a smooth function: int_0^1 e^t log t dt is
    # gamma - Ei(1)
    assert w @ np.exp(t) == pytest.approx(np.euler_gamma - expi(1.0), rel=1e-13)


# Who may import what: the 1-D rules' constructors belong to `_quad`, and
# no covbody module imports QUADPACK; the tests' quadrature of the Berwald
# constants (`helpers.berwald_quad_F`) is the independent route.
RULE_NAMES = {"leggauss", "legvander"}


def _import_violations(module: str, source: str) -> list[str]:
    """The imports of a covbody module's source that break the guard, as
    'module: name' strings; imports inside functions count too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            leaf = name.rsplit(".", 1)[-1]
            is_rule = leaf in RULE_NAMES or name.startswith("scipy.special.roots_")
            if (is_rule and module != "_quad") or name.startswith("scipy.integrate"):
                found.append(f"{module}: {name}")
    return found


def test_rules_are_built_in_quad_only():
    pkg = Path(covbody.__file__).parent
    sources = {f.stem: f.read_text() for f in sorted(pkg.glob("*.py"))}
    assert {"_quad", "genvol", "radialmean", "verify"} <= set(sources)
    assert [v for m, s in sources.items() for v in _import_violations(m, s)] == []
    # the guard sees what it guards against
    bad = "from scipy.special import roots_jacobi\n"
    assert _import_violations("genvol", sources["genvol"] + bad) == [
        "genvol: scipy.special.roots_jacobi"]
    assert _import_violations("genvol", "def f():\n    from scipy.integrate import quad\n")
    assert _import_violations("verify", "def f():\n    from scipy.integrate import quad\n")
    assert _import_violations("radialmean", "from numpy.polynomial.legendre import leggauss\n")
    assert not _import_violations("_quad", bad)
