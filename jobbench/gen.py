"""Seeded job generator for the covbody job benchmark.

Every workload is an endless stream of JSON jobs for ``covbody.cli.run``,
cut into blocks. Each block holds exactly one job per template of its
workload, in a seeded order, so every block has the same mix of commands,
dimensions, m values, densities and facet counts; only the geometry, the
p values and the job seeds change from block to block and from seed to
seed. That keeps the cost of a block nearly constant, which is what makes
medians and percentiles repeat across seeds.

Each generated item is a pair ``(job, expect)``: ``job`` is the JSON
document the library sees, ``expect`` tells ``checks.py`` what a correct
report looks like and is never passed to the library.

Run ``python3 jobbench/gen.py --workload chain-exact --seed 1`` to print
the input properties that drive a workload's cost over its first blocks.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("chain-exact", "chain-weighted", "short-jobs")

WHY = {
    "chain-exact": (
        "Constant-density chains and variational checks: each radial value "
        "costs hundreds of exact covariogram evaluations, each a vertex "
        "enumeration over C(rows, n) row subsets plus a hull volume, while "
        "the measure layer stays on its exact path. Facet count x m sets the "
        "cost; the simplex fixtures collapse the chain to equality."),
    "chain-weighted": (
        "Gaussian and linear-power chains, direct radial means and the "
        "covariogram chord fixture: the same covariogram and vertex-"
        "enumeration calls as chain-exact, but every evaluation also "
        "triangulates the intersection and runs a Gauss rule per simplex, and "
        "direct radial means run the polar grid. A measure/_quad gain shows "
        "here; a vertex-enumeration gain shows only diluted."),
    "short-jobs": (
        "A stream of short jobs from the other commands over a small body "
        "pool: the cost is CLI parsing, Qhull body construction, surface-"
        "measure rebuilds, dense LPs and large vectorised sphere arrays. A "
        "cross-job cache or a cut in CLI overhead shows here and not in the "
        "chain workloads."),
}

TAU = 2.0 * math.pi


def _r(x: float) -> float:
    """Round generated coordinates so jobs print compactly and exactly."""
    return round(float(x), 10)


# -- bodies -----------------------------------------------------------------


@dataclass(frozen=True)
class Body:
    """A body spec plus what the generator knows about it by construction."""

    spec: dict
    kind: str  # named-<name>, polygon, triangle, parallelogram, polytope3
    dim: int
    facets: int
    area: float | None = None  # exact area for triangles and parallelograms


def named(name: str, dim: int) -> Body:
    facets = {"simplex": dim + 1, "cube": 2 * dim, "cross": 2 ** dim}[name]
    return Body({"type": "named", "name": name, "dim": dim},
                f"named-{name}", dim, facets)


def polygon(rng: random.Random, k: int, hrep: bool = False) -> Body:
    """A k-gon inscribed in (vrep) or circumscribed about (hrep) a circle.

    Angles are jittered around an even spacing, so consecutive angles stay
    at least 0.4 * 2pi/k apart: every point is extreme, every tangent line
    is a facet, and the body has exactly k facets.
    """
    phase = rng.uniform(0.0, TAU)
    angles = [phase + TAU * (i + rng.uniform(-0.3, 0.3)) / k for i in range(k)]
    radius = rng.uniform(0.7, 1.3)
    cx, cy = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
    if hrep:
        hs = []
        for a in angles:
            nx, ny = math.cos(a), math.sin(a)
            hs.append({"a": [_r(nx), _r(ny)], "b": _r(radius + nx * cx + ny * cy)})
        return Body({"type": "hrep", "halfspaces": hs}, "polygon", 2, k)
    pts = [[_r(cx + radius * math.cos(a)), _r(cy + radius * math.sin(a))]
           for a in angles]
    kind = "triangle" if k == 3 else "polygon"
    return Body({"type": "vrep", "vertices": pts}, kind, 2, k,
                _shoelace(pts) if k == 3 else None)


def parallelogram(rng: random.Random) -> Body:
    """An affine image of the square with |det| bounded away from zero."""
    ang = rng.uniform(0.0, TAU)
    s1, s2 = rng.uniform(0.5, 1.2), rng.uniform(0.5, 1.2)
    shear = rng.uniform(-0.6, 0.6)
    c, s = math.cos(ang), math.sin(ang)
    # M = R(ang) @ [[s1, shear], [0, s2]]
    m = [[c * s1, c * shear - s * s2], [s * s1, s * shear + c * s2]]
    cx, cy = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
    pts = [[_r(cx + m[0][0] * u + m[0][1] * v), _r(cy + m[1][0] * u + m[1][1] * v)]
           for u, v in ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))]
    return Body({"type": "vrep", "vertices": pts}, "parallelogram", 2, 4,
                _shoelace(pts))


def polytope3(rng: random.Random, v: int) -> Body:
    """v points near a Fibonacci spread on a randomly rotated sphere.

    The points are in general position on the sphere, so all are vertices
    and the hull is simplicial with exactly 2v - 4 triangular facets.
    """
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    qn = math.sqrt(sum(x * x for x in q))
    w, x, y, z = (t / qn for t in q)
    rot = [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
           [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
           [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]
    golden = math.pi * (3.0 - math.sqrt(5.0))
    radius = rng.uniform(0.7, 1.2)
    pts = []
    for i in range(v):
        zz = 1.0 - (2.0 * i + 1.0) / v
        rr = math.sqrt(max(0.0, 1.0 - zz * zz))
        p = [rr * math.cos(golden * i) + rng.uniform(-0.15, 0.15),
             rr * math.sin(golden * i) + rng.uniform(-0.15, 0.15),
             zz + rng.uniform(-0.15, 0.15)]
        pn = math.sqrt(sum(t * t for t in p))
        p = [t / pn for t in p]
        pts.append([_r(radius * sum(rot[a][b] * p[b] for b in range(3)))
                    for a in range(3)])
    return Body({"type": "vrep", "vertices": pts}, "polytope3", 3, 2 * v - 4)


def _shoelace(pts) -> float:
    """Area of a convex polygon whose vertices are in angular order."""
    n = len(pts)
    return abs(sum(pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1]
                   for i in range(n))) / 2.0


def unit(rng: random.Random, d: int) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    n = math.sqrt(sum(x * x for x in v))
    return [_r(x / n) for x in v]


# -- densities ---------------------------------------------------------------


def gaussian(rng: random.Random) -> dict:
    return {"type": "gaussian", "sigma": _r(rng.uniform(0.8, 1.5))}


def linear_power(rng: random.Random, dim: int, k: float) -> dict:
    """(a.x + b)_+^k with b large enough that the density is positive on a
    box of half-width 2 (every generated body and its concavity test box lie
    inside it), so the declared 1/(n+k)-concavity holds on the test box."""
    a = [_r(rng.uniform(-0.5, 0.5)) for _ in range(dim)]
    b = _r(2.0 * sum(abs(t) for t in a) + rng.uniform(0.5, 1.5))
    return {"type": "linear-power", "a": a, "b": b, "k": k}


def p_list(rng: random.Random, body: Body) -> list[float]:
    """One negative p and two positive ones; the positive p values share the
    Mellin ray nodes, so the second one is answered from the CovRay cache.

    Along most rays g(r) has kinks where the combinatorics of the
    intersection change, and at p >= 2 the Mellin rule's 96/192-node
    refinement test then misses its 1e-6 gate (exit code 3) on a share of
    random polygons. Only bodies whose ray profile has no interior kink,
    the named simplices and cubes, draw p from {2, 3}.
    """
    neg = rng.choice((-0.75, -0.5, -0.25))
    if body.kind in ("named-simplex", "named-cube"):
        return [neg] + sorted(rng.sample((0.5, 1.0, 2.0, 3.0), 2))
    return [neg, 0.5, 1.0]


# -- templates ---------------------------------------------------------------


@dataclass
class Item:
    """One generated job, the checks it must pass, and its cost drivers."""

    job: dict
    expect: dict
    template: str
    body: Body | None
    m: int
    density: str
    repeat: bool = False


class Ctx:
    """Per-stream state shared by the templates: the seeded RNG of the
    current block and, for short-jobs, the body pool."""

    def __init__(self, rng: random.Random, pool: dict[str, list[Body]] | None):
        self.rng = rng
        self.pool = pool
        self.repeat = False

    def pooled(self, kind: str, fresh: Callable[[], Body]) -> Body:
        """A body from the stream's pool for this kind, or a fresh one."""
        self.repeat = False
        if self.pool is None:
            return fresh()
        bodies = self.pool[kind]
        if bodies and self.rng.random() < REPEAT_SHARE:
            self.repeat = True
            return self.rng.choice(bodies)
        body = fresh()
        if len(bodies) < POOL_SIZE:
            bodies.append(body)
        else:
            bodies[self.rng.randrange(POOL_SIZE)] = body
        return body

    def seed(self) -> int:
        return self.rng.randrange(1_000_000)


def _job(command: str, body: Body | None, params: dict, ctx: Ctx, *,
         measure: dict | None = None, tolerance: float | None = None,
         output: str | None = None) -> dict:
    job: dict = {"schema_version": 1, "command": command}
    if body is not None:
        job["body"] = body.spec
    if measure is not None:
        job["measure"] = measure
    job["params"] = params
    job["seed"] = ctx.seed()
    if tolerance is not None:
        job["tolerance"] = tolerance
    if output is not None:
        job["output"] = output
    return job


def _chain(ctx: Ctx, body: Body, m: int, directions: int = 1, *,
           equality: bool = False) -> tuple[dict, dict]:
    params = {"branch": "s", "s": _r(1.0 / body.dim), "p_list": p_list(ctx.rng, body),
              "m": m, "directions": directions}
    if equality:
        # CSV carries every term of every direction, so the equality check
        # sees the whole chain, not just its worst adjacent pair.
        job = _job("verify-chain", body, params, ctx, tolerance=1e-6, output="csv")
        return job, {"kind": "chain-equality", "tolerance": 1e-6}
    return _job("verify-chain", body, params, ctx), {"kind": "report"}


def _variational(ctx: Ctx, body: Body, m: int, directions: int) -> tuple[dict, dict]:
    return (_job("verify-variational", body, {"m": m, "directions": directions}, ctx),
            {"kind": "report"})


# (name, m, density label, builder(ctx) -> (job, expect, body))
Template = tuple[str, int, str, Callable[[Ctx], tuple[dict, dict, Body | None]]]


def _chain_exact_templates() -> list[Template]:
    def chain_named(name, dim, m, **kw):
        def build(ctx):
            body = named(name, dim)
            return (*_chain(ctx, body, m, **kw), body)
        return build

    def chain_polygon(k, m, hrep=False):
        def build(ctx):
            body = polygon(ctx.rng, k, hrep=hrep)
            return (*_chain(ctx, body, m), body)
        return build

    def chain_poly3(v, m):
        def build(ctx):
            body = polytope3(ctx.rng, v)
            return (*_chain(ctx, body, m), body)
        return build

    def variational(make, m, directions):
        def build(ctx):
            body = make(ctx)
            return (*_variational(ctx, body, m, directions), body)
        return build

    return [
        ("chain-simplex2-m1", 1, "constant", chain_named("simplex", 2, 1, equality=True)),
        ("chain-simplex2-m2", 2, "constant", chain_named("simplex", 2, 2, equality=True)),
        ("chain-simplex3-m1", 1, "constant", chain_named("simplex", 3, 1, equality=True)),
        ("chain-cube2-m1", 1, "constant", chain_named("cube", 2, 1)),
        ("chain-cross2-m1", 1, "constant", chain_named("cross", 2, 1)),
        ("chain-cross3-m1", 1, "constant", chain_named("cross", 3, 1)),
        ("chain-cube3-m2", 2, "constant", chain_named("cube", 3, 2)),
        ("chain-pentagon-m1", 1, "constant", chain_polygon(5, 1)),
        ("chain-octagon-m1", 1, "constant", chain_polygon(8, 1)),
        ("chain-hexagon-hrep-m1", 1, "constant", chain_polygon(6, 1, hrep=True)),
        ("chain-pentagon-m2", 2, "constant", chain_polygon(5, 2)),
        ("chain-polytope3-m1", 1, "constant", chain_poly3(6, 1)),
        ("variational-hexagon-m1", 1, "constant",
         variational(lambda c: polygon(c.rng, 6), 1, 24)),
        ("variational-pentagon-m2", 2, "constant",
         variational(lambda c: polygon(c.rng, 5), 2, 12)),
        ("variational-polytope3-m1", 1, "constant",
         variational(lambda c: polytope3(c.rng, 7), 1, 12)),
        # These three cheap named-body checks are here to steady p50, not to
        # represent use: they put the median job among the 2-D chains and
        # simplex checks, whose costs lie within 10% of each other. p50 thus
        # reflects 2-D chains; the 3-D chains set p90.
        ("variational-cube2-m2", 2, "constant",
         variational(lambda c: named("cube", 2), 2, 12)),
        ("variational-cross3-m1", 1, "constant",
         variational(lambda c: named("cross", 3), 1, 12)),
        ("variational-simplex3-m2", 2, "constant",
         variational(lambda c: named("simplex", 3), 2, 8)),
    ]


def _chain_weighted_templates() -> list[Template]:
    def gauss_chain(make, m):
        def build(ctx):
            body = make(ctx)
            params = {"branch": "Q", "p_list": p_list(ctx.rng, body), "m": m,
                      "directions": 1}
            return (_job("verify-chain", body, params, ctx, measure=gaussian(ctx.rng)),
                    {"kind": "report"}, body)
        return build

    def linpow_chain(make, m, k=1.0):
        def build(ctx):
            body = make(ctx)
            measure = linear_power(ctx.rng, body.dim, k)
            params = {"branch": "s", "s": _r(1.0 / (body.dim + k)),
                      "p_list": p_list(ctx.rng, body), "m": m, "directions": 1}
            return (_job("verify-chain", body, params, ctx, measure=measure),
                    {"kind": "report"}, body)
        return build

    def rmb_direct(make, p_choices, m, density):
        def build(ctx):
            body = make(ctx)
            measure = (gaussian(ctx.rng) if density == "gaussian"
                       else linear_power(ctx.rng, body.dim, 1.0))
            p = ctx.rng.choice(p_choices)
            params = {"p": p, "m": m, "method": "direct",
                      "direction": unit(ctx.rng, body.dim * m)}
            return (_job("rmb", body, params, ctx, measure=measure),
                    {"kind": "positive-value"}, body)
        return build

    def chord(make):
        def build(ctx):
            body = make(ctx)
            params = {"fixture": "covariogram", "count": 8}
            return (_job("verify-chord", body, params, ctx),
                    {"kind": "report"}, body)
        return build

    poly = lambda k: (lambda c: polygon(c.rng, k))
    return [
        ("gauss-chain-polygon-m1", 1, "gaussian", gauss_chain(poly(5), 1)),
        ("gauss-chain-simplex2-m2", 2, "gaussian",
         gauss_chain(lambda c: named("simplex", 2), 2)),
        ("gauss-chain-cube2-m1", 1, "gaussian",
         gauss_chain(lambda c: named("cube", 2), 1)),
        ("linpow-chain-polygon-m1", 1, "linear-power", linpow_chain(poly(4), 1)),
        ("linpow-chain-simplex2-m1", 1, "linear-power",
         linpow_chain(lambda c: named("simplex", 2), 1)),
        ("rmb-direct-polygon", 1, "gaussian",
         rmb_direct(poly(6), (-0.5, 0.5, 1.0, 2.0), 1, "gaussian")),
        ("rmb-direct-polygon-m2", 2, "linear-power",
         rmb_direct(poly(5), (0.5, 1.0, 2.0), 2, "linear-power")),
        ("rmb-direct-polytope3", 1, "gaussian",
         rmb_direct(lambda c: polytope3(c.rng, 6), (0.5, 1.0, 2.0), 1, "gaussian")),
        ("rmb-p0-polygon", 1, "linear-power",
         rmb_direct(poly(4), (0,), 1, "linear-power")),
        ("rmb-p0-cross3", 1, "gaussian",
         rmb_direct(lambda c: named("cross", 3), (0,), 1, "gaussian")),
        # The second chord template is here to steady p50, not to represent
        # use: two chord templates of equal facet count sit in the middle of
        # the cost ranking, so the median job is one of about twice as many.
        # p50 thus reflects verify-chord jobs (mostly polytope work); the
        # Gaussian and linear-power chains, where measure and _quad work,
        # lie above it and set p90.
        ("chord-covariogram-quadrilateral", 1, "constant", chord(poly(4))),
        ("chord-covariogram-square", 1, "constant", chord(lambda c: named("cube", 2))),
    ]


def _short_templates() -> list[Template]:
    tri = lambda c: polygon(c.rng, 3)
    poly2 = lambda c: polygon(c.rng, c.rng.choice((4, 5, 6)))
    poly3 = lambda c: polytope3(c.rng, c.rng.choice((5, 6, 7)))

    def with_body(kind, fresh, fn):
        def build(ctx):
            body = ctx.pooled(kind, lambda: fresh(ctx))
            job, expect = fn(ctx, body)
            return job, expect, body
        return build

    def covariogram_oracle(ctx, body):
        shift = [_r(0.3 * t) for t in unit(ctx.rng, body.dim)]
        return (_job("covariogram", body, {"x": shift, "oracle_samples": 20_000}, ctx),
                {"kind": "covariogram-oracle"})

    def diffbody(m, count=None):
        def fn(ctx, body):
            params = {"m": m}
            if count:
                params["count"] = count
            expect = {"kind": "positive-value", "key": "volume_ratio"}
            if m == 1 and body.kind in ("triangle", "parallelogram"):
                expect = {"kind": "closed-form", "key": "volume_ratio",
                          "value": 6.0 if body.kind == "triangle" else 4.0,
                          "tolerance": 1e-6}
            return _job("diffbody", body, params, ctx, tolerance=1e-6), expect
        return fn

    def projbody_volume(ctx, body):
        params = {"volume": True}
        if body.dim == 3:
            params["count"] = 4000
        expect = {"kind": "positive-value", "key": "polar_volume"}
        if body.kind == "triangle":
            expect = {"kind": "closed-form", "key": "polar_volume",
                      "value": 1.5 / body.area, "tolerance": 1e-6}
        return _job("projbody", body, params, ctx, tolerance=1e-6), expect

    def rmb_inf(ctx, body):
        params = {"p": "inf", "direction": unit(ctx.rng, body.dim)}
        return _job("rmb", body, params, ctx), {"kind": "positive-value"}

    def verify_rs(m, count=None):
        def fn(ctx, body):
            params = {"m": m}
            if count:
                params["count"] = count
            if m == 1 and body.kind in ("triangle", "parallelogram"):
                value = 6.0 if body.kind == "triangle" else 4.0
                return (_job("verify-rs", body, params, ctx, tolerance=1e-6),
                        {"kind": "closed-form", "report": True, "key": "lhs",
                         "value": value, "tolerance": 1e-6})
            return _job("verify-rs", body, params, ctx), {"kind": "report"}
        return fn

    def verify_zhang(m, count=None):
        def fn(ctx, body):
            params = {"m": m}
            if count:
                params["count"] = count
            return _job("verify-zhang", body, params, ctx), {"kind": "report"}
        return fn

    def verify_linear(ctx, body):
        return (_job("verify-linear", body, {"trials": 3, "directions": 10}, ctx),
                {"kind": "report"})

    def dualvol(ctx, body):
        return _job("dualvol", body, {}, ctx), {"kind": "dualvol"}

    return [
        ("covariogram-oracle-2d", 1, "constant",
         with_body("poly2", poly2, covariogram_oracle)),
        ("covariogram-oracle-3d", 1, "constant",
         with_body("poly3", poly3, covariogram_oracle)),
        ("diffbody-m1-triangle", 1, "constant", with_body("triangle", tri, diffbody(1))),
        ("diffbody-m1-parallelogram", 1, "constant",
         with_body("parallelogram", lambda c: parallelogram(c.rng), diffbody(1))),
        ("diffbody-m2-lp", 2, "constant",
         with_body("triangle", tri, diffbody(2, count=400))),
        ("projbody-volume-triangle", 1, "constant",
         with_body("triangle", tri, projbody_volume)),
        ("projbody-volume-3d", 1, "constant", with_body("poly3", poly3, projbody_volume)),
        ("rmb-inf-2d", 1, "constant", with_body("poly2", poly2, rmb_inf)),
        ("rmb-inf-3d", 1, "constant", with_body("poly3", poly3, rmb_inf)),
        ("verify-rs-m1-triangle", 1, "constant", with_body("triangle", tri, verify_rs(1))),
        ("verify-rs-m1-parallelogram", 1, "constant",
         with_body("parallelogram", lambda c: parallelogram(c.rng), verify_rs(1))),
        ("verify-rs-m2", 2, "constant", with_body("parallelogram", lambda c: parallelogram(c.rng),
                     verify_rs(2, 20_000))),
        ("verify-zhang-m1", 1, "constant", with_body("poly2", poly2, verify_zhang(1))),
        ("verify-zhang-m2", 2, "constant", with_body("triangle", tri, verify_zhang(2))),
        ("verify-linear", 1, "constant", with_body("poly2", poly2, verify_linear)),
        ("dualvol", 1, "constant", with_body("poly2", poly2, dualvol)),
    ]


TEMPLATES: dict[str, list[Template]] = {
    "chain-exact": _chain_exact_templates(),
    "chain-weighted": _chain_weighted_templates(),
    "short-jobs": _short_templates(),
}

# short-jobs only: the chance that a job takes its body from the pool of
# bodies already used by this stream, and the pool size per body kind.
REPEAT_SHARE = 0.4
POOL_SIZE = 4


class Stream:
    """The seeded job stream of one workload, generated block by block."""

    def __init__(self, workload: str, seed: int):
        if workload not in TEMPLATES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = int(seed)
        self.templates = TEMPLATES[workload]
        kinds = ("poly2", "poly3", "triangle", "parallelogram")
        self.pool = ({k: [] for k in kinds} if workload == "short-jobs" else None)
        self.blocks_made = 0

    @property
    def block_size(self) -> int:
        return len(self.templates)

    def next_block(self) -> list[Item]:
        rng = random.Random(f"{self.workload}/{self.seed}/{self.blocks_made}")
        self.blocks_made += 1
        ctx = Ctx(rng, self.pool)
        order = list(range(len(self.templates)))
        rng.shuffle(order)
        items = []
        for i in order:
            name, m, density, build = self.templates[i]
            ctx.repeat = False
            job, expect, body = build(ctx)
            items.append(Item(job, expect, name, body, m, density, ctx.repeat))
        return items


def warmup_items(workload: str) -> list[Item]:
    """One block from a stream seeded apart from any measured seed; it runs
    before timing so lazy imports and cached quadrature rules are in place."""
    return Stream(workload, -1).next_block()


# blocks that ``main`` summarises
SUMMARY_BLOCKS = 10


def describe(items: list[Item]) -> dict:
    """The input properties that drive the cost of a list of jobs."""
    facets = Counter()
    for it in items:
        if it.body is not None:
            facets[f"{it.body.dim}d/{it.body.facets}"] += 1
    n = len(items)
    return {
        "jobs": n,
        "commands": dict(sorted(Counter(it.job["command"] for it in items).items())),
        "facets_by_dim": dict(sorted(facets.items())),
        "m_mix": dict(sorted(Counter(f"m={it.m}" for it in items).items())),
        "density_mix": dict(sorted(Counter(it.density for it in items).items())),
        "repeat_body_share": round(sum(it.repeat for it in items) / n, 4) if n else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    stream = Stream(args.workload, args.seed)
    items = [it for _ in range(SUMMARY_BLOCKS) for it in stream.next_block()]
    print(f"workload {args.workload}: {WHY[args.workload]}")
    print(f"block size {stream.block_size}; properties of the first "
          f"{SUMMARY_BLOCKS} blocks:")
    print(json.dumps(describe(items), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
