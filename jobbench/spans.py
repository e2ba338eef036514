"""Span tracing of covbody's modules, installed from outside the package.

The wrappers go around the functions one covbody module calls in another.
Because the modules import with ``from .x import y``, a function has one
binding per importing module (``covbody.covariogram.covariogram`` and
``covbody.projection.covariogram`` are the same object under two names), so
each wrapper is patched into every ``covbody.*`` namespace that binds the
original object, including the defining module, whose own internal calls go
through its globals too. A few methods are wrapped on their classes.

A span records its name, start, end, parent span and job id. Spans stay in
memory, in parallel lists, until the run ends. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# (span name, module, attribute). Several attributes may share a span name.
FUNCTION_SPANS: tuple[tuple[str, str, str], ...] = (
    ("cli.run", "covbody.cli", "run"),
    ("cli.render", "covbody.cli", "_render_json"),
    ("cli.render", "covbody.cli", "_render_csv"),
    ("polytope.vertex_enum", "covbody.polytope", "enumerate_vertices"),
    ("polytope.hull", "covbody.polytope", "ConvexHull"),
    ("polytope.volume", "covbody.polytope", "_volume_of_points"),
    ("polytope.build", "covbody.polytope", "_build_from_points"),
    ("polytope.intersect", "covbody.polytope", "intersect_translates"),
    ("polytope.star_volume", "covbody.polytope", "star_volume"),
    ("polytope.apply_linear", "covbody.polytope", "apply_linear"),
    ("covariogram.eval", "covbody.covariogram", "covariogram"),
    ("covariogram.diffbody_radial", "covbody.covariogram", "diffbody_radial"),
    ("covariogram.diffbody_polytope", "covbody.covariogram", "diffbody_polytope"),
    ("covariogram.diffbody_star", "covbody.covariogram", "diffbody_star"),
    ("covariogram.slice", "covbody.covariogram", "covariogram_slice"),
    ("covariogram.roof", "covbody.covariogram", "roof"),
    ("measure.integrate", "covbody.measure", "_integrate_points"),
    ("measure.surface", "covbody.measure", "weighted_surface_measure"),
    ("measure.concavity_check", "covbody.measure", "check_concavity_tag"),
    ("measure.transform", "covbody.measure", "transform_measure"),
    ("measure.from_spec", "covbody.measure", "density_from_spec"),
    ("quad.simplex_rule", "covbody._quad", "simplex_rule"),
    ("quad.triangulate", "covbody._quad", "triangulate_vertices"),
    ("quad.order_polygon", "covbody._quad", "order_polygon"),
    ("simplexlp.solve", "covbody.simplexlp", "solve_lp_max"),
    ("radialmean.mellin", "covbody.radialmean", "rmb_radial_mellin"),
    ("radialmean.direct", "covbody.radialmean", "rmb_radial_direct"),
    ("radialmean.direct", "covbody.radialmean", "rmb_radial_p0"),
    ("radialmean.limit", "covbody.radialmean", "rmb_limit_neg1"),
    ("projection.support", "covbody.projection", "projection_support"),
    ("projection.polar_radial", "covbody.projection", "polar_projection_radial"),
    ("projection.polar_volume", "covbody.projection", "polar_projection_volume"),
    ("projection.variational", "covbody.projection", "variational_check"),
    ("projection.linear", "covbody.projection", "linear_covariance_check"),
    ("oracle.sphere", "covbody.oracle", "sphere_quadrature"),
    ("oracle.mc", "covbody.oracle", "mc_measure"),
    ("verify.chain", "covbody.verify", "chain_check"),
    ("verify.rogers_shephard", "covbody.verify", "rogers_shephard_check"),
    ("verify.zhang", "covbody.verify", "zhang_check"),
    ("verify.zhang", "covbody.verify", "general_zhang_check"),
    ("verify.nu_mass", "covbody.verify", "_nu_mass_of_star"),
    ("verify.denominator", "covbody.verify", "_denominator_integral"),
    ("verify.berwald", "covbody.verify", "berwald_const_F"),
    ("verify.berwald", "covbody.verify", "berwald_const_Q"),
    ("genvol.dual_volume", "covbody.genvol", "dual_volume"),
    ("genvol.chord", "covbody.genvol", "chord_lower_check"),
    ("genvol.chord", "covbody.genvol", "chord_upper_check"),
    ("genvol.ray_fn", "covbody.genvol", "covariogram_ray_fn"),
    ("genvol.kernel", "covbody.genvol", "kernel_from_spec"),
)

# (span name, module, class, method): methods reached through instances,
# which no namespace patch can catch.
METHOD_SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("cli.spec", "covbody.cli", "_Job", "body"),
    ("cli.spec", "covbody.cli", "_Job", "measure"),
    ("projection.support_batch", "covbody.projection", "ProjectionBody", "support_batch"),
    ("measure.density", "covbody.measure", "ConstantDensity", "__call__"),
    ("measure.density", "covbody.measure", "GaussianDensity", "__call__"),
    ("measure.density", "covbody.measure", "LinearPowerDensity", "__call__"),
    ("measure.density", "covbody.measure", "ProductDensity", "__call__"),
    ("measure.density", "covbody.measure", "ComposedDensity", "__call__"),
)


def _covbody_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "covbody" or name.startswith("covbody."))]


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             count: Callable[["Tracer", int, tuple, dict, object], None] | None = None):
        """A wrapper recording one span per call; ``count`` runs after the
        call with the span index, the arguments and the result."""
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(tracer, idx, args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every span and counter into the loaded covbody modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname in {m for _, m, _ in FUNCTION_SPANS} | {m for _, m, _, _ in METHOD_SPANS}:
            importlib.import_module(modname)
        modules = _covbody_modules()
        for name, modname, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original, _COUNTERS.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
        for name, modname, clsname, meth in METHOD_SPANS:
            cls = getattr(sys.modules[modname], clsname)
            self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], _COUNTERS.get(name)))
        covray = sys.modules["covbody.covariogram"].CovRay
        self._patch(covray, "g", self._count_covray(covray.__dict__["g"]))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _count_covray(self, g):
        """Counts CovRay.g lookups with r > 0 and how many its cache answers."""
        counts = self.counts

        @functools.wraps(g)
        def wrapper(ray, r):
            if float(r) > 0.0:
                counts["covray.lookups"] += 1
                if float(r) in ray._cache:
                    counts["covray.hits"] += 1
            return g(ray, r)

        return wrapper

    # -- output -----------------------------------------------------------

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans as JSON: span names once, then one row per span of
        [name index, start, end, parent, job], times relative to the first
        span in seconds."""
        index: dict[str, int] = {}
        t0 = self.starts[0] if self.starts else 0.0
        rows = []
        for i, name in enumerate(self.names):
            k = index.setdefault(name, len(index))
            rows.append([k, round(self.starts[i] - t0, 9), round(self.ends[i] - t0, 9),
                         self.parents[i], self.jobs[i]])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "names": list(index), "spans": rows}, fh,
                      separators=(",", ":"))


# -- counters ----------------------------------------------------------------


def _count_vertex_enum(tracer: Tracer, idx: int, args: tuple, kwargs: dict,
                       result) -> None:
    rows, n = args[0].shape
    tracer.counts["vertex_enum.subsets"] += math.comb(rows, n) if rows >= n else 0
    tracer.counts["vertex_enum.vertices"] += len(result)


def _count_density(tracer: Tracer, idx: int, args: tuple, kwargs: dict,
                   result) -> None:
    parent = tracer.parents[idx]
    # product and composed densities call their factors; count rows once
    if parent < 0 or tracer.names[parent] != "measure.density":
        tracer.counts["density.rows"] += len(result)


def _count_support_rows(tracer: Tracer, idx: int, args: tuple, kwargs: dict,
                        result) -> None:
    tracer.counts["projection.rows"] += len(result)


def _count_sphere(tracer: Tracer, idx: int, args: tuple, kwargs: dict,
                  result) -> None:
    tracer.counts["oracle.samples"] += len(result.nodes)


def _count_mc(tracer: Tracer, idx: int, args: tuple, kwargs: dict,
              result) -> None:
    mc = sys.modules["covbody.oracle"].__dict__.get("mc_measure")
    bound = inspect.signature(inspect.unwrap(mc)).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts["oracle.samples"] += int(bound.arguments["n_samples"])


_COUNTERS = {
    "polytope.vertex_enum": _count_vertex_enum,
    "measure.density": _count_density,
    "projection.support_batch": _count_support_rows,
    "oracle.sphere": _count_sphere,
    "oracle.mc": _count_mc,
}


# -- analysis ----------------------------------------------------------------


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# name -> (unit, better, what end-to-end metric it should move, where). On
# chain-exact the 2-D chains set p50 and the 3-D chains p90; on
# chain-weighted the verify-chord jobs set p50 and the Gaussian and
# linear-power chains, where measure and _quad work, lie above it.
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "polytope.vertex_enum.calls": ("calls/job", "lower",
                                   "job_s.p50, job_s.p90, jobs_per_s on chain-exact; "
                                   "diluted on chain-weighted"),
    "polytope.vertex_enum.self_s": ("s/job", "lower",
                                    "job_s.p50, job_s.p90, jobs_per_s on chain-exact; "
                                    "diluted on chain-weighted"),
    "polytope.vertex_enum.yield": ("ratio", "higher",
                                   "vertices returned / row subsets tried; chain-exact"),
    "polytope.hull.calls": ("calls/job", "lower",
                            "chain-exact (intersection volumes); short-jobs (body construction)"),
    "polytope.hull.self_s": ("s/job", "lower",
                             "chain-exact (intersection volumes); short-jobs (body construction)"),
    "polytope.self_s": ("s/job", "lower",
                        "job_s.p50 on chain-exact, chain-weighted and short-jobs"),
    "covariogram.evals": ("calls/job", "lower", "job_s.p50 on chain-exact and chain-weighted"),
    "covariogram.self_s": ("s/job", "lower", "job_s.p50 on chain-exact and chain-weighted"),
    "covariogram.evals_per_radial": ("ratio", "lower",
                                     "evaluations / Mellin radial values; chain workloads"),
    "covray.hit_ratio": ("ratio", "higher",
                         "CovRay.g lookups with r > 0 answered from cache / all such lookups"),
    "measure.integrate.calls": ("calls/job", "lower",
                                "job_s.p90, jobs_per_s on chain-weighted; ~0 time on chain-exact"),
    "measure.integrate.self_s": ("s/job", "lower",
                                 "job_s.p90, jobs_per_s on chain-weighted; ~0 on chain-exact"),
    "measure.density_points": ("rows/job", "lower",
                               "job_s.p90, jobs_per_s on chain-weighted; ~0 on chain-exact"),
    "measure.surface.calls": ("calls/job", "lower", "job_s.p50 on short-jobs"),
    "measure.surface.self_s": ("s/job", "lower", "job_s.p50 on short-jobs"),
    "measure.self_s": ("s/job", "lower", "job_s.p90, jobs_per_s on chain-weighted"),
    "quad.simplex_rule.calls": ("calls/job", "lower",
                                "job_s.p90, jobs_per_s on chain-weighted; 0 on chain-exact"),
    "quad.self_s": ("s/job", "lower", "job_s.p90, jobs_per_s on chain-weighted"),
    "simplexlp.solves": ("calls/job", "lower",
                         "job_s.p90 on short-jobs (diffbody m=2); one LP per direction on chains"),
    "simplexlp.self_s": ("s/job", "lower", "job_s.p90 on short-jobs"),
    "radialmean.mellin.calls": ("calls/job", "lower", "chain workloads"),
    "radialmean.direct.calls": ("calls/job", "lower", "chain-weighted (rmb direct, p = 0)"),
    "radialmean.self_s": ("s/job", "lower", "chain workloads"),
    "projection.support_rows": ("rows/job", "lower", "job_s.p90, peak_rss_mb on short-jobs"),
    "projection.self_s": ("s/job", "lower", "job_s.p90, peak_rss_mb on short-jobs"),
    "oracle.samples": ("samples/job", "lower", "job_s.p90, peak_rss_mb on short-jobs"),
    "oracle.self_s": ("s/job", "lower", "job_s.p90, peak_rss_mb on short-jobs"),
    "verify.self_s": ("s/job", "lower", "job_s.p90, peak_rss_mb on short-jobs"),
    "genvol.self_s": ("s/job", "lower", "job_s.p50 on chain-weighted (verify-chord)"),
    "cli.calls": ("calls/job", "lower",
                  "cli.run (schema validation), body/measure spec parsing and report "
                  "rendering; job_s.p50 on short-jobs"),
    "cli.self_s": ("s/job", "lower", "job_s.p50 on short-jobs; ~0 share on chain workloads"),
    "trace.job_s": ("s/job", "lower", "traced wall time per job: the base of every share"),
    "trace.overhead": ("ratio", "lower",
                       "traced / untraced time per job - 1, at the reference speed"),
}

LAYERS = ("cli", "polytope", "covariogram", "measure", "quad", "simplexlp",
          "radialmean", "projection", "oracle", "verify", "genvol")


def layer_metrics(tracer: Tracer, traced_wall: float,
                  overhead: float) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics of a traced run, per traced job, and each
    layer's self-time share of the traced wall time."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: dict[str, int] = defaultdict(int)
    span_self: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for name, st in zip(tracer.names, selfs):
        calls[name] += 1
        span_self[name] += st
        layer_self[_layer(name)] += st
    jobs = calls["cli.run"]
    if jobs == 0:
        raise ValueError("no traced jobs")
    c = tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "polytope.vertex_enum.calls": calls["polytope.vertex_enum"] / jobs,
        "polytope.vertex_enum.self_s": span_self["polytope.vertex_enum"] / jobs,
        "polytope.vertex_enum.yield": ratio(c["vertex_enum.vertices"],
                                            c["vertex_enum.subsets"]),
        "polytope.hull.calls": calls["polytope.hull"] / jobs,
        "polytope.hull.self_s": span_self["polytope.hull"] / jobs,
        "covariogram.evals": calls["covariogram.eval"] / jobs,
        "covariogram.evals_per_radial": ratio(calls["covariogram.eval"],
                                              calls["radialmean.mellin"]),
        "covray.hit_ratio": ratio(c["covray.hits"], c["covray.lookups"]),
        "measure.integrate.calls": calls["measure.integrate"] / jobs,
        "measure.integrate.self_s": span_self["measure.integrate"] / jobs,
        "measure.density_points": c["density.rows"] / jobs,
        "measure.surface.calls": calls["measure.surface"] / jobs,
        "measure.surface.self_s": span_self["measure.surface"] / jobs,
        "quad.simplex_rule.calls": calls["quad.simplex_rule"] / jobs,
        "simplexlp.solves": calls["simplexlp.solve"] / jobs,
        "radialmean.mellin.calls": calls["radialmean.mellin"] / jobs,
        "radialmean.direct.calls": calls["radialmean.direct"] / jobs,
        "projection.support_rows": c["projection.rows"] / jobs,
        "oracle.samples": c["oracle.samples"] / jobs,
        "cli.calls": sum(n for name, n in calls.items() if _layer(name) == "cli") / jobs,
        "trace.job_s": traced_wall / jobs,
        "trace.overhead": overhead,
    }
    for layer in LAYERS:
        key = f"{layer}.self_s"
        if key in PER_LAYER:
            m[key] = layer_self[layer] / jobs
    shares = {layer: layer_self[layer] / traced_wall for layer in LAYERS}
    return {k: m[k] for k in PER_LAYER}, shares
