"""Batch front door: one JSON job in, one report out.

A job is a single JSON document (from a file or standard input) validated
against a fixed schema before anything runs. The exit status encodes the
outcome: 0 for a passing check or a plain computation, 1 for an inequality
check that ran and failed, 2 for malformed or inconsistent input, 3 for a
numeric routine that could not deliver its accuracy target. Reports are
written as JSON (stable key order) or CSV to the chosen output.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import sys
from typing import Any, Callable

import jsonschema
import numpy as np

from .covariogram import (MDirection, covariogram, covariogram_slice,
                          diffbody_polytope, diffbody_radial, diffbody_star,
                          roof)
from .errors import InputError, NumericError
from .genvol import (affine_ray_fn, capped_ray_fn, chord_lower_check,
                     chord_upper_check, covariogram_ray_fn, dual_volume,
                     kernel_from_spec, profile_ray_fn)
from .measure import (Concavity, WeightedMeasure, boundary_measure_total,
                      check_concavity_tag, density_from_spec, log_concavity,
                      power_concavity)
from .oracle import mc_measure, rng_for, sphere_quadrature
from .polytope import (LinearMap, Polytope, StarBodyFn, intersect_translates,
                       star_volume, volume)
from .projection import (linear_covariance_check, polar_projection_radial,
                         polar_projection_volume, projection_support,
                         variational_check)
from .radialmean import RadialMeanBody, rmb_limit_neg1
from .report import VerifyReport
from .verify import (ChainSpec, chain_check, direction_mesh,
                     general_zhang_check, rogers_shephard_check, zhang_check)

SCHEMA_VERSION = 1

COMMANDS = ("covariogram", "diffbody", "projbody", "rmb", "verify-chain",
            "verify-zhang", "verify-rs", "verify-variational", "verify-linear",
            "verify-chord", "dualvol")

JOB_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": list(COMMANDS)},
        "body": {"type": "object"},
        "measure": {"type": "object"},
        "params": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "output": {"enum": ["json", "csv"]},
        "outfile": {"type": "string"},
    },
}

# Which operations each command exercises (directly or through the functions
# it calls); the union over all commands covers the whole library surface.
COMMAND_OPERATIONS: dict[str, tuple[str, ...]] = {
    "covariogram": ("covariogram.covariogram", "covariogram.covariogram_slice",
                    "polytope-core.intersect_translates", "polytope-core.volume",
                    "measure.integrate_over_polytope", "oracle.mc_measure"),
    "diffbody": ("covariogram.diffbody_radial", "covariogram.roof",
                 "polytope-core.volume", "polytope-core.star_volume",
                 "polytope-core.radial", "polytope-core.support",
                 "oracle.sphere_quadrature"),
    "projbody": ("projection.projection_support",
                 "projection.polar_projection_radial",
                 "measure.weighted_surface_measure",
                 "measure.boundary_measure_total", "oracle.sphere_quadrature"),
    "rmb": ("radialmean.rmb_radial_direct", "radialmean.rmb_radial_mellin",
            "radialmean.rmb_radial_p0", "radialmean.rmb_limit_neg1",
            "covariogram.diffbody_radial"),
    "verify-chain": ("verify.chain_check", "verify.gen_binom",
                     "verify.berwald_const_F", "verify.berwald_const_Q",
                     "radialmean.rmb_radial_mellin",
                     "covariogram.diffbody_radial"),
    "verify-zhang": ("verify.zhang_check", "verify.general_zhang_check",
                     "measure.integrate_over_polytope",
                     "projection.polar_projection_radial"),
    "verify-rs": ("verify.rogers_shephard_check", "covariogram.diffbody_radial",
                  "polytope-core.volume", "polytope-core.star_volume"),
    "verify-variational": ("projection.variational_check",
                           "covariogram.covariogram"),
    "verify-linear": ("projection.linear_covariance_check",
                      "polytope-core.apply_linear", "measure.transform_measure"),
    "verify-chord": ("genvol.chord_lower_check", "genvol.chord_upper_check",
                     "genvol.dual_volume", "oracle.sphere_quadrature"),
    "dualvol": ("genvol.dual_volume", "polytope-core.star_volume",
                "oracle.sphere_quadrature"),
}

ALL_OPERATIONS = frozenset(
    op for ops in COMMAND_OPERATIONS.values() for op in ops) | {"cli.run"}


# -- job plumbing -----------------------------------------------------------


class _Job:
    """Validated job with lazy body/measure construction."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.command: str = raw["command"]
        self.seed = int(raw.get("seed", 42))
        self.tolerance = raw.get("tolerance")
        self.params: dict = dict(raw.get("params", {}))

    def body(self) -> Polytope:
        spec = self.raw.get("body")
        if spec is None:
            raise InputError(f"command {self.command!r} needs a body")
        if isinstance(spec, dict) and "type" not in spec and "name" in spec:
            spec = {"type": "named", **spec}
        return Polytope.from_spec(spec)

    def has_body(self) -> bool:
        return self.raw.get("body") is not None

    def measure(self, dim: int) -> WeightedMeasure:
        spec = self.raw.get("measure")
        if spec is None:
            return WeightedMeasure.lebesgue(dim)
        return WeightedMeasure(density_from_spec(spec, dim))


# Params that count something (nodes, directions, trials, samples, blocks or
# dimensions); wherever a command takes one it must be a positive integer.
COUNT_PARAMS = frozenset({"count", "dim", "directions", "grid", "inner", "m",
                          "n_mc", "oracle_samples", "trials"})


def _is_count(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return (isinstance(value, int) or value.is_integer()) and value >= 1


def _take(params: dict, allowed: set[str]) -> dict:
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise InputError(f"unknown parameter(s): {', '.join(unknown)}")
    for key in sorted(COUNT_PARAMS & set(params)):
        if not _is_count(params[key]):
            raise InputError(
                f"params.{key} must be a positive integer, got {params[key]!r}")
    return params


def _refuse(params: dict, keys: tuple[str, ...], context: str) -> None:
    """Reject params that the command would otherwise accept and ignore."""
    given = [k for k in keys if k in params]
    if given:
        raise InputError(f"parameter(s) {', '.join(given)} have no effect {context}")


def _direction(params: dict, n: int, m: int, key: str = "direction") -> MDirection:
    raw = params.get(key)
    if raw is None:
        raise InputError(f"params.{key} is required")
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        if arr.size == n * m:
            arr = arr.reshape(m, n)
        else:
            raise InputError(
                f"params.{key} must hold {n * m} coordinates ({m} blocks of "
                f"dimension {n}), got {arr.size}")
    if arr.shape != (m, n):
        raise InputError(f"params.{key} must be an {m} x {n} tuple of vectors")
    return MDirection.normalized(arr)


def _shifts(params: dict, n: int) -> np.ndarray:
    arr = np.asarray(params["x"], dtype=float)
    m = params.get("m")
    if arr.ndim == 1:
        if m is None:
            if arr.size % n:
                raise InputError(f"params.x length must be a multiple of {n}")
            m = arr.size // n
        arr = arr.reshape(int(m), -1)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise InputError(f"params.x must be an m x {n} array of shift vectors")
    if m is not None and arr.shape[0] != int(m):
        raise InputError("params.m contradicts the shape of params.x")
    return arr


def _concavity_from_spec(spec: Any):
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("concavity spec must be an object with a 'type'")
    if spec["type"] == "power":
        if "s" not in spec:
            raise InputError("power concavity needs 's'")
        return power_concavity(float(spec["s"]))
    if spec["type"] == "log":
        return log_concavity()
    raise InputError(f"unknown concavity type {spec['type']!r}")


def _check_declared_tag(mu: WeightedMeasure, K: Polytope, tag: Concavity) -> None:
    """Spot-check that the requested concavity class fits the density."""
    density = copy.copy(mu.density)
    density.concavity = tag
    ok, msg = check_concavity_tag(density, K.bounding_box())
    if not ok:
        label = tag.kind if tag.s is None else f"{tag.kind}({tag.s:g})"
        raise InputError(
            f"declared concavity {label} is inconsistent with the density: {msg}")


def _jsonable(x: Any) -> Any:
    """JSON-safe copy: numpy scalars/arrays unwrapped, non-finite -> null."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return v if math.isfinite(v) else None
    return x


def _report_payload(command: str, rep: VerifyReport):
    payload = {"schema_version": SCHEMA_VERSION, "command": command,
               "report": _jsonable(rep.to_json())}
    return payload, rep, 0 if rep.passed else 1


def _result_payload(command: str, result: dict):
    payload = {"schema_version": SCHEMA_VERSION, "command": command,
               "result": _jsonable(result)}
    return payload, None, 0


# -- command handlers -------------------------------------------------------


def _cmd_covariogram(job: _Job):
    p = _take(job.params, {"x", "m", "direction", "grid", "oracle",
                           "oracle_samples"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    if "x" not in p and "direction" not in p:
        raise InputError("covariogram needs params.x or params.direction")
    result: dict[str, Any] = {}
    if "x" in p:
        shifts = _shifts(p, n)
        P = intersect_translates(K, shifts)
        result["m"] = len(shifts)
        result["x"] = shifts
        result["value"] = covariogram(K, mu, shifts)
        result["intersection_volume"] = 0.0 if P is None else volume(P)
        if p.get("oracle", "oracle_samples" in p):
            samples = int(p.get("oracle_samples", 200_000))
            box = K.bounding_box()  # the intersection lies inside K

            def member(X: np.ndarray) -> np.ndarray:
                ok = (X @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
                for sh in shifts:
                    ok &= ((X - sh) @ K.A.T <= K.b[None, :] + 1e-12).all(axis=1)
                return ok

            est, err = mc_measure(mu.density, member, box,
                                  n_samples=samples, seed=job.seed,
                                  tag="cli-covariogram")
            result["oracle_estimate"] = est
            result["oracle_stderr"] = err
    if "direction" in p:
        m = int(p.get("m", 1)) if "x" not in p else int(result["m"])
        theta = _direction(p, n, m)
        sl = covariogram_slice(K, mu, theta, grid=int(p.get("grid", 32)))
        result["slice"] = {"rho_D": sl.rho_D, "nodes": sl.nodes,
                           "values": sl.node_values}
    return _result_payload("covariogram", result)


def _cmd_diffbody(job: _Job):
    p = _take(job.params, {"m", "direction", "count", "x"})
    K = job.body()
    n = K.dim
    m = int(p.get("m", 1))
    d = n * m
    result: dict[str, Any] = {"m": m, "dim": d}
    if m == 1:
        vol = volume(diffbody_polytope(K, 1))
    else:
        quad = sphere_quadrature(d, "auto", int(p.get("count", 200_000)),
                                 job.seed)
        vol = star_volume(diffbody_star(K, m, "lp"), quad)
        result["quadrature_nodes"] = len(quad.nodes)
    result["volume"] = vol
    result["volume_ratio"] = vol / K.volume ** m
    if "direction" in p:
        theta = _direction(p, n, m)
        result["radial_lp"] = diffbody_radial(K, theta)
        if d <= 6:  # cross-check against the explicit polytope
            D = diffbody_polytope(K, m)
            result["radial_hull"] = D.radial(theta.flat, np.zeros(d))
            result["support"] = D.support(theta.flat)
    if "x" in p:
        x = np.asarray(p["x"], dtype=float)
        if x.shape != (d,):
            raise InputError(f"params.x must be a point in R^{d}")
        result["roof"] = roof(diffbody_polytope(K, m), x)
    return _result_payload("diffbody", result)


def _cmd_projbody(job: _Job):
    p = _take(job.params, {"m", "direction", "volume", "count"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    m = int(p.get("m", 1))
    result: dict[str, Any] = {"m": m,
                              "surface_mass_total": boundary_measure_total(K, mu)}
    if "direction" in p:
        theta = _direction(p, n, m)
        result["support"] = projection_support(K, mu, theta.blocks)
        result["polar_radial"] = polar_projection_radial(K, mu, theta)
    if p.get("volume"):
        d = n * m
        quad = (None if d == 2 else
                sphere_quadrature(d, "auto", int(p.get("count", 200_000)),
                                  job.seed))
        result["polar_volume"] = polar_projection_volume(K, mu, m, quad)
    return _result_payload("projbody", result)


def _cmd_rmb(job: _Job):
    p = _take(job.params, {"p", "m", "direction", "method", "p_seq"})
    K = job.body()
    mu = job.measure(K.dim)
    m = int(p.get("m", 1))
    theta = _direction(p, K.dim, m)
    raw_p = p.get("p", 1.0)
    if isinstance(raw_p, str):
        if raw_p not in ("inf", "+inf", "infinity"):
            raise InputError(f"bad p value {raw_p!r}")
        pval = math.inf
    else:
        pval = float(raw_p)
    if pval == -1.0:
        _refuse(p, ("method",), "at p = -1, which tabulates the Mellin route")
        rep = rmb_limit_neg1(K, mu, theta,
                             tuple(p.get("p_seq", (-0.9, -0.99, -0.999))),
                             tolerance=job.tolerance or 0.01, seed=job.seed)
        return _report_payload("rmb", rep)
    _refuse(p, ("p_seq",), "unless p = -1")
    method = p.get("method", "mellin")
    body = RadialMeanBody(K, mu, pval, m, method=method)
    value = body.radial(theta)
    return _result_payload("rmb", {"p": pval, "m": m, "method": method,
                                   "value": value})


def _cmd_verify_chain(job: _Job):
    p = _take(job.params, {"branch", "s", "F", "p_list", "m", "directions",
                           "slack"})
    K = job.body()
    mu = job.measure(K.dim)
    branch = p.get("branch", "s")
    s = None
    F = None
    if branch == "s":
        if "s" not in p:
            raise InputError("the s-branch needs params.s")
        s = float(p["s"])
        tag = Concavity("s", s)
    elif branch in ("F", "Q"):
        fspec = p.get("F", {"type": "log"} if branch == "Q" else None)
        if fspec is None:
            raise InputError("the F-branch needs params.F")
        F = _concavity_from_spec(fspec)
        tag = (Concavity("log") if F.name == "log"
               else Concavity("s", float(fspec["s"])))
    else:
        raise InputError(f"unknown branch {branch!r}")
    _check_declared_tag(mu, K, tag)
    slack = job.tolerance if job.tolerance is not None else p.get("slack")
    spec = ChainSpec(branch=branch,
                     p_list=tuple(p.get("p_list", (0.5, 1.0, 2.0))),
                     s=s, F=F, m=int(p.get("m", 1)),
                     directions=int(p.get("directions", 200)),
                     seed=job.seed, slack=slack)
    return _report_payload("verify-chain", chain_check(K, mu, spec))


def _cmd_verify_zhang(job: _Job):
    p = _take(job.params, {"s", "F", "m", "nu", "count", "n_mc"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    m = int(p.get("m", 1))
    nu_specs = p.get("nu")
    if nu_specs is None:
        nu_list = [WeightedMeasure.lebesgue(n) for _ in range(m)]
    else:
        if len(nu_specs) != m:
            raise InputError(f"params.nu must list {m} densities (one per block)")
        nu_list = [WeightedMeasure(density_from_spec(sp, n)) for sp in nu_specs]
    kw: dict[str, Any] = {"tolerance": job.tolerance or 0.02, "seed": job.seed,
                          "n_mc": int(p.get("n_mc", 2000))}
    if "count" in p:
        kw["count"] = int(p["count"])
    if "F" in p:
        rep = general_zhang_check(K, mu, _concavity_from_spec(p["F"]),
                                  nu_list, **kw)
    else:
        rep = zhang_check(K, mu, float(p.get("s", 1.0 / n)), nu_list, **kw)
    return _report_payload("verify-zhang", rep)


def _cmd_verify_rs(job: _Job):
    p = _take(job.params, {"m", "count"})
    K = job.body()
    rep = rogers_shephard_check(K, int(p.get("m", 1)),
                                count=int(p.get("count", 200_000)),
                                tolerance=job.tolerance or 0.02, seed=job.seed)
    return _report_payload("verify-rs", rep)


def _cmd_verify_variational(job: _Job):
    p = _take(job.params, {"m", "directions", "steps"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    m = int(p.get("m", 1))
    count = int(p.get("directions", 20))
    steps = tuple(float(h) for h in p.get("steps", (1e-2, 5e-3, 2.5e-3)))
    tol = job.tolerance or 1e-3
    dirs = direction_mesh(n * m, count, job.seed)
    rows = []
    worst: VerifyReport | None = None
    for i, flat in enumerate(dirs):
        rep = variational_check(K, mu, flat.reshape(m, n), steps, tol, job.seed)
        rows.append({"direction": i, "lhs": rep.lhs, "rhs": rep.rhs,
                     "rel_error": tol - rep.margin})
        if worst is None or rep.margin < worst.margin:
            worst = rep
    agg = VerifyReport(
        name="variational", lhs=worst.lhs, rhs=worst.rhs, ratio=worst.ratio,
        bound=1.0, margin=worst.margin, passed=bool(worst.margin >= 0.0),
        samples=count, seed=job.seed, tolerance=tol,
        notes=f"worst of {count} directions; per-direction rows attached",
        rows=tuple(rows))
    return _report_payload("verify-variational", agg)


def _cmd_verify_linear(job: _Job):
    p = _take(job.params, {"m", "trials", "directions"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    m = int(p.get("m", 1))
    trials = int(p.get("trials", 20))
    count = int(p.get("directions", 50))
    rows = []
    worst: VerifyReport | None = None
    for t in range(trials):
        rng = rng_for(job.seed, f"cli-linear-{t}")
        while True:
            M = rng.standard_normal((n, n))
            if abs(np.linalg.det(M)) > 0.2:  # keep the map well-conditioned
                break
        dirs = rng.standard_normal((count, n * m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rep = linear_covariance_check(K, mu, LinearMap(M),
                                      [v.reshape(m, n) for v in dirs],
                                      tolerance=job.tolerance, seed=job.seed)
        rows.append({"trial": t, "det": float(np.linalg.det(M)),
                     "lhs": rep.lhs, "rhs": rep.rhs,
                     "rel_error": rep.tolerance - rep.margin})
        if worst is None or rep.margin < worst.margin:
            worst = rep
    agg = VerifyReport(
        name="linear-covariance", lhs=worst.lhs, rhs=worst.rhs,
        ratio=worst.ratio, bound=1.0, margin=worst.margin,
        passed=bool(worst.margin >= 0.0), samples=trials * count,
        seed=job.seed, tolerance=worst.tolerance,
        notes=f"worst of {trials} random maps x {count} directions",
        rows=tuple(rows))
    return _report_payload("verify-linear", agg)


def _h_from_spec(spec: Any) -> Callable[[np.ndarray], np.ndarray]:
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("h spec must be an object with a 'type'")
    if spec["type"] == "identity":
        return lambda t: np.asarray(t, dtype=float)
    if spec["type"] == "power":
        k = float(spec.get("k", 1.0))
        if k <= 0:
            raise InputError("power h needs k > 0")
        return lambda t: np.asarray(t, dtype=float) ** k
    raise InputError(f"unknown h type {spec['type']!r}")


def _cmd_verify_chord(job: _Job):
    p = _take(job.params, {"fixture", "bound", "dim", "kernel", "h", "m", "s",
                           "count", "cap_cos", "inner"})
    fixture = p.get("fixture", "affine")
    tol = job.tolerance or 1e-3
    inner = int(p.get("inner", 64))
    if fixture == "covariogram":
        _refuse(p, ("h", "dim", "cap_cos"), "on the covariogram fixture")
        K = job.body()
        mu = job.measure(K.dim)
        m = int(p.get("m", 1))
        s = float(p.get("s", 1.0 / K.dim))
        F = power_concavity(s)
        d = K.dim * m
        f = covariogram_ray_fn(K, mu, m, F)
        h = lambda t: np.asarray(t, dtype=float) ** (1.0 / s)
        bound = p.get("bound", "upper")
    else:
        _refuse(p, ("m", "s") + (() if fixture == "capped" else ("cap_cos",)),
                f"on fixture {fixture!r}")
        if job.has_body():
            _refuse(p, ("dim",), "when a body is given")
            K = job.body()
            d = K.dim
            L = StarBodyFn.of_polytope(K)
        else:
            d = int(p.get("dim", 2))
            L = StarBodyFn.ball(d, 1.0)
        if fixture == "affine":
            f = affine_ray_fn(L)
        elif fixture == "parabola":
            f = profile_ray_fn(L, lambda t: 1.0 - t ** 2, 0.0, label="parabola")
        elif fixture == "capped":
            f = capped_ray_fn(L, cap_cos=float(p.get("cap_cos", 0.5)))
        else:
            raise InputError(f"unknown fixture {fixture!r}")
        h = _h_from_spec(p.get("h", {"type": "identity"}))
        bound = p.get("bound", "upper" if fixture == "capped" else "lower")
    G = kernel_from_spec(p.get("kernel", {"type": "power", "exponent": d - 1}),
                         d)
    G.validate(seed=job.seed)
    f.concavity_check(seed=job.seed)
    quad = sphere_quadrature(d, "auto",
                             int(p.get("count", 400 if d == 2 else 2000)),
                             job.seed)
    if bound == "lower":
        rep = chord_lower_check(f, h, G, quad, inner=inner, tolerance=tol)
    elif bound == "upper":
        rep = chord_upper_check(f, h, G, quad, inner=inner, tolerance=tol)
    else:
        raise InputError(f"bound must be 'lower' or 'upper', got {bound!r}")
    return _report_payload("verify-chord", rep)


def _cmd_dualvol(job: _Job):
    p = _take(job.params, {"kernel", "dim", "radius", "base", "count",
                           "with_volume"})
    if job.has_body():
        _refuse(p, ("dim", "radius"), "when a body is given")
        K = job.body()
        d = K.dim
        L = StarBodyFn.of_polytope(K, p.get("base"))
    else:
        _refuse(p, ("base",), "without a body")
        d = int(p.get("dim", 2))
        L = StarBodyFn.ball(d, float(p.get("radius", 1.0)))
    # default kernel d * r^(d-1) makes the dual volume equal the volume
    kspec = p.get("kernel", {"type": "power", "exponent": d - 1,
                             "scale": float(d)})
    G = kernel_from_spec(kspec, d)
    quad = sphere_quadrature(d, "auto",
                             int(p.get("count", 400 if d == 2 else 20_000)),
                             job.seed)
    result: dict[str, Any] = {"dim": d, "value": dual_volume(G, L, quad)}
    if p.get("with_volume", True):
        result["star_volume"] = star_volume(L, quad)
    return _result_payload("dualvol", result)


_HANDLERS = {
    "covariogram": _cmd_covariogram,
    "diffbody": _cmd_diffbody,
    "projbody": _cmd_projbody,
    "rmb": _cmd_rmb,
    "verify-chain": _cmd_verify_chain,
    "verify-zhang": _cmd_verify_zhang,
    "verify-rs": _cmd_verify_rs,
    "verify-variational": _cmd_verify_variational,
    "verify-linear": _cmd_verify_linear,
    "verify-chord": _cmd_verify_chord,
    "dualvol": _cmd_dualvol,
}


# -- output -----------------------------------------------------------------


def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _render_csv(payload: dict, rep: VerifyReport | None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rep is not None:
        for row in rep.to_csv_rows():
            writer.writerow(_jsonable(list(row)))
        return buf.getvalue()
    result = payload["result"]
    writer.writerow(["key", "value"])
    for key in sorted(result):
        val = _jsonable(result[key])
        if isinstance(val, (dict, list)):
            val = json.dumps(val, sort_keys=True)
        writer.writerow([key, val])
    return buf.getvalue()


def _write_output(text: str, outfile: str | None) -> None:
    if outfile is None:
        sys.stdout.write(text)
    else:
        with open(outfile, "w") as fh:
            fh.write(text)


# -- entry points -----------------------------------------------------------


def run(job: dict) -> int:
    """Execute one job dict and write its report; returns the exit status."""
    try:
        try:
            jsonschema.validate(job, JOB_SCHEMA)
        except jsonschema.ValidationError as e:
            path = "/".join(str(k) for k in e.absolute_path) or "(top level)"
            raise InputError(f"job spec rejected at {path}: {e.message}") from e
        parsed = _Job(job)
        payload, rep, code = _HANDLERS[parsed.command](parsed)
        if job.get("output", "json") == "csv":
            text = _render_csv(payload, rep)
        else:
            text = _render_json(payload)
        _write_output(text, job.get("outfile"))
        return code
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covbody",
        description="Weighted covariogram, projection-body and radial-mean-"
                    "body computations with inequality verification.")
    parser.add_argument("--spec", required=True,
                        help="job JSON file, or - for standard input")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed override (default 42)")
    parser.add_argument("--output", choices=("json", "csv"), default=None)
    parser.add_argument("--outfile", default=None,
                        help="report destination (default standard output)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="tolerance override for verification commands")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec) as fh:
                text = fh.read()
        job = json.loads(text)
    except OSError as e:
        print(f"input error: cannot read spec: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"input error: spec is not valid JSON: {e}", file=sys.stderr)
        return 2
    if not isinstance(job, dict):
        print("input error: spec must be a JSON object", file=sys.stderr)
        return 2
    for flag in ("seed", "output", "outfile", "tolerance"):
        val = getattr(args, flag)
        if val is not None:
            job[flag] = val
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
