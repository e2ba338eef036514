"""Batch front door: one JSON job in, one report out.

A job is a single JSON document (from a file or standard input). Its
top-level fields are checked before anything runs, and each spec and param
where it is read. Handlers read params only through `_Params`, on the branch
that uses them, and the job's `measure` and `tolerance` only through `_Job`;
a param or field that the job's path leaves unread has no effect, and the
job exits 2 before any report is written (`seed`, `output` and `outfile`
apply to every job). The exit status encodes the outcome: 0 for a passing
check or a plain computation, 1 for an inequality check that ran and
failed, 2 for malformed or inconsistent input, 3 for a numeric routine that
could not deliver its accuracy target. Reports are written as JSON (stable
key order) or CSV to the chosen output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Callable

import numpy as np

from .covariogram import (MDirection, covariogram_slice, diffbody_polytope,
                          diffbody_radial, diffbody_star, roof)
from .errors import InputError, NumericError, job_field, job_number, spec_kind
from .genvol import (affine_ray_fn, capped_ray_fn, chord_lower_check,
                     chord_upper_check, covariogram_ray_fn, dual_volume,
                     kernel_from_spec, profile_ray_fn)
from .measure import (WeightedMeasure, _integrate_points, boundary_measure_total,
                      check_concavity_tag, density_from_spec)
from .oracle import mc_measure, rng_for, sphere_quadrature
from .polytope import (LinearMap, Polytope, StarBodyFn, _build_from_points,
                       _intersection_vertices, lifted_system, star_volume)
from .projection import (EXACT_POLAR_DIM, linear_covariance_check,
                         polar_projection_radial, polar_projection_volume,
                         projection_support, variational_check)
from .radialmean import (P0_SWITCH, rmb_limit_neg1, rmb_radial_direct,
                         rmb_radial_mellin)
from .report import VerifyReport
from .verify import (DEFAULT_COUNT, EXACT_DIFFBODY_DIM, ChainSpec, chain_check,
                     direction_mesh, general_zhang_check, rogers_shephard_check,
                     zhang_check)

SCHEMA_VERSION = 1

COMMANDS = ("covariogram", "diffbody", "projbody", "rmb", "verify-chain",
            "verify-zhang", "verify-rs", "verify-variational", "verify-linear",
            "verify-chord", "dualvol")

# The fields a job may set; `command` is the one it must.
JOB_FIELDS = frozenset({"schema_version", "command", "body", "measure", "params",
                        "seed", "tolerance", "output", "outfile"})


# -- job plumbing -----------------------------------------------------------


class _Params:
    """A job's params, read only through typed reads. Each read checks its
    value and records the key as read, so a handler reads a param on the
    branch that uses it and `unread` names the ones no branch used."""

    def __init__(self, given: dict):
        self._given = given
        self._read: set[str] = set()

    def take(self, allowed: set[str]) -> _Params:
        """These params, once each key is one the command takes."""
        unknown = sorted(set(self._given) - allowed)
        if unknown:
            raise InputError(f"unknown parameter(s): {', '.join(unknown)}")
        return self

    def __contains__(self, key: str) -> bool:
        return key in self._given

    def spec(self, key: str, default: Any = None) -> Any:
        """The value as given, for a spec or a choice that its parser checks."""
        self._read.add(key)
        return self._given.get(key, default)

    def count(self, key: str, default: int | None = None) -> int | None:
        """A count of nodes, directions, trials, samples, blocks or
        dimensions: a positive integer."""
        value = self.spec(key, default)
        if key in self._given and not (_is_integer(value) and value >= 1):
            raise InputError(f"params.{key} must be a positive integer, got {value!r}")
        return None if value is None else int(value)

    def flag(self, key: str, default: bool) -> bool:
        """A switch: JSON true or false."""
        value = self.spec(key, default)
        if not isinstance(value, bool):
            raise InputError(f"params.{key} must be true or false, got {value!r}")
        return value

    def number(self, key: str, default: float | None = None) -> float:
        return job_number(self.spec(key, default), f"params.{key}")

    def numbers(self, key: str, default: Any = None, ndim: int | None = 1) -> np.ndarray:
        return job_number(self.spec(key, default), f"params.{key}", ndim)

    def unread(self) -> list[str]:
        return sorted(set(self._given) - self._read)


class _Job:
    """Job with checked top-level fields, lazy body/measure construction and
    a record of which params and fields the command's path read."""

    def __init__(self, raw: dict):
        unknown = sorted(set(raw) - JOB_FIELDS)
        if unknown:
            raise InputError(f"unknown job field(s): {', '.join(unknown)}")
        if raw.get("command") not in COMMANDS:
            raise InputError(f"command must be one of {', '.join(COMMANDS)}, "
                             f"got {raw.get('command')!r}")
        version = raw.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise InputError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        seed = raw.get("seed", 42)
        if not (_is_integer(seed) and seed >= 0):
            raise InputError(f"seed must be an integer >= 0, got {seed!r}")
        if "tolerance" in raw and job_number(raw["tolerance"], "tolerance") <= 0:
            raise InputError(f"tolerance must be positive, got {raw['tolerance']!r}")
        if raw.get("output", "json") not in ("json", "csv"):
            raise InputError(f"output must be json or csv, got {raw['output']!r}")
        if not isinstance(raw.get("outfile", ""), str):
            raise InputError(f"outfile must be a string, got {raw['outfile']!r}")
        if not isinstance(raw.get("params", {}), dict):
            raise InputError(f"params must be an object, got {raw['params']!r}")
        self.raw = raw
        self.command: str = raw["command"]
        self.seed = int(seed)
        self.params = _Params(raw.get("params", {}))
        self._read: set[str] = set()

    @property
    def tolerance(self) -> float | None:
        self._read.add("tolerance")
        return self.raw.get("tolerance")

    def body(self) -> Polytope:
        if not self.has_body():
            raise InputError(f"command {self.command!r} needs a body")
        spec = self.raw["body"]
        if isinstance(spec, dict) and "type" not in spec and "name" in spec:
            spec = {"type": "named", **spec}
        return Polytope.from_spec(spec)

    def has_body(self) -> bool:
        """Whether the job sets a body; a null body is a malformed one."""
        return "body" in self.raw

    def measure(self, dim: int) -> WeightedMeasure:
        self._read.add("measure")
        if "measure" not in self.raw:
            return WeightedMeasure.lebesgue(dim)
        return WeightedMeasure(density_from_spec(self.raw["measure"], dim))

    def unread(self) -> list[str]:
        """The params, then the job fields, that the command's path left
        unread; the other fields apply to every job."""
        fields = [f for f in ("measure", "tolerance") if f in self.raw and f not in self._read]
        return self.params.unread() + fields


def _is_integer(value: Any) -> bool:
    """A JSON integer: 3 and 3.0 are, true is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or value.is_integer()


def _direction(p: _Params, n: int, m: int) -> MDirection:
    if p.spec("direction") is None:
        raise InputError("params.direction is required")
    arr = p.numbers("direction", ndim=None)
    if arr.ndim == 1:
        if arr.size == n * m:
            arr = arr.reshape(m, n)
        else:
            raise InputError(
                f"params.direction must hold {n * m} coordinates ({m} blocks of "
                f"dimension {n}), got {arr.size}")
    if arr.shape != (m, n):
        raise InputError(f"params.direction must be an {m} x {n} tuple of vectors")
    return MDirection.normalized(arr)


def _shifts(p: _Params, n: int) -> np.ndarray:
    arr = p.numbers("x", ndim=None)
    if arr.size == 0:
        raise InputError("params.x must hold at least one shift vector")
    m = p.count("m")
    if arr.ndim == 1:
        if arr.size % n or (m is not None and arr.size != m * n):
            raise InputError(f"params.x must hold {m or 'whole'} shift vector(s) of "
                             f"dimension {n}, got {arr.size} coordinates")
        arr = arr.reshape(-1, n)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise InputError(f"params.x must be an m x {n} array of shift vectors")
    if m is not None and arr.shape[0] != m:
        raise InputError("params.m contradicts the shape of params.x")
    return arr


def _concavity_from_spec(spec: Any) -> float | None:
    """The class a params.F spec states: power's s, or None for log."""
    if spec_kind(spec, "concavity", {"power": {"s"}, "log": set()}) == "log":
        return None
    return job_number(job_field(spec, "s", "a power concavity"), "params.F.s")


def _check_declared_tag(mu: WeightedMeasure, K: Polytope, s: float | None) -> None:
    """Spot-check that the density is s-concave (log-concave if s is None)."""
    ok, msg = check_concavity_tag(mu.density, s, K.bounding_box())
    if not ok:
        label = "log" if s is None else f"s({s:g})"
        raise InputError(
            f"declared concavity {label} is inconsistent with the density: {msg}")


def _non_finite(x: Any, path: str = "") -> str | None:
    """The field of the first NaN or infinity in a job, or None. Python's
    json reads NaN and Infinity as numbers; no job field takes them."""
    if isinstance(x, float):
        return None if math.isfinite(x) else path
    if isinstance(x, dict):
        fields = ((f"{path}.{k}" if path else str(k), v) for k, v in x.items())
    elif isinstance(x, list):
        fields = ((f"{path}[{i}]", v) for i, v in enumerate(x))
    else:
        return None
    for field, value in fields:
        bad = _non_finite(value, field)
        if bad is not None:
            return bad
    return None


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
    p = job.params.take({"x", "m", "direction", "grid", "oracle", "oracle_samples"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    if "x" not in p and "direction" not in p:
        raise InputError("covariogram needs params.x or params.direction")
    result: dict[str, Any] = {}
    if "x" in p:
        shifts = _shifts(p, n)
        # one vertex set; value and volume come from two decompositions of it
        pts, sizes, slack = _intersection_vertices(K, shifts[None])
        result["m"] = len(shifts)
        result["x"] = shifts
        result["value"] = float(_integrate_points(mu, n, pts, sizes, slack)[0])
        result["intersection_volume"] = 0.0 if len(pts) == 0 else _build_from_points(
            n, pts, allow_degenerate=True).volume
        if p.flag("oracle", "oracle_samples" in p):
            samples = p.count("oracle_samples", 200_000)
            box = K.bounding_box()  # the intersection lies inside K
            A, b, c = lifted_system(K, shifts)

            def member(X: np.ndarray) -> np.ndarray:
                return (X @ A.T <= b + c + 1e-12).all(axis=1)

            est, err = mc_measure(mu.density, member, box,
                                  n_samples=samples, seed=job.seed,
                                  tag="cli-covariogram")
            result["oracle_estimate"] = est
            result["oracle_stderr"] = err
    if "direction" in p:
        m = p.count("m", 1) if "x" not in p else result["m"]
        theta = _direction(p, n, m)
        sl = covariogram_slice(K, mu, theta, grid=p.count("grid", 32))
        result["slice"] = {"rho_D": sl.rho_D, "nodes": sl.nodes,
                           "values": sl.node_values}
    return _result_payload("covariogram", result)


def _cmd_diffbody(job: _Job):
    p = job.params.take({"m", "direction", "count", "x"})
    # read and ignored: the benchmark's diffbody jobs set a tolerance, so its
    # refusal waits for a benchmark change (CHANGES.md FOUND line on
    # diffbody/projbody tolerance; ROADMAP Direction 5)
    job.tolerance
    K = job.body()
    n = K.dim
    m = p.count("m", 1)
    d = n * m
    result: dict[str, Any] = {"m": m, "dim": d}
    D = None  # the explicit polytope, built once if a route reads it
    if m == 1 or ("count" not in p and d <= EXACT_DIFFBODY_DIM):
        D = diffbody_polytope(K, m)
        vol = D.volume
    else:
        quad = sphere_quadrature(d, p.count("count", DEFAULT_COUNT), job.seed)
        vol = star_volume(diffbody_star(K, m, "lp"), quad)
        result["quadrature_nodes"] = len(quad.nodes)
    result["volume"] = vol
    result["volume_ratio"] = vol / K.volume ** m
    if "direction" in p:
        theta = _direction(p, n, m)
        result["radial_lp"] = diffbody_radial(K, theta)
        if d <= EXACT_DIFFBODY_DIM:  # cross-check against the explicit polytope
            D = D or diffbody_polytope(K, m)
            result["radial_hull"] = D.radial(theta.flat, np.zeros(d))
            result["support"] = D.support(theta.flat)
    if "x" in p:
        x = p.numbers("x", ndim=None)
        if x.shape != (d,):
            raise InputError(f"params.x must be a point in R^{d}")
        result["roof"] = roof(D or diffbody_polytope(K, m), x)
    return _result_payload("diffbody", result)


def _cmd_projbody(job: _Job):
    p = job.params.take({"m", "direction", "volume", "count"})
    job.tolerance  # read and ignored, as on diffbody
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    m = p.count("m", 1)
    result: dict[str, Any] = {"m": m,
                              "surface_mass_total": boundary_measure_total(K, mu)}
    if "direction" in p:
        theta = _direction(p, n, m)
        result["support"] = projection_support(K, mu, theta.blocks)
        result["polar_radial"] = polar_projection_radial(K, mu, theta)
    if p.flag("volume", False):
        d = n * m
        sphere = d > 2 and ("count" in p or d > EXACT_POLAR_DIM)
        quad = (sphere_quadrature(d, p.count("count", DEFAULT_COUNT), job.seed)
                if sphere else None)
        result["polar_volume"] = polar_projection_volume(K, mu, m, quad)
    return _result_payload("projbody", result)


def _cmd_rmb(job: _Job):
    p = job.params.take({"p", "m", "direction", "method", "p_seq"})
    K = job.body()
    m = p.count("m", 1)
    theta = _direction(p, K.dim, m)
    raw_p = p.spec("p", 1.0)
    if isinstance(raw_p, str):
        if raw_p not in ("inf", "+inf", "infinity"):
            raise InputError(f"bad p value {raw_p!r}")
        pval = math.inf
    else:
        pval = p.number("p")
    if pval == math.inf:  # R_p is the difference body: no measure, no method
        return _result_payload("rmb", {"p": "inf", "m": m, "method": "diffbody",
                                       "value": diffbody_radial(K, theta)})
    mu = job.measure(K.dim)
    if pval == -1.0:  # the limit tabulates the Mellin route
        p_seq = p.numbers("p_seq", (-0.9, -0.99, -0.999))
        rep = rmb_limit_neg1(K, mu, theta, tuple(p_seq.tolist()),
                             tolerance=job.tolerance or 0.01, seed=job.seed)
        return _report_payload("rmb", rep)
    # |p| < P0_SWITCH runs the p = 0 body, which has only the direct route
    near_zero = abs(pval) < P0_SWITCH
    method = p.spec("method", "direct" if near_zero else "mellin")
    if near_zero and method == "mellin":
        raise InputError(f"method 'mellin' has no form at |p| < {P0_SWITCH:g}, "
                         "where the p = 0 body runs the direct route")
    if method == "direct":
        value = rmb_radial_direct(K, mu, pval, theta)
    elif method == "mellin":
        value = rmb_radial_mellin(K, mu, pval, theta)
    else:
        raise InputError(f"params.method must be 'direct' or 'mellin', got {method!r}")
    return _result_payload("rmb", {"p": pval, "m": m, "method": method,
                                   "value": value})


def _cmd_verify_chain(job: _Job):
    p = job.params.take({"branch", "s", "F", "p_list", "m", "directions"})
    K = job.body()
    mu = job.measure(K.dim)
    branch = p.spec("branch", "s")
    if branch == "s":
        if "s" not in p:
            raise InputError("the s-branch needs params.s")
        s = p.number("s")
    elif branch in ("F", "Q"):
        fspec = p.spec("F", {"type": "log"} if branch == "Q" else None)
        if fspec is None:
            raise InputError("the F-branch needs params.F")
        s = _concavity_from_spec(fspec)
    else:
        raise InputError(f"unknown branch {branch!r}")
    p_list = p.numbers("p_list", (0.5, 1.0, 2.0))
    spec = ChainSpec(branch=branch, p_list=tuple(p_list.tolist()),
                     s=s, m=p.count("m", 1), directions=p.count("directions", 200),
                     seed=job.seed, slack=job.tolerance)
    # s is the concavity class the chain's constants assume, spot-checked
    # against the density once the branch has accepted it
    _check_declared_tag(mu, K, s)
    return _report_payload("verify-chain", chain_check(K, mu, spec))


def _cmd_verify_zhang(job: _Job):
    p = job.params.take({"s", "F", "m", "nu", "count"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    m = p.count("m", 1)
    if "nu" not in p:
        nu_list = [WeightedMeasure.lebesgue(n) for _ in range(m)]
    else:
        nu_specs = p.spec("nu")
        if not isinstance(nu_specs, list) or len(nu_specs) != m:
            raise InputError(f"params.nu must list {m} densities (one per block)")
        nu_list = [WeightedMeasure(density_from_spec(sp, n)) for sp in nu_specs]
    kw: dict[str, Any] = {"tolerance": job.tolerance or 0.02, "seed": job.seed,
                          "count": p.count("count")}
    # params.F or params.s is the concavity class the bound assumes,
    # spot-checked against the density as verify-chain does
    if "F" in p:
        s = _concavity_from_spec(p.spec("F"))
        _check_declared_tag(mu, K, s)
        rep = general_zhang_check(K, mu, s, nu_list, **kw)
    else:
        s = p.number("s", 1.0 / n)
        _check_declared_tag(mu, K, s)
        rep = zhang_check(K, mu, s, nu_list, **kw)
    return _report_payload("verify-zhang", rep)


def _cmd_verify_rs(job: _Job):
    p = job.params.take({"m", "count"})
    m = p.count("m", 1)
    K = job.body()
    # at m = 1 the volume is exact and no sphere rule runs
    rep = rogers_shephard_check(K, m, count=p.count("count") if m > 1 else None,
                                tolerance=job.tolerance or 0.02, seed=job.seed)
    return _report_payload("verify-rs", rep)


# Margins within WORST_TIE of the smallest tie, so that rounding-level
# changes do not swap the case an aggregate report prints.
WORST_TIE = 1e-9


def _worst_of(reports: list[VerifyReport], **fields) -> VerifyReport:
    """One report for many: margin and pass/fail from the smallest margin,
    lhs, rhs and ratio from the lowest index within WORST_TIE of it."""
    low = min(rep.margin for rep in reports)
    shown = next(rep for rep in reports if rep.margin <= low + WORST_TIE)
    return VerifyReport(lhs=shown.lhs, rhs=shown.rhs, ratio=shown.ratio, bound=1.0,
                        margin=low, passed=bool(low >= 0.0),
                        tolerance=shown.tolerance, **fields)


def _cmd_verify_variational(job: _Job):
    p = job.params.take({"m", "directions", "steps"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    m = p.count("m", 1)
    count = p.count("directions", 20)
    steps = tuple(p.numbers("steps", (1e-2, 5e-3, 2.5e-3)).tolist())
    tol = job.tolerance or 1e-3
    dirs = direction_mesh(n * m, count, job.seed).reshape(count, m, n)
    reps = variational_check(K, mu, dirs, steps, tol, job.seed)
    rows = tuple({"direction": i, "lhs": rep.lhs, "rhs": rep.rhs,
                  "rel_error": tol - rep.margin} for i, rep in enumerate(reps))
    agg = _worst_of(reps, name="variational", samples=count, seed=job.seed,
                    notes=f"worst of {count} directions; per-direction rows attached",
                    rows=rows)
    return _report_payload("verify-variational", agg)


def _cmd_verify_linear(job: _Job):
    p = job.params.take({"m", "trials", "directions"})
    K = job.body()
    mu = job.measure(K.dim)
    n = K.dim
    m = p.count("m", 1)
    trials = p.count("trials", 20)
    count = p.count("directions", 50)
    reps, rows = [], []
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
        reps.append(rep)
        rows.append({"trial": t, "det": float(np.linalg.det(M)),
                     "lhs": rep.lhs, "rhs": rep.rhs,
                     "rel_error": rep.tolerance - rep.margin})
    agg = _worst_of(reps, name="linear-covariance", samples=trials * count,
                    seed=job.seed,
                    notes=f"worst of {trials} random maps x {count} directions",
                    rows=tuple(rows))
    return _report_payload("verify-linear", agg)


def _h_from_spec(spec: Any) -> Callable[[np.ndarray], np.ndarray]:
    if spec_kind(spec, "h", {"identity": set(), "power": {"k"}}) == "identity":
        return lambda t: np.asarray(t, dtype=float)
    k = job_number(spec.get("k", 1.0), "params.h.k")
    if k <= 0:
        raise InputError("power h needs k > 0")
    return lambda t: np.asarray(t, dtype=float) ** k


def _cmd_verify_chord(job: _Job):
    p = job.params.take({"fixture", "bound", "dim", "kernel", "h", "m", "s",
                         "count", "cap_cos", "inner"})
    fixture = p.spec("fixture", "affine")
    tol = job.tolerance or 1e-3
    inner = p.count("inner", 64)
    if fixture == "covariogram":
        K = job.body()
        mu = job.measure(K.dim)
        m = p.count("m", 1)
        # params.s is the class the bound assumes; g^s is concave on the
        # difference body when the density is s-concave
        s = p.number("s", 1.0 / K.dim)
        _check_declared_tag(mu, K, s)
        d = K.dim * m
        f = covariogram_ray_fn(K, mu, m, s)
        h = lambda t: np.asarray(t, dtype=float) ** (1.0 / s)
        bound = p.spec("bound", "upper")
    else:
        if job.has_body():
            K = job.body()
            d = K.dim
            L = StarBodyFn.of_polytope(K)
        else:
            d = p.count("dim", 2)
            L = StarBodyFn.ball(d, 1.0)
        if fixture == "affine":
            f = affine_ray_fn(L)
        elif fixture == "parabola":
            f = profile_ray_fn(L, lambda t: 1.0 - t ** 2, 0.0)
        elif fixture == "capped":
            f = capped_ray_fn(L, p.number("cap_cos", 0.5))
        else:
            raise InputError(f"unknown fixture {fixture!r}")
        h = _h_from_spec(p.spec("h", {"type": "identity"}))
        bound = p.spec("bound", "upper" if fixture == "capped" else "lower")
    G = kernel_from_spec(p.spec("kernel", {"type": "power", "exponent": d - 1}), d)
    G.validate(seed=job.seed)
    quad = sphere_quadrature(d, p.count("count", 400 if d == 2 else 2000), job.seed)
    if bound == "lower":
        rep = chord_lower_check(f, h, G, quad, inner=inner, tolerance=tol)
    elif bound == "upper":
        rep = chord_upper_check(f, h, G, quad, inner=inner, tolerance=tol)
    else:
        raise InputError(f"bound must be 'lower' or 'upper', got {bound!r}")
    return _report_payload("verify-chord", rep)


def _cmd_dualvol(job: _Job):
    p = job.params.take({"kernel", "dim", "radius", "base", "count", "with_volume"})
    if job.has_body():
        K = job.body()
        d = K.dim
        base = None if p.spec("base") is None else p.numbers("base")
        if base is not None and base.shape != (d,):
            raise InputError(f"params.base must be a point in R^{d}")
        L = StarBodyFn.of_polytope(K, base)
    else:
        d = p.count("dim", 2)
        L = StarBodyFn.ball(d, p.number("radius", 1.0))
    # default kernel d * r^(d-1) makes the dual volume equal the volume
    G = kernel_from_spec(p.spec("kernel", {"type": "power", "exponent": d - 1,
                                           "scale": float(d)}), d)
    quad = sphere_quadrature(d, p.count("count", 400 if d == 2 else 20_000), job.seed)
    result: dict[str, Any] = {"dim": d, "value": dual_volume(G, L, quad)}
    if p.flag("with_volume", True):
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
        bad = _non_finite(job)
        if bad is not None:
            raise InputError(f"{bad} must be a finite number")
        parsed = _Job(job)
        payload, rep, code = _HANDLERS[parsed.command](parsed)
        unread = parsed.unread()
        if unread:
            raise InputError(f"parameter(s) {', '.join(unread)} have no effect "
                             f"on this {parsed.command} job")
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
