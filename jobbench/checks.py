"""Output checks for benchmark jobs; they run outside the timed region.

A job passes when its exit code is the expected 0, its report parses, a
check report carries ``pass: true``, and the closed forms that exist for its
input hold within the tolerance the generator recorded for it:

* Rogers-Shephard ratio vol(DK)/vol(K) = 6 for every triangle and 4 (the
  lower bound 2^n) for every parallelogram, by ``verify-rs`` and ``diffbody``;
* vol(K) vol(polar projection body) = 1.5 for every triangle;
* the simplex chain collapses to equality: every term of every direction of
  the CSV report agrees;
* covariogram at a point: the value equals the intersection volume under
  constant density and the Monte Carlo oracle lies within five standard
  errors of it;
* dual volume with the default kernel equals the star volume.
"""

from __future__ import annotations

import csv
import io
import json
import math


def check(job: dict, expect: dict, code: int, out: str) -> str | None:
    """None when the job's output is correct, otherwise the reason."""
    if code != 0:
        return f"exit code {code}, expected 0"
    kind = expect["kind"]
    if kind == "chain-equality":
        return _chain_equality(out, expect["tolerance"])
    try:
        doc = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if doc.get("command") != job["command"]:
        return f"report is for command {doc.get('command')!r}"
    report = doc.get("report")
    if report is not None and report.get("pass") is not True:
        return f"check report has pass={report.get('pass')!r}"
    if kind == "report":
        return None if report is not None else "no check report"
    result = doc.get("result")
    if kind == "closed-form":
        src = report if expect.get("report") else result
        value = src.get(expect["key"]) if src else None
        if not _finite(value):
            return f"{expect['key']} missing or not finite"
        want, tol = expect["value"], expect["tolerance"]
        if abs(value - want) > tol * abs(want):
            return f"{expect['key']} = {value!r}, closed form {want!r} (rel tol {tol})"
        return None
    if result is None:
        return "no result"
    if kind == "positive-value":
        value = result.get(expect.get("key", "value"))
        return None if _finite(value) and value > 0 else f"value {value!r} not positive"
    if kind == "covariogram-oracle":
        value, vol = result.get("value"), result.get("intersection_volume")
        est, err = result.get("oracle_estimate"), result.get("oracle_stderr")
        if not all(_finite(v) for v in (value, vol, est, err)):
            return "covariogram result incomplete"
        if abs(value - vol) > 1e-9 * max(vol, 1.0):
            return f"covariogram {value!r} != intersection volume {vol!r}"
        if abs(est - value) > 5.0 * err + 1e-12:
            return f"oracle {est!r} +- {err!r} disagrees with {value!r}"
        return None
    if kind == "dualvol":
        value, vol = result.get("value"), result.get("star_volume")
        if not (_finite(value) and _finite(vol) and vol > 0):
            return "dual volume result incomplete"
        if abs(value - vol) > 1e-9 * vol:
            return f"dual volume {value!r} != star volume {vol!r}"
        return None
    raise ValueError(f"unknown expectation {kind!r}")


def _chain_equality(out: str, tol: float) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if len(rows) < 2 or rows[0][0] != "direction":
        return "chain CSV has no direction rows"
    for row in rows[1:]:
        terms = [float(x) for x in row[1:]]
        top = max(abs(t) for t in terms)
        if not all(math.isfinite(t) for t in terms) or top == 0.0:
            return f"direction {row[0]}: non-finite or zero terms"
        spread = (max(terms) - min(terms)) / top
        if spread > tol:
            return f"direction {row[0]}: simplex chain spread {spread:.3g} > {tol}"
    return None


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
