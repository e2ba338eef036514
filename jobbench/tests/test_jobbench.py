"""Tests of the job benchmark itself: generator, checks, spans.

Run from the repository root with ``python3 -m pytest -q jobbench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from covbody import cli  # noqa: E402


def _run(job: dict) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(job)
    return code, out.getvalue()


def _jobs(workload: str, seed: int, blocks: int = 2) -> list[dict]:
    stream = gen.Stream(workload, seed)
    return [it.job for _ in range(blocks) for it in stream.next_block()]


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert _jobs(workload, 7) == _jobs(workload, 7)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_different_seed_different_jobs(workload):
    assert _jobs(workload, 7) != _jobs(workload, 8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_block_has_the_same_template_mix(workload):
    stream = gen.Stream(workload, 3)
    mixes = [sorted(it.template for it in stream.next_block()) for _ in range(3)]
    assert mixes[0] == mixes[1] == mixes[2]
    assert len(mixes[0]) == len(set(mixes[0])) == stream.block_size


def test_short_jobs_repeat_bodies_and_chains_do_not():
    for workload, repeats in (("short-jobs", True), ("chain-exact", False)):
        stream = gen.Stream(workload, 5)
        items = [it for _ in range(5) for it in stream.next_block()]
        share = gen.describe(items)["repeat_body_share"]
        assert (share > 0.1) == repeats
        seen = []
        for it in items:
            if it.repeat:
                assert it.body.spec in seen
            seen.append(it.body.spec if it.body else None)


def test_generated_closed_forms_match_the_bodies():
    stream = gen.Stream("short-jobs", 11)
    tri = next(it for it in stream.next_block() if it.template == "projbody-volume-triangle")
    code, out = _run(tri.job)
    assert checks.check(tri.job, tri.expect, code, out) is None
    assert tri.body.area > 0


# -- checks ------------------------------------------------------------------


def test_checks_catch_wrong_outputs():
    stream = gen.Stream("short-jobs", 2)
    items = {it.template: it for it in stream.next_block()}
    rs = items["verify-rs-m1-triangle"]
    code, out = _run(rs.job)
    assert checks.check(rs.job, rs.expect, code, out) is None
    assert checks.check(rs.job, rs.expect, 3, out).startswith("exit code 3")
    doc = json.loads(out)
    doc["report"]["lhs"] = 6.01
    assert "closed form" in checks.check(rs.job, rs.expect, 0, json.dumps(doc))
    doc["report"]["pass"] = False
    assert "pass=False" in checks.check(rs.job, rs.expect, 0, json.dumps(doc))
    assert checks.check(rs.job, rs.expect, 0, "not json") == "report is not JSON"


def test_simplex_chain_equality_check_reads_every_term():
    item = next(it for it in gen.Stream("chain-exact", 4).next_block()
                if it.template == "chain-simplex2-m1")
    code, out = _run(item.job)
    assert checks.check(item.job, item.expect, code, out) is None
    header, row = out.splitlines()[:2]
    cells = row.split(",")
    cells[2] = repr(float(cells[2]) * 1.001)
    broken = "\n".join([header, ",".join(cells)]) + "\n"
    assert "spread" in checks.check(item.job, item.expect, 0, broken)


# -- spans -------------------------------------------------------------------


def test_self_time_arithmetic_on_a_nested_trace():
    #  0 [0, 10]  root
    #  1 [1, 4]   child of 0, with children 2 and 4 that overlap
    #  2 [2, 3]   child of 1
    #  3 [5, 6]   child of 0
    #  4 [1.5, 2.5] child of 1
    #  5 [9, 12]  child of 0 that ends after it: clipped to [9, 10]
    starts = [0.0, 1.0, 2.0, 5.0, 1.5, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 2.5, 12.0]
    parents = [-1, 0, 1, 0, 1, 0]
    got = spans.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 1 - 1, 3 - 1.5, 1.0, 1.0, 1.0, 3.0])


def _count_calls(code_obj, fn):
    """Calls of a code object, counted by the profiler hook, independently
    of any wrapper."""
    n = 0

    def hook(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code is code_obj:
            n += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return n, result


def test_wrappers_catch_internal_calls():
    from covbody import polytope

    job = next(it.job for it in gen.Stream("chain-exact", 1).next_block()
               if it.template == "chain-simplex2-m2")
    tracer = spans.Tracer()
    tracer.install()
    try:
        n, (code, _) = _count_calls(polytope._intersection_vertices.__code__,
                                    lambda: _run(job))
    finally:
        tracer.uninstall()
    assert code == 0
    evals = tracer.names.count("covariogram.eval")
    assert evals == n > 100
    metrics, _ = spans.layer_metrics(tracer, 1.0, 0.0)
    assert metrics["covariogram.evals"] == evals
    assert metrics["radialmean.mellin.calls"] == 3
    # run, body and measure parsing, CSV rendering
    assert metrics["cli.calls"] == 4
    assert 0.0 < metrics["covray.hit_ratio"] < 1.0


def test_uninstall_restores_every_binding():
    import covbody.covariogram as cov
    import covbody.projection as proj

    before = (cov.covariogram, proj.covariogram, cli.run, cov.CovRay.g)
    tracer = spans.Tracer()
    tracer.install()
    assert proj.covariogram is cov.covariogram is not before[0]
    tracer.uninstall()
    assert (cov.covariogram, proj.covariogram, cli.run, cov.CovRay.g) == before


def test_traced_reports_are_byte_identical():
    jobs = _jobs("short-jobs", 9, blocks=1)
    jobs += [it.job for it in gen.Stream("chain-exact", 9).next_block()
             if it.template in ("chain-simplex2-m1", "variational-pentagon-m2")]
    jobs += [it.job for it in gen.Stream("chain-weighted", 9).next_block()
             if it.template.startswith("rmb-")]
    plain = [_run(job) for job in jobs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [_run(job) for job in jobs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(code == 0 for code, _ in plain)


# -- benchmark manifest ------------------------------------------------------


def test_manifest_matches_the_code():
    import run

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(gen.WORKLOADS)
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} == {
        k: v[:2] for k, v in spans.PER_LAYER.items()}
