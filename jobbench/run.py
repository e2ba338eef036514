"""Job-level benchmark for covbody.

Drives seeded JSON jobs through ``covbody.cli.run``, the function the
``covbody`` console script calls after parsing its arguments, in a closed
loop with one client: one process and one thread run the jobs back to back,
each report goes to an in-memory buffer, and the BLAS/OpenMP thread counts
are pinned to 1. Every report is checked (``checks.py``) outside the timed
region.

    python3 jobbench/run.py --workload chain-exact --seed 1 --seconds 30 --trace 0
    python3 jobbench/run.py --workload all --seed 1 --seconds 30 --trace 1

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs alternate blocks of the same stream untraced and
traced and reports the per-layer metrics of ``spans.py`` plus the tracing
overhead, and writes the spans to ``jobbench/out/``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pinned before numpy can be imported, here and in every child interpreter
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# p90 has at least ten samples beyond it from 100 samples on
MIN_JOBS = 100
SETUP_LAUNCHES = 5
SETUP_JOB = {"command": "verify-rs",
             "body": {"type": "named", "name": "simplex", "dim": 2},
             "params": {"m": 1}}
# The child reads the same monotonic clock as the parent, so the parent can
# time spawn, imports and job up to the child's "done" mark; the reference
# samples after it run on the child's CPU and are not timed. The first
# sample is the kernel's cold call in a fresh interpreter and is left out.
SETUP_SNIPPET = f"""
import contextlib, io, json, time
from covbody import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.run({SETUP_JOB!r})
done = time.perf_counter()
ok = code == 0 and json.loads(buf.getvalue())["report"]["pass"] is True
import calibrate
reference = calibrate.Reference()
for _ in range(9):
    reference.sample()
print(json.dumps({{"ok": ok, "done": done, "reference": reference.samples[1:]}}))
"""

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    template: str
    seconds: float
    failure: str | None
    traced: bool
    normalised: float  # seconds at the reference speed, see calibrate.py


class Bench:
    """One workload's stream, the checks of every job it ran, and timings."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        self.stream = gen.Stream(workload, seed)
        self.outcomes: list[Outcome] = []
        self.items: list[gen.Item] = []
        self.warmup: list[Outcome] = []
        self.reference = calibrate.Reference()

    def run_item(self, item: gen.Item, traced: bool = False) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.cli.run(item.job)
            dt = time.perf_counter() - t0
        scale = self.reference.scale(self.reference.samples[-1], self.reference.sample())
        failure = checks.check(item.job, item.expect, code, out.getvalue())
        if failure and err.getvalue():
            failure += f" ({err.getvalue().strip()[:200]})"
        outcome = Outcome(item.template, dt, failure, traced, dt * scale)
        self.outcomes.append(outcome)
        self.items.append(item)
        return outcome

    def warm_up(self) -> None:
        """One untimed block, so lazy imports and cached rules are in place;
        its jobs are checked and counted like the timed ones."""
        for item in gen.warmup_items(self.workload):
            self.run_item(item)
        self.warmup, self.outcomes, self.items = self.outcomes, [], []

    def run_blocks(self, seconds: float, tracer=None) -> None:
        """Whole blocks until the time is spent and, untraced, MIN_JOBS have
        run; with a tracer, odd blocks run traced and at least four blocks
        run. The loop stops before a block that would end, on average, more
        than half a block past the deadline."""
        start = time.perf_counter()
        spent = 0.0
        blocks = 0
        while True:
            traced = tracer is not None and blocks % 2 == 1
            if traced:
                tracer.install()
            try:
                for item in self.stream.next_block():
                    if traced:
                        tracer.job_id = len(self.outcomes)
                    spent += self.run_item(item, traced).seconds
            finally:
                if traced:
                    tracer.uninstall()
            blocks += 1
            per_block = spent / blocks
            enough = blocks >= 4 if tracer else len(self.outcomes) >= MIN_JOBS
            if enough and spent + 0.5 * per_block >= seconds:
                return
            if time.perf_counter() - start > 2 * seconds + 60:
                return  # keep a slowed program inside the run's time limit

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(o.template, o.failure) for o in self.warmup + self.outcomes
                if o.failure]


def measure_setup() -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to the end of its first
    job, which imports covbody.cli and runs one small job: (wall seconds,
    seconds at the reference speed). Each launch is normalised by reference
    samples the child takes right after its job, on its own CPU."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))),
               **PINNED_THREADS)
    wall, normalised = [], []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up launch failed: " + proc.stderr[-500:])
        child = json.loads(proc.stdout.splitlines()[-1])
        if not child["ok"]:
            raise RuntimeError("set-up job returned a wrong report")
        wall.append(child["done"] - t0)
        normalised.append(wall[-1] * calibrate.Reference.scale(*child["reference"]))
    return statistics.median(wall), statistics.median(normalised)


def time_metrics(times: list[float]) -> dict[str, float]:
    return {"jobs_per_s": len(times) / sum(times),
            "job_s.p50": statistics.median(times),
            "job_s.p90": statistics.quantiles(times, n=10)[8]}


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool):
    """(metrics, units, attempted, failed) for one workload; prints a summary."""
    print(f"== {workload} (seed {seed}): {gen.WHY[workload]}")
    bench = Bench(cli, workload, seed)
    notes: dict[str, str] = {}  # per-layer metric -> what it should move
    if not trace:
        setup_wall, setup_s = measure_setup()
        bench.warm_up()
        bench.run_blocks(seconds)
        metrics = time_metrics([o.normalised for o in bench.outcomes])
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: metrics[k] for k in END_TO_END}
        units = END_TO_END
        wall = time_metrics([o.seconds for o in bench.outcomes])
        beyond = sum(o.normalised > metrics["job_s.p90"] for o in bench.outcomes)
        print(f"  {len(bench.outcomes)} timed jobs, {beyond} beyond p90; wall-clock "
              f"before normalisation: jobs_per_s {wall['jobs_per_s']:.6g}, p50 "
              f"{wall['job_s.p50']:.6g} s, p90 {wall['job_s.p90']:.6g} s, "
              f"setup_s {setup_wall:.6g} s")
    else:
        import spans

        tracer = spans.Tracer()
        bench.warm_up()
        bench.run_blocks(seconds, tracer)
        traced = [o for o in bench.outcomes if o.traced]
        plain = [o for o in bench.outcomes if not o.traced]
        overhead = (statistics.fmean(o.normalised for o in traced)
                    / statistics.fmean(o.normalised for o in plain) - 1.0)
        metrics, shares = spans.layer_metrics(tracer, sum(o.seconds for o in traced),
                                              overhead)
        units = {k: v[0] for k, v in spans.PER_LAYER.items()}
        notes = {k: v[2] for k, v in spans.PER_LAYER.items()}
        print(f"  {len(traced)} traced jobs, {len(plain)} untraced; self-time share "
              "of traced wall time: "
              + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
        tracer.dump(OUT_DIR / f"spans-{workload}.json",
                    {"workload": workload, "seed": seed, "jobs": len(traced)})
    print("  input properties: " + json.dumps(gen.describe(bench.items)))
    attempted = len(bench.warmup) + len(bench.outcomes)
    failed = len(bench.failures)
    for template, reason in bench.failures[:10]:
        print(f"  FAILED {template}: {reason}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:12s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':32s} {failed / attempted:14.6g} 1 ({failed} of {attempted})")
    return metrics, units, attempted, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="covbody job benchmark")
    ap.add_argument("--workload", choices=gen.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "covbody" / "cli.py").is_file():
        print(f"jobbench: no covbody sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from covbody import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"jobbench: imported covbody from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        values, units, a, f = run_workload(cli, workload, args.seed, args.seconds,
                                           bool(args.trace))
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
