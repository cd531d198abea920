#!/usr/bin/env python3
"""The qmorse benchmark: one workload, closed loop, one client.

    python3 qbench/run.py --workload spectrum-n16 --seed 1 --seconds 36 --trace 0

Runs passes over the workload's jobs (one process, one thread; each job
starts when the previous one ends) for --seconds, checks every job against
its oracles and the recorded output digests (untimed), and prints a readable report followed, as the last line of stdout, by
`{"correct", "attempted", "failed", "metrics"}`.  With --trace 0 the
metrics are the `end_to_end` entries of BENCHMARK.json, with --trace 1
the `per_layer` entries, measured by wrapping the engine's public
functions (see spans.py).  README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NamedTuple

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_RUNS = 7

# Variables that select another kernel or term guard; results measured under
# them are not comparable with the recorded ones.
REFUSED_ENV = ("QMORSE_PURE", "QMORSE_TERM_GUARD")

# Runs in a fresh interpreter: the set-up a user pays once per process.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/qbench"]
import jobs
jobs.build_workload(sys.argv[2], int(sys.argv[3]))
print(time.perf_counter() - t0)
"""


def log(msg: str):
    sys.stderr.write(msg + "\n")


def import_engine():
    """Import qmorse from this checkout's sources, never from elsewhere."""
    if not (SRC / "qmorse" / "__init__.py").is_file():
        raise SystemExit(f"error: no qmorse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmorse

    if SRC not in Path(qmorse.__file__).resolve().parents:
        raise SystemExit(f"error: qmorse imported from {qmorse.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_RUNS fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ROOT), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_pass(job_list, rng, probe=True):
    """Run every job once in a seed-shuffled order.

    Returns (wall seconds, reference seconds or None, seconds per operation
    metric, [(job, result, error)]).  Only the jobs are timed.  With `probe`,
    a `HostProbe` samples the host's speed during the jobs; the time its
    samples take is left out of every figure.
    """
    order = list(job_list)
    rng.shuffle(order)
    ops: dict[str, float] = {}
    sampler = host.HostProbe() if probe else nullcontext()

    def busy():
        return time.perf_counter() - (sampler.spent if probe else 0.0)

    @contextmanager
    def clock(name):
        t0 = busy()
        try:
            yield
        finally:
            ops[name] = ops.get(name, 0.0) + busy() - t0

    wall = 0.0
    outputs = []
    with sampler:
        for job in order:
            t0 = busy()
            try:
                result, error = job.run(clock), None
            except Exception as exc:  # a failed job is counted, the run goes on
                result, error = None, exc
            wall += busy() - t0
            outputs.append((job, result, error))
    return wall, sampler.speed() if probe else None, ops, outputs


def assess(outputs, digests):
    """Oracle and digest checks (untimed).  Returns (failed jobs, counts)."""
    import jobs

    failed = 0
    counts: dict[str, int] = {}
    for job, result, error in outputs:
        try:
            if error is not None:
                raise error
            job.check(result)
            text = job.output(result)
            if text is not None and jobs.digest(text) != digests.get(job.name):
                raise jobs.CheckFailed("output digest differs from the recorded one")
        except jobs.CheckFailed as exc:
            failed += 1
            log(f"FAIL {job.name}: {exc}")
            continue
        except Exception:
            failed += 1
            log(f"FAIL {job.name}:\n{traceback.format_exc()}")
            continue
        for key, value in job.counts(result).items():
            merge = max if key.endswith("coef_bits") else int.__add__
            counts[key] = merge(counts.get(key, 0), value)
    return failed, counts


class Pass(NamedTuple):
    traced: bool
    wall: float
    ref: float | None
    ops: dict
    counts: dict
    stats: dict | None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  digests: dict, reduced: bool = False) -> dict:
    """Measure one workload; returns the metrics of either kind plus tallies."""
    import jobs
    import spans

    if trace:
        with spans.Tracer(spans.layer_targets()) as tracer:
            job_list = jobs.build_workload(workload, seed, reduced)
        build_stats = tracer.stats
    else:
        job_list = jobs.build_workload(workload, seed, reduced)
    rng = random.Random(seed)
    passes: list[Pass] = []
    attempted = failed = 0
    start = time.perf_counter()
    longest = 0.0  # no pass is started that would likely end after `seconds`
    while True:
        began = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        if traced:
            with spans.Tracer(spans.layer_targets()) as tracer:
                wall, ref, ops, outputs = run_pass(job_list, rng, probe=False)
            stats = tracer.stats
        else:
            wall, ref, ops, outputs = run_pass(job_list, rng)
            stats = None
        bad, counts = assess(outputs, digests)
        attempted += len(outputs)
        failed += bad
        passes.append(Pass(traced, wall, ref, ops, counts, stats))
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now + longest - start > seconds and (not trace or len(passes) >= 2):
            break

    plain = [p for p in passes if not p.traced]
    metrics = {"host.ref_s": statistics.median(p.ref for p in plain)}
    consistent = True
    if trace:
        traced_passes = [p for p in passes if p.traced]
        metrics["trace.overhead"] = (
            statistics.median(p.wall for p in traced_passes) / statistics.median(p.wall for p in plain) - 1
        )
        metrics["parser.elaborate.s"] = build_stats.get("parser.elaborate", {}).get("s", 0.0)
        samples: dict[str, list] = {}
        for p in traced_passes:
            flat = dict(p.ops)
            flat.update(p.counts)
            for span, rec in p.stats.items():
                if span != "parser.elaborate":
                    flat.update({f"{span}.{key}": value for key, value in rec.items()})
            for key, value in flat.items():
                samples.setdefault(key, []).append(value)
        for key, values in samples.items():
            if key.endswith("_s") or key.endswith(".s"):
                metrics[key] = statistics.median(values)
            else:
                metrics[key] = values[0]
                if any(v != values[0] for v in values) or len(values) != len(traced_passes):
                    consistent = False
                    log(f"FAIL count {key} differs between traced passes: {values}")
    else:
        metrics["raw_wall_s"] = statistics.median(p.wall for p in passes)
        metrics["wall_s"] = statistics.median(p.wall / p.ref for p in passes) * host.NOMINAL_SAMPLE_S
        for name in ("solve_s", "generator_s", "verify_s", "oracle_s"):
            if name in passes[0].ops:
                metrics[name] = statistics.median(p.ops.get(name, 0.0) for p in passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "consistent": consistent,
    }


def environment(seed: int) -> dict:
    import qmorse

    return {
        "backend": qmorse.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def record_digests(workload: str) -> int:
    """Run one pass, check it against the oracles, and store its digests."""
    import jobs

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    *_, outputs = run_pass(jobs.build_workload(workload, 0), random.Random(0))
    for job, result, error in outputs:
        if error is not None:
            raise error
        job.check(result)
        text = job.output(result)
        if text is not None:
            digests[job.name] = jobs.digest(text)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this workload's output digests in digests.json and exit")
    args = ap.parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        log(f"error: unset {', '.join(refused)}; runs under another kernel or guard are not comparable")
        return 2
    import_engine()
    if args.record_digests:
        return record_digests(args.workload)
    if not DIGESTS.is_file():
        raise SystemExit(f"error: missing {DIGESTS}")
    digests = json.loads(DIGESTS.read_text())

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    res = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), digests)
    metrics = res["metrics"]
    if setup:
        metrics["raw_setup_s"] = statistics.median(setup)
        metrics["setup_s"] = metrics["raw_setup_s"] / metrics["host.ref_s"] * host.NOMINAL_SAMPLE_S
    attempted, failed = res["attempted"], res["failed"]
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    print(f"# workload {args.workload}, {res['passes']} passes, "
          f"environment {json.dumps(environment(args.seed))}")
    for name in sorted(metrics):
        unit = units.get(name, "s" if name.endswith(("_s", ".s")) else "count")
        print(f"# {name:34s} {metrics[name]:.6g} {unit}")
    print(f"# {'fail_frac':34s} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(json.dumps(result_line(spec, bool(args.trace), res)))
    return 0


def result_line(spec: dict, trace: bool, res: dict) -> dict:
    """The final JSON object: tallies plus the metrics BENCHMARK.json names.

    A per-layer metric of a layer the workload never reaches is 0."""
    chosen = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in res["metrics"] and not trace:
            raise SystemExit(f"error: end-to-end metric {name} was not measured")
        chosen[name] = {"value": res["metrics"].get(name, 0), "unit": entry["unit"]}
    return {
        "correct": res["failed"] == 0 and res["consistent"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": chosen,
    }


if __name__ == "__main__":
    sys.exit(main())
