"""Benchmark of ddquant: one workload, every output checked, metrics as JSON.

    python3 bench/run.py --workload validate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each workload is a closed loop with one client: the next job starts when
the last one has finished.  Inputs are generated from --seed into
.bench_out/, and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, in reference units (see
refclock.py); the line before it holds the raw wall-clock figures.  With
--trace 1 each of a fixed list of blocks runs untraced and traced, and the
metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MIN_JOBS = 100  # so the 90th percentile has ten jobs beyond it
# Fresh set-ups besides the measured run's own, half of them before the
# timed loop and half after it, so that their median spans the run.
SETUP_PROBES = 8
# Blocks generated per run; more than a run gets through, which wraps
# around to the first block if it needs more.
BLOCKS = {"validate": 24, "decide": 10, "finite-lab": 16, "cli-cold": 20}
# Blocks in the traced run, whose jobs each run twice (untraced and
# traced): 10-20 s a run.  cli-cold gets more jobs because the time of a
# fresh process varies by about 10% from one start to the next.
TRACE_BLOCKS = {"validate": 4, "decide": 2, "finite-lab": 3, "cli-cold": 4}
# Time a run may take beyond --seconds: set-ups, input generation, the
# block in progress when --seconds ends, and the checks.
MARGIN_S = 150


def _worker(run_dir: Path, *args, deadline: float) -> dict:
    mode = args[0]
    cmd = [sys.executable, str(BENCH / "worker.py"), str(run_dir), *map(str, args)]
    timeout = deadline - time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {mode} did not end within --seconds + {MARGIN_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads((run_dir / f"{mode}.json").read_text())


def _check_all(jobs: list, outputs: list) -> tuple:
    """(failed, wrong) job counts; a repeated job must repeat its output."""
    failed = wrong = 0
    seen: dict = {}
    for job, output in zip(jobs, outputs):
        key = id(job)
        if key in seen:
            verdict = seen[key][1] if seen[key][0] == output else ("wrong", "output changed on repeat")
        else:
            verdict = wl.check(job, *output)
            seen[key] = (output, verdict)
        if verdict is not None:
            print(f"{verdict[0]}: {job.kind} {' '.join(job.argv)[:160]}: {verdict[1]}", file=sys.stderr)
            failed += verdict[0] == "failed"
            wrong += verdict[0] == "wrong"
    return failed, wrong


def _p50_p90(values: list) -> tuple:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def measure(run_dir: Path, blocks: list, seconds: int, deadline: float) -> tuple:
    setups = [_worker(run_dir, "setup", deadline=deadline)["setup"] for _ in range(SETUP_PROBES // 2)]
    run = _worker(run_dir, "run", seconds, MIN_JOBS, deadline=deadline)
    setups.append(run["setup"])
    setups += [_worker(run_dir, "setup", deadline=deadline)["setup"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    jobs = [job for b in run["order"] for job in blocks[b]]
    failed, wrong = _check_all(jobs, [tuple(o) for o in run["outputs"]])
    ref_s = [w * f for w, f in zip(run["walls"], run["factors"])]
    p50, p90 = _p50_p90(ref_s)
    raw50, raw90 = _p50_p90(run["walls"])
    metrics = {
        "jobs_per_ref_s": (len(ref_s) / sum(ref_s), "1/s"),
        "job_ref_ms.p50": (p50 * 1e3, "ms"),
        "job_ref_ms.p90": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    raw = {
        "jobs": len(jobs),
        "blocks": len(run["order"]),
        "elapsed_s": run["elapsed_s"],
        "jobs_per_s": len(jobs) / sum(run["walls"]),
        "job_ms.p50": raw50 * 1e3,
        "job_ms.p90": raw90 * 1e3,
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
        "ref_ms.p50": statistics.median(run["samples"]) * 1e3,
        "ref_ms.p90": statistics.quantiles(run["samples"], n=10)[8] * 1e3,
    }
    print(json.dumps({"raw": raw}))
    return len(jobs), failed, wrong, metrics


def measure_traced(workload: str, seed: int, run_dir: Path, blocks: list, deadline: float) -> tuple:
    count = TRACE_BLOCKS[workload]
    trace = _worker(run_dir, "trace", count, deadline=deadline)
    jobs = [job for block in blocks[:count] for job in block]
    failed, wrong = _check_all(jobs, [tuple(o) for o in trace["outputs"]])
    if [tuple(o) for o in trace["untraced_outputs"]] != [tuple(o) for o in trace["outputs"]]:
        print("wrong: traced and untraced outputs differ", file=sys.stderr)
        wrong += 1
    spans = OUT / f"spans-{workload}-s{seed}.csv"
    shutil.move(str(run_dir / "spans.csv"), spans)
    layer = trace["per_layer"]
    print(json.dumps({"trace": {
        "spans_file": str(spans.relative_to(ROOT)),
        "spans": trace["spans"],
        "overhead": trace["overhead"],
    }}))
    metrics = {}
    for name, value in layer.items():
        unit = "1/s" if name.startswith("trace.") else ("ms" if name.endswith("_ms") else "count")
        metrics[name] = (value, unit)
    return len(jobs), failed, wrong, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds + MARGIN_S
    if not (ROOT / "src" / "ddquant" / "__init__.py").is_file():
        print(f"error: no ddquant source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        blocks = wl.make_blocks(args.workload, args.seed, run_dir, BLOCKS[args.workload])
        (run_dir / "jobs.json").write_text(json.dumps([[job.argv for job in b] for b in blocks]))
        (run_dir / "meta.json").write_text(json.dumps({"workload": args.workload}))
        if args.trace:
            attempted, failed, wrong, metrics = measure_traced(args.workload, args.seed, run_dir, blocks, deadline)
        else:
            attempted, failed, wrong, metrics = measure(run_dir, blocks, args.seconds, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
