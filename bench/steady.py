"""Run-to-run spread of the benchmark, raw and in reference units.

    python3 bench/steady.py [--runs 10] [--trace]

Runs each workload of BENCHMARK.json --runs times for its run_seconds, one
run at a time and with seeds 1, 2, ..., then prints for every end-to-end metric (and for the raw wall-clock
figures beside them) the median, the quartiles, min and max, and the
spread: the distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them.  The bounds in
BENCHMARK.json are set from these spreads.  With --trace it repeats the
traced run with seed 1, checks that every per-layer count repeats
exactly, and reports the self times and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    report = {}
    for workload in (w["name"] for w in CONFIG["workloads"]):
        series: dict = {}
        shares = set()
        for k in range(args.runs):
            seed = 1 if args.trace else 1 + k
            extra, result = one_run(workload, seed, CONFIG["run_seconds"], int(args.trace))
            shares.add((result["failed"], result["attempted"]) if args.trace else result["failed"] / result["attempted"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: wrong answers", file=sys.stderr)
            for name, m in result["metrics"].items():
                series.setdefault(name, []).append(m["value"])
            figures = extra.get("raw") or {"overhead": extra["trace"]["overhead"]}
            for name, value in figures.items():
                series.setdefault(f"raw:{name}", []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                if not args.trace or n.startswith("trace.")), file=sys.stderr)
        rows = {name: summary(values) for name, values in series.items() if len(values) > 1}
        report[workload] = {"failed_shares": sorted(shares), "metrics": rows}
        print(f"\n{workload} ({args.runs} runs, failed share {sorted(shares)})")
        print(f"{'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'min':>11s} {'max':>11s} {'spread':>7s}")
        if args.trace:
            moved = [n for n, r in rows.items() if not n.endswith("_ms") and "." in n
                     and not n.startswith(("trace.", "raw:")) and r["min"] != r["max"]]
            print(f"counts that differ between runs: {moved or 'none'}")
            report[workload]["counts_differ"] = moved
        for name, r in rows.items():
            print(f"{name:34s} {r['median']:11.5g} {r['q1']:11.5g} {r['q3']:11.5g} "
                  f"{r['min']:11.5g} {r['max']:11.5g} {r['spread']:7.2%}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
