"""Run a workload's jobs against the checkout's ddquant, one at a time.

Started by run.py in a fresh interpreter, so that set-up (importing the
program, reading the job list, one warm-up job) is paid here as a user
pays it, and so that the peak memory of this process is the program's.

    python3 bench/worker.py <run-dir> setup
    python3 bench/worker.py <run-dir> run <seconds> <min-jobs>
    python3 bench/worker.py <run-dir> trace <blocks>

Reads <run-dir>/jobs.json (blocks of argv lists) and writes
<run-dir>/<mode>.json.  In-process workloads call ddquant.cli.main; the
cli-cold workload starts `python -m ddquant` once per job.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COLD = "cli-cold"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Runs one job and returns (exit code, stdout, stderr)."""

    def __init__(self, workload: str):
        self.cold = workload == COLD
        self.child_trace = None  # the tracechild.py argument in a traced run of cli-cold
        if not self.cold:
            sys.path.insert(0, str(SRC))
            import ddquant.cli

            if not Path(ddquant.cli.__file__).resolve().is_relative_to(SRC):
                raise SystemExit(f"ddquant imported from {ddquant.cli.__file__}, not {SRC}")
            self.cli = ddquant.cli
        else:
            self.env = child_env()

    def __call__(self, argv: list):
        if self.cold:
            if self.child_trace is None:
                cmd = [sys.executable, "-m", "ddquant", *argv]
            else:
                cmd = [sys.executable, str(Path(__file__).with_name("tracechild.py")), self.child_trace, *argv]
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed job, reported by the checks
                code = f"crash: {type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue()


def setup(workload: str, run_dir: Path):
    """Import, read the job list and run the warm-up job; return the job
    list, the runner and the set-up time in reference units.

    The machine's speed can change within a set-up, so the reference is
    the median of samples taken on both sides of it."""
    before = [refclock.sample() for _ in range(5)]
    t0 = time.perf_counter()
    runner = Runner(workload)
    blocks = json.loads((run_dir / "jobs.json").read_text())
    runner(blocks[0][0])
    wall = time.perf_counter() - t0
    ref = statistics.median(before + [refclock.sample() for _ in range(5)])
    return blocks, runner, {"setup_s": wall * refclock.R_NOMINAL_S / ref, "setup_wall_s": wall, "ref_s": ref}


def run_jobs(runner: Runner, jobs: list) -> dict:
    """Run jobs one after another, with a reference sample before each."""
    samples, walls, outputs = [], [], []
    for argv in jobs:
        samples.append(refclock.sample())
        t0 = time.perf_counter()
        result = runner(argv)
        walls.append(time.perf_counter() - t0)
        outputs.append(result)
    samples.append(refclock.sample())
    factors = refclock.local_factors(samples, len(walls))
    return {"walls": walls, "factors": factors, "samples": samples, "outputs": outputs}


def timed_blocks(runner: Runner, blocks: list, seconds: float, min_jobs: int) -> tuple:
    """Whole blocks, in order, until `seconds` have passed and at least
    `min_jobs` jobs ran; wraps around if the blocks run out."""
    done, order = 0, []
    start = time.perf_counter()
    merged = {"walls": [], "factors": [], "samples": [], "outputs": []}
    while done < min_jobs or time.perf_counter() - start < seconds:
        b = len(order) % len(blocks)
        part = run_jobs(runner, blocks[b])
        for key in merged:
            merged[key].extend(part[key])
        order.append(b)
        done += len(blocks[b])
    merged["elapsed_s"] = time.perf_counter() - start
    return order, merged


def peak_rss_mb(cold: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv: list) -> int:
    run_dir, mode = Path(argv[0]), argv[1]
    meta = json.loads((run_dir / "meta.json").read_text())
    workload = meta["workload"]
    blocks, runner, setup_info = setup(workload, run_dir)
    result = {"setup": setup_info}
    if mode == "run":
        order, timing = timed_blocks(runner, blocks, float(argv[2]), int(argv[3]))
        result.update(order=order, **timing)
    elif mode == "trace":
        import tracing

        result.update(tracing.traced_run(runner, blocks[: int(argv[2])], run_dir))
    result["peak_rss_mb"] = peak_rss_mb(runner.cold)
    (run_dir / f"{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
