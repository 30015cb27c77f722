"""Per-layer tracing for the traced run.

The wrappers live here, not in the program: each public function of a
layer is replaced, at every module that looks it up, by a wrapper that
records a span (id, name, start, end, parent span, job) and its counts.
Self time is a span's duration minus the time its child spans cover.
A job's spans are kept in memory and written to the span file before the
next job starts, outside the timed region.

The traced run runs a fixed list of blocks, each once untraced and once
traced through the same entry point, so its counts repeat exactly and the
tracing overhead is measured on the same jobs.
"""

from __future__ import annotations

import functools
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import refclock


def _listify(args):
    return (list(args[0]),) + tuple(args[1:])


def _pairs(counts, name, args, result):
    counts[name + ".pairs"] += len(args[1].steps) * len(args[2].steps)
    counts[name + ".steps_out"] += len(result.steps)


def _points(counts, name, args, result):
    counts[name + ".points_in"] += len(args[0])
    counts[name + ".steps_out"] += len(result.steps)


def _items(counts, name, args, result):
    counts[name + ".items_in"] += len(args[0])


def _divisible(counts, name, args, result):
    counts[name + ".divisible"] += bool(result)


def _bracket_steps(counts, name, args, result):
    counts[name + ".steps_out"] += len(result.lower.steps) + len(result.upper.steps)


def _certified(counts, name, args, result):
    counts[name + ".certified"] += result is not None


def _violations(counts, name, args, result):
    counts[name + ".violations"] += len(result.violations)


# (module, function, span name, extra counts, argument preparation).
# Each extra count a measure adds is reported per job beside calls and
# self_ms.
SPANS = (
    ("quantale", "convolve", _pairs, None, ("pairs", "steps_out")),
    ("quantale", "implication", _pairs, None, ("pairs", "steps_out")),
    ("quantale", "step_implication", None, None, ()),
    ("quantale", "residual", None, None, ()),
    ("staircase", "envelope", _points, _listify, ("points_in", "steps_out")),
    ("staircase", "meet_all", _items, _listify, ("items_in",)),
    ("staircase", "parse_staircase", None, None, ()),
    ("diagonals", "is_divisible_by", _divisible, None, ("divisible",)),
    ("enclosure", "bracket", _bracket_steps, None, ("steps_out",)),
    ("enclosure", "certify_not_divisible", _certified, None, ("certified",)),
    ("metrics", "load_instance", None, None, ()),
    ("metrics", "validate_probmet", None, None, ()),
    ("metrics", "validate_probparmet", _violations, None, ("violations",)),
    ("expressions", "parse_expression", None, None, ()),
    ("expressions", "evaluate", None, None, ()),
    ("finiteq", "validate_quantale", None, None, ()),
    ("finiteq", "verify_quantaloid_laws", None, None, ()),
    ("finiteq", "check_downset_equality", None, None, ()),
    ("finiteq", "diag_homset", None, None, ()),
    ("finiteq", "residuate", None, None, ()),
    ("cli", "main", None, None, ()),
)
# Counted but not timed: they run millions of times and a span each would
# cost more than the call.
COUNTED = (("tnorms", "TNorm", "apply"), ("tnorms", "TNorm", "implies"))
# The trace-file argument of tracechild.py that runs a job untraced.
UNTRACED = "-"


class Tracer:
    def __init__(self):
        self.job = 0
        self.stack: list = []  # [span id, seconds covered by children]
        self.next_id = 0
        self.spans: list = []  # the current job's, until flush()
        self.written = 0
        self.undo: list = []  # (owner, key, original) set by install()
        self.counts: dict = defaultdict(int)
        self.self_s: dict = defaultdict(lambda: defaultdict(float))  # job -> name -> s

    def _close(self, name, sid, t0, t1, parent, self_time):
        self.counts[name + ".calls"] += 1
        self.self_s[self.job][name] += self_time
        self.spans.append((sid, name, t0, t1, parent, self.job))

    def span(self, name, fn, measure=None, prepare=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += t1 - t0
                tracer._close(name, sid, t0, t1, parent, t1 - t0 - frame[1])
            if measure is not None:
                measure(tracer.counts, name, args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _replace(self, owner, key, value):
        if isinstance(owner, dict):
            self.undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self.undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self):
        """Wrap every traced function wherever a ddquant module binds it,
        directly or in a module-level dispatch table."""
        import ddquant.cli  # noqa: F401  (loads every layer)
        from ddquant import staircase, tnorms

        modules = [m for n, m in sys.modules.items() if n == "ddquant" or n.startswith("ddquant.")]
        for mod, fn_name, measure, prepare, _ in SPANS:
            original = getattr(sys.modules[f"ddquant.{mod}"], fn_name)
            wrapper = self.span(f"{mod}.{fn_name}", original, measure, prepare)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
                    elif type(value) is dict:  # dispatch tables such as cli._VALIDATORS
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace(value, k, wrapper)
        post_init = staircase.Staircase.__post_init__
        self._replace(staircase.Staircase, "__post_init__", self.span("staircase.Staircase", post_init))
        for mod, cls, method in COUNTED:
            owner = getattr(tnorms, cls)
            self._replace(owner, method, self.counter(f"{mod}.{method}", getattr(owner, method)))

    def uninstall(self):
        """Put back every function install() replaced."""
        while self.undo:
            owner, key, original = self.undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def flush(self, fh):
        """Write the spans made so far to the span file and drop them."""
        for sid, name, t0, t1, parent, job in self.spans:
            fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{job}\n")
        self.written += len(self.spans)
        self.spans.clear()

    def merge(self, job: int, part: dict):
        """Add the dump() of a traced child process that ran `job`."""
        for key, value in part["counts"].items():
            self.counts[key] += value
        self.self_s[job].update(part["self_s"])
        self.spans += [tuple(s[:5]) + (job,) for s in part["spans"]]

    def dump(self) -> dict:
        """Counts, self times and spans of a traced child process (one job)."""
        return {"counts": dict(self.counts), "self_s": dict(self.self_s[self.job]), "spans": self.spans}


def metric_names() -> list:
    names = []
    for mod, fn_name, _, _, extra in SPANS:
        name = f"{mod}.{fn_name}"
        names += [f"{name}.self_ms"] if name == "cli.main" else [f"{name}.calls", f"{name}.self_ms"]
        names += [f"{name}.{e}" for e in extra]
    names += ["staircase.Staircase.calls", "staircase.Staircase.self_ms"]
    names += [f"{mod}.{method}.calls" for mod, _, method in COUNTED]
    return names


def _fresh_process_ms(cmd: list, env: dict, reps: int = 5) -> tuple:
    """Median wall time of a fresh process in reference ms, and its stderr."""
    times, err = [], ""
    for _ in range(reps):
        before = refclock.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        after = refclock.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd} failed: {proc.stderr[-300:]}")
        times.append(wall * 1e3 * refclock.R_NOMINAL_S / statistics.median((before, after)))
        err = proc.stderr
    return statistics.median(times), err


def _numpy_import_us(importtime_stderr: str) -> float:
    for line in importtime_stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return float(fields[1])
    raise RuntimeError("numpy not in the -X importtime report")


def cli_probes(env: dict) -> dict:
    exe = sys.executable
    interp, _ = _fresh_process_ms([exe, "-c", "pass"], env)
    imported, _ = _fresh_process_ms([exe, "-c", "import ddquant.cli"], env)
    reps = []
    for _ in range(5):
        _, err = _fresh_process_ms([exe, "-X", "importtime", "-c", "import ddquant.cli"], env, reps=1)
        before = refclock.sample()
        reps.append(_numpy_import_us(err) / 1e3 * refclock.R_NOMINAL_S / before)
    return {
        "cli.interpreter_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.import_numpy_ms": statistics.median(reps),
    }


def traced_run(runner, blocks: list, run_dir: Path) -> dict:
    """Run every job untraced and traced, one right after the other: the
    untraced run first on even jobs and second on odd ones, so that
    neither always runs first.  cli-cold jobs start tracechild.py in both.
    The tracing overhead is the median of the jobs' traced / untraced time."""
    from worker import child_env

    jobs = [argv for block in blocks for argv in block]
    tracer = Tracer()
    child_dir = run_dir / "child-trace"
    child_dir.mkdir()
    samples, walls, passes = [], [], []
    outputs = {False: [], True: []}
    with open(run_dir / "spans.csv", "w") as fh:
        fh.write("id,name,start,end,parent,job\n")
        for i, argv in enumerate(jobs):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                samples.append(refclock.sample())
                tracer.job = i
                if runner.cold:
                    runner.child_trace = str(child_dir / f"{i}.json") if traced else UNTRACED
                elif traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    outputs[traced].append(runner(argv))
                finally:
                    walls.append(time.perf_counter() - t0)
                    tracer.uninstall()
                if traced and runner.cold:
                    tracer.merge(i, json.loads((child_dir / f"{i}.json").read_text()))
                tracer.flush(fh)
                passes.append(traced)
    samples.append(refclock.sample())
    runner.child_trace = None
    ref_s = {False: [], True: []}
    factors = []
    for traced, wall, factor in zip(passes, walls, refclock.local_factors(samples, len(walls))):
        ref_s[traced].append(wall * factor)
        if traced:
            factors.append(factor)
    n = len(jobs)
    per_layer = {name: 0.0 for name in metric_names()}
    for key, value in tracer.counts.items():
        if key in per_layer:
            per_layer[key] = value / n
    for i, factor in enumerate(factors):
        for name, seconds in tracer.self_s[i].items():
            per_layer[f"{name}.self_ms"] += seconds * 1e3 * factor / n
    per_layer.update(cli_probes(child_env()))
    per_layer["trace.jobs_per_ref_s.untraced"] = n / sum(ref_s[False])
    per_layer["trace.jobs_per_ref_s.traced"] = n / sum(ref_s[True])
    return {
        "per_layer": per_layer,
        "outputs": outputs[True],
        "untraced_outputs": outputs[False],
        "spans": tracer.written,
        "overhead": statistics.median(t / u for u, t in zip(ref_s[False], ref_s[True])) - 1,
    }
