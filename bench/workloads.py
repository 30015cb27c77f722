"""The four workloads: seeded inputs with known answers, and their checks.

A workload is a sequence of blocks.  A block is a fixed list of job slots;
the slot kinds, sizes and t-norms depend only on the block's index, and the
seed draws the contents (jump positions, levels, labels, which triple is
perturbed).  Every run therefore meets the same mix of job sizes whatever
its seed, and a run always attempts whole blocks.

Nothing here imports ddquant.  Expected answers come from constructions
whose answer is known (valid metrics built from nested numeric metrics,
targets built as phi-multiples, certificates for jumps no continuous map
can divide), from properties every answer must have, and from the
independent pointwise oracles in `exact`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import exact as ex

ORDINAL = "ordinal[(2/10,6/10,prod),(7/10,1,luk)]"
TNORMS = ("min", "prod", "luk", ORDINAL)
ZERO, ONE = ex.ZERO, ex.ONE


@dataclass
class Job:
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data))


def _levels(rng, count: int, den: int, top: bool = True) -> list:
    """`count` increasing levels k/den; the last is 1 when `top`."""
    if top:
        return [Fraction(k, den) for k in sorted(rng.sample(range(1, den), count - 1))] + [ONE]
    return [Fraction(k, den) for k in sorted(rng.sample(range(1, den + 1), count))]


def _stair(rng, count: int, level_den: int, start=ZERO, top: bool = True, spread: int = 4):
    """A staircase with `count` steps on quarter-integer jumps from `start`."""
    jumps = sorted(rng.sample(range(spread * count), count))
    return tuple(
        (start + Fraction(j, 4), a)
        for j, a in zip(jumps, _levels(rng, count, level_den, top))
    )


# Divisors of 2880 as levels: under prod every quotient of two of them has
# a small denominator, which keeps the int64 kernel in range.
_SMOOTH = [Fraction(d, 2880) for d in range(1, 2881) if 2880 % d == 0]


# Fixed levels with unrelated numerators for the prod overflow slot; fixing
# them keeps the size of its fractions, and so its cost, the same per seed.
_GENERIC = tuple(Fraction(k, 240) for k in (7, 13, 19, 29, 37, 43, 53, 61, 67, 73, 79, 89, 97, 103, 109, 113,
                                            127, 131, 137, 149, 157, 163, 173, 181, 191, 197, 203, 211, 221, 227, 233, 240))


def _smooth_stair(rng, count: int):
    jumps = sorted(rng.sample(range(4 * count), count))
    levels = sorted(rng.sample(_SMOOTH[:-1], count - 1)) + [ONE]
    return tuple((Fraction(j, 4), a) for j, a in zip(jumps, levels))


# ---------------------------------------------------------------------------
# validate: staircase-valued (partial) metric instances

# (points, steps) per slot; cycled by block so that every run sees them all.
VALIDATE_SIZES = ((4, 6), (3, 16), (4, 10), (5, 6), (3, 10), (4, 8), (5, 8), (4, 12), (6, 6), (3, 14))


def _nested_metric(rng, n: int, m: int, t: ex.TNorm, level_den: int = 48):
    """Staircase metric from m nested numeric metrics d_1 <= ... <= d_m.

    d_k is the sum of the first k line metrics on distinct positions, so
    d_k(x, y) strictly increases with k.  The entry for x != y reaches
    level a_k just after d_k(x, y).  Each d_k obeys the triangle
    inequality, which makes the family a valid probabilistic metric under
    min and therefore under every t-norm below min.
    """
    pos = [[Fraction(x, 4) for x in rng.sample(range(8 * n), n)] for _ in range(m)]
    levels = _levels(rng, m, level_den)
    dist = []
    for x in range(n):
        row = []
        for y in range(n):
            if x == y:
                row.append(ex.TOP)
                continue
            d, steps = ZERO, []
            for k in range(m):
                d += abs(pos[k][x] - pos[k][y])
                steps.append((d, levels[k]))
            row.append(tuple(steps))
        dist.append(row)
    return dist


def _flags(dist) -> dict:
    n = len(dist)
    return {
        "finitary": all(e and e[-1][1] == ONE for row in dist for e in row),
        "separated": not any(
            i != j and dist[i][j] == dist[j][i] == dist[i][i] == dist[j][j]
            for i in range(n) for j in range(n)
        ),
        "symmetric": all(dist[i][j] == dist[j][i] for i in range(n) for j in range(n)),
    }


def _validate_block(seed: int, block: int, outdir: Path) -> list:
    rng = _rng("validate", seed, block)
    jobs = []
    for idx, tn in enumerate(TNORMS):
        t = ex.TNorm(tn)
        for vi, validator in enumerate(("probparmet", "probmet")):
            n, m = VALIDATE_SIZES[(3 * block + 2 * idx + vi) % len(VALIDATE_SIZES)]
            variant = (block + idx + vi) % 4
            partial, perturbed = variant in (1, 3), variant >= 2
            dist = _nested_metric(rng, n, m, t)
            triple = None
            if perturbed:
                # Delay entry (i, k) past every composite through j: the
                # triangle at (i, j, k) must fail, and only triangles that
                # end in that entry can.
                i, j, k = rng.sample(range(n), 3)
                delay = 1 + 2 * max(e[-1][0] for row in dist for e in row)
                dist[i][k] = tuple((p + delay, a) for p, a in dist[i][k])
                triple = (i, j, k)
            if partial:
                # Scaling by a one-step self-distance (0, c) keeps every
                # entry divisible by the self-distances and every composite
                # below its entry; c > 1/2 keeps c * c > 0 under luk.
                c = Fraction(rng.randrange(30, 48), 48)
                dist = [[ex.convolve(t, ((ZERO, c),), e) for e in row] for row in dist]
            labels = [f"x{rng.randrange(10**6)}_{p}" for p in range(n)]
            path = outdir / f"b{block}-{idx}{vi}.json"
            _write_json(path, {
                "points": labels,
                "tnorm": tn,
                "dist": [[ex.fmt(e) for e in row] for row in dist],
            })
            argv = ["validate", str(path)] if validator == "probparmet" else \
                ["validate", "--kind", "probmet", str(path)]
            # Self-distances other than top break ProbM1 at every point.
            m1 = [] if validator == "probparmet" or not partial else [
                {"axiom": "ProbM1", "points": [labels[p]],
                 "left": ex.fmt(dist[p][p]), "right": ex.fmt(ex.TOP)}
                for p in range(n)
            ]
            jobs.append(Job("validate", argv, {
                "tnorm": tn, "kind": validator, "dist": dist, "labels": labels,
                "flags": _flags(dist), "m1": m1, "triple": triple,
            }))
    return jobs


def _composite(t: ex.TNorm, kind: str, dist, i: int, j: int, k: int):
    if kind == "probmet":
        return ex.convolve(t, dist[j][k], dist[i][j])
    return ex.convolve(t, dist[j][k], ex.implication(t, dist[j][j], dist[i][j]))


def _check_validate(job: Job, code: int, out: str) -> str | None:
    e = job.expect
    report = json.loads(out)
    if report["kind"] != e["kind"] or report["flags"] != e["flags"]:
        return f"kind or flags differ: {report['kind']} {report['flags']}"
    m1 = [v for v in report["violations"] if v["axiom"] == "ProbM1"]
    if m1 != e["m1"]:
        return f"ProbM1 violations {m1} != {e['m1']}"
    triangle = "ProbM2" if e["kind"] == "probmet" else "ProbPM2"
    rest = [v for v in report["violations"] if v["axiom"] != "ProbM1"]
    if any(v["axiom"] != triangle for v in rest):
        return f"unexpected axiom in {rest}"
    labels = e["labels"]
    found = {tuple(labels.index(p) for p in v["points"]): v for v in rest}
    if e["triple"] is None:
        if rest:
            return f"violations reported on a valid construction: {rest[:2]}"
    else:
        i, _, k = e["triple"]
        if tuple(e["triple"]) not in found:
            return f"known violation at {e['triple']} missing"
        t = ex.TNorm(e["tnorm"])
        for (a, b, c), v in found.items():
            if (a, c) != (i, k):
                return f"violation at {(a, b, c)} does not end in the delayed entry"
            composed = _composite(t, e["kind"], e["dist"], a, b, c)
            entry = e["dist"][a][c]
            if (v["left"], v["right"]) != (ex.fmt(composed), ex.fmt(entry)) or ex.leq(composed, entry):
                return f"violation at {(a, b, c)} is not one"
    ok = not report["violations"]
    if report["ok"] != ok or code != (0 if ok else 1):
        return f"ok={report['ok']} exit={code} with {len(report['violations'])} violations"
    return None


# ---------------------------------------------------------------------------
# decide: divisibility verdicts and certificates


def _diag_job(tn: str, xi, phi, expect_divisible: bool, witness=None) -> Job:
    argv = ["diag", "--tnorm", tn, "--xi", ex.fmt(xi), "--phi", ex.fmt(phi)]
    return Job("diag", argv, {"tnorm": tn, "xi": xi, "phi": phi,
                              "divisible": expect_divisible, "witness": witness})


def _divisible_pair(rng, t: ex.TNorm, tn: str, phi_steps: int, xi_steps: int):
    """A divisor and a phi-multiple of about xi_steps steps (within 5%).

    The multiplier's size is adjusted until the product lands there, so
    that a slot's cost depends on its sizes and not on the seed.
    """
    phi = _smooth_stair(rng, phi_steps) if tn == "prod" else _stair(rng, phi_steps, 240)
    psi_steps, best = max(1, xi_steps - phi_steps + 1), None
    for _ in range(12):
        xi = ex.convolve(t, phi, _stair(rng, min(psi_steps, 1000), 1024, spread=6))
        if best is None or abs(len(xi) - xi_steps) < abs(len(best) - xi_steps):
            best = xi
        if abs(len(xi) - xi_steps) <= xi_steps // 20:
            break
        psi_steps = max(1, round(psi_steps * xi_steps / max(1, len(xi))))
    return phi, best


def _not_divisible_pair(rng, t: ex.TNorm, tn: str, phi_steps: int, xi_steps: int):
    """A phi-multiple with one jump moved earlier, and a time where the
    oracle shows the best phi-multiple below it falling short."""
    for _ in range(100):
        phi, xi = _divisible_pair(rng, t, tn, phi_steps, xi_steps)
        for k in rng.sample(range(1, len(xi)), min(8, len(xi) - 1)):
            moved = (xi[k - 1][0] + xi[k][0]) / 2
            cand = xi[:k] + ((moved, xi[k][1]),) + xi[k + 1:]
            if ex.residual_after(t, phi, cand, moved) < cand[k][1]:
                return phi, cand, moved
    raise RuntimeError("no perturbation breaks divisibility")


def _one_step_pair(rng, target_steps: int):
    """A one-step divisor and a target below it: divisible by the paper's
    one-step theorem."""
    p = Fraction(rng.randrange(1, 40), 4)
    top = rng.randrange(512, 1024)
    jumps = sorted(rng.sample(range(8 * target_steps), target_steps))
    levels = sorted(rng.sample(range(1, top + 1), target_steps))
    xi = tuple((p + Fraction(j, 8), Fraction(lv, 1024)) for j, lv in zip(jumps, levels))
    return ((p, Fraction(top, 1024)),), xi


def _certify_job(rng, tn: str, resolution: int, bottom: bool = False) -> Job:
    """A staircase target and a linear ramp from (0, 0) to (T, 1).

    A continuous map convolved with anything is continuous, so no target
    with a jump is divisible; with the jump at least 1/2 high and the ramp
    rising 1/resolution per cell, the enclosure proves it just after the
    jump.  The bottom target is divisible.
    """
    knots = ((ZERO, ZERO), (Fraction(rng.randrange(1, 16), 2), ONE))
    if bottom:
        xi = ()
    else:
        # A level between 1/2 and 3/4 keeps the share of bracket steps above
        # it, and so the size of the implication, the same per seed.
        xi = ((Fraction(rng.randrange(1, 48), 4), Fraction(rng.randrange(33, 49), 64)),)
    text = "linear[" + ",".join(f"({x},{v})" for x, v in knots) + "]"
    argv = ["certify", "--tnorm", tn, "--xi", ex.fmt(xi), "--phi", text,
            "--resolution", str(resolution)]
    return Job("certify", argv, {"tnorm": tn, "xi": xi, "knots": knots,
                                 "resolution": resolution, "certified": not bottom})


def _decide_block(seed: int, block: int, outdir: Path) -> list:
    rng = _rng("decide", seed, block)
    jobs = []
    for idx, tn in enumerate(TNORMS):
        t = ex.TNorm(tn)
        phi, xi = _divisible_pair(rng, t, tn, 6 + (3 * block + idx) % 7, 40 + (7 * block + 5 * idx) % 60)
        jobs.append(_diag_job(tn, xi, phi, True))
        # Past 4096 candidate pairs min, prod and luk take the int64 kernel;
        # ordinal sums never do.  The sizes give the four about the same
        # cost, so that the 90th percentile falls inside their cluster.
        phi_steps, xi_steps = {"min": (22, 380), "prod": (22, 410), "luk": (30, 140)}.get(tn, (14, 190))
        phi, xi = _divisible_pair(rng, t, tn, phi_steps + (5 * block + idx) % 5, xi_steps + (13 * block) % 30)
        jobs.append(_diag_job(tn, xi, phi, True))
        phi, xi, at = _not_divisible_pair(rng, t, tn, 8 + (block + 3 * idx) % 9, 40 + (11 * block + idx) % 40)
        jobs.append(_diag_job(tn, xi, phi, False, at))
        phi, xi = _one_step_pair(rng, 100 + (37 * block + 71 * idx) % 300)
        jobs.append(_diag_job(tn, xi, phi, True))
        jobs.append(_certify_job(rng, tn, 32 << ((block + idx) % 4)))
    jobs.append(_certify_job(rng, TNORMS[block % 4], 32 << (block % 4), bottom=True))
    if block % 2 == 0:
        # Levels with unrelated numerators push the prod kernel past int64.
        t = ex.TNorm("prod")
        phi = tuple(zip((Fraction(j, 4) for j in sorted(rng.sample(range(128), 32))), _GENERIC))
        xi = ex.convolve(t, phi, _stair(rng, 80, 1024, spread=6))
        jobs.append(_diag_job("prod", xi, phi, True))
    return jobs


def _check_diag(job: Job, code: int, out: str) -> str | None:
    e = job.expect
    lines = out.splitlines()
    verdict = "divisible" if e["divisible"] else "not divisible"
    if len(lines) != 2 or lines[0] != verdict or not lines[1].startswith("residual "):
        return f"verdict {lines[:1]} != {verdict}"
    if code != (0 if e["divisible"] else 1):
        return f"exit {code} for {verdict}"
    residual = ex.parse(lines[1][len("residual "):])
    if e["divisible"]:
        return None if residual == e["xi"] else "residual of a divisible target differs from it"
    # The oracle value at the witness shows that no phi-multiple reaches xi
    # there; the printed residual must agree with it and stay below xi.
    t, at = ex.TNorm(e["tnorm"]), e["witness"]
    want = ex.residual_after(t, e["phi"], e["xi"], at)
    if ex.Lookup(residual).after(at) != want or not ex.leq(residual, e["xi"]):
        return f"residual disagrees with the oracle at {at}"
    return None


def _check_certify(job: Job, code: int, out: str) -> str | None:
    e = job.expect
    lines = out.splitlines()
    if not e["certified"]:
        return None if (code, lines) == (2, ["inconclusive"]) else f"certificate for a divisible pair: {lines}"
    if code != 1 or len(lines) != 3 or lines[0] != "not divisible":
        return f"no certificate: exit {code} {lines[:1]}"
    w = Fraction(lines[1].split()[1])
    gap = Fraction(lines[2].split()[1])
    xi = e["xi"]
    upper = ex.certified_upper_at(ex.TNorm(e["tnorm"]), e["knots"], xi, e["resolution"], w)
    if not (w > 0 and gap > 0 and ex.Lookup(xi).at(w) - upper == gap):
        return f"certificate does not hold at witness {w}"
    return None


# ---------------------------------------------------------------------------
# finite-lab: finite quantale tables


def _chain(n: int, mult, name: str):
    return name, [[i <= j for j in range(n)] for i in range(n)], \
        [[mult(i, j) for j in range(n)] for i in range(n)], n - 1


def _luk(n):
    return _chain(n, lambda i, j: max(0, i + j - (n - 1)), f"luk{n}")


def _min(n):
    return _chain(n, min, f"min{n}")


def _drastic(n):
    top = n - 1
    return _chain(n, lambda i, j: j if i == top else (i if j == top else 0), f"drastic{n}")


def _ordinal(sizes):
    """Ordinal sum of Lukasiewicz chains glued at their end points."""
    ends = [0]
    for s in sizes:
        ends.append(ends[-1] + s - 1)

    def mult(i, j):
        a, b = min(i, j), max(i, j)
        for lo, hi in zip(ends, ends[1:]):
            if lo <= a < hi and lo < b <= hi:
                return max(lo, a + b - hi)
        return a
    return _chain(ends[-1] + 1, mult, "ordinal" + "+".join(map(str, sizes)))


def _heyting(below, n: int, name: str):
    """A finite distributive lattice with meet as multiplication."""
    leq = [[below(i, j) for j in range(n)] for i in range(n)]

    def meet(i, j):
        lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
        return next(k for k in lower if all(leq[v][k] for v in lower))
    top = next(k for k in range(n) if all(leq[j][k] for j in range(n)))
    return name, leq, [[meet(i, j) for j in range(n)] for i in range(n)], top


_SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))


def _square_below(i, j):
    return _SQUARE[i][0] <= _SQUARE[j][0] and _SQUARE[i][1] <= _SQUARE[j][1]


# (builder, divisible) for the valid tables; drastic chains of 4 or more
# elements are the non-divisible ones.
_TABLES = {
    3: [(lambda: _luk(3), True), (lambda: _min(3), True)],
    4: [(lambda: _luk(4), True), (lambda: _min(4), True), (lambda: _drastic(4), False),
        (lambda: _ordinal((2, 3)), True),
        (lambda: _heyting(_square_below, 4, "square"), True)],
    5: [(lambda: _drastic(5), False),
        (lambda: _heyting(lambda i, j: j == 4 or (i != 4 and _square_below(i, j)), 5, "square+top"), True),
        (lambda: _heyting(lambda i, j: i == 0 or (j != 0 and _square_below(i - 1, j - 1)), 5, "bottom+square"), True),
        (lambda: _ordinal((2, 3, 2)), True), (lambda: _ordinal((3, 3)), True),
        (lambda: _min(5), True), (lambda: _luk(5), True)],
}


def _table_file(rng, table, path: Path, break_with: str | None) -> str | None:
    """Write `table` with seeded labels and element order, optionally with
    one law broken; return the problem the check must then report."""
    name, leq, mult, top = table
    n = len(leq)
    labels = [f"{name}_{rng.randrange(10**6)}_{i}" for i in range(n)]
    order = rng.sample(range(n), n)
    unit = top
    problem = None
    below_top = [i for i in range(n) if i != top]
    if break_with == "commutative":
        # a * b is below a < top in an integral quantale, so b * a = top
        # differs from it.
        a, b = rng.sample(below_top, 2)
        mult = [row[:] for row in mult]
        mult[b][a] = top
        problem = f"multiplication not commutative at ({labels[a]},{labels[b]})"
    elif break_with == "unit":
        unit = rng.choice(below_top)
        problem = "unit is not the top element (quantale not integral)"
    elif break_with == "antisymmetric":
        a, b = rng.sample(range(n), 2)
        leq = [row[:] for row in leq]
        leq[a][b] = leq[b][a] = True
        problem = f"order not antisymmetric at ({labels[a]},{labels[b]})"
    _write_json(path, {
        "elements": [labels[i] for i in order],
        "leq": [[int(leq[i][j]) for j in order] for i in order],
        "mult": [[labels[mult[i][j]] for j in order] for i in order],
        "unit": labels[unit],
    })
    return problem


def _finite_block(seed: int, block: int, outdir: Path) -> list:
    rng = _rng("finite-lab", seed, block)
    # With the one 5-element table 5% of a block, the two Lukasiewicz
    # 4-chains (the costliest 4-element table) hold the 90th percentile and
    # the other 4-element tables the median, so that neither falls in a
    # gap between table sizes.
    picks = [(3, 0), (3, 1)] * 2 + [(3, block % 2), (4, 0), (4, 0), (4, 1 + block % 4)]
    picks += [(4, k) for k in (1, 2, 3, 4)] * 2 + [(5, block % len(_TABLES[5]))]
    jobs = []
    for slot, (size, which) in enumerate(picks):
        build, divisible = _TABLES[size][which]
        path = outdir / f"b{block}-{slot}.json"
        _table_file(rng, build(), path, None)
        jobs.append(Job("quantale-check", ["quantale-check", str(path)],
                        {"valid": True, "divisible": divisible}))
    for slot, (size, law) in enumerate(((3, "commutative"), (4, "unit"), (5, "antisymmetric"))):
        build, _ = _TABLES[size][(block + slot) % len(_TABLES[size])]
        path = outdir / f"b{block}-bad{slot}.json"
        problem = _table_file(rng, build(), path, law)
        jobs.append(Job("quantale-check", ["quantale-check", str(path)],
                        {"valid": False, "problem": problem}))
    return jobs


def _check_quantale(job: Job, code: int, out: str) -> str | None:
    e = job.expect
    report = json.loads(out)
    if not e["valid"]:
        if report.get("valid") is not False or code != 1:
            return f"broken table accepted: exit {code}"
        return None if e["problem"] in report["problems"] else f"missing problem {e['problem']!r}"
    if report["valid"] is not True or report["quantaloid_ok"] is not True or report["quantaloid_violations"]:
        return "valid table fails the quantaloid laws"
    if report["divisible"] != e["divisible"] or report["downsets_equal"] != e["divisible"]:
        return f"divisible={report['divisible']} downsets_equal={report['downsets_equal']}"
    if report["downsets_equal"] == bool(report["mismatched_pairs"]) or code != 0:
        return f"mismatched pairs or exit {code} inconsistent"
    return None


# ---------------------------------------------------------------------------
# cli-cold: one small job per subcommand


def _meet(a, b):
    la, lb = ex.Lookup(a), ex.Lookup(b)
    cuts = {p for p, _ in a} | {p for p, _ in b}
    return ex.envelope((p, min(la.after(p), lb.after(p))) for p in cuts)


def _eval_job(rng, tn: str) -> Job:
    t = ex.TNorm(tn)
    parts = [_stair(rng, rng.randrange(1, 4), 12) for _ in range(4)]
    texts = [ex.fmt(p) for p in parts]
    expr = f"meet(join({texts[0]},{texts[1]}),conv({texts[2]},imp({texts[3]},{texts[1]})))"
    want = _meet(ex.envelope(parts[0] + parts[1]),
                 ex.convolve(t, parts[2], ex.implication(t, parts[3], parts[1])))
    return Job("eval", ["eval", "--tnorm", tn, expr], {"text": ex.fmt(want)})


def _export_job(rng, tn: str) -> Job:
    sc = _stair(rng, rng.randrange(2, 6), 12)
    grid = rng.randrange(4, 17)
    return Job("export-samples", ["export-samples", "--tnorm", tn, "--grid", str(grid), ex.fmt(sc)],
               {"sc": sc, "grid": grid})


def _check_export(job: Job, code: int, out: str) -> str | None:
    sc, grid = job.expect["sc"], job.expect["grid"]
    lines = out.splitlines()
    if code != 0 or lines[0] != "t,value" or lines[-1] != f"inf,{sc[-1][1]}":
        return "bad CSV frame"
    rows = [tuple(Fraction(x) for x in line.split(",")) for line in lines[1:-1]]
    times = [t for t, _ in rows]
    hi = sc[-1][0] or ONE
    need = {p for p, _ in sc} | {hi * k / grid for k in range(grid + 1)}
    if times != sorted(set(times)) or not need <= set(times):
        return "sample times not sorted or missing breakpoints"
    lk = ex.Lookup(sc)
    return None if all(v == lk.at(t) for t, v in rows) else "sampled value differs"


def _cli_block(seed: int, block: int, outdir: Path) -> list:
    rng = _rng("cli-cold", seed, block)
    tn = TNORMS[block % 4]
    t = ex.TNorm(tn)
    jobs = [_eval_job(rng, tn)]
    phi, xi = _divisible_pair(rng, t, tn, 4, 6)
    jobs.append(_diag_job(tn, xi, phi, True))
    phi, xi, at = _not_divisible_pair(rng, t, tn, 3, 5)
    jobs.append(_diag_job(tn, xi, phi, False, at))
    dist = _nested_metric(rng, 3, 4, t)
    labels = ["a", "b", "c"]
    path = outdir / f"b{block}-inst.json"
    _write_json(path, {"points": labels, "tnorm": tn, "dist": [[ex.fmt(e) for e in row] for row in dist]})
    jobs.append(Job("validate", ["validate", str(path)], {
        "tnorm": tn, "kind": "probparmet", "dist": dist, "labels": labels,
        "flags": _flags(dist), "m1": [], "triple": None}))
    jobs.append(_certify_job(rng, tn, 32))
    build, divisible = _TABLES[3][block % 2]
    path = outdir / f"b{block}-table.json"
    _table_file(rng, build(), path, None)
    jobs.append(Job("quantale-check", ["quantale-check", str(path)], {"valid": True, "divisible": divisible}))
    jobs.append(_export_job(rng, tn))
    # Input errors must end in exit 2 with a one-line message.
    jobs.append(Job("error", ["eval", "--tnorm", "ordinal[(1/2,1/3,prod)]", "step(1,1)"], {}))
    return jobs


def _check_eval(job: Job, code: int, out: str) -> str | None:
    return None if code == 0 and out == job.expect["text"] + "\n" else f"eval printed {out[:80]!r}"


CHECKS = {
    "validate": _check_validate,
    "diag": _check_diag,
    "certify": _check_certify,
    "quantale-check": _check_quantale,
    "eval": _check_eval,
    "export-samples": _check_export,
}

BLOCKS = {
    "validate": _validate_block,
    "decide": _decide_block,
    "finite-lab": _finite_block,
    "cli-cold": _cli_block,
}


def make_blocks(workload: str, seed: int, outdir: Path, count: int) -> list:
    return [BLOCKS[workload](seed, b, outdir) for b in range(count)]


def check(job: Job, code, out: str, err: str):
    """None when the job's exit code and output are right.

    Otherwise ("failed", reason) for a job that did not complete (a crash,
    an unexpected input error) or ("wrong", reason) for a wrong answer.
    """
    expect_error = job.kind == "error" or (job.kind == "certify" and not job.expect["certified"])
    if isinstance(code, str) or (code == 2 and not expect_error):
        return "failed", f"exit {code}: {err.strip()[:200]}"
    if job.kind == "error":
        one_line = err.startswith("error: ") and err.count("\n") == 1
        return None if code == 2 and not out and one_line else ("wrong", f"input error gave exit {code}: {err[:200]!r}")
    if err:
        return "failed", f"unexpected stderr: {err.strip()[:200]}"
    try:
        reason = CHECKS[job.kind](job, code, out)
    except (ValueError, KeyError, IndexError, TypeError, AssertionError) as exc:
        reason = f"unreadable output ({type(exc).__name__}: {exc}): {out[:120]!r}"
    return None if reason is None else ("wrong", reason)
