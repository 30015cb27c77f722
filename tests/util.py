"""Shared generators and independent oracles for the test suite.

Pointwise oracles recompute results by brute enumeration, sharing no
algorithmic structure with the envelope/meet machinery they check.  The
`Fraction` reference kernels (`convolve_plain`, `monotone_conv_at_plain`,
`step_implication_plain`, `implication_plain`, `format_oracle`) are the
library's earlier definitions, kept as oracles for the kernels that
replaced them: they work on the `steps` views or on cells and never call
the kernel they check.  The plain reader (`lex_plain`, `pairs_plain`) is
the tokenizer and ratio-pair walk from before well-formed bodies became one
lexeme; `plain_reader` swaps it in for a differential check of the readers.
The plain law checker (`quantaloid_laws_plain`, `homs_plain`,
`join_table_plain`) is the diagonal quantaloid's checker from before it
memoised arrows and products and decided each divisibility once: loops over
every quintuple, membership through the generic divisibility test.
`validate_quantale_plain` is the table validator from before finite tables
worked on element indices and bitmasks: label loops over every triple.
"""

from __future__ import annotations

import random
import re
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from ddquant import (
    INF,
    LUK,
    MIN,
    PROD,
    Certificate,
    Enclosure,
    PiecewiseLinear,
    Staircase,
    TNorm,
    convolve,
    envelope,
    implication,
    meet_all,
    parse_tnorm,
)
from ddquant import axis
from ddquant.axis import Time, format_scalar, is_infinite, time_add
from ddquant.errors import DomainError, ParseError
from ddquant.finiteq import QuantaleReport
from ddquant.values import QuantaloidReport, ValueQuantale

ORDINAL = parse_tnorm("ordinal[(2/10,6/10,prod),(7/10,1,luk)]")

TNORMS: list[tuple[str, TNorm]] = [
    ("min", MIN),
    ("prod", PROD),
    ("luk", LUK),
    ("ordinal", ORDINAL),
]

# A nilpotent piece at 0: luk values there can drop to the piece's floor 0.
NILPOTENT = parse_tnorm("ordinal[(0,1/3,luk),(1/2,3/4,prod),(3/4,1,luk)]")

# min below, between and above two pieces: the only region of min above a
# t-norm's last piece among these t-norms.
GAPPED = parse_tnorm("ordinal[(1/5,2/5,luk),(3/5,4/5,prod)]")

_DENS = (1, 2, 3, 4, 6, 8, 12)


def rand_time(rng: random.Random, hi: int = 5) -> Fraction:
    den = rng.choice(_DENS)
    return Fraction(rng.randrange(0, hi * den + 1), den)


def rand_unit(rng: random.Random, include_zero: bool = False) -> Fraction:
    den = rng.choice(_DENS)
    lo = 0 if include_zero else 1
    return Fraction(rng.randrange(lo, den + 1), den)


def rand_staircase(
    rng: random.Random, max_steps: int = 6, allow_empty: bool = True, dens: tuple = (4, 12)
) -> Staircase:
    """Jumps in [0, 6) with denominator dens[0], levels with dens[1]."""
    lo = 0 if allow_empty else 1
    n = rng.randrange(lo, max_steps + 1)
    if n == 0:
        return Staircase()
    jd, ld = dens
    jumps = sorted(rng.sample([Fraction(k, jd) for k in range(0, 6 * jd)], n))
    levels = sorted(rng.sample([Fraction(k, ld) for k in range(1, ld + 1)], n))
    return Staircase(tuple(zip(jumps, levels)))


def delay_step(sc: Staircase, rng: random.Random) -> Staircase:
    """sc with one step's jump moved later: just not above sc (bottom
    stays itself)."""
    steps = list(sc.steps)
    if not steps:
        return sc
    k = rng.randrange(len(steps))
    later = steps[k + 1][0] if k + 1 < len(steps) else steps[k][0] + 2
    steps[k] = ((steps[k][0] + later) / 2, steps[k][1])
    return Staircase(tuple(steps))


def format_oracle(sc: Staircase) -> str:
    """The canonical text from the `Fraction` views, one reduced value at a
    time, as `format_staircase` printed it before it read the images."""
    body = ",".join(f"({format_scalar(p)},{format_scalar(a)})" for p, a in sc.steps)
    return f"steps[{body}]"


def convolve_plain(t: TNorm, phi: Staircase, psi: Staircase) -> Staircase:
    """The convolution on `Fraction`s: the envelope of the pairwise one-step
    products."""
    apply = t.apply
    return envelope((p + q, apply(a, b)) for p, a in phi.steps for q, b in psi.steps)


def monotone_conv_at_plain(t: TNorm, m1, m2, at: Fraction) -> Fraction:
    """sup_{s in [0, at]} m1(s) * m2(at - s) for finite at, by cells: every
    breakpoint of either factor that lands in [0, at], and every pair of
    open cells, one of each factor, whose splittings s overlap."""
    apply = t.apply
    best = Fraction(0)
    for b, v in zip(m1.breakpoints, m1.point_values):
        if b <= at:
            best = max(best, apply(v, m2(at - b)))
    for d, v in zip(m2.breakpoints, m2.point_values):
        if d <= at:
            best = max(best, apply(m1(at - d), v))
    ends1 = [*m1.breakpoints[1:], None]
    ends2 = [*m2.breakpoints[1:], None]
    for lo1, hi1, v1 in zip(m1.breakpoints, ends1, m1.cell_values):
        for lo2, hi2, v2 in zip(m2.breakpoints, ends2, m2.cell_values):
            # s must satisfy lo1 < s < hi1 and lo2 < at - s < hi2
            lo = lo1 if hi2 is None else max(lo1, at - hi2)
            hi = at - lo2 if hi1 is None else min(hi1, at - lo2)
            if lo < hi:
                best = max(best, apply(v1, v2))
    return best


def step_implication_plain(t: TNorm, p: Fraction, a: Fraction, xi: Staircase) -> Staircase:
    """The implication with antecedent one_step(p, a) on `Fraction`s: the
    envelope of the floor (0, a -> 0) and the shifted steps
    (max(0, r - p), a -> c) of xi."""
    pts = [(Fraction(0), t.implies(a, Fraction(0)))]
    pts += [(max(r - p, Fraction(0)), t.implies(a, c)) for r, c in xi.steps]
    return envelope(pts)


def implication_plain(t: TNorm, phi: Staircase, xi: Staircase) -> Staircase:
    """The implication as the meet of the one-step implications of the
    steps of phi."""
    return meet_all([step_implication_plain(t, p, a, xi) for p, a in phi.steps])


def rand_monotone(rng: random.Random, max_breaks: int = 5):
    """Random finite monotone step map, not necessarily left-continuous."""
    from ddquant import MonotoneStep

    n = rng.randrange(1, max_breaks + 1)
    bps = [Fraction(0)]
    bps.extend(sorted(rng.sample([Fraction(k, 4) for k in range(1, 25)], n - 1)))
    pool = sorted(rng.choice([Fraction(k, 12) for k in range(0, 13)]) for _ in range(2 * n))
    pvs = [pool[2 * i] for i in range(n)]
    cvs = [pool[2 * i + 1] for i in range(n)]
    infinity = rng.choice([None, max(cvs[-1], rand_unit(rng, include_zero=True))])
    return MonotoneStep(tuple(bps), tuple(pvs), tuple(cvs), infinity)


def probe_times(*items: Staircase) -> list[Time]:
    """Times that see every cell of every argument, plus 0 and infinity."""
    pts = {Fraction(0)}
    for sc in items:
        pts.update(sc.jumps)
    finite = sorted(pts)
    probes: list[Time] = list(finite)
    probes.extend((a + b) / 2 for a, b in zip(finite, finite[1:]))
    probes.append(finite[-1] + 1)
    probes.append(INF)
    return probes


def leq_oracle(phi: Staircase, psi: Staircase) -> bool:
    return all(phi(t) <= psi(t) for t in probe_times(phi, psi))


def eq_oracle(phi: Staircase, psi: Staircase) -> bool:
    return leq_oracle(phi, psi) and leq_oracle(psi, phi)


def conv_point_oracle(t: TNorm, phi: Staircase, psi: Staircase, at: Time) -> Fraction:
    """Pointwise sup over all step pairs landing strictly before `at`."""
    best = Fraction(0)
    for p, a in phi.steps:
        for q, b in psi.steps:
            if is_infinite(at) or time_add(p, q) < at:
                best = max(best, t.apply(a, b))
    return best


def _largest_shift_level(t: TNorm, phi: Staircase, xi: Staircase, s: Fraction) -> Fraction:
    """Largest c with the shifted one-step at s below the residual demand.

    The one-step (s, c) convolves with phi to steps at p_i + s with levels
    a_i * c; each must stay below xi just after p_i + s.
    """
    best = Fraction(1)
    for p, a in phi.steps:
        best = min(best, t.implies(a, xi.value_after(p + s)))
    return best


def imp_point_oracle(t: TNorm, phi: Staircase, xi: Staircase, at: Time) -> Fraction:
    """Pointwise value of the residuated convolution, by brute squeezing.

    The value at `at` is the sup over shifts s < at of the largest one-step
    level allowed at s.  That inner function is a nondecreasing step map of
    s whose breaks lie where some p_i + s crosses a jump of xi, so probing
    those breaks, midpoints, and points squeezed against `at` is exact.
    """
    if at == 0 or not phi.steps:
        # empty phi imposes no constraint: result is the top staircase,
        # whose value is 1 everywhere after 0
        return Fraction(0) if at == 0 else Fraction(1)
    pts = {Fraction(0)}
    for p in phi.jumps:
        for r in xi.jumps:
            if r > p:
                pts.add(r - p)
    finite = sorted(pts)
    shifts = [s for s in finite if is_infinite(at) or s < at]
    shifts.extend(
        m
        for a, b in zip(finite, finite[1:])
        for m in ((a + b) / 2,)
        if is_infinite(at) or m < at
    )
    if is_infinite(at):
        shifts.append(finite[-1] + 1)
    else:
        shifts.extend((s + at) / 2 for s in finite if s < at)
    best = Fraction(0)
    for s in shifts:
        best = max(best, _largest_shift_level(t, phi, xi, s))
    return best


# ---------------------------------------------------------------------------
# enclosures, cell by cell

def rand_linear(rng: random.Random, max_knots: int = 4) -> PiecewiseLinear:
    """1 to max_knots knots; equal neighbouring values give zero-slope segments."""
    k = rng.randrange(1, max_knots + 1)
    times = [Fraction(0)] + sorted(rng.sample([Fraction(j, 4) for j in range(1, 17)], k - 1))
    values = sorted(
        [Fraction(0)] + [rng.choice([Fraction(j, 6) for j in range(7)]) for _ in range(k - 1)]
    )
    return PiecewiseLinear(tuple(zip(times, values)))


def bracket_oracle(f: PiecewiseLinear, n: int) -> Enclosure:
    """The bracket by evaluating f at both ends of every cell: the lower
    staircase takes each cell's left value, the upper its right value."""
    lower, upper = [], []
    for (t1, _), (t2, _) in zip(f.knots, f.knots[1:]):
        width = (t2 - t1) / n
        for j in range(n):
            left = t1 + j * width
            lower.append((left, f(left)))
            upper.append((left, f(left + width)))
    lower.append(f.knots[-1])
    upper.append(f.knots[-1])
    return Enclosure(envelope(lower), envelope(upper))


def certify_oracle(t: TNorm, f: PiecewiseLinear, xi: Staircase, n: int) -> Certificate | None:
    """The first cut, over the merged jumps of xi and of the upper bound,
    just after which the bound lies below xi: the gap there, and the
    midpoint to the next cut (or the cut + 1) as witness."""
    enc = bracket_oracle(f, n)
    upper = convolve(t, enc.upper, implication(t, enc.lower, xi))
    cuts = sorted({*upper.jumps, *xi.jumps})
    for k, b in enumerate(cuts):
        uv, xv = upper.value_after(b), xi.value_after(b)
        if uv < xv:
            witness = (b + cuts[k + 1]) / 2 if k + 1 < len(cuts) else b + 1
            return Certificate(witness, xv - uv)
    return None


# ---------------------------------------------------------------------------
# metric axioms, transcribed directly

def _add(a: Time, b: Time) -> Time:
    return INF if INF in (a, b) else a + b


def _monus(a: Time, b: Time) -> Time:
    """a - b truncated at 0, with inf - p = inf for finite p."""
    if a <= b:
        return Fraction(0)
    return INF if is_infinite(a) else a - b


def _conv_probes(phi: Staircase, psi: Staircase, xi: Staircase) -> list[Time]:
    """Times that see every cell of xi and of the convolution of phi, psi."""
    times = {p + q for p in phi.jumps for q in psi.jumps}
    times.update(xi.jumps)
    times.add(Fraction(0))
    finite = sorted(times)
    probes: list[Time] = list(finite)
    probes.extend((a + b) / 2 for a, b in zip(finite, finite[1:]))
    probes.extend((finite[-1] + 1, INF))
    return probes


def conv_compare_oracle(t: TNorm, phi: Staircase, psi: Staircase, xi: Staircase, op) -> bool:
    """op(convolution of phi and psi at s, xi(s)) at every probe time s."""
    return all(
        op(conv_point_oracle(t, phi, psi, s), xi(s)) for s in _conv_probes(phi, psi, xi)
    )


def metric_axiom_oracle(m, partial: bool) -> list[tuple[str, tuple[str, ...]]]:
    """(axiom, points) of every failed axiom instance, in validator order.

    Numeric entries use plain arithmetic: M1 d(i,i) = 0, M2 d(i,k) <=
    d(i,j) + d(j,k), PM1 max(d(i,i), d(j,j)) <= d(i,j), PM2 d(i,k) <=
    d(j,k) + (d(i,j) - d(j,j) truncated).  Staircase entries compare
    convolutions pointwise: ProbM1 d(i,i) is top, ProbM2 the convolution of
    d(j,k) and d(i,j) lies below d(i,k), ProbPM1 d(i,j) equals the
    convolution of p and implication(p, d(i,j)) for both self-distances p,
    ProbPM2 the convolution of d(j,k) and implication(d(j,j), d(i,j)) lies
    below d(i,k).
    """
    from ddquant import TOP, implication
    from ddquant.metrics import ProbParMetInstance

    d, pts, n = m.dist, m.points, m.size
    prob = isinstance(m, ProbParMetInstance)
    prefix = ("Prob" if prob else "") + ("PM" if partial else "M")
    le, eq = (lambda a, b: a <= b), (lambda a, b: a == b)
    out = []
    for i in range(n):
        if not partial:
            if not (eq_oracle(d[i][i], TOP) if prob else d[i][i] == 0):
                out.append((prefix + "1", (pts[i],)))
            continue
        for j in range(n):
            if prob:
                bad = any(
                    not conv_compare_oracle(
                        m.tnorm, d[e][e], implication(m.tnorm, d[e][e], d[i][j]), d[i][j], eq
                    )
                    for e in (i, j)
                )
            else:
                bad = not max(d[i][i], d[j][j]) <= d[i][j]
            if bad:
                out.append((prefix + "1", (pts[i], pts[j])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if prob:
                    via = implication(m.tnorm, d[j][j], d[i][j]) if partial else d[i][j]
                    ok = conv_compare_oracle(m.tnorm, d[j][k], via, d[i][k], le)
                else:
                    via = _monus(d[i][j], d[j][j]) if partial else d[i][j]
                    ok = d[i][k] <= _add(d[j][k], via)
                if not ok:
                    out.append((prefix + "2", (pts[i], pts[j], pts[k])))
    return out


# ---------------------------------------------------------------------------
# the plain reader: every text walked token by token

_LEXEME_PLAIN = re.compile(r"\s*(?:([A-Za-z]+|[()\[\],])|([0-9]+)(?:/([0-9]*))?|(\S))")


def lex_plain(text: str) -> list[tuple[object, int]]:
    """The tokenizer without body lexemes: (value, column) pairs ending in
    (None, len(text)), a value being a number's (numerator, denominator)
    pair, a name or a punctuation character."""
    tokens: list[tuple[object, int]] = []
    for m in _LEXEME_PLAIN.finditer(text):
        if m.lastindex == 1:
            tokens.append((m[1], m.start(1)))
            continue
        num, den, bad = m.group(2, 3, 4)
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", m.start(4))
        if den == "":
            raise ParseError("expected denominator digits", m.end())
        try:
            value = (int(num), int(den) if den else 1)
        except ValueError:  # more digits than int() converts
            raise ParseError("number has too many digits", m.start(2)) from None
        if not value[1]:
            raise ParseError("zero denominator", m.start(2))
        tokens.append((value, m.start(2)))
    tokens.append((None, len(text)))
    return tokens


def pairs_plain(r, make, what: str):
    """`[(r,r),...]` read token by token from the reader r: make(the four
    columns of its (numerator, denominator) pairs); its DomainError is a
    ParseError."""
    r.expect("[")
    column = r.column
    items = []
    while r.peek() != "]":
        if items:
            r.expect(",")
        r.expect("(")
        jump = r.ratio()
        r.expect(",")
        level = r.ratio()
        r.expect(")")
        items.append((jump, level))
    r.take()
    # the four columns: jump numerators and denominators, level numerators
    # and denominators
    columns = [[j[0] for j, _ in items], [j[1] for j, _ in items], [a[0] for _, a in items], [a[1] for _, a in items]]
    try:
        return make(columns)
    except DomainError as exc:
        raise ParseError(f"invalid {what}: {exc}", column) from exc


@contextmanager
def plain_reader():
    """Within the block every reader of the package lexes with `lex_plain`
    and reads ratio-pair bodies with `pairs_plain`."""
    saved = axis._lex, axis._Reader.pairs
    axis._lex, axis._Reader.pairs = lex_plain, pairs_plain
    try:
        yield
    finally:
        axis._lex, axis._Reader.pairs = saved


def read_outcome(parse, text):
    """("value", parse(text)) or ("error", type, message, position)."""
    try:
        return ("value", parse(text))
    except (ValueError, ArithmeticError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "position", None))


# ---------------------------------------------------------------------------
# the plain law checker: every quintuple looped over, nothing decided once


def homs_plain(q) -> dict:
    """Every diagonal hom-set of the finite table q, in element order, by
    the generic divisibility test."""
    def divides(p, d):
        return ValueQuantale.divides(q, p, d)
    return {(p, r): tuple(d for d in q.elements if divides(p, d) and divides(r, d))
            for p in q.elements for r in q.elements}


def join_table_plain(leq) -> dict:
    """Least upper bound under leq, a dict of rows of bools, of each pair:
    the one common upper bound below all the others, or None."""
    def least(ks):
        found = [u for u in ks if all(leq[u][v] for v in ks)]
        return found[0] if len(found) == 1 else None
    return {a: {b: least([k for k in leq if leq[a][k] and leq[b][k]]) for b in leq} for a in leq}


def quantaloid_laws_plain(q, homs: dict) -> QuantaloidReport:
    """`values.quantaloid_laws` as its loops stood before each arrow and
    product was memoised: the same checks, messages and order."""
    violations: list[str] = []
    join_gaps: list[str] = []
    els = tuple(dict.fromkeys(p for p, _ in homs))
    composites = cache(q.composites)

    def member(p, r, d) -> bool:
        return d in homs[p, r] or (ValueQuantale.divides(q, p, d) and ValueQuantale.divides(q, r, d))

    for p in els:
        if not member(p, p, p):
            violations.append(f"identity {p} is not a diagonal on itself")
    for (p, r), hom in homs.items():
        for d in hom:
            for s in els:
                for ee in homs[r, s]:
                    left, right = composites(r, ee, d)
                    if left != right:
                        violations.append(
                            f"composition formulas disagree for d={d}:{p}->{r}, "
                            f"e={ee}:{r}->{s}: {left} vs {right}"
                        )
                    if not member(p, s, left):
                        violations.append(
                            f"composite {left} of d={d}:{p}->{r}, e={ee}:{r}->{s} "
                            f"escapes hom({p},{s})"
                        )
    for (p, r), hom in homs.items():
        for d in hom:
            if composites(p, d, p)[0] != d:
                violations.append(f"identity {p} not neutral below {d}:{p}->{r}")
            if composites(r, r, d)[0] != d:
                violations.append(f"identity {r} not neutral above {d}:{p}->{r}")
    for (p, r), hom in homs.items():
        for s in els:
            for t_ in els:
                for d in hom:
                    for ee in homs[r, s]:
                        for g in homs[s, t_]:
                            if (composites(s, g, composites(r, ee, d)[0])[0]
                                    != composites(r, composites(s, g, ee)[0], d)[0]):
                                violations.append(
                                    f"composition not associative at "
                                    f"({d},{ee},{g}) over ({p},{r},{s},{t_})"
                                )
    bot = q.bottom
    for (r, s), hom in homs.items():
        for ee in hom:
            if composites(r, ee, bot)[0] != bot:
                violations.append(f"composition with bottom not bottom for e={ee}:{r}->{s}")
    for (p, r), hom in homs.items():
        if not member(p, r, bot):
            violations.append(f"bottom missing from hom({p},{r})")
        for i1, d1 in enumerate(hom):
            for d2 in hom[i1 + 1:]:
                jl = q.join(d1, d2)
                if not member(p, r, jl):
                    join_gaps.append(
                        f"join {jl} of diagonals {d1},{d2} in hom({p},{r}) is not a diagonal"
                    )
                    continue
                for s in els:
                    for ee in homs[r, s]:
                        cj = composites(r, ee, jl)[0]
                        c1 = composites(r, ee, d1)[0]
                        c2 = composites(r, ee, d2)[0]
                        if cj != q.join(c1, c2):
                            violations.append(
                                f"composition does not preserve join of {d1},{d2} "
                                f"in hom({p},{r}) under e={ee}:{r}->{s}"
                            )
    return QuantaloidReport(not violations, tuple(violations), tuple(join_gaps))


def validate_quantale_plain(q) -> QuantaleReport:
    """`finiteq.validate_quantale` as its loops stood on rows keyed by
    label, before the index rows and masks: the same checks, messages and
    order, with joins, meets and both ends taken from `join_table_plain`
    over the public `leq` and `mult` fields."""
    problems: list[str] = []
    els = q.elements
    leq = {a: dict(zip(els, row)) for a, row in zip(els, q.leq)}
    geq = {a: {b: leq[b][a] for b in els} for a in els}
    mult = {a: dict(zip(els, row)) for a, row in zip(els, q.mult)}
    joins, meets = join_table_plain(leq), join_table_plain(geq)
    ends = [[u for u in els if all(rel[u].values())] for rel in (leq, geq)]
    bot, top = (e[0] if len(e) == 1 else None for e in ends)
    for a in els:
        if not leq[a][a]:
            problems.append(f"order not reflexive at {a}")
    for a in els:
        for b in els:
            if a != b and leq[a][b] and leq[b][a]:
                problems.append(f"order not antisymmetric at ({a},{b})")
            for c in els:
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    problems.append(f"order not transitive at ({a},{b},{c})")
    if top is None:
        problems.append("no greatest element")
    if bot is None:
        problems.append("no least element")
    for a in els:
        for b in els:
            if joins[a][b] is None:
                problems.append(f"join of ({a},{b}) missing")
            if meets[a][b] is None:
                problems.append(f"meet of ({a},{b}) missing")
    if problems:
        return QuantaleReport(False, tuple(problems))
    for a in els:
        for b in els:
            if mult[a][b] != mult[b][a]:
                problems.append(f"multiplication not commutative at ({a},{b})")
            for c in els:
                if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
                    problems.append(f"multiplication not associative at ({a},{b},{c})")
    for a in els:
        if mult[a][q.unit] != a:
            problems.append(f"unit law fails at {a}")
    if q.unit != top:
        problems.append("unit is not the top element (quantale not integral)")
    for a in els:
        times = mult[a]
        if times[bot] != bot:
            problems.append(f"bottom not absorbed at {a}")
        for b in els:
            for c in els:
                if times[joins[b][c]] != joins[times[b]][times[c]]:
                    problems.append(
                        f"multiplication does not distribute over join at ({a},{b},{c})"
                    )
    return QuantaleReport(not problems, tuple(problems))
