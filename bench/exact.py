"""Exact staircase arithmetic for the benchmark's constructions and oracles.

Nothing here imports ddquant.  Inputs with known answers are built with
this module, and the program's outputs are checked against it, so a fault
shared by the program and its checker would have to be written twice.

A staircase is a tuple of (jump, level) pairs of Fractions with jumps and
levels strictly increasing and levels in (0, 1]: the function is 0 on
[0, jump_1], level_i on (jump_i, jump_{i+1}] and the last level above the
last jump.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)
TOP = ((ZERO, ONE),)


class TNorm:
    """Ordinal sum of ('prod' | 'luk') pieces over minimum, from its text."""

    def __init__(self, text: str):
        self.text = text
        if text == "min":
            self.pieces = ()
        elif text == "prod":
            self.pieces = ((ZERO, ONE, "prod"),)
        elif text == "luk":
            self.pieces = ((ZERO, ONE, "luk"),)
        else:
            assert text.startswith("ordinal[(") and text.endswith(")]"), text
            self.pieces = tuple(
                (Fraction(lo), Fraction(hi), kind)
                for lo, hi, kind in (
                    chunk.split(",") for chunk in text[len("ordinal[("):-2].split("),(")
                )
            )

    def _piece(self, low: Fraction, high: Fraction):
        for lo, hi, kind in self.pieces:
            if lo <= low and high <= hi:
                return lo, hi, kind
        return None

    def apply(self, a: Fraction, b: Fraction) -> Fraction:
        low, high = (a, b) if a <= b else (b, a)
        piece = self._piece(low, high)
        if piece is None:
            return low
        lo, hi, kind = piece
        w = hi - lo
        u, v = (low - lo) / w, (high - lo) / w
        base = u * v if kind == "prod" else max(ZERO, u + v - 1)
        return lo + w * base

    def implies(self, a: Fraction, b: Fraction) -> Fraction:
        if a <= b:
            return ONE
        piece = self._piece(b, a)
        if piece is None:
            return b
        lo, hi, kind = piece
        w = hi - lo
        u, v = (a - lo) / w, (b - lo) / w
        base = v / u if kind == "prod" else ONE - u + v
        return lo + w * min(ONE, base)


def envelope(points) -> tuple:
    """Upper envelope of one-step functions given as (jump, level) pairs."""
    out: list = []
    for p, a in sorted(points):
        if a <= 0 or (out and a <= out[-1][1]):
            continue
        if out and out[-1][0] == p:
            out.pop()
        out.append((p, a))
    return tuple(out)


class Lookup:
    """Evaluation of a staircase at finite times."""

    def __init__(self, sc):
        self.sc = sc
        self.jumps = [p for p, _ in sc]

    def at(self, t) -> Fraction:
        """Left-continuous value: the level of the last jump below t."""
        k = bisect_left(self.jumps, t)
        return self.sc[k - 1][1] if k else ZERO

    def after(self, t) -> Fraction:
        """Value on the open cell just above t."""
        k = bisect_right(self.jumps, t)
        return self.sc[k - 1][1] if k else ZERO


def leq(a, b) -> bool:
    """Pointwise order: on each cell of a, b must already be as high."""
    lb = Lookup(b)
    return all(lb.after(p) >= lv for p, lv in a)


def fmt(sc) -> str:
    return "steps[" + ",".join(f"({p},{a})" for p, a in sc) + "]"


def parse(text: str) -> tuple:
    """Inverse of `fmt` for canonical output text."""
    assert text.startswith("steps[") and text.endswith("]"), text
    inner = text[len("steps["):-1]
    if not inner:
        return ()
    pairs = inner[1:-1].split("),(")
    return tuple(tuple(Fraction(x) for x in pair.split(",")) for pair in pairs)


def convolve(t: TNorm, a, b) -> tuple:
    """Sup-convolution: envelope of all pairwise one-step products.

    Jumps add as integers over their common denominator, and under min,
    prod and luk the levels combine as integers too.
    """
    if not a or not b:
        return ()
    jd = lcm(*(p.denominator for p, _ in a + b))
    ja = [p.numerator * (jd // p.denominator) for p, _ in a]
    jb = [p.numerator * (jd // p.denominator) for p, _ in b]
    if t.text in ("min", "prod", "luk"):
        ld = lcm(*(x.denominator for _, x in a + b))
        la = [x.numerator * (ld // x.denominator) for _, x in a]
        lb = [x.numerator * (ld // x.denominator) for _, x in b]
        op = {"min": min, "prod": mul, "luk": lambda u, v: max(0, u + v - ld)}[t.text]
        vden = ld * ld if t.text == "prod" else ld
    else:
        la, lb, op, vden = [x for _, x in a], [x for _, x in b], t.apply, 1
    best: dict = {}
    for p, u in zip(ja, la):
        for q, v in zip(jb, lb):
            w = op(u, v)
            if w > best.get(p + q, 0):
                best[p + q] = w
    out, top = [], 0
    for s in sorted(best):
        if best[s] > top:
            top = best[s]
            out.append((Fraction(s, jd), Fraction(top, vden)))
    return tuple(out)


def implication_after(t: TNorm, phi, xi_lookup: Lookup, s) -> Fraction:
    """Value of implication(phi, xi) on the open cell just above s >= 0.

    Each step (p, a) of phi allows at most a -> xi(p + s + 0), and the
    implication is the pointwise minimum of those bounds.
    """
    best = ONE
    for p, a in phi:
        v = t.implies(a, xi_lookup.after(p + s))
        if v < best:
            best = v
    return best


def implication(t: TNorm, phi, xi) -> tuple:
    """implication(phi, xi) as a staircase, cell by cell.

    Its value can only change where some p + s crosses a jump of xi.
    """
    lx = Lookup(xi)
    cuts = {ZERO} | {r - p for r, _ in xi for p, _ in phi if r > p}
    return envelope((s, implication_after(t, phi, lx, s)) for s in cuts)


def residual_after(t: TNorm, phi, xi, x) -> Fraction:
    """Value of convolve(phi, implication(phi, xi)) just above time x.

    Pointwise: the best phi-multiple below xi reaches, just above x, the
    largest a_i * imp(x - p_i + 0) over the steps (p_i, a_i) with p_i <= x.
    """
    lx = Lookup(xi)
    best = ZERO
    for p, a in phi:
        if p > x:
            break
        v = t.apply(a, implication_after(t, phi, lx, x - p))
        if v > best:
            best = v
    return best


def linear_value(knots, t) -> Fraction:
    """Value of the piecewise linear map through `knots` at finite t."""
    if t >= knots[-1][0]:
        return knots[-1][1]
    for (t1, v1), (t2, v2) in zip(knots, knots[1:]):
        if t1 <= t <= t2:
            return v1 + (v2 - v1) * (t - t1) / (t2 - t1)
    raise ValueError(t)


def bracket(knots, n: int):
    """Staircases below and above a piecewise linear map, n cells a segment."""
    lower, upper = [], []
    for (t1, _), (t2, _) in zip(knots, knots[1:]):
        width = (t2 - t1) / n
        for j in range(n):
            left = t1 + j * width
            lower.append((left, linear_value(knots, left)))
            upper.append((left, linear_value(knots, left + width)))
    lower.append(knots[-1])
    upper.append(knots[-1])
    return envelope(lower), envelope(upper)


def certified_upper_at(t: TNorm, knots, xi, n: int, w) -> Fraction:
    """Upper bound at time w > 0 of the best multiple of the linear map below xi.

    The lower bracket goes into the antecedent of the implication (which is
    antitone there) and the upper bracket into the convolution.  Within one
    cell of xi the tightest antecedent bound comes from the highest lower
    step that lands in the cell, so each evaluation costs |xi| bisections.
    """
    lower, upper = bracket(knots, n)
    ljumps = [p for p, _ in lower]
    cells = [(None, ZERO)] + list(xi)  # (left end, value) of each cell of xi
    ends = [p for p, _ in xi] + [None]  # right end of each cell
    best = ZERO
    for u, b in upper:
        if u >= w:
            break
        s = w - u
        imp = ONE
        for (left, level), right in zip(cells, ends):
            # lower steps with left < p + s <= right see xi at this level
            j = len(ljumps) - 1 if right is None else bisect_right(ljumps, right - s) - 1
            if j >= 0 and (left is None or ljumps[j] > left - s):
                v = t.implies(lower[j][1], level)
                if v < imp:
                    imp = v
        v = t.apply(b, imp)
        if v > best:
            best = v
    return best
