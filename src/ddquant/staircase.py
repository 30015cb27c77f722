"""Distance distributions as canonical finite staircases.

A distance distribution is a monotone map phi: [0, inf] -> [0, 1] with
phi(0) = 0 that is determined from below, phi(t) = sup_{s<t} phi(s).  Every
such map with finitely many values is a finite join of one-step functions
and is stored canonically by its (jump, level) steps, with jumps and
levels both strictly increasing and levels positive: the function is 0 on
[0, jump_1], level_i on (jump_i, jump_{i+1}], and level_n on (jump_n, inf].
No steps is the bottom distribution (constant 0).

A `Staircase` holds integers: jump numerators over one denominator and
level numerators over another, each image reduced, so equal functions have
equal state.  Equality, hashing, `leq`, printing and the construction
checks in `__post_init__`, which every constructor runs, work on them;
`steps`, `jumps` and `levels` are `Fraction` views built when first read.
Every constructor ends in one helper, `_built`, which fills a new object
and runs `__post_init__`.  `Staircase(steps)` and the `steps[...]` reader
share one image builder, `_from_ratios`, which takes the four int columns
of the reader's body lexeme (jump numerators, jump denominators, level
numerators, level denominators, as spelled) and rescales each column with
one factor per distinct denominator.  `envelope`, `join_all`, `meet_all`,
`bracket` and the Python-int kernels build their results in one canonical
sweep over integer candidates, `_from_candidates`; the numpy kernels do
the same sweep on their arrays (`quantale._swept`).

`MonotoneStep` drops the normalisation: it represents an arbitrary monotone
step map, with explicit values at breakpoints, on the open cells between
them, and at infinity.  It exists so that the regularisation operator
(largest distribution below a monotone map) and its interaction with
convolution are testable, including maps that jump at infinity.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import lt, mul
from typing import Iterable, Sequence

from .axis import INF, ONE, ZERO, Time, _as_rational, _columns, _Reader, ensure_time, ensure_unit
from .axis import format_ratio, is_infinite
from .errors import DomainError

Step = tuple[Fraction, Fraction]


def _ratios(points: Iterable[Step]) -> list[list[int]]:
    """(jump, level) pairs of ints or Fractions as the four columns of
    their numerators and denominators, as `_Reader.pairs` gives them."""
    pts = [(_as_rational(p), _as_rational(a)) for p, a in points]
    return _columns([((p.numerator, p.denominator), (a.numerator, a.denominator)) for p, a in pts])


def _over(nums: Sequence[int], dens: Sequence[int]) -> tuple[int, Sequence[int]]:
    """(d, images): the ratios nums[k] / dens[k] as integers over d, the lcm
    of the denominators, one factor per distinct denominator."""
    distinct = set(dens)
    d = lcm(*distinct)
    if len(distinct) < 2:
        return d, nums
    factor = {e: d // e for e in distinct}.__getitem__
    return d, list(map(mul, nums, map(factor, dens)))


def _from_ratios(columns: Sequence[Sequence[int]], sc: Staircase | None = None) -> Staircase:
    """The staircase of the four columns of `_Reader.pairs` (jump
    numerators, jump denominators, level numerators, level denominators);
    it fills sc when given."""
    jn, jdn, ln, ldn = columns
    jd, js = _over(jn, jdn)
    ld, ls = _over(ln, ldn)
    return _built(jd, ld, js, ls, sc)


def _built(jd: int, ld: int, js: Sequence[int], ls: Sequence[int], sc: Staircase | None = None) -> Staircase:
    """The staircase with jumps js over jd and levels ls over ld, reduced and
    checked by `__post_init__`; it fills sc when given."""
    sc = Staircase.__new__(Staircase) if sc is None else sc
    vars(sc).update(jd=jd, ld=ld, js=js, ls=ls)
    sc.__post_init__()
    return sc


@dataclass(frozen=True, init=False)
class Staircase:
    """A canonical staircase: jump k is js[k] / jd and level k is ls[k] / ld.

    `Staircase(steps)` takes (jump, level) pairs of ints or Fractions,
    `_from_ratios` the four columns of numerators and denominators and
    `_from_candidates` integer images; all end in `__post_init__`, which
    divides an image by its gcd only when that is above 1, and hashes once.
    """

    jd: int
    ld: int
    js: tuple[int, ...]
    ls: tuple[int, ...]

    def __init__(self, steps: Iterable[Step] = ()):
        _from_ratios(_ratios(steps), self)

    def __post_init__(self):
        """Reduce both images and check the staircase conditions on them."""
        jd, js = _reduced(self.jd, self.js)
        ld, ls = _reduced(self.ld, self.ls)
        # a rising column has its min and max at its ends
        js_rise, ls_rise = all(map(lt, js, js[1:])), all(map(lt, ls, ls[1:]))
        if js and (js[0] if js_rise else min(js)) < 0:
            raise DomainError(f"negative jump {Fraction(min(js), jd)}")
        if ls:
            low, high = (ls[0], ls[-1]) if ls_rise else (min(ls), max(ls))
            if not 0 < low <= high <= ld:
                raise DomainError(f"level {Fraction(low if low <= 0 else high, ld)} outside (0, 1]")
        if not js_rise:
            raise DomainError("jumps must be strictly increasing")
        if not ls_rise:
            raise DomainError("levels must be strictly increasing")
        vars(self).update(jd=jd, ld=ld, js=js, ls=ls, _hash=hash((jd, ld, js, ls)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def jumps(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.jd) for j in self.js)

    @cached_property
    def levels(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.ld) for a in self.ls)

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        return tuple(zip(self.jumps, self.levels))

    @property
    def last_level(self) -> Fraction:
        """The value at infinity."""
        return Fraction(self.ls[-1], self.ld) if self.ls else ZERO

    def __call__(self, t: Time) -> Fraction:
        # INF lies above every jump, so it needs no case of its own
        idx = bisect_left(self.jumps, ensure_time(t))  # jumps strictly below t
        return self.levels[idx - 1] if idx else ZERO

    def value_after(self, t: Fraction) -> Fraction:
        """The constant value taken just above the finite time t."""
        idx = bisect_right(self.jumps, ensure_time(t))  # jumps at or below t
        return self.levels[idx - 1] if idx else ZERO

    def leq(self, other: "Staircase") -> bool:
        return self._first_above(other) is None

    def _first_above(self, other: "Staircase") -> tuple[int, int] | None:
        """(i, k) for the first step i of self above other, where k counts
        the jumps of other at or below p_i: on the cell (p_i, p_{i+1}] other
        is least just after p_i.  None when self <= other."""
        _, _, ((js, ls), (jo, lo)) = _common((self, other))
        for i, (p, a) in enumerate(zip(js, ls)):
            k = bisect_right(jo, p)  # steps of other at or below p
            if not k or lo[k - 1] < a:
                return i, k
        return None

    def join(self, other: "Staircase") -> "Staircase":
        return join_all((self, other))

    def meet(self, other: "Staircase") -> "Staircase":
        return meet_all((self, other))

    def flat(self, a: Fraction) -> Time:
        """Flat adjoint: the largest p with self(p) <= a (inf if none exceed a)."""
        idx = bisect_right(self.levels, ensure_unit(a))  # least level above a
        if idx == len(self.levels):
            return INF
        return self.jumps[idx]

    def __str__(self) -> str:
        return format_staircase(self)


def _reduced(d: int, nums: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """d and nums divided by their gcd, nums as a tuple."""
    g = gcd(d, *nums)
    if g == 1:
        return d, tuple(nums)
    return d // g, tuple(map(g.__rfloordiv__, nums))


BOTTOM = Staircase()
TOP = Staircase(((ZERO, ONE),))


def one_step(p: Time, a) -> Staircase:
    """The function that is 0 on [0, p] and a on (p, inf].

    An infinite jump is rejected: with p = inf the value a would never be
    attained and the function collapses to bottom, so such inputs are a
    modelling error rather than a distribution.
    """
    if is_infinite(p):
        raise DomainError("one-step jump must be finite")
    p = ensure_time(p)
    a = _as_rational(a)
    if not ZERO <= a <= ONE:
        raise DomainError(f"level {a} outside [0, 1]")
    if a == ZERO:
        return BOTTOM
    return Staircase(((p, a),))


def _common(items: Sequence[Staircase], ld: int = 1) -> tuple[int, int, list]:
    """(jd, ld, images): each staircase's (jump, level) numerators as two
    lists over jd and ld, the lcms of their denominators and of ld."""
    jd = lcm(*[sc.jd for sc in items])
    ld = lcm(ld, *[sc.ld for sc in items])
    images = []
    for sc in items:
        fj, fl = jd // sc.jd, ld // sc.ld
        js = sc.js if fj == 1 else list(map(fj.__mul__, sc.js))
        images.append((js, sc.ls if fl == 1 else list(map(fl.__mul__, sc.ls))))
    return jd, ld, images


def _from_candidates(cands: Iterable[tuple[int, int]], jd: int, ld: int) -> Staircase:
    """Canonical staircase of integer (jump, level) candidates sorted by
    jump, jumps over jd and levels over ld: one sweep keeps each candidate
    above the running maximum, the highest one at an equal jump."""
    js: list[int] = []
    ls: list[int] = []
    top = 0
    for p, a in cands:
        if a <= top:
            continue
        top = a
        if js and js[-1] == p:
            ls[-1] = a
        else:
            js.append(p)
            ls.append(a)
    return _built(jd, ld, js, ls)


def envelope(points: Iterable[Step]) -> Staircase:
    """Join of one-step functions: upper envelope of (jump, level) pairs."""
    jn, jdn, ln, ldn = _ratios(points)
    (jd, js), (ld, ls) = _over(jn, jdn), _over(ln, ldn)
    return _from_candidates(sorted(zip(js, ls)), jd, ld)


def join_all(items: Iterable[Staircase]) -> Staircase:
    """Pointwise maximum of finitely many staircases (empty join is bottom):
    the envelope of their pooled steps, rescaled to common denominators."""
    jd, ld, images = _common(list(items))
    pts = sorted(pt for js, ls in images for pt in zip(js, ls))
    return _from_candidates(pts, jd, ld)


def meet_all(items: Iterable[Staircase]) -> Staircase:
    """Pointwise minimum of finitely many staircases (empty meet is top).

    Each staircase is the meet of its final level (as a constant) with the
    "co-steps" (p_j, a_{j-1}): the function equal to a_{j-1} on [0, p_j] and
    1 above.  `_meet_costeps` meets the pooled co-steps of the whole family
    in one sweep.
    """
    items = list(items)
    if not items:
        return TOP
    jd, ld, images = _common(items)
    cap, costeps = ld, []
    for js, ls in images:
        costeps += zip(js, (0, *ls))
        cap = min(cap, ls[-1] if ls else 0)
    return _meet_costeps(costeps, cap, jd, ld)


def _meet_costeps(costeps: list[tuple[int, int]], cap: int, jd: int, ld: int) -> Staircase:
    """Meet of the constant cap with the co-steps (q, v), each v on [0, q]
    and 1 above; positions over jd, values over ld.  Walking down the
    positions, the meet just after q is cap met with every co-step at a
    position above q (suffix minima)."""
    costeps.sort(reverse=True)
    pts: list[tuple[int, int]] = []
    run = cap
    for q, v in costeps:
        pts.append((q, run))
        run = min(run, v)
    pts.append((0, run))
    pts.reverse()
    return _from_candidates(pts, jd, ld)


def format_staircase(sc: Staircase) -> str:
    """The canonical `steps[(p,a),...]` text, printed from the integer images."""
    jd, ld = sc.jd, sc.ld
    body = ",".join(f"({format_ratio(p, jd)},{format_ratio(a, ld)})" for p, a in zip(sc.js, sc.ls))
    return f"steps[{body}]"


def parse_staircase(text: str) -> Staircase:
    """Parse the canonical `steps[(p,a),...]` form (inverse of format)."""
    r = _Reader(text)
    r.expect("steps")
    return r.end(_read_steps(r))


def _read_steps(r: _Reader) -> Staircase:
    """The `[(p,a),...]` body of a staircase literal."""
    return r.pairs(_from_ratios, "staircase")


@dataclass(frozen=True)
class MonotoneStep:
    """A monotone step map [0, inf] -> [0, 1] without normalisation.

    `point_values[k]` is the value at `breakpoints[k]`, `cell_values[k]` the
    constant value on the open interval up to the next breakpoint (or inf),
    and `infinity_value` the value at infinity itself.  The first breakpoint
    is always 0.  Redundant breakpoints are merged on construction, so equal
    functions compare equal.
    """

    breakpoints: tuple[Fraction, ...]
    point_values: tuple[Fraction, ...]
    cell_values: tuple[Fraction, ...]
    infinity_value: Fraction | None = None

    def __post_init__(self):
        bps = tuple(_as_rational(b) for b in self.breakpoints)
        pvs = tuple(_as_rational(v) for v in self.point_values)
        cvs = tuple(_as_rational(v) for v in self.cell_values)
        if not bps or bps[0] != ZERO:
            raise DomainError("breakpoints must start at 0")
        if not (len(bps) == len(pvs) == len(cvs)):
            raise DomainError("breakpoints and value tuples must have equal length")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        inf_v = cvs[-1] if self.infinity_value is None else _as_rational(self.infinity_value)
        chain = [v for pair in zip(pvs, cvs) for v in pair] + [inf_v]
        if any(not ZERO <= v <= ONE for v in chain):
            raise DomainError("values must lie in [0, 1]")
        if any(v2 < v1 for v1, v2 in zip(chain, chain[1:])):
            raise DomainError("values must be monotone along the axis")
        # Canonical form: drop breakpoints the function passes through flatly.
        keep = [0] + [k for k in range(1, len(bps)) if not pvs[k] == cvs[k - 1] == cvs[k]]
        for name, values in (("breakpoints", bps), ("point_values", pvs), ("cell_values", cvs)):
            object.__setattr__(self, name, tuple(values[k] for k in keep))
        object.__setattr__(self, "infinity_value", inf_v)

    @classmethod
    def from_staircase(cls, sc: Staircase) -> "MonotoneStep":
        bps = sorted({ZERO, *sc.jumps})
        return cls(bps, [sc(b) for b in bps], [sc.value_after(b) for b in bps], sc.last_level)

    @classmethod
    def constant(cls, v) -> "MonotoneStep":
        v = _as_rational(v)
        return cls((ZERO,), (v,), (v,), v)

    def __call__(self, t: Time) -> Fraction:
        t = ensure_time(t)
        if is_infinite(t):
            return self.infinity_value
        idx = bisect_right(self.breakpoints, t) - 1
        if self.breakpoints[idx] == t:
            return self.point_values[idx]
        return self.cell_values[idx]

    def regularize(self) -> Staircase:
        """Largest distribution below this map: t |-> sup_{s<t} self(s).

        Just above breakpoint b_k the supremum over [0, t) already includes
        the open cell after b_k, so the result is the envelope of the
        (breakpoint, cell value) pairs.  The value at infinity is discarded.
        """
        return envelope(zip(self.breakpoints, self.cell_values))
