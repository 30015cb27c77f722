"""Distance distributions as canonical finite staircases.

A distance distribution is a monotone map phi: [0, inf] -> [0, 1] with
phi(0) = 0 that is determined from below, phi(t) = sup_{s<t} phi(s).  Every
such map with finitely many values is a finite join of one-step functions
and is stored canonically as a tuple of (jump, level) pairs with jumps and
levels both strictly increasing and levels positive: the function is 0 on
[0, jump_1], level_i on (jump_i, jump_{i+1}], and level_n on (jump_n, inf].
The empty tuple is the bottom distribution (constant 0).  Equality of step
tuples is equality of functions.

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
from typing import Iterable, Sequence

from .axis import INF, ONE, ZERO, Time, _Reader, ensure_time, format_scalar, is_infinite
from .errors import DomainError

Step = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Staircase:
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        # Fractions are immutable, so exact Fraction instances are kept as
        # they are; anything else, subclasses included, is converted.
        steps = tuple(
            (
                p if type(p) is Fraction else Fraction(p),
                a if type(a) is Fraction else Fraction(a),
            )
            for p, a in self.steps
        )
        object.__setattr__(self, "steps", steps)
        prev_p, prev_a = None, ZERO
        for p, a in steps:
            if p < 0:
                raise DomainError(f"negative jump {p}")
            if not ZERO < a <= ONE:
                raise DomainError(f"level {a} outside (0, 1]")
            if prev_p is not None and p <= prev_p:
                raise DomainError("jumps must be strictly increasing")
            if a <= prev_a:
                raise DomainError("levels must be strictly increasing")
            prev_p, prev_a = p, a

    @cached_property
    def jumps(self) -> tuple[Fraction, ...]:
        return tuple(p for p, _ in self.steps)

    @cached_property
    def levels(self) -> tuple[Fraction, ...]:
        return tuple(a for _, a in self.steps)

    @property
    def last_level(self) -> Fraction:
        """The value at infinity."""
        return self.levels[-1] if self.steps else ZERO

    def __call__(self, t: Time) -> Fraction:
        if is_infinite(t):
            return self.last_level
        idx = bisect_left(self.jumps, t)  # number of jumps strictly below t
        return self.levels[idx - 1] if idx else ZERO

    def value_after(self, t: Fraction) -> Fraction:
        """The constant value taken just above the finite time t."""
        idx = bisect_right(self.jumps, t)  # number of jumps at or below t
        return self.levels[idx - 1] if idx else ZERO

    def leq(self, other: "Staircase") -> bool:
        # On each cell (p_i, p_{i+1}] this function equals a_i while the
        # other attains its infimum just above p_i.
        return all(other.value_after(p) >= a for p, a in self.steps)

    def join(self, other: "Staircase") -> "Staircase":
        return envelope(self.steps + other.steps)

    def meet(self, other: "Staircase") -> "Staircase":
        return meet_all((self, other))

    def flat(self, a: Fraction) -> Time:
        """Flat adjoint: the largest p with self(p) <= a (inf if none exceed a)."""
        idx = bisect_right(self.levels, a)  # index of least level above a
        if idx == len(self.levels):
            return INF
        return self.jumps[idx]

    def __str__(self) -> str:
        return format_staircase(self)


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
    a = Fraction(a)
    if not ZERO <= a <= ONE:
        raise DomainError(f"level {a} outside [0, 1]")
    if a == ZERO:
        return BOTTOM
    return Staircase(((p, a),))


def envelope(points: Iterable[Step]) -> Staircase:
    """Join of one-step functions: upper envelope of (jump, level) pairs."""
    pts = sorted((p, a) for p, a in points if a > 0)
    out: list[Step] = []
    for p, a in pts:
        if out:
            if a <= out[-1][1]:
                continue
            if p == out[-1][0]:
                out[-1] = (p, a)
                continue
        out.append((p, a))
    return Staircase(tuple(out))


def join_all(items: Sequence[Staircase]) -> Staircase:
    pts: list[Step] = []
    for sc in items:
        pts.extend(sc.steps)
    return envelope(pts)


def meet_all(items: Sequence[Staircase]) -> Staircase:
    """Pointwise minimum of finitely many staircases (empty meet is top).

    Each staircase is the meet of its final level (as a constant) with the
    "co-steps" (p_j, a_{j-1}): the function equal to a_{j-1} on [0, p_j] and
    1 above.  Pooling all co-steps and taking suffix minima over increasing
    jump positions computes the meet of the whole family in one sweep.
    """
    items = list(items)
    if not items:
        return TOP
    if any(not sc.steps for sc in items):
        return BOTTOM
    cap = min(sc.last_level for sc in items)
    costeps: dict[Fraction, Fraction] = {}
    for sc in items:
        prev = ZERO
        for p, a in sc.steps:
            if p not in costeps or prev < costeps[p]:
                costeps[p] = prev
            prev = a
    positions = sorted(costeps)
    # suffix[k] = min of co-step values at positions k.. end
    suffix = [ZERO] * len(positions)
    running = None
    for k in range(len(positions) - 1, -1, -1):
        v = costeps[positions[k]]
        running = v if running is None else min(running, v)
        suffix[k] = running
    pts = []
    for k, p in enumerate(positions):
        after = suffix[k + 1] if k + 1 < len(positions) else ONE
        pts.append((p, min(cap, after)))
    return envelope(pts)


def format_staircase(sc: Staircase) -> str:
    body = ",".join(f"({format_scalar(p)},{format_scalar(a)})" for p, a in sc.steps)
    return f"steps[{body}]"


def parse_staircase(text: str) -> Staircase:
    """Parse the canonical `steps[(p,a),...]` form (inverse of format)."""
    r = _Reader(text)
    r.expect("steps")
    return r.end(_read_steps(r))


def _read_steps(r: _Reader) -> Staircase:
    """The `[(p,a),...]` body of a staircase literal."""
    return r.tuples(Staircase, "staircase", r.rational, r.rational)


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
        bps = tuple(Fraction(b) for b in self.breakpoints)
        pvs = tuple(Fraction(v) for v in self.point_values)
        cvs = tuple(Fraction(v) for v in self.cell_values)
        if not bps or bps[0] != ZERO:
            raise DomainError("breakpoints must start at 0")
        if not (len(bps) == len(pvs) == len(cvs)):
            raise DomainError("breakpoints and value tuples must have equal length")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        inf_v = cvs[-1] if self.infinity_value is None else Fraction(self.infinity_value)
        chain: list[Fraction] = []
        for pv, cv in zip(pvs, cvs):
            chain.extend((pv, cv))
        chain.append(inf_v)
        if any(not ZERO <= v <= ONE for v in chain):
            raise DomainError("values must lie in [0, 1]")
        if any(v2 < v1 for v1, v2 in zip(chain, chain[1:])):
            raise DomainError("values must be monotone along the axis")
        # Canonical form: drop breakpoints the function passes through flatly.
        keep_b = [bps[0]]
        keep_p = [pvs[0]]
        keep_c = [cvs[0]]
        for k in range(1, len(bps)):
            if pvs[k] == keep_c[-1] == cvs[k]:
                continue
            keep_b.append(bps[k])
            keep_p.append(pvs[k])
            keep_c.append(cvs[k])
        object.__setattr__(self, "breakpoints", tuple(keep_b))
        object.__setattr__(self, "point_values", tuple(keep_p))
        object.__setattr__(self, "cell_values", tuple(keep_c))
        object.__setattr__(self, "infinity_value", inf_v)

    @classmethod
    def from_staircase(cls, sc: Staircase) -> "MonotoneStep":
        if not sc.steps:
            return cls((ZERO,), (ZERO,), (ZERO,))
        bps: list[Fraction] = [ZERO]
        pvs: list[Fraction] = [ZERO]
        prev = ZERO
        for p, a in sc.steps:
            if p != ZERO:
                bps.append(p)
                pvs.append(prev)  # left continuity: value at the jump is the old level
            prev = a
        cvs = [sc.value_after(b) for b in bps]
        return cls(tuple(bps), tuple(pvs), tuple(cvs), sc.last_level)

    @classmethod
    def constant(cls, v) -> "MonotoneStep":
        v = Fraction(v)
        return cls((ZERO,), (v,), (v,), v)

    def __call__(self, t: Time) -> Fraction:
        if is_infinite(t):
            return self.infinity_value
        if t < 0:
            raise DomainError("negative time")
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
