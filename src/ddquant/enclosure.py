"""Certified staircase enclosures of piecewise linear distributions.

Continuous distributions that are piecewise linear cannot be represented as
staircases, but they can be bracketed between two staircases that agree
with the function at cell endpoints.  Pushing the bracket through monotone
(convolution) and antitone (implication antecedent) operations yields
rigorous two-sided bounds, and a one-sided bound suffices to certify that a
target is NOT divisible by the function.  Absence of a certificate at a
given resolution is inconclusive and is reported as such, never as a
divisibility claim.

A bracket takes the cell ends of each segment as t1 + j (t2 - t1) / n and
v1 + j (v2 - v1) / n, left values below and right values above, on
integers: times over n times the lcm of the knot time denominators and
values over n times that of the knot value denominators, where every cell
end is an integer.  A certificate is read off the first step of the target
above the upper bound, found by `Staircase.leq`'s scan.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .axis import ONE, ZERO, Time, _Reader, _as_rational, ensure_time, format_scalar, is_infinite
from .errors import DomainError
from .quantale import convolve, implication
from .staircase import Staircase, _from_candidates
from .tnorms import TNorm

Knot = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Monotone piecewise linear map [0, inf] -> [0, 1].

    Knots interpolate linearly; after the last knot the map is constant.
    The first knot must be (0, 0) so the map is a genuine distribution.
    """

    knots: tuple[Knot, ...]

    def __post_init__(self):
        knots = tuple((_as_rational(t), _as_rational(v)) for t, v in self.knots)
        object.__setattr__(self, "knots", knots)
        if not knots or knots[0] != (ZERO, ZERO):
            raise DomainError("first knot must be (0, 0)")
        for (t1, v1), (t2, v2) in zip(knots, knots[1:]):
            if t2 <= t1:
                raise DomainError("knot times must be strictly increasing")
            if v2 < v1:
                raise DomainError("knot values must be non-decreasing")
        if any(not ZERO <= v <= ONE for _, v in knots):
            raise DomainError("knot values must lie in [0, 1]")

    @property
    def times(self) -> tuple[Fraction, ...]:
        return tuple(t for t, _ in self.knots)

    @property
    def final_value(self) -> Fraction:
        return self.knots[-1][1]

    def __call__(self, t: Time) -> Fraction:
        t = ensure_time(t)
        if is_infinite(t):
            return self.final_value
        times = self.times
        if t >= times[-1]:
            return self.final_value
        idx = bisect_right(times, t) - 1
        t1, v1 = self.knots[idx]
        t2, v2 = self.knots[idx + 1]
        return v1 + (v2 - v1) * (t - t1) / (t2 - t1)

    def __str__(self) -> str:
        body = ",".join(f"({format_scalar(t)},{format_scalar(v)})" for t, v in self.knots)
        return f"linear[{body}]"


def parse_linear(text: str) -> PiecewiseLinear:
    """Parse the canonical `linear[(t,v),...]` form (inverse of str)."""
    r = _Reader(text)
    r.expect("linear")
    return r.end(_read_knots(r))


def _read_knots(r: _Reader) -> PiecewiseLinear:
    """The `[(t,v),...]` body of a piecewise-linear literal."""
    return r.pairs(
        lambda c: PiecewiseLinear(tuple(zip(map(Fraction, c[0], c[1]), map(Fraction, c[2], c[3])))),
        "piecewise-linear map",
    )


@dataclass(frozen=True)
class Enclosure:
    lower: Staircase
    upper: Staircase

    def __post_init__(self):
        if not self.lower.leq(self.upper):
            raise DomainError("enclosure lower bound must be below upper bound")


def bracket(f: PiecewiseLinear, n: int) -> Enclosure:
    """Two-sided staircase bracket with n cells per linear segment.

    On each left-open cell the lower staircase takes the value of f at the
    cell's left end and the upper staircase the value at its right end;
    monotonicity of f makes these pointwise bounds.  Zero-slope segments
    collapse, so staircase-shaped constants are bracketed exactly.
    """
    if n < 1:
        raise DomainError("resolution must be at least 1")
    td = lcm(*(t.denominator for t, _ in f.knots)) * n
    vd = lcm(*(v.denominator for _, v in f.knots)) * n
    knots = [(t.numerator * (td // t.denominator), v.numerator * (vd // v.denominator))
             for t, v in f.knots]
    lower, upper = [], []
    for (t1, v1), (t2, v2) in zip(knots, knots[1:]):
        ts, dv = range(t1, t2, (t2 - t1) // n), (v2 - v1) // n
        vs = range(v1, v2 + 1, dv) if dv else [v1] * (n + 1)
        lower += zip(ts, vs)
        upper += zip(ts, vs[1:])
    lower.append(knots[-1])  # the constant tail
    upper.append(knots[-1])
    return Enclosure(_from_candidates(lower, td, vd), _from_candidates(upper, td, vd))


def bound_convolve(t: TNorm, e1: Enclosure, e2: Enclosure) -> Enclosure:
    """Convolution is monotone in both arguments, so bounds convolve."""
    return Enclosure(
        convolve(t, e1.lower, e2.lower),
        convolve(t, e1.upper, e2.upper),
    )


def divisibility_upper_bound(
    t: TNorm, f: PiecewiseLinear, xi: Staircase, n: int
) -> Staircase:
    """A staircase above convolve(f, implication(f, xi)) at resolution n.

    The implication is antitone in its antecedent, so the lower bracket of
    f goes into the antecedent slot and the upper bracket into the
    convolution.
    """
    e = bracket(f, n)
    return convolve(t, e.upper, implication(t, e.lower, xi))


@dataclass(frozen=True)
class Certificate:
    """Proof that xi is not divisible by f: at `witness`, the certified
    upper bound of the best f-multiple below xi sits `gap` below xi."""

    witness: Fraction
    gap: Fraction


def certify_not_divisible(
    t: TNorm, f: PiecewiseLinear, xi: Staircase, n: int
) -> Certificate | None:
    """Try to certify non-divisibility of xi by f at resolution n.

    Returns the certificate with the smallest witness time, or None when
    resolution n is inconclusive.  A None result carries no information
    about divisibility.
    """
    upper = divisibility_upper_bound(t, f, xi, n)
    # The bound is monotone, so it first falls below xi just after a jump of xi.
    if (found := xi._first_above(upper)) is None:
        return None
    i, k = found
    # only the Fractions reported are built: xi's step i, the next jump of
    # xi and of the bound after it, and the bound's level there
    p = Fraction(xi.js[i], xi.jd)
    later = [Fraction(j, sc.jd) for sc, at in ((xi, i + 1), (upper, k)) for j in sc.js[at:at + 1]]
    witness = (p + min(later)) / 2 if later else p + 1
    below = Fraction(upper.ls[k - 1], upper.ld) if k else ZERO
    return Certificate(witness, Fraction(xi.ls[i], xi.ld) - below)
