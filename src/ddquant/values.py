"""Value quantales: what distances take values in.

A (partial) metric is a category enriched in a commutative integral
quantale.  The validators, globalization, divisibility and diagonal
composition are written once against this protocol of eight parts:

    unit            the top element: a point's distance to itself in a metric
    bottom          the least element
    compose(a, b)   the multiplication
    implies(a, b)   its residuation: the largest r with compose(a, r) below b
    join(a, b)      the least upper bound
    below(a, b)     the order; `descending` is true when the printed
                    (numeric) order of the values is its reverse
    text(a)         canonical text
    finite(a)       whether a counts as a finite distance

There are three instances: `NUMERIC`, [0, inf] under addition with 0 on
top; `Staircases(t)`, staircases under the convolution of the t-norm t;
and `finiteq.FiniteQuantale`, a finite table.

Divisibility is the diagonal condition: d is divisible by p when
d = compose(p, implies(p, d)).  It matches the down set of p only in a
divisible quantale such as [0, inf], or below a one-step staircase, where
`Staircases.residual` returns d at once.  Like `residual`,
`compose_below_all` is derived from the parts: whether
compose(d[j][k], via[i][j]) lies below d[i][k], for each (i, j, k) of
two n x n matrices d and via.  `Staircases` decides the batch without
the composites, in one numpy pass on one integer scale of all its
staircases (`quantale.convolve_below_all`).

Diagonals form a quantaloid: its morphisms p -> r are the values divisible
by both p and r.  One checker, `quantaloid_laws` and `downset_equality`,
serves all three instances.  It takes the hom-sets from its caller, all of
them for a table or samples for the others; what it builds counts as a
member of hom(p, r) when listed there or divisible by p and r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .axis import INF, ZERO, format_scalar, is_infinite, plus_implies, time_add
from .quantale import convolve, convolve_below_all, implication, residual
from .staircase import BOTTOM, TOP, join_all
from .tnorms import TNorm


class ValueQuantale:
    """Base of the instances; the generic constructions built from the parts."""

    descending = False

    def residual(self, d, p):
        """The largest multiple of p below d: compose(p, implies(p, d))."""
        return self.compose(p, self.implies(p, d))

    def compose_below_all(self, d, via) -> list[bool]:
        """Whether compose(d[j][k], via[i][j]) lies below d[i][k], for each
        (i, j, k) of the n x n matrices d and via, in product order."""
        n = len(d)
        return [
            self.below(self.compose(d[j][k], via[i][j]), d[i][k])
            for i, j, k in product(range(n), repeat=3)
        ]

    def divides(self, p, d) -> bool:
        """Whether d is divisible by p, that is, d is its own residual."""
        return self.residual(d, p) == d

    def composites(self, mid, e, d) -> tuple:
        """Both formulas for the composite of diagonals d (into mid) and e
        (out of mid): compose(mid -> e, d) and compose(e, mid -> d).  They
        agree when d and e are divisible by mid."""
        return (
            self.compose(self.implies(mid, e), d),
            self.compose(e, self.implies(mid, d)),
        )


class _Numeric(ValueQuantale):
    """[0, inf] under addition, ordered by >= so that 0 is the unit and top."""

    unit = ZERO
    bottom = INF
    descending = True
    compose = staticmethod(time_add)
    join = staticmethod(min)
    implies = staticmethod(plus_implies)
    text = staticmethod(format_scalar)

    @staticmethod
    def below(a, b) -> bool:
        return a >= b

    @staticmethod
    def finite(a) -> bool:
        return not is_infinite(a)


NUMERIC = _Numeric()


@dataclass(frozen=True)
class Staircases(ValueQuantale):
    """Staircases under the convolution of a t-norm; top is the unit."""

    tnorm: TNorm
    unit = TOP
    bottom = BOTTOM
    text = staticmethod(str)

    def compose(self, a, b):
        return convolve(self.tnorm, a, b)

    def join(self, a, b):
        return join_all((a, b))

    def implies(self, a, b):
        return implication(self.tnorm, a, b)

    def compose_below_all(self, d, via) -> list[bool]:
        return convolve_below_all(self.tnorm, d, via)

    def residual(self, d, p):
        return residual(self.tnorm, d, p)

    def below(self, a, b) -> bool:
        return a.leq(b)

    def finite(self, a) -> bool:
        """Whether the distance is finite almost surely: level 1 at infinity."""
        return bool(a.ls) and a.ls[-1] == a.ld


# ---------------------------------------------------------------------------
# the quantaloid of diagonals

@dataclass(frozen=True)
class QuantaloidReport:
    ok: bool
    violations: tuple[str, ...]
    # pairs whose hom-set is not closed under binary join, with the escaping join
    join_gaps: tuple[str, ...]


def quantaloid_laws(q: ValueQuantale, homs: dict) -> QuantaloidReport:
    """Check that diagonals compose like a category enriched in sup-lattices.

    `homs` maps every pair (p, r) of objects to its diagonals, in report
    order.  Checks: the two composition formulas agree; composites land in
    the right hom-set; composition is associative; the object itself is an
    identity; each hom-set holds bottom; composing with an arrow e: r -> s
    sends bottom to bottom, checked once per arrow; composition preserves
    binary joins of diagonals.  Joins are computed in the ambient quantale;
    pairs of diagonals whose join is not itself a diagonal are flagged, not
    failed.  Each composite, arrow and product is computed once.
    """
    violations: list[str] = []
    join_gaps: list[str] = []
    els = tuple(dict.fromkeys(p for p, _ in homs))
    # Memoised, not precomputed: where the laws fail, a composite can leave
    # hom(mid, mid) and still be composed further.  The composites are q's
    # formulas on a view of q that evaluates each arrow and product once.
    view = ValueQuantale()
    view.implies, view.compose = cache(q.implies), cache(q.compose)
    composites = cache(view.composites)
    hom_sets = {pair: frozenset(hom) for pair, hom in homs.items()}
    divides = cache(q.divides)

    # exact on a full hom-set; the divisibility test, once per pair, covers
    # sampled ones
    def member(p, r, d) -> bool:
        return d in hom_sets[p, r] or (divides(p, d) and divides(r, d))

    for p in els:
        if not member(p, p, p):
            violations.append(f"identity {p} is not a diagonal on itself")
    # composition: d in hom(p, r), e in hom(r, s)
    for (p, r), hom in homs.items():
        for d in hom:
            for s in els:
                hom_ps = hom_sets[p, s]
                for ee in homs[r, s]:
                    left, right = composites(r, ee, d)
                    if left != right:
                        violations.append(
                            f"composition formulas disagree for d={d}:{p}->{r}, "
                            f"e={ee}:{r}->{s}: {left} vs {right}"
                        )
                    if left not in hom_ps and not member(p, s, left):
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
    # associativity over composable triples: the composites depend on
    # (r, s, d, e, g) alone, so each is checked once, e . d and g . e are
    # taken outside the innermost loop, and p and t only name a failure
    into = {r: {d for p in els for d in homs[p, r]} for r in els}
    out_of = {s: {g for t_ in els for g in homs[s, t_]} for s in els}
    broken = {
        (r, s, d, ee, g)
        for r in els for s in els for ee in homs[r, s]
        for after in [[(d, composites(r, ee, d)[0]) for d in into[r]]]
        for g in out_of[s] for ge in [composites(s, g, ee)[0]] for d, ed in after
        if composites(s, g, ed)[0] != composites(r, ge, d)[0]
    }
    # the full loop, for its message order, only where a check failed
    for (p, r), hom in homs.items() if broken else ():
        for s in els:
            for t_ in els:
                for d in hom:
                    for ee in homs[r, s]:
                        for g in homs[s, t_]:
                            if (r, s, d, ee, g) in broken:
                                violations.append(
                                    f"composition not associative at "
                                    f"({d},{ee},{g}) over ({p},{r},{s},{t_})"
                                )
    # bottom preservation, once per arrow, then bottom and joins inside
    # hom-sets; whether composing keeps a join depends on (r, d1, d2)
    # alone, and p only names a failure
    bot = q.bottom
    for (r, s), hom in homs.items():
        for ee in hom:
            if composites(r, ee, bot)[0] != bot:
                violations.append(f"composition with bottom not bottom for e={ee}:{r}->{s}")

    @cache
    def unkept(r, d1, d2) -> list:
        jl = q.join(d1, d2)
        bad = {ee for ee in out_of[r] if composites(r, ee, jl)[0]
               != q.join(composites(r, ee, d1)[0], composites(r, ee, d2)[0])}
        return [(s, ee) for s in els for ee in homs[r, s] if ee in bad] if bad else []

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
                for s, ee in unkept(r, d1, d2):
                    violations.append(
                        f"composition does not preserve join of {d1},{d2} "
                        f"in hom({p},{r}) under e={ee}:{r}->{s}"
                    )
    return QuantaloidReport(not violations, tuple(violations), tuple(join_gaps))


@dataclass(frozen=True)
class DownsetReport:
    divisible: bool
    mismatched_pairs: tuple[tuple, ...]

    @property
    def equal_everywhere(self) -> bool:
        return not self.mismatched_pairs


def downset_equality(q: ValueQuantale, values, homs: dict) -> DownsetReport:
    """Compare each hom-set with the values below both its endpoints.

    In a divisible quantale the two agree for every pair; divisibility is
    checked over `values` (b below a implies compose(a, implies(a, b)) = b).
    """
    divisible = all(q.divides(a, b) for a in values for b in values if q.below(b, a))
    down = cache(lambda p: frozenset(d for d in values if q.below(d, p)))
    mismatches = tuple((p, r) for (p, r), hom in homs.items() if set(hom) != down(p) & down(r))
    return DownsetReport(divisible, mismatches)
