"""Brute-force laboratory for finite commutative integral quantales.

Everything here is exhaustive: lattice structure, quantale axioms,
residuation and diagonal hom-sets are enumerated over the (small) carrier.
A table is one of the three instances of `values.ValueQuantale`, so
divisibility, the composite formulas and the one quantaloid-law and downset
checker are those of the staircase and numeric tracks; here the checker
gets every hom-set, and table lookup makes it an oracle independent of the
staircase machinery.

A table has one working representation: its order, reversed order and
product as rows keyed by label, built once from the `leq` and `mult`
fields.  Joins, meets, top and bottom are labels computed from those rows,
None where one is missing, and every check reads them and names elements
by label.  Each divisibility is decided once per table, and a hom-set is
the meet of the two endpoints' sets of multiples.  Hom-set members, and so
the violations the law check reports, come in element order.  `join`,
`bottom`, `finite` and `residuate` raise ValueError ("validate first") on
a table that is not a lattice, and so do the law and downset checks before
they look anything up; `residuate` also raises it where no r has
a * r <= b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from pathlib import Path

from .axis import format_scalar
from .errors import _rows_of, read_json
from .values import DownsetReport, QuantaloidReport, ValueQuantale
from .values import downset_equality, quantaloid_laws


@dataclass(frozen=True)
class FiniteQuantale(ValueQuantale):
    """Carrier with an order table, a multiplication table, and a unit.

    `leq[i][j]` says element i is below element j; `mult[i][j]` is the label
    of the product.  Structural well-formedness (shapes, labels) is enforced
    at construction, which also keys the rows by label; the mathematical
    axioms are checked by `validate_quantale`, which reports rather than
    raises.  Beyond these two fields and `index`, the position of each
    label, every member works on labels; `implies` residuates each pair once.
    """

    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    mult: tuple[tuple[str, ...], ...]
    unit: str
    text = staticmethod(str)

    def __post_init__(self):
        elements = tuple(str(e) for e in self.elements)
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element labels")
        if not elements:
            raise ValueError("empty carrier")
        n = len(elements)
        leq = tuple(tuple(bool(v) for v in row) for row in self.leq)
        mult = tuple(tuple(str(v) for v in row) for row in self.mult)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ValueError("leq table must be n x n")
        if len(mult) != n or any(len(row) != n for row in mult):
            raise ValueError("mult table must be n x n")
        labels = set(elements)
        if any(v not in labels for row in mult for v in row):
            raise ValueError("mult table contains unknown labels")
        if self.unit not in labels:
            raise ValueError(f"unit {self.unit!r} is not an element")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "mult", mult)
        # the working representation: rows keyed by label, _leq[a][b] is a <= b
        for name, table in (("_leq", leq), ("_geq", zip(*leq)), ("_mult", mult)):
            rows = {a: dict(zip(elements, row)) for a, row in zip(elements, table)}
            object.__setattr__(self, name, rows)

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def compose(self, a: str, b: str) -> str:
        return self._mult[a][b]

    def implies(self, a: str, b: str) -> str:
        memo = self._implied
        if (a, b) not in memo:
            memo[a, b] = residuate(self, a, b)
        return memo[a, b]

    @cached_property
    def _implied(self) -> dict[tuple[str, str], str]:
        return {}

    def divides(self, p: str, d: str) -> bool:
        return d in self._multiples[p]

    @cached_property
    def _multiples(self) -> dict[str, frozenset[str]]:
        """The values divisible by each element, each pair decided once."""
        els = self.elements
        return {p: frozenset(d for d in els if ValueQuantale.divides(self, p, d)) for p in els}

    def below(self, a: str, b: str) -> bool:
        return self._leq[a][b]

    def join(self, a: str, b: str) -> str:
        return _lattice(self.joins[a][b])

    @cached_property
    def bottom(self) -> str:
        return _lattice(self._ends[0])

    def finite(self, a: str) -> bool:
        """Whether a is not the bottom element."""
        return a != self.bottom

    @cached_property
    def joins(self) -> dict[str, dict[str, str | None]]:
        """Join of each pair, None where it is missing."""
        return _join_table(self._leq)

    @cached_property
    def meets(self) -> dict[str, dict[str, str | None]]:
        """Meet of each pair: the join in the reversed order."""
        return _join_table(self._geq)

    @cached_property
    def _ends(self) -> tuple[str | None, str | None]:
        """The least and the greatest element, None where one is missing."""
        return _least(self._leq, self.elements), _least(self._geq, self.elements)

    @cached_property
    def homs(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """Every diagonal hom-set, computed once, members in element order."""
        els, order = self.elements, self.index.__getitem__
        return {(p, r): tuple(sorted(diag_homset(self, p, r).members, key=order))
                for p in els for r in els}


def _least(leq, ks) -> str | None:
    """The one member of ks below every member under leq, or None."""
    least = [u for u in ks if all(map(leq[u].__getitem__, ks))]
    return least[0] if len(least) == 1 else None


def _join_table(leq) -> dict[str, dict[str, str | None]]:
    """Least upper bound under leq of each pair, None where it is missing:
    the least of their common upper bounds, found once per distinct set."""
    ups = {a: frozenset(k for k in leq if leq[a][k]) for a in leq}
    least = cache(lambda ks: _least(leq, ks))
    return {a: {b: least(ups[a] & ups[b]) for b in leq} for a in leq}


def _lattice(x: str | None) -> str:
    """x, or the validate-first ValueError where a lattice lacks it."""
    if x is None:
        raise ValueError("carrier is not a lattice; validate first")
    return x


@dataclass(frozen=True)
class QuantaleReport:
    ok: bool
    problems: tuple[str, ...]


def validate_quantale(q: FiniteQuantale) -> QuantaleReport:
    """Check that the tables describe a commutative integral quantale."""
    problems: list[str] = []
    els, leq, mult, joins = q.elements, q._leq, q._mult, q.joins
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
    bot, top = q._ends
    if top is None:
        problems.append("no greatest element")
    if bot is None:
        problems.append("no least element")
    for a in els:
        for b in els:
            if joins[a][b] is None:
                problems.append(f"join of ({a},{b}) missing")
            if q.meets[a][b] is None:
                problems.append(f"meet of ({a},{b}) missing")
    if problems:
        # Without a lattice the remaining axioms are not well-posed.
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


def residuate(q: FiniteQuantale, a: str, b: str) -> str:
    """Largest r with a * r <= b, by exhaustive join over the rows of the
    join table.  A table where no r qualifies, or whose candidates have no
    join, raises ValueError."""
    times, leq, joins = q._mult[a], q._leq, q.joins
    candidates = [r for r in q.elements if leq[times[r]][b]]
    if not candidates:
        raise ValueError(f"no r has {a} * r <= {b}; validate first")
    join = candidates[0]
    for r in candidates[1:]:
        join = _lattice(joins[join][r])
    return join


def _require_lattice(q: FiniteQuantale) -> None:
    """Raise residuate's ValueError unless the table has a bottom and every
    join and meet."""
    rows = (*q.joins.values(), *q.meets.values())
    if q._ends[0] is None or any(None in row.values() for row in rows):
        raise ValueError("carrier is not a lattice; validate first")


@dataclass(frozen=True)
class DiagonalHomset:
    source: str
    target: str
    members: frozenset[str]


def diag_homset(q: FiniteQuantale, p: str, r: str) -> DiagonalHomset:
    """All d divisible by both endpoints: (p -> d) * p = d = (r -> d) * r."""
    return DiagonalHomset(p, r, q._multiples[p] & q._multiples[r])


def verify_quantaloid_laws(q: FiniteQuantale) -> QuantaloidReport:
    """`values.quantaloid_laws` on every diagonal hom-set of the table."""
    _require_lattice(q)
    return quantaloid_laws(q, q.homs)


def check_downset_equality(q: FiniteQuantale) -> DownsetReport:
    """`values.downset_equality` over the whole carrier and every hom-set."""
    _require_lattice(q)
    return downset_equality(q, q.elements, q.homs)


# ---------------------------------------------------------------------------
# builders and serialisation

def _chain(labels: tuple[str, ...], times) -> FiniteQuantale:
    """Chain ordered by position, unit on top, with labels[times(i, j)] as
    the product of the i-th and j-th elements."""
    r = range(len(labels))
    leq = tuple(tuple(i <= j for j in r) for i in r)
    mult = tuple(tuple(labels[times(i, j)] for j in r) for i in r)
    return FiniteQuantale(tuple(labels), leq, mult, labels[-1])


def chain_with_min(labels: tuple[str, ...]) -> FiniteQuantale:
    """Chain ordered by position with meet as multiplication."""
    return _chain(labels, min)


def lukasiewicz_chain(n: int) -> FiniteQuantale:
    """n-element chain with i * j = max(0, i + j - (n - 1))."""
    if n < 2:
        raise ValueError("need at least two elements")
    labels = tuple(format_scalar(Fraction(i, n - 1)) for i in range(n))
    return _chain(labels, lambda i, j: max(0, i + j - (n - 1)))


def drastic_chain(labels: tuple[str, str, str, str] = ("0", "a", "b", "1")) -> FiniteQuantale:
    """Four-element chain with the drastic product: x * y = 0 unless one
    argument is the unit.  A valid quantale that is not divisible."""
    return _chain(labels, lambda i, j: j if i == 3 else i if j == 3 else 0)


def quantale_to_dict(q: FiniteQuantale) -> dict:
    return {
        "elements": list(q.elements),
        "leq": [[1 if v else 0 for v in row] for row in q.leq],
        "mult": [list(row) for row in q.mult],
        "unit": q.unit,
    }


def quantale_from_dict(data: dict) -> FiniteQuantale:
    """Decode a table.  The shape is checked first: an object whose
    `elements` is a list of strings, whose `leq` is a list of rows of 0/1,
    whose `mult` is a list of rows of strings and whose `unit` is a string.
    Any other shape raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("quantale table must be a JSON object")
    try:
        elements, leq, mult, unit = (data[k] for k in ("elements", "leq", "mult", "unit"))
    except KeyError as exc:
        raise ValueError(f"missing field in quantale table: {exc}") from exc
    if not (isinstance(elements, list) and all(isinstance(e, str) for e in elements)):
        raise ValueError("quantale field 'elements' must be a list of strings")
    if not _rows_of(leq, lambda v: isinstance(v, int) and v in (0, 1)):
        raise ValueError("quantale field 'leq' must be a list of rows of 0/1")
    if not _rows_of(mult, lambda v: isinstance(v, str)):
        raise ValueError("quantale field 'mult' must be a list of rows of strings")
    if not isinstance(unit, str):
        raise ValueError("quantale field 'unit' must be a string")
    return FiniteQuantale(
        tuple(elements),
        tuple(tuple(bool(v) for v in row) for row in leq),
        tuple(tuple(row) for row in mult),
        unit,
    )


# Largest carrier `load_quantale` accepts: the law checks are exhaustive.
_MAX_ELEMENTS = 8


def load_quantale(path: str | Path) -> FiniteQuantale:
    q = quantale_from_dict(read_json(path))
    if len(q.elements) > _MAX_ELEMENTS:
        raise ValueError(
            f"carrier has {len(q.elements)} elements; the exhaustive checks "
            f"are capped at {_MAX_ELEMENTS}"
        )
    return q
