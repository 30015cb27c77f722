"""Brute-force laboratory for finite commutative integral quantales.

Everything here is exhaustive: lattice structure, quantale axioms,
residuation and diagonal hom-sets are enumerated over the (small) carrier.
A table is one of the three instances of `values.ValueQuantale`, so
divisibility, the composite formulas and the one quantaloid-law and downset
checker are those of the staircase and numeric tracks; here the checker
gets every hom-set, and table lookup makes it an oracle independent of the
staircase machinery.

A table has one working representation by element index, built once
from `leq` and `mult`: the product as rows of indices, the order as one
up-set and one down-set bitmask per element.  A join or meet is the least
element of the AND of two masks (None where there is none), found once
per distinct mask.  Every check runs on these; labels appear only at the
edges: the protocol's parts, `joins`, `meets`, `homs` and every message.
Each divisibility is decided once per table; a hom-set is the AND of its
endpoints' masks of multiples, members in element order, as are the
violations the law check reports.  `join`, `bottom`, `finite` and
`residuate` raise ValueError ("validate first") on a table that is not a
lattice, and so do the law and downset checks before they look anything
up; `residuate` also raises it where no r has a * r <= b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from pathlib import Path

from .axis import format_scalar
from .errors import _rows_of, read_json
from .values import DownsetReport, QuantaloidReport, ValueQuantale
from .values import downset_equality, quantaloid_laws


@dataclass(frozen=True)
class FiniteQuantale(ValueQuantale):
    """Carrier with an order table, a multiplication table, and a unit.

    `leq[i][j]` says element i is below element j; `mult[i][j]` is the label
    of the product.  Construction enforces the shapes and labels and builds
    the index rows and masks; `validate_quantale` checks the axioms and
    reports rather than raises.  `index` is each label's position; every
    public member takes and returns labels; `implies` residuates each pair
    once.
    """

    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    mult: tuple[tuple[str, ...], ...]
    unit: str
    text = staticmethod(str)

    def __post_init__(self):
        elements = tuple(map(str, self.elements))
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("duplicate element labels")
        if not elements:
            raise ValueError("empty carrier")
        n = len(elements)
        leq = tuple(tuple(map(bool, row)) for row in self.leq)
        mult = tuple(tuple(map(str, row)) for row in self.mult)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ValueError("leq table must be n x n")
        if len(mult) != n or any(len(row) != n for row in mult):
            raise ValueError("mult table must be n x n")
        try:
            times = tuple(tuple(map(index.__getitem__, row)) for row in mult)
        except KeyError:
            raise ValueError("mult table contains unknown labels") from None
        if self.unit not in index:
            raise ValueError(f"unit {self.unit!r} is not an element")
        # the working representation: _ups[i] has bit j where i <= j,
        # _downs[i] bit j where j <= i, _times[i][j] indexes i * j, and
        # _joined, _met and _ends index the joins, the meets and the least
        # and greatest element, None where one is missing
        bits = [1 << j for j in range(n)]
        ups, downs = (tuple(sum(compress(bits, row)) for row in rows) for rows in (leq, zip(*leq)))
        vars(self).update(elements=elements, leq=leq, mult=mult, index=index, _times=times,
                          _ups=ups, _downs=downs, _joined=_join_table(ups),
                          _met=_join_table(downs), _implied={},
                          _ends=(_least(ups, (1 << n) - 1), _least(downs, (1 << n) - 1)))

    def compose(self, a: str, b: str) -> str:
        return self.mult[self.index[a]][self.index[b]]

    def implies(self, a: str, b: str) -> str:
        memo = self._implied
        if (a, b) not in memo:
            memo[a, b] = residuate(self, a, b)
        return memo[a, b]

    def divides(self, p: str, d: str) -> bool:
        return self._multiples[self.index[p]] >> self.index[d] & 1 == 1

    @cached_property
    def _multiples(self) -> tuple[int, ...]:
        """The mask of the values divisible by each element, each pair
        decided once."""
        els = self.elements
        return tuple(sum(1 << k for k, d in enumerate(els) if ValueQuantale.divides(self, p, d))
                     for p in els)

    def below(self, a: str, b: str) -> bool:
        return self._ups[self.index[a]] >> self.index[b] & 1 == 1

    def join(self, a: str, b: str) -> str:
        return _lattice(self.joins[a][b])

    @cached_property
    def bottom(self) -> str:
        return self.elements[_lattice(self._ends[0])]

    def finite(self, a: str) -> bool:
        """Whether a is not the bottom element."""
        return a != self.bottom

    @cached_property
    def joins(self) -> dict[str, dict[str, str | None]]:
        """Join of each pair, None where it is missing."""
        return _labelled(self.elements, self._joined)

    @cached_property
    def meets(self) -> dict[str, dict[str, str | None]]:
        """Meet of each pair: the join in the reversed order."""
        return _labelled(self.elements, self._met)

    @cached_property
    def homs(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """Every diagonal hom-set, computed once, members in element order."""
        els, multiples = self.elements, self._multiples
        ands = {(p, r): m & m2 for p, m in zip(els, multiples) for r, m2 in zip(els, multiples)}
        members = {m: tuple(e for k, e in enumerate(els) if m >> k & 1) for m in set(ands.values())}
        return {pair: members[m] for pair, m in ands.items()}


def _least(ups, mask: int) -> int | None:
    """The one member of mask below every member, under the order whose
    up-set masks are ups, or None."""
    least = [u for u, up in enumerate(ups) if mask >> u & 1 and up & mask == mask]
    return least[0] if len(least) == 1 else None


def _join_table(ups) -> tuple[tuple[int | None, ...], ...]:
    """Least upper bound of each pair under the order whose up-set masks are
    ups, None where it is missing: found once per distinct mask of bounds."""
    least = {m: _least(ups, m) for m in {u & v for u in ups for v in ups}}
    return tuple(tuple(least[u & v] for v in ups) for u in ups)


def _labelled(els, table) -> dict[str, dict[str, str | None]]:
    """An index table as rows keyed by label, None kept."""
    return {a: {b: None if x is None else els[x] for b, x in zip(els, row)}
            for a, row in zip(els, table)}


def _lattice(x):
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
    els, ups, times, joined, met = q.elements, q._ups, q._times, q._joined, q._met
    r = range(len(els))
    problems += [f"order not reflexive at {els[a]}" for a in r if not ups[a] >> a & 1]
    for a in r:
        for b in r:
            if ups[a] >> b & 1:
                if a != b and ups[b] >> a & 1:
                    problems.append(f"order not antisymmetric at ({els[a]},{els[b]})")
                beyond = ups[b] & ~ups[a]  # the c with b <= c but not a <= c
                if beyond:
                    problems += [f"order not transitive at ({els[a]},{els[b]},{els[c]})"
                                 for c in r if beyond >> c & 1]
    bot, top = q._ends
    if top is None:
        problems.append("no greatest element")
    if bot is None:
        problems.append("no least element")
    for a in r:
        for b in r:
            if joined[a][b] is None:
                problems.append(f"join of ({els[a]},{els[b]}) missing")
            if met[a][b] is None:
                problems.append(f"meet of ({els[a]},{els[b]}) missing")
    if problems:
        # Without a lattice the remaining axioms are not well-posed.
        return QuantaleReport(False, tuple(problems))
    # rows of products compared whole; each c named only where they differ
    for a in r:
        row = times[a]
        for b in r:
            if row[b] != times[b][a]:
                problems.append(f"multiplication not commutative at ({els[a]},{els[b]})")
            after, before = times[row[b]], tuple(map(row.__getitem__, times[b]))
            if after != before:
                problems += [f"multiplication not associative at ({els[a]},{els[b]},{els[c]})"
                             for c in r if after[c] != before[c]]
    unit = q.index[q.unit]
    problems += [f"unit law fails at {els[a]}" for a in r if times[a][unit] != a]
    if unit != top:
        problems.append("unit is not the top element (quantale not integral)")
    for a in r:
        row = times[a]
        if row[bot] != bot:
            problems.append(f"bottom not absorbed at {els[a]}")
        for b in r:
            left = tuple(map(row.__getitem__, joined[b]))  # a * (b v c) for every c
            right = tuple(map(joined[row[b]].__getitem__, row))  # (a * b) v (a * c)
            if left != right:
                problems += [f"multiplication does not distribute over join at "
                             f"({els[a]},{els[b]},{els[c]})" for c in r if left[c] != right[c]]
    return QuantaleReport(not problems, tuple(problems))


def residuate(q: FiniteQuantale, a: str, b: str) -> str:
    """Largest r with a * r <= b: a's row of products scanned against b's
    down set, its candidates joined in order on the index join table.  No
    candidate, or candidates without a join, raise ValueError."""
    index, joined = q.index, q._joined
    down, join = q._downs[index[b]], None
    for r, x in enumerate(q._times[index[a]]):
        if down >> x & 1:
            join = r if join is None else _lattice(joined[join][r])
    if join is None:
        raise ValueError(f"no r has {a} * r <= {b}; validate first")
    return q.elements[join]


def _require_lattice(q: FiniteQuantale) -> None:
    """Raise residuate's ValueError unless the table has a bottom and every
    join and meet."""
    if q._ends[0] is None or any(None in row for row in (*q._joined, *q._met)):
        raise ValueError("carrier is not a lattice; validate first")


@dataclass(frozen=True)
class DiagonalHomset:
    source: str
    target: str
    members: frozenset[str]


def diag_homset(q: FiniteQuantale, p: str, r: str) -> DiagonalHomset:
    """All d divisible by both endpoints: (p -> d) * p = d = (r -> d) * r."""
    return DiagonalHomset(p, r, frozenset(q.homs[p, r]))


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
    return FiniteQuantale(elements, leq, mult, unit)


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
