"""Validators and constructions for metric-like structures on finite sets.

A (partial) metric on a finite point set is a matrix of distances valued
in a quantale (`values.ValueQuantale`), and every axiom is written once
against it.  Two tracks are instances:

  numeric     entries in [0, inf], composition is addition (0 on top)
  staircase   entries are staircases, composition is convolution

A metric (`met`, `probmet`) asks

  M1  every self-distance is the unit (0, resp. the top staircase);
  M2  compose(d(j,k), d(i,j)) lies below d(i,k).

A partial metric (`parmet`, `probparmet`) asks

  PM1 each entry is a diagonal between the self-distances of its ends:
      d(i,j) = compose(p, p -> d(i,j)) for p = d(i,i) and p = d(j,j);
  PM2 compose(d(j,k), d(j,j) -> d(i,j)) lies below d(i,k).

In the staircase track these are ProbM1, ProbM2, ProbPM1 and ProbPM2.
On [0, inf] PM1 says the self-distances are at most the entry, because
[0, inf] is divisible; for staircases it is stronger than lying below
both self-distances.  Validators are exhaustive over the point set and
report violations with point labels and canonical text.  The n^3
triangle checks (M2, PM2) go to the value quantale as one batch of two
n x n matrices, d and the discounts (`compose_below_all`), which
answers in (i, j, k) order, and a composite is built only for a
violation.  Each distinct piece of work is done once: an instance
parses each distinct entry text once, to one value; the PM1 residual
of d(i,j) by an endpoint self-distance and the PM2 discount
d(j,j) -> d(i,j) are each taken once per distinct value pair; and the
staircase batch decides each triangle once per key ({phi, psi}, xi),
convolution being commutative.  The numeric track prints its comparisons
in the ordinary numeric order of [0, inf], the reverse of its quantale
order; its residuation is `plus_implies`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import product
from pathlib import Path

from .axis import Time, ensure_time, format_scalar, parse_scalar, plus_implies, time_add
from .errors import ParseError, PreconditionError, _rows_of, read_json
from .staircase import Staircase, parse_staircase
from .tnorms import TNorm, format_tnorm, parse_tnorm
from .values import NUMERIC, Staircases


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance, both sides in canonical text.

    M1 and PM1 are equations.  For M1, `left` is the self-distance and
    `right` the unit.  For PM1, `left` is the residual compose(p, p -> d)
    of the entry d by the first endpoint self-distance p that changes it,
    and `right` is the entry.  M2 and PM2 demand left <= right in the
    printed order: numeric order in the numeric track (left the entry,
    right the composite), pointwise order for staircases (left the
    composite, right the entry).
    """

    axiom: str
    points: tuple[str, ...]
    left: str
    right: str

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "points": list(self.points),
            "left": self.left,
            "right": self.right,
        }


@dataclass(frozen=True)
class Report:
    kind: str
    ok: bool
    violations: tuple[Violation, ...]
    flags: tuple[tuple[str, bool], ...] = ()

    def flag(self, name: str) -> bool:
        for key, value in self.flags:
            if key == name:
                return value
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "flags": {k: v for k, v in self.flags},
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class _Instance:
    """Finite point set with a square distance matrix.

    A track sets `track` (the prefix of its kinds and axioms), `values`
    (its value quantale) and `_entry` (the check of one entry).
    """

    points: tuple[str, ...]
    dist: tuple[tuple, ...]

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        if len(set(points)) != len(points):
            raise ValueError("duplicate point labels")
        n = len(points)
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix must be square over the points")
        dist = tuple(tuple(self._entry(v) for v in row) for row in self.dist)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", dist)

    def entry(self, i: int, j: int):
        return self.dist[i][j]

    @property
    def size(self) -> int:
        return len(self.points)

    def _header(self) -> dict:
        """Fields of the instance file besides `points` and `dist`."""
        return {}


@dataclass(frozen=True)
class ParMetInstance(_Instance):
    """Finite point set with a numeric distance matrix."""

    track = ""
    values = NUMERIC
    _entry = staticmethod(ensure_time)


@dataclass(frozen=True)
class ProbParMetInstance(_Instance):
    """Finite point set with a staircase distance matrix and a t-norm."""

    tnorm: TNorm
    track = "Prob"

    @property
    def values(self) -> Staircases:
        return Staircases(self.tnorm)

    @staticmethod
    def _entry(v) -> Staircase:
        if not isinstance(v, Staircase):
            raise ValueError("entries must be staircases")
        return v

    def _header(self) -> dict:
        return {"tnorm": format_tnorm(self.tnorm)}


@dataclass(frozen=True)
class SlicedMetInstance:
    """A metric matrix together with an anchor time for each point.

    The anchor must be nonexpanding: moving from x to y costs at least the
    growth of the anchor, base(x,y) >= max(0, anchor(y) - anchor(x)).
    """

    base: ParMetInstance
    anchor: tuple[Time, ...]

    def __post_init__(self):
        anchor = tuple(ensure_time(v) for v in self.anchor)
        if len(anchor) != self.base.size:
            raise ValueError("one anchor per point required")
        object.__setattr__(self, "anchor", anchor)


# ---------------------------------------------------------------------------
# validators

def _flags(m: _Instance, vanishing: bool) -> tuple[tuple[str, bool], ...]:
    """`separated` fails on distinct i, j with d(i,j) = d(j,i) equal to
    both self-distances or, when `vanishing`, to the unit."""
    q, d = m.values, m.dist
    pairs = [(i, j) for i in range(m.size) for j in range(m.size)]

    def alike(i, j):
        a, b = (q.unit, q.unit) if vanishing else (d[i][i], d[j][j])
        return d[i][j] == d[j][i] == a == b

    return (
        ("finitary", all(q.finite(v) for row in d for v in row)),
        ("separated", not any(i != j and alike(i, j) for i, j in pairs)),
        ("symmetric", all(d[i][j] == d[j][i] for i, j in pairs)),
    )


def _validate(m: _Instance, partial: bool, vanishing: bool = False) -> Report:
    """The metric (M1, M2) or partial metric (PM1, PM2) axioms of m.

    The PM1 residual is taken once per value pair (d(i,j), d(end,end)) and
    the PM2 discount once per value pair (d(j,j), d(i,j)), so values must
    be hashable, as those of every value quantale are."""
    q, d, pts, n = m.values, m.dist, m.points, m.size
    axiom = m.track + ("PM" if partial else "M")
    violations: list[Violation] = []
    if not partial:
        violations += [
            Violation(axiom + "1", (pts[i],), q.text(d[i][i]), q.text(q.unit))
            for i in range(n)
            if d[i][i] != q.unit
        ]
    else:
        residual = cache(q.residual)
        for i in range(n):
            for j in range(n):
                for end in dict.fromkeys((i, j)):  # once on the diagonal
                    fixed = residual(d[i][j], d[end][end])
                    if fixed != d[i][j]:
                        violations.append(
                            Violation(
                                axiom + "1", (pts[i], pts[j]), q.text(fixed), q.text(d[i][j])
                            )
                        )
                        break
    # the discount d(j,j) -> d(i,j) is shared by every k
    discount = cache(q.implies)
    via = [[discount(d[j][j], e) for j, e in enumerate(row)] for row in d] if partial else d
    verdicts = q.compose_below_all(d, via)
    for (i, j, k), ok in zip(product(range(n), repeat=3), verdicts):
        if not ok:
            composite = q.compose(d[j][k], via[i][j])
            sides = (d[i][k], composite) if q.descending else (composite, d[i][k])
            violations.append(
                Violation(axiom + "2", (pts[i], pts[j], pts[k]), *map(q.text, sides))
            )
    kind = m.track.lower() + ("parmet" if partial else "met")
    return Report(kind, not violations, tuple(violations), _flags(m, vanishing))


def validate_met(m: ParMetInstance) -> Report:
    """Self-distances must vanish; distances compose along intermediate
    points.  Here `separated` is about vanishing distance, not equal
    self-distances."""
    return _validate(m, partial=False, vanishing=True)


def validate_parmet(m: ParMetInstance) -> Report:
    """Entries are diagonals between their endpoint self-distances;
    composition discounts the self-distance of the intermediate point."""
    return _validate(m, partial=True)


def validate_probmet(m: ProbParMetInstance) -> Report:
    """Self-distances must be the top staircase; convolutions of distances
    along intermediate points stay below the direct distance."""
    return _validate(m, partial=False)


def validate_probparmet(m: ProbParMetInstance) -> Report:
    """Entries are divisible by both endpoint self-distances; convolution
    discounts the self-distance of the intermediate point."""
    return _validate(m, partial=True)


def validate_slice(s: SlicedMetInstance) -> Report:
    base_report = validate_met(s.base)
    violations = list(base_report.violations)
    n = s.base.size
    for i in range(n):
        for j in range(n):
            need = plus_implies(s.anchor[i], s.anchor[j])
            if not need <= s.base.entry(i, j):
                violations.append(
                    Violation(
                        "anchor",
                        (s.base.points[i], s.base.points[j]),
                        format_scalar(need),
                        format_scalar(s.base.entry(i, j)),
                    )
                )
    return Report("slice", not violations, tuple(violations), base_report.flags)


# ---------------------------------------------------------------------------
# globalization, coreflection, slices

def _require_valid(report: Report) -> None:
    if not report.ok:
        first = report.violations[0]
        raise PreconditionError(
            f"input fails {first.axiom} at ({', '.join(first.points)}): "
            f"{first.left} vs {first.right}"
        )


def _discount(m: _Instance, by_source: bool) -> _Instance:
    """Residuate every d(i,j) by the self-distance of i, or else of j."""
    _require_valid(_validate(m, partial=True))
    q, d, n = m.values, m.dist, m.size
    dist = tuple(
        tuple(q.implies(d[i][i] if by_source else d[j][j], d[i][j]) for j in range(n))
        for i in range(n)
    )
    return replace(m, dist=dist)


def globalize_forward(m: ParMetInstance | ProbParMetInstance):
    """Discount every distance by the self-distance of its source point."""
    return _discount(m, by_source=True)


def globalize_backward(m: ParMetInstance | ProbParMetInstance):
    """Discount every distance by the self-distance of its target point."""
    return _discount(m, by_source=False)


def coreflect(m: ParMetInstance | ProbParMetInstance):
    """Restrict to the points whose self-distance is the unit."""
    unit = m.values.unit
    keep = [i for i in range(m.size) if m.entry(i, i) == unit]
    points = tuple(m.points[i] for i in keep)
    return replace(m, points=points, dist=tuple(tuple(m.dist[i][j] for j in keep) for i in keep))


def parmet_to_slice(m: ParMetInstance) -> SlicedMetInstance:
    """Split a valid instance into its self-distances and the discounted rest."""
    anchor = tuple(m.entry(i, i) for i in range(m.size))
    return SlicedMetInstance(globalize_forward(m), anchor)


def slice_to_parmet(s: SlicedMetInstance) -> ParMetInstance:
    """Rebuild distances by charging each point its anchor up front."""
    _require_valid(validate_slice(s))
    n = s.base.size
    dist = tuple(
        tuple(time_add(s.anchor[i], s.base.entry(i, j)) for j in range(n))
        for i in range(n)
    )
    return ParMetInstance(s.base.points, dist)


# ---------------------------------------------------------------------------
# serialisation

def instance_to_dict(m: ParMetInstance | ProbParMetInstance) -> dict:
    q = m.values
    return {
        "points": list(m.points),
        **m._header(),
        "dist": [[q.text(v) for v in row] for row in m.dist],
    }


def instance_from_dict(data: dict) -> ParMetInstance | ProbParMetInstance:
    """Decode an instance; the presence of a t-norm selects the staircase track.

    The shape is checked first: an object whose `points` is a list of
    strings, whose `dist` is a list of rows of strings, and whose optional
    `tnorm` is a string.  Any other shape raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("instance must be a JSON object")
    try:
        points = data["points"]
        rows = data["dist"]
    except KeyError as exc:
        raise ValueError(f"missing field in instance: {exc}") from exc
    if not (isinstance(points, list) and all(isinstance(p, str) for p in points)):
        raise ValueError("instance field 'points' must be a list of strings")
    if not _rows_of(rows, lambda v: isinstance(v, str)):
        raise ValueError("instance field 'dist' must be a list of rows of strings")
    points = tuple(points)
    if "tnorm" in data:
        if not isinstance(data["tnorm"], str):
            raise ValueError("instance field 'tnorm' must be a string")
        t = _parsed(parse_tnorm, data["tnorm"], "tnorm")
        return ProbParMetInstance(points, _parsed_rows(rows, points, parse_staircase), t)
    return ParMetInstance(points, _parsed_rows(rows, points, parse_scalar))


def _parsed(parse, text: str, where: str):
    """parse(text); a ParseError names `where` the text sits."""
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parsed_rows(rows: list, points: tuple, parse) -> tuple[tuple, ...]:
    """Each entry parsed, each distinct text once, so equal texts give one
    object; an error names the first entry with the text and, if they
    exist, its points."""

    def where(i: int, j: int) -> str:
        ends = f" ({points[i]}, {points[j]})" if max(i, j) < len(points) else ""
        return f"dist[{i}][{j}]{ends}"

    parsed: dict[str, object] = {}

    def entry(i: int, j: int, text: str):
        if text not in parsed:
            parsed[text] = _parsed(parse, text, where(i, j))
        return parsed[text]

    return tuple(tuple(entry(i, j, v) for j, v in enumerate(row)) for i, row in enumerate(rows))


# Most points `load_instance` accepts: the triangle checks grow as n^3.  At
# the cap, random 10-step entries under prod validate in 1.5-3 s.
_MAX_POINTS = 32


def load_instance(path: str | Path) -> ParMetInstance | ProbParMetInstance:
    m = instance_from_dict(read_json(path))
    if m.size > _MAX_POINTS:
        raise ValueError(f"instance has {m.size} points; the checks are capped at {_MAX_POINTS}")
    return m
