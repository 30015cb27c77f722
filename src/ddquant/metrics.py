"""Validators and constructions for metric-like structures on finite sets.

Two value tracks share one vocabulary:

  numeric        entries in [0, inf], composition is addition
  probabilistic  entries are staircases, composition is convolution

Each track has a plain flavour (self-distances are the unit: 0, resp. the
top staircase) and a partial flavour (self-distances arbitrary, with the
usual compatibility axioms).  Validators are exhaustive over the finite
point set and report violations with point labels and both sides of the
failed axiom in canonical text.

Axioms in the numeric track are stated with the ordinary numeric <= of
[0, inf].  The underlying composition order is the reverse (0 on top), so
residuation is `plus_implies`; every comparison below is the numeric one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .axis import (
    ONE,
    ZERO,
    Time,
    ensure_time,
    format_scalar,
    is_infinite,
    parse_scalar,
    plus_implies,
    time_add,
)
from .errors import PreconditionError
from .quantale import convolve, implication, residual
from .staircase import TOP, Staircase, parse_staircase
from .tnorms import TNorm, format_tnorm, parse_tnorm


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance.

    `left` and `right` are canonical text for the two sides of the failed
    comparison, oriented so the axiom demands left <= right (numeric order
    in the numeric track, pointwise order for staircases).  For ProbPM1 the
    axiom is an equation: left is the computed residual, right the entry it
    should equal.
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
class ParMetInstance:
    """Finite point set with a numeric distance matrix."""

    points: tuple[str, ...]
    dist: tuple[tuple[Time, ...], ...]

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        if len(set(points)) != len(points):
            raise ValueError("duplicate point labels")
        n = len(points)
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix must be square over the points")
        dist = tuple(tuple(ensure_time(v) for v in row) for row in self.dist)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", dist)

    def entry(self, i: int, j: int) -> Time:
        return self.dist[i][j]

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ProbParMetInstance:
    """Finite point set with a staircase distance matrix and a t-norm."""

    points: tuple[str, ...]
    dist: tuple[tuple[Staircase, ...], ...]
    tnorm: TNorm

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        if len(set(points)) != len(points):
            raise ValueError("duplicate point labels")
        n = len(points)
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix must be square over the points")
        if any(not isinstance(v, Staircase) for row in self.dist for v in row):
            raise ValueError("entries must be staircases")
        dist = tuple(tuple(row) for row in self.dist)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", dist)

    def entry(self, i: int, j: int) -> Staircase:
        return self.dist[i][j]

    @property
    def size(self) -> int:
        return len(self.points)


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
# validators, numeric track

def _numeric_flags(m: ParMetInstance) -> tuple[tuple[str, bool], ...]:
    n = m.size
    symmetric = all(m.entry(i, j) == m.entry(j, i) for i in range(n) for j in range(n))
    finitary = all(not is_infinite(m.entry(i, j)) for i in range(n) for j in range(n))
    separated = True
    for i in range(n):
        for j in range(n):
            if i != j and (
                m.entry(i, j) == m.entry(j, i) == m.entry(i, i) == m.entry(j, j)
            ):
                separated = False
    return (("finitary", finitary), ("separated", separated), ("symmetric", symmetric))


def validate_met(m: ParMetInstance) -> Report:
    """Self-distances must vanish; distances compose along intermediate points."""
    violations: list[Violation] = []
    n = m.size
    for i in range(n):
        if m.entry(i, i) != ZERO:
            violations.append(
                Violation("M1", (m.points[i],), format_scalar(m.entry(i, i)), "0")
            )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bound = time_add(m.entry(j, k), m.entry(i, j))
                if not m.entry(i, k) <= bound:
                    violations.append(
                        Violation(
                            "M2",
                            (m.points[i], m.points[j], m.points[k]),
                            format_scalar(m.entry(i, k)),
                            format_scalar(bound),
                        )
                    )
    flags = _numeric_flags(m)
    # metric separatedness is about vanishing distance, not equal self-distances
    separated = all(
        not (m.entry(i, j) == m.entry(j, i) == ZERO)
        for i in range(n)
        for j in range(n)
        if i != j
    )
    flags = tuple(
        (k, separated if k == "separated" else v) for k, v in flags
    )
    return Report("met", not violations, tuple(violations), flags)


def validate_parmet(m: ParMetInstance) -> Report:
    """Self-distances sit below cross distances; composition discounts the
    self-distance of the intermediate point."""
    violations: list[Violation] = []
    n = m.size
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            self_max = max(m.entry(i, i), m.entry(j, j))
            if not self_max <= m.entry(i, j):
                violations.append(
                    Violation(
                        "PM1",
                        (m.points[i], m.points[j]),
                        format_scalar(self_max),
                        format_scalar(m.entry(i, j)),
                    )
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # numeric reading of ((j,j) -> (j,k)) + (i,j)
                bound = time_add(
                    plus_implies(m.entry(j, j), m.entry(j, k)), m.entry(i, j)
                )
                if not m.entry(i, k) <= bound:
                    violations.append(
                        Violation(
                            "PM2",
                            (m.points[i], m.points[j], m.points[k]),
                            format_scalar(m.entry(i, k)),
                            format_scalar(bound),
                        )
                    )
    return Report("parmet", not violations, tuple(violations), _numeric_flags(m))


# ---------------------------------------------------------------------------
# validators, probabilistic track

def _prob_flags(m: ProbParMetInstance) -> tuple[tuple[str, bool], ...]:
    n = m.size
    symmetric = all(m.entry(i, j) == m.entry(j, i) for i in range(n) for j in range(n))
    finitary = all(m.entry(i, j).last_level == ONE for i in range(n) for j in range(n))
    separated = True
    for i in range(n):
        for j in range(n):
            if i != j and (
                m.entry(i, j) == m.entry(j, i) == m.entry(i, i) == m.entry(j, j)
            ):
                separated = False
    return (("finitary", finitary), ("separated", separated), ("symmetric", symmetric))


def validate_probmet(m: ProbParMetInstance) -> Report:
    violations: list[Violation] = []
    n = m.size
    for i in range(n):
        if m.entry(i, i) != TOP:
            violations.append(
                Violation("ProbM1", (m.points[i],), str(m.entry(i, i)), str(TOP))
            )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                composed = convolve(m.tnorm, m.entry(j, k), m.entry(i, j))
                if not composed.leq(m.entry(i, k)):
                    violations.append(
                        Violation(
                            "ProbM2",
                            (m.points[i], m.points[j], m.points[k]),
                            str(composed),
                            str(m.entry(i, k)),
                        )
                    )
    return Report("probmet", not violations, tuple(violations), _prob_flags(m))


def validate_probparmet(m: ProbParMetInstance) -> Report:
    """Each entry must be a diagonal between its endpoint self-distances, and
    composition must discount the intermediate self-distance."""
    violations: list[Violation] = []
    n = m.size
    t = m.tnorm
    for i in range(n):
        for j in range(n):
            entry = m.entry(i, j)
            for end in (i, j):
                fixed = residual(t, entry, m.entry(end, end))
                if fixed != entry:
                    violations.append(
                        Violation(
                            "ProbPM1", (m.points[i], m.points[j]), str(fixed), str(entry)
                        )
                    )
                    break
    for i in range(n):
        for j in range(n):
            discounted = implication(t, m.entry(j, j), m.entry(i, j))
            for k in range(n):
                composed = convolve(t, m.entry(j, k), discounted)
                if not composed.leq(m.entry(i, k)):
                    violations.append(
                        Violation(
                            "ProbPM2",
                            (m.points[i], m.points[j], m.points[k]),
                            str(composed),
                            str(m.entry(i, k)),
                        )
                    )
    return Report("probparmet", not violations, tuple(violations), _prob_flags(m))


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


def globalize_forward(m: ParMetInstance | ProbParMetInstance):
    """Discount every distance by the self-distance of its source point."""
    if isinstance(m, ParMetInstance):
        _require_valid(validate_parmet(m))
        n = m.size
        dist = tuple(
            tuple(plus_implies(m.entry(i, i), m.entry(i, j)) for j in range(n))
            for i in range(n)
        )
        return ParMetInstance(m.points, dist)
    _require_valid(validate_probparmet(m))
    n = m.size
    dist = tuple(
        tuple(implication(m.tnorm, m.entry(i, i), m.entry(i, j)) for j in range(n))
        for i in range(n)
    )
    return ProbParMetInstance(m.points, dist, m.tnorm)


def globalize_backward(m: ParMetInstance | ProbParMetInstance):
    """Discount every distance by the self-distance of its target point."""
    if isinstance(m, ParMetInstance):
        _require_valid(validate_parmet(m))
        n = m.size
        dist = tuple(
            tuple(plus_implies(m.entry(j, j), m.entry(i, j)) for j in range(n))
            for i in range(n)
        )
        return ParMetInstance(m.points, dist)
    _require_valid(validate_probparmet(m))
    n = m.size
    dist = tuple(
        tuple(implication(m.tnorm, m.entry(j, j), m.entry(i, j)) for j in range(n))
        for i in range(n)
    )
    return ProbParMetInstance(m.points, dist, m.tnorm)


def coreflect(m: ParMetInstance | ProbParMetInstance):
    """Restrict to the points whose self-distance is the unit."""
    if isinstance(m, ParMetInstance):
        keep = [i for i in range(m.size) if m.entry(i, i) == ZERO]
    else:
        keep = [i for i in range(m.size) if m.entry(i, i) == TOP]
    points = tuple(m.points[i] for i in keep)
    dist = tuple(tuple(m.entry(i, j) for j in keep) for i in keep)
    if isinstance(m, ParMetInstance):
        return ParMetInstance(points, dist)
    return ProbParMetInstance(points, dist, m.tnorm)


def parmet_to_slice(m: ParMetInstance) -> SlicedMetInstance:
    """Split a valid instance into its self-distances and the discounted rest."""
    _require_valid(validate_parmet(m))
    anchor = tuple(m.entry(i, i) for i in range(m.size))
    base = tuple(
        tuple(plus_implies(m.entry(i, i), m.entry(i, j)) for j in range(m.size))
        for i in range(m.size)
    )
    return SlicedMetInstance(ParMetInstance(m.points, base), anchor)


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
    if isinstance(m, ParMetInstance):
        return {
            "points": list(m.points),
            "dist": [[format_scalar(v) for v in row] for row in m.dist],
        }
    return {
        "points": list(m.points),
        "tnorm": format_tnorm(m.tnorm),
        "dist": [[str(v) for v in row] for row in m.dist],
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
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) and all(isinstance(v, str) for v in row) for row in rows)
    ):
        raise ValueError("instance field 'dist' must be a list of rows of strings")
    points = tuple(points)
    if "tnorm" in data:
        if not isinstance(data["tnorm"], str):
            raise ValueError("instance field 'tnorm' must be a string")
        t = parse_tnorm(data["tnorm"])
        dist = tuple(tuple(parse_staircase(v) for v in row) for row in rows)
        return ProbParMetInstance(points, dist, t)
    dist = tuple(tuple(parse_scalar(v) for v in row) for row in rows)
    return ParMetInstance(points, dist)


def load_instance(path: str | Path) -> ParMetInstance | ProbParMetInstance:
    return instance_from_dict(json.loads(Path(path).read_text()))
