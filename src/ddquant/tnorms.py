"""Continuous t-norms on the rational unit interval.

A t-norm here is an ordinal sum of finitely many product and Lukasiewicz
pieces over minimum.  The empty sum is minimum itself; a single piece
covering [0, 1] gives the plain product or Lukasiewicz t-norm.  For
a <= b in one piece (lo, hi) the value is lo + (a - lo)(b - lo)/(hi - lo)
under prod and max(lo, a + b - hi) under luk, and min(a, b) elsewhere; for
a > b the residuum is lo + (hi - lo)(b - lo)/(a - lo), hi - a + b, or b.
All arithmetic is exact on `Fraction` inputs, so the adjunction

    apply(a, c) <= b  iff  c <= implies(a, b)

holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .axis import ONE, ZERO, _Reader, _as_rational, format_scalar
from .errors import DomainError, ParseError

PRODUCT_KIND = "prod"
LUKASIEWICZ_KIND = "luk"
_KINDS = (PRODUCT_KIND, LUKASIEWICZ_KIND)


@dataclass(frozen=True)
class Piece:
    """One summand of an ordinal sum, acting on the open interval (lo, hi)."""

    lo: Fraction
    hi: Fraction
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_rational(self.lo))
        object.__setattr__(self, "hi", _as_rational(self.hi))
        if not ZERO <= self.lo < self.hi <= ONE:
            raise DomainError(f"piece needs 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")
        if self.kind not in _KINDS:
            raise DomainError(f"unknown piece kind {self.kind!r}")


@dataclass(frozen=True)
class TNorm:
    """Ordinal sum of `pieces` over minimum; no pieces means plain minimum."""

    pieces: tuple[Piece, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        prev_hi = None
        for piece in self.pieces:
            if prev_hi is not None and piece.lo < prev_hi:
                raise DomainError("ordinal sum pieces must be disjoint and sorted")
            prev_hi = piece.hi

    @cached_property
    def _int_pieces(self) -> tuple[int, tuple[tuple[int, int, str], ...]]:
        """(D, pieces): each piece as (lo * D, hi * D, kind), D the lcm of
        the endpoint denominators; the integer kernels rescale these."""
        d = lcm(*(e.denominator for pc in self.pieces for e in (pc.lo, pc.hi)))
        return d, tuple((int(pc.lo * d), int(pc.hi * d), pc.kind) for pc in self.pieces)

    def _piece_containing(self, low: Fraction, high: Fraction) -> Piece | None:
        # Closed-interval membership; values at shared endpoints agree on
        # both sides, so the first match is as good as any.
        for piece in self.pieces:
            if piece.lo <= low and high <= piece.hi:
                return piece
        return None

    def apply(self, a: Fraction, b: Fraction) -> Fraction:
        if a > b:
            a, b = b, a
        piece = self._piece_containing(a, b)
        if piece is None:
            return a
        lo, hi = piece.lo, piece.hi
        if piece.kind == PRODUCT_KIND:
            return lo + (a - lo) * (b - lo) / (hi - lo)
        return max(lo, a + b - hi)

    def implies(self, a: Fraction, b: Fraction) -> Fraction:
        """Residuum: the largest c with apply(a, c) <= b."""
        if a <= b:
            return ONE
        piece = self._piece_containing(b, a)
        if piece is None:
            return b
        lo, hi = piece.lo, piece.hi
        if piece.kind == PRODUCT_KIND:
            return lo + (hi - lo) * (b - lo) / (a - lo)
        return hi - a + b

    def is_idempotent(self, a: Fraction) -> bool:
        """apply(a, a) == a, i.e. a is outside every open piece."""
        return all(not (piece.lo < a < piece.hi) for piece in self.pieces)


MIN = TNorm()
PROD = TNorm((Piece(ZERO, ONE, PRODUCT_KIND),))
LUK = TNorm((Piece(ZERO, ONE, LUKASIEWICZ_KIND),))


def format_tnorm(t: TNorm) -> str:
    body = ",".join(
        f"({format_scalar(p.lo)},{format_scalar(p.hi)},{p.kind})" for p in t.pieces
    )
    return next((name for name, named in _NAMED.items() if named == t), f"ordinal[{body}]")


_NAMED = {"min": MIN, "prod": PROD, "luk": LUK}


def parse_tnorm(text: str) -> TNorm:
    """Parse `min`, `prod`, `luk`, or `ordinal[(lo,hi,kind),...]`."""
    r = _Reader(text)
    name = r.name("a t-norm")
    if name == "ordinal":
        return r.end(r.tuples(_ordinal, "ordinal sum", r.rational, r.rational, r.name))
    if name not in _NAMED:
        raise ParseError(f"unknown t-norm descriptor {text!r}")
    return r.end(_NAMED[name])


def _ordinal(pieces) -> TNorm:
    if not pieces:
        raise DomainError("needs at least one piece")
    return TNorm(tuple(Piece(*piece) for piece in pieces))
