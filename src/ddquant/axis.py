"""Exact scalar types for the two axes the package works on.

Times live on the extended half line [0, inf], values in the unit interval
[0, 1].  Finite quantities are `fractions.Fraction` throughout; the point at
infinity is the module constant `INF`.  Addition treats infinity as absorbing.
Its residuation `plus_implies` is truncated subtraction, with the conventions

    inf - p = inf   for finite p,
    inf - inf = 0.

Every text form of the package (scalars, `steps[...]`, `ordinal[...]`,
`linear[...]` and expressions) is read with one token grammar, kept here
next to `format_scalar`.  A rational is digits or digits/digits with a
nonzero denominator, a scalar is a rational or `inf`, names are ASCII
letters, and whitespace may sit between any two tokens.  Decimals, signs,
exponents and underscores are not part of it.  Numbers are read as their
(numerator, denominator) int pairs as spelled: `_Reader.pairs` hands them
on to the staircase builder as four columns, `scalar` and `rational` make
`Fraction`s.

Right after a `steps` or `linear` name, the only places the grammar reads
ratio pairs, a well-formed body `[(r,r),...]` is one lexeme: one regex split
gives its numbers as four int columns (jump numerators, jump denominators,
level numerators, level denominators), which go to `_Reader.pairs` whole,
so a literal costs no token per number.  Every other text is walked token
by token, and that walk produces every message and column.  The token list
is never rewritten.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Union

from .errors import DomainError, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


@total_ordering
class _Infinity:
    """Singleton for the point at infinity on the time axis."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ddquant-time-infinity")

    # INF is strictly above every finite rational; total_ordering derives
    # <=, > and >= from this and __eq__.
    def __lt__(self, other):
        if other is self or isinstance(other, (int, Fraction)):
            return False
        return NotImplemented


INF = _Infinity()

Time = Union[Fraction, _Infinity]


def is_infinite(t: Time) -> bool:
    return t is INF


def _as_rational(x) -> Fraction:
    """x, an int or a Fraction, as a Fraction.  Anything else, str and float
    included, is a DomainError: text goes through `parse_scalar`."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise DomainError(f"expected an int or Fraction, got {type(x).__name__}")


def ensure_time(t) -> Time:
    """Coerce to a point of [0, inf]; reject negatives and non-rationals."""
    if t is INF:
        return t
    f = _as_rational(t)
    if f < 0:
        raise DomainError(f"time must be non-negative, got {f}")
    return f


def ensure_unit(a) -> Fraction:
    """Coerce to a rational in [0, 1]."""
    f = _as_rational(a)
    if not ZERO <= f <= ONE:
        raise DomainError(f"value must lie in [0, 1], got {f}")
    return f


def time_add(a: Time, b: Time) -> Time:
    if a is INF or b is INF:
        return INF
    return a + b


def plus_implies(p: Time, q: Time) -> Time:
    """Residuation of addition on [0, inf] ordered by >= (0 is the unit).

    plus_implies(p, q) is the least r with p + r >= q in the numeric order,
    i.e. 0 when p >= q and q - p otherwise.
    """
    return ZERO if p >= q else (INF if q is INF else q - p)


def format_scalar(v: Time) -> str:
    """Canonical text: integers bare, other rationals as num/den, inf as inf."""
    return "inf" if v is INF else format_ratio(v.numerator, v.denominator)


def format_ratio(n: int, d: int) -> str:
    """The canonical text of n/d for ints n and d > 0, without a Fraction."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def parse_scalar(text: str) -> Time:
    r = _Reader(text)
    return r.end(r.scalar())


# A body's span from its `[` to the first `]`, no `[` between, and one
# `(r,r)` pair of it with the `,` or `]` after: four numbers (digits, and
# denominators that are not all zeros, an absent one None), then that
# separator.  Right after a `steps` or `linear` name, a body whose pairs,
# whitespace only between their tokens, tile its span is one lexeme.
_SPAN = re.compile(r"\s*\[([^\[\]]*\])")
_DEN = r"(?:/(0*[1-9][0-9]*))?"
_PAIR = re.compile(rf"\s*\(\s*([0-9]+){_DEN}\s*,\s*([0-9]+){_DEN}\s*\)\s*([,\]])")
# Names and punctuation; digits, optionally over a slash and more digits; or
# any other character, which is an error.  The empty denominator of `1/`
# matches so that its error names the denominator.
_LEXEME = re.compile(r"\s*(?:([A-Za-z]+|[()\[\],])|([0-9]+)(?:/([0-9]*))?|(\S))")


def _lex(text: str) -> list[tuple[object, int]]:
    """(value, column) pairs for text, ending in (None, len(text)).

    A value is a number's (numerator, denominator) int pair, a name, a
    punctuation character, or the list of the four columns of a body
    lexeme: a well-formed `[(r,r),...]` right after a `steps` or `linear`
    name, whose column is that of its `[`.  One `_PAIR.split` reads the
    body's numbers; numerators go through `int` in one `map` and each
    distinct denominator spelling once.  Every other text is walked token
    by token, and that walk produces every message and column.  A body that
    holds a number with more digits than int() converts is walked too, and
    the walk names that number.
    """
    tokens: list[tuple[object, int]] = []
    at = 0
    while m := _LEXEME.match(text, at):
        at = m.end()
        if m.lastindex == 1:
            tokens.append((m[1], m.start(1)))
            if m[1] in ("steps", "linear") and (body := _SPAN.match(text, at)):
                # the pieces around the pairs at [::6], each pair's five
                # groups between; all pieces empty, only the last ends in `]`
                parts = _PAIR.split(body[1]) if body[1][:-1].strip() else [""]
                if any(parts[::6]):  # left to the walk, which names the error
                    continue
                jn, jd, ln, ld = parts[1::6], parts[2::6], parts[3::6], parts[4::6]
                try:
                    over = {spelled: int(spelled or 1) for spelled in {*jd, *ld}}.__getitem__
                    columns = [list(map(int, jn)), list(map(over, jd)), list(map(int, ln)), list(map(over, ld))]
                except ValueError:  # left to the walk, which names the number
                    continue
                tokens.append((columns, body.start(1) - 1))
                at = body.end()
            continue
        num, den, bad = m.group(2, 3, 4)
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", m.start(4))
        if den == "":
            raise ParseError("expected denominator digits", m.end())
        try:
            value = (int(num), int(den) if den else 1)
        except ValueError:  # more digits than int() converts
            raise ParseError("number has too many digits", m.start(2)) from None
        if not value[1]:
            raise ParseError("zero denominator", m.start(2))
        tokens.append((value, m.start(2)))
    tokens.append((None, len(text)))
    return tokens


def _columns(pairs) -> list[list[int]]:
    """The four columns (jump numerators, jump denominators, level
    numerators, level denominators) of ((n, d), (n, d)) int pairs."""
    return [[n for (n, _), _ in pairs], [d for (_, d), _ in pairs],
            [n for _, (n, _) in pairs], [d for _, (_, d) in pairs]]


def _shown(value) -> str:
    if value is None:
        return "end of input"
    if type(value) is list:  # a body lexeme, shown as the `[` it starts with
        return repr("[")
    return repr(format_ratio(*value) if type(value) is tuple else value)


class _Reader:
    """A cursor over the tokens of one text; `column` is that of the token
    taken last, and every error names it.  Only `pairs` reads a body lexeme;
    any other reader that meets one fails as it would at the `[` of the
    walk, with the same message and column."""

    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.at = 0
        self.column = 0

    def peek(self):
        return self.tokens[self.at][0]

    def take(self):
        value, self.column = self.tokens[self.at]
        if value is not None:
            self.at += 1
        return value

    def expect(self, want: str) -> None:
        got = self.take()
        if got != want:
            raise ParseError(f"expected {want!r}, got {_shown(got)}", self.column)

    def name(self, what: str = "a name") -> str:
        got = self.take()
        if not (isinstance(got, str) and got.isalpha()):
            raise ParseError(f"expected {what}, got {_shown(got)}", self.column)
        return got

    def scalar(self) -> Time:
        if self.peek() == "inf":
            self.take()
            return INF
        return self.rational()

    def rational(self) -> Fraction:
        return Fraction(*self.ratio())

    def ratio(self) -> tuple[int, int]:
        """A finite rational as its (numerator, denominator) pair as spelled."""
        got = self.take()
        if type(got) is tuple:
            return got
        if got == "inf":
            raise ParseError("literal entries must be finite, got 'inf'", self.column)
        raise ParseError(f"expected a rational or inf, got {_shown(got)}", self.column)

    def pairs(self, make, what: str):
        """Read `[(r,r),...]` of finite rationals and return make(columns),
        the four lists of its jump numerators, jump denominators, level
        numerators and level denominators as spelled; its DomainError is a
        ParseError.  A body lexeme is all of it in one token."""
        if type(self.peek()) is not list:
            return self.tuples(lambda items: make(_columns(items)), what, self.ratio, self.ratio)
        return self._made(make, what, self.take(), self.column)

    def tuples(self, make, what: str, *fields):
        """Read `[(f1,f2,...),...]`, each field by its reader method, and
        return make(tuple of the tuples); its DomainError is a ParseError."""
        self.expect("[")
        column = self.column
        items = []
        while self.peek() != "]":
            if items:
                self.expect(",")
            self.expect("(")
            item = []
            for k, field in enumerate(fields):
                if k:
                    self.expect(",")
                item.append(field())
            self.expect(")")
            items.append(tuple(item))
        self.take()
        return self._made(make, what, tuple(items), column)

    @staticmethod
    def _made(make, what: str, items, column: int):
        try:
            return make(items)
        except DomainError as exc:
            raise ParseError(f"invalid {what}: {exc}", column) from exc

    def end(self, value):
        """Return value once every token has been read."""
        got = self.take()
        if got is not None:
            raise ParseError(f"unexpected trailing input {_shown(got)}", self.column)
        return value
