"""Tiny expression language over staircases.

Grammar (whitespace insensitive):

    expr    := step(time, value)
             | join(expr, ...) | meet(expr, ...)
             | conv(expr, expr) | imp(expr, expr)
             | steps[(time, value), ...]
             | linear[(time, value), ...]
    time    := rational | inf
    value   := rational
    rational:= digits | digits/digits

`steps[...]` is the canonical staircase form, so printing an evaluated
result and parsing it again is the identity.  `linear[...]` denotes a
piecewise-linear map; it parses everywhere but only commands that bracket
such maps accept it, so `evaluate` rejects it.

Syntax errors carry the column of the offence.  A step with an infinite
jump is rejected while parsing: no staircase takes a nonzero value only
beyond every finite time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .axis import INF, Time, ensure_time, ensure_unit, format_scalar
from .enclosure import PiecewiseLinear
from .errors import DomainError, ParseError
from .quantale import convolve, implication
from .staircase import Staircase, join_all, meet_all, one_step
from .tnorms import TNorm


class Node:
    """Base class for expression AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class StepNode(Node):
    jump: Time
    level: Fraction

    def __post_init__(self):
        if self.jump is INF:
            raise DomainError("step jump must be finite")
        object.__setattr__(self, "jump", ensure_time(self.jump))
        object.__setattr__(self, "level", ensure_unit(self.level))


@dataclass(frozen=True)
class JoinNode(Node):
    args: tuple[Node, ...]


@dataclass(frozen=True)
class MeetNode(Node):
    args: tuple[Node, ...]


@dataclass(frozen=True)
class ConvNode(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class ImpNode(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class StaircaseNode(Node):
    value: Staircase


@dataclass(frozen=True)
class LinearNode(Node):
    value: PiecewiseLinear


def to_text(node: Node) -> str:
    if isinstance(node, StepNode):
        return f"step({format_scalar(node.jump)},{format_scalar(node.level)})"
    if isinstance(node, JoinNode):
        return "join(" + ",".join(to_text(a) for a in node.args) + ")"
    if isinstance(node, MeetNode):
        return "meet(" + ",".join(to_text(a) for a in node.args) + ")"
    if isinstance(node, ConvNode):
        return f"conv({to_text(node.left)},{to_text(node.right)})"
    if isinstance(node, ImpNode):
        return f"imp({to_text(node.left)},{to_text(node.right)})"
    if isinstance(node, StaircaseNode):
        return str(node.value)
    if isinstance(node, LinearNode):
        return str(node.value)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Node, t: TNorm) -> Staircase:
    """Reduce an expression to a canonical staircase under the given t-norm."""
    if isinstance(node, StepNode):
        return one_step(node.jump, node.level)
    if isinstance(node, JoinNode):
        return join_all(evaluate(a, t) for a in node.args)
    if isinstance(node, MeetNode):
        return meet_all(evaluate(a, t) for a in node.args)
    if isinstance(node, ConvNode):
        return convolve(t, evaluate(node.left, t), evaluate(node.right, t))
    if isinstance(node, ImpNode):
        return implication(t, evaluate(node.left, t), evaluate(node.right, t))
    if isinstance(node, StaircaseNode):
        return node.value
    if isinstance(node, LinearNode):
        raise DomainError(
            "linear[...] is not a staircase; it is only accepted by "
            "commands that compute enclosures"
        )
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# tokenizer / parser

_NAME = "name"
_NUMBER = "number"
_PUNCT = "punct"
_END = "end"


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()[],":
            tokens.append(_Token(_PUNCT, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                j += 1
                if j == n or not text[j].isdigit():
                    raise ParseError("expected denominator digits", j)
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token(_NUMBER, text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token(_NAME, text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token(_END, "", n))
    return tokens


# Deepest accepted nesting of join/meet/conv/imp.  Parsing, evaluation and
# printing each recurse once per level, so the budget keeps them well inside
# Python's default recursion limit of 1000 frames.
_MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.at = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def take(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind == _END:
            raise ParseError(f"expected {text!r}, got end of input", tok.pos)
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.pos)
        return tok

    def scalar(self) -> Time:
        tok = self.take()
        if tok.kind == _NAME and tok.text == "inf":
            return INF
        if tok.kind == _NUMBER:
            return Fraction(tok.text)
        raise ParseError(f"expected a rational or inf, got {tok.text!r}", tok.pos)

    def pair_list(self) -> list[tuple[Time, Time]]:
        self.expect("[")
        pairs: list[tuple[Time, Time]] = []
        if self.peek().text == "]":
            self.take()
            return pairs
        while True:
            self.expect("(")
            first = self.scalar()
            self.expect(",")
            second = self.scalar()
            self.expect(")")
            pairs.append((first, second))
            tok = self.take()
            if tok.text == "]":
                return pairs
            if tok.text != ",":
                raise ParseError(f"expected ',' or ']', got {tok.text!r}", tok.pos)

    def expr(self) -> Node:
        tok = self.take()
        if tok.kind != _NAME:
            raise ParseError(f"expected an operation name, got {tok.text!r}", tok.pos)
        name = tok.text
        if name == "steps":
            pairs = self.pair_list()
            return StaircaseNode(_staircase_from_pairs(pairs, tok.pos))
        if name == "linear":
            pairs = self.pair_list()
            return LinearNode(_linear_from_pairs(pairs, tok.pos))
        if name == "step":
            self.expect("(")
            jump = self.scalar()
            self.expect(",")
            level = self.scalar()
            self.expect(")")
            # out-of-domain step arguments are domain errors, not syntax errors
            if jump is INF:
                raise DomainError(
                    f"step jump must be finite (column {tok.pos + 1})"
                )
            if level is INF:
                raise DomainError(
                    f"step level must be a rational in [0, 1] (column {tok.pos + 1})"
                )
            return StepNode(jump, level)
        if name in ("join", "meet", "conv", "imp"):
            args = self.args()
            if name in ("conv", "imp") and len(args) != 2:
                raise ParseError(
                    f"{name} takes exactly 2 arguments, got {len(args)}", tok.pos
                )
            if not args:
                raise ParseError(f"{name} takes at least one argument", tok.pos)
            if name == "join":
                return JoinNode(tuple(args))
            if name == "meet":
                return MeetNode(tuple(args))
            if name == "conv":
                return ConvNode(args[0], args[1])
            return ImpNode(args[0], args[1])
        raise ParseError(f"unknown operation {name!r}", tok.pos)

    def args(self) -> list[Node]:
        opening = self.expect("(")
        if self.peek().text == ")":
            self.take()
            return []
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", opening.pos)
        self.depth += 1
        out = [self.expr()]
        while True:
            tok = self.take()
            if tok.text == ")":
                self.depth -= 1
                return out
            if tok.text != ",":
                raise ParseError(f"expected ',' or ')', got {tok.text!r}", tok.pos)
            out.append(self.expr())


def _staircase_from_pairs(pairs, pos: int) -> Staircase:
    for jump, level in pairs:
        if jump is INF or level is INF:
            raise ParseError("staircase entries must be finite", pos)
    try:
        return Staircase(tuple((jump, level) for jump, level in pairs))
    except (DomainError, ValueError) as exc:
        raise ParseError(f"invalid staircase: {exc}", pos) from exc


def _linear_from_pairs(pairs, pos: int) -> PiecewiseLinear:
    for t_, v in pairs:
        if t_ is INF or v is INF:
            raise ParseError("linear knots must be finite", pos)
    try:
        return PiecewiseLinear(tuple((t_, v) for t_, v in pairs))
    except (DomainError, ValueError) as exc:
        raise ParseError(f"invalid piecewise-linear map: {exc}", pos) from exc


def parse_expression(text: str) -> Node:
    parser = _Parser(text)
    node = parser.expr()
    tail = parser.take()
    if tail.kind != _END:
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return node
