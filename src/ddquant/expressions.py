"""Tiny expression language over staircases.

Grammar, on the tokens of `ddquant.axis` (whitespace is allowed between
any two tokens):

    expr    := step(scalar, scalar)
             | join(expr, ...) | meet(expr, ...)
             | conv(expr, expr) | imp(expr, expr)
             | steps[(rational, rational), ...]
             | linear[(rational, rational), ...]
    scalar  := rational | inf
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

from .axis import INF, Time, _Reader, ensure_time, ensure_unit, format_scalar
from .enclosure import PiecewiseLinear, _read_knots
from .errors import DomainError, ParseError
from .quantale import convolve, implication
from .staircase import Staircase, _read_steps, join_all, meet_all, one_step
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
# parser

# Deepest accepted nesting of join/meet/conv/imp.  Parsing, evaluation and
# printing each recurse once per level, so the budget keeps them well inside
# Python's default recursion limit of 1000 frames.
_MAX_DEPTH = 200


class _Parser(_Reader):
    depth = 0

    def expr(self) -> Node:
        name = self.name("an operation name")
        column = self.column
        if name == "steps":
            return StaircaseNode(_read_steps(self))
        if name == "linear":
            return LinearNode(_read_knots(self))
        if name == "step":
            self.expect("(")
            jump = self.scalar()
            self.expect(",")
            level = self.scalar()
            self.expect(")")
            # out-of-domain step arguments are domain errors, not syntax errors
            if jump is INF:
                raise DomainError(f"step jump must be finite (column {column + 1})")
            if level is INF:
                raise DomainError(
                    f"step level must be a rational in [0, 1] (column {column + 1})"
                )
            return StepNode(jump, level)
        if name in ("join", "meet", "conv", "imp"):
            args = self.args()
            if name in ("conv", "imp") and len(args) != 2:
                raise ParseError(
                    f"{name} takes exactly 2 arguments, got {len(args)}", column
                )
            if not args:
                raise ParseError(f"{name} takes at least one argument", column)
            if name == "join":
                return JoinNode(tuple(args))
            if name == "meet":
                return MeetNode(tuple(args))
            if name == "conv":
                return ConvNode(args[0], args[1])
            return ImpNode(args[0], args[1])
        raise ParseError(f"unknown operation {name!r}", column)

    def args(self) -> list[Node]:
        self.expect("(")
        if self.peek() == ")":
            self.take()
            return []
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", self.column)
        self.depth += 1
        out = [self.expr()]
        while self.peek() == ",":
            self.take()
            out.append(self.expr())
        self.expect(")")
        self.depth -= 1
        return out


def parse_expression(text: str) -> Node:
    parser = _Parser(text)
    return parser.end(parser.expr())
