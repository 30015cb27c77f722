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

Every expression is one frozen `Node(op, args)`.  The four operations
`join`, `meet`, `conv` and `imp` hold their child nodes in `args`; the
three literals hold their values: `step` its (jump, level), `steps` its
`Staircase` and `linear` its `PiecewiseLinear`.  One table, `_OPS`, maps
each operation to its kernel, and parsing, printing and evaluation each
look an operation up there.

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

from .axis import INF, _Reader, format_scalar
from .enclosure import _read_knots
from .errors import DomainError, ParseError
from .quantale import convolve, implication
from .staircase import Staircase, _read_steps, join_all, meet_all, one_step
from .tnorms import TNorm


@dataclass(frozen=True)
class Node:
    """An expression: an operation name and its arguments."""

    op: str
    args: tuple


# Each operation's kernel.  join and meet take the evaluated children as one
# iterable; conv and imp take the t-norm, then exactly two children.
_OPS = {"join": join_all, "meet": meet_all, "conv": convolve, "imp": implication}
_BINARY = {"conv", "imp"}
_LITERALS = {"step", "steps", "linear"}


def _op(node) -> str:
    if isinstance(node, Node) and (node.op in _OPS or node.op in _LITERALS):
        return node.op
    raise TypeError(f"not an expression node: {node!r}")


def to_text(node: Node) -> str:
    op = _op(node)
    if op in _OPS:
        return op + "(" + ",".join(to_text(a) for a in node.args) + ")"
    if op == "step":
        return "step(" + ",".join(format_scalar(v) for v in node.args) + ")"
    return str(node.args[0])


def evaluate(node: Node, t: TNorm) -> Staircase:
    """Reduce an expression to a canonical staircase under the given t-norm."""
    op = _op(node)
    if op in _OPS:
        args = [evaluate(a, t) for a in node.args]
        return _OPS[op](t, *args) if op in _BINARY else _OPS[op](args)
    if op == "step":
        return one_step(*node.args)
    if op == "steps":
        return node.args[0]
    raise DomainError(
        "linear[...] is not a staircase; it is only accepted by "
        "commands that compute enclosures"
    )


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
            return Node(name, (_read_steps(self),))
        if name == "linear":
            return Node(name, (_read_knots(self),))
        if name == "step":
            self.expect("(")
            jump = self.scalar()
            self.expect(",")
            level = self.scalar()
            self.expect(")")
            # out-of-domain step arguments are domain errors, not syntax errors
            if jump is INF:
                raise DomainError(f"step jump must be finite (column {column + 1})")
            if level is INF or level > 1:
                raise DomainError(
                    f"step level must be a rational in [0, 1] (column {column + 1})"
                )
            return Node(name, (jump, level))
        if name not in _OPS:
            raise ParseError(f"unknown operation {name!r}", column)
        args = self.args()
        if name in _BINARY and len(args) != 2:
            raise ParseError(f"{name} takes exactly 2 arguments, got {len(args)}", column)
        if not args:
            raise ParseError(f"{name} takes at least one argument", column)
        return Node(name, args)

    def args(self) -> tuple[Node, ...]:
        self.expect("(")
        if self.peek() == ")":
            self.take()
            return ()
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", self.column)
        self.depth += 1
        out = [self.expr()]
        while self.peek() == ",":
            self.take()
            out.append(self.expr())
        self.expect(")")
        self.depth -= 1
        return tuple(out)


def parse_expression(text: str) -> Node:
    parser = _Parser(text)
    return parser.end(parser.expr())
