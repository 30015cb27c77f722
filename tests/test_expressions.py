"""Expression language: parsing, printing, evaluation, error positions."""

from fractions import Fraction

import pytest

from ddquant import (
    BOTTOM,
    DomainError,
    ParseError,
    Staircase,
    evaluate,
    one_step,
    parse_expression,
    parse_linear,
    parse_staircase,
    to_text,
)
from ddquant.expressions import _MAX_DEPTH, Node

from util import LUK, MIN, PROD

CANONICAL = [
    "step(1,1/2)",
    "conv(step(1,1/2),step(2,1/3))",
    "imp(steps[],steps[(0,1)])",
    "join(step(0,1/2),meet(step(1,1),steps[(2,1/3)]))",
    "steps[]",
    "steps[(1,1/2),(2,1)]",
    "linear[(0,0),(1,1)]",
    "linear[(0,0),(1,3/4),(2,3/4),(3,1)]",
]


def test_print_parse_round_trip():
    for text in CANONICAL:
        assert to_text(parse_expression(text)) == text


def test_parse_is_whitespace_insensitive():
    spaced = " conv( step( 1 , 1/2 ) , step( 2 , 1/3 ) ) "
    assert parse_expression(spaced) == parse_expression("conv(step(1,1/2),step(2,1/3))")


def test_step_parses_to_node():
    node = parse_expression("step(1,1/2)")
    assert node == Node("step", (Fraction(1), Fraction(1, 2)))
    assert evaluate(node, MIN) == one_step(1, Fraction(1, 2))


def test_node_shapes():
    step = Node("step", (Fraction(0), Fraction(1)))
    assert parse_expression("conv(step(0,1),step(0,1))") == Node("conv", (step, step))
    assert parse_expression("imp(step(0,1),step(0,1))") == Node("imp", (step, step))
    assert parse_expression("join(step(0,1))") == Node("join", (step,))
    steps, linear = "steps[(1,1)]", "linear[(0,0),(1,1)]"
    assert parse_expression(steps) == Node("steps", (parse_staircase(steps),))
    assert parse_expression(linear) == Node("linear", (parse_linear(linear),))


def test_unknown_nodes_are_type_errors():
    for bad in (Node("bogus", ()), "step(1,1)", None):
        with pytest.raises(TypeError, match="not an expression node"):
            to_text(bad)
        with pytest.raises(TypeError, match="not an expression node"):
            evaluate(bad, MIN)


def test_evaluate_worked_values():
    assert str(evaluate(parse_expression("conv(step(1,1/2),step(2,1/3))"), PROD)) == "steps[(3,1/6)]"
    assert (
        str(evaluate(parse_expression("imp(step(1,1/2),step(3,1/4))"), LUK))
        == "steps[(0,1/2),(2,3/4)]"
    )
    assert evaluate(parse_expression("steps[]"), MIN) == BOTTOM
    joined = evaluate(parse_expression("join(step(1,1/2),step(2,1))"), MIN)
    assert joined == Staircase(((Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(1))))


def test_evaluated_output_reparses_to_itself():
    node = parse_expression("join(step(0,1/3),conv(step(1,1/2),step(1,1)))")
    sc = evaluate(node, MIN)
    again = parse_expression(str(sc))
    assert evaluate(again, MIN) == sc
    assert to_text(again) == str(sc)


def test_infinite_jump_is_a_domain_error():
    with pytest.raises(DomainError, match=r"finite \(column 1\)"):
        parse_expression("step(inf,1)")
    # still a domain error (not a syntax error) deeper in an expression
    with pytest.raises(DomainError, match=r"\(column 6\)"):
        parse_expression("join(step(inf,1))")


def test_bad_step_level_is_a_domain_error():
    with pytest.raises(DomainError):
        parse_expression("step(1,2)")
    with pytest.raises(DomainError, match="level"):
        parse_expression("step(1,inf)")


def test_linear_rejected_by_evaluate():
    node = parse_expression("linear[(0,0),(1,1)]")
    with pytest.raises(DomainError, match="not a staircase"):
        evaluate(node, MIN)


def test_arity_errors_are_named():
    with pytest.raises(ParseError, match="conv takes exactly 2 arguments"):
        parse_expression("conv(step(1,1))")
    with pytest.raises(ParseError, match="imp takes exactly 2 arguments"):
        parse_expression("imp(step(1,1),step(1,1),step(1,1))")
    with pytest.raises(ParseError, match="join takes at least one argument"):
        parse_expression("join()")


def test_syntax_errors_carry_columns():
    with pytest.raises(ParseError) as err:
        parse_expression("bogus(1)")
    assert err.value.position == 0
    assert "(column 1)" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_expression("step(1/,1)")
    assert err.value.position == 7
    assert "denominator" in str(err.value)

    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("step(1,@)")

    with pytest.raises(ParseError, match="trailing input"):
        parse_expression("step(1,1) step(2,1)")

    with pytest.raises(ParseError, match="operation name"):
        parse_expression("1/2")

    with pytest.raises(ParseError, match="end of input"):
        parse_expression("step(1")

    with pytest.raises(ParseError, match="operation name"):
        parse_expression("conv(step(1,1),")


def test_malformed_literals_are_syntax_errors():
    with pytest.raises(ParseError, match="invalid staircase"):
        parse_expression("steps[(1,1/2),(1,2/3)]")
    with pytest.raises(ParseError, match="must be finite"):
        parse_expression("steps[(inf,1)]")
    with pytest.raises(ParseError, match="invalid piecewise-linear"):
        parse_expression("linear[(0,1),(1,0)]")
    with pytest.raises(ParseError, match="unknown operation"):
        parse_expression("stepz(1,1)")


def _nested_conv(depth: int) -> str:
    return "conv(" * depth + "step(1,1/2)" + ",step(0,1))" * depth


def test_nesting_depth_budget():
    node = parse_expression(_nested_conv(_MAX_DEPTH))
    assert evaluate(node, MIN) == one_step(Fraction(1), Fraction(1, 2))
    assert parse_expression(to_text(node)) == node
    with pytest.raises(ParseError, match=f"nested deeper than {_MAX_DEPTH}") as err:
        parse_expression(_nested_conv(_MAX_DEPTH + 1))
    # the opening parenthesis of the first conv past the budget
    assert err.value.position == 5 * _MAX_DEPTH + 4
