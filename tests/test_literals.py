"""One literal grammar: scalars, staircases, t-norms, piecewise-linear maps
and expressions are all read by the same tokenizer, so they accept and
reject the same scalars and the same punctuation."""

import random
import re

import pytest

from ddquant import (
    MIN,
    ParseError,
    evaluate,
    format_scalar,
    format_tnorm,
    parse_expression,
    parse_linear,
    parse_scalar,
    parse_staircase,
    parse_tnorm,
    to_text,
)
from util import rand_staircase

ENTRY_POINTS = {
    "scalar": parse_scalar,
    "staircase": parse_staircase,
    "tnorm": parse_tnorm,
    "linear": parse_linear,
    "expression": parse_expression,
}

# Each malformed scalar in one slot of every form.
_SLOTS = {
    "scalar": "{}",
    "staircase": "steps[(1,1/2),({},1)]",
    "tnorm": "ordinal[(0,{},prod)]",
    "linear": "linear[(0,0),({},1)]",
    "expression": "join(step({},1))",
}
_BAD_SCALARS = {
    "decimal": "0.5",
    "leading-dot": ".5",
    "plus-sign": "+1",
    "minus-sign": "-1",
    "exponent": "1e3",
    "big-exponent": "1e999999999",
    "upper-exponent": "1E3",
    "zero-denominator": "1/0",
    "missing-denominator": "1/",
    "missing-numerator": "/2",
    "underscore": "1_000",
    "space-before-slash": "1 /2",
    "hex": "0x10",
    "vulgar-fraction": "½",
    "non-ascii-digit": "٣",
    "empty": "",
}

# Malformed punctuation, one text per form (in the order of ENTRY_POINTS).
_BAD_SHAPES = {
    "missing-comma": (
        "1 2",
        "steps[(1,1/2)(2,1)]",
        "ordinal[(0,1/2,prod)(1/2,1,luk)]",
        "linear[(0,0)(1,1)]",
        "join(step(1,1/2)step(2,1))",
    ),
    "doubled-comma": (
        "1,,2",
        "steps[(1,1/2),,(2,1)]",
        "ordinal[(0,1/2,prod),,(1/2,1,luk)]",
        "linear[(0,0),,(1,1)]",
        "join(step(1,1/2),,step(2,1))",
    ),
    "leading-comma": (
        ",1",
        "steps[,(1,1/2)]",
        "ordinal[,(0,1/2,prod)]",
        "linear[,(0,0),(1,1)]",
        "join(,step(1,1/2))",
    ),
    "trailing-comma": (
        "1,",
        "steps[(1,1/2),]",
        "ordinal[(0,1/2,prod),]",
        "linear[(0,0),(1,1),]",
        "join(step(1,1/2),)",
    ),
    "nested-parentheses": (
        "(1)",
        "steps[((1,1/2))]",
        "ordinal[((0,1/2,prod))]",
        "linear[((0,0)),(1,1)]",
        "step((1),1)",
    ),
    "missing-field-comma": (
        "inf inf",
        "steps[(1 1/2)]",
        "ordinal[(0 1/2,prod)]",
        "linear[(0,0),(1 1)]",
        "step(1 1)",
    ),
    "unclosed": (
        "(",
        "steps[(1,1/2)",
        "ordinal[(0,1/2,prod)",
        "linear[(0,0),(1,1)",
        "join(step(1,1/2)",
    ),
    "trailing-input": (
        "1/2 x",
        "steps[(1,1/2)]]",
        "ordinal[(0,1/2,prod)] min",
        "linear[(0,0),(1,1)])",
        "step(1,1/2))",
    ),
}

MALFORMED = [
    pytest.param(form, _SLOTS[form].format(bad), id=f"{case}-{form}")
    for case, bad in _BAD_SCALARS.items()
    for form in ENTRY_POINTS
] + [
    pytest.param(form, text, id=f"{case}-{form}")
    for case, texts in _BAD_SHAPES.items()
    for form, text in zip(ENTRY_POINTS, texts)
]


@pytest.mark.parametrize("form,text", MALFORMED)
def test_malformed_text_is_a_parse_error(form, text):
    with pytest.raises(ParseError):
        ENTRY_POINTS[form](text)


CANONICAL = {
    "scalar": ["0", "7/2", "inf", "12345678901234567891/3"],
    "staircase": ["steps[]", "steps[(0,1)]", "steps[(1,1/2),(2,1)]"],
    "tnorm": ["min", "prod", "luk", "ordinal[(1/5,3/5,prod),(7/10,1,luk)]"],
    "linear": ["linear[(0,0),(1,1)]", "linear[(0,0),(1,3/4),(2,3/4),(3,1)]"],
    "expression": ["conv(step(1,1/2),imp(steps[(0,1/3)],step(2,1)))"],
}
_PRINT = {
    "scalar": format_scalar,
    "staircase": str,
    "tnorm": format_tnorm,
    "linear": str,
    "expression": to_text,
}
_CANONICAL_CASES = [(form, text) for form, texts in CANONICAL.items() for text in texts]


@pytest.mark.parametrize("form,text", _CANONICAL_CASES)
def test_canonical_text_round_trips(form, text):
    assert _PRINT[form](ENTRY_POINTS[form](text)) == text


_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z]+|[()\[\],]")


@pytest.mark.parametrize("form,text", _CANONICAL_CASES)
def test_whitespace_between_tokens_changes_nothing(form, text):
    parse = ENTRY_POINTS[form]
    value = parse(text)
    tokens = _TOKEN.findall(text)
    assert "".join(tokens) == text
    for k in range(len(tokens) + 1):
        spaced = "".join(tokens[:k]) + " \t\n " + "".join(tokens[k:])
        assert parse(spaced) == value, spaced
    assert parse(" ".join(tokens)) == value


def test_staircase_literal_reads_alike_in_both_parsers():
    rng = random.Random(61)
    for _ in range(300):
        text = str(rand_staircase(rng, max_steps=12))
        assert parse_staircase(text) == evaluate(parse_expression(text), MIN)
