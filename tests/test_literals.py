"""One literal grammar: scalars, staircases, t-norms, piecewise-linear maps
and expressions are all read by the same tokenizer, so they accept and
reject the same scalars and the same punctuation."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddquant import (
    MIN,
    ParseError,
    Staircase,
    evaluate,
    format_scalar,
    format_tnorm,
    instance_from_dict,
    parse_expression,
    parse_linear,
    parse_scalar,
    parse_staircase,
    parse_tnorm,
    to_text,
)
from ddquant.axis import _lex
from util import plain_reader, rand_staircase, read_outcome

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


def _spell(rng, value: Fraction, used: set) -> str:
    """value as k*p/k*q for a k that gives a denominator no other value of
    the literal has; integers also as n/1 and zero also as 0/7."""
    p, q = value.numerator, value.denominator
    if q == 1 and rng.random() < 0.3 and q not in used:
        used.add(1)
        return f"{p}/1"
    if p == 0 and 7 not in used and rng.random() < 0.5:
        used.add(7)
        return "0/7"
    k = rng.randrange(1, 50)
    while k * q in used:
        k += 1
    used.add(k * q)
    return f"{k * p}/{k * q}"


def _rand_literal(rng):
    """(text, steps): an unreduced `steps[...]` spelling of random Fraction
    steps, a different denominator on every value, some past 2**64."""
    n = rng.randrange(0, 10)
    dens = [rng.choice((1, 2, 3, 10, 2**64 + rng.randrange(1, 2**20))) for _ in range(2 * n)]
    jumps = sorted({Fraction(rng.randrange(0, 6 * d), d) for d in dens[:n]})
    levels = sorted({Fraction(rng.randrange(1, d + 1), d) for d in dens[n:]})
    steps = list(zip(jumps, levels))
    used: set = set()
    body = ",".join(f"({_spell(rng, p, used)},{_spell(rng, a, used)})" for p, a in steps)
    return f"steps[{body}]", steps


def test_unreduced_literals_read_as_their_fraction_steps():
    rng = random.Random(97)
    big = 0
    for _ in range(600):
        text, steps = _rand_literal(rng)
        expected = Staircase(steps)
        entry = instance_from_dict({"points": ["x"], "tnorm": "min", "dist": [[text]]})
        read = (parse_staircase(text), evaluate(parse_expression(text), MIN), entry.dist[0][0])
        for got in read:
            assert got == expected, text
            assert hash(got) == hash(expected)
            assert str(got) == str(expected)
            assert got.steps == tuple(steps)
        big += any(a.denominator > 2**64 for _, a in steps)
    assert big > 100


@pytest.mark.parametrize(
    "text,steps",
    [
        ("steps[(2/4,2/4),(4/4,3/4)]", ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(3, 4)))),
        # one denominator per column, so no rescale
        ("steps[ (0/4 , 1/4) , (2/4,2/4) ]", ((Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2)))),
        ("steps [(1,2/8),(2,6/8),(3,8/8)]", ((Fraction(1), Fraction(1, 4)), (Fraction(2), Fraction(3, 4)), (Fraction(3), Fraction(1)))),
        ("steps[(3/6,10/20),(009/06,14/20)]", ((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(7, 10)))),
        ("steps[ ]", ()),
    ],
)
def test_unreduced_spellings_agree_across_the_builders(text, steps):
    # Staircase(steps), the columnar body lexeme and the walk of the plain
    # reader build one state, reduced, in tuples
    expected = Staircase(steps)
    assert type(_lex(text)[1][0]) is list
    with plain_reader():
        walked = parse_staircase(text)
    for got in (parse_staircase(text), evaluate(parse_expression(text), MIN), walked):
        assert (got.jd, got.ld, got.js, got.ls) == (expected.jd, expected.ld, expected.js, expected.ls)
        assert type(got.js) is type(got.ls) is tuple


def test_body_lexeme_columns_are_the_numbers_as_spelled():
    assert _lex("steps[(2/4,3),(1,07/8)]")[1][0] == [[2, 1], [4, 1], [3, 7], [1, 8]]
    assert _lex("linear[ ]")[1][0] == [[], [], [], []]


@pytest.mark.parametrize(
    "text,message",
    [
        ("steps[(1,2/4),(2,1/2)]", "levels must be strictly increasing"),
        ("steps[(2/4,1/3),(1/2,1)]", "jumps must be strictly increasing"),
    ],
)
def test_literals_equal_only_after_reduction_are_rejected(text, message):
    for parse in (parse_staircase, parse_expression):
        with pytest.raises(ParseError, match=re.escape(f"invalid staircase: {message} (column 6)")):
            parse(text)


# ---------------------------------------------------------------------------
# a well-formed ratio-pair body is one lexeme; the walk gives every error


def _spaced(rng, text):
    """text with random whitespace between its tokens."""
    return "".join(tok + rng.choice(("", "", " ", "\t", "\n ")) for tok in _TOKEN.findall(text))


def test_ratio_pair_body_is_one_lexeme():
    # a silent fallback to the walk would pass every other reader test
    rng = random.Random(43)
    for _ in range(300):
        sc = rand_staircase(rng, max_steps=12)
        unreduced, _ = _rand_literal(rng)
        for text in (str(sc), _spaced(rng, str(sc)), unreduced, _spaced(rng, unreduced)):
            tokens = _lex(text)
            assert [type(value) for value, _ in tokens] == [str, list, type(None)], text
            assert tokens[1][1] == text.index("[")
            assert parse_staircase(text) == evaluate(parse_expression(text), MIN)
    assert len(_lex("linear [ (0,0) , (1/2,1) ]")) == 3
    # only right after `steps` or `linear`: elsewhere a body is walked
    assert len(_lex("[(0,1/2)]")) == len(_lex("step [(0,1/2)]")) - 1 == 8


def _instance(text):
    return instance_from_dict({"points": ["x"], "tnorm": "min", "dist": [[text]]})


def _instance_tnorm(text):
    return instance_from_dict({"points": ["x"], "tnorm": text, "dist": [["steps[(0,1)]"]]})


READERS = (
    parse_staircase,
    parse_expression,
    parse_linear,
    parse_tnorm,
    parse_scalar,
    _instance,
    _instance_tnorm,
)


def _texts(body):
    return (
        body,
        f"steps{body}",
        f"linear{body}",
        f"ordinal{body}",
        f"step{body}",
        f"join(steps{body},step(1,1/2))",
        f"conv(steps[(0,1/2)],steps {body} )",
        f"linear{body} x",
        f"ordinal[(0,1,steps{body})]",
        f"ordinal[(0,1,linear {body})]",
        f"steps{body}{body}",
        f"join(linear{body},steps{body})",
        f"1 {body}",
    )


def _assert_readers_agree(body):
    for text in _texts(body):
        fast = [read_outcome(read, text) for read in READERS]
        with plain_reader():
            plain = [read_outcome(read, text) for read in READERS]
        assert fast == plain, text


_BIG = "7" * 4400


@pytest.mark.parametrize(
    "body",
    [
        "[]",
        "[ ]",
        "[(1,2)]",
        "[(1,1/2)]",
        "[[(1,2)]]",
        "[(1,2)",
        "[(1/0,1)]",
        "[(1,1/00)]",
        "[(1,1/)]",
        "[(inf,1)]",
        "[(0,0),(inf,1)]",
        "[(1, inf)]",
        "[(1,1/2),(0/5,1)]",
        f"[(1,1/2),(2,{_BIG})]",
        f"[(1,1/2),(2,1/{_BIG})]",
        f"[(1,1/2),(2,{_BIG}),(3,1/0)]",
        f"[(1,{_BIG})] [(1,{_BIG})]",
        "[(0,0),(1/3,1/2),(2,1)]",
        "1/0",
        "1/",
        "inf",
    ],
)
def test_readers_agree_on_pinned_bodies(body):
    _assert_readers_agree(body)


_WS = st.sampled_from(["", "", "", " ", "  ", "\t", "\n"])
_MUTATIONS = st.lists(
    st.tuples(
        st.integers(0, 200),
        st.sampled_from(["insert", "delete", "replace"]),
        st.sampled_from([*"()[],/ 0123456789", "inf", "x", "00", "prod", "\t"]),
    ),
    max_size=3,
)


_ODD_ENTRIES = ("inf", "1/0", "3/000", "2/", "/2", "1.5", "-1", "1e3", "0/010")


@st.composite
def _ratio(draw, hi):
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(_ODD_ENTRIES))
    value = draw(st.fractions(0, hi, max_denominator=12))
    k = draw(st.sampled_from((1, 1, 1, 2, 3, 10)))
    n, d = value.numerator * k, value.denominator * k
    return str(n) if d == 1 and draw(st.booleans()) else f"{n}/{d}"


def _sort_key(entry):
    return Fraction(entry) if re.fullmatch(r"[0-9]+(/0*[1-9][0-9]*)?", entry) else -1


@st.composite
def _bodies(draw):
    """A `[(r,r),...]` body, spaced and unreduced at random, now and then
    with an odd entry, its pairs sorted (a staircase or knots, often) or
    not, then mutated."""
    n = draw(st.integers(0, 5))
    firsts = draw(st.lists(_ratio(6), min_size=n, max_size=n))
    seconds = draw(st.lists(_ratio(1), min_size=n, max_size=n))
    if draw(st.booleans()):
        firsts.sort(key=_sort_key)
        seconds.sort(key=_sort_key)
    ws = lambda: draw(_WS)  # noqa: E731
    pairs = [f"{ws()}({ws()}{p}{ws()},{ws()}{a}{ws()}){ws()}" for p, a in zip(firsts, seconds)]
    text = f"[{ws()}{','.join(pairs)}{ws()}]"
    for at, how, piece in draw(_MUTATIONS):
        at %= len(text) + 1
        if how == "insert":
            text = text[:at] + piece + text[at:]
        elif how == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + piece + text[at + 1 :]
    return text


@settings(max_examples=300, deadline=None)
@given(_bodies())
def test_readers_agree_with_the_plain_reader(body):
    _assert_readers_agree(body)
