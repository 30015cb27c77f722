import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddquant import LUK, MIN, PROD, DomainError, ParseError, Piece, TNorm, format_tnorm, parse_tnorm
from util import NILPOTENT, ORDINAL, TNORMS

units = st.fractions(min_value=0, max_value=1, max_denominator=60)

WITH_NILPOTENT = [*TNORMS, ("nilpotent", NILPOTENT)]


def test_min_prod_luk_values():
    a, b = Fraction(1, 2), Fraction(1, 3)
    assert MIN.apply(a, b) == Fraction(1, 3)
    assert PROD.apply(a, b) == Fraction(1, 6)
    assert LUK.apply(a, b) == Fraction(0)
    assert LUK.apply(Fraction(3, 4), Fraction(1, 2)) == Fraction(1, 4)


def test_implies_values():
    assert MIN.implies(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 3)
    assert MIN.implies(Fraction(1, 3), Fraction(1, 2)) == 1
    assert PROD.implies(Fraction(1, 2), Fraction(1, 3)) == Fraction(2, 3)
    assert LUK.implies(Fraction(3, 4), Fraction(1, 2)) == Fraction(3, 4)
    assert LUK.implies(Fraction(1, 2), Fraction(0)) == Fraction(1, 2)


def test_ordinal_sum_worked_value():
    # inside the rescaled product piece [1/5, 3/5]
    assert ORDINAL.apply(Fraction(3, 10), Fraction(4, 10)) == Fraction(1, 4)
    # straddling pieces falls back to minimum
    assert ORDINAL.apply(Fraction(3, 10), Fraction(8, 10)) == Fraction(3, 10)


def test_idempotents():
    assert MIN.is_idempotent(Fraction(1, 3))
    assert not PROD.is_idempotent(Fraction(1, 3))
    assert PROD.is_idempotent(Fraction(0)) and PROD.is_idempotent(Fraction(1))
    # gap between the ordinal pieces is idempotent, interiors are not
    assert ORDINAL.is_idempotent(Fraction(13, 20))
    assert not ORDINAL.is_idempotent(Fraction(3, 10))
    assert not ORDINAL.is_idempotent(Fraction(8, 10))


@pytest.mark.parametrize("name,t", WITH_NILPOTENT)
@given(a=units, b=units, c=units)
@settings(max_examples=60, deadline=None)
def test_tnorm_laws(name, t, a, b, c):
    assert t.apply(a, b) == t.apply(b, a)
    assert t.apply(a, t.apply(b, c)) == t.apply(t.apply(a, b), c)
    assert t.apply(a, Fraction(1)) == a
    assert t.apply(a, Fraction(0)) == 0
    if b <= c:
        assert t.apply(a, b) <= t.apply(a, c)


@pytest.mark.parametrize("name,t", WITH_NILPOTENT)
@given(a=units, b=units, c=units)
@settings(max_examples=60, deadline=None)
def test_residuation_adjunction(name, t, a, b, c):
    # c <= a -> b  iff  a * c <= b
    assert (c <= t.implies(a, b)) == (t.apply(a, c) <= b)


def _rescaled_apply(t: TNorm, a: Fraction, b: Fraction) -> Fraction:
    """The t-norm by rescaling its piece to [0, 1]: u * v or max(0, u + v - 1)
    there, min(a, b) elsewhere."""
    a, b = min(a, b), max(a, b)
    for p in t.pieces:
        if p.lo <= a and b <= p.hi:
            w = p.hi - p.lo
            u, v = (a - p.lo) / w, (b - p.lo) / w
            return p.lo + w * (u * v if p.kind == "prod" else max(Fraction(0), u + v - 1))
    return a


def _rescaled_implies(t: TNorm, a: Fraction, b: Fraction) -> Fraction:
    """The residuum by rescaling: v / u or 1 - u + v on the piece holding
    b < a, b off every piece, 1 for a <= b."""
    if a <= b:
        return Fraction(1)
    for p in t.pieces:
        if p.lo <= b and a <= p.hi:
            w = p.hi - p.lo
            u, v = (a - p.lo) / w, (b - p.lo) / w
            return p.lo + w * (v / u if p.kind == "prod" else 1 - u + v)
    return b


@pytest.mark.parametrize("name,t", WITH_NILPOTENT)
def test_piece_endpoints_and_midpoints(name, t):
    """Every endpoint and midpoint of every piece, with 0 and 1: the direct
    formulas agree with the rescaled ones, and the laws and the adjunction
    hold on every triple."""
    ends = {e for p in t.pieces for e in (p.lo, p.hi, (p.lo + p.hi) / 2)}
    grid = sorted({Fraction(0), Fraction(1), *ends})
    for a in grid:
        for b in grid:
            ab = t.apply(a, b)
            assert ab == _rescaled_apply(t, a, b) == t.apply(b, a)
            assert t.implies(a, b) == _rescaled_implies(t, a, b)
            for c in grid:
                assert t.apply(a, t.apply(b, c)) == t.apply(ab, c)
                assert (c <= t.implies(a, b)) == (t.apply(a, c) <= b)
                if b <= c:
                    assert ab <= t.apply(a, c)


@pytest.mark.parametrize("name,t", TNORMS)
@given(a=units)
@settings(max_examples=30, deadline=None)
def test_idempotent_definition(name, t, a):
    assert t.is_idempotent(a) == (t.apply(a, a) == a)


def test_parse_format_round_trip():
    for text in ("min", "prod", "luk", "ordinal[(1/5,3/5,prod),(7/10,1,luk)]"):
        t = parse_tnorm(text)
        assert format_tnorm(t) == text
        assert parse_tnorm(format_tnorm(t)) == t
    # a single piece over [0, 1] is the named t-norm
    for text, name in (("ordinal[(0,1,prod)]", "prod"), ("ordinal[(0,1,luk)]", "luk")):
        assert format_tnorm(parse_tnorm(text)) == name


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_tnorm("frobnicate")
    with pytest.raises(ParseError):
        parse_tnorm("ordinal[(1/2,1/4,prod)]")
    with pytest.raises(ParseError):
        parse_tnorm("ordinal[(0,1/2,nope)]")


def test_overlapping_pieces_rejected():
    with pytest.raises(DomainError):
        TNorm((Piece(Fraction(0), Fraction(1, 2), "prod"),
               Piece(Fraction(1, 3), Fraction(1), "luk")))
    with pytest.raises(DomainError):
        Piece(Fraction(1, 2), Fraction(1, 2), "prod")


def test_random_ordinal_sums_are_tnorms():
    rng = random.Random(7)
    for _ in range(10):
        cuts = sorted(rng.sample([Fraction(k, 12) for k in range(13)], 4))
        if cuts[0] == cuts[1] or cuts[2] == cuts[3]:
            continue
        t = TNorm((Piece(cuts[0], cuts[1], rng.choice(["prod", "luk"])),
                   Piece(cuts[2], cuts[3], rng.choice(["prod", "luk"]))))
        grid = [Fraction(k, 8) for k in range(9)]
        for a in grid:
            for b in grid:
                ab = t.apply(a, b)
                assert ab <= min(a, b)
                assert t.apply(a, b) == t.apply(b, a)
                for c in grid:
                    assert t.apply(a, t.apply(b, c)) == t.apply(t.apply(a, b), c)
                    assert (c <= t.implies(a, b)) == (t.apply(a, c) <= b)
