import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddquant import (
    BOTTOM,
    MIN,
    TOP,
    PreconditionError,
    Staircase,
    convolve,
    diagonal_compose,
    find_nondiagonal_below,
    flat_criterion_min,
    implication,
    is_diagonal_between,
    is_divisible_by,
    one_step,
    residual,
)
from util import NILPOTENT, TNORMS, rand_staircase

F = Fraction


def test_worked_divisibility():
    phi = Staircase(((F(0), F(1, 2)), (F(1), F(1))))
    xi = one_step(F(1), F(1))
    assert not is_divisible_by(MIN, xi, phi)
    assert residual(MIN, xi, phi) == Staircase(((F(1), F(1, 2)), (F(2), F(1))))
    # the residual itself is always divisible
    assert is_divisible_by(MIN, residual(MIN, xi, phi), phi)


@pytest.mark.parametrize("name,t", TNORMS)
def test_one_step_divisor_divides_everything_below(name, t):
    rng = random.Random(41)
    for _ in range(30):
        phi = one_step(
            Fraction(rng.randrange(0, 12), 4), Fraction(rng.randrange(1, 13), 12)
        )
        for _ in range(20):
            xi = rand_staircase(rng, max_steps=4).meet(phi)
            assert xi.leq(phi)
            assert is_divisible_by(t, xi, phi)


@pytest.mark.parametrize("name,t", TNORMS)
def test_divisible_iff_residual_fixed_point(name, t):
    rng = random.Random(42)
    for _ in range(40):
        phi = rand_staircase(rng, max_steps=4)
        xi = rand_staircase(rng, max_steps=4)
        fixed = residual(t, xi, phi)
        assert fixed.leq(xi)
        assert is_divisible_by(t, xi, phi) == (fixed == xi)
        # anything of the form phi * x is divisible by phi
        product = convolve(t, phi, xi)
        assert is_divisible_by(t, product, phi)


def test_everything_divisible_by_top_and_bottom_cases():
    rng = random.Random(43)
    for _ in range(20):
        xi = rand_staircase(rng)
        for _, t in TNORMS:
            assert is_divisible_by(t, xi, TOP)
            assert is_divisible_by(t, BOTTOM, xi)
            # only the bottom is divisible by the bottom
            assert is_divisible_by(t, xi, BOTTOM) == (xi == BOTTOM)


def test_is_diagonal_between():
    d = one_step(F(2), F(1, 2))
    p = one_step(F(1), F(1, 2))
    q = one_step(F(0), F(1))
    assert is_diagonal_between(MIN, d, p, q)
    xi = one_step(F(1), F(1))
    phi = Staircase(((F(0), F(1, 2)), (F(1), F(1))))
    assert not is_diagonal_between(MIN, xi, phi, TOP)


def test_diagonal_compose_worked_value():
    mid = one_step(F(1), F(1, 2))
    d = one_step(F(2), F(1, 2))
    e = one_step(F(2), F(1, 2))
    out = diagonal_compose(MIN, e, d, mid)
    assert out == one_step(F(3), F(1, 2))


def test_diagonal_compose_preconditions():
    mid = one_step(F(1), F(1, 2))
    bad = one_step(F(0), F(1))  # not below mid, so not divisible by it
    good = one_step(F(2), F(1, 2))
    with pytest.raises(PreconditionError, match="d is not divisible"):
        diagonal_compose(MIN, good, bad, mid)
    with pytest.raises(PreconditionError, match="e is not divisible"):
        diagonal_compose(MIN, bad, good, mid)


@pytest.mark.parametrize("name,t", TNORMS)
def test_diagonal_compose_formulas_agree(name, t):
    rng = random.Random(44)
    for _ in range(30):
        mid = rand_staircase(rng, max_steps=3)
        d = convolve(t, mid, rand_staircase(rng, max_steps=3))
        e = convolve(t, mid, rand_staircase(rng, max_steps=3))
        out = diagonal_compose(t, e, d, mid)
        left = convolve(t, implication(t, mid, e), d)
        right = convolve(t, e, implication(t, mid, d))
        assert out == left == right


@pytest.mark.parametrize("name,t", TNORMS)
def test_composition_with_identity(name, t):
    rng = random.Random(45)
    for _ in range(30):
        mid = rand_staircase(rng, max_steps=3)
        d = convolve(t, mid, rand_staircase(rng, max_steps=3))
        # composing with the hom-set identity (mid itself) changes nothing
        assert diagonal_compose(t, d, mid, mid) == d
        assert diagonal_compose(t, mid, d, mid) == d


def test_flat_criterion_worked_example():
    phi = one_step(F(1), F(1, 2))
    xi = Staircase(((F(2), F(1, 2)),))
    assert flat_criterion_min(xi, phi)
    assert is_divisible_by(MIN, xi, phi)
    xi2 = one_step(F(1), F(1))
    phi2 = Staircase(((F(0), F(1, 2)), (F(1), F(1))))
    assert not flat_criterion_min(xi2, phi2)


def test_flat_criterion_probes_each_level_once(monkeypatch):
    # flat adjoints are constant from one level up to the next, so the
    # criterion probes 0, 1 and the levels of phi and xi, nothing between
    phi = Staircase(((F(0), F(1, 4)), (F(1), F(1, 2)), (F(2), F(1))))
    xi = convolve(MIN, phi, one_step(F(1), F(3, 4)))
    calls = []
    real = Staircase.flat

    def spy(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(Staircase, "flat", spy)
    assert flat_criterion_min(xi, phi)
    probes = {F(0), F(1), *phi.levels, *xi.levels}
    # phi's and xi's flat at every probe, then psi's in the re-check
    assert len(calls) == 3 * len(probes)
    assert set(calls) == probes


def test_flat_criterion_agrees_with_decision_procedure():
    rng = random.Random(46)
    for _ in range(200):
        phi = rand_staircase(rng, max_steps=4)
        xi = rand_staircase(rng, max_steps=4)
        assert flat_criterion_min(xi, phi) == is_divisible_by(MIN, xi, phi)
        # and on pairs biased towards divisibility
        xv = convolve(MIN, phi, rand_staircase(rng, max_steps=3))
        assert flat_criterion_min(xv, phi) == is_divisible_by(MIN, xv, phi) == True


@pytest.mark.parametrize("name,t", TNORMS)
def test_find_nondiagonal_below(name, t):
    rng = random.Random(47)
    assert find_nondiagonal_below(t, BOTTOM) is None
    assert find_nondiagonal_below(t, one_step(F(1), F(1, 2))) is None
    found = 0
    for _ in range(40):
        phi = rand_staircase(rng, max_steps=5, allow_empty=False)
        if len(phi.steps) < 2:
            continue
        witness = find_nondiagonal_below(t, phi)
        found += 1
        assert witness is not None
        assert witness.leq(phi)
        assert not is_divisible_by(t, witness, phi)
    assert found >= 20


@st.composite
def multi_step_staircases(draw):
    n = draw(st.integers(2, 6))
    jumps = draw(st.lists(st.fractions(0, 6, max_denominator=12), min_size=n, max_size=n, unique=True))
    levels = draw(st.lists(st.fractions(F(1, 60), 1, max_denominator=60), min_size=n, max_size=n, unique=True))
    return Staircase(tuple(zip(sorted(jumps), sorted(levels))))


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
@given(phi=multi_step_staircases())
@settings(max_examples=60, deadline=None)
def test_witness_is_the_first_truncation(name, t, phi):
    witness = find_nondiagonal_below(t, phi)
    assert witness == Staircase(phi.steps[1:])
    assert witness.leq(phi)
    assert not is_divisible_by(t, witness, phi)


def test_truncation_is_the_first_witness():
    # for a two-step staircase the tail truncation is the found witness
    phi = Staircase(((F(1), F(1, 2)), (F(2), F(1))))
    w = find_nondiagonal_below(MIN, phi)
    assert w == Staircase(((F(2), F(1)),))
