import pickle
import random
from copy import deepcopy
from fractions import Fraction
from math import gcd

import pytest

from ddquant import (
    BOTTOM,
    INF,
    TOP,
    DomainError,
    MonotoneStep,
    ParseError,
    PiecewiseLinear,
    Staircase,
    envelope,
    join_all,
    meet_all,
    one_step,
    parse_staircase,
)
from ddquant.staircase import _from_candidates
from util import (
    eq_oracle,
    format_oracle,
    leq_oracle,
    probe_times,
    rand_monotone,
    rand_staircase,
    rand_unit,
)

F = Fraction


def test_construction_validation():
    with pytest.raises(DomainError):
        Staircase(((F(2), F(1, 2)), (F(1), F(1))))  # jumps out of order
    with pytest.raises(DomainError):
        Staircase(((F(1), F(1, 2)), (F(2), F(1, 3))))  # levels not increasing
    with pytest.raises(DomainError):
        Staircase(((F(1), F(0)),))  # zero level has no jump
    with pytest.raises(DomainError):
        Staircase(((F(-1), F(1, 2)),))
    with pytest.raises(DomainError):
        Staircase(((F(1), F(3, 2)),))


_FIVE_ERRORS = [
    (((-1, 1),), "negative jump -1"),
    (((1, 0),), "level 0 outside"),
    (((1, 2),), "level 2 outside"),
    (((2, 1), (1, 1)), "jumps must be strictly increasing"),
    (((0, 1), (1, 1)), "levels must be strictly increasing"),
    (((F(-1, 2), F(1, 2)),), "negative jump -1/2"),
    (((F(1, 2), F(0)),), "level 0 outside"),
    (((F(1, 2), F(3, 2)),), "level 3/2 outside"),
    (((F(3, 2), F(1, 2)), (F(1, 2), F(3, 4))), "jumps must be strictly increasing"),
    (((F(1, 2), F(1, 2)), (F(3, 2), F(1, 3))), "levels must be strictly increasing"),
    # rising columns, whose least and largest entries sit at their ends
    (((-1, F(1, 4)), (1, F(1, 2))), "negative jump -1"),
    (((0, F(1, 2)), (1, F(3, 4)), (2, F(3, 2))), "level 3/2 outside"),
    (((0, F(-1, 2)), (1, F(1, 2)), (2, 2)), "level -1/2 outside"),
    # columns that fall, whose bad entries are reported before their order
    (((1, F(1, 4)), (-2, F(1, 2)), (3, F(3, 4))), "negative jump -2"),
    (((0, F(1, 2)), (1, 3), (2, F(3, 4))), "level 3 outside"),
    (((0, F(1, 2)), (1, -1), (2, 2)), "level -1 outside"),
    (((-1, 2), (1, 3)), "negative jump -1"),
]


@pytest.mark.parametrize("steps,message", _FIVE_ERRORS)
def test_each_construction_check_from_ints_and_fractions(steps, message):
    with pytest.raises(DomainError, match=message):
        Staircase(steps)


# (jump, level) denominators for rand_staircase; the first is its default.
_DENS = [(4, 12), (3, 10), (5, 7), (6, 8)]


def test_state_is_reduced_and_independent_of_the_denominator():
    rng = random.Random(19)
    for _ in range(200):
        sc = rand_staircase(rng, dens=rng.choice(_DENS))
        assert gcd(sc.jd, *sc.js) == 1 and gcd(sc.ld, *sc.ls) == 1
        k, m = rng.randrange(2, 40), rng.randrange(2, 40)
        scaled = [(j * k, a * m) for j, a in zip(sc.js, sc.ls)]
        for rebuilt in (
            _from_candidates(scaled, sc.jd * k, sc.ld * m),
            Staircase((F(j, sc.jd * k), F(a, sc.ld * m)) for j, a in scaled),
        ):
            assert rebuilt == sc and hash(rebuilt) == hash(sc)
            assert hash(rebuilt) == hash((sc.jd, sc.ld, sc.js, sc.ls))
            assert str(rebuilt) == str(sc)
            assert rebuilt.steps == sc.steps
            assert rebuilt.last_level == sc.last_level
    assert Staircase(((1, 1),)) == Staircase(((F(1), F(1)),)) == Staircase(((F(2, 2), F(3, 3)),))


def test_lattice_oracle_across_denominators():
    rng = random.Random(20)
    for _ in range(150):
        a, b, c = (rand_staircase(rng, dens=rng.choice(_DENS)) for _ in range(3))
        assert a.leq(b) == leq_oracle(a, b)
        assert b.leq(a) == leq_oracle(b, a)
        j = envelope(a.steps + b.steps + c.steps)
        m = meet_all([a, b, c])
        for t in probe_times(a, b, c, j, m):
            assert j(t) == max(a(t), b(t), c(t))
            assert m(t) == min(a(t), b(t), c(t))


def test_call_left_continuity():
    sc = Staircase(((F(1), F(1, 2)), (F(2), F(1))))
    assert sc(F(0)) == 0
    assert sc(F(1)) == 0          # value at the jump is the value before it
    assert sc(F(3, 2)) == F(1, 2)
    assert sc(F(2)) == F(1, 2)
    assert sc(F(5, 2)) == 1
    assert sc(INF) == 1
    assert sc.value_after(F(1)) == F(1, 2)
    assert sc.value_after(F(2)) == 1


def test_evaluators_reject_negative_time_and_level_outside_unit():
    ramp = PiecewiseLinear(((0, 0), (1, 1)))
    for evaluate in (TOP, TOP.value_after, MonotoneStep.constant(1), ramp):
        with pytest.raises(DomainError, match="time must be non-negative, got -1$"):
            evaluate(-1)
    assert ramp(1) == 1 and type(ramp(F(1, 2))) is F
    for level in (-1, 2):
        with pytest.raises(DomainError, match=f"value must lie in \\[0, 1\\], got {level}$"):
            TOP.flat(level)


def test_bottom_top():
    assert BOTTOM(INF) == 0
    assert TOP(F(1, 100)) == 1
    assert TOP(F(0)) == 0
    assert BOTTOM.leq(TOP)
    assert not TOP.leq(BOTTOM)


def test_one_step():
    assert one_step(F(0), F(0)) == BOTTOM
    assert one_step(F(3), F(0)) == BOTTOM
    assert one_step(F(0), F(1)) == TOP
    with pytest.raises(DomainError):
        one_step(INF, F(1, 2))


def test_join_meet_worked_values():
    a = one_step(F(1), F(1, 2))
    b = one_step(F(2), F(1))
    assert a.join(b) == Staircase(((F(1), F(1, 2)), (F(2), F(1))))
    assert a.meet(b) == Staircase(((F(2), F(1, 2)),))


def test_lattice_against_pointwise_oracle():
    rng = random.Random(11)
    for _ in range(150):
        a = rand_staircase(rng)
        b = rand_staircase(rng)
        j = a.join(b)
        m = a.meet(b)
        for t in probe_times(a, b, j, m):
            assert j(t) == max(a(t), b(t))
            assert m(t) == min(a(t), b(t))
        assert a.leq(b) == all(a(t) <= b(t) for t in probe_times(a, b))


def test_meet_join_all_families():
    rng = random.Random(12)
    for _ in range(60):
        fam = [rand_staircase(rng) for _ in range(rng.randrange(1, 5))]
        j = join_all(fam)
        m = meet_all(fam)
        for t in probe_times(*fam):
            assert j(t) == max(sc(t) for sc in fam)
            assert m(t) == min(sc(t) for sc in fam)
    assert join_all([]) == BOTTOM
    assert meet_all([]) == TOP
    assert meet_all([BOTTOM, TOP]) == BOTTOM


def test_join_all_against_envelope_of_steps():
    # join_all rescales the integer images and never builds the `steps`
    # views (the shared BOTTOM may hold them from other tests); envelope of
    # the pooled views is the earlier definition.  Families may be empty,
    # hold BOTTOM and mix denominators; every other one is a generator.
    rng = random.Random(18)
    for k in range(2000):
        fam = [rand_staircase(rng, dens=rng.choice(_DENS)) for _ in range(rng.randrange(0, 5))]
        if rng.randrange(4) == 0:
            fam.insert(rng.randrange(len(fam) + 1), BOTTOM)
        got = join_all(iter(fam) if k % 2 else fam)
        assert not any("steps" in vars(sc) for sc in fam if sc is not BOTTOM)
        want = envelope([step for sc in fam for step in sc.steps])
        assert got == want and str(got) == str(want)


def test_meet_with_idempotent_absorption():
    # meets agree with the left-continuous pointwise minimum even when the
    # minimum lands between levels of the two arguments
    a = Staircase(((F(0), F(1, 3)), (F(2), F(2, 3))))
    b = Staircase(((F(1), F(1, 2)),))
    m = a.meet(b)
    assert m == Staircase(((F(1), F(1, 3)), (F(2), F(1, 2))))


def test_envelope_is_pointwise_sup():
    rng = random.Random(13)
    for _ in range(100):
        pts = [(rand_unit(rng, include_zero=True) * 4, rand_unit(rng, include_zero=True))
               for _ in range(rng.randrange(0, 8))]
        sc = envelope(pts)
        steps = [one_step(p, a) for p, a in pts]
        if steps:
            assert sc == join_all(steps)
        else:
            assert sc == BOTTOM


def test_flat_worked_value_and_galois():
    sc = Staircase(((F(1), F(1, 2)), (F(2), F(1))))
    assert sc.flat(F(3, 4)) == 2
    assert sc.flat(F(1, 4)) == 1
    assert sc.flat(F(1)) is INF
    rng = random.Random(14)
    for _ in range(80):
        sc = rand_staircase(rng)
        for a in [F(k, 12) for k in range(13)]:
            fl = sc.flat(a)
            for p in probe_times(sc):
                # Galois property: phi(p) <= a iff p <= flat(a)
                assert (sc(p) <= a) == (p <= fl)


def test_decompose_rejoins():
    rng = random.Random(15)
    for _ in range(50):
        sc = rand_staircase(rng)
        parts = [one_step(p, a) for p, a in sc.steps]
        assert join_all(parts) == sc


def test_parse_format_round_trip():
    rng = random.Random(16)
    for _ in range(80):
        sc = rand_staircase(rng)
        assert parse_staircase(str(sc)) == sc
    assert str(BOTTOM) == "steps[]"
    assert str(TOP) == "steps[(0,1)]"


def test_printing_from_the_images_matches_the_fraction_oracle():
    # Candidates over denominators with spare factors, some past 2**64, so
    # the image's denominator differs from each value's own.
    rng = random.Random(83)
    # Fresh copies of the shared BOTTOM and TOP, whose views other tests read.
    cases = [Staircase(), Staircase(((0, 1),))]
    assert cases == [BOTTOM, TOP]
    for _ in range(1200):
        jd = rng.choice((1, 2, 6, 12, 60, 2**64 + 13)) * rng.randrange(1, 40)
        ld = rng.choice((1, 4, 10, 36, 3**41)) * rng.randrange(1, 40)
        cands = sorted(
            (rng.randrange(0, 6 * jd), rng.randrange(0, ld + 1))
            for _ in range(rng.randrange(0, 12))
        )
        cases.append(_from_candidates(cands, jd, ld))
    for sc in cases:
        text = str(sc)
        assert "steps" not in vars(sc)  # printed without the Fraction views
        assert text == format_oracle(sc)
    assert any(sc.jd > 2**64 for sc in cases) and any(sc.ld > 2**64 for sc in cases)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_staircase("steps[(1,1/2")
    with pytest.raises(ParseError):
        parse_staircase("nope[(1,1)]")
    with pytest.raises((ParseError, DomainError)):
        parse_staircase("steps[(inf,1)]")


def test_equality_is_semantic():
    # two texts for the same function normalize to the same tuple
    a = parse_staircase("steps[(1,1/2),(2,1)]")
    b = Staircase(((F(1), F(1, 2)), (F(2), F(1))))
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("text", ["steps[]", "steps[(0,1)]", "steps[(1/3,1/2),(2,1)]"])
def test_pickle_and_deepcopy_keep_value_and_hash(text):
    sc = parse_staircase(text)
    sc.steps  # a cached view travels in the state too
    for copied in (pickle.loads(pickle.dumps(sc)), deepcopy(sc)):
        assert copied is not sc and copied == sc and hash(copied) == hash(sc)
        assert str(copied) == text
        assert {sc: 1, copied: 2} == {sc: 2}


# ---------------------------------------------------------------------------
# MonotoneStep


def test_monotone_validation():
    with pytest.raises(DomainError):
        MonotoneStep((F(1),), (F(0),), (F(1, 2),))  # first breakpoint not 0
    with pytest.raises(DomainError):
        MonotoneStep((F(0), F(1)), (F(0), F(1, 4)), (F(1, 2), F(1, 3)))  # not monotone
    with pytest.raises(DomainError):
        MonotoneStep((F(0),), (F(0),), (F(1, 2),), F(1, 4))  # infinity below last cell


@pytest.mark.parametrize("args,message", [
    (((F(0), F(1)), (F(0),), (F(0), F(1))), "breakpoints and value tuples must have equal length"),
    (((F(0), F(0)), (F(0), F(0)), (F(0), F(0))), "breakpoints must be strictly increasing"),
    (((F(0),), (F(0),), (F(3, 2),)), "values must lie in [0, 1]"),
])
def test_monotone_shape_checks_raise_their_messages(args, message):
    with pytest.raises(DomainError) as exc:
        MonotoneStep(*args)
    assert str(exc.value) == message


def test_monotone_call_semantics():
    m = MonotoneStep((F(0), F(1)), (F(1, 4), F(1, 2)), (F(1, 4), F(3, 4)), F(1))
    assert m(F(0)) == F(1, 4)
    assert m(F(1, 2)) == F(1, 4)
    assert m(F(1)) == F(1, 2)      # point value at the breakpoint
    assert m(F(3, 2)) == F(3, 4)
    assert m(INF) == 1


def test_monotone_canonical_merge():
    # a breakpoint whose point value equals both neighbouring cells vanishes
    m = MonotoneStep((F(0), F(1)), (F(0), F(1, 2)), (F(1, 2), F(1, 2)))
    assert m.breakpoints == (F(0),)
    assert m.cell_values == (F(1, 2),)


def test_from_staircase_round_trip():
    rng = random.Random(17)
    for _ in range(80):
        sc = rand_staircase(rng)
        m = MonotoneStep.from_staircase(sc)
        assert m.regularize() == sc
        for t in probe_times(sc):
            assert m(t) == sc(t)


def test_regularize_drops_infinity_and_right_limits():
    # right-continuous at 0 with a positive value: regularization floors it
    m = MonotoneStep((F(0),), (F(1, 2),), (F(1, 2),), F(1))
    reg = m.regularize()
    assert reg == one_step(F(0), F(1, 2))
    assert reg(INF) == F(1, 2)  # the infinity value 1 is not a staircase feature


def test_regularize_random_is_largest_below():
    rng = random.Random(18)
    for _ in range(100):
        m = rand_monotone(rng)
        reg = m.regularize()
        finite = list(m.breakpoints)
        probes = finite + [(a + b) / 2 for a, b in zip(finite, finite[1:])]
        probes.append(finite[-1] + 1)
        for t in probes:
            assert reg(t) <= m(t)
        # largest below: inside every open cell the two maps agree exactly
        for k, b in enumerate(m.breakpoints):
            nxt = m.breakpoints[k + 1] if k + 1 < len(m.breakpoints) else b + 2
            assert reg((b + nxt) / 2) == m.cell_values[k]
