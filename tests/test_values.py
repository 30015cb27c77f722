"""The value-quantale protocol and the one quantaloid-law checker, on all
three instances: [0, inf], staircases and finite tables."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ddquant import BOTTOM, INF, MIN, ONE, TOP, ZERO, Staircase, find_nondiagonal_below, one_step
from ddquant.axis import plus_implies
from ddquant.finiteq import drastic_chain
from ddquant.values import NUMERIC, Staircases, downset_equality, quantaloid_laws
from util import NILPOTENT, TNORMS, quantaloid_laws_plain, rand_staircase

F = Fraction


def _homs(q, objects, pool):
    """Every hom-set between the objects, sampled from the pool."""
    return {(p, r): tuple(d for d in pool if q.divides(p, d) and q.divides(r, d))
            for p in objects for r in objects}


@pytest.mark.parametrize(
    "p,q,want",
    [(F(1, 2), F(3), F(5, 2)), (F(3), F(1, 2), ZERO), (ONE, INF, INF), (INF, INF, ZERO),
     (INF, ONE, ZERO)],
)
def test_plus_implies_is_truncated_subtraction(p, q, want):
    assert plus_implies(p, q) == want


def test_join_and_bottom_of_each_instance():
    cases = [
        (NUMERIC, [ZERO, F(1, 2), F(3), INF]),
        (Staircases(MIN), [BOTTOM, TOP, one_step(1, F(1, 2)), one_step(0, F(1, 3))]),
        (drastic_chain(), ["0", "a", "b", "1"]),
    ]
    for q, values in cases:
        for a in values:
            assert q.below(q.bottom, a)
            for b in values:
                j = q.join(a, b)
                assert q.below(a, j) and q.below(b, j)
                assert all(q.below(j, c) for c in values if q.below(a, c) and q.below(b, c))


def test_numeric_quantale_is_a_divisible_quantaloid():
    values = (ZERO, F(1, 2), ONE, F(3), INF)
    homs = _homs(NUMERIC, values, values)
    laws = quantaloid_laws(NUMERIC, homs)
    assert laws.ok and not laws.join_gaps
    assert laws == quantaloid_laws_plain(NUMERIC, homs)
    down = downset_equality(NUMERIC, values, homs)
    assert down.divisible and down.equal_everywhere


_STAIRCASE_TNORMS = [*TNORMS, ("nilpotent", NILPOTENT)]


@pytest.mark.parametrize("name,t", _STAIRCASE_TNORMS)
def test_one_step_objects_have_their_down_sets_as_diagonals(name, t):
    # the theorem's easy direction: below a one-step phi every staircase is
    # a diagonal, and the sampled diagonals obey the quantaloid laws
    rng = random.Random(16)
    q = Staircases(t)
    objects = tuple(dict.fromkeys(
        one_step(F(rng.randrange(0, 12), 4), F(rng.randrange(1, 13), 12)) for _ in range(3)
    ))
    pool = tuple(dict.fromkeys(
        [BOTTOM, *objects,
         *(rand_staircase(rng, max_steps=3).meet(p) for p in objects for _ in range(3))]
    ))
    homs = _homs(q, objects, pool)
    laws = quantaloid_laws(q, homs)
    assert laws.ok, laws.violations[:3]
    assert laws == quantaloid_laws_plain(q, homs)
    assert downset_equality(q, pool, homs).equal_everywhere


@pytest.mark.parametrize("name,t", _STAIRCASE_TNORMS)
def test_quantaloid_laws_decide_each_divisibility_once(name, t, monkeypatch):
    # composites outside the sampled hom-sets are members when divisible by
    # both ends; each (p, d) is decided once, with the plain checker's report
    rng = random.Random(18)
    q = Staircases(t)
    objects = (one_step(F(1, 2), F(2, 3)), Staircase(((F(0), F(1, 4)), (F(1), F(3, 4)))))
    pool = tuple(dict.fromkeys(
        [BOTTOM, *objects, *(rand_staircase(rng, max_steps=3).meet(p) for p in objects for _ in range(4))]
    ))
    homs = _homs(q, objects, pool)
    divided = Counter()
    divides = Staircases.divides
    monkeypatch.setattr(Staircases, "divides", lambda self, p, d: divided.update([(p, d)]) or divides(self, p, d))
    laws = quantaloid_laws(q, homs)
    assert divided and max(divided.values()) == 1
    monkeypatch.undo()
    assert laws == quantaloid_laws_plain(q, homs)


@pytest.mark.parametrize("name,t", _STAIRCASE_TNORMS)
def test_multi_step_object_misses_its_witness(name, t):
    # the hard direction: the witness lies below phi but is no diagonal on it
    rng = random.Random(17)
    q = Staircases(t)
    phis = [p for p in (rand_staircase(rng, max_steps=4) for _ in range(8)) if len(p.steps) > 1]
    assert phis
    for phi in phis:
        witness = find_nondiagonal_below(t, phi)
        pool = (BOTTOM, witness, phi)
        homs = _homs(q, (phi,), pool)
        assert homs[phi, phi] == (BOTTOM, phi)
        laws = quantaloid_laws(q, homs)
        assert laws.ok and laws == quantaloid_laws_plain(q, homs)
        down = downset_equality(q, pool, homs)
        assert not down.divisible
        assert down.mismatched_pairs == ((phi, phi),)
