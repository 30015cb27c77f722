import operator
import random
import re
from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt, lcm

import numpy as np
import pytest

from ddquant import (
    BOTTOM,
    INF,
    LUK,
    MIN,
    PROD,
    TOP,
    DomainError,
    MonotoneStep,
    Staircase,
    convolve,
    convolve_monotone,
    implication,
    join_all,
    one_step,
    parse_staircase,
    parse_tnorm,
    residual,
    step_implication,
    vertical_distance,
    vertical_distance_grid,
    vertical_distance_sup_below,
)
from ddquant import quantale
from ddquant.quantale import _FAST_CUTOFF, _INT64_LIMIT
from ddquant.values import Staircases, ValueQuantale
from util import (
    NILPOTENT,
    ORDINAL,
    TNORMS,
    conv_compare_oracle,
    conv_point_oracle,
    convolve_plain,
    delay_step,
    imp_point_oracle,
    implication_plain,
    monotone_conv_at_plain,
    probe_times,
    rand_monotone,
    rand_staircase,
    rand_time,
    rand_unit,
    step_implication_plain,
)

F = Fraction


def test_convolve_worked_values():
    assert convolve(PROD, one_step(F(1), F(1, 2)), one_step(F(2), F(1, 3))) == \
        one_step(F(3), F(1, 6))
    phi = Staircase(((F(1), F(1, 2)), (F(2), F(1))))
    assert convolve(MIN, phi, one_step(F(1), F(1, 2))) == one_step(F(2), F(1, 2))
    assert convolve(LUK, one_step(F(0), F(1, 2)), one_step(F(0), F(1, 2))) == BOTTOM


def test_convolve_unit_and_bottom():
    rng = random.Random(21)
    for _ in range(40):
        sc = rand_staircase(rng)
        for _, t in TNORMS:
            assert convolve(t, sc, TOP) == sc
            assert convolve(t, sc, BOTTOM) == BOTTOM


@pytest.mark.parametrize("name,t", TNORMS)
def test_convolve_against_pointwise_oracle(name, t):
    rng = random.Random(22)
    for _ in range(60):
        a = rand_staircase(rng)
        b = rand_staircase(rng)
        c = convolve(t, a, b)
        for at in probe_times(a, b, c):
            assert c(at) == conv_point_oracle(t, a, b, at)


@pytest.mark.parametrize("name,t", TNORMS)
def test_quantale_laws(name, t):
    rng = random.Random(23)
    for _ in range(50):
        a = rand_staircase(rng, max_steps=4)
        b = rand_staircase(rng, max_steps=4)
        c = rand_staircase(rng, max_steps=4)
        assert convolve(t, a, b) == convolve(t, b, a)
        assert convolve(t, a, convolve(t, b, c)) == convolve(t, convolve(t, a, b), c)
        assert convolve(t, a, b.join(c)) == convolve(t, a, b).join(convolve(t, a, c))


def test_fast_path_agrees_with_plain():
    rng = random.Random(24)
    jumps = sorted(rng.sample([F(k, 7) for k in range(1, 600)], 70))
    levels = sorted(rng.sample([F(k, 480) for k in range(1, 481)], 70))
    big1 = Staircase(tuple(zip(jumps, levels)))
    jumps2 = sorted(rng.sample([F(k, 5) for k in range(1, 500)], 70))
    levels2 = sorted(rng.sample([F(k, 360) for k in range(1, 361)], 70))
    big2 = Staircase(tuple(zip(jumps2, levels2)))
    for name, t in TNORMS + [("nilpotent", NILPOTENT)]:
        assert convolve(t, big1, big2) == convolve_plain(t, big1, big2)


def test_step_pairs_past_the_budget_raise_before_scaling(monkeypatch):
    # _scale is the first step of every kernel; the spy stops both
    # operations there, so no array is built on either side of the cap.
    n = isqrt(quantale._MAX_PAIRS)
    assert n * n == quantale._MAX_PAIRS
    square = Staircase([(F(k), F(k, n + 1)) for k in range(1, n + 1)])
    wide = Staircase([(F(k), F(k, n + 1)) for k in range(1, n + 2)])

    class Scaled(Exception):
        pass

    def spy(*args):
        raise Scaled

    monkeypatch.setattr(quantale, "_scale", spy)
    for op in (convolve, implication):
        with pytest.raises(DomainError, match=f"^{n + 1} x {n} step pairs exceed the budget"):
            op(MIN, wide, square)
        with pytest.raises(Scaled):  # at the cap itself
            op(MIN, square, square)


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_convolve_differential_around_cutoff(name, t):
    rng = random.Random(27)
    above_cutoff = set()
    for _ in range(80):
        a = rand_staircase(rng, max_steps=12, allow_empty=False)
        b = rand_staircase(rng, max_steps=12, allow_empty=False)
        above_cutoff.add(len(a.steps) * len(b.steps) >= _FAST_CUTOFF)
        assert convolve(t, a, b) == convolve_plain(t, a, b)
    assert above_cutoff == {False, True}


TOUCHING = parse_tnorm("ordinal[(0,1/2,luk),(1/2,1,prod)]")
EDGE_TNORMS = TNORMS + [("nilpotent", NILPOTENT), ("touching", TOUCHING)]


def _edge_levels(t) -> list[F]:
    """0, 1, every piece endpoint, and one level between each pair of
    neighbouring ones."""
    ends = sorted({F(0), F(1), *(e for pc in t.pieces for e in (pc.lo, pc.hi))})
    return sorted([*ends, *((a + b) / 2 for a, b in zip(ends, ends[1:]))])


@pytest.mark.parametrize("name,t", EDGE_TNORMS)
def test_piece_formulas_at_their_edges(name, t, monkeypatch):
    levels = _edge_levels(t)
    sc = Staircase(tuple(zip(map(F, range(1, len(levels))), levels[1:])))
    s = quantale._scale(t, sc)
    scaled = [0, *s.images[0][1]]
    assert scaled == [lv * s.ld for lv in levels]
    pairs = list(product(range(len(levels)), repeat=2))
    want = [t.apply(levels[i], levels[k]) * s.ld * s.m for i, k in pairs]
    apply = quantale._int_apply(s)
    assert [apply(scaled[i], scaled[k]) for i, k in pairs] == want
    for arrays in (np.int64, object):
        a = np.array([scaled[i] for i, _ in pairs], dtype=arrays)
        b = np.array([scaled[k] for _, k in pairs], dtype=arrays)
        assert quantale._applied(s, a, b).tolist() == want
    # both kernels, on both sides of the int64 guard
    dtypes = []
    dtype = quantale._dtype
    monkeypatch.setattr(quantale, "_dtype", lambda *b: dtypes.append(dtype(*b)) or dtypes[-1])
    for top in (F(len(levels)), F(_INT64_LIMIT // 2)):
        phi = Staircase(tuple(zip([*map(F, range(1, len(levels) - 1)), top], levels[1:])))
        psi = Staircase(tuple(zip([F(k, 3) for k in range(len(levels) - 1)], levels[1:])))
        want = convolve_plain(t, phi, psi)
        fast = [np.int64 if top < _INT64_LIMIT // 2 else object]
        for cutoff, kernel in ((float("inf"), []), (0, fast)):
            dtypes.clear()
            monkeypatch.setattr(quantale, "_FAST_CUTOFF", cutoff)
            assert convolve(t, phi, psi) == want
            assert dtypes == kernel


def test_fast_path_overflow_falls_back(monkeypatch):
    # past the int64 guard the numpy kernel runs on object arrays of ints
    dtypes = []
    real = np.argsort

    def spy(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    # level denominator so large the squared scaling would overflow int64
    big_den = 2**34
    jumps = [F(k) for k in range(1, 80)]
    levels = sorted(F(k, big_den) for k in range(1, 80))
    sc = Staircase(tuple(zip(jumps, levels)))
    out = convolve(PROD, sc, sc)
    assert out == convolve_plain(PROD, sc, sc)
    assert dtypes == [object]
    # The numpy kernel forms jump sums up to 2 * top jump and values up to
    # ld * M; it uses int64 only when twice the larger is below _INT64_LIMIT.
    # Under prod M = ld, and _INT64_LIMIT // 2 is not a square, so
    # 2 * root**2 < _INT64_LIMIT.  ORDINAL's product piece (2/10, 6/10) over
    # ld = 320 c gives M = 128 c, so ld * M = 40960 c**2; NILPOTENT's
    # (1/2, 3/4) over ld = 192 c gives M = 48 c, so ld * M = 9216 c**2.
    root = isqrt(_INT64_LIMIT // 2)
    c_ord = isqrt((_INT64_LIMIT // 2 - 1) // 40960)
    c_nil = isqrt((_INT64_LIMIT // 2 - 1) // 9216)

    def low(den):
        return [F(k, den) for k in range(1, 64)]

    def spread(den):  # levels in every piece and in the min region
        return [F(k, 64) + F(1, den) for k in range(63)]

    for t, top_jump, levels, fits in [
        (MIN, _INT64_LIMIT // 2 - 1, low(64), True),
        (MIN, _INT64_LIMIT // 2, low(64), False),
        (LUK, _INT64_LIMIT // 2 - 1, low(64), True),
        (LUK, _INT64_LIMIT // 2, low(64), False),
        (PROD, 64, low(root), True),
        (PROD, 64, low(root + 1), False),
        (ORDINAL, 64, spread(320 * c_ord), True),
        (ORDINAL, 64, spread(320 * (c_ord + 1)), False),
        (NILPOTENT, 64, spread(192 * c_nil), True),
        (NILPOTENT, 64, spread(192 * (c_nil + 1)), False),
    ]:
        dtypes.clear()
        steps = [*zip(map(F, range(1, 64)), levels), (F(top_jump), F(1))]
        sc = Staircase(tuple(steps))
        assert len(sc.steps) ** 2 >= _FAST_CUTOFF
        assert convolve(t, sc, sc) == convolve_plain(t, sc, sc)
        assert dtypes == [np.int64 if fits else object]


def _stairs(rng, n: int) -> Staircase:
    """n steps, jumps in quarters and levels among _IMPLICATION_LEVELS."""
    jumps = sorted(rng.sample([F(k, 4) for k in range(24)], n))
    return Staircase(tuple(zip(jumps, sorted(rng.sample(_IMPLICATION_LEVELS, n)))))


def _check_below(t, phi, psi, xi) -> bool:
    """The verdict on (phi, psi, xi) through compose_below_all, as triple
    (0, 1, 0) of two-point matrices, product index 2: d[1][0] is phi,
    via[0][1] psi and d[0][0] xi.  The batch agrees with the generic
    default, which composes each triple, and the oracles."""
    q = Staircases(t)
    d, via = [[xi, xi], [phi, phi]], [[psi, psi], [psi, psi]]
    verdicts = q.compose_below_all(d, via)
    assert verdicts == ValueQuantale.compose_below_all(q, d, via)
    got = verdicts[2]
    assert got == convolve(t, phi, psi).leq(xi)
    assert got == conv_compare_oracle(t, phi, psi, xi, operator.le)
    return got


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_convolve_below_differential(name, t):
    rng = random.Random(36)
    answers, above_cutoff = [], set()
    # empty factors: the convolution is bottom, below everything
    for phi, psi in ((BOTTOM, TOP), (TOP, BOTTOM), (BOTTOM, BOTTOM)):
        assert _check_below(t, phi, psi, BOTTOM)
    # bottom and top in each of the three places
    for place in range(3):
        for extreme in (BOTTOM, TOP):
            triple = [_stairs(rng, n) for n in (3, 2, 4)]
            triple[place] = extreme
            answers.append(_check_below(t, *triple))
    # equal jump sums 0 + 2 = 1 + 1, and xi jumping at 0
    phi = Staircase(((F(0), F(1, 4)), (F(1), F(7, 10))))
    psi = Staircase(((F(1), F(1, 2)), (F(2), F(1))))
    conv = convolve(t, phi, psi)
    for xi in (conv, one_step(F(0), F(1)), one_step(F(0), conv.last_level),
               one_step(F(0), F(1, 10)), delay_step(conv, rng)):
        answers.append(_check_below(t, phi, psi, xi))
    for sizes in ((1, 3), (2, 8), (3, 1), (4, 5), (5, 2), (6, 8), (7, 7), (8, 6), (1, 1), (3, 3)):
        phi, psi = (_stairs(rng, n) for n in sizes)
        above_cutoff.add(len(phi.js) * len(psi.js) >= _FAST_CUTOFF)
        conv = convolve(t, phi, psi)
        other = _staircase_over(rng, _IMPLICATION_LEVELS, 6)
        for xi in (BOTTOM, conv, delay_step(conv, rng), conv.join(other), conv.meet(other)):
            answers.append(_check_below(t, phi, psi, xi))
    assert above_cutoff == {False, True}
    # levels so fine that convolve's numpy kernel leaves int64 for objects
    big = 2**34
    sc = Staircase(tuple((F(k), F(k, big)) for k in range(1, 8)) + ((F(8), F(1)),))
    s = quantale._scale(t, sc, sc)
    assert name in ("min", "luk") or 2 * s.ld * s.m >= _INT64_LIMIT
    conv = convolve(t, sc, sc)
    for xi in (conv, delay_step(conv, rng), conv.join(one_step(F(0), F(1, big)))):
        answers.append(_check_below(t, sc, sc, xi))
    assert set(answers) == {False, True}


def _below_at_the_last_jump(phi: str, psi: str, xi: str) -> None:
    """A triple at xi's last jump: the composite lies below xi under min,
    so under every t-norm, each of which lies below min."""
    phi, psi, xi = map(parse_staircase, (phi, psi, xi))
    for _, t in TNORMS + [("nilpotent", NILPOTENT)]:
        assert _check_below(t, phi, psi, xi)


def test_rows_keep_only_rising_values():
    # min(1/4, b) is 1/4 for every level b of psi: phi's one level meets
    # all three of psi's and rises only at the first
    _below_at_the_last_jump("steps[(1,1/4)]", "steps[(0,1/2),(1,3/4),(2,1)]", "steps[(1,1/4),(3,1)]")


def test_below_stops_at_the_first_step_past_the_last_jump():
    # phi's second step meets psi's first at 2 + 1 = 3, xi's last jump
    _below_at_the_last_jump("steps[(0,1/4),(2,1/2)]", "steps[(1,1/2)]", "steps[(1,1/4),(3,1)]")


def test_below_leaves_a_row_at_the_last_jump():
    # phi's step meets psi's second at 0 + 2, xi's last jump, and psi's
    # third past it
    _below_at_the_last_jump("steps[(0,1/2)]", "steps[(1,1/8),(2,1/4),(3,1/2)]", "steps[(1,1/8),(2,1)]")


def _key_pairs(d, via) -> dict:
    """The step pairs of each key ({phi, psi}, xi) among the triples of d
    and via."""
    n = len(d)
    return {
        (frozenset((d[j][k], via[i][j])), d[i][k]): len(d[j][k].js) * len(via[i][j].js)
        for i, j, k in product(range(n), repeat=3)
    }


def _check_below_all(t, d, via, monkeypatch) -> tuple[list[bool], list[int], list]:
    """compose_below_all(d, via) against each triple alone, the generic
    default and the oracle.  Also the number of staircases of each `_scale`
    call the batch made and the dtypes its arrays took; `_below_keys`
    decides each key ({phi, psi}, xi) once, in one call."""
    scales, dtypes, decided = [], [], []
    scale, dtype, below = quantale._scale, quantale._dtype, quantale._below_keys
    q = Staircases(t)
    with monkeypatch.context() as patch:
        patch.setattr(quantale, "_scale", lambda t, *scs: scales.append(len(scs)) or scale(t, *scs))
        patch.setattr(quantale, "_dtype", lambda *b: dtypes.append(dtype(*b)) or dtypes[-1])
        patch.setattr(
            quantale, "_below_keys",
            lambda t, scs, *keys: decided.append(len(keys[0])) or below(t, scs, *keys),
        )
        got = q.compose_below_all(d, via)
    n = len(d)
    triples = [(d[j][k], via[i][j], d[i][k]) for i, j, k in product(range(n), repeat=3)]
    assert got == ValueQuantale.compose_below_all(q, d, via)
    alone = cache(lambda *triple: _check_below(t, *triple))  # also runs the oracles
    assert got == [alone(*triple) for triple in triples]
    assert decided == [len(_key_pairs(d, via))]
    return got, scales, dtypes


def _instance(t, rng, first, discounts):
    """Matrices d and via as validate gives them to the batch, n the length
    of `first`: d's row 0 is `first` and via's entries come from
    `discounts`.  Row i > 0 of d holds at k the composite of d[0][k] and
    via[i][0], in turn as it is, delayed, joined with a discount or
    replaced by one, so the triples (i, 0, k) sit on both sides of the
    verdict's edge."""
    n = len(first)
    via = [[rng.choice(discounts) for _ in range(n)] for _ in range(n)]
    d = [list(first)]
    for i in range(1, n):
        convs = [convolve(t, d[0][k], via[i][0]) for k in range(n)]
        d.append([
            (conv, delay_step(conv, rng), conv.join(rng.choice(discounts)),
             rng.choice(discounts))[(i + k) % 4]
            for k, conv in enumerate(convs)
        ])
    return d, via


def _coprime_stairs(rng, jd: int, ld: int) -> Staircase:
    """Four steps with jumps over jd and levels over ld, the last level 1."""
    jumps = sorted(rng.sample(range(1, 3 * jd), 4))
    levels = [*sorted(rng.sample(range(1, ld), 3)), ld]
    return Staircase(tuple((F(j, jd), F(a, ld)) for j, a in zip(jumps, levels)))


def _check_swaps(t, entries, rng, monkeypatch) -> None:
    """A symmetric d from `entries`, each entry below the diagonal an equal
    copy of its mirror, with via = d, as validate's ProbM2 check: the
    triple (k, j, i) is (i, j, k) with phi and psi swapped.  The batch
    agrees with each triple alone and the oracles, the pair gets one
    verdict, and `_below_keys` decides once per key ({phi, psi}, xi),
    fewer than n^3, because convolution under a continuous t-norm commutes."""
    n = len(entries)
    d = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
    d = [[d[i][j] if i <= j else Staircase(d[j][i].steps) for j in range(n)] for i in range(n)]
    got, _, _ = _check_below_all(t, d, d, monkeypatch)
    verdict = dict(zip(product(range(n), repeat=3), got))
    assert all(ok == verdict[k, j, i] for (i, j, k), ok in verdict.items())
    assert len(_key_pairs(d, d)) < n**3


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_convolve_below_all_differential(name, t, monkeypatch):
    rng = random.Random(38)
    # a pool whose staircases recur, some as equal copies: one scale serves all
    pool = [BOTTOM, TOP, *(_stairs(rng, n) for n in (1, 2, 3, 4, 6))]
    discounts = [pool[1], pool[3], pool[4], Staircase(pool[4].steps)]
    d, via = _instance(t, rng, rng.sample(pool, 5), discounts)
    got, scales, _ = _check_below_all(t, d, via, monkeypatch)
    assert set(got) == {False, True}
    assert scales == [len({sc for rows in (d, via) for row in rows for sc in row})]
    # in slices of 16 pairs: the batch spans many, and keys of more pairs
    # than a slice are split across them
    pairs = _key_pairs(d, via)
    assert sum(pairs.values()) > 3 * 16 and max(pairs.values()) > 16
    with monkeypatch.context() as patch:
        patch.setattr(quantale, "_SLICE_PAIRS", 16)
        assert _check_below_all(t, d, via, monkeypatch)[0] == got
    _check_swaps(t, pool, rng, monkeypatch)
    # levels so fine that convolve's numpy kernel leaves int64 for objects,
    # and jumps so fine that the batch's jumps do under every t-norm.  via's
    # column 0 is bottom, so the wide composites in d's row 0 meet no psi
    big = 2**34
    sc = Staircase(tuple((F(k), F(k, big)) for k in range(1, 8)) + ((F(8), F(1)),))
    wide = Staircase(((F(1, 2**61), F(1, 2)), (F(3), F(1))))
    conv = convolve(t, sc, sc)
    d = [[conv, delay_step(conv, rng), conv.join(one_step(F(0), F(1, big)))], [sc] * 3, [wide] * 3]
    via = [[BOTTOM, sc, sc]] * 3
    got, scales, dtypes = _check_below_all(t, d, via, monkeypatch)
    # the jumps' dtype, then the values'
    assert len(scales) == 1 and dtypes == [object, np.int64 if name in ("min", "luk") else object]
    assert set(got) == {False, True}
    # pairwise-coprime denominators: three of them are narrower than all
    # four, yet one scale still serves the batch
    pool = [_coprime_stairs(rng, jd, ld) for jd, ld in ((3, 13), (5, 17), (7, 19), (11, 23))]
    d, via = _instance(t, rng, pool, pool)
    got, scales, _ = _check_below_all(t, d, via, monkeypatch)
    assert set(got) == {False, True}
    assert scales == [len({sc for rows in (d, via) for row in rows for sc in row})]
    _check_swaps(t, pool, rng, monkeypatch)


def test_convolve_below_all_int64_guard(monkeypatch):
    # staircase x's jumps sit at x * width + p in one array, width = 2 * top
    # + 1 above every jump sum, so three staircases keep their jumps on
    # int64 while twice 3 * width is below _INT64_LIMIT
    dtypes = []
    dtype = quantale._dtype
    monkeypatch.setattr(quantale, "_dtype", lambda *b: dtypes.append(dtype(*b)) or dtypes[-1])
    fits = ((_INT64_LIMIT - 1) // 6 - 1) // 2
    for top, jumps in ((fits, np.int64), (fits + 1, object)):
        phi = Staircase(((F(0), F(1, 2)), (F(top - 1), F(1))))
        psi = one_step(F(1), F(1))
        for xi, below in ((convolve(MIN, phi, psi), True),
                          (Staircase(((F(1), F(1, 2)), (F(top), F(3, 4)))), False)):
            dtypes.clear()
            assert max(xi.jumps) == top and _check_below(MIN, phi, psi, xi) == below
            assert dtypes[:2] == [jumps, np.int64]


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_convolve_below_all_at_the_points_cap(name, t):
    # a 32-point instance, validate's cap, with 1-10-step entries: its
    # pairs span slices of the real size, and every verdict matches the
    # generic default's composite of its triple
    rng = random.Random(40)
    pool = [_stairs(rng, n) for n in range(1, 11) for _ in range(2)]
    pool += [convolve(t, phi, psi) for phi, psi in zip(pool[:10], pool[10:])]
    d, via = ([[rng.choice(pool) for _ in range(32)] for _ in range(32)] for _ in range(2))
    assert sum(_key_pairs(d, via).values()) > 3 * quantale._SLICE_PAIRS
    q = Staircases(t)
    got = q.compose_below_all(d, via)
    assert got == ValueQuantale.compose_below_all(q, d, via)
    assert set(got) == {False, True}


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_one_step_residual_shortcut_matches_kernels(name, t):
    # below a phi with at most one step every xi is its own residual; above
    # it, or for a phi with two steps, the residual is built by the kernels
    rng = random.Random(37)
    phis = [BOTTOM, TOP, one_step(F(0), F(1, 2)), one_step(F(3, 2), F(7, 10)),
            one_step(F(2), F(1)), Staircase(((F(1), F(1, 2)), (F(2), F(1))))]
    for k in range(120):
        phi = phis[k % len(phis)]
        xi = _staircase_over(rng, _IMPLICATION_LEVELS, 6)
        for x in (xi, xi.meet(phi), xi.join(phi)):
            full = convolve(t, phi, implication(t, phi, x))
            assert residual(t, x, phi) == full
            assert len(phi.js) > 1 or (full == x) == x.leq(phi)
            if k < 20:
                assert full == convolve_plain(t, phi, implication_plain(t, phi, x))


@pytest.mark.parametrize("name,t", TNORMS)
def test_step_law_convolution(name, t):
    rng = random.Random(25)
    for _ in range(60):
        p, q = rand_time(rng), rand_time(rng)
        a, b = rand_unit(rng), rand_unit(rng)
        assert convolve(t, one_step(p, a), one_step(q, b)) == \
            one_step(p + q, t.apply(a, b))


@pytest.mark.parametrize("name,t", TNORMS)
def test_step_law_implication(name, t):
    # the right adjoint of a one-step keeps a floor term; for t-norms
    # without zero divisors the floor vanishes and the familiar shifted
    # one-step remains
    rng = random.Random(26)
    for _ in range(60):
        p, r = rand_time(rng), rand_time(rng)
        a, c = rand_unit(rng), rand_unit(rng)
        got = implication(t, one_step(p, a), one_step(r, c))
        shift = r - p if r > p else F(0)
        expected = one_step(F(0), t.implies(a, F(0))).join(
            one_step(shift, t.implies(a, c))
        )
        assert got == expected


def test_step_implication_rejects_infinite_jump():
    with pytest.raises(DomainError):
        step_implication(MIN, INF, F(1, 2), one_step(F(1), F(1, 2)))


@pytest.mark.parametrize("name,t", TNORMS)
def test_step_implication_rejects_level_outside_unit_interval(name, t):
    with pytest.raises(DomainError, match=re.escape("level 3/2 outside [0, 1]")):
        step_implication(t, 0, F(3, 2), one_step(1, F(1, 2)))


@pytest.mark.parametrize("name,t", TNORMS)
def test_adjunction(name, t):
    rng = random.Random(27)
    for _ in range(80):
        phi = rand_staircase(rng, max_steps=5)
        psi = rand_staircase(rng, max_steps=5)
        xi = rand_staircase(rng, max_steps=5)
        lhs = convolve(t, phi, psi).leq(xi)
        rhs = psi.leq(implication(t, phi, xi))
        assert lhs == rhs
        # counit and unit of the adjunction
        assert convolve(t, phi, implication(t, phi, xi)).leq(xi)
        assert psi.leq(implication(t, phi, convolve(t, phi, psi)))


@pytest.mark.parametrize("name,t", TNORMS)
def test_implication_against_pointwise_oracle(name, t):
    rng = random.Random(28)
    for _ in range(40):
        phi = rand_staircase(rng, max_steps=4)
        xi = rand_staircase(rng, max_steps=4)
        imp = implication(t, phi, xi)
        for at in probe_times(phi, xi, imp):
            assert imp(at) == imp_point_oracle(t, phi, xi, at)


def test_implication_empty_antecedent():
    for _, t in TNORMS:
        assert implication(t, BOTTOM, BOTTOM) == TOP
        assert implication(t, BOTTOM, one_step(F(1), F(1, 2))) == TOP


def _check_implication(t, phi, xi):
    """implication against the reference meet and the regularised rho."""
    imp = implication(t, phi, xi)
    assert imp == implication_plain(t, phi, xi)
    for at in probe_times(phi, xi, imp):
        assert imp(at) == vertical_distance_sup_below(t, phi, xi, at)
    return imp


def _staircase_over(rng, levels, max_steps):
    n = rng.randrange(0, max_steps + 1)
    jumps = sorted(rng.sample([F(k, 4) for k in range(24)], n))
    return Staircase(tuple(zip(jumps, sorted(rng.sample(levels, n)))))


# Tenths hold every endpoint of ORDINAL's pieces (2/10, 6/10, 7/10, 1) and
# NILPOTENT's 1/3, 1/2 and 3/4 are among the twelfths.
_IMPLICATION_LEVELS = sorted({F(k, 10) for k in range(1, 11)} | {F(k, 12) for k in range(1, 13)})


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_implication_differential(name, t):
    rng = random.Random(34)
    for _ in range(150):
        phi = _staircase_over(rng, _IMPLICATION_LEVELS, 6)
        xi = _staircase_over(rng, _IMPLICATION_LEVELS, 6)
        _check_implication(t, phi, xi)
    # phi levels exactly at the piece endpoints, xi levels on both sides
    phi = Staircase(((F(0), F(2, 10)), (F(1), F(6, 10)), (F(2), F(7, 10)), (F(3), F(1))))
    xi = Staircase(((F(1, 2), F(1, 10)), (F(2), F(3, 10)), (F(5, 2), F(13, 20)), (F(4), F(9, 10))))
    _check_implication(t, phi, xi)
    _check_implication(t, xi, phi)
    # empty antecedent: top; empty consequent: the least floor a -> 0
    for xi in (BOTTOM, one_step(F(1), F(1, 2))):
        assert _check_implication(t, BOTTOM, xi) == TOP
    phi = Staircase(((F(1), F(1, 4)), (F(2), F(3, 4))))
    assert _check_implication(t, phi, BOTTOM) == \
        one_step(F(0), min(t.implies(a, F(0)) for a in phi.levels))


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_step_implication_differential(name, t):
    # zero levels give top; jumps in twelfths meet xi's quarters exactly
    rng = random.Random(35)
    levels = [F(0), *_IMPLICATION_LEVELS]
    for _ in range(2000):
        p, a = rand_time(rng), rng.choice(levels)
        xi = _staircase_over(rng, _IMPLICATION_LEVELS, 6)
        assert step_implication(t, p, a, xi) == step_implication_plain(t, p, a, xi)


def test_implication_floor():
    # xi rises only after the antecedent's jump: until then the value is
    # the floor a -> 0, which is 1 - a under luk and 0 without zero divisors
    phi = one_step(F(1), F(3, 4))
    xi = one_step(F(3), F(1, 2))
    assert _check_implication(LUK, phi, xi) == Staircase(((F(0), F(1, 4)), (F(2), F(3, 4))))
    assert _check_implication(MIN, phi, xi) == one_step(F(2), F(1, 2))
    assert _check_implication(NILPOTENT, one_step(F(1), F(1, 4)), BOTTOM) == \
        one_step(F(0), F(1, 12))


@pytest.mark.parametrize("name,t", TNORMS)
def test_implication_large_denominators(name, t):
    # Levels with large prime denominators, those of phi inside ORDINAL's
    # product piece (2/10, 6/10): the values' common denominator passes 2**64.
    phi = Staircase((
        (F(0), F(3 * 10**8, 1_000_000_007)),
        (F(1, 3), F(1, 3)),
        (F(2), F(2**60, 2**61 - 1)),
    ))
    xi = Staircase((
        (F(1, 2), F(1, 2_147_483_647)),
        (F(1), F(10**9, 2_147_483_647)),
        (F(5, 2), F(5 * 10**8, 998_244_353)),
        (F(3), F(1)),
    ))
    assert lcm(*(a.denominator for a in phi.levels + xi.levels)) > 2**64
    assert all(ORDINAL.pieces[0].lo < a < ORDINAL.pieces[0].hi for a in phi.levels)
    _check_implication(t, phi, xi)
    _check_implication(t, xi, phi)


def _implication_kernel(t, phi, xi, monkeypatch, cutoff=_FAST_CUTOFF) -> tuple:
    """implication with the given kernel cutoff against the Python sweep
    (no cutoff reached) and implication_plain; the kernel that ran, and the
    array dtype it took (None for the Python sweep)."""
    ran, dtypes = [], []
    with monkeypatch.context() as patch:
        for name in ("_implication_int", "_implication_fast"):
            kernel = getattr(quantale, name)
            patch.setattr(quantale, name, lambda *a, k=kernel, n=name: ran.append(n) or k(*a))
        dtype = quantale._dtype
        patch.setattr(quantale, "_dtype", lambda *bounds: dtypes.append(dtype(*bounds)) or dtypes[-1])
        patch.setattr(quantale, "_FAST_CUTOFF", cutoff)
        got = implication(t, phi, xi)
        patch.setattr(quantale, "_FAST_CUTOFF", float("inf"))
        assert got == implication(t, phi, xi) == implication_plain(t, phi, xi)
    assert len(ran) == 2 and ran[1] == "_implication_int"
    assert len(dtypes) == (ran[0] == "_implication_fast")
    return ran[0], (dtypes or [None])[0]


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_implication_kernels_differential(name, t, monkeypatch):
    rng = random.Random(39)
    kernels = set()
    for _ in range(60):
        phi = _staircase_over(rng, _IMPLICATION_LEVELS, 8)
        xi = _staircase_over(rng, _IMPLICATION_LEVELS, 16)
        if phi.js:
            kernel, _ = _implication_kernel(t, phi, xi, monkeypatch)
            assert (kernel == "_implication_fast") == (len(phi.js) * len(xi.js) >= _FAST_CUTOFF)
            kernels.add(kernel)
    assert kernels == {"_implication_int", "_implication_fast"}
    # edge cases on the numpy kernel at every size
    ladder = Staircase(tuple((F(k, 2), lv) for k, lv in enumerate(_IMPLICATION_LEVELS[1::2])))
    at_zero = Staircase(((F(0), F(1, 10)), (F(1), F(13, 20)), (F(3), F(9, 10))))
    ends = Staircase(((F(0), F(2, 10)), (F(1), F(6, 10)), (F(2), F(7, 10)), (F(3), F(1))))
    for phi, xi in [
        (ends, BOTTOM),  # empty xi: the floors a -> 0
        (ladder, BOTTOM),
        (one_step(F(2), F(1, 2)), one_step(F(0), F(6, 10))),  # xi reaches a by p
        (Staircase(((F(1), F(1, 4)), (F(3), F(3, 4)))), ladder),  # the first step adds none
        (ends, ladder),  # levels at the pieces' lo and hi
        (ladder, ends),
        (Staircase(((F(1), F(13, 20)), (F(2), F(1)))), ladder),  # 13/20: in no piece of ORDINAL
        (at_zero, at_zero),  # jumps at 0
        (at_zero, ladder),
        (ladder, at_zero),
    ]:
        assert _implication_kernel(t, phi, xi, monkeypatch, cutoff=0)[0] == "_implication_fast"
    # the int64 guard on integer jumps: a top jump of xi at 2**61 - 1 fits,
    # one at 2**61 takes object arrays; the numpy kernel runs on both
    phi = Staircase(tuple((F(k), lv) for k, lv in enumerate(_IMPLICATION_LEVELS[::4])))
    for top, dtype in ((_INT64_LIMIT // 2 - 1, np.int64), (_INT64_LIMIT // 2, object)):
        assert quantale._dtype(top) is dtype
        xi = Staircase((*((F(k), lv) for k, lv in enumerate(_IMPLICATION_LEVELS[1:-1:2])), (F(top), F(1))))
        assert len(phi.js) * len(xi.js) >= _FAST_CUTOFF
        assert _implication_kernel(t, phi, xi, monkeypatch) == ("_implication_fast", dtype)


@pytest.mark.parametrize("name,t", [("prod", PROD), ("ordinal", ORDINAL), ("nilpotent", NILPOTENT)])
def test_implication_kernels_past_the_guard(name, t, monkeypatch):
    # Antecedent levels (p - 1)/p over distinct primes p, mapped into the
    # product piece: d, the lcm of their distances to its lo, grows with
    # every step, and ld * d leaves int64 within nine steps.
    lo, hi = next((pc.lo, pc.hi) for pc in t.pieces if pc.kind == "prod")
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    xi = Staircase(tuple((F(k, 2), lv) for k, lv in enumerate(_IMPLICATION_LEVELS[::2])))
    kernels = []
    for m in range(1, len(primes) + 1):
        phi = Staircase(tuple((F(k, 3), lo + (hi - lo) * F(p - 1, p)) for k, p in enumerate(primes[:m])))
        kernels.append(_implication_kernel(t, phi, xi, monkeypatch))
    above = [k for m, k in enumerate(kernels, 1) if m * len(xi.js) >= _FAST_CUTOFF]
    assert set(kernels[: len(kernels) - len(above)]) == {("_implication_int", None)}
    assert {kernel for kernel, _ in above} == {"_implication_fast"}
    assert above[0][1] is np.int64 and above[-1][1] is object


def test_worked_implication_values():
    assert implication(MIN, one_step(F(1), F(1, 2)), one_step(F(3), F(1, 4))) == \
        one_step(F(2), F(1, 4))
    phi = Staircase(((F(0), F(1, 2)), (F(1), F(1))))
    xi = one_step(F(1), F(1))
    assert implication(MIN, phi, xi) == one_step(F(1), F(1))
    assert residual(MIN, xi, phi) == Staircase(((F(1), F(1, 2)), (F(2), F(1))))


# ---------------------------------------------------------------------------
# vertical distance


def test_rho_worked_value():
    # the residuated gap of this pair vanishes at 1/2: the antecedent's
    # level 1/2 on (0,1] already needs xi to reach 1/2 by 3/2, which the
    # consequent only does at 1; squeezing q close to 1 drives the gap to 0
    phi = Staircase(((F(0), F(1, 2)), (F(1), F(1))))
    xi = one_step(F(1), F(1))
    assert vertical_distance(MIN, phi, xi, F(1, 2)) == 0
    assert vertical_distance_sup_below(MIN, phi, xi, F(1, 2)) == 0


def test_rho_rejects_negative_time():
    phi = one_step(F(1), F(1, 2))
    for rho in (vertical_distance, vertical_distance_sup_below):
        with pytest.raises(DomainError, match="time must be non-negative, got -1"):
            rho(MIN, phi, phi, F(-1))


@pytest.mark.parametrize("name,t", TNORMS)
def test_implication_is_regularized_rho(name, t):
    rng = random.Random(29)
    for _ in range(40):
        phi = rand_staircase(rng, max_steps=4)
        xi = rand_staircase(rng, max_steps=4)
        imp = implication(t, phi, xi)
        for at in probe_times(phi, xi, imp):
            assert imp(at) == vertical_distance_sup_below(t, phi, xi, at)


@pytest.mark.parametrize("name,t", TNORMS)
def test_rho_grid_pairs_coincide(name, t):
    rng = random.Random(30)
    phi = rand_staircase(rng, max_steps=4)
    xi = rand_staircase(rng, max_steps=4)
    grid = [F(k, 7) for k in range(22)]
    for v, at in zip(vertical_distance_grid(t, phi, xi, grid), grid, strict=True):
        assert v == vertical_distance(t, phi, xi, at)


def test_rho_dominates_implication_pointwise():
    # rho itself can exceed the implication at a jump; the sup below
    # regularizes it back down
    phi = one_step(F(1), F(1, 2))
    xi = one_step(F(2), F(1, 2))
    for _, t in TNORMS:
        imp = implication(t, phi, xi)
        for at in probe_times(phi, xi, imp):
            assert imp(at) <= vertical_distance(t, phi, xi, at)
    # the strict case: at the implication's own jump rho is already ahead
    assert vertical_distance(MIN, phi, xi, F(1)) == 1
    assert implication(MIN, phi, xi)(F(1)) == 0
    assert implication(MIN, phi, xi) == one_step(F(1), F(1))


# ---------------------------------------------------------------------------
# monotone convolution


@pytest.mark.parametrize("name,t", TNORMS)
def test_regularization_law(name, t):
    rng = random.Random(32)
    for _ in range(50):
        m1 = rand_monotone(rng)
        m2 = rand_monotone(rng)
        law_lhs = convolve_monotone(t, m1, m2).regularize()
        law_rhs = convolve(t, m1.regularize(), m2.regularize())
        assert law_lhs == law_rhs


@pytest.mark.parametrize("name,t", [*TNORMS, ("nilpotent", NILPOTENT)])
def test_convolve_monotone_against_cell_enumeration(name, t):
    """Point values at every breakpoint sum, cell values between them and
    past the last, and the value at infinity, against the cell enumeration."""
    rng = random.Random(34)
    for _ in range(40):
        m1 = rand_monotone(rng)
        m2 = rand_monotone(rng)
        out = convolve_monotone(t, m1, m2)
        sums = sorted({b1 + b2 for b1 in m1.breakpoints for b2 in m2.breakpoints})
        cells = [(a + b) / 2 for a, b in zip(sums, sums[1:])] + [sums[-1] + 1]
        expected = MonotoneStep(
            sums,
            [monotone_conv_at_plain(t, m1, m2, s) for s in sums],
            [monotone_conv_at_plain(t, m1, m2, s) for s in cells],
            t.apply(m1(INF), m2(INF)),
        )
        assert out == expected
        for at in [*sums, *cells, *(rand_time(rng, hi=14) for _ in range(5))]:
            assert out(at) == monotone_conv_at_plain(t, m1, m2, at)


def test_monotone_convolution_exact_on_staircases():
    rng = random.Random(33)
    for _ in range(40):
        a = rand_staircase(rng, max_steps=4)
        b = rand_staircase(rng, max_steps=4)
        for _, t in TNORMS:
            mc = convolve_monotone(
                t, MonotoneStep.from_staircase(a), MonotoneStep.from_staircase(b)
            )
            expected = convolve(t, a, b)
            assert mc.regularize() == expected
            for at in probe_times(a, b, expected):
                assert mc(at) == expected(at)


def test_infinity_counterexample():
    # finite part identically zero, yet the product at infinity is 1:
    # the convolution of the two monotone maps is not left-continuous at
    # infinity, so regularization collapses it to the bottom staircase
    phi = MonotoneStep.from_staircase(TOP)
    psi = MonotoneStep((F(0),), (F(0),), (F(0),), F(1))
    out = convolve_monotone(MIN, phi, psi)
    assert out(INF) == 1
    assert out(F(10**6)) == 0
    assert out.regularize() == BOTTOM


def test_monotone_convolution_infinity_is_applied():
    m1 = MonotoneStep((F(0),), (F(1, 2),), (F(1, 2),), F(3, 4))
    m2 = MonotoneStep((F(0),), (F(2, 3),), (F(2, 3),), F(1))
    assert convolve_monotone(PROD, m1, m2)(INF) == F(3, 4)


# ---------------------------------------------------------------------------
# the numpy kernels' canonical sweep


def _sweeps(monkeypatch) -> list:
    """Spy on `quantale._swept`, the sweep both numpy kernels end in: per
    call, the dtype of its values, whether a zero value reaches it, and
    whether candidates above the running maximum share a position."""
    seen = []
    swept = quantale._swept

    def spy(pos, vals, jd, ld):
        top, kept = 0, []
        for p, v in zip(pos.tolist(), vals.tolist()):
            if v > top:
                top = v
                kept.append(p)
        seen.append((vals.dtype, 0 in vals.tolist(), len(set(kept)) < len(kept)))
        return swept(pos, vals, jd, ld)

    monkeypatch.setattr(quantale, "_swept", spy)
    return seen


@pytest.mark.parametrize("offset_den,dtype", [(2, np.int64), (_INT64_LIMIT, object)])
def test_numpy_sweep_differential(offset_den, dtype, monkeypatch):
    # Jumps k + 1/offset_den on a unit grid: sums and differences of jumps
    # tie as often on both sides of the int64 guard, and past it the jump
    # numerators alone put the arrays on objects.
    seen = _sweeps(monkeypatch)

    def stairs(levels, start=0):
        return Staircase(tuple((F(start + k, 1) + F(1, offset_den), lv) for k, lv in enumerate(levels)))

    low = stairs([F(k, 20) for k in range(1, 11)])  # up to 1/2: every luk product is 0
    high = stairs([F(k, 20) for k in range(11, 21)])  # up to 1
    mixed = stairs([F(k, 16) for k in range(1, 16, 2)])
    late = stairs([F(k, 16) for k in range(1, 16, 2)], start=10)  # after every jump of high
    calls = [(convolve, convolve_plain, LUK, low, low), (convolve, convolve_plain, LUK, low, high)]
    for _, t in TNORMS + [("nilpotent", NILPOTENT)]:
        calls += [
            (convolve, convolve_plain, t, mixed, high),
            (implication, implication_plain, t, high, late),  # 1 -> 0 at 0 under min, prod and luk
            (implication, implication_plain, t, mixed, high),
            (implication, implication_plain, t, high, mixed),
        ]
    for kernel, plain, t, phi, xi in calls:
        before = len(seen)
        assert kernel(t, phi, xi) == plain(t, phi, xi)
        assert len(seen) == before + 1 and seen[-1][0] == dtype  # the numpy kernel ran
    assert convolve(LUK, low, low) == BOTTOM
    assert any(zero for _, zero, _ in seen) and any(tie for _, _, tie in seen)
