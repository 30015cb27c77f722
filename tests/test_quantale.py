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
    GAPPED,
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


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT), ("gapped", GAPPED)])
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
    # both kernels, on both sides of the jumps' int64 guard, and with the
    # levels forced past theirs onto the float64 filter: the jumps' dtype,
    # then the levels'
    dtypes = []
    dtype = quantale._dtype
    for top, levels_past in ((F(len(levels)), False), (F(_INT64_LIMIT // 2), False), (F(len(levels)), True)):
        monkeypatch.setattr(
            quantale, "_dtype",
            lambda *b, past=levels_past: dtypes.append(object if past else dtype(*b)) or dtypes[-1],
        )
        phi = Staircase(tuple(zip([*map(F, range(1, len(levels) - 1)), top], levels[1:])))
        psi = Staircase(tuple(zip([F(k, 3) for k in range(len(levels) - 1)], levels[1:])))
        want = convolve_plain(t, phi, psi)
        jumps = np.int64 if top < _INT64_LIMIT // 2 and not levels_past else object
        fast = [jumps, object if levels_past else np.int64]
        for cutoff, kernel in ((float("inf"), []), (0, fast)):
            dtypes.clear()
            monkeypatch.setattr(quantale, "_FAST_CUTOFF", cutoff)
            assert convolve(t, phi, psi) == want
            assert dtypes == kernel


@pytest.mark.counts_kernel_calls  # its argsort spy counts sorts
def test_fast_path_overflow_falls_back(monkeypatch):
    # past the jumps' int64 guard the numpy kernel sorts object arrays of
    # ints; past the levels' it takes the float64 filter.  The sorts'
    # dtypes, and the guards' answers (the jumps', then the levels')
    sorts, dtypes = [], []
    real, dtype = np.argsort, quantale._dtype

    def spy(a, *args, **kwargs):
        sorts.append(a.dtype)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    monkeypatch.setattr(quantale, "_dtype", lambda *b: dtypes.append(dtype(*b)) or dtypes[-1])
    # level denominator so large the squared scaling would overflow int64
    big_den = 2**34
    jumps = [F(k) for k in range(1, 80)]
    levels = sorted(F(k, big_den) for k in range(1, 80))
    sc = Staircase(tuple(zip(jumps, levels)))
    out = convolve(PROD, sc, sc)
    assert out == convolve_plain(PROD, sc, sc)
    assert sorts == [np.int64] and dtypes == [np.int64, object]
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

    for t, top_jump, levels, jumps, values in [
        (MIN, _INT64_LIMIT // 2 - 1, low(64), np.int64, np.int64),
        (MIN, _INT64_LIMIT // 2, low(64), object, np.int64),
        (LUK, _INT64_LIMIT // 2 - 1, low(64), np.int64, np.int64),
        (LUK, _INT64_LIMIT // 2, low(64), object, np.int64),
        (PROD, 64, low(root), np.int64, np.int64),
        (PROD, 64, low(root + 1), np.int64, object),
        (ORDINAL, 64, spread(320 * c_ord), np.int64, np.int64),
        (ORDINAL, 64, spread(320 * (c_ord + 1)), np.int64, object),
        (NILPOTENT, 64, spread(192 * c_nil), np.int64, np.int64),
        (NILPOTENT, 64, spread(192 * (c_nil + 1)), np.int64, object),
    ]:
        sorts.clear(), dtypes.clear()
        steps = [*zip(map(F, range(1, 64)), levels), (F(top_jump), F(1))]
        sc = Staircase(tuple(steps))
        assert len(sc.steps) ** 2 >= _FAST_CUTOFF
        assert convolve(t, sc, sc) == convolve_plain(t, sc, sc)
        assert sorts == [jumps] and dtypes == [jumps, values]


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


@pytest.mark.counts_kernel_calls  # its _scale spy counts scales
@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT), ("gapped", GAPPED)])
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
# GAPPED's, and NILPOTENT's 1/3, 1/2 and 3/4 are among the twelfths.
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


def _on_kernels(t, phi, xi):
    """implication where it picks a kernel, both sides with two or more
    steps; where it answers in closed form, at most one step on either
    side, its pairs rule run directly on the kernels instead."""
    if min(len(phi.js), len(xi.js)) > 1:
        return implication(t, phi, xi)
    s = quantale._scale(t, phi, xi)
    fast = len(phi.js) * len(xi.js) >= quantale._FAST_CUTOFF
    kernel = quantale._implication_fast if fast else quantale._implication_int
    return kernel(s, *quantale._kernel_args(s))


def _implication_kernel(t, phi, xi, monkeypatch, cutoff=_FAST_CUTOFF) -> tuple:
    """implication with the given kernel cutoff against the Python sweep
    (no cutoff reached) and implication_plain, on `_on_kernels`; the kernel
    that ran, and the dtypes its jumps and its levels took (None for the
    Python sweep)."""
    ran, dtypes = [], []
    with monkeypatch.context() as patch:
        for name in ("_implication_int", "_implication_fast"):
            kernel = getattr(quantale, name)
            patch.setattr(quantale, name, lambda *a, k=kernel, n=name: ran.append(n) or k(*a))
        dtype = quantale._dtype
        patch.setattr(quantale, "_dtype", lambda *bounds: dtypes.append(dtype(*bounds)) or dtypes[-1])
        patch.setattr(quantale, "_FAST_CUTOFF", cutoff)
        got = _on_kernels(t, phi, xi)
        patch.setattr(quantale, "_FAST_CUTOFF", float("inf"))
        assert got == _on_kernels(t, phi, xi) == implication_plain(t, phi, xi)
    assert got == implication(t, phi, xi)
    assert len(ran) == 2 and ran[1] == "_implication_int"
    assert len(dtypes) == 2 * (ran[0] == "_implication_fast")
    return ran[0], *(dtypes or [None, None])


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT), ("gapped", GAPPED)])
def test_implication_kernels_differential(name, t, monkeypatch):
    rng = random.Random(39)
    kernels = set()
    for _ in range(60):
        phi = _staircase_over(rng, _IMPLICATION_LEVELS, 8)
        xi = _staircase_over(rng, _IMPLICATION_LEVELS, 16)
        if phi.js:
            kernel, _, _ = _implication_kernel(t, phi, xi, monkeypatch)
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
        assert _implication_kernel(t, phi, xi, monkeypatch) == ("_implication_fast", dtype, np.int64)


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
    assert set(kernels[: len(kernels) - len(above)]) == {("_implication_int", None, None)}
    assert {kernel for kernel, _, _ in above} == {"_implication_fast"}
    assert {jumps for _, jumps, _ in above} == {np.int64}
    assert above[0][2] is np.int64 and above[-1][2] is object


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_implication_closed_forms(name, t, monkeypatch):
    # A one-step antecedent or a consequent with at most one step takes a
    # closed form; both kernels, run directly on the same `_scale`, and the
    # plain meet agree with it.
    ran = []
    for form in ("_antecedent_form", "_consequent_form"):
        f = getattr(quantale, form)
        monkeypatch.setattr(quantale, form, lambda s, f=f, n=form: ran.append(n) or f(s))
    ends = Staircase(((F(0), F(2, 10)), (F(1), F(6, 10)), (F(2), F(7, 10)), (F(3), F(1))))
    at_zero = Staircase(((F(0), F(1, 10)), (F(1), F(13, 20)), (F(3), F(9, 10))))
    ladder = Staircase(tuple((F(k, 2), lv) for k, lv in enumerate(_IMPLICATION_LEVELS[1::2])))
    # levels at the ends of ORDINAL's and NILPOTENT's pieces
    piece_ends = [F(1, 3), F(1, 2), F(2, 10), F(6, 10), F(7, 10), F(3, 4), F(1)]
    # a level over a denominator past 2^62: every value, the cap among
    # them, passes the int64 guard
    wide = Staircase(((F(0), F(1, 3)), (F(1), F(1, 2)), (F(2), F(2**62, 2**62 + 135))))
    cases = [
        (one_step(F(2), F(1, 2)), one_step(F(0), F(6, 10))),  # xi reaches a by p
        (ends, one_step(F(1, 2), F(1))),  # ... by every p of phi
        (one_step(F(0), F(1, 10)), at_zero),  # jumps at 0
        (at_zero, one_step(F(0), F(1, 2))),
        (at_zero, one_step(F(3), F(1, 2))),
        (one_step(F(1), F(3, 4)), BOTTOM),  # an empty xi
        (ends, BOTTOM),
        (ladder, BOTTOM),
        (TOP, ladder),  # TOP as the antecedent
        (TOP, ends),
        (TOP, BOTTOM),
        (wide, one_step(F(5, 2), F(1, 2**31 - 1))),  # a cap past the guard
        (wide, one_step(F(1, 2), F(1, 3))),
        (one_step(F(1, 3), F(2**62, 2**62 + 135)), ladder),
        (ladder, one_step(F(9), F(1, 12))),  # under luk a -> 0 falls at every step
    ]
    cases += [(one_step(F(1, 2), a), xi) for a in piece_ends for xi in (ends, ladder, at_zero)]
    cases += [(phi, one_step(F(5, 2), c)) for c in piece_ends for phi in (ends, ladder, at_zero)]
    for phi, xi in cases:
        ran.clear()
        got = implication(t, phi, xi)
        assert ran == ["_antecedent_form" if len(phi.js) == 1 else "_consequent_form"]
        assert got == implication_plain(t, phi, xi)
        s = quantale._scale(t, phi, xi)
        args = quantale._kernel_args(s)
        assert got == quantale._implication_int(s, *args) == quantale._implication_fast(s, *args)
    assert quantale._dtype(quantale._scale(t, wide, BOTTOM).ld) is object


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
    call, the dtype of its positions, whether a zero value reaches it, and
    whether candidates above the running maximum share a position."""
    seen = []
    swept = quantale._swept

    def spy(pos, vals, jd, ld):
        top, kept = 0, []
        for p, v in zip(pos.tolist(), vals.tolist()):
            if v > top:
                top = v
                kept.append(p)
        seen.append((pos.dtype, 0 in vals.tolist(), len(set(kept)) < len(kept)))
        return swept(pos, vals, jd, ld)

    monkeypatch.setattr(quantale, "_swept", spy)
    return seen


@pytest.mark.counts_kernel_calls  # its _swept spy counts sweeps
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


# ---------------------------------------------------------------------------
# the float64 filter past the levels' int64 guard

# Levels at the pieces' ends and 1/(3 * 2^64) below them: any staircase
# holding one of the latter has levels past the int64 guard, under every
# t-norm, and candidates that nearly tie at the ends.
_WIDE_LEVELS = sorted({*_IMPLICATION_LEVELS, *(lv - F(1, 3 * 2**64) for lv in _IMPLICATION_LEVELS)})


def _kernel_dtypes(kernel, t, phi, other, monkeypatch) -> tuple:
    """kernel (convolve or implication) on its numpy kernel against its
    plain kernel, an implication on `_on_kernels`; the dtypes the jumps'
    and the levels' guards gave, and whether the float64 filter ran."""
    plain = convolve_plain if kernel is convolve else implication_plain
    dtypes, floats = [], []
    dtype = quantale._dtype

    def spy(*bounds):
        dtypes.append(dtype(*bounds))
        return dtypes[-1]

    with monkeypatch.context() as patch:
        patch.setattr(quantale, "_dtype", spy)
        # a run that --shadow-kernels forces swaps the spy out, and does not count
        for name in ("_floats_block", "_costep_floats"):
            f = getattr(quantale, name)
            patch.setattr(quantale, name, lambda *a, f=f: floats.append(quantale._dtype is spy) or f(*a))
        patch.setattr(quantale, "_FAST_CUTOFF", 0)
        assert (_on_kernels if kernel is implication else kernel)(t, phi, other) == plain(t, phi, other)
    return *dtypes, any(floats)


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT), ("gapped", GAPPED)])
def test_filtered_kernels_differential(name, t, monkeypatch):
    rng = random.Random(41)
    seen = set()
    for _ in range(30):
        phi = _staircase_over(rng, _WIDE_LEVELS, 8)
        other = _staircase_over(rng, _WIDE_LEVELS, 12)
        if not phi.js or not other.js:
            continue
        # the same levels with the other factor's last jump past the jumps' guard
        far = Staircase((*other.steps[:-1], (F(_INT64_LIMIT // 2), other.last_level)))
        for kernel, second in product((convolve, implication), (other, far)):
            seen.add((kernel, *_kernel_dtypes(kernel, t, phi, second, monkeypatch)))
    assert {(kernel, jumps, object, True) for kernel in (convolve, implication) for jumps in (np.int64, object)} <= seen


def _in_product_piece(t, x: F) -> F:
    """x in [0, 1] mapped affinely onto t's product piece."""
    lo, hi = next((pc.lo, pc.hi) for pc in t.pieces if pc.kind == "prod")
    return lo + (hi - lo) * x


def _conv_near_tie(t, x1: F, x2: F, y1: F, y2: F) -> tuple:
    """phi = ((0, x1), (2, x2)) and psi = ((0, y2), (1, y1)), levels in t's
    product piece where it has one: the candidates at 1 and at 2 are
    x1 * y1 and x2 * y2, and the one at 2 stays when it is the larger."""
    if any(pc.kind == "prod" for pc in t.pieces):
        x1, x2, y1, y2 = (_in_product_piece(t, v) for v in (x1, x2, y1, y2))
    return Staircase(((F(0), x1), (F(2), x2))), Staircase(((F(0), y2), (F(1), y1)))


# Near ties under prod, found by search over a1 < a2, b1 > b2 with
# a2 * b2 = a1 * b1 + 1 over D: the candidate at 2 is one unit of D^2 above
# the one at 1, and their floats err in opposite directions by more than
# E, `_float_error`'s bound, together.  A filter that kept only candidates
# within E of the running maximum, not 2E, drops the one at 2.  Past 2^100
# the filter runs on its own; at D^2 near 2^60 the values fit int64, and
# only a forced run (the shadow mode's) takes the filter.
_CONV_TIES = [
    (2**60 + 33, 1141040381729802101, 1143049299441063892, 1014244551642133091, 1012462009240557776),
    (2**30 + 3, 1007848377, 1060519496, 813013055, 772634441),
]
# and for the implication, a1 < a2 and c1 < c2 with c2 * a1 = c1 * a2 + 1:
# a1 -> c1 = c1/a1 lies 1/(a1 a2) below a2 -> c2 = c2/a2, later, and their
# floats err by more than E together
_IMPLICATION_TIES = [
    (2**60 + 33, 544463440908947, 522426490397597, 21155099204795909, 20298854617536742),
    (2**60 + 33, 486718127149325, 440640202474091, 49060179169645064, 44415619794853501),
]


def _implication_near_tie(t, x1: F, x2: F, z1: F, z2: F) -> tuple:
    """phi = ((0, x0), (1/2, x1), (1, x2)) and xi = ((2, z1), (3, z2), (5, 1)),
    levels in t's product piece where it has one, and x0 halfway between x1
    and the larger of z1 and z2 below it: x1 -> z1 sits at 5/2 and x2 -> z2
    at 4, each other co-step after 5/2 lies above both, and the one at 5/2
    sets the meet just after 2 when it is the smaller.  Past the guard the
    filter runs."""
    x0 = (x1 + max(z for z in (z1, z2) if z < x1)) / 2
    if any(pc.kind == "prod" for pc in t.pieces):
        x0, x1, x2, z1, z2 = (_in_product_piece(t, v) for v in (x0, x1, x2, z1, z2))
    phi = Staircase(((F(0), x0), (F(1, 2), x1), (F(1), x2)))
    return phi, Staircase(((F(2), z1), (F(3), z2), (F(5), F(1))))


def _near_ties(name: str) -> tuple[list, list]:
    """Levels (x1, x2, y1, y2) for `_conv_near_tie` and (x1, x2, z1, z2)
    for `_implication_near_tie` whose values tie, or differ by one unit,
    past 2^100.  Under a product piece: the ties found by search, and equal
    values through different factors.  Under min and luk, whose values add
    and subtract levels: levels one unit of 2^101 + 1 apart."""
    if name in ("min", "luk"):
        unit = F(1, 2**101 + 1)
        x, y = F(3, 5) + unit, F(4, 5) - 7 * unit
        if name == "min":  # min(x, y) = x below y, and x -> z = z below x
            return ([(x, x + unit, x + 3 * unit, x + 2 * unit), (x, x + unit, x + 3 * unit, x)],
                    [(y, y + 4 * unit, x, x + unit)])
        # x + y - 1, and x -> z = 1 - x + z below x
        return ([(x, x + 2 * unit, y, y - unit), (x, x + unit, y, y - unit)],
                [(y, y + 2 * unit, x, x + 3 * unit), (y, y + 2 * unit, x, x + 2 * unit)])
    assert all(a2 * b2 == a1 * b1 + 1 for _, a1, a2, b1, b2 in _CONV_TIES)
    assert all(c2 * a1 == c1 * a2 + 1 for _, a1, c1, a2, c2 in _IMPLICATION_TIES)
    convs = [tuple(F(v, den) for v in tie) for den, *tie in _CONV_TIES]
    imps = [tuple(F(v, den) for v in (a1, a2, c1, c2)) for den, a1, c1, a2, c2 in _IMPLICATION_TIES]
    rng = random.Random(42)
    for _ in range(4):  # (u v)(w z) = (u w)(v z), and (u w)/(u z) = (v w)/(v z)
        u, v, w, z = sorted(rng.randrange(2**59, 2**60) for _ in range(4))
        convs.append(tuple(F(n, 2**120) for n in (u * v, u * w, w * z, v * z)))
        imps.append(tuple(F(n, 2**120) for n in (u * z, v * z, u * w, v * w)))
    return convs, imps


@pytest.mark.parametrize("name,t", TNORMS + [("nilpotent", NILPOTENT)])
def test_filtered_kernels_near_ties(name, t, monkeypatch):
    convs, imps = _near_ties(name)
    cases = [(convolve, *_conv_near_tie(t, *tie)) for tie in convs]
    cases += [(implication, *_implication_near_tie(t, *tie)) for tie in imps]
    for kernel, phi, other in cases:
        s = quantale._scale(t, phi, other)
        # the implication's values run over ld * d, d at least x1 x2
        fits = kernel is convolve and 2 * s.ld * s.m < _INT64_LIMIT
        assert _kernel_dtypes(kernel, t, phi, other, monkeypatch) == (np.int64, *((np.int64, False) if fits else (object, True)))


@pytest.mark.parametrize("name,t", [("luk", LUK), ("nilpotent", NILPOTENT)])
def test_filtered_kernels_zero_values(name, t, monkeypatch):
    # levels past the guard whose Lukasiewicz values are 0: every candidate
    # of a low pair, some of a mixed one; and the implication's floor 0
    eps = F(1, 3 * 2**64)
    top = F(1, 2) if name == "luk" else F(1, 6)  # Lukasiewicz piece from 0 to 1 or to 1/3
    low = Staircase(tuple((F(k), top * F(k, 8) - eps) for k in range(1, 9)))
    high = Staircase(tuple((F(k, 2), F(1, 2) + F(k, 20) - eps) for k in range(1, 11)))
    assert _kernel_dtypes(convolve, t, low, low, monkeypatch) == (np.int64, object, True)
    assert convolve(t, low, low) == BOTTOM
    assert _kernel_dtypes(convolve, t, low, high, monkeypatch) == (np.int64, object, True)
    floor = F(1) if name == "luk" else F(1, 3)  # floor -> 0 = 0, before low's first jump
    phi = Staircase(((F(0), floor - 7 * eps), (F(1, 2), floor)))
    assert _kernel_dtypes(implication, t, phi, low, monkeypatch) == (np.int64, object, True)
    # no co-steps: the floors through the cap alone
    assert _kernel_dtypes(implication, t, phi, BOTTOM, monkeypatch) == (np.int64, object, True)


@pytest.mark.parametrize("inside", [False, True])
def test_filtered_implication_slopes_past_float_range(inside, monkeypatch):
    # phi's levels lie 2^-1100 and less above ORDINAL's product piece's lo,
    # so slope/d = (hi - lo)/(a - lo) passes float64's range; xi's levels
    # lie below lo, and one inside (lo, a) where `inside`.  The co-steps
    # below lo do not use the slope, and the filter must raise no overflow
    # warning for them, which the suite turns into an error.
    lo, eps = F(1, 5), F(1, 2**1100)
    phi = Staircase(tuple((F(k, 2), lo + k * eps) for k in range(1, 5)))
    levels = [F(k, 100) for k in range(1, 11)] + [lo + eps / 2 if inside else F(11, 100)]
    xi = Staircase((*((F(k, 3), lv) for k, lv in enumerate(levels)), (F(20), F(1))))
    assert _kernel_dtypes(implication, ORDINAL, phi, xi, monkeypatch) == (np.int64, object, True)
