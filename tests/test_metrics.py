"""Validator and construction tests for the metric-structure layer.

Random valid instances are built from constructions that are sound by
direct argument: shortest-path closures for the numeric track, matrix
transitive closures for the staircase track, and anchored products for
the partial staircase track.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ddquant import (
    INF,
    TOP,
    ParMetInstance,
    PreconditionError,
    ProbParMetInstance,
    SlicedMetInstance,
    Staircase,
    convolve,
    coreflect,
    globalize_backward,
    globalize_forward,
    implication,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    one_step,
    parmet_to_slice,
    slice_to_parmet,
    validate_met,
    validate_parmet,
    validate_probmet,
    validate_probparmet,
    validate_slice,
)
from ddquant import cli, metrics
from ddquant.axis import ZERO, time_add
from ddquant.values import Staircases

from util import MIN, TNORMS, delay_step, metric_axiom_oracle, rand_staircase

X, Y, Z = "x", "y", "z"


def num(points, rows):
    return ParMetInstance(tuple(points), tuple(tuple(r) for r in rows))


def prob(points, rows, t=MIN):
    return ProbParMetInstance(tuple(points), tuple(tuple(r) for r in rows), t)


# the running two-point partial staircase instance
def worked_prob_instance(t=MIN):
    half = one_step(0, Fraction(1, 2))
    cross = one_step(1, Fraction(1, 2))
    return prob((X, Y), ((half, cross), (cross, TOP)), t)


# ---------------------------------------------------------------------------
# random valid instances

def _rand_entry(rng, allow_inf):
    if allow_inf and rng.random() < Fraction(1, 6):
        return INF
    return Fraction(rng.randrange(0, 17), rng.choice((1, 2, 4)))


def rand_closed_base(rng, n, allow_inf=True):
    """Zero-diagonal matrix closed under the triangle inequality."""
    b = [
        [ZERO if i == j else _rand_entry(rng, allow_inf) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = time_add(b[i][k], b[k][j])
                if via < b[i][j]:
                    b[i][j] = via
    return b


def rand_parmet(rng, n):
    # anchors chosen as distances from virtual sources keep PM1/PM2 intact
    b = rand_closed_base(rng, n)
    a0 = [_rand_entry(rng, True) for _ in range(n)]
    anchor = [min(time_add(a0[w], b[w][x]) for w in range(n)) for x in range(n)]
    dist = tuple(
        tuple(time_add(anchor[i], b[i][j]) for j in range(n)) for i in range(n)
    )
    return ParMetInstance(tuple(f"p{i}" for i in range(n)), dist)


def rand_probmet(rng, t, n):
    """Transitive closure of a random staircase matrix with top diagonal."""
    d = [
        [TOP if i == j else rand_staircase(rng, max_steps=3, allow_empty=False) for j in range(n)]
        for i in range(n)
    ]
    changed = True
    rounds = 0
    while changed:
        rounds += 1
        assert rounds <= 8, "closure failed to stabilize"
        changed = False
        new = [row[:] for row in d]
        for i in range(n):
            for k in range(n):
                acc = d[i][k]
                for j in range(n):
                    acc = acc.join(convolve(t, d[j][k], d[i][j]))
                if acc != d[i][k]:
                    changed = True
                new[i][k] = acc
        d = new
    return prob(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, d)), t)


def rand_probparmet(rng, t, n):
    """Valid partial instance: blocks scaled by a common factor, bottom across.

    Within a block every entry is psi (x) beta(x,y) for a fixed psi, which
    is divisible by psi on both sides; across blocks the bottom staircase is
    divisible by everything and composes to bottom.
    """
    cut = rng.randrange(1, n + 1)
    blocks = [list(range(cut)), list(range(cut, n))]
    rows = [[Staircase() for _ in range(n)] for _ in range(n)]
    for block in blocks:
        if not block:
            continue
        psi = rand_staircase(rng, max_steps=2, allow_empty=False)
        beta = rand_probmet(rng, t, len(block))
        for bi, i in enumerate(block):
            for bj, j in enumerate(block):
                rows[i][j] = convolve(t, psi, beta.entry(bi, bj))
    return prob(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, rows)), t)


# ---------------------------------------------------------------------------
# numeric track: plain metric

def test_met_accepts_zero_diagonal_triangle():
    m = num((X, Y, Z), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    report = validate_met(m)
    assert report.ok
    assert report.kind == "met"
    assert report.violations == ()
    assert report.flag("finitary")
    assert report.flag("symmetric")
    assert report.flag("separated")


def test_met_allows_infinite_distance():
    m = num((X, Y), ((0, INF), (INF, 0)))
    report = validate_met(m)
    assert report.ok
    assert not report.flag("finitary")


def test_met_rejects_nonzero_self_distance():
    m = num((X, Y), ((1, 3), (3, 2)))
    report = validate_met(m)
    assert not report.ok
    v = report.violations[0]
    assert v.axiom == "M1"
    assert v.points == (X,)
    assert v.left == "1"
    assert v.right == "0"


def test_met_reports_triangle_breach():
    m = num((X, Y, Z), ((0, 1, 5), (1, 0, 1), (5, 1, 0)))
    report = validate_met(m)
    assert not report.ok
    hits = [v for v in report.violations if v.axiom == "M2"]
    assert (X, Y, Z) in [v.points for v in hits]
    first = [v for v in hits if v.points == (X, Y, Z)][0]
    assert first.left == "5"
    assert first.right == "2"


def test_met_separated_flag_is_about_vanishing_distance():
    # distinct points at distance zero: fine as a metric, but not separated
    m = num((X, Y), ((0, 0), (0, 0)))
    report = validate_met(m)
    assert report.ok
    assert not report.flag("separated")


# ---------------------------------------------------------------------------
# numeric track: partial metric

def test_parmet_worked_instance_is_valid():
    m = num((X, Y), ((1, 3), (3, 2)))
    report = validate_parmet(m)
    assert report.ok
    assert report.kind == "parmet"
    assert report.flag("finitary") and report.flag("symmetric") and report.flag("separated")


def test_parmet_rejects_cross_below_self():
    m = num((X, Y), ((0, 1), (1, 2)))
    report = validate_parmet(m)
    assert not report.ok
    v = [v for v in report.violations if v.axiom == "PM1"][0]
    assert v.points == (X, Y)
    assert v.left == "2"
    assert v.right == "1"


def test_parmet_rejects_discounted_triangle_breach():
    # zero diagonal makes the discounted triangle the plain one
    m = num((X, Y, Z), ((0, 1, 5), (1, 0, 1), (5, 1, 0)))
    report = validate_parmet(m)
    assert not report.ok
    assert any(v.axiom == "PM2" for v in report.violations)


def test_every_metric_is_a_partial_metric():
    rng = random.Random(5)
    for _ in range(40):
        b = rand_closed_base(rng, rng.randrange(2, 5))
        m = ParMetInstance(
            tuple(f"p{i}" for i in range(len(b))), tuple(map(tuple, b))
        )
        assert validate_met(m).ok
        assert validate_parmet(m).ok


def test_random_partial_instances_validate():
    rng = random.Random(6)
    for _ in range(60):
        m = rand_parmet(rng, rng.randrange(1, 5))
        report = validate_parmet(m)
        assert report.ok, report.violations


def test_all_infinite_instance_is_valid():
    m = num((X, Y), ((INF, INF), (INF, INF)))
    assert validate_parmet(m).ok


# ---------------------------------------------------------------------------
# staircase track: plain

def test_probmet_single_point():
    report = validate_probmet(prob((X,), ((TOP,),)))
    assert report.ok


def test_probmet_two_point_worked():
    c = one_step(1, 1)
    report = validate_probmet(prob((X, Y), ((TOP, c), (c, TOP))))
    assert report.ok
    assert report.flag("finitary")


def test_probmet_rejects_nontop_diagonal():
    c = one_step(1, 1)
    report = validate_probmet(prob((X, Y), ((c, c), (c, TOP))))
    assert not report.ok
    v = report.violations[0]
    assert v.axiom == "ProbM1"
    assert v.points == (X,)
    assert v.right == "steps[(0,1)]"


def test_probmet_rejects_slow_composite():
    c = one_step(1, 1)
    far = one_step(3, 1)
    m = prob((X, Y, Z), ((TOP, c, far), (c, TOP, c), (far, c, TOP)))
    report = validate_probmet(m)
    assert not report.ok
    v = [v for v in report.violations if v.points == (X, Y, Z)][0]
    assert v.axiom == "ProbM2"
    assert v.left == "steps[(2,1)]"
    assert v.right == "steps[(3,1)]"


def test_random_closures_are_probmets():
    rng = random.Random(7)
    for name, t in TNORMS:
        for _ in range(12):
            m = rand_probmet(rng, t, rng.randrange(1, 4))
            report = validate_probmet(m)
            assert report.ok, (name, report.violations)


# ---------------------------------------------------------------------------
# staircase track: partial

def test_probmets_validate_as_partial():
    rng = random.Random(8)
    for name, t in TNORMS:
        for _ in range(8):
            m = rand_probmet(rng, t, rng.randrange(1, 4))
            assert validate_probparmet(m).ok, name


def test_worked_partial_instance_valid_with_flags():
    report = validate_probparmet(worked_prob_instance())
    assert report.ok
    assert report.kind == "probparmet"
    assert dict(report.flags) == {
        "finitary": False,
        "separated": True,
        "symmetric": True,
    }


def test_partial_instance_rejects_entry_above_endpoint():
    bad = one_step(1, Fraction(3, 4))
    half = one_step(0, Fraction(1, 2))
    m = prob((X, Y), ((half, bad), (bad, TOP)))
    report = validate_probparmet(m)
    assert not report.ok
    v = report.violations[0]
    assert v.axiom == "ProbPM1"
    assert v.points == (X, Y)
    # the largest divisible staircase below the entry, capped at level 1/2
    assert v.left == "steps[(1,1/2)]"
    assert v.right == "steps[(1,3/4)]"


def test_random_anchored_instances_validate():
    rng = random.Random(9)
    for name, t in TNORMS:
        for _ in range(10):
            m = rand_probparmet(rng, t, rng.randrange(2, 5))
            report = validate_probparmet(m)
            assert report.ok, (name, report.violations)


def test_all_bottom_instance_is_valid():
    bottom = Staircase()
    m = prob((X, Y), ((bottom, bottom), (bottom, bottom)))
    assert validate_probparmet(m).ok


def test_entries_sit_below_endpoint_meet():
    rng = random.Random(10)
    for name, t in TNORMS:
        for _ in range(6):
            m = rand_probparmet(rng, t, 3)
            for i in range(3):
                for j in range(3):
                    cap = m.entry(i, i).meet(m.entry(j, j))
                    assert m.entry(i, j).leq(cap), name


def test_composition_formulas_agree_on_valid_instances():
    # through a middle point both discounting orders give the same staircase
    rng = random.Random(11)
    for name, t in TNORMS:
        for _ in range(6):
            m = rand_probparmet(rng, t, 3)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        mid = m.entry(j, j)
                        left = convolve(
                            t, implication(t, mid, m.entry(j, k)), m.entry(i, j)
                        )
                        right = convolve(
                            t, m.entry(j, k), implication(t, mid, m.entry(i, j))
                        )
                        assert left == right, name


# ---------------------------------------------------------------------------
# both tracks against the axioms transcribed directly

def _rand_matrix(rng, n, entry):
    return tuple(tuple(entry() for _ in range(n)) for _ in range(n))


def _assert_matches_oracle(m, validate, partial):
    report = validate(m)
    want = metric_axiom_oracle(m, partial)
    assert [(v.axiom, v.points) for v in report.violations] == want
    assert report.ok == (not want)


def test_numeric_validators_match_axiom_oracle():
    rng = random.Random(21)
    for it in range(300):
        n = rng.randrange(1, 5)
        if it % 3 == 0:
            dist = rand_parmet(rng, n).dist
        elif it % 3 == 1:
            dist = rand_closed_base(rng, n)
        else:
            dist = _rand_matrix(rng, n, lambda: _rand_entry(rng, True))
        m = ParMetInstance(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, dist)))
        _assert_matches_oracle(m, validate_met, partial=False)
        _assert_matches_oracle(m, validate_parmet, partial=True)


@pytest.mark.parametrize("name,t", TNORMS)
def test_staircase_validators_match_axiom_oracle(name, t):
    rng = random.Random(22)
    for it in range(12):
        n = rng.randrange(1, 4)
        if it % 3 == 0:
            m = rand_probparmet(rng, t, max(n, 2))
        elif it % 3 == 1:
            m = rand_probmet(rng, t, n)
        else:
            dist = _rand_matrix(rng, n, lambda: rand_staircase(rng, max_steps=3))
            m = prob(tuple(f"p{i}" for i in range(n)), dist, t)
        _assert_matches_oracle(m, validate_probmet, partial=False)
        _assert_matches_oracle(m, validate_probparmet, partial=True)
    # symmetric instances up to 5 points, mirrored entries as equal but
    # separate objects: a valid probmet met with its transpose, some
    # mirrored pairs delayed (up to 4 points, as the closure's entries
    # grow), and random entries
    mirrored = set()
    for it in range(6):
        if it % 2 == 0:
            n = rng.randrange(2, 5)
            d = rand_probmet(rng, t, n).dist
            rows = [[d[i][j].meet(d[j][i]) for j in range(n)] for i in range(n)]
            for i, j in rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], n - 1):
                rows[i][j] = delay_step(rows[i][j], rng)
        else:
            n = rng.randrange(3, 6)
            rows = [[rand_staircase(rng, max_steps=3) for _ in range(n)] for _ in range(n)]
        dist = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        dist = [
            [Staircase(e.steps) if i > j else e for j, e in enumerate(row)]
            for i, row in enumerate(dist)
        ]
        m = prob(tuple(f"p{i}" for i in range(n)), dist, t)
        _assert_matches_oracle(m, validate_probmet, partial=False)
        _assert_matches_oracle(m, validate_probparmet, partial=True)
        failed = {v.points for v in validate_probmet(m).violations if v.axiom == "ProbM2"}
        mirrored |= {(a, b, c) for a, b, c in failed if a != c and (c, b, a) in failed}
    assert mirrored


def test_parmet_pm1_failure_report_is_pinned():
    # PM1 reports the residual by the first self-distance that moves the
    # entry, and PM2 uses the discount of d(i,j) by the middle point
    m = num((X, Y, Z), ((2, 1, 4), (1, 3, 2), (4, 2, 0)))
    report = validate_parmet(m)
    assert not report.ok
    assert [v.to_dict() for v in report.violations] == [
        {"axiom": "PM1", "points": [X, Y], "left": "2", "right": "1"},
        {"axiom": "PM1", "points": [Y, X], "left": "3", "right": "1"},
        {"axiom": "PM1", "points": [Y, Z], "left": "3", "right": "2"},
        {"axiom": "PM1", "points": [Z, Y], "left": "3", "right": "2"},
        {"axiom": "PM2", "points": [X, Y, X], "left": "2", "right": "1"},
        {"axiom": "PM2", "points": [X, Y, Z], "left": "4", "right": "2"},
        {"axiom": "PM2", "points": [Y, X, Y], "left": "3", "right": "1"},
        {"axiom": "PM2", "points": [Z, Y, X], "left": "4", "right": "1"},
    ]


def test_pm1_takes_one_residual_on_the_diagonal(monkeypatch, capsys):
    # PM1 checks d(i,j) against d(i,i) and d(j,j): one residual when i == j,
    # and one per distinct value pair (d(i,j), d(end,end)).
    data = Path(__file__).parent
    calls = []
    residual = Staircases.residual

    def counted(self, d, p):
        calls.append((d, p))
        return residual(self, d, p)

    monkeypatch.setattr(Staircases, "residual", counted)
    report = validate_probparmet(load_instance(data / "data" / "bad_probparmet_instance.json"))
    assert len(calls) == len(set(calls)) == 9
    assert len(report.violations) == 11
    calls.clear()
    assert cli.main(["validate", str(data / "data" / "bad_probparmet_instance.json")]) == 1
    assert capsys.readouterr().out == (data / "golden" / "validate_bad_probparmet.txt").read_text()
    assert len(calls) == len(set(calls)) == 9


@pytest.mark.parametrize("respell", [False, True], ids=["as-written", "respelled"])
def test_validate_does_each_piece_of_work_once(respell, monkeypatch, capsys, tmp_path):
    # One parse per distinct entry text, one PM1 residual and one discount
    # per distinct value pair, and one decision per key ({phi, psi}, xi):
    # under a continuous t-norm convolution commutes, so on a symmetric
    # instance (i, j, k) and (k, j, i) are one check.  A respelled mirrored
    # entry is one more text but the same value.
    import ddquant.metrics as metrics
    import ddquant.quantale as quantale

    here = Path(__file__).parent
    data = json.loads((here / "data" / "symmetric_prod_instance.json").read_text())
    if respell:
        data["dist"][1][0] = "steps[(2/4,2/6),(2/2,1)]"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    m = instance_from_dict(data)
    d, n, t = m.dist, m.size, m.tnorm
    parses, residuals, discounts, decided = Counter(), Counter(), Counter(), []
    parse, residual, implies = metrics.parse_staircase, Staircases.residual, Staircases.implies
    below = quantale._below_keys
    monkeypatch.setattr(
        metrics, "parse_staircase", lambda text: parses.update([text]) or parse(text)
    )
    monkeypatch.setattr(
        Staircases, "residual", lambda q, a, b: residuals.update([(a, b)]) or residual(q, a, b)
    )
    monkeypatch.setattr(
        Staircases, "implies", lambda q, a, b: discounts.update([(a, b)]) or implies(q, a, b)
    )
    monkeypatch.setattr(
        quantale, "_below_keys",
        lambda t, scs, *keys: decided.append(len(keys[0])) or below(t, scs, *keys),
    )
    for kind, golden in (("probparmet", "validate_symmetric_prod.txt"),
                         ("probmet", "validate_symmetric_prod_probmet.txt")):
        parses.clear(), residuals.clear(), discounts.clear(), decided.clear()
        assert cli.main(["validate", "--kind", kind, str(path)]) == 1
        assert capsys.readouterr().out == (here / "golden" / golden).read_text()
        assert parses == Counter({v for row in data["dist"] for v in row})
        assert len(parses) == (8 if respell else 7)
        assert set(residuals.values()) == ({1} if kind == "probparmet" else set())
        assert len(residuals) == (7 if kind == "probparmet" else 0)
        pairs = {(d[j][j], d[i][j]) for i in range(n) for j in range(n)}
        assert discounts == (Counter(pairs) if kind == "probparmet" else Counter())
        via = d if kind == "probmet" else [
            [implication(t, d[j][j], e) for j, e in enumerate(row)] for row in d
        ]
        keys = {
            (frozenset((d[j][k], via[i][j])), d[i][k]) for i, j, k in product(range(n), repeat=3)
        }
        assert decided == [len(keys)] and len(keys) < n**3


# ---------------------------------------------------------------------------
# globalization

def test_globalize_numeric_worked_values():
    m = num((X, Y), ((1, 3), (3, 2)))
    fwd = globalize_forward(m)
    assert fwd.dist == ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(0)))
    bwd = globalize_backward(m)
    assert bwd.dist == ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))
    assert validate_met(fwd).ok
    assert validate_met(bwd).ok


def test_globalize_fixes_metrics():
    m = num((X, Y, Z), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    assert globalize_forward(m) == m
    assert globalize_backward(m) == m


def test_globalize_staircase_worked_values():
    m = worked_prob_instance()
    fwd = globalize_forward(m)
    assert fwd.entry(0, 1) == one_step(1, 1)
    assert fwd.entry(1, 0) == one_step(1, Fraction(1, 2))
    assert fwd.entry(0, 0) == TOP and fwd.entry(1, 1) == TOP
    bwd = globalize_backward(m)
    assert bwd.entry(0, 1) == one_step(1, Fraction(1, 2))
    assert bwd.entry(1, 0) == one_step(1, 1)


def test_globalization_outputs_validate():
    rng = random.Random(12)
    for _ in range(25):
        m = rand_parmet(rng, rng.randrange(1, 5))
        assert validate_met(globalize_forward(m)).ok
        assert validate_met(globalize_backward(m)).ok
    for name, t in TNORMS:
        for _ in range(6):
            p = rand_probparmet(rng, t, 3)
            assert validate_probmet(globalize_forward(p)).ok, name
            assert validate_probmet(globalize_backward(p)).ok, name


def test_globalize_rejects_invalid_input():
    m = num((X, Y), ((0, 1), (1, 2)))
    with pytest.raises(PreconditionError, match="PM1"):
        globalize_forward(m)
    bad = one_step(1, Fraction(3, 4))
    half = one_step(0, Fraction(1, 2))
    p = prob((X, Y), ((half, bad), (bad, TOP)))
    with pytest.raises(PreconditionError, match="ProbPM1"):
        globalize_backward(p)


# ---------------------------------------------------------------------------
# coreflection

def test_coreflect_keeps_unit_self_distance_points():
    m = worked_prob_instance()
    out = coreflect(m)
    assert out.points == (Y,)
    assert out.dist == ((TOP,),)
    assert validate_probmet(out).ok


def test_coreflect_identity_and_empty():
    metric = num((X, Y), ((0, 1), (1, 0)))
    assert coreflect(metric) == metric
    partial = num((X, Y), ((1, 3), (3, 2)))
    empty = coreflect(partial)
    assert empty.points == ()
    assert validate_met(empty).ok


def test_coreflect_random_outputs_validate():
    rng = random.Random(13)
    for _ in range(25):
        m = rand_parmet(rng, rng.randrange(1, 5))
        assert validate_met(coreflect(m)).ok
    for name, t in TNORMS:
        for _ in range(6):
            p = rand_probparmet(rng, t, 3)
            assert validate_probmet(coreflect(p)).ok, name


# ---------------------------------------------------------------------------
# slices

def test_slice_worked_example():
    m = num((X, Y), ((1, 3), (3, 2)))
    s = parmet_to_slice(m)
    assert s.anchor == (Fraction(1), Fraction(2))
    assert s.base.entry(0, 1) == Fraction(2)
    assert s.base.entry(1, 0) == Fraction(1)
    assert validate_slice(s).ok
    assert slice_to_parmet(s) == m


def test_slice_of_metric_has_zero_anchor():
    m = num((X, Y), ((0, 5), (5, 0)))
    s = parmet_to_slice(m)
    assert s.anchor == (ZERO, ZERO)
    assert s.base == m


def test_slice_round_trip_on_random_instances():
    rng = random.Random(14)
    for _ in range(100):
        m = rand_parmet(rng, rng.randrange(1, 5))
        s = parmet_to_slice(m)
        assert validate_slice(s).ok
        assert slice_to_parmet(s) == m


def test_slice_round_trip_from_slice_side_finite_anchors():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randrange(1, 5)
        b = rand_closed_base(rng, n)
        a0 = [_rand_entry(rng, False) for _ in range(n)]
        anchor = tuple(
            min(time_add(a0[w], b[w][x]) for w in range(n)) for x in range(n)
        )
        s = SlicedMetInstance(
            ParMetInstance(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, b))),
            anchor,
        )
        assert validate_slice(s).ok
        assert parmet_to_slice(slice_to_parmet(s)) == s


def test_slice_with_infinite_anchors_collapses():
    # valid slice whose base is forgotten after anchoring at infinity;
    # only the rebuilt instance side of the round trip is an identity
    base = num((X, Y), ((0, 5), (5, 0)))
    s = SlicedMetInstance(base, (INF, INF))
    assert validate_slice(s).ok
    m = slice_to_parmet(s)
    assert m.dist == ((INF, INF), (INF, INF))
    back = parmet_to_slice(m)
    assert back.anchor == (INF, INF)
    assert back.base.entry(0, 1) == ZERO
    assert parmet_to_slice(slice_to_parmet(back)) == back


def test_slice_rejects_anchor_growing_faster_than_base():
    s = SlicedMetInstance(num((X, Y), ((0, 1), (1, 0))), (0, 5))
    report = validate_slice(s)
    assert not report.ok
    v = [v for v in report.violations if v.axiom == "anchor"][0]
    assert v.points == (X, Y)
    assert v.left == "5"
    assert v.right == "1"
    with pytest.raises(PreconditionError, match="anchor"):
        slice_to_parmet(s)


# ---------------------------------------------------------------------------
# serialisation

def test_numeric_instance_dict_round_trip():
    m = num((X, Y), ((1, INF), (Fraction(7, 2), 2)))
    data = instance_to_dict(m)
    assert data["dist"][0][1] == "inf"
    assert data["dist"][1][0] == "7/2"
    assert instance_from_dict(data) == m


def test_staircase_instance_dict_round_trip():
    m = worked_prob_instance()
    data = instance_to_dict(m)
    assert data["tnorm"] == "min"
    assert data["dist"][0][0] == "steps[(0,1/2)]"
    assert instance_from_dict(data) == m


def test_track_selected_by_tnorm_key():
    numeric = instance_from_dict({"points": ["x"], "dist": [["0"]]})
    assert isinstance(numeric, ParMetInstance)
    staircases = instance_from_dict(
        {"points": ["x"], "dist": [["steps[(0,1)]"]], "tnorm": "min"}
    )
    assert isinstance(staircases, ProbParMetInstance)


def test_load_instance_from_file(tmp_path):
    import json

    m = worked_prob_instance()
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_dict(m)))
    assert load_instance(path) == m


def test_load_instance_takes_points_up_to_the_budget(tmp_path):
    # one point more exits 2 (tests/test_cli.py)
    n = metrics._MAX_POINTS
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"points": [f"p{i}" for i in range(n)], "dist": [["0"] * n] * n}))
    assert load_instance(path).size == n


def test_instance_from_dict_rejects_missing_fields():
    with pytest.raises(ValueError, match="missing field"):
        instance_from_dict({"points": ["x"]})


def test_instance_shape_validation():
    with pytest.raises(ValueError, match="duplicate"):
        num((X, X), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="square"):
        num((X, Y), ((0, 1),))
    with pytest.raises(ValueError, match="staircases"):
        prob((X,), ((Fraction(1),),))


@pytest.mark.parametrize("build,error,message", [
    (lambda: instance_from_dict(["x"]), ValueError, "instance must be a JSON object"),
    (lambda: instance_from_dict({"points": ["x"], "dist": [["0"]], "tnorm": 1}),
     ValueError, "instance field 'tnorm' must be a string"),
    (lambda: SlicedMetInstance(num((X, Y), ((0, 1), (1, 0))), (0,)),
     ValueError, "one anchor per point required"),
    (lambda: validate_met(num((X,), ((0,),))).flag("nope"), KeyError, "'nope'"),
])
def test_input_checks_raise_their_messages(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
