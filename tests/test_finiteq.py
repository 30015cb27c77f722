import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from ddquant import (
    FiniteQuantale,
    check_downset_equality,
    diag_homset,
    drastic_chain,
    lukasiewicz_chain,
    residuate,
    validate_quantale,
    verify_quantaloid_laws,
)
from ddquant.finiteq import chain_with_min, load_quantale, quantale_from_dict, quantale_to_dict
from ddquant.values import ValueQuantale
from util import homs_plain, join_table_plain, quantaloid_laws_plain


def test_malformed_tables_rejected():
    with pytest.raises(ValueError):
        FiniteQuantale(("a", "a"), ((True, True), (True, True)), (("a", "a"), ("a", "a")), "a")
    with pytest.raises(ValueError):
        FiniteQuantale(("a", "b"), ((True,),), (("a", "b"), ("b", "a")), "b")
    with pytest.raises(ValueError):
        FiniteQuantale(("a", "b"), ((True, True), (False, True)),
                       (("a", "c"), ("c", "a")), "b")
    with pytest.raises(ValueError):
        FiniteQuantale(("a", "b"), ((True, True), (False, True)),
                       (("a", "b"), ("b", "b")), "z")


def test_validation_reports_broken_axioms():
    # commutative but non-associative toy table on a 2-chain
    q = FiniteQuantale(
        ("0", "1"),
        ((True, True), (False, True)),
        (("1", "0"), ("0", "1")),
        "1",
    )
    report = validate_quantale(q)
    assert not report.ok
    assert any("associative" in p or "bottom" in p or "distribute" in p
               for p in report.problems)


def test_non_lattice_reported():
    # two incomparable elements with no top: not even a lattice
    q = FiniteQuantale(
        ("a", "b"),
        ((True, False), (False, True)),
        (("a", "a"), ("a", "b")),
        "a",
    )
    report = validate_quantale(q)
    assert not report.ok
    assert any("greatest" in p or "join" in p for p in report.problems)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lukasiewicz_chains_fully_divisible(n):
    q = lukasiewicz_chain(n)
    assert validate_quantale(q).ok
    laws = verify_quantaloid_laws(q)
    assert laws.ok
    assert not laws.join_gaps
    down = check_downset_equality(q)
    assert down.divisible
    assert down.equal_everywhere


def test_luk3_products_and_residuals():
    q = lukasiewicz_chain(3)
    m = "1/2"
    assert q.mult[q.index[m]][q.index[m]] == "0"
    assert residuate(q, m, "0") == m
    assert residuate(q, "1", "1/2") == "1/2"
    assert residuate(q, "0", "0") == "1"


def test_min_chain_divisible():
    q = chain_with_min(("0", "x", "1"))
    assert validate_quantale(q).ok
    assert check_downset_equality(q).divisible
    assert verify_quantaloid_laws(q).ok


def test_drastic_chain_negative_space():
    q = drastic_chain()
    assert validate_quantale(q).ok
    laws = verify_quantaloid_laws(q)
    assert laws.ok  # category laws hold even without divisibility
    down = check_downset_equality(q)
    assert not down.divisible
    assert not down.equal_everywhere
    assert ("b", "b") in down.mismatched_pairs
    hom = diag_homset(q, "b", "b").members
    assert hom == {"0", "b"}
    # the downset of b is strictly larger
    assert {k for k, e in enumerate(q.elements) if q.below(e, "b")} == {
        q.index["0"], q.index["a"], q.index["b"]}
    assert residuate(q, "b", "a") == "b"


def test_drastic_residual_witness():
    # b * (b -> a) = b * b = 0 != a, the divisibility failure in the flesh
    q = drastic_chain()
    arrow = residuate(q, "b", "a")
    assert q.mult[q.index["b"]][q.index[arrow]] == "0"


def test_json_round_trip(tmp_path):
    q = drastic_chain()
    data = quantale_to_dict(q)
    assert quantale_from_dict(data) == q
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    assert load_quantale(path) == q


def test_load_rejects_oversized_carrier(tmp_path):
    q = lukasiewicz_chain(9)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(quantale_to_dict(q)))
    with pytest.raises(ValueError, match="capped"):
        load_quantale(path)


def test_missing_fields_rejected():
    with pytest.raises(ValueError, match="missing"):
        quantale_from_dict({"elements": ["a"]})


@pytest.mark.parametrize("build,message", [
    (lambda: lukasiewicz_chain(1), "need at least two elements"),
    (lambda: quantale_from_dict(["a"]), "quantale table must be a JSON object"),
])
def test_input_checks_raise_their_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_unit_below_top_is_reported():
    # 0 < 1 with unit 0: a monoid on the chain, but not integral
    q = FiniteQuantale(("0", "1"), ((True, True), (False, True)), (("0", "1"), ("1", "1")), "0")
    assert "unit is not the top element (quantale not integral)" in validate_quantale(q).problems


@pytest.mark.parametrize(
    "build",
    [lambda: lukasiewicz_chain(4), drastic_chain, lambda: chain_with_min(("0", "x", "y", "1"))],
    ids=["luk4", "drastic", "min4"],
)
def test_quantaloid_laws_residuate_each_pair_once(build, monkeypatch):
    import ddquant.finiteq as finiteq

    calls, divided, implied, multiplied = Counter(), Counter(), Counter(), Counter()
    original = finiteq.residuate

    def spy(q, a, b):
        calls[a, b] += 1
        return original(q, a, b)

    def counting(counter, method):
        def counted(self, a, b):
            counter[a, b] += 1
            return method(self, a, b)
        return counted

    monkeypatch.setattr(finiteq, "residuate", spy)
    monkeypatch.setattr(ValueQuantale, "divides", counting(divided, ValueQuantale.divides))
    composed, homsets = Counter(), Counter()
    composites, homset = ValueQuantale.composites, finiteq.diag_homset

    def composites_spy(self, mid, e, d):
        composed[mid, e, d] += 1
        return composites(self, mid, e, d)

    def homset_spy(q, p, r):
        homsets[p, r] += 1
        return homset(q, p, r)

    monkeypatch.setattr(ValueQuantale, "composites", composites_spy)
    monkeypatch.setattr(finiteq, "diag_homset", homset_spy)
    q = build()
    n = len(q.elements)
    q.homs
    # every divisibility (p, d) is decided, each once per table
    assert len(divided) == n * n and max(divided.values()) == 1
    # the law check evaluates each distinct arrow and product once
    monkeypatch.setattr(FiniteQuantale, "implies", counting(implied, FiniteQuantale.implies))
    monkeypatch.setattr(FiniteQuantale, "compose", counting(multiplied, FiniteQuantale.compose))
    assert verify_quantaloid_laws(q).ok
    assert implied and max(implied.values()) == 1
    assert multiplied and max(multiplied.values()) == 1
    check_downset_equality(q)
    assert max(divided.values()) == 1
    assert calls and max(calls.values()) == 1
    assert composed and max(composed.values()) == 1
    assert len(homsets) == n ** 2 and max(homsets.values()) == 1


# The chain 0 < a < 1 with unit 1 and a non-commutative product: it fails
# the quantaloid laws 23 times.
_FAILING = FiniteQuantale(
    ("0", "a", "1"),
    ((True, True, True), (False, True, True), (False, False, True)),
    (("0", "0", "0"), ("0", "0", "a"), ("0", "0", "1")),
    "1",
)


def test_law_report_order_does_not_depend_on_hash_seed():
    script = (
        "import json, sys\n"
        "from ddquant.finiteq import quantale_from_dict, verify_quantaloid_laws\n"
        "r = verify_quantaloid_laws(quantale_from_dict(json.loads(sys.argv[1])))\n"
        "print(json.dumps([r.violations, r.join_gaps]))\n"
    )
    table = json.dumps(quantale_to_dict(_FAILING))
    outputs = []
    for seed in ("0", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script, table],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(json.loads(outputs[0])[0]) == 23
    assert outputs[0] == outputs[1]


def test_residuate_without_candidates_asks_for_validation():
    # every product is the top, so nothing multiplies a below 0
    q = FiniteQuantale(_FAILING.elements, _FAILING.leq, (("1",) * 3,) * 3, "1")
    with pytest.raises(ValueError, match="validate first"):
        residuate(q, "a", "0")
    with pytest.raises(ValueError, match="validate first"):
        q.divides("a", "0")
    with pytest.raises(ValueError, match="validate first"):
        diag_homset(q, "a", "0")
    with pytest.raises(ValueError, match="validate first"):
        verify_quantaloid_laws(q)
    # e0 and e2 have no meet, so there is no bottom either: both checks
    # stop before they look one up
    els = ("e0", "e1", "e2", "e3")
    broken = FiniteQuantale(
        els,
        ((1, 1, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1)),
        (("e2", "e0", "e2", "e1"), ("e2", "e0", "e1", "e2"),
         ("e2", "e0", "e0", "e3"), ("e3", "e0", "e2", "e0")),
        "e3",
    )
    for check in (verify_quantaloid_laws, check_downset_equality):
        with pytest.raises(ValueError, match="not a lattice; validate first"):
            check(broken)


def test_non_lattice_lookups_ask_for_validation():
    # the antichain x, y: no join, no meet, no bottom and no top
    q = FiniteQuantale(("x", "y"), ((1, 0), (0, 1)), (("x", "x"), ("x", "y")), "y")
    assert q.joins["x"]["y"] is None and q.meets["x"]["y"] is None
    for look_up in (lambda: q.join("x", "y"), lambda: q.bottom, lambda: q.finite("x")):
        with pytest.raises(ValueError, match="^carrier is not a lattice; validate first$"):
            look_up()
    assert q.join("x", "x") == "x"
    problems = validate_quantale(q).problems
    assert "no least element" in problems and "join of (x,y) missing" in problems
    with pytest.raises(ValueError, match="^carrier is not a lattice; validate first$"):
        verify_quantaloid_laws(q)


def _table(labels, below, times, unit):
    r = range(len(labels))
    return FiniteQuantale(tuple(labels), tuple(tuple(below(i, j) for j in r) for i in r),
                          tuple(tuple(labels[times(i, j)] for j in r) for i in r), labels[unit])


def _ordinal_luk(i, j):
    """The ordinal sum of two Lukasiewicz 3-chains on 0 < 1 < 2 < 3 < 4."""
    a, b = min(i, j), max(i, j)
    for lo, hi in ((0, 2), (2, 4)):
        if lo <= a < hi and lo < b <= hi:
            return max(lo, a + b - hi)
    return a


_SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))
_VALID = [lukasiewicz_chain(n) for n in (2, 3, 4, 5)] + [
    chain_with_min(("0", "x", "y", "1")),
    drastic_chain(),
    _table("01234", int.__le__, _ordinal_luk, 4),
    _table(("bot", "l", "r", "top"),
           lambda i, j: all(u <= v for u, v in zip(_SQUARE[i], _SQUARE[j])),
           lambda i, j: _SQUARE.index(tuple(map(min, _SQUARE[i], _SQUARE[j]))), 3),
]


def _relabelled(q, rng):
    """q with fresh labels, its elements listed in a shuffled order."""
    name = {e: f"v{rng.randrange(10**6)}_{k}" for k, e in enumerate(q.elements)}
    order = rng.sample(q.elements, len(q.elements))
    return name, FiniteQuantale(
        tuple(name[a] for a in order),
        tuple(tuple(q.below(a, b) for b in order) for a in order),
        tuple(tuple(name[q.compose(a, b)] for b in order) for a in order),
        name[q.unit],
    )


@pytest.mark.parametrize("q", _VALID, ids=lambda q: "-".join(q.elements))
def test_relabelled_valid_tables_residuate_join_and_keep_their_reports(q):
    rng = random.Random(",".join(q.elements))
    down = check_downset_equality(q)
    for _ in range(5):
        name, t = _relabelled(q, rng)
        els = t.elements
        for a in els:
            assert t.below(t.bottom, a) and t.below(a, t.unit)
            for b in els:
                ab = t.implies(a, b)
                assert all(t.below(t.compose(a, r), b) == t.below(r, ab) for r in els)
                upper = [u for u in els if t.below(a, u) and t.below(b, u)]
                assert t.join(a, b) in upper
                assert all(t.below(t.join(a, b), u) for u in upper)
        assert validate_quantale(t).ok and verify_quantaloid_laws(t).ok
        relabelled = check_downset_equality(t)
        assert relabelled.divisible == down.divisible
        assert set(relabelled.mismatched_pairs) == {
            (name[p], name[r]) for p, r in down.mismatched_pairs}


def test_associativity_violations_keep_their_messages_and_order():
    # each (r, s, d, e, g) is checked once; its messages still name every
    # (p, t) around it, in loop order
    els = ("e0", "e1", "e2")
    q = FiniteQuantale(
        els,
        tuple(tuple(i <= j for j in range(3)) for i in range(3)),
        (("e2", "e0", "e1"), ("e2", "e2", "e0"), ("e0", "e1", "e0")),
        "e2",
    )
    report = verify_quantaloid_laws(q)
    assoc = [v for v in report.violations if "associative" in v]
    assert len(report.violations) == 123
    assert len(assoc) == 61
    assert assoc[0] == "composition not associative at (e0,e0,e1) over (e0,e0,e0,e0)"
    assert assoc[-1] == "composition not associative at (e0,e0,e0) over (e2,e2,e0,e2)"


def test_escape_messages_name_both_arrows():
    # e0 < e1 with unit e1: e1 * e0 = e1 escapes; the messages name the
    # middle object, so no failure repeats once per r
    q = FiniteQuantale(
        ("e0", "e1"),
        ((True, True), (False, True)),
        (("e0", "e0"), ("e1", "e0")),
        "e1",
    )
    report = verify_quantaloid_laws(q)
    escapes = [v for v in report.violations if "escapes" in v]
    assert len(escapes) == 8
    assert "composite e1 of d=e0:e0->e1, e=e0:e1->e0 escapes hom(e0,e0)" in escapes
    assert max(Counter(report.violations).values()) == 1


# Lattice tables that are not quantales.  quantale-check stops at
# validate_quantale, so only the library reaches these reports of the
# quantaloid checker.
def _meet_table(labels, below):
    """The lattice with its meet as product and its top as unit."""
    r = range(len(labels))

    def meet(i, j):
        lower = [k for k in r if below(k, i) and below(k, j)]
        return next(k for k in lower if all(below(m, k) for m in lower))

    return _table(labels, below, meet, len(labels) - 1)


def _m3(i, j):  # 0 < a, b, c < 1
    return i == j or i == 0 or j == 4


def _diamond_times(i, j):
    """0 < a, b < 1 with a.a = a.b = b and b.b = a, 0 absorbing, 1 the unit."""
    if 0 in (i, j):
        return 0
    if 3 in (i, j):
        return i + j - 3  # the other factor
    return 1 if i == j == 2 else 2


_NOT_QUANTALES = {
    "m3": (_meet_table("0abc1", _m3), "violations", "bottom missing from hom(0,a)"),
    "n5": (  # 0 < a < b < 1 and 0 < c < 1
        _meet_table("0abc1", lambda i, j: _m3(i, j) or (i, j) == (1, 2)),
        "violations",
        "composition does not preserve join of a,c in hom(1,1) under e=b:1->b",
    ),
    "diamond": (
        _table("0ab1", lambda i, j: i == j or i == 0 or j == 3, _diamond_times, 3),
        "join_gaps",
        "join 1 of diagonals a,b in hom(b,b) is not a diagonal",
    ),
}


@pytest.mark.parametrize("name", sorted(_NOT_QUANTALES))
def test_lattices_that_are_not_quantales_reach_the_law_reports(name):
    q, field, message = _NOT_QUANTALES[name]
    assert not validate_quantale(q).ok
    assert message in getattr(verify_quantaloid_laws(q), field)


# ---------------------------------------------------------------------------
# differential: the law checker against the plain loops of tests/util.py


def _random_chain(rng: random.Random) -> FiniteQuantale:
    """A 2-4 element chain with an arbitrary product table, often neither
    commutative nor associative; mostly with bottom absorbing on the right,
    so that every residuation exists."""
    n = rng.randint(2, 4)
    labels = tuple(f"e{i}" for i in range(n))
    mult = [[rng.choice(labels) for _ in labels] for _ in labels]
    if rng.random() < 0.8:
        for row in mult:
            row[0] = labels[0]
    return FiniteQuantale(labels, tuple(tuple(i <= j for j in range(n)) for i in range(n)),
                          tuple(map(tuple, mult)), labels[-1])


def _differential_tables():
    rng = random.Random(32)
    yield from (_random_chain(rng) for _ in range(300))
    yield from (q for q, _, _ in _NOT_QUANTALES.values())
    yield from _VALID
    yield _FAILING


def _copy(q: FiniteQuantale) -> FiniteQuantale:
    return FiniteQuantale(q.elements, q.leq, q.mult, q.unit)


def test_law_reports_match_the_plain_loops():
    raised = reported = 0
    for q in _differential_tables():
        try:
            homs = homs_plain(_copy(q))
            want = quantaloid_laws_plain(_copy(q), homs)
        except ValueError:
            with pytest.raises(ValueError):
                verify_quantaloid_laws(q)
            raised += 1
            continue
        assert q.homs == homs
        assert verify_quantaloid_laws(q) == want, q
        reported += not want.ok
    # the random tables reach both outcomes, and many of them fail laws
    assert raised and reported > 100


def _random_relation(rng: random.Random) -> dict:
    """A relation on 1-5 shuffled labels as rows of bools, of random
    density: mostly reflexive, often neither antisymmetric nor a lattice."""
    n = rng.randint(1, 5)
    density = rng.random()
    rows = [[i == j and rng.random() < 0.9 or rng.random() < density for j in range(n)]
            for i in range(n)]
    labels = [f"v{i}" for i in rng.sample(range(n), n)]
    return {a: dict(zip(labels, row)) for a, row in zip(labels, rows)}


def test_join_table_matches_its_brute_force_definition():
    from ddquant.finiteq import _join_table, _least

    rng = random.Random(33)
    missing = found = 0
    for _ in range(600):
        leq = _random_relation(rng)
        want = join_table_plain(leq)
        assert _join_table(leq) == want
        least = [u for u in leq if all(leq[u].values())]
        assert _least(leq, list(leq)) == (least[0] if len(least) == 1 else None)
        missing += sum(v is None for row in want.values() for v in row.values())
        found += sum(v is not None for row in want.values() for v in row.values())
    assert missing > 100 and found > 100
