"""Acceptance suite: one test per numbered criterion, one printed line each.

Each test prints `criterion NN <label>: PASS (<elapsed>)` through the
capture-disabled stream so the line is visible in normal pytest runs; a
failing criterion prints FAIL before the traceback.  Runtime budgets are
asserted where the criterion states one.

The only deliberate failure is the Lukasiewicz instance of the literal
one-step implication form, kept as a strict xfail: the right adjoint of
convolution by a one-step function gains a constant segment at level
a -> 0 below the shift, which vanishes only for t-norms without zero
divisors.  The corrected join form is asserted for all four t-norms in
criterion 01.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ddquant import (
    BOTTOM,
    INF,
    TOP,
    MonotoneStep,
    Staircase,
    certify_not_divisible,
    check_downset_equality,
    convolve,
    convolve_monotone,
    diag_homset,
    divisibility_upper_bound,
    drastic_chain,
    find_nondiagonal_below,
    flat_criterion_min,
    implication,
    is_divisible_by,
    lukasiewicz_chain,
    one_step,
    parse_linear,
    validate_met,
    validate_parmet,
    validate_probmet,
    validate_probparmet,
    validate_quantale,
    validate_slice,
    verify_quantaloid_laws,
    vertical_distance,
    vertical_distance_grid,
    vertical_distance_sup_below,
)
from ddquant.cli import main as cli_main
from ddquant.metrics import parmet_to_slice, slice_to_parmet

from test_cli import DATA, golden
from test_metrics import prob, rand_parmet, rand_probmet, worked_prob_instance
from util import (
    MIN,
    TNORMS,
    rand_monotone,
    rand_staircase,
    rand_time,
    rand_unit,
)


@contextmanager
def criterion(capsys, number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"criterion {number:02d} {label}: PASS ({elapsed:.2f}s)")


def _quadruples(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield (
            rand_time(rng),
            rand_unit(rng),
            rand_time(rng),
            rand_unit(rng),
        )


def test_criterion_01_step_laws(capsys):
    with criterion(capsys, 1, "one-step laws"):
        start = time.perf_counter()
        for name, t in TNORMS:
            free_of_zero_divisors = all(
                t.implies(a, Fraction(0)) == 0
                for a in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10))
            )
            for p, a, q, b in _quadruples(f"c1-{name}", 500):
                got = convolve(t, one_step(p, a), one_step(q, b))
                assert got == one_step(p + q, t.apply(a, b))
                shift = max(Fraction(0), q - p)
                got_imp = implication(t, one_step(p, a), one_step(q, b))
                corrected = one_step(Fraction(0), t.implies(a, Fraction(0))).join(
                    one_step(shift, t.implies(a, b))
                )
                assert got_imp == corrected
                if free_of_zero_divisors:
                    assert got_imp == one_step(shift, t.implies(a, b))
        assert time.perf_counter() - start < 2.0


@pytest.mark.xfail(
    strict=True,
    reason="a nilpotent t-norm has zero divisors, so the one-step implication "
    "also carries a constant a->0 segment below the shift; the single-step "
    "closed form cannot represent it",
)
def test_criterion_01_literal_implication_form_luk(capsys):
    luk = dict(TNORMS)["luk"]
    with capsys.disabled():
        print(
            "criterion 01 luk literal one-step implication: FAIL "
            "(expected; corrected join form verified above)"
        )
    for p, a, q, b in _quadruples("c1-literal", 500):
        shift = max(Fraction(0), q - p)
        assert implication(luk, one_step(p, a), one_step(q, b)) == one_step(
            shift, luk.implies(a, b)
        )


def test_criterion_02_adjunction(capsys):
    with criterion(capsys, 2, "residuation adjunction"):
        start = time.perf_counter()
        for name, t in TNORMS:
            rng = random.Random(f"c2-{name}")
            for _ in range(300):
                phi = rand_staircase(rng)
                psi = rand_staircase(rng)
                xi = rand_staircase(rng)
                imp = implication(t, phi, xi)
                assert convolve(t, phi, psi).leq(xi) == psi.leq(imp)
                # boundary cases where each side holds by construction
                assert convolve(t, phi, imp).leq(xi)
                assert psi.leq(implication(t, phi, convolve(t, phi, psi)))
        assert time.perf_counter() - start < 10.0


def test_criterion_03_quantale_laws(capsys):
    with criterion(capsys, 3, "quantale laws"):
        start = time.perf_counter()
        for name, t in TNORMS:
            rng = random.Random(f"c3-{name}")
            for _ in range(200):
                phi = rand_staircase(rng)
                psi = rand_staircase(rng)
                chi = rand_staircase(rng)
                assert convolve(t, phi, psi) == convolve(t, psi, phi)
                assert convolve(t, convolve(t, phi, psi), chi) == convolve(
                    t, phi, convolve(t, psi, chi)
                )
                assert convolve(t, phi, TOP) == phi
                assert convolve(t, phi, psi.join(chi)) == convolve(t, phi, psi).join(
                    convolve(t, phi, chi)
                )
        assert time.perf_counter() - start < 10.0


def test_criterion_04_regularization_law(capsys):
    with criterion(capsys, 4, "regularization of monotone convolution"):
        for name, t in TNORMS:
            rng = random.Random(f"c4-{name}")
            for _ in range(50):
                m1 = rand_monotone(rng)
                m2 = rand_monotone(rng)
                assert convolve_monotone(t, m1, m2).regularize() == convolve(
                    t, m1.regularize(), m2.regularize()
                )
        # value at infinity is not determined by the finite part: the top
        # staircase against the zero map with value 1 at infinity
        m1 = MonotoneStep.from_staircase(TOP)
        m2 = MonotoneStep((Fraction(0),), (Fraction(0),), (Fraction(0),), Fraction(1))
        for name, t in TNORMS:
            res = convolve_monotone(t, m1, m2)
            assert res == m2
            for probe in (Fraction(0), Fraction(1, 2), Fraction(10)):
                assert res(probe) == 0
            assert res(INF) == 1
            assert res.regularize() == BOTTOM


def test_criterion_05_one_step_divisibility(capsys):
    with criterion(capsys, 5, "everything below a one-step divides"):
        for name, t in TNORMS:
            rng = random.Random(f"c5-{name}")
            for _ in range(50):
                phi = one_step(rand_time(rng), rand_unit(rng))
                for _ in range(200):
                    xi = rand_staircase(rng, max_steps=4).meet(phi)
                    assert is_divisible_by(t, xi, phi), (name, str(phi), str(xi))


def test_criterion_06_multi_step_witnesses(capsys):
    with criterion(capsys, 6, "non-diagonal witnesses below multi-step divisors"):
        for name, t in TNORMS:
            rng = random.Random(f"c6-{name}")
            found = 0
            while found < 100:
                phi = rand_staircase(rng, max_steps=5, allow_empty=False)
                if len(phi.steps) < 2:
                    continue
                found += 1
                witness = find_nondiagonal_below(t, phi)
                assert witness is not None, (name, str(phi))
                assert witness.leq(phi)
                assert not is_divisible_by(t, witness, phi)
            for _ in range(25):
                single = one_step(rand_time(rng), rand_unit(rng))
                assert find_nondiagonal_below(t, single) is None


def test_criterion_07_flat_criterion(capsys):
    with criterion(capsys, 7, "flat-adjoint criterion matches the decision"):
        rng = random.Random("c7")
        for _ in range(200):
            phi = rand_staircase(rng)
            xi = rand_staircase(rng)
            assert flat_criterion_min(xi, phi) == is_divisible_by(MIN, xi, phi)


def test_criterion_08_certified_non_divisibility(capsys):
    with criterion(capsys, 8, "certified non-divisibility of the unit ramp"):
        start = time.perf_counter()
        ramp = parse_linear("linear[(0,0),(1,1)]")
        xi = one_step(1, 1)
        for name in ("min", "prod", "luk"):
            t = dict(TNORMS)[name]
            cert = certify_not_divisible(t, ramp, xi, 128)
            assert cert is not None, name
            assert cert.gap > 0
            assert xi(cert.witness) - divisibility_upper_bound(t, ramp, xi, 128)(
                cert.witness
            ) == cert.gap
        bound = divisibility_upper_bound(MIN, ramp, xi, 128)
        at = Fraction(3, 2)
        gap_at = xi(at) - bound(at)
        assert gap_at >= 1 - (Fraction(1, 2) + Fraction(1, 128))
        # the certified bound sits above the analytic value 1/2 there
        assert bound(at) >= Fraction(1, 2)
        assert time.perf_counter() - start < 5.0


def test_criterion_09_vertical_distance_grid(capsys):
    with criterion(capsys, 9, "implication equals regularized pointwise gap"):
        for name, t in TNORMS:
            rng = random.Random(f"c9-{name}")
            for _ in range(100):
                phi = rand_staircase(rng)
                xi = rand_staircase(rng)
                jumps = phi.jumps + xi.jumps
                hi = (max(jumps) if jumps else Fraction(1)) + 2
                grid = [hi * k / 49 for k in range(49)] + [INF]
                imp = implication(t, phi, xi)
                raw = vertical_distance_grid(t, phi, xi, grid)
                for at, v in zip(grid, raw, strict=True):
                    assert v == vertical_distance(t, phi, xi, at)
                    reg = vertical_distance_sup_below(t, phi, xi, at)
                    assert imp(at) == reg
                    assert reg <= v


def test_criterion_10_finite_quantale_oracle(capsys):
    with criterion(capsys, 10, "finite chains oracle"):
        start = time.perf_counter()
        for n in range(2, 6):
            q = lukasiewicz_chain(n)
            assert validate_quantale(q).ok
            laws = verify_quantaloid_laws(q)
            assert laws.ok and not laws.violations
            down = check_downset_equality(q)
            assert down.divisible and down.equal_everywhere
        d = drastic_chain(("0", "a", "b", "1"))
        assert validate_quantale(d).ok
        assert verify_quantaloid_laws(d).ok
        down = check_downset_equality(d)
        assert not down.divisible
        hom_bb = diag_homset(d, "b", "b").members
        assert hom_bb == {"0", "b"}
        below_b = {e for e in d.elements if d.below(e, "b")}
        assert below_b == {"0", "a", "b"}
        assert ("a", "b") in down.mismatched_pairs
        assert time.perf_counter() - start < 5.0


def test_criterion_11_slice_isomorphism(capsys):
    with criterion(capsys, 11, "partial-metric slice equivalence"):
        rng = random.Random("c11")
        for _ in range(100):
            m = rand_parmet(rng, rng.randrange(1, 6))
            assert validate_parmet(m).ok
            s = parmet_to_slice(m)
            assert validate_met(s.base).ok
            assert validate_slice(s).ok
            assert slice_to_parmet(s) == m


def test_criterion_12_partial_staircase_validator(capsys):
    with criterion(capsys, 12, "partial staircase-metric validator"):
        report = validate_probparmet(worked_prob_instance())
        assert report.ok
        for name, t in TNORMS:
            rng = random.Random(f"c12-{name}")
            for _ in range(10):
                m = rand_probmet(rng, t, rng.randrange(1, 4))
                assert validate_probmet(m).ok
                assert validate_probparmet(m).ok, name
        bad = one_step(1, Fraction(3, 4))  # above the meet of the endpoints
        half = one_step(0, Fraction(1, 2))
        perturbed = prob(("x", "y"), ((half, bad), (bad, TOP)))
        report = validate_probparmet(perturbed)
        assert not report.ok
        assert any(v.axiom == "ProbPM1" for v in report.violations)


def test_criterion_13_performance(capsys):
    with criterion(capsys, 13, "large-input performance"):
        big1 = Staircase(
            tuple((Fraction(k, 2), Fraction(k, 1000)) for k in range(1, 1001))
        )
        big2 = Staircase(
            tuple((Fraction(k, 3), Fraction(k, 1000)) for k in range(1, 1001))
        )
        start = time.perf_counter()
        out = convolve(MIN, big1, big2)
        conv_elapsed = time.perf_counter() - start
        assert out.steps
        assert conv_elapsed < 2.0, conv_elapsed

        consequent = Staircase(
            tuple((Fraction(k), Fraction(k, 100)) for k in range(1, 101))
        )
        start = time.perf_counter()
        imp = implication(MIN, big1, consequent)
        imp_elapsed = time.perf_counter() - start
        assert imp.steps
        assert imp_elapsed < 5.0, imp_elapsed
        # spot-check the adjunction on the large instances
        assert convolve(MIN, big1, imp).leq(consequent)


def test_criterion_14_cli_golden_outputs(capsys):
    with criterion(capsys, 14, "CLI determinism against golden files"):
        code = cli_main(["eval", "--tnorm", "prod", "conv(step(1,1/2),step(2,1/3))"])
        assert code == 0
        assert capsys.readouterr().out == golden("eval_conv_prod.txt")

        code = cli_main(
            [
                "diag",
                "--tnorm",
                "min",
                "--xi",
                "step(1,1)",
                "--phi",
                "join(step(0,1/2),step(1,1))",
            ]
        )
        assert code == 1
        assert capsys.readouterr().out == golden("diag_min.txt")

        code = cli_main(["validate", str(DATA / "two_point_instance.json")])
        assert code == 0
        assert capsys.readouterr().out == golden("validate_two_point.txt")
