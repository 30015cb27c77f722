import random
from fractions import Fraction

import pytest

from ddquant import (
    INF,
    LUK,
    MIN,
    PROD,
    DomainError,
    Enclosure,
    PiecewiseLinear,
    Staircase,
    bound_convolve,
    bracket,
    certify_not_divisible,
    convolve,
    divisibility_upper_bound,
    implication,
    one_step,
    parse_linear,
    residual,
)
from util import TNORMS, bracket_oracle, certify_oracle, rand_linear, rand_staircase

F = Fraction

RAMP = PiecewiseLinear(((F(0), F(0)), (F(1), F(1))))


def test_piecewise_linear_validation():
    with pytest.raises(DomainError):
        PiecewiseLinear(((F(1), F(0)),))  # must start at the origin
    with pytest.raises(DomainError):
        PiecewiseLinear(((F(0), F(1, 2)),))
    with pytest.raises(DomainError):
        PiecewiseLinear(((F(0), F(0)), (F(1), F(1, 2)), (F(1), F(1))))
    with pytest.raises(DomainError):
        PiecewiseLinear(((F(0), F(0)), (F(1), F(2))))  # leaves the unit interval


@pytest.mark.parametrize("build,message", [
    (lambda: PiecewiseLinear(((F(0), F(0)), (F(1), F(1, 2)), (F(2), F(1, 4)))),
     "knot values must be non-decreasing"),
    (lambda: bracket(RAMP, 0), "resolution must be at least 1"),
])
def test_input_checks_raise_their_messages(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message


def test_piecewise_linear_eval():
    assert RAMP(F(1, 3)) == F(1, 3)
    assert RAMP(F(2)) == 1
    assert RAMP(INF) == 1
    bent = PiecewiseLinear(((F(0), F(0)), (F(1), F(1, 2)), (F(3), F(1))))
    assert bent(F(2)) == F(3, 4)
    assert bent(F(1)) == F(1, 2)


def test_parse_format_round_trip():
    text = "linear[(0,0),(1,1/2),(3,1)]"
    assert str(parse_linear(text)) == text


def test_bracket_worked_values():
    enc = bracket(RAMP, 2)
    assert enc.lower == Staircase(((F(1, 2), F(1, 2)), (F(1), F(1))))
    assert enc.upper == Staircase(((F(0), F(1, 2)), (F(1, 2), F(1))))


def test_bracket_orders_and_tightens():
    probes = [F(k, 16) for k in range(0, 40)]
    coarse = bracket(RAMP, 8)
    fine = bracket(RAMP, 64)
    for t in probes:
        assert coarse.lower(t) <= RAMP(t) <= coarse.upper.value_after(t)
        assert coarse.lower(t) <= fine.lower(t)
        assert fine.upper(t) <= coarse.upper(t)


def test_enclosure_requires_order():
    with pytest.raises(DomainError):
        Enclosure(one_step(F(0), F(1)), one_step(F(1), F(1, 2)))


@pytest.mark.parametrize("name,t", TNORMS)
def test_bound_convolve_brackets_truth(name, t):
    # staircases bracket themselves exactly, so bounding their convolution
    # must reproduce it on both sides
    rng = random.Random(51)
    for _ in range(20):
        a = rand_staircase(rng, max_steps=4)
        b = rand_staircase(rng, max_steps=4)
        ea = Enclosure(a, a)
        eb = Enclosure(b, b)
        out = bound_convolve(t, ea, eb)
        assert out.lower == out.upper == convolve(t, a, b)


def test_upper_bound_dominates_residual_of_anything_bracketed():
    # any staircase s between the brackets has its residual toward xi
    # dominated by the computed upper bound
    rng = random.Random(52)
    enc = bracket(RAMP, 16)
    for _ in range(15):
        xi = rand_staircase(rng, max_steps=3)
        for _, t in TNORMS:
            u = divisibility_upper_bound(t, RAMP, xi, 16)
            for s in (enc.lower, enc.upper, enc.lower.join(xi.meet(enc.upper))):
                assert residual(t, xi, s).leq(u)


def test_certificates_for_all_three_tnorms():
    xi = one_step(F(1), F(1))
    for t in (MIN, PROD, LUK):
        cert = certify_not_divisible(t, RAMP, xi, 128)
        assert cert is not None
        assert cert.gap > 0
        # soundness: the certificate survives a finer resolution
        finer = certify_not_divisible(t, RAMP, xi, 256)
        assert finer is not None
        assert finer.gap >= cert.gap


def test_certificate_gap_at_three_halves():
    u = divisibility_upper_bound(MIN, RAMP, one_step(F(1), F(1)), 128)
    gap = F(1) - u(F(3, 2))
    assert gap >= 1 - (F(1, 2) + F(1, 128))
    # the analytic value of the residual at 3/2 is 1/2, so the gap cannot
    # beat 1/2 either
    assert gap <= F(1, 2)


def test_inconclusive_when_xi_is_above_the_bound():
    # xi built as upper-bracket convolved with a one-step dominates the
    # computed upper bound, so no cell can witness a gap
    flat = PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1))))
    enc = bracket(flat, 4)
    xi = convolve(MIN, enc.upper, one_step(F(1), F(1, 2)))
    assert certify_not_divisible(MIN, flat, xi, 4) is None


def test_steep_ramp_still_certified():
    steep = PiecewiseLinear(((F(0), F(0)), (F(1, 100), F(1))))
    cert = certify_not_divisible(MIN, steep, one_step(F(0), F(1)), 8)
    assert cert is not None
    assert cert.witness <= F(1, 100) * 2 + F(1)


def test_divisible_shape_is_inconclusive_at_every_resolution():
    for n in (8, 32, 128):
        # xi equal to the lower bracket is residually closed under it,
        # so the scan finds no violating cell
        xi = bracket(RAMP, n).lower
        assert certify_not_divisible(MIN, RAMP, xi, n) is None


def _boundary_staircase(rng: random.Random, f: PiecewiseLinear, n: int) -> Staircase:
    """A staircase of 0 to 4 steps whose jumps sit on cell ends of bracket(f, n)."""
    ends = sorted(
        {t1 + j * (t2 - t1) / n for (t1, _), (t2, _) in zip(f.knots, f.knots[1:])
         for j in range(n + 1)} or {F(0)}
    )
    m = rng.randrange(0, min(4, len(ends)) + 1)
    levels = sorted(rng.sample([F(k, 12) for k in range(1, 13)], m))
    return Staircase(tuple(zip(sorted(rng.sample(ends, m)), levels)))


def _differential_cases(seed: int, count: int):
    """(f, n, xi): maps of 1-4 knots, resolutions 1-16, and xi either
    random (bottom included) or jumping on cell ends."""
    rng = random.Random(seed)
    for _ in range(count):
        f = rand_linear(rng)
        n = rng.randrange(1, 17)
        if rng.random() < 0.5:
            xi = rand_staircase(rng, max_steps=5)
        else:
            xi = _boundary_staircase(rng, f, n)
        yield f, n, xi


def test_bracket_matches_cell_by_cell_oracle():
    for f, n, _ in _differential_cases(61, 2000):
        assert bracket(f, n) == bracket_oracle(f, n), (str(f), n)


@pytest.mark.parametrize("name,t", TNORMS)
def test_certify_matches_merged_cut_oracle(name, t):
    certified = 0
    for f, n, xi in _differential_cases(62, 500):
        cert = certify_not_divisible(t, f, xi, n)
        assert cert == certify_oracle(t, f, xi, n), (str(f), n, str(xi))
        certified += cert is not None
    # both outcomes are exercised
    assert 0 < certified < 500
