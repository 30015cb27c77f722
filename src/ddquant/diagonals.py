"""Divisibility of distributions and composition of diagonals.

xi is divisible by phi when xi = phi (*) psi for some distribution psi; by
residuation this holds exactly when convolving phi with implication(phi, xi)
gives xi back, which is decidable on staircases.  A diagonal between phi and
psi is a xi divisible by both.  Such diagonals compose like morphisms: for
d a diagonal into `mid` and e a diagonal out of `mid`,

    compose(e, d) = convolve(implication(mid, e), d)
                  = convolve(e, implication(mid, d)).

Both expressions are computed and must agree.  Divisibility and the two
formulas are `values.ValueQuantale.divides` and `composites`, shared with
the finite quantale tables.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .axis import INF, ONE, ZERO, Time, is_infinite, time_add
from .errors import PreconditionError, SearchExhausted
from .staircase import BOTTOM, Staircase, envelope
from .tnorms import TNorm
from .values import Staircases


def is_divisible_by(t: TNorm, xi: Staircase, phi: Staircase) -> bool:
    """Decide whether xi = phi (*) psi has a solution psi."""
    return Staircases(t).divides(phi, xi)


def is_diagonal_between(t: TNorm, xi: Staircase, phi: Staircase, psi: Staircase) -> bool:
    return is_divisible_by(t, xi, phi) and is_divisible_by(t, xi, psi)


def diagonal_compose(t: TNorm, e: Staircase, d: Staircase, mid: Staircase) -> Staircase:
    """Composite of diagonals d (into mid) and e (out of mid)."""
    if not is_divisible_by(t, d, mid):
        raise PreconditionError("d is not divisible by mid (not a diagonal into mid)")
    if not is_divisible_by(t, e, mid):
        raise PreconditionError("e is not divisible by mid (not a diagonal out of mid)")
    left, right = Staircases(t).composites(mid, e, d)
    assert left == right, f"composition formulas disagree: {left} vs {right}"
    return left


def flat_criterion_min(xi: Staircase, phi: Staircase) -> bool:
    """Divisibility under minimum via flat adjoints.

    Under the minimum t-norm, xi is divisible by phi iff the flat adjoints
    satisfy xi^f = phi^f + psi^f for some distribution psi.  All three flat
    adjoints are step functions of the level variable with breakpoints among
    the levels of phi and xi, so a finite probe set decides the identity:
    the candidate psi^f is the pointwise difference, psi is reconstructed
    from it, and the identity is re-checked with the genuine psi.
    """
    probes = sorted({ZERO, ONE, *phi.levels, *xi.levels})
    with_mids: list[Fraction] = []
    for k, a in enumerate(probes):
        with_mids.append(a)
        if k + 1 < len(probes):
            with_mids.append((a + probes[k + 1]) / 2)
    candidate: list[Time] = []
    for a in with_mids:
        f = phi.flat(a)
        x = xi.flat(a)
        if is_infinite(f):
            if not is_infinite(x):
                return False
            candidate.append(INF)
        elif is_infinite(x):
            candidate.append(INF)
        else:
            if x < f:
                return False
            candidate.append(x - f)
    for v1, v2 in zip(candidate, candidate[1:]):
        if is_infinite(v1) and not is_infinite(v2):
            return False
        if not is_infinite(v1) and not is_infinite(v2) and v2 < v1:
            return False
    steps = []
    prev = candidate[0]
    for a, v in zip(with_mids[1:], candidate[1:]):
        if v != prev:
            steps.append((prev, a))  # psi jumps to level a at time prev
            prev = v
    psi = Staircase(tuple(steps))
    return all(
        xi.flat(a) == time_add(phi.flat(a), psi.flat(a)) for a in with_mids
    )


def _truncation(phi: Staircase, index: int) -> Staircase:
    """Zero out phi on [0, jump_index]; agrees with phi above it."""
    return Staircase(phi.steps[index:])


def find_nondiagonal_below(
    t: TNorm,
    phi: Staircase,
    *,
    random_rounds: int = 200,
    seed: int = 0,
) -> Staircase | None:
    """Search for xi <= phi that is not divisible by phi.

    Returns None when phi has at most one step: every xi below a one-step
    function is divisible by it, so no witness exists.  For multi-step phi
    the truncations of phi at its own breakpoints are tried first (smallest
    breakpoint wins), then bounded random meets below phi.  If nothing is
    found, SearchExhausted is raised; exhaustion is never evidence that phi
    is one-step.
    """
    if len(phi.steps) <= 1:
        return None
    for index in range(1, len(phi.steps)):
        xi = _truncation(phi, index)
        if not is_divisible_by(t, xi, phi):
            return xi
    rng = Random(seed)
    pool_times = [Fraction(n, 4) for n in range(0, 4 * 5)]
    pool_levels = [Fraction(n, 12) for n in range(1, 13)]
    for _ in range(random_rounds):
        k = rng.randint(1, 4)
        jumps = sorted(rng.sample(pool_times, k))
        levels = sorted(rng.sample(pool_levels, k))
        sigma = envelope(zip(jumps, levels))
        xi = phi.meet(sigma)
        if xi == phi or xi == BOTTOM:
            continue
        if not is_divisible_by(t, xi, phi):
            return xi
    raise SearchExhausted(
        f"no non-divisible witness below {phi} found after "
        f"{random_rounds} randomised rounds"
    )
