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

from .axis import INF, ONE, ZERO, Time, is_infinite, time_add
from .errors import PreconditionError
from .staircase import Staircase, _from_candidates
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
    satisfy xi^f = phi^f + psi^f for some distribution psi.  All three are
    step functions of the level, constant from each level of phi and xi up
    to the next, so probes at 0, 1 and those levels decide the identity:
    the candidate psi^f is the pointwise difference, psi is reconstructed
    from it, and the identity is re-checked with the genuine psi.
    """
    probes = sorted({ZERO, ONE, *phi.levels, *xi.levels})
    flats: list[tuple[Time, Time]] = []
    candidate: list[Time] = []
    for a in probes:
        f, x = phi.flat(a), xi.flat(a)
        if x < f:  # INF is above every finite time
            return False
        flats.append((f, x))
        candidate.append(INF if is_infinite(x) else x - f)
    if any(v2 < v1 for v1, v2 in zip(candidate, candidate[1:])):
        return False
    steps = []
    prev = candidate[0]
    for a, v in zip(probes[1:], candidate[1:]):
        if v != prev:
            steps.append((prev, a))  # psi jumps to level a at time prev
            prev = v
    psi = Staircase(tuple(steps))
    return all(x == time_add(f, psi.flat(a)) for a, (f, x) in zip(probes, flats))


def find_nondiagonal_below(t: TNorm, phi: Staircase) -> Staircase | None:
    """An xi <= phi that is not divisible by phi, or None if there is none.

    Every xi below a staircase with at most one step is divisible by it, so
    the answer is None exactly then.  For phi with steps (p1, a1), (p2, a2),
    ... the witness is the first truncation xi, which is 0 on [0, p2] and
    agrees with phi above p2.  Under any continuous t-norm T, suppose
    xi = phi (*) psi and let b = psi(0+):

    - Just above p2, xi takes the value a2 > a1.  Times r <= p2 give
      phi(r) <= a1, so only r just above p2, where phi is a2 and psi(s) is b,
      can supply it: T(a2, b) >= a2, hence T(a2, b) = a2.
    - For a continuous t-norm that needs an idempotent e with a2 <= e <= b
      (1 counts: b may be 1).  Then T(a1, b) >= T(a1, e) = min(a1, e) = a1.
    - Just above p1 the same sum gives phi (*) psi >= T(a1, b) >= a1 > 0,
      yet xi is 0 on (p1, p2].

    So xi is not divisible by phi, whatever the t-norm.
    """
    if len(phi.js) <= 1:
        return None
    return _from_candidates(zip(phi.js[1:], phi.ls[1:]), phi.jd, phi.ld)
