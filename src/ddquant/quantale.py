"""Convolution and residuated implication of staircase distributions.

For a continuous t-norm * the sup-convolution is

    (phi (*) psi)(t) = sup_{r+s=t} phi(r) * psi(s),

and on staircases it is the upper envelope of the pairwise one-step
products: a step (p, a) of phi and (q, b) of psi contribute the candidate
step (p + q, a * b).  The implication is the right adjoint of convolution,

    phi (*) psi <= xi  iff  psi <= implication(phi, xi).

phi is the join of its steps, so the implication is the meet of the
one-step implications, one per step of phi; `implication` computes them all
on integers and meets them in one sweep, and `step_implication` is its
one-step case.  Every kernel here rescales the integer images of its
inputs and the t-norm's pieces to common denominators once (`_scale`).
The convolution kernels and `convolve_below_all` apply the t-norm through
one formula per piece kind (`_piece_apply`), the implication kernels its
residuum through `_form`.  `convolve` and `implication` follow one
dispatch rule: a Python-int kernel below `_FAST_CUTOFF` pairs of steps,
ending in the canonical sweep `staircase._from_candidates`, and from it
on a numpy kernel, on int64 arrays when every jump and value fits and on
object arrays of Python ints past that guard (`_dtype`), ending in the
same sweep on its arrays (`_swept`).  Every result goes through
`Staircase.__post_init__`'s checks; the tests compare the kernels with
`Fraction` reference kernels kept in `tests/util.py`.
`convolve_below_all` decides phi (*) psi <= xi for the n^3 triples of two
n x n matrices without building the convolutions: one numpy pass over the
step pairs of each distinct triple, on one `_scale` of their staircases.
`residual` skips the kernels below a one-step phi.  `vertical_distance`
evaluates the pointwise quantity

    rho(t) = inf_{q > 0} phi(q) -> xi(q + t)

by exact cell enumeration; the implication is its regularisation, which the
test-suite uses as an independent cross-check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from .axis import ZERO, Time, ensure_time, is_infinite
from .errors import DomainError
from .staircase import BOTTOM, TOP, MonotoneStep, Staircase, one_step
from .staircase import _built, _common, _from_candidates, _meet_costeps
from .tnorms import PRODUCT_KIND, TNorm

_FAST_CUTOFF = 48
_INT64_LIMIT = 2**62
# The most step pairs one convolution or implication may run over; time and
# memory grow with them.  README gives the peak memory measured at the cap.
_MAX_PAIRS = 2**22


class _Scaled(NamedTuple):
    """Staircases and the t-norm's pieces as integers over common denominators.

    A jump p is j/jd and a level a is l/ld; `images` holds each
    staircase's (jumps, levels).  `pieces` holds (L, H, kind, scale) with
    lo = L/ld and hi = H/ld; M is the lcm of the product-piece widths
    H - L (1 when there are none), scale = M // (H - L) for product pieces,
    and every t-norm value is an integer over ld * M.  The numpy kernels'
    `_dtype(..., ld * M)` also bounds `_piece_apply`'s intermediates: in
    its order (a - lo) scale <= M, times (b - lo) <= (hi - lo) M, and
    |a - hi + b| <= ld.
    """

    jd: int
    ld: int
    m: int
    pieces: tuple[tuple[int, int, str, int], ...]
    images: list[tuple[list[int], list[int]]]


def _scale(t: TNorm, *staircases: Staircase) -> _Scaled:
    jd, ld, images = _common(staircases, t._int_pieces[0])
    td, pieces = t._int_pieces
    bounds = [(lo * (ld // td), hi * (ld // td), kind) for lo, hi, kind in pieces]
    m = lcm(*[hi - lo for lo, hi, kind in bounds if kind == PRODUCT_KIND])
    pieces = tuple((lo, hi, kind, m // (hi - lo)) for lo, hi, kind in bounds)
    return _Scaled(jd, ld, m, pieces, images)


def _pairs(phi: Staircase, other: Staircase) -> int:
    """The step pairs a kernel of `convolve` or `implication` runs over,
    which must stay within `_MAX_PAIRS`."""
    pairs = len(phi.js) * len(other.js)
    if pairs > _MAX_PAIRS:
        raise DomainError(
            f"{len(phi.js)} x {len(other.js)} step pairs exceed the budget of {_MAX_PAIRS}"
        )
    return pairs


def _dtype(*bounds: int) -> type:
    """The numpy kernels' guard: int64 when twice the largest jump or value
    fits, so that every sum and difference of two does; Python ints in
    object arrays otherwise, which keeps the kernels exact on every input."""
    return np.int64 if 2 * max(bounds) < _INT64_LIMIT else object


def _order(a: np.ndarray) -> np.ndarray:
    """The indices that sort a, as both numpy kernels sort their candidates.
    Ties may come in any order.  On object arrays the stable sort merges
    the sorted runs the kernels lay out (a row of pairs, one step's
    co-steps) with few of their Python comparisons; on int64 numpy's
    default sort is the faster."""
    return np.argsort(a, kind="stable" if a.dtype == object else "quicksort")


def convolve(t: TNorm, phi: Staircase, psi: Staircase) -> Staircase:
    """Sup-convolution of two staircases, exactly.

    Both kernels work on the integer images of `_scale`, which hold the
    t-norm as its piece table.  The dispatch rule: an empty factor gives
    bottom, more than `_MAX_PAIRS` candidate pairs raise a DomainError,
    and the number of candidate pairs alone picks the kernel.
    Below `_FAST_CUTOFF` pairs the Python-int kernel `_convolve_int` runs;
    from it on the numpy kernel `_convolve_fast`, which is exact on every
    input.

    The cutoff is the measured crossover of the two kernels on 4-32-step
    factors (Python 3.11, numpy 2.4, one core): numpy's fixed cost of
    25-40 us a call, and about 10 us more per piece, loses to Python ints,
    at 0.7-1.5 us a pair, on fewer pairs.  min, prod and luk cross at 40-64
    pairs, ordinal sums of two or three pieces at 80-96; one cutoff serves
    all.  Object arrays, past the int64 guard, break even near 96 pairs and
    are 1.7-3 times as fast as Python ints at 3,400-10,000 pairs.
    """
    if not phi.js or not psi.js:
        return BOTTOM
    pairs = _pairs(phi, psi)
    s = _scale(t, phi, psi)
    if pairs < _FAST_CUTOFF:
        return _convolve_int(s)
    return _convolve_fast(s)


def _piece_apply(piece: tuple[int, int, str, int], a, b, m: int):
    """The t-norm, in units of 1 / (ld * M), on scaled levels a and b that
    lie in the piece (lo, hi, kind, scale).  a and b are Python ints,
    arrays of one shape, or a column and a row that broadcast to a block.
    Pieces meet only at endpoints, where every formula, min's too, gives
    the smaller level, so each kernel may pick a piece's pairs its own way."""
    lo, hi, kind, scale = piece
    if kind == PRODUCT_KIND:
        return (a - lo) * scale * (b - lo) + lo * m
    return (max if isinstance(a, int) else np.maximum)(a - hi + b, lo) * m


def _int_apply(s: _Scaled):
    """The t-norm on scaled levels: `_piece_apply` of the first piece that
    holds both, else min.  With no pieces M is 1, so that is `min` itself."""
    if not s.pieces:
        return min
    m, pieces = s.m, s.pieces

    def apply(a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        for piece in pieces:
            if piece[0] <= a and b <= piece[1]:
                return _piece_apply(piece, a, b, m)
        return a * m

    return apply


def _convolve_int(s: _Scaled) -> Staircase:
    """Envelope of the candidate steps, on Python ints."""
    apply = _int_apply(s)
    (j1, l1), (j2, l2) = s.images
    right = list(zip(j2, l2))
    cands = [(p + q, apply(a, b)) for p, a in zip(j1, l1) for q, b in right]
    cands.sort()
    return _from_candidates(cands, s.jd, s.ld * s.m)


def convolve_below_all(t: TNorm, d, via) -> list[bool]:
    """Whether convolve(t, d[j][k], via[i][j]) <= d[i][k], for each (i, j, k)
    of the n x n matrices d and via, in product order.

    The 2n^2 entries are numbered by value, so equal staircases spelled
    apart share a number, and the n^3 keys (min(kp, kq), max(kp, kq), kx)
    come from the two matrices of numbers by index arithmetic: a
    continuous t-norm is commutative, so phi (*) psi = psi (*) phi and the
    triples (phi, psi, xi) and (psi, phi, xi) have one verdict.
    `_below_keys` decides each distinct key once.
    """
    n = len(d)
    position: dict[Staircase, int] = {}
    numbers = [
        position.setdefault(sc, len(position)) for mat in (d, via) for row in mat for sc in row
    ]
    dist, disc = np.array(numbers, dtype=np.int64).reshape(2, n, n)
    kp, kq, kx = dist[None, :, :], disc[:, :, None], dist[:, None, :]  # [i, j, k]
    m = len(position)
    codes = (np.minimum(kp, kq) * m + np.maximum(kp, kq)) * m + kx
    keys, inverse = np.unique(codes.ravel(), return_inverse=True)
    verdicts = _below_keys(t, list(position), keys // (m * m), keys // m % m, keys % m)
    return verdicts[inverse].tolist()


# The most step pairs `_below_keys` holds in its arrays at once.  A batch of
# more pairs runs in slices of this many, one key's pairs split across
# slices where they do not fit; README gives the peak memory measured.
_SLICE_PAIRS = 2**16


def _below_keys(t: TNorm, staircases: list[Staircase], kp, kq, kx) -> np.ndarray:
    """Whether convolve(t, phi, psi) <= xi for each key, phi, psi and xi
    being the staircases numbered kp, kq and kx: whether a * b is at most
    xi's value just after p + q, for every step pair (p, a) of phi and
    (q, b) of psi.

    One `_scale` of all the staircases serves every key.  Their jumps and
    levels lie concatenated in two arrays, and the pairs of every key lie
    end to end in one flat range, which runs in slices of at most
    `_SLICE_PAIRS`.  Staircase x's jumps are shifted by x * width, width
    above every jump sum, so that all of them form one sorted array: one
    `searchsorted` of x * width + p + q counts the jumps of every xi at or
    below its sums.  The staircases' values from 0 on lie concatenated
    too, staircase x's from its first step's index plus x.  Jumps and
    values each take `_dtype`'s guard: the shifted jumps stay below
    len(staircases) * width, the values at most ld * M.
    """
    s = _scale(t, *staircases)
    sizes = np.array([len(js) for js, _ in s.images], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    jumps = [p for js, _ in s.images for p in js]
    width = 2 * max(jumps, default=0) + 1
    jtype, ltype = _dtype(len(staircases) * width), _dtype(s.ld * s.m)
    js = np.array(jumps, dtype=jtype)
    ls = np.array([a for _, ls in s.images for a in ls], dtype=ltype)
    shift = np.array(range(len(staircases)), dtype=jtype) * width
    shifted = js + shift.repeat(sizes)
    values = np.insert(ls * s.m, first, 0)
    counts = sizes[kp] * sizes[kq]
    ends, total = counts.cumsum(), int(counts.sum())
    above = np.zeros(len(counts), dtype=bool)
    for start in range(0, total, _SLICE_PAIRS):
        pair = np.arange(start, min(start + _SLICE_PAIRS, total))
        key = ends.searchsorted(pair, side="right")
        local, nq = pair - (ends - counts)[key], sizes[kq[key]]
        sp, sq, x = first[kp[key]] + local // nq, first[kq[key]] + local % nq, kx[key]
        after = shifted.searchsorted(js[sp] + js[sq] + shift[x], side="right") + x
        above[key[_applied(s, ls[sp], ls[sq]) > values[after]]] = True
    return ~above


def _applied(s: _Scaled, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The t-norm on arrays of scaled levels, in units of 1 / (ld * M), as
    `_int_apply` gives it on one pair: min, overwritten by `_piece_apply`
    on the pairs with both levels in a piece, found by masks."""
    small, large = np.minimum(a, b), np.maximum(a, b)
    vals = small * s.m
    for piece in s.pieces:
        inside = np.flatnonzero((small >= piece[0]) & (large <= piece[1]))
        vals[inside] = _piece_apply(piece, a[inside], b[inside], s.m)
    return vals


def _convolve_fast(s: _Scaled) -> Staircase:
    """Envelope of the candidate steps, on numpy arrays of `_dtype`'s guard
    on the jumps and ld * M (see `_Scaled`).  Values start as min; each
    piece overwrites its block, one slice of each factor as levels increase
    strictly, with `_piece_apply` on a column and a row.  `_swept` keeps
    the canonical steps of the candidates sorted by jump sum."""
    (js1, ls1), (js2, ls2) = s.images
    dtype = _dtype(js1[-1], js2[-1], s.ld * s.m)
    j1, l1, j2, l2 = (np.array(v, dtype=dtype) for v in (js1, ls1, js2, ls2))
    sums = np.add.outer(j1, j2).ravel()
    vals = np.minimum.outer(l1 * s.m, l2 * s.m)
    for piece in s.pieces:
        r1 = slice(bisect_left(ls1, piece[0]), bisect_right(ls1, piece[1]))
        r2 = slice(bisect_left(ls2, piece[0]), bisect_right(ls2, piece[1]))
        vals[r1, r2] = _piece_apply(piece, l1[r1, None], l2[None, r2], s.m)
    order = _order(sums)
    return _swept(sums[order], vals.ravel()[order], s.jd, s.ld * s.m)


def _swept(pos, vals, jd: int, ld: int) -> Staircase:
    """`_from_candidates` on numpy arrays of candidates sorted by position.

    A candidate stays when its value is above 0 and above every earlier
    one, so the values left rise strictly; of each run of equal positions
    left, the last, the highest, stays.  The steps left, over jd and ld, go
    through every check of `__post_init__`.  Empty arrays give bottom.
    """
    keep = vals > np.maximum.accumulate(np.concatenate(([0], vals[:-1])))
    pos, vals = pos[keep], vals[keep]
    last = np.ones(len(pos), dtype=bool)
    last[:-1] = pos[1:] != pos[:-1]
    return _built(jd, ld, pos[last].tolist(), vals[last].tolist())


def convolve_monotone(t: TNorm, m1: MonotoneStep, m2: MonotoneStep) -> MonotoneStep:
    """Sup-convolution of unnormalised monotone step maps.

    At finite t the supremum runs over the splittings s + (t - s) = t with
    s in [0, t]; at infinity every splitting is dominated by (inf, inf), so
    the value there is always m1(inf) * m2(inf).
    """
    sums = sorted(
        {b1 + b2 for b1 in m1.breakpoints for b2 in m2.breakpoints}
    )
    pvs = [_monotone_conv_at(t, m1, m2, s) for s in sums]
    probes = [(a + b) / 2 for a, b in zip(sums, sums[1:])] + [sums[-1] + 1]
    cvs = [_monotone_conv_at(t, m1, m2, probe) for probe in probes]
    inf_v = t.apply(m1.infinity_value, m2.infinity_value)
    return MonotoneStep(tuple(sums), tuple(pvs), tuple(cvs), inf_v)


def _monotone_conv_at(t: TNorm, m1: MonotoneStep, m2: MonotoneStep, at: Fraction) -> Fraction:
    """Exact sup_{s in [0, at]} m1(s) * m2(at - s) for finite at.

    The product is piecewise constant in s between the cuts, the
    breakpoints of m1 and at minus those of m2, all in [0, at] and 0 and
    at among them, so the supremum is the maximum over every cut and one
    midpoint per cell, as in `vertical_distance`.
    """
    cuts = sorted(s for s in {*m1.breakpoints, *(at - d for d in m2.breakpoints)} if 0 <= s <= at)
    probes = [*cuts, *((a + b) / 2 for a, b in zip(cuts, cuts[1:]))]
    return max(t.apply(m1(s), m2(at - s)) for s in probes)


def step_implication(t: TNorm, p: Time, a, xi: Staircase) -> Staircase:
    """Implication with the antecedent `one_step(p, a)`, exactly:
    sup_{s<t} a -> xi(p + s), whose floor a -> 0 is positive under a
    nilpotent t-norm."""
    return implication(t, one_step(p, a), xi)


def implication(t: TNorm, phi: Staircase, xi: Staircase) -> Staircase:
    """Right adjoint of convolution in the first argument, exactly.

    phi is the join of its steps (p, a) and implication turns joins in the
    antecedent into meets, so the result is the meet over those steps of
    the one-step implications sup_{s<t} a -> xi(p + s), each computed on
    the integer images of `_scale`.  Just after 0 its value is a -> 0 (the
    floor), or a -> c for the last step (r, c) of xi with r <= p.  Each
    later step (r, c) of xi raises it to a -> c at r - p, up to the first
    with c >= a, where a -> c is 1.  A raise at r - p from the value v is
    the co-step "v on [0, r - p], 1 above", and a one-step implication is
    the meet of its co-steps and its value at infinity, a -> (xi's last
    level).  a -> c is antitone in a, so the last step of phi alone gives
    the meet of those values (the cap).

    Values are integers over ld * d, where d is the lcm of a - lo over the
    levels a of phi inside a product piece (lo, hi]: there a -> c is
    lo + (hi - lo)(c - lo)/(a - lo).  Under min and luk d is 1.

    The dispatch rule is `convolve`'s: below `_FAST_CUTOFF` pairs of steps
    of phi and xi the Python-int kernel `_implication_int` runs, and from
    it on the numpy kernel `_implication_fast`, on `_dtype`'s guard.

    The kernels cross near 25 co-steps: the Python-int kernel costs about
    16 us a call and 1.1 us a co-step, the numpy kernel about 39 us and
    0.15 us (Python 3.11, numpy 2.4, one core).  The share of pairs that are
    co-steps depends on the input: about 40% on `diag`'s divisor-multiple
    pairs, where the numpy kernel was ahead in every size class from 48
    pairs on, and 10-40% on random pairs whose jumps spread as far as xi's,
    where it breaks even between 96 and 240 pairs.
    """
    if not phi.js:
        return TOP
    pairs = _pairs(phi, xi)
    s = _scale(t, phi, xi)
    (js, ls), (rs, cs) = s.images
    pieces = [None] * len(ls)
    for lo, hi, kind, _ in s.pieces:  # the levels lo < a <= hi, a slice of ls
        first, stop = bisect_right(ls, lo), bisect_right(ls, hi)
        pieces[first:stop] = [(lo, hi, kind)] * (stop - first)
    d = lcm(*(a - pc[0] for a, pc in zip(ls, pieces) if pc and pc[2] == PRODUCT_KIND))
    forms = [_form(piece, a, d) for a, piece in zip(ls, pieces)]
    last = cs[-1] if cs else 0
    cap = _residua(forms[-1], d, [last])[0] if last < ls[-1] else s.ld * d
    if pairs < _FAST_CUTOFF:
        return _implication_int(s, d, forms, cap)
    return _implication_fast(s, d, forms, cap)


def _form(piece, a: int, d: int) -> tuple[int, int, int]:
    """(lo, base, slope) such that a -> c over ld * d is c * d for the
    scaled levels c < lo and base + (c - lo) * slope for lo <= c < a;
    piece is the (lo, hi, kind) with lo < a <= hi, or None."""
    if piece is None:
        return a, 0, 0
    lo, hi, kind = piece
    if kind == PRODUCT_KIND:
        return lo, lo * d, (hi - lo) * (d // (a - lo))
    return lo, (hi - a + lo) * d, d


def _residua(form, d: int, levels: list[int]) -> list[int]:
    """a -> c over ld * d for the scaled levels c < a, by `_form`'s form."""
    lo, base, slope = form
    return [c * d if c < lo else base + (c - lo) * slope for c in levels]


def _implication_int(s: _Scaled, d: int, forms, cap: int) -> Staircase:
    """The meet of the cap and every step's co-steps, on Python ints: a
    step (p, a) of phi gives (r - p, a -> c) for the steps (r, _) of xi
    after p up to the first with level >= a, c the level of xi before r
    (none when xi reaches a by p)."""
    (js, ls), (rs, cs) = s.images
    levels = [0, *cs]
    costeps: list[tuple[int, int]] = []
    for p, a, form in zip(js, ls, forms):
        first = bisect_right(rs, p)  # steps of xi after p: raises at r - p > 0
        stop = bisect_left(cs, a) + 1  # up to the first level c >= a, where a -> c = 1
        # when xi stays below a, zip drops a -> (its last level): the cap
        costeps += zip([r - p for r in rs[first:stop]], _residua(form, d, levels[first:stop]))
    return _meet_costeps(costeps, cap, s.jd, s.ld * d)


def _implication_fast(s: _Scaled, d: int, forms, cap: int) -> Staircase:
    """`_implication_int` on numpy arrays, every co-step built and met at once.

    Two `searchsorted` calls bound each step's co-steps: they are the steps
    k of xi from the first after p up to the first with level >= a (or the
    last), at r[k] - p with the value a -> [0, *cs][k].  `repeat` and
    `arange` lay them all out in one array.  Sorted by position, the suffix
    minima of the values, met with the cap, give the meet just after each
    position, and `_swept` keeps the positions where it rises.  Those rises
    already rise strictly; the sweep drops a zero meet just after 0 and the
    earlier co-steps of a run at one position.  Every value is at most
    ld * d (base + (c - lo) * slope < hi * d for c < a), so `_dtype` of the
    jumps and ld * d bounds them.
    """
    (js, ls), (rs, cs) = s.images
    n = len(rs)
    dtype = _dtype(js[-1], *rs[-1:], s.ld * d)
    r, levels = np.array(rs, dtype=dtype), np.array([0, *cs], dtype=dtype)
    p, a, lo, base, slope = np.array([js, ls, *zip(*forms)], dtype=dtype)
    first = r.searchsorted(p, side="right")
    counts = np.maximum(np.minimum(levels[1:].searchsorted(a) + 1, n) - first, 0)
    step = np.arange(len(js)).repeat(counts)
    k = np.arange(len(step)) + (first - counts.cumsum() + counts).repeat(counts)
    c, lo = levels[k], lo[step]
    vals = np.where(c < lo, c * d, base[step] + np.maximum(c - lo, 0) * slope[step])
    pos = r[k] - p[step]
    order = _order(pos)
    pos, vals = pos[order], vals[order]
    # the meet from each co-step on: the suffix minima, met with the cap.
    # after[0] holds just after 0, and after[k + 1] just after pos[k] when k
    # is the last co-step at pos[k]
    after = np.minimum.accumulate(np.concatenate((vals, [cap]))[::-1])[::-1]
    return _swept(np.concatenate(([0], pos)), after, s.jd, s.ld * d)


def vertical_distance(t: TNorm, phi: Staircase, xi: Staircase, at: Time) -> Fraction:
    """Exact rho(at) = inf_{q > 0} phi(q) -> xi(q + at).

    The integrand is piecewise constant in q with breakpoints at the jumps
    of phi and at the jumps of xi shifted by -at, so the infimum is the
    minimum over those points and one interior sample per open cell.
    """
    if is_infinite(at):
        return t.implies(phi.last_level, xi.last_level)
    at = ensure_time(at)
    implies = t.implies
    bps = {q for q in phi.jumps if q > 0}
    for r in xi.jumps:
        q = r - at
        if q > 0:
            bps.add(q)
    points = sorted(bps)
    # every breakpoint, the midpoint of every cell from 0, and one past the last
    ends = [ZERO, *points]
    probes = [*points, *((a + b) / 2 for a, b in zip(ends, points)), ends[-1] + 1]
    return min(implies(phi(q), xi(q + at)) for q in probes)


def vertical_distance_grid(
    t: TNorm, phi: Staircase, xi: Staircase, grid: list[Time]
) -> list[Fraction]:
    """rho at each grid point, exactly."""
    return [vertical_distance(t, phi, xi, at) for at in grid]


def vertical_distance_sup_below(t: TNorm, phi: Staircase, xi: Staircase, at: Time) -> Fraction:
    """sup_{s < at} rho(s), computed from single-point rho evaluations.

    rho is monotone and piecewise constant with breakpoints among
    {r - p > 0}, {r}, and 0 (r over jumps of xi, p over jumps of phi), so
    the supremum below `at` is the value on the open cell just under it.
    """
    at = ensure_time(at)
    if at == ZERO:
        return ZERO
    bps = {ZERO, *xi.jumps, *(r - p for r in xi.jumps for p in phi.jumps if r > p)}
    if is_infinite(at):
        return vertical_distance(t, phi, xi, max(bps) + 1)
    below = max(b for b in bps if b < at)
    return vertical_distance(t, phi, xi, (below + at) / 2)


def residual(t: TNorm, xi: Staircase, phi: Staircase) -> Staircase:
    """The largest phi-multiple below xi: convolve(phi, implication(phi, xi)),
    which is xi itself below a phi with at most one step (one-step theorem)."""
    if len(phi.js) <= 1 and xi.leq(phi):
        return xi
    return convolve(t, phi, implication(t, phi, xi))

