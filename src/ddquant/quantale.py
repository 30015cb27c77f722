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
residuum through `_form`.  `implication`'s dispatch rule: at most one
step on either side -> closed form; otherwise pairs pick the kernel, as
they always do in `convolve`: a Python-int kernel below `_FAST_CUTOFF`
pairs of steps, ending in the canonical sweep `staircase._from_candidates`,
and from it on a numpy kernel, ending in the same sweep on its arrays
(`_swept`).  A numpy kernel asks the int64 guard (`_dtype`) apart for its
jumps and for its values.  Jumps past it take object arrays of Python
ints.  Values within it are exact on int64; past it they are Python ints,
and first every value is taken as a float64 within a proven bound E of
the exact one (`_float_error`), so that only the candidates within 2E of
deciding the result are evaluated exactly.  Every result goes through
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
    """The numpy kernels' guard: int64 when twice the largest bound fits, so
    that every sum and difference of two values below it does; object
    otherwise.  The kernels ask it apart for the top jumps and for the
    values' scale.  Jumps past it take object arrays of Python ints.
    Values past it are Python ints too: `_convolve_fast` and
    `_implication_fast` filter them through float64 first, `_below_keys`
    holds them all.  Either way the kernels stay exact on every input."""
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
    """Envelope of the candidate steps on numpy arrays.  The jump sums take
    `_dtype`'s guard on the top jumps, and sort.  The values take it on
    ld * M (see `_Scaled`): within it they are exact on int64 (`_block`
    with `_piece_apply`) and all swept.  Past it the float64 filter runs:
    `_floats_block` puts every value within E of its exact value, so a
    candidate above every earlier one, the only kind the sweep keeps, lies
    within 2E of the floats' running maximum.  Only the candidates that do
    are evaluated exactly, by `_applied` on object arrays of Python ints,
    and swept; each other one lies at or below an earlier candidate, so
    dropping it leaves the envelope as it is."""
    (js1, ls1), (js2, ls2) = s.images
    jtype, ltype = _dtype(js1[-1], js2[-1]), _dtype(s.ld * s.m)
    sums = np.add.outer(np.array(js1, dtype=jtype), np.array(js2, dtype=jtype)).ravel()
    order = _order(sums)
    l1, l2 = np.array(ls1, dtype=ltype), np.array(ls2, dtype=ltype)
    if ltype is np.int64:
        block = _block(
            s, l1 * s.m, l2 * s.m, lambda pc, r1, r2: _piece_apply(pc, l1[r1, None], l2[None, r2], s.m)
        )
        return _swept(sums[order], block.ravel()[order], s.jd, s.ld * s.m)
    f = _floats_block(s).ravel()[order]
    near = order[f >= np.maximum.accumulate(f) - 2 * _float_error(s, 3, 3, 5)]
    vals = _applied(s, l1[near // len(ls2)], l2[near % len(ls2)])
    return _swept(sums[near], vals, s.jd, s.ld * s.m)


def _block(s: _Scaled, col: np.ndarray, row: np.ndarray, apply) -> np.ndarray:
    """The t-norm on every pair of the factors' levels, as an n1 x n2 block:
    min of col and row, the factors' levels in the t-norm's units,
    overwritten by `apply(piece, r1, r2)` on the slices r1 and r2 of the
    factors' levels in each piece (levels rise strictly, pieces are sorted)."""
    (_, ls1), (_, ls2) = s.images
    vals = np.minimum.outer(col, row)
    for piece in s.pieces:
        r1 = slice(bisect_left(ls1, piece[0]), bisect_right(ls1, piece[1]))
        r2 = slice(bisect_left(ls2, piece[0]), bisect_right(ls2, piece[1]))
        vals[r1, r2] = apply(piece, r1, r2)
    return vals


# Half of float64's spacing at 1: rounding a value of magnitude at most 1
# moves it by at most this much.
_HALF_ULP = 2.0**-54


def _float_error(s: _Scaled, luk: int, product_at_0: int, product: int) -> float:
    """E, a bound on how far a float64 value of a filtered kernel lies from
    its exact value in [0, 1]: the largest, in units of `_HALF_ULP`, of
    the bounds the kernel states for each kind of piece the t-norm has (a
    product piece from lo = 0 apart) and of 1, min's.  `_floats_block` and
    `_costep_floats` prove their bounds."""
    bounds = [1]
    for lo, _, kind, _ in s.pieces:
        bounds.append(luk if kind != PRODUCT_KIND else product if lo else product_at_0)
    return _HALF_ULP * max(bounds)


def _floats_block(s: _Scaled) -> np.ndarray:
    """`_block` of the t-norm's values in [0, 1] as float64, with the bound
    E of `_float_error(s, 3, 3, 5)`.  Every level enters as one correctly
    rounded quotient of Python ints in [-1, 1] (`_floats`), off by at most
    half an ulp at 1, h = `_HALF_ULP`; a sum or product of two values in
    [-1, 1] adds its own rounding, at most h while the result stays within
    [-1, 1].
    - min: a/ld, within h.
    - Lukasiewicz piece: max((a - hi)/ld + b/ld, lo/ld), within 3h: two
      quotients and their sum, which lies in [-1, 1]; max moves no error.
    - product piece: lo/ld + (a - lo)/(hi - lo) * ((b - lo)/ld), within 5h:
      the quotients are x <= 1 and y <= 1, so x y is within 2h before its
      rounding, and lo/ld and the sum add one each.  The sum, at most
      fl(lo/ld) + fl((hi - lo)/ld) <= 1 + 2h, rounds to at most 1, and a
      sum above 1 only ever closer to the value, which is <= 1.
      From lo = 0, as under prod, the sum with 0 is exact: within 3h."""
    (_, ls1), (_, ls2) = s.images
    ld = s.ld

    def apply(piece, r1, r2):
        lo, hi, kind, _ = piece
        if kind == PRODUCT_KIND:
            x, y = _floats(ls1[r1], hi - lo, lo), _floats(ls2[r2], ld, lo)
            return lo / ld + x[:, None] * y[None, :]
        x, y = _floats(ls1[r1], ld, hi), _floats(ls2[r2], ld)
        return np.maximum(x[:, None] + y[None, :], lo / ld)

    return _block(s, _floats(ls1, ld), _floats(ls2, ld), apply)


def _floats(levels: list[int], over: int, lo: int = 0) -> np.ndarray:
    """(a - lo) / over for each a, correctly rounded to float64: Python's
    int division rounds once, at any size of the ints."""
    return np.array([(a - lo) / over for a in levels], dtype=np.float64)


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

    The dispatch rule: at most one step on either side -> closed form;
    otherwise pairs pick the kernel.  The closed forms, `_antecedent_form`
    and `_consequent_form`, build the steps of the answer on Python ints.
    Otherwise, as in `convolve`, below `_FAST_CUTOFF` pairs of steps of phi
    and xi the Python-int kernel `_implication_int` runs, and from it on
    the numpy kernel `_implication_fast`, on `_dtype`'s guard.

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
    if len(phi.js) == 1:
        return _antecedent_form(s)
    if len(xi.js) <= 1:
        return _consequent_form(s)
    kernel = _implication_int if pairs < _FAST_CUTOFF else _implication_fast
    return kernel(s, *_kernel_args(s))


def _kernel_args(s: _Scaled) -> tuple[int, list, int]:
    """(d, forms, cap) of the implication kernels: d, `_form`'s form of
    each level of phi, and the cap over ld * d."""
    (js, ls), (rs, cs) = s.images
    pieces = _level_pieces(s, ls)
    d = lcm(*(_own_d(piece, a) for a, piece in zip(ls, pieces)))
    forms = [_form(piece, a, d) for a, piece in zip(ls, pieces)]
    last = cs[-1] if cs else 0
    cap = _residua(forms[-1], d, [last])[0] if last < ls[-1] else s.ld * d
    return d, forms, cap


def _level_pieces(s: _Scaled, ls: list[int]) -> list:
    """The (lo, hi, kind) piece with lo < a <= hi of each of the rising
    scaled levels ls, or None."""
    pieces = [None] * len(ls)
    for lo, hi, kind, _ in s.pieces:  # the levels lo < a <= hi, a slice of ls
        first, stop = bisect_right(ls, lo), bisect_right(ls, hi)
        pieces[first:stop] = [(lo, hi, kind)] * (stop - first)
    return pieces


def _own_d(piece, a: int) -> int:
    """The d of one level a alone: a - lo in a product piece (lo, hi], 1
    otherwise."""
    return a - piece[0] if piece and piece[2] == PRODUCT_KIND else 1


def _antecedent_form(s: _Scaled) -> Staircase:
    """The implication of a one-step antecedent (p, a): xi read from p on.
    Just after 0 it is a -> xi(p+), the floor a -> 0 where xi is 0 there,
    and each later step (r, c) of xi raises it at r - p to a -> c, up to the
    first with c >= a, where it becomes 1 (1 from 0 on when xi reaches a by
    p).  Those values rise strictly, so the steps go to `_built` as they
    are, a zero value just after 0 dropped."""
    ((p,), (a,)), (rs, cs) = s.images
    (piece,) = _level_pieces(s, [a])
    d = _own_d(piece, a)
    form = _form(piece, a, d)
    first, stop = bisect_right(rs, p), bisect_left(cs, a)  # steps at or below p; c < a
    if stop < first:
        return TOP
    pos = [0, *(r - p for r in rs[first:stop])]
    vals = _residua(form, d, [cs[first - 1] if first else 0, *cs[first:stop]])
    if stop < len(cs):
        pos.append(rs[stop] - p)
        vals.append(s.ld * d)
    if not vals[0]:
        pos, vals = pos[1:], vals[1:]
    return _built(s.jd, s.ld * d, pos, vals)


def _consequent_form(s: _Scaled) -> Staircase:
    """The implication of a consequent xi with at most one step (r, c).  A
    step (p, a) of phi with p < r gives the one co-step (r - p, a -> 0);
    the cap is a -> c for the last level a of phi (a -> 0 for an empty xi),
    over d = `_own_d` of that level.  a -> 0 is positive only in a
    Lukasiewicz piece (0, hi], where it is `_form`'s base (hi - a) * d for
    any d, and antitone in a; so the co-steps, taken from the last such
    step back, come in position order with values that never fall, and the
    meet just after each position, the least value of the co-steps above
    it and the cap, is one pass of `_from_candidates`."""
    (js, ls), (rs, cs) = s.images
    (piece,) = _level_pieces(s, ls[-1:])
    d = _own_d(piece, ls[-1])
    c = cs[0] if cs else 0
    cap = _residua(_form(piece, ls[-1], d), d, [c])[0] if c < ls[-1] else s.ld * d
    top = next((hi for lo, hi, kind, _ in s.pieces[:1] if lo == 0 and kind != PRODUCT_KIND), 0)
    m = bisect_left(js, rs[0]) if rs else 0  # the steps with p < r
    pos = [0, *(rs[0] - p for p in reversed(js[:m]))]
    vals = [min(cap, max(top - a, 0) * d) for a in reversed(ls[:m])]
    return _from_candidates(zip(pos, [*vals, cap]), s.jd, s.ld * d)


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
    earlier co-steps of a run at one position.

    The positions take `_dtype`'s guard on the top jumps, the levels and
    values its guard on ld * d: every value is at most ld * d (base +
    (c - lo) * slope < hi * d for c < a), and within the guard they are
    exact on int64.  Past it they are Python ints in object arrays, and
    the float64 filter runs first, as in `_convolve_fast`: `_costep_floats`
    puts every value within E of its exact value, and the cap is one
    rounding off, so a co-step below every later one and the cap, the only
    kind that sets a suffix minimum, lies within 2E of the floats' suffix
    minimum after it.  Only the co-steps that do are evaluated exactly, by
    `_residua`'s formula; each other one lies at or above a later co-step
    or the cap, so dropping it leaves every suffix minimum, so the meet, as
    it is.
    """
    (js, ls), (rs, cs) = s.images
    jtype, ltype = _dtype(js[-1], *rs[-1:]), _dtype(s.ld * d)
    r, p = np.array(rs, dtype=jtype), np.array(js, dtype=jtype)
    levels = np.array([0, *cs], dtype=ltype)
    a, *forms = np.array([ls, *zip(*forms)], dtype=ltype)
    first = r.searchsorted(p, side="right")
    counts = np.maximum(np.minimum(levels[1:].searchsorted(a) + 1, len(rs)) - first, 0)
    step = np.arange(len(js)).repeat(counts)
    k = np.arange(len(step)) + (first - counts.cumsum() + counts).repeat(counts)
    pos = r[k] - p[step]
    order = _order(pos)
    if ltype is not np.int64:
        g = _costep_floats(s, d, levels, forms, step, k)[order]
        tail = np.minimum.accumulate(np.concatenate((g, [cap / (s.ld * d)]))[::-1])[::-1]
        order = order[g <= tail[1:] + 2 * _float_error(s, 3, 5, 8)]
    # `_residua`'s formula on the co-steps kept, in order
    c, i = levels[k[order]], step[order]
    lo, base, slope = (column[i] for column in forms)
    vals = np.where(c < lo, c * d, base + np.maximum(c - lo, 0) * slope)
    # the meet from each co-step on: the suffix minima, met with the cap.
    # after[0] holds just after 0, and after[k + 1] just after pos[k] when k
    # is the last co-step at pos[k]
    after = np.minimum.accumulate(np.concatenate((vals, [cap]))[::-1])[::-1]
    return _swept(np.concatenate(([0], pos[order])), after, s.jd, s.ld * d)


def _costep_floats(s: _Scaled, d: int, levels: np.ndarray, forms: list, step, k):
    """The value a -> c in [0, 1] of each co-step (step, k), c = levels[k],
    as float64, with the bound E of `_float_error(s, 3, 5, 8)`; h is
    `_HALF_ULP`.  By `_form`'s (lo, base, slope) of a, the value is c/ld
    below lo, and from lo on base/(ld d) + ((c - lo)/ld) (slope/d), where
    c's piece, the one with lo <= c < hi, is a's.
    - c/ld is one correctly rounded quotient, within h.
    - Lukasiewicz piece: slope/d is 1, so the value is (hi - a + lo)/ld +
      (c - lo)/ld, two quotients in [0, 1] and their sum, which stays <= 1:
      within 3h.
    - product piece: the product T < 1 of (c - lo)/ld and slope/d =
      (hi - lo)/(a - lo), each held as a `_frexp` pair so that neither
      overflows nor loses relative precision at any size of ld.  Each
      mantissa is one rounding off, their product one more, and the power
      of two is exact (an underflow adds at most 2^-1075).  With both
      mantissas x, y scaled into [1, 2), the errors add to at most
      2^-53 (x + y + 1) 2^e when x y < 2 and 2^-53 (x + y + 2) 2^e when
      not; x + y <= 1 + x y, and T < 1 puts 2^e at most 1/2 and 1/4, so T
      is within 4h, plus second-order terms.  From lo = 0, as under prod,
      adding lo/ld = 0 is exact: within 5h, with a margin.  From lo > 0,
      lo/ld and the sum add h each, and a sum rounded to above 1 one more
      h: within 8h, with a margin."""
    (lo, base, slope), ld, wide = forms, s.ld, s.ld * d
    cs = levels.tolist()
    lows = [0] * len(cs)  # lo of each c's piece, or 0
    for piece in s.pieces:
        first, stop = bisect_left(cs, piece[0]), bisect_left(cs, piece[1])
        lows[first:stop] = [piece[0]] * (stop - first)
    cf, ce = map(np.array, zip(*(_frexp(c - low, ld) for c, low in zip(cs, lows))))
    af, ae = map(np.array, zip(*(_frexp(v, d) for v in slope)))
    inside = k >= levels.searchsorted(lo)[step]
    # outside a's piece the terms go unused, and their powers of two, which
    # may pass float64's range, are 1
    power = (ce[k] + ae[step]) * inside
    terms = np.ldexp(cf[k] * af[step], power) + (base / wide).astype(np.float64)[step]
    return np.where(inside, terms, _floats(cs, ld)[k])


def _frexp(n: int, m: int) -> tuple[float, int]:
    """n / m, for ints n >= 0 and m > 0, as (f, e) with f * 2**e its value:
    f is one correctly rounded quotient, in (1/2, 2) unless n is 0."""
    e = n.bit_length() - m.bit_length()
    return (n / (m << e) if e >= 0 else (n << -e) / m), e


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

