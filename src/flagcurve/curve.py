"""Limit-curve sampling and incidence analysis.

The invariant curve is sampled at the attracting fixed flags of the
cyclically reduced ball elements; each sample is indexed by the attracting
fixed direction of its 2x2 seed image on the circle of directions (an
angle mod pi), which parametrizes the curve equivariantly and injectively.
``sample_limit_curve`` takes the flags block by block from
``BallTable.scored``, so of the seed and 3x3 images only the level below
the one being read is held whole and the last level is streamed.  Each
block's loxodromic rows are written straight into six columns (params,
points, lines, translation lengths, levels and indices) allocated at the
ball's word count, which bounds the sample count; rows never written
never touch their pages.  Dedup sorts the params written, thins them and
gathers each column once, dropping each unsorted column once it is
read, so beyond one model's bytes the sampler holds only the sort's
index arrays or one gathered column.  A
``CurveModel`` keeps its samples' params, flags and translation lengths,
and each sample's word as a (level, index) id (``ball.WordIds``): one
int8 and one int64 a sample, plus the sampled ``BallTable`` itself, only
each level's last letters (1 B a ball word).  A word is named, by
``BallTable.word_strings``, only when it is read.

Crossing counts use sign changes of the pairing along the param-ordered
point samples.  Representatives are sign-canonicalized, so consecutive
samples may differ by an antipodal flip; the running sign of consecutive
dot products tracks the coherent lift and the leftover global monodromy
twists the wrap-around comparison.  ``crossing_counts`` never forms the
(points x lines) pairing matrix: the lifted path length of each block of
consecutive samples bounds how far the pairing can move inside the block
(Cauchy-Schwarz), so a block whose first value clears that bound, the
zero tolerance and a rounding slack holds one sign and is skipped; only
the few blocks near a line's crossings, tangencies and its own sample are
evaluated row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ball import BallTable, WordIds
from .errors import FlagCurveError, InsufficientSamples
from .reps import RepSpec
from .spectral import batch_attracting_flags
from .surface import batch_attractive_directions

E2 = np.array([0.0, 1.0, 0.0])


@dataclass
class CurveModel:
    """Param-sorted samples of the limit curve and its two projections.

    ``words`` is any sequence of the samples' word strings; the sampler's
    is a ``WordIds``, which names a word only when it is read.

    ``exact_point_line`` (a covector) is set when the point curve is known
    to be exactly a projective line; ``exact_line_point`` (a point) when
    the line curve is exactly the pencil through that point.  Membership
    tests then use the exact formula instead of nearest-sample distance.
    """

    params: np.ndarray
    points: np.ndarray
    lines: np.ndarray
    words: Sequence
    tlens: np.ndarray
    dedup_res: float
    exact_point_line: np.ndarray | None = None
    exact_line_point: np.ndarray | None = None

    def __len__(self):
        return len(self.params)

    def point_margin(self, rep: np.ndarray) -> float:
        """Angular distance of a projective point to the sampled point curve."""
        if self.exact_point_line is not None:
            return math.asin(min(1.0, abs(float(rep @ self.exact_point_line))))
        return float(np.arccos(np.minimum(1.0, np.abs(self.points @ rep)).max()))

    def line_margin(self, rep: np.ndarray) -> float:
        """Angular distance of a projective line to the sampled line curve."""
        if self.exact_line_point is not None:
            return math.asin(min(1.0, abs(float(rep @ self.exact_line_point))))
        return float(np.arccos(np.minimum(1.0, np.abs(self.lines @ rep)).max()))


def greedy_thin(x: np.ndarray, spacing: float) -> np.ndarray:
    """Indices kept by the greedy pass over ascending ``x`` that keeps x[0]
    and then each x[i] with x[i] - x[last kept] >= spacing.

    Float subtraction is monotone, so an entry at least ``spacing`` above
    its predecessor is always kept: those entries cut ``x`` into runs that
    each start with a kept entry.  Inside a run of smaller gaps the next
    kept entry after x[k] is found by ``searchsorted`` at x[k] + spacing
    and then moved to the first index meeting the exact predicate, which
    is monotone in the index and constant on equal values.  A run of two
    keeps only its start, so only longer runs are walked.
    """
    if not len(x):
        return np.empty(0, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(x) >= spacing) + 1))
    ends = np.append(starts[1:], len(x))
    runs = ends - starts > 2
    kept = [starts]
    for a, b in zip(starts[runs].tolist(), ends[runs].tolist()):
        k, inner = a, []
        while True:
            i = k + 1 + int(np.searchsorted(x[k + 1:b], x[k] + spacing))
            while i > k + 1 and x[i - 1] - x[k] >= spacing:
                i = int(np.searchsorted(x, x[i - 1]))
            while i < b and x[i] - x[k] < spacing:
                i = int(np.searchsorted(x, x[i], side="right"))
            if i >= b:
                break
            inner.append(i)
            k = i
        kept.append(np.array(inner, dtype=np.intp))
    return np.sort(np.concatenate(kept))


def sample_limit_curve(
    spec: RepSpec,
    radius: int,
    min_length: float = 0.5,
    dedup_res: float = 1e-7,
) -> CurveModel:
    """One sample per cyclically reduced loxodromic ball word with
    translation length >= min_length, deduplicated by param and sorted.
    Words are kept as (level, index) ids and named only when read.

    Raises FlagCurveError naming the first word whose flag is not finite,
    as when its image leaves the float range."""
    if radius < 2:
        raise ValueError("radius must be >= 2")
    table = BallTable.build(spec.seed, radius)
    # A ball word gives at most one sample, so the ball's word count bounds
    # the columns; the rows past the last sample are never written, and
    # their pages are never touched.
    size = sum(map(len, table.levels))
    params, tlens = np.empty(size), np.empty(size)
    points, lines = np.empty((size, 3)), np.empty((size, 3))
    levels, index = np.empty(size, dtype=np.int8), np.empty(size, dtype=np.int64)
    n = 0
    for level, idx, t, mats, _exps, imgs, _weight in table.scored(min_length,
                                                                  spec.letter_images()):
        lox, pts, lns = batch_attracting_flags(imgs)
        # Rows are unit vectors, so the block's sum is finite unless a row
        # is not; the sum allocates nothing.
        if not math.isfinite(pts.sum() + lns.sum()):
            bad = ~(np.isfinite(pts).all(axis=1) & np.isfinite(lns).all(axis=1))
            word = table.word(level, int(idx[lox][np.argmax(bad)]))
            raise FlagCurveError(f"flag of {word!r} is not finite")
        rows = slice(n, n + len(pts))
        points[rows] = pts
        lines[rows] = lns
        params[rows] = batch_attractive_directions(mats[lox])
        tlens[rows] = t[lox]
        levels[rows] = level
        index[rows] = idx[lox]
        n = rows.stop
    if not n:
        raise InsufficientSamples("no loxodromic samples in the ball")
    # Samples were written in shortlex order, so a stable sort breaks
    # param ties by it.
    order = np.argsort(params[:n], kind="stable")
    params = params[order]
    keep = greedy_thin(params, dedup_res)
    if len(keep) < 16:
        raise InsufficientSamples(f"only {len(keep)} samples after dedup")
    params = params[keep]
    sel = order[keep]
    del order, keep
    # One gather a column, each unsorted column dropped once it is read.
    points = points[sel]
    lines = lines[sel]
    tlens = tlens[sel]
    levels = levels[sel]
    index = index[sel]
    del sel

    exact_pl = E2.copy() if spec.variant == "canonical" else None
    exact_lp = E2.copy() if spec.variant in ("canonical", "radial") else None
    return CurveModel(
        params=params,
        points=points,
        lines=lines,
        words=WordIds(table, levels, index),
        tlens=tlens,
        dedup_res=dedup_res,
        exact_point_line=exact_pl,
        exact_line_point=exact_lp,
    )


# ---------------------------------------------------------------------------
# Transversal crossing counts
# ---------------------------------------------------------------------------

# Row pairs per block of the pruned kernel, and the rounding slack of its
# skip bound in units of max|p_i| * |l| (see crossing_counts).
_BLOCK = 32
_SLACK = 1e-9

# Flagged (block, line) pairs evaluated at once by the exact pass of
# crossing_counts: about 1.1 MB of block rows, values and masks.
_PAIRS = 1024

# Bytes of the coarse pass's ``coarse`` and ``bound`` arrays, 16 B per
# (line, block), that size the line chunks of crossing_counts, and of its
# slices of step differences, 24 B a row, that give the blocks' reach.
_COARSE_BYTES = 1 << 20


@dataclass(frozen=True)
class IncidenceReport:
    histogram: dict
    worst_word: str
    worst_count: int
    nontransversal: int
    passed: bool


def crossing_counts(points: np.ndarray, lines: np.ndarray, ztol: float,
                    chunk: int = 1024):
    """Transversal crossings of each of ``lines`` with the cyclic sequence
    of ``points``, without forming the (n_points, n_lines) pairing matrix.

    Consecutive representatives (the last paired with the first) whose dot
    product is negative differ by an antipodal flip.  Lifting p_i to
    P_i = +-p_i by the running sign of those flips, plus a row P_n = +-P_0
    twisted by the monodromy, makes every cyclic pair (i, i+1), i < n, an
    ordinary pair of the lifted pairing f(i) = P_i . l.  Values with
    |f| <= ztol snap to exact incidence.  A pair with both values nonzero
    and of opposite sign is a crossing; each maximal cyclic run of snapped
    zeros is bridged: flanking signs that alternate are a crossing,
    agreeing ones a tangency.  A line vanishing on every point has all_zero
    set and no crossings.

    The n pairs are cut into blocks of _BLOCK; D_b is the lifted path length
    of block b, the sum of |P_{i+1} - P_i| over its pairs.  By
    Cauchy-Schwarz |f(i) - f(s)| <= D_b |l| for every row i of the block
    starting at row s, so a block with

        |f(s)| > |l| (D_b + _SLACK M) + ztol,     M = max |p_i|,

    holds only nonzero values of one sign: no crossing, no snapped zero.
    Only the other (block, line) pairs are evaluated row by row, a chunk
    of lines and then _PAIRS pairs at a time, so the working set does not
    grow with the number of lines or of flagged pairs: a chunk holds as
    many lines as fit the coarse pass's two float64 (lines, blocks) arrays
    in _COARSE_BYTES, at least one and at most ``chunk``.  The line chunks
    and pair slices change no result.  The skip is exact in float64: every
    computed dot product is within 3.4e-16 M |l| of the true one,
    whatever the summation order, and the computed D_b |l| has a relative
    error below (_BLOCK + 12) 2^-53, under 3.2e-13 M |l| for steps of
    length <= 2M; so _SLACK M |l| covers both with a margin of three
    orders, and a skipped block reads as it would in any evaluation of its
    dot products.
    Flagged blocks and the two flanks of each zero run use dot products of
    their own, which may differ from another evaluation order only for
    values within rounding of +-ztol.

    The lifted points are the one sample-sized array; the D_b are summed
    from step differences taken a slice of whole blocks at a time, so they
    are the same bits whatever the slice.

    Returns (crossings, tangencies, all_zero), one entry per line.
    """
    n, B = len(points), _BLOCK
    nb = -(-n // B)
    lifted = np.empty((nb * B + 1, 3))
    lifted[:n] = points
    lifted[n] = points[0]
    turns = np.einsum("ij,ij->i", lifted[:n], lifted[1:n + 1]) < 0
    flip = np.zeros(n + 1, dtype=bool)
    np.logical_xor.accumulate(turns, out=flip[1:])
    np.negative(lifted[:n + 1], out=lifted[:n + 1], where=flip[:, None])
    lifted[n + 1:] = lifted[n]  # padding: zero steps, no flips
    # |P_{i+1} - P_i| summed per block and M = max |P_i| = max |p_i|, a
    # slice of whole blocks at a time within _COARSE_BYTES, the steps
    # squared in place.
    reach = np.empty(nb)
    top = np.float64(0.0)
    span = max(1, _COARSE_BYTES // (24 * B))
    for lo in range(0, nb, span):
        hi = min(nb, lo + span)
        part = lifted[lo * B:hi * B + 1]
        top = np.maximum(top, np.linalg.norm(part, axis=1).max())
        steps = np.diff(part, axis=0)
        steps *= steps
        reach[lo:hi] = np.sqrt(np.add.reduce(steps, axis=1)).reshape(hi - lo, B).sum(axis=1)
    # Freed before the line chunks, not on return, so the last slice of
    # step differences and the coarse pass's buffer, each up to about
    # _COARSE_BYTES, are never alive together.
    del part, steps
    reach += _SLACK * float(top)
    out = (np.empty(len(lines), dtype=np.int64), np.empty(len(lines), dtype=np.int64),
           np.empty(len(lines), dtype=bool))
    step = max(1, min(chunk, _COARSE_BYTES // (16 * nb)))
    # The coarse pass's two (lines, blocks) arrays, allocated once for
    # every chunk, so no chunk asks the allocator for fresh pages.
    buf = np.empty((2, min(step, len(lines)), nb))
    for lo in range(0, len(lines), step):
        part = _chunk_counts(lifted, n, reach, bool(flip[n]), lines[lo:lo + step], ztol, buf)
        for o, r in zip(out, part):
            o[lo:lo + step] = r
    return out


def _chunk_counts(lifted, n, reach, monodromy_neg, lines, ztol, buf):
    """``crossing_counts`` for one chunk of lines, given the n lifted
    points padded to n_blocks * B + 1 rows, the blocks' skip reach and a
    (2, >= len(lines), n_blocks) buffer for the coarse pass."""
    k, B = len(lines), _BLOCK
    # Coarse pass: the pairing at block starts decides which blocks to scan.
    coarse, bound = buf[:, :k]
    np.matmul(lines, lifted[:-1:B].T, out=coarse)
    np.abs(coarse, out=coarse)
    np.multiply.outer(np.linalg.norm(lines, axis=1), reach, out=bound)
    bound += ztol
    cols, blks = np.nonzero(~(coarse > bound))  # by line, then block

    # Exact pass over the flagged blocks' B + 1 rows, _PAIRS pairs at a
    # time.  Snapped zeros are kept as (line, row), sorted; a block's last
    # row is the next block's first, so each block contributes its first B.
    inner = np.empty(len(cols), dtype=np.int64)
    zcols, zrows = [cols[:0]], [blks[:0]]
    for lo in range(0, len(cols), _PAIRS):
        c, b = cols[lo:lo + _PAIRS], blks[lo:lo + _PAIRS]
        vals = (lifted[b[:, None] * B + np.arange(B + 1)] @ lines[c, :, None])[..., 0]
        neg = vals < 0
        nz = np.abs(vals) > ztol
        flips = (neg[:, 1:] ^ neg[:, :-1]) & nz[:, 1:] & nz[:, :-1]
        inner[lo:lo + _PAIRS] = flips.sum(axis=1)
        zk, zi = np.nonzero(~nz[:, :B])
        zcols.append(c[zk])
        zrows.append(b[zk] * B + zi)
    crossings = np.bincount(cols, weights=inner, minlength=k).astype(np.int64)
    zcol, zrow = np.concatenate(zcols), np.concatenate(zrows)
    real = zrow < n
    zcol, zrow = zcol[real], zrow[real]
    all_zero = np.bincount(zcol, minlength=k) == n

    # Zero runs, the first and last run of a line merged across the seam.
    new = np.ones(len(zcol), dtype=bool)
    new[1:] = (zcol[1:] != zcol[:-1]) | (zrow[1:] != zrow[:-1] + 1)
    starts, ends = _group_bounds(new)
    rcol = zcol[starts]
    a = (zrow[starts] - 1) % n
    b = (zrow[ends] + 1) % n
    first = np.ones(len(rcol), dtype=bool)
    first[1:] = rcol[1:] != rcol[:-1]
    fi, li = _group_bounds(first)
    seam = (zrow[starts[fi]] == 0) & (zrow[ends[li]] == n - 1) & (fi != li)
    b[li[seam]] = b[fi[seam]]
    keep = ~all_zero[rcol]
    keep[fi[seam]] = False
    rcol, a, b = rcol[keep], a[keep], b[keep]
    fa = np.einsum("ij,ij->i", lifted[a], lines[rcol])
    fb = np.einsum("ij,ij->i", lifted[b], lines[rcol])
    # bridging forward from a to b crosses the seam iff b <= a
    bridged = (fa < 0) ^ (fb < 0) ^ (monodromy_neg & (b <= a))
    crossings += np.bincount(rcol[bridged], minlength=k)
    tangencies = np.bincount(rcol[~bridged], minlength=k)
    return crossings, tangencies, all_zero


def _group_bounds(new: np.ndarray):
    """First and last index of each group, given a mask of group starts."""
    last = np.ones_like(new)
    last[:-1] = new[1:]
    return np.nonzero(new)[0], np.nonzero(last)[0]


def check_incidence(model: CurveModel, ztol: float = 1e-9, chunk: int = 1024,
                    max_lines: int | None = None) -> IncidenceReport:
    """Count, for each sampled line, its transversal crossings with the
    sampled point curve (``crossing_counts``, ``chunk`` lines at a time).
    Passes when every line is transversal and crosses exactly once.

    ``max_lines`` checks an evenly strided subset (report carries the
    count); None checks every sampled line.  The witness is the transversal
    line whose count is farthest from one, first in param order; when every
    transversal count is one but some line is not transversal, it is the
    first nontransversal line and its crossing count.  A passing report has
    ``worst_count`` 1 and an empty ``worst_word``.
    """
    if len(model) < 64:
        raise InsufficientSamples(f"{len(model)} samples < 64")
    if max_lines is not None and len(model) > max_lines:
        sel = np.arange(0, len(model), len(model) // max_lines)[:max_lines]
    else:
        sel = np.arange(len(model))
    cross, tang, allzero = crossing_counts(model.points, model.lines[sel], ztol, chunk)
    bad = allzero | (tang > 0)
    counts, freq = np.unique(cross[~bad], return_counts=True)
    histogram = {int(c): int(m) for c, m in zip(counts, freq)}
    off = np.where(bad, -1, np.abs(cross - 1))
    if off.max() > 0:
        j = int(np.argmax(off))
    elif bad.any():
        j = int(np.argmax(bad))
    else:
        j = None
    return IncidenceReport(
        histogram=histogram,
        worst_word="" if j is None else model.words[sel[j]],
        worst_count=1 if j is None else int(cross[j]),
        nontransversal=int(bad.sum()),
        passed=set(histogram) == {1} and not bad.any(),
    )


# ---------------------------------------------------------------------------
# Model property reports
# ---------------------------------------------------------------------------

# Chordal separation at or below which two samples of distinct params
# count as an injectivity violation.
INJECTIVITY_FLOOR = 1e-9


@dataclass(frozen=True)
class InjectivityReport:
    min_point_separation: float
    min_line_separation: float
    violations: int


def injectivity_report(model: CurveModel) -> InjectivityReport:
    """Angular separation of samples with distinct params.

    Checks param-adjacent pairs plus lexicographically adjacent point
    representatives (collisions between far params land adjacent in lex
    order for curve data).
    """
    def chordal(a, b):
        return np.minimum(
            np.linalg.norm(a - b, axis=1), np.linalg.norm(a + b, axis=1)
        )

    def min_sep(arr):
        d = chordal(arr, np.roll(arr, -1, axis=0))
        best = float(d.min())
        order = np.lexsort(arr.T)
        srt = arr[order]
        d2 = chordal(srt[:-1], srt[1:])
        pgap = np.abs(model.params[order][:-1] - model.params[order][1:])
        mask = pgap > model.dedup_res
        viol = int(np.count_nonzero(d2[mask] <= INJECTIVITY_FLOOR))
        if mask.any():
            best = min(best, float(d2[mask].min()))
        return best, viol

    p_sep, p_viol = min_sep(model.points)
    l_sep, l_viol = min_sep(model.lines)
    return InjectivityReport(p_sep, l_sep, p_viol + l_viol)


# ---------------------------------------------------------------------------
# Regularity diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    holder_exponent_estimate: float
    secant_slope_max: float
    pairs_used: int
    verdict_hint: str


def regularity_diagnostics(model: CurveModel) -> RegularityReport:
    """Log-log regression of chordal distance against param gap over
    consecutive samples.  Estimates only; finite sampling cannot certify
    regularity or its failure."""
    if len(model) < 256:
        raise InsufficientSamples(f"{len(model)} samples < 256")
    gaps = np.diff(model.params)
    dots = np.abs(np.einsum("ij,ij->i", model.points[:-1], model.points[1:]))
    dists = np.arccos(np.minimum(1.0, dots))
    mask = (gaps >= model.dedup_res) & (dists > 1e-14)
    gaps, dists = gaps[mask], dists[mask]
    if len(gaps) < 16:
        raise InsufficientSamples("too few usable consecutive pairs")
    lx, ly = np.log(gaps), np.log(dists)
    slope = float(np.polyfit(lx, ly, 1)[0])
    secant = float((dists / gaps).max())
    if slope >= 0.9:
        hint = "consistent-with-lipschitz-at-this-scale"
    elif slope >= 0.6:
        hint = "intermediate-exponent-at-this-scale"
    else:
        hint = "sub-lipschitz-signature-at-this-scale"
    return RegularityReport(slope, secant, int(len(gaps)), hint)
