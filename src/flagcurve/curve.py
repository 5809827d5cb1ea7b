"""Limit-curve sampling and incidence analysis.

The invariant curve is sampled at the attracting fixed flags of the
cyclically reduced ball elements; each sample is indexed by the attracting
fixed direction of its 2x2 seed image on the circle of directions (an
angle mod pi), which parametrizes the curve equivariantly and injectively.
``sample_limit_curve`` takes the flags block by block from
``BallTable.scored``, naming only the 3x3 images as a field, so of the
seed and 3x3 images only the level below the one being read is held
whole and the last level is streamed.  As ``scored`` takes its reader's
fields, the sampler takes its reader's columns: beside the params it
keeps only the columns named, of points, lines, translation lengths and
words, and a column not named is None on the model; the second
eigenvector and the line covector are computed only when lines are
named.  Each block's loxodromic rows are written straight into those
columns, allocated at the ball's word count, which bounds the sample
count; rows never written never touch their pages.  Dedup sorts the
params written, marks the ones it keeps in a mask and gathers each
column once, dropping each unsorted column once it is read, so beyond
one model's bytes the sampler holds only the sort's index arrays or one
gathered column.  A sample's word is kept as a (level, index) id
(``ball.WordIds``): one int8 and one int64 a sample, plus the sampled
``BallTable`` itself, only each level's last letters (1 B a ball word).
A word is named, by ``BallTable.word_strings``, only when it is read.

Crossing counts use sign changes of the pairing along the param-ordered
point samples.  Representatives are sign-canonicalized, so consecutive
samples may differ by an antipodal flip; the running sign of consecutive
dot products tracks the coherent lift and the leftover global monodromy
twists the wrap-around comparison.  ``crossing_counts`` never forms the
(points x lines) pairing matrix: the lifted path length of each block of
consecutive samples bounds how far the pairing can move inside the block
(Cauchy-Schwarz), so a block whose first value clears that bound, the
zero tolerance and a rounding slack holds one sign and is skipped.  The
rule prunes at two levels: each line is tested at the starts of
superblocks of 32 blocks (1,024 rows), and only inside the superblocks it
does not skip at their block starts; only the few blocks near a line's
crossings, tangencies and its own sample are evaluated row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import ball
from .ball import DEFAULT_MIN_LENGTH, BallTable, WordIds
from .errors import FlagCurveError, InsufficientSamples
from .reps import RepSpec
from .spectral import batch_attracting_flags
from .surface import batch_attractive_directions


# Param resolution below which two samples are one (``greedy_thin``).
DEFAULT_DEDUP = 1e-7
# Pairing magnitude at or below which a point lies on a line
# (``check_incidence``).
DEFAULT_INCIDENCE_ZERO = 1e-9


@dataclass
class CurveModel:
    """Param-sorted samples of the limit curve and its two projections.

    ``words`` is any sequence of the samples' word strings; the sampler's
    is a ``WordIds``, which names a word only when it is read.  A column
    the sampler's reader did not name (see ``COLUMNS``) is None.

    A model is its samples only: what a spec knows exactly about either
    curve is its own facts, which ``domain.in_omega`` reads.
    """

    params: np.ndarray
    points: np.ndarray | None
    lines: np.ndarray | None
    words: Sequence | None
    tlens: np.ndarray | None
    dedup_res: float

    def __len__(self):
        return len(self.params)


def greedy_thin(x: np.ndarray, spacing: float) -> np.ndarray:
    """Indices kept by the greedy pass over ascending ``x`` that keeps x[0]
    and then each x[i] with x[i] - x[last kept] >= spacing.

    Float subtraction is monotone, so an entry at least ``spacing`` above
    its predecessor is always kept: those entries cut ``x`` into runs that
    each start with a kept entry, and a mask marks them.  Inside a run of
    smaller gaps the next kept entry after x[k] is found by
    ``searchsorted`` at x[k] + spacing and then moved to the first index
    meeting the exact predicate, which is monotone in the index and
    constant on equal values.  A run of two keeps only its start, so only
    longer runs, those whose start is followed by two unmarked entries,
    are walked.
    """
    keep = np.empty(len(x), dtype=bool)
    if not len(x):
        return np.flatnonzero(keep)
    keep[0] = True
    np.greater_equal(np.diff(x), spacing, out=keep[1:])
    for a in np.flatnonzero(keep[:-2] & ~(keep[1:-1] | keep[2:])).tolist():
        # The run ends at the next marked entry, or at the end of x.
        rest = keep[a + 1:]
        j = int(np.argmax(rest))
        b = a + 1 + j if rest[j] else len(x)
        k = a
        while True:
            i = k + 1 + int(np.searchsorted(x[k + 1:b], x[k] + spacing))
            while i > k + 1 and x[i - 1] - x[k] >= spacing:
                i = int(np.searchsorted(x, x[i - 1]))
            while i < b and x[i] - x[k] < spacing:
                i = int(np.searchsorted(x, x[i], side="right"))
            if i >= b:
                break
            keep[i] = True
            k = i
    return np.flatnonzero(keep)


# The arrays behind each column a reader of ``sample_limit_curve`` may
# name, with their row shapes and types: a word is a (level, index) id.
_COLUMN_ARRAYS = {
    "points": (("points", (3,), np.float64),),
    "lines": (("lines", (3,), np.float64),),
    "tlens": (("tlens", (), np.float64),),
    "words": (("levels", (), np.int8), ("index", (), np.int64)),
}
COLUMNS = tuple(_COLUMN_ARRAYS)


def sample_limit_curve(
    spec: RepSpec,
    radius: int,
    min_length: float = DEFAULT_MIN_LENGTH,
    dedup_res: float = DEFAULT_DEDUP,
    columns: Sequence[str] = COLUMNS,
) -> CurveModel:
    """One sample per cyclically reduced loxodromic ball word with
    translation length >= min_length, deduplicated by param and sorted.

    ``columns`` names the columns of ``COLUMNS`` that the model's reader
    reads beyond the params; only those are allocated and gathered, and a
    column not named is None.  Words are kept as (level, index) ids and
    named only when read.

    Raises FlagCurveError naming the first word whose flag is not finite,
    as when its image leaves the float range."""
    if radius < 2:
        raise ValueError("radius must be >= 2")
    unknown = sorted(set(columns) - set(COLUMNS))
    if unknown:
        raise ValueError(f"unknown curve columns {unknown}")
    table = BallTable.build(spec.seed, radius)
    # A ball word gives at most one sample, so the ball's word count bounds
    # the columns; the rows past the last sample are never written, and
    # their pages are never touched.
    size = sum(map(len, table.levels))
    params = np.empty(size)
    cols = {name: np.empty((size, *shape), dtype=dtype)
            for column in columns for name, shape, dtype in _COLUMN_ARRAYS[column]}
    n = 0
    for level, idx, _weight, t, mats, imgs in table.scored(
            min_length, partial(table.images3, spec.letters)):
        lox, pts, lns = batch_attracting_flags(imgs, "lines" in columns)
        flags = [f for f in (pts, lns) if f is not None]
        # Rows are unit vectors, so a block's sum is finite unless a row is
        # not; the sums allocate nothing.
        if not all(math.isfinite(f.sum()) for f in flags):
            bad = ~np.isfinite(np.hstack(flags)).all(axis=1)
            word = table.word(level, int(idx[lox][np.argmax(bad)]))
            raise FlagCurveError(f"flag of {word!r} is not finite")
        rows = slice(n, n + len(pts))
        params[rows] = batch_attractive_directions(mats[lox])
        block = {"points": pts, "lines": lns, "tlens": t[lox], "levels": level,
                 "index": idx[lox]}
        for name, col in cols.items():
            col[rows] = block[name]
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
    for name in cols:
        cols[name] = cols[name][sel]
    del sel

    words = None
    if "words" in columns:
        words = WordIds(table, cols.pop("levels"), cols.pop("index"))
    return CurveModel(
        params=params,
        points=cols.get("points"),
        lines=cols.get("lines"),
        words=words,
        tlens=cols.get("tlens"),
        dedup_res=dedup_res,
    )


# ---------------------------------------------------------------------------
# Transversal crossing counts
# ---------------------------------------------------------------------------

# Row pairs per block of the pruned kernel, blocks per superblock of its
# first level, and the rounding slack of its skip bound in units of
# max|p_i| * |l| (see crossing_counts).
_BLOCK = 32
_SUPER = 32
_SLACK = 1e-9

# Flagged (block, line) pairs evaluated at once by the exact pass of
# crossing_counts: about 0.7 MB of block rows, values and masks.
_PAIRS = 512

# Bytes of the first level's ``coarse`` and ``bound`` arrays, 16 B per
# (line, superblock), that size the line chunks of crossing_counts, and of
# its slices of step differences, 24 B a row, that give the blocks' reach.
_COARSE_BYTES = 1 << 20


@dataclass(frozen=True)
class IncidenceReport:
    lines_checked: int
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

    The n pairs are cut into blocks of _BLOCK, and the blocks into
    superblocks of _SUPER.  The reach D of a block or a superblock is its
    lifted path length, the sum of |P_{i+1} - P_i| over its pairs.  By
    Cauchy-Schwarz |f(i) - f(s)| <= D |l| for every row i of a block or
    superblock starting at row s, so one with

        |f(s)| > |l| (D + _SLACK M) + ztol,     M = max |p_i|,

    holds only nonzero values of one sign: no crossing, no snapped zero.
    Each line is tested at the superblock starts; inside each superblock
    that the rule does not skip, the lines flagged there are tested at its
    block starts, one (lines, blocks) product a superblock.  Only the
    blocks flagged at both levels are evaluated row by row, _PAIRS
    (line, block) pairs at a time, so the working set does not grow with
    the number of lines or of flagged pairs: a chunk holds as many lines
    as fit the first level's two float64 (lines, superblocks) arrays in
    _COARSE_BYTES, at least one and at most ``chunk``.  The line chunks
    and pair slices change no result.

    The skip is exact in float64 at both levels: every computed dot
    product is within 3.4e-16 M |l| of the true one, whatever the
    summation order, and the computed D |l| of a superblock, a sum of up
    to _BLOCK _SUPER = 1,024 step lengths, has a relative error below
    (1024 + 12) 2^-53, under 2.4e-10 M |l| for steps of length <= 2M (a
    block's, of 32 steps, under 3.2e-13 M |l|); so _SLACK M |l| covers
    both, the superblock's with a margin of four, and a skipped block or
    superblock reads as it would in any evaluation of its dot products.
    A block inside a skipped superblock would scan to no flip and no
    snapped zero, so which level skips it changes no result.  Flagged
    blocks and the two flanks of each zero run use dot products of their
    own, which may differ from another evaluation order only for values
    within rounding of +-ztol.

    The lifted points are the one sample-sized array; the D are summed
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
    # step differences and the first level's buffer, each up to about
    # _COARSE_BYTES, are never alive together.
    del part, steps
    # A superblock's path length is the sum of its blocks'; the last
    # superblock may hold fewer than _SUPER blocks.
    super_reach = np.add.reduceat(reach, np.arange(0, nb, _SUPER))
    super_reach += _SLACK * float(top)
    reach += _SLACK * float(top)
    # Block b's B + 1 rows, b * B to (b + 1) * B, as one read-only view.
    row, col = lifted.strides
    windows = np.lib.stride_tricks.as_strided(
        lifted, (nb, B + 1, 3), (B * row, row, col), writeable=False)
    out = (np.empty(len(lines), dtype=np.int64), np.empty(len(lines), dtype=np.int64),
           np.empty(len(lines), dtype=bool))
    step = max(1, min(chunk, _COARSE_BYTES // (16 * len(super_reach))))
    # The first level's two (lines, superblocks) arrays, allocated once for
    # every chunk, so no chunk asks the allocator for fresh pages.
    buf = np.empty((2, min(step, len(lines)), len(super_reach)))
    for lo in range(0, len(lines), step):
        part = _chunk_counts(lifted, windows, n, reach, super_reach, bool(flip[n]),
                             lines[lo:lo + step], ztol, buf)
        for o, r in zip(out, part):
            o[lo:lo + step] = r
    return out


def _chunk_counts(lifted, windows, n, reach, super_reach, monodromy_neg, lines, ztol, buf):
    """``crossing_counts`` for one chunk of lines, given the n lifted
    points padded to n_blocks * B + 1 rows and their block windows, the
    skip reach of the blocks and of the superblocks, and a
    (2, >= len(lines), n_superblocks) buffer for the first level."""
    k, B, S = len(lines), _BLOCK, _SUPER
    nb = len(reach)
    norms = np.linalg.norm(lines, axis=1)
    # First level: the pairing at superblock starts decides which
    # superblocks to test block by block.
    block_starts = lifted[:-1:B]
    coarse, bound = buf[:, :k]
    np.matmul(lines, block_starts[::S].T, out=coarse)
    np.abs(coarse, out=coarse)
    np.multiply(norms[:, None], super_reach, out=bound)
    bound += ztol
    supers, cols = np.nonzero(~(coarse > bound).T)  # by superblock, then line
    # Second level: each flagged superblock's block starts against the
    # lines flagged there, as keys line * nb + block.
    edges = np.searchsorted(supers, np.arange(len(super_reach) + 1))
    keys = [cols[:0]]
    for s in np.flatnonzero(np.diff(edges)).tolist():
        c = cols[edges[s]:edges[s + 1]]
        blk = slice(s * S, (s + 1) * S)
        vals = lines[c] @ block_starts[blk].T
        np.abs(vals, out=vals)
        lim = norms[c, None] * reach[blk]
        lim += ztol
        li, bj = np.divmod(np.flatnonzero(~(vals > lim)), vals.shape[1])
        keys.append(c[li] * nb + (s * S + bj))
    # The zero runs below need the pairs by line, then block.
    cols, blks = np.divmod(np.sort(np.concatenate(keys)), nb)

    # Exact pass over the flagged blocks' B + 1 rows, _PAIRS pairs at a
    # time, each slice's values read as one flat run of windows: position
    # j is row j % (B + 1) of its window, and pairs with position j + 1
    # unless it is the window's last row.  Crossings are kept as lines and
    # snapped zeros as (line, row), sorted; a block's last row is the next
    # block's first, so each block contributes its first B.
    W = B + 1
    fcols, zcols, zrows = [cols[:0]], [cols[:0]], [blks[:0]]
    for lo in range(0, len(cols), _PAIRS):
        c, b = cols[lo:lo + _PAIRS], blks[lo:lo + _PAIRS]
        vals = (windows[b] @ lines[c, :, None]).ravel()
        neg = vals < 0
        nz = np.abs(vals) > ztol
        flips = neg[1:] ^ neg[:-1]
        flips &= nz[1:]
        flips &= nz[:-1]
        j = np.flatnonzero(flips)
        fcols.append(c[j[j % W != B] // W])
        j = np.flatnonzero(~nz)
        zk, zi = np.divmod(j[j % W != B], W)
        zcols.append(c[zk])
        zrows.append(b[zk] * B + zi)
    crossings = np.bincount(np.concatenate(fcols), minlength=k)
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


def check_incidence(model: CurveModel, ztol: float = DEFAULT_INCIDENCE_ZERO,
                    chunk: int = 1024, max_lines: int | None = None) -> IncidenceReport:
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
        lines_checked=len(sel),
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
    regularity or its failure.

    The gaps, distances and secant slopes are taken ``ball.BLOCK_ROWS``
    pairs at a time; only the usable pairs' log-gaps and log-distances are
    held whole, and they go to ``np.polyfit`` as one array each, so no
    result depends on the slice size."""
    if len(model) < 256:
        raise InsufficientSamples(f"{len(model)} samples < 256")
    params, points = model.params, model.points
    pairs = len(model) - 1
    lx, ly = np.empty(pairs), np.empty(pairs)
    used, secant = 0, 0.0
    for lo in range(0, pairs, ball.BLOCK_ROWS):
        hi = min(pairs, lo + ball.BLOCK_ROWS)
        gaps = params[lo + 1:hi + 1] - params[lo:hi]
        dots = np.abs(np.einsum("ij,ij->i", points[lo:hi], points[lo + 1:hi + 1]))
        dists = np.arccos(np.minimum(1.0, dots))
        mask = (gaps >= model.dedup_res) & (dists > 1e-14)
        gaps, dists = gaps[mask], dists[mask]
        if len(gaps):
            secant = max(secant, float((dists / gaps).max()))
        np.log(gaps, out=lx[used:used + len(gaps)])
        np.log(dists, out=ly[used:used + len(gaps)])
        used += len(gaps)
    if used < 16:
        raise InsufficientSamples("too few usable consecutive pairs")
    slope = float(np.polyfit(lx[:used], ly[:used], 1)[0])
    if slope >= 0.9:
        hint = "consistent-with-lipschitz-at-this-scale"
    elif slope >= 0.6:
        hint = "intermediate-exponent-at-this-scale"
    else:
        hint = "sub-lipschitz-signature-at-this-scale"
    return RegularityReport(slope, secant, used, hint)
