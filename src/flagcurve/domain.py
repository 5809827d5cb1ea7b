"""The invariant domain of flags, membership tests and recurrence
experiments.

A flag is inside the domain when its point avoids the sampled point curve
and its line avoids the sampled line curve.  Where a curve is exactly
known (a spec's fixed line, the pencil through [e2] of a spec with u),
the exact linear-algebra margin replaces the nearest-sample margin.
Boundary classification against sampled curves is honest about
resolution: flags within the tolerance band of a sampled curve are
"on-boundary", not "outside", unless an exact test puts them on the bad
set.

``recurrence_experiment`` tests the base flag against the curve model its
caller samples, then maps it by every ball word, block by block from
``BallTable.blocks``: the images of the level below the one being read
are held whole, while the last level's images and the mapped flags exist
one block at a time.  A word's displacement is the larger of its point's
and its line's, so the point alone rules out most words: only a word
whose point moves by at most 2*nbhd can return, and only one whose point
moves less than the least displacement so far can lower it.  Only those
words pay for an inverse and a mapped line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ball import BallTable, rowwise_dot
from .curve import CurveModel
from .errors import BaseNotInterior
from .projective import Flag
from .reps import RepSpec

HARD_EPS = 1e-9


@dataclass(frozen=True)
class OmegaQuery:
    """Membership verdict with the margins that produced it."""

    verdict: str  # "inside" | "on-boundary" | "outside"
    margin_point: float
    margin_line: float


def in_omega(flag: Flag, model: CurveModel, tol: float | None = None) -> OmegaQuery:
    """Classify a flag against the invariant domain: its point against the
    model's point curve, its line against the model's line curve.  Default
    tolerance band is twice the dedup resolution.
    """
    if tol is None:
        tol = 2.0 * model.dedup_res
    mp, ml = model.point_margin(flag.point), model.line_margin(flag.line)
    m = min(mp, ml)
    if m <= HARD_EPS:
        verdict = "outside"
    elif m <= tol:
        # Inside the sampling band; an exact test can still settle it.
        on_exact = ((model.exact_point_line is not None and mp <= HARD_EPS)
                    or (model.exact_line_point is not None and ml <= HARD_EPS))
        verdict = "outside" if on_exact else "on-boundary"
    else:
        verdict = "inside"
    return OmegaQuery(verdict, mp, ml)


@dataclass(frozen=True)
class RecurrenceReport:
    neighborhood: float
    returning_words: tuple  # includes the empty word ""
    count_history: tuple  # (radius, cumulative count) pairs
    stabilized: bool
    min_nonempty_displacement: float
    free_at_scale: bool  # no nonempty word fixes the base within 1e-8


def _angles(rows: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Angular distances of unit rows from a unit base, up to sign."""
    return np.arccos(np.minimum(1.0, np.abs(rowwise_dot(rows, base))))


def recurrence_experiment(spec: RepSpec, base: Flag, nbhd: float, radius: int,
                          model: CurveModel) -> RecurrenceReport:
    """List the ball words that move the base flag by at most 2*nbhd.

    Properness proxy: the returning set stabilizes as the radius grows.
    Freeness proxy: no nonempty word fixes the base within 1e-8.  The base
    is tested against the caller's ``model``, which needs its points and
    lines.
    """
    q = in_omega(base, model)
    if q.verdict != "inside" or min(q.margin_point, q.margin_line) <= 2.0 * nbhd:
        raise BaseNotInterior(
            f"verdict {q.verdict}, margins ({q.margin_point:.4f}, {q.margin_line:.4f})"
            f" need > {2.0 * nbhd:.4f}"
        )
    table = BallTable.build(spec.seed, radius)
    bp, bl = base.point, base.line
    returning = [""]
    counts = {0: 1}  # level -> cumulative count of returning words
    min_disp = math.inf
    for level, rows, _weight, imgs in table.blocks(partial(table.images3, spec.letters)):
        pts = np.einsum("nij,j->ni", imgs, bp)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        dp = _angles(pts, bp)
        # The displacement max(dp, dl) is at least dp: no other word can
        # return or lower the minimum.
        cand = np.flatnonzero((dp <= 2.0 * nbhd) | (dp < min_disp))
        if len(cand):
            duals = np.linalg.inv(imgs[cand]).transpose(0, 2, 1)
            lns = np.einsum("nij,j->ni", duals, bl)
            lns /= np.linalg.norm(lns, axis=1)[:, None]
            disp = np.maximum(dp[cand], _angles(lns, bl))
            min_disp = min(min_disp, float(disp.min()))
            hits = cand[disp <= 2.0 * nbhd]
            returning.extend(table.word(level, int(rows[i])) for i in hits)
        counts[level] = len(returning)
    history = list(counts.items())
    stabilized = len(history) >= 3 and history[-1][1] == history[-2][1] == history[-3][1]
    return RecurrenceReport(
        neighborhood=nbhd,
        returning_words=tuple(returning),
        count_history=tuple(history),
        stabilized=stabilized,
        min_nonempty_displacement=min_disp,
        free_at_scale=min_disp > 1e-8,
    )
