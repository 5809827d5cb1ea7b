"""Finite-scale spectral certificates.

The per-element criterion compares |u(w)| against half the translation
length t(w); its supremum over the group is the dual stable norm of u, so
a ball maximum is a certified lower bound.  The independent cross-check
classifies the fixed point [e2] of the 3x3 image as a saddle via the
eigenvalue moduli (``spectral.batch_saddle_at_e2``); both tests must agree
element by element.

Every function here scores the words of ``BallTable.scored``: the
cyclically reduced ball words that are nontrivial in the group, whose seed
images must be hyperbolic.  The criterion and the eigenvalue gaps are
conjugacy invariants, so on the top level, most of the ball, only the
least word of each rotation class is scored, and counted as many times
as its class has words: ``n_scored``, ``n_elements`` and the loxodromy
rate count words, while extrema and witnesses come from each class's
least word.  ``certify_anosov`` builds the ball once and reads the
signed ratio r = u(w)/t(w) of every scored word in one pass (``_scan``),
which yields the stable-norm estimate, the saddle cross-check, the
refuting witness and the extrema of r that give the gap rates;
``anosov_rates`` runs the same pass on a ball of its own.  Witnesses
are named through ``BallTable.word``.

Each pass names the fields ``scored`` derives: exponent sums for the
ratio, 3x3 images for the saddle check (``certify_anosov`` only) and for
``probe_explicit``, which reads nothing else.  The last level's fields
and eigenvalue temporaries exist one block at a time.  Only running
reductions cross blocks: each level's first maximum of |r|, so the
running estimate moves as it would on the whole level, and the extrema
of r over t >= min_length, which give the gap rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ball import DEFAULT_MIN_LENGTH, BallTable, rowwise_dot
from .errors import (FlagCurveError, InsufficientSamples, NonLoxodromicEncountered,
                     UnsupportedSpec)
from .reps import RepSpec
from .spectral import GAP_TOL, batch_loxodromic, batch_saddle_at_e2

DEFAULT_MARGIN = 0.02


@dataclass(frozen=True)
class StableNormEstimate:
    value: float
    witness: str
    ball_radius: int
    history: tuple  # (radius, running max) pairs


@dataclass(frozen=True)
class RatesResult:
    inf_top_gap: float  # inf of log(|l_top| / |l_fixed|) / t: 0.5 + min r
    inf_bottom_gap: float  # inf of log(|l_fixed| / |l_bot|) / t: 0.5 - max r
    n_elements: int  # scored words with t >= min_length


@dataclass(frozen=True)
class CertifyResult:
    verdict: str  # "certified-at-scale" | "refuted" | "inconclusive"
    stable_norm_estimate: StableNormEstimate
    margin_required: float  # required margin epsilon
    margin_found: float  # 1/2 minus the ball estimate
    refuting_witness: str | None
    saddle_ratio_tests_agree: bool
    n_scored: int
    rates: RatesResult | None  # None when refuted


def _scan(table: BallTable, u: tuple, min_length: float, *images) -> tuple:
    """One pass over ``table.scored`` with the signed ratio r = u(w)/t(w).

    Returns the stable-norm estimate, the first refuting word (or None),
    whether the ratio and saddle tests agree (checked only when an
    ``images`` field of 3x3 images is given), the scored count, and the
    rate data of the words with t >= min_length: (least r, greatest r,
    their count, the first with |r| within GAP_TOL of 1/2 or None).
    Top-level words are read one per rotation class and counted with
    their class sizes.
    """
    uvec = np.array(u, dtype=float)
    tops = {}  # level -> (max |r|, first word index at it)
    refut_word, agree, scored = None, True, 0
    lo, hi, n_kept, degenerate_word = math.inf, -math.inf, 0, None
    for level, idx, weight, t, _mats, exps, *imgs in table.scored(
            0.0, table.exponent_sums, *images, classes=True):
        r = rowwise_dot(exps, uvec) / t
        vals = np.abs(r)
        j = int(np.argmax(vals))
        if level not in tops or vals[j] > tops[level][0]:
            tops[level] = (vals[j], int(idx[j]))
        ratio_pass = vals < 0.5
        if refut_word is None and not ratio_pass.all():
            refut_word = table.word(level, int(idx[np.argmin(ratio_pass)]))
        if imgs:
            agree &= bool(np.array_equal(ratio_pass, batch_saddle_at_e2(imgs[0])))
        scored += int(weight.sum())
        keep = t >= min_length
        rk = r[keep]
        lo, hi = float(rk.min(initial=lo)), float(rk.max(initial=hi))
        n_kept += int(weight[keep].sum())
        degenerate = np.abs(vals[keep] - 0.5) <= GAP_TOL
        if degenerate_word is None and degenerate.any():
            degenerate_word = table.word(level, int(idx[keep][np.argmax(degenerate)]))
    # The running maximum moves only at a level whose own (first-occurrence)
    # maximum beats it by a relative 1e-12.
    best, best_word, history = 0.0, "", []
    for level, (val, i) in tops.items():
        if val > best * (1.0 + 1e-12) + 1e-300:
            best, best_word = float(val), table.word(level, i)
        history.append((level, best))
    estimate = StableNormEstimate(best, best_word, table.radius, tuple(history))
    return estimate, refut_word, agree, scored, (lo, hi, n_kept, degenerate_word)


def _rates(extrema: tuple) -> RatesResult:
    """Gap rates 0.5 +- r from the rate data of ``_scan``.  Since
    x -> fl(0.5 +- x) is monotone, 0.5 + min r and 0.5 - max r are the
    least rates bit for bit."""
    lo, hi, n, degenerate_word = extrema
    if degenerate_word is not None:
        raise NonLoxodromicEncountered(degenerate_word)
    if not n:
        raise FlagCurveError("no elements pass the length filter")
    return RatesResult(0.5 + lo, 0.5 - hi, n)


def certify_anosov(
    spec: RepSpec,
    radius: int,
    margin: float = DEFAULT_MARGIN,
    min_length: float = DEFAULT_MIN_LENGTH,
) -> CertifyResult:
    """Three-way verdict on the Anosov criterion at ball scale.

    Refuted when some scored element has |u(w)| >= t(w)/2 (with the
    element as witness); certified-at-scale when every element passes with
    margin and the stable-norm estimate is at most 1/2 - margin;
    inconclusive otherwise.  Unless refuted, the result carries the gap
    rates of ``anosov_rates`` over t >= min_length.  A spec with no u is
    not certifiable this way; see probe_explicit.
    """
    if spec.u is None:
        raise UnsupportedSpec("a spec with no u is probe-only; use probe_explicit")
    if radius < 2:
        raise ValueError("radius must be >= 2")
    table = BallTable.build(spec.seed, radius)
    estimate, refut_word, agree, scored, extrema = _scan(
        table, spec.u, min_length, partial(table.images3, spec.letters))
    if refut_word is not None:
        verdict = "refuted"
    elif estimate.value <= 0.5 - margin:
        verdict = "certified-at-scale"
    else:
        verdict = "inconclusive"
    return CertifyResult(
        verdict=verdict,
        stable_norm_estimate=estimate,
        margin_required=margin,
        margin_found=0.5 - estimate.value,
        refuting_witness=refut_word,
        saddle_ratio_tests_agree=agree,
        n_scored=scored,
        rates=None if refut_word is not None else _rates(extrema),
    )


def anosov_rates(spec: RepSpec, radius: int,
                 min_length: float = DEFAULT_MIN_LENGTH) -> RatesResult:
    """Infima of the per-element eigenvalue-gap rates over the seed
    translation length, over the scored words with t >= min_length.

    Images of a spec with u have log eigenvalue moduli u/3 + t/2, -2u/3
    and u/3 - t/2 (the shear data moves no eigenvalue), so the two gaps
    around the [e2] eigenvalue are 1/2 +- u(w)/t(w) per unit length.  These
    closed forms avoid the e^t determinant drift of accumulated matrix
    products, which is far above the 1e-12 scale the canonical family is
    checked at; the generic cubic path is cross-checked against them in
    the test suite.  Rates are signed: a negative bottom rate means the
    [e2] eigenvalue is no longer the middle one, which is exactly the
    refutation condition.
    """
    if spec.u is None:
        raise UnsupportedSpec("rates require a spec with u; use probe_explicit")
    return _rates(_scan(BallTable.build(spec.seed, radius), spec.u, min_length)[4])


@dataclass(frozen=True)
class ProbeResult:
    loxodromy_rate: float
    inf_top_gap: float
    inf_bottom_gap: float
    n_scored: int


def probe_explicit(
    spec: RepSpec,
    radius: int,
    min_length: float = DEFAULT_MIN_LENGTH,
) -> ProbeResult:
    """Verdict-free spectral probe for any spec: loxodromy rate and
    eigenvalue-gap infima over the scored ball.  Raises InsufficientSamples
    when no scored word is loxodromic, since the infima are then empty."""
    table = BallTable.build(spec.seed, radius)
    n_scored = n_lox = 0
    inf_top, inf_bot = math.inf, math.inf
    for _level, _idx, weight, t, _mats, imgs in table.scored(
            min_length, partial(table.images3, spec.letters), classes=True):
        lox, vals = batch_loxodromic(imgs)
        n_scored += int(weight.sum())
        n_lox += int(weight[lox].sum())
        if lox.any():
            a = np.abs(vals[lox])
            inf_top = min(inf_top, float((np.log(a[:, 0] / a[:, 1]) / t[lox]).min()))
            inf_bot = min(inf_bot, float((np.log(a[:, 1] / a[:, 2]) / t[lox]).min()))
    if not n_lox:
        raise InsufficientSamples(f"no loxodromic element among {n_scored} scored words")
    return ProbeResult(n_lox / n_scored, inf_top, inf_bot, n_scored)
