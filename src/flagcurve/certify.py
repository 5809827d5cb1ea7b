"""Finite-scale spectral certificates.

The per-element criterion compares |u(w)| against half the translation
length t(w); its supremum over the group is the dual stable norm of u, so
a ball maximum is a certified lower bound.  The independent cross-check
classifies the fixed point [e2] of the 3x3 image as a saddle via the
eigenvalue moduli (``spectral.batch_saddle_at_e2``); both tests must agree
element by element.

Every function here scores the words of ``BallTable.scored``: the
cyclically reduced ball words that are nontrivial in the group, whose seed
images must be hyperbolic.  ``certify_anosov`` builds the ball once and
reads the signed ratio r = u(w)/t(w) of every scored word in one pass
(``_scan``), which yields the stable-norm estimate, the saddle
cross-check, the refuting witness and the gap rates; ``stable_norm`` and
``anosov_rates`` run the same pass on a ball of their own.
Witnesses are named through ``BallTable.word``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import BallTable
from .errors import (FlagCurveError, InsufficientSamples, NonLoxodromicEncountered,
                     UnsupportedSpec)
from .reps import RepSpec
from .spectral import GAP_TOL, batch_loxodromic, batch_saddle_at_e2
from .surface import CohomologyClass, FuchsianSeed

DEFAULT_MARGIN = 0.02


@dataclass(frozen=True)
class StableNormEstimate:
    value: float
    witness: str
    ball_radius: int
    history: tuple  # (radius, running max) pairs


@dataclass(frozen=True)
class RatesResult:
    inf_top_gap: float  # inf over elements of log(|l_top| / |l_fixed|) / t
    inf_bottom_gap: float  # inf of log(|l_fixed| / |l_bot|) / t
    n_elements: int
    top_rates: np.ndarray
    bottom_rates: np.ndarray


@dataclass(frozen=True)
class CertifyResult:
    verdict: str  # "certified-at-scale" | "refuted" | "inconclusive"
    estimate: StableNormEstimate
    margin: float  # required margin epsilon
    margin_found: float  # 1/2 minus the ball estimate
    refuting_witness: str | None
    tests_agree: bool
    n_scored: int
    rates: RatesResult | None  # None when refuted


def _u_class(spec: RepSpec) -> CohomologyClass:
    return spec.u if spec.u is not None else CohomologyClass.zero(spec.genus)


def _scan(table: BallTable, u: CohomologyClass, radius: int, min_length: float,
          img_levels: list | None = None) -> tuple:
    """One pass over ``table.scored()`` with the signed ratio r = u(w)/t(w).

    Returns the stable-norm estimate, the first refuting word (or None),
    whether the ratio and saddle tests agree (checked only when the 3x3
    ``img_levels`` are given), the scored count, and the (level, idx, r)
    of the words with t >= min_length, level by level.
    """
    uvec = u.as_vector()
    best, best_word, history, kept = 0.0, "", [], []
    refut_word, agree, scored = None, True, 0
    for level, idx, t in table.scored():
        # The saddle test runs before the ratios exist: its temporaries set the peak memory.
        saddle_pass = (None if img_levels is None
                       else batch_saddle_at_e2(img_levels[level - 1][idx]))
        r = (table.expsums(level)[idx] @ uvec) / t
        vals = np.abs(r)
        j = int(np.argmax(vals))
        if vals[j] > best * (1.0 + 1e-12) + 1e-300:
            best, best_word = float(vals[j]), table.word(level, int(idx[j]))
        history.append((level, best))
        ratio_pass = vals < 0.5
        if refut_word is None and not ratio_pass.all():
            refut_word = table.word(level, int(idx[np.argmin(ratio_pass)]))
        if saddle_pass is not None:
            agree &= bool(np.array_equal(ratio_pass, saddle_pass))
        scored += len(idx)
        keep = t >= min_length
        kept.append((level, idx[keep], r[keep]))
    estimate = StableNormEstimate(best, best_word, radius, tuple(history))
    return estimate, refut_word, agree, scored, kept


def _rates(table: BallTable, kept: list) -> RatesResult:
    """Gap rates 0.5 +- r from the (level, idx, r) parts of ``_scan``."""
    for level, idx, r in kept:
        degenerate = np.abs(np.abs(r) - 0.5) <= GAP_TOL
        if degenerate.any():
            raise NonLoxodromicEncountered(table.word(level, int(idx[np.argmax(degenerate)])))
    r = np.concatenate([np.empty(0)] + [r for _, _, r in kept])
    if not len(r):
        raise FlagCurveError("no elements pass the length filter")
    top, bot = 0.5 + r, 0.5 - r
    return RatesResult(float(top.min()), float(bot.min()), len(r), top, bot)


def stable_norm(u: CohomologyClass, seed: FuchsianSeed, radius: int) -> StableNormEstimate:
    """Max of |u(w)| / t(w) over the scored (cyclically reduced) ball words.

    A lower bound for the dual stable norm of u, nondecreasing in radius.
    """
    if radius < 2:
        raise ValueError("radius must be >= 2")
    return _scan(BallTable.build(seed, radius), u, radius, 0.0)[0]


def certify_anosov(
    spec: RepSpec,
    radius: int,
    margin: float = DEFAULT_MARGIN,
    min_length: float = 0.5,
) -> CertifyResult:
    """Three-way verdict on the Anosov criterion at ball scale.

    Refuted when some scored element has |u(w)| >= t(w)/2 (with the
    element as witness); certified-at-scale when every element passes with
    margin and the stable-norm estimate is at most 1/2 - margin;
    inconclusive otherwise.  Unless refuted, the result carries the gap
    rates of ``anosov_rates`` over t >= min_length.  Explicit specs are not
    certifiable this way; see probe_explicit.
    """
    if spec.variant == "explicit":
        raise UnsupportedSpec("explicit specs are probe-only; use probe_explicit")
    if spec.variant not in ("canonical", "linear_u", "radial"):
        raise UnsupportedSpec(spec.variant)
    if radius < 2:
        raise ValueError("radius must be >= 2")
    table = BallTable.build(spec.seed, radius)
    estimate, refut_word, agree, scored, kept = _scan(
        table, _u_class(spec), radius, min_length, table.images3(spec.letter_images()))
    if refut_word is not None:
        verdict = "refuted"
    elif estimate.value <= 0.5 - margin:
        verdict = "certified-at-scale"
    else:
        verdict = "inconclusive"
    return CertifyResult(
        verdict=verdict,
        estimate=estimate,
        margin=margin,
        margin_found=0.5 - estimate.value,
        refuting_witness=refut_word,
        tests_agree=agree,
        n_scored=scored,
        rates=None if refut_word is not None else _rates(table, kept),
    )


def anosov_rates(spec: RepSpec, radius: int, min_length: float = 0.5) -> RatesResult:
    """Per-element eigenvalue-gap rates over the seed translation length.

    Structured images have log eigenvalue moduli u/3 + t/2, -2u/3, and
    u/3 - t/2 (the shear data moves no eigenvalue), so the two gaps around
    the [e2] eigenvalue are 1/2 +- u(w)/t(w) per unit length.  These
    closed forms avoid the e^t determinant drift of accumulated matrix
    products, which is far above the 1e-12 scale the canonical family is
    checked at; the generic cubic path is cross-checked against them in
    the test suite.  Rates are signed: a negative bottom rate means the
    [e2] eigenvalue is no longer the middle one, which is exactly the
    refutation condition.
    """
    if spec.variant == "explicit":
        raise UnsupportedSpec("rates require a seed-aligned spec; use probe_explicit")
    table = BallTable.build(spec.seed, radius)
    return _rates(table, _scan(table, _u_class(spec), radius, min_length)[4])


@dataclass(frozen=True)
class ProbeResult:
    loxodromy_rate: float
    inf_top_gap: float
    inf_bottom_gap: float
    n_scored: int


def probe_explicit(
    spec: RepSpec,
    radius: int,
    min_length: float = 0.5,
) -> ProbeResult:
    """Verdict-free spectral probe for explicit specs: loxodromy rate and
    eigenvalue-gap infima over the scored ball.  Raises InsufficientSamples
    when no scored word is loxodromic, since the infima are then empty."""
    table = BallTable.build(spec.seed, radius)
    img_levels = table.images3(spec.letter_images())
    n_scored = 0
    n_lox = 0
    inf_top, inf_bot = math.inf, math.inf
    for level, idx, t in table.scored(min_length):
        lox, vals = batch_loxodromic(img_levels[level - 1][idx])
        n_scored += len(idx)
        n_lox += int(lox.sum())
        if lox.any():
            a = np.abs(vals[lox])
            inf_top = min(inf_top, float((np.log(a[:, 0] / a[:, 1]) / t[lox]).min()))
            inf_bot = min(inf_bot, float((np.log(a[:, 1] / a[:, 2]) / t[lox]).min()))
    if not n_lox:
        raise InsufficientSamples(f"no loxodromic element among {n_scored} scored words")
    return ProbeResult(n_lox / n_scored, inf_top, inf_bot, n_scored)
