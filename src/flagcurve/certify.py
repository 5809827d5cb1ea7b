"""Finite-scale spectral certificates.

The per-element criterion compares |u(w)| against half the translation
length t(w); its supremum over the group is the dual stable norm of u, so
a ball maximum is a certified lower bound.  The independent cross-check
classifies the fixed point [e2] of the 3x3 image as a saddle via the
eigenvalue moduli; both tests must agree element by element.

Only cyclically reduced words are scored: every quantity involved is a
conjugacy invariant, so conjugates add work but no information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import BallTable
from .errors import FlagCurveError, NonLoxodromicEncountered, UnsupportedSpec
from .reps import RepSpec
from .spectral import GAP_TOL, batch_eigvals3, batch_modulus_gaps
from .surface import CohomologyClass, FuchsianSeed, batch_translation_lengths

DEFAULT_MARGIN = 0.02


@dataclass(frozen=True)
class StableNormEstimate:
    value: float
    witness: str
    ball_radius: int
    history: tuple  # (radius, running max) pairs


def stable_norm(
    u: CohomologyClass,
    seed: FuchsianSeed,
    radius: int,
    table: BallTable | None = None,
) -> StableNormEstimate:
    """Max of |u(w)| / t(w) over cyclically reduced hyperbolic ball words.

    A lower bound for the dual stable norm of u, nondecreasing in radius.
    """
    if radius < 2:
        raise ValueError("radius must be >= 2")
    if table is None:
        table = BallTable.build(seed, radius)
    uvec = u.as_vector()
    best, best_word = 0.0, ""
    history = []
    for level in range(1, radius + 1):
        hyp, t = batch_translation_lengths(table.mats2(level))
        sel = table.cyclically_reduced(level) & hyp
        idx = np.nonzero(sel)[0]
        if len(idx):
            vals = np.abs(table.expsums(level)[idx] @ uvec) / t[idx]
            j = int(np.argmax(vals))
            if vals[j] > best * (1.0 + 1e-12) + 1e-300:
                best = float(vals[j])
                best_word = table.word_strings(level)[idx[j]]
        history.append((level, best))
    return StableNormEstimate(best, best_word, radius, tuple(history))


@dataclass(frozen=True)
class CertifyResult:
    verdict: str  # "certified-at-scale" | "refuted" | "inconclusive"
    estimate: StableNormEstimate
    margin: float  # required margin epsilon
    margin_found: float  # 1/2 minus the ball estimate
    refuting_witness: str | None
    tests_agree: bool
    n_scored: int
    radius: int


def _scored_levels(spec: RepSpec, table: BallTable, with_images: bool = True):
    """Per level: (indices, t, u values, 3x3 images) of scored elements."""
    if spec.u is None:
        uvec = np.zeros(2 * spec.genus)
    else:
        uvec = spec.u.as_vector()
    img_levels = table.images3(spec.letter_images()) if with_images else None
    for level in range(1, table.radius + 1):
        hyp, t = batch_translation_lengths(table.mats2(level))
        sel = table.cyclically_reduced(level)
        idx = np.nonzero(sel)[0]
        if not len(idx):
            continue
        bad = ~hyp[idx]
        if bad.any():
            w = table.word_strings(level)[idx[int(np.argmax(bad))]]
            raise FlagCurveError(f"seed image of {w!r} is not hyperbolic")
        imgs = img_levels[level - 1][idx] if with_images else None
        yield level, idx, t[idx], table.expsums(level)[idx] @ uvec, imgs


def _saddle_mask(imgs: np.ndarray) -> np.ndarray:
    """Vectorized middle-modulus test for the eigenvalue at [e2].

    Assumes the stack fixes [e2] (middle column proportional to e2), which
    holds for canonical, linear_u, and radial images.
    """
    mid = imgs[:, 1, 1]
    vals, real = batch_eigvals3(imgs)
    out = np.zeros(len(imgs), dtype=bool)
    if real.any():
        v = vals[real]
        closest = np.argmin(np.abs(v - mid[real, None]), axis=1)
        g12, g23 = batch_modulus_gaps(v)
        out[real] = (closest == 1) & (g12 > GAP_TOL) & (g23 > GAP_TOL)
    return out


def certify_anosov(
    spec: RepSpec,
    radius: int,
    margin: float = DEFAULT_MARGIN,
    table: BallTable | None = None,
) -> CertifyResult:
    """Three-way verdict on the Anosov criterion at ball scale.

    Refuted when some scored element has |u(w)| >= t(w)/2 (with the
    element as witness); certified-at-scale when every element passes with
    margin and the stable-norm estimate is at most 1/2 - margin;
    inconclusive otherwise.  Explicit specs are not certifiable this way;
    see probe_explicit.
    """
    if spec.variant == "explicit":
        raise UnsupportedSpec("explicit specs are probe-only; use probe_explicit")
    if spec.variant not in ("canonical", "linear_u", "radial"):
        raise UnsupportedSpec(spec.variant)
    if table is None:
        table = BallTable.build(spec.seed, radius)
    best, best_word = 0.0, ""
    refut_word = None
    agree = True
    scored = 0
    history = []
    for level, idx, t, uvals, imgs in _scored_levels(spec, table):
        ratios = np.abs(uvals) / t
        ratio_pass = ratios < 0.5
        saddle_pass = _saddle_mask(imgs)
        if not np.array_equal(ratio_pass, saddle_pass):
            agree = False
        scored += len(idx)
        j = int(np.argmax(ratios))
        if ratios[j] > best * (1.0 + 1e-12) + 1e-300:
            best = float(ratios[j])
            best_word = table.word_strings(level)[idx[j]]
        if refut_word is None and not ratio_pass.all():
            k = int(np.argmin(ratio_pass))
            refut_word = table.word_strings(level)[idx[k]]
        history.append((level, best))
    estimate = StableNormEstimate(best, best_word, radius, tuple(history))
    if refut_word is not None:
        verdict = "refuted"
    elif best <= 0.5 - margin:
        verdict = "certified-at-scale"
    else:
        verdict = "inconclusive"
    return CertifyResult(
        verdict=verdict,
        estimate=estimate,
        margin=margin,
        margin_found=0.5 - best,
        refuting_witness=refut_word,
        tests_agree=agree,
        n_scored=scored,
        radius=radius,
    )


@dataclass(frozen=True)
class RatesResult:
    inf_top_gap: float  # inf over elements of log(|l_top| / |l_fixed|) / t
    inf_bottom_gap: float  # inf of log(|l_fixed| / |l_bot|) / t
    words: tuple
    tlens: np.ndarray
    top_rates: np.ndarray
    bottom_rates: np.ndarray


def anosov_rates(
    spec: RepSpec,
    radius: int,
    min_length: float = 0.5,
    table: BallTable | None = None,
) -> RatesResult:
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
    if table is None:
        table = BallTable.build(spec.seed, radius)
    words, tl, top, bot = [], [], [], []
    for level, idx, t, uvals, _imgs in _scored_levels(spec, table, with_images=False):
        keep = t >= min_length
        if not keep.any():
            continue
        idx, t, uvals = idx[keep], t[keep], uvals[keep]
        degenerate = np.abs(np.abs(uvals) / t - 0.5) <= GAP_TOL
        if degenerate.any():
            k = int(np.argmax(degenerate))
            raise NonLoxodromicEncountered(table.word_strings(level)[idx[k]])
        top.append(0.5 + uvals / t)
        bot.append(0.5 - uvals / t)
        tl.append(t)
        strs = table.word_strings(level)
        words.extend(strs[i] for i in idx)
    if not words:
        raise FlagCurveError("no elements pass the length filter")
    top = np.concatenate(top)
    bot = np.concatenate(bot)
    return RatesResult(
        inf_top_gap=float(top.min()),
        inf_bottom_gap=float(bot.min()),
        words=tuple(words),
        tlens=np.concatenate(tl),
        top_rates=top,
        bottom_rates=bot,
    )


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
    eigenvalue-gap infima over the scored ball."""
    table = BallTable.build(spec.seed, radius)
    img_levels = table.images3(spec.letter_images())
    n_scored = 0
    n_lox = 0
    inf_top, inf_bot = math.inf, math.inf
    for level in range(1, radius + 1):
        hyp, t = batch_translation_lengths(table.mats2(level))
        sel = table.cyclically_reduced(level) & hyp & (t >= min_length)
        idx = np.nonzero(sel)[0]
        if not len(idx):
            continue
        imgs = img_levels[level - 1][idx]
        vals, real = batch_eigvals3(imgs)
        g12, g23 = batch_modulus_gaps(vals)
        with np.errstate(invalid="ignore"):
            lox = real & (g12 > GAP_TOL) & (g23 > GAP_TOL)
        n_scored += len(idx)
        n_lox += int(lox.sum())
        if lox.any():
            a = np.abs(vals[lox])
            tt = t[idx][lox]
            inf_top = min(inf_top, float((np.log(a[:, 0] / a[:, 1]) / tt).min()))
            inf_bot = min(inf_bot, float((np.log(a[:, 1] / a[:, 2]) / tt).min()))
    rate = n_lox / n_scored if n_scored else 0.0
    return ProbeResult(rate, inf_top, inf_bot, n_scored)
