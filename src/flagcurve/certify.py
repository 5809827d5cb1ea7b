"""Finite-scale spectral certificates.

The per-element criterion compares |u(w)| against half the translation
length t(w); its supremum over the group is the dual stable norm of u, so
a ball maximum is a certified lower bound.  The independent cross-check
classifies the fixed point [e2] of the 3x3 image as a saddle via the
eigenvalue moduli (``spectral.batch_saddle_at_e2``); both tests must agree
element by element.

Every function here scores the words of ``BallTable.scored``: the
cyclically reduced ball words that are nontrivial in the group, whose seed
images must be hyperbolic.
Witnesses are named through ``BallTable.word``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import BallTable
from .errors import FlagCurveError, NonLoxodromicEncountered, UnsupportedSpec
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


def stable_norm(
    u: CohomologyClass,
    seed: FuchsianSeed,
    radius: int,
    table: BallTable | None = None,
) -> StableNormEstimate:
    """Max of |u(w)| / t(w) over the scored (cyclically reduced) ball words.

    A lower bound for the dual stable norm of u, nondecreasing in radius.
    """
    if radius < 2:
        raise ValueError("radius must be >= 2")
    if table is None:
        table = BallTable.build(seed, radius)
    uvec = u.as_vector()
    best, best_word = 0.0, ""
    history = []
    for level, idx, t in table.scored():
        if level > radius:
            break
        vals = np.abs(table.expsums(level)[idx] @ uvec) / t
        j = int(np.argmax(vals))
        if vals[j] > best * (1.0 + 1e-12) + 1e-300:
            best = float(vals[j])
            best_word = table.word(level, int(idx[j]))
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


def _u_class(spec: RepSpec) -> CohomologyClass:
    return spec.u if spec.u is not None else CohomologyClass.zero(spec.genus)


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
    u = _u_class(spec)
    estimate = stable_norm(u, spec.seed, radius, table)
    uvec = u.as_vector()
    img_levels = table.images3(spec.letter_images())
    refut_word = None
    agree = True
    scored = 0
    for level, idx, t in table.scored():
        ratio_pass = np.abs(table.expsums(level)[idx] @ uvec) / t < 0.5
        saddle_pass = batch_saddle_at_e2(img_levels[level - 1][idx])
        agree &= bool(np.array_equal(ratio_pass, saddle_pass))
        scored += len(idx)
        if refut_word is None and not ratio_pass.all():
            refut_word = table.word(level, int(idx[np.argmin(ratio_pass)]))
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
        radius=radius,
    )


@dataclass(frozen=True)
class RatesResult:
    inf_top_gap: float  # inf over elements of log(|l_top| / |l_fixed|) / t
    inf_bottom_gap: float  # inf of log(|l_fixed| / |l_bot|) / t
    n_elements: int
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
    uvec = _u_class(spec).as_vector()
    top, bot = [], []
    for level, idx, t in table.scored(min_length):
        uvals = table.expsums(level)[idx] @ uvec
        degenerate = np.abs(np.abs(uvals) / t - 0.5) <= GAP_TOL
        if degenerate.any():
            raise NonLoxodromicEncountered(table.word(level, int(idx[np.argmax(degenerate)])))
        top.append(0.5 + uvals / t)
        bot.append(0.5 - uvals / t)
    if not top:
        raise FlagCurveError("no elements pass the length filter")
    top = np.concatenate(top)
    bot = np.concatenate(bot)
    return RatesResult(
        inf_top_gap=float(top.min()),
        inf_bottom_gap=float(bot.min()),
        n_elements=len(top),
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
    for level, idx, t in table.scored(min_length):
        lox, vals = batch_loxodromic(img_levels[level - 1][idx])
        n_scored += len(idx)
        n_lox += int(lox.sum())
        if lox.any():
            a = np.abs(vals[lox])
            inf_top = min(inf_top, float((np.log(a[:, 0] / a[:, 1]) / t[lox]).min()))
            inf_bot = min(inf_bot, float((np.log(a[:, 1] / a[:, 2]) / t[lox]).min()))
    rate = n_lox / n_scored if n_scored else 0.0
    return ProbeResult(rate, inf_top, inf_bot, n_scored)
