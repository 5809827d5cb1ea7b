import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagcurve import (
    anosov_rates,
    certify_anosov,
    check_incidence,
    coboundary_radial,
    generator_values,
    injectivity_report,
    probe_explicit,
    regularity_diagnostics,
    reps,
    sample_limit_curve,
)
from flagcurve.ball import BallTable
from flagcurve.curve import CurveModel, greedy_thin
from flagcurve.errors import InsufficientSamples, NotHyperbolic, UnsupportedSpec
from flagcurve.spectral import batch_attracting_flags
from flagcurve.surface import batch_attractive_directions, batch_translation_lengths

from oracles import Word, equivariance_report, evaluate, proj_dist, seed_image


def _stable_norm(u, seed, radius):
    """The stable-norm estimate of ``certify_anosov`` on the linear_u spec
    of ``u``."""
    return certify_anosov(reps.linear_u(seed, u=u), radius).stable_norm_estimate


def _t_a1(seed) -> float:
    """Translation length of the generator a1 of a seed."""
    return float(batch_translation_lengths(seed.generators[0][None])[1][0])


@pytest.fixture(scope="module")
def model4(canonical2):
    return sample_limit_curve(canonical2, 4)


def test_canonical_model_on_invariant_line(model4):
    assert len(model4) >= 200
    assert np.abs(model4.points[:, 1]).max() <= 1e-9
    assert np.abs(model4.lines[:, 1]).max() <= 1e-9


def _thin_loop(x, spacing):
    """The per-element greedy loop that ``greedy_thin`` replaces."""
    keep = [0]
    for i in range(1, len(x)):
        if x[i] - x[keep[-1]] >= spacing:
            keep.append(i)
    return keep


@st.composite
def _thin_inputs(draw):
    """(spacing, ascending x): whole steps of the spacing put gaps at
    exactly the spacing and repeat values, the other steps land near it
    on either side, and a base far below the spacing makes differences
    round."""
    spacing = draw(st.sampled_from([2.0 ** -3, 0.1, 1e-3, 1e-7]))
    base = draw(st.one_of(st.floats(-4.0, 4.0), st.floats(-1e-6, 1e-6)))
    steps = draw(st.lists(st.one_of(st.integers(0, 3), st.floats(0.0, 3.0),
                                    st.sampled_from([1.0 - 1e-16, 1.0 + 2e-16])),
                          min_size=1, max_size=60))
    return spacing, np.sort(base + np.array(steps, dtype=float) * spacing)


@st.composite
def _thin_runs(draw):
    """(spacing, ascending x) of one shape of runs: none longer than two
    (gaps alternate between two to four spacings and less than one, zero
    among them), or one long run (every gap below the spacing)."""
    spacing = draw(st.sampled_from([2.0 ** -3, 1e-3, 1e-7]))
    small = st.one_of(st.just(0.0), st.floats(0.0, 0.99))
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.floats(2.0, 4.0), small), min_size=1, max_size=30))
        steps = [s for pair in pairs for s in pair]
    else:
        steps = draw(st.lists(small, min_size=3, max_size=60))
    return spacing, np.cumsum(np.array(steps, dtype=float) * spacing)


@settings(max_examples=400, deadline=None)
@given(case=st.one_of(_thin_inputs(), _thin_runs()))
@example(case=(0.125, np.array([0, 0, 1, 1, 1, 2, 2.5, 3, 3, 3]) * 0.125))
# x[2] - x[0] rounds up to the spacing although x[2] < fl(x[0] + spacing).
@example(case=(1e-7, np.array([-4.3357229086071404e-08, 0.0, 5.6642770913928584e-08,
                               5.664277091392859e-08])))
# Mostly runs of two (a pair closer than the spacing), as in the curve
# sampler's dedup, with a run of three and one of a single entry.
@example(case=(0.125, np.array([0, 0.1, 0.3, 0.3, 0.5, 0.62, 0.8, 0.9, 0.95, 1.1, 1.3,
                                1.42499, 1.6, 1.7])))
def test_greedy_thin_matches_loop(case):
    spacing, x = case
    assert greedy_thin(x, spacing).tolist() == _thin_loop(x, spacing)


@pytest.mark.parametrize("columns", [(), ("points",), ("points", "lines"), ("words", "tlens")])
def test_columns_not_named_are_none(canonical2, model4, columns):
    model = sample_limit_curve(canonical2, 4, columns=columns)
    assert model.params.tobytes() == model4.params.tobytes()
    for name in ("points", "lines", "tlens"):
        col = getattr(model, name)
        if name in columns:
            assert col.tobytes() == getattr(model4, name).tobytes()
        else:
            assert col is None
    if "words" in columns:
        assert list(model.words) == list(model4.words)
    else:
        assert model.words is None
    with pytest.raises(ValueError, match="unknown curve columns"):
        sample_limit_curve(canonical2, 4, columns=("points", "levels"))


def test_model_sorted_and_deduped(model4):
    gaps = np.diff(model4.params)
    assert (gaps >= model4.dedup_res - 1e-15).all()


def test_sample_invariants(seed2, canonical2, model4):
    for i in (0, len(model4) // 3, len(model4) - 1):
        w = Word.parse(model4.words[i], 2)
        _, (p,), (l,) = batch_attracting_flags(evaluate(canonical2, w)[None])
        assert proj_dist(p, model4.points[i]) <= 1e-9
        assert proj_dist(l, model4.lines[i]) <= 1e-9
        m2 = seed_image(seed2, w)[None]
        assert model4.params[i] == pytest.approx(batch_attractive_directions(m2)[0],
                                                 abs=1e-12)
        assert model4.tlens[i] == pytest.approx(batch_translation_lengths(m2)[1][0],
                                                abs=1e-12)


def test_small_linear_deformation_keeps_curve(seed2):
    u = generator_values({"a1": 0.2, "b1": -0.1}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    model = sample_limit_curve(spec, 4)
    assert np.abs(model.points[:, 1]).max() <= 1e-9
    assert np.abs(model.lines[:, 1]).max() <= 1e-9


def test_radial_model_line_curve_exact(seed2, u_a1):
    rad = coboundary_radial(reps.linear_u(seed2, u=u_a1), 0.2, -0.1)
    model = sample_limit_curve(rad, 4)
    assert np.abs(model.lines[:, 1]).max() <= 1e-9
    # points lie on the sheared plane z = m1 x + m2 y, not on z = 0
    z_residual = model.points[:, 1] - (0.2 * model.points[:, 0]
                                       - 0.1 * model.points[:, 2])
    assert np.abs(z_residual).max() <= 1e-9
    assert np.abs(model.points[:, 1]).max() > 1e-3


def test_injectivity(model4):
    rep = injectivity_report(model4)
    assert rep.violations == 0
    assert rep.min_point_separation > 1e-9
    assert rep.min_line_separation > 1e-9


def test_incidence_all_ones(model4):
    rep = check_incidence(model4)
    assert rep.passed
    assert set(rep.histogram) == {1}
    assert rep.nontransversal == 0
    assert (rep.worst_count, rep.worst_word) == (1, "")


def test_incidence_names_nontransversal_witness(model4):
    # every checked line is the zero covector: no transversal line at all
    doctored = CurveModel(
        params=model4.params,
        points=model4.points,
        lines=np.zeros_like(model4.lines),
        words=model4.words,
        tlens=model4.tlens,
        dedup_res=model4.dedup_res,
    )
    rep = check_incidence(doctored, max_lines=100)
    assert not rep.passed
    assert rep.histogram == {}
    assert rep.nontransversal == 100
    assert (rep.worst_count, rep.worst_word) == (0, model4.words[0])


def test_incidence_flags_doctored_model(model4):
    points = model4.points.copy()
    n = len(points)
    # plant a far-away duplicate point, breaking injectivity and incidence
    points[n // 2] = points[n // 4]
    doctored = CurveModel(
        params=model4.params,
        points=points,
        lines=model4.lines.copy(),
        words=model4.words,
        tlens=model4.tlens,
        dedup_res=model4.dedup_res,
    )
    rep = check_incidence(doctored)
    assert not rep.passed
    assert any(k != 1 for k in rep.histogram)
    inj = injectivity_report(doctored)
    assert inj.violations >= 1


def test_product_structure(model4):
    # Transversality: each sampled line crosses the point curve exactly
    # once, transversally (at its own sample), so it misses the rest of
    # the curve; and each sample's point lies on its own line.
    rep = check_incidence(model4, ztol=1e-10, max_lines=None)
    assert rep.passed
    assert rep.histogram == {1: len(model4)}
    same = np.abs(np.einsum("ij,ij->i", model4.points, model4.lines))
    assert same.max() <= 1e-10


def test_equivariance_canonical(model4, canonical2):
    rep = equivariance_report(model4, canonical2)
    assert rep["exact_point_residual"] <= 1e-9
    assert rep["exact_line_residual"] <= 1e-9


def test_equivariance_sampled_branch(seed2):
    u = generator_values({"a1": 0.2}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    model = sample_limit_curve(spec, 4)
    rep = equivariance_report(model, spec)
    # mapped samples sit within a few local gaps of the nearest sample
    assert rep["relative_point_deviation"] <= 16.0


def test_insufficient_samples(canonical2):
    with pytest.raises(InsufficientSamples):
        sample_limit_curve(canonical2, 2, min_length=50.0)


def test_stable_norm_zero(seed2):
    est = _stable_norm((0.0,) * 4, seed2, 3)
    assert est.value == 0.0


def test_stable_norm_generator(seed2, u_a1):
    t_a1 = _t_a1(seed2)
    est = _stable_norm(u_a1, seed2, 4)
    assert est.value >= 0.3 / t_a1 - 1e-12
    assert est.value == pytest.approx(0.3 / t_a1, abs=1e-12)
    assert est.witness == "a1"
    values = [v for _, v in est.history]
    assert values == sorted(values)


def test_stable_norm_monotone_in_radius(seed2):
    u = generator_values({"a1": 0.4, "b2": 0.2}, "u", 2)
    e3 = _stable_norm(u, seed2, 3)
    e4 = _stable_norm(u, seed2, 4)
    assert e4.value >= e3.value - 1e-15


def _patch_seed_images(monkeypatch, level: int, ks, mat) -> None:
    """Make every ball give the words ``ks`` of a level the seed image
    ``mat``, by wrapping the kernel that derives seed images block by
    block."""
    kernel = BallTable.seed_images

    def seed_images(self, lv, rows, below):
        mats = kernel(self, lv, rows, below)
        if lv == level:
            mats[np.isin(rows, ks)] = mat
        return mats

    monkeypatch.setattr(BallTable, "seed_images", seed_images)


def _level_words(table: BallTable, level: int) -> list:
    """Display strings of every word of a level, in order."""
    n = len(table.letters(level))
    return [s.decode() for s in table.word_strings(np.full(n, level), np.arange(n)).tolist()]


def _rotations(table: BallTable, level: int, k: int) -> list:
    """Indices in a level of the rotations of its word k, least first."""
    strs = _level_words(table, level)
    names = strs[k].split(".")
    return sorted({strs.index(".".join(names[s:] + names[:s])) for s in range(level)})


def _level_scores(table: BallTable, classes: bool) -> dict:
    """level -> (scored indices, the words each stands for) of one scored
    pass; a per-word pass's words stand for themselves."""
    out = {}
    for level, idx, weight, *_ in table.scored(classes=classes):
        prev = out.get(level, (np.empty(0, int), np.empty(0, int)))
        out[level] = (np.concatenate([prev[0], idx]), np.concatenate([prev[1], weight]))
    return out


def test_non_hyperbolic_seed_image_is_named(monkeypatch, seed2, u_a1):
    # Hyperbolicity is a conjugacy invariant, so a bad seed image spoils a
    # whole rotation class, or, read one class at a time, the class's least
    # word.  Either way every pass names the shortlex-first bad word: the
    # per-word pass of the curve sampler and the class pass of certify.
    table = BallTable.build(seed2, 3)
    top = np.concatenate([idx for level, idx, *_ in table.scored() if level == 3])
    # The rotation class of the first scored word past the 100th whose
    # class has three words.
    ks = next(r for r in (_rotations(table, 3, int(k)) for k in top[100:]) if len(r) == 3)
    c, s = math.cos(0.3), math.sin(0.3)
    named = re.escape(repr(table.word(3, ks[0])))
    spec = reps.linear_u(seed2, u=u_a1)
    for patched in (ks, ks[:1]):
        with monkeypatch.context() as m:
            _patch_seed_images(m, 3, patched, [[c, -s], [s, c]])
            for run in (
                lambda: list(table.scored()),
                lambda: list(table.scored(classes=True)),
                lambda: certify_anosov(spec, 3),
            ):
                with pytest.raises(NotHyperbolic, match=named):
                    run()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trivial_seed_image_is_skipped(monkeypatch, seed2, u_a1, canonical2, sign):
    # From radius 4g on the ball holds the relator and its rotations, whose
    # seed images are +-I: they are the identity in the group, so scoring
    # drops them instead of raising.  A top-level class's least word stands
    # for its class in certify, so certify drops the whole class whether
    # the class or only that word reads +-I; the curve sampler reads every
    # word and drops just the patched ones.
    ref_model = sample_limit_curve(canonical2, 3)
    dropped = next(w for w in ref_model.words if w.count(".") == 2)
    table = BallTable.build(seed2, 3)
    ks = _rotations(table, 3, _level_words(table, 3).index(dropped))
    assert len(ks) == 3
    want_words, want_classes = _level_scores(table, False), _level_scores(table, True)
    assert ks[0] in want_classes[3][0]
    spec = reps.linear_u(seed2, u=u_a1)
    ref = certify_anosov(spec, 3)
    for patched in (ks, ks[:1]):
        with monkeypatch.context() as m:
            _patch_seed_images(m, 3, patched, sign * np.eye(2))
            for classes, want, gone in ((False, want_words, patched),
                                        (True, want_classes, ks[:1])):
                got = _level_scores(table, classes)
                assert got.keys() == want.keys()
                for level in want:
                    keep = ~np.isin(want[level][0], gone) if level == 3 else slice(None)
                    assert np.array_equal(got[level][0], want[level][0][keep])
                    assert np.array_equal(got[level][1], want[level][1][keep])
            res = certify_anosov(spec, 3)
            assert res.stable_norm_estimate == ref.stable_norm_estimate
            assert (res.verdict, res.saddle_ratio_tests_agree) == \
                (ref.verdict, ref.saddle_ratio_tests_agree)
            assert res.n_scored == ref.n_scored - len(ks)
            assert res.rates.n_elements == ref.rates.n_elements - len(ks)
            model = sample_limit_curve(canonical2, 3)
            names = {table.word(3, i) for i in patched}
            assert tuple(model.words) == tuple(w for w in ref_model.words if w not in names)


@pytest.mark.parametrize("variant", ["linear_u", "radial"])
def test_certify_is_one_pass(monkeypatch, seed2, u_a1, variant):
    # certify_anosov derives the stable norm, the saddle check, the witness
    # and the rates from one scored pass of one ball; the rates agree with
    # anosov_rates, and the estimate depends on u alone.
    spec = reps.linear_u(seed2, u=u_a1)
    if variant == "radial":
        spec = coboundary_radial(spec, 0.2, -0.1)
    rates, norm = anosov_rates(spec, 4), _stable_norm(spec.u, seed2, 4)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BallTable, "build", staticmethod(counted("build", BallTable.build)))
    monkeypatch.setattr(BallTable, "scored", counted("scored", BallTable.scored))
    res = certify_anosov(spec, 4)
    assert calls == ["build", "scored"]
    assert res.stable_norm_estimate == norm
    assert res.rates == rates


def test_certify_canonical(canonical2):
    res = certify_anosov(canonical2, 4)
    assert res.verdict == "certified-at-scale"
    assert res.margin_found == pytest.approx(0.5, abs=1e-12)
    assert res.saddle_ratio_tests_agree


def test_certify_three_regimes(seed2):
    t_a1 = _t_a1(seed2)
    expected = {0.3: "certified-at-scale", 0.49: "inconclusive", 0.6: "refuted"}
    for r, verdict in expected.items():
        u = generator_values({"a1": r * t_a1}, "u", 2)
        res = certify_anosov(reps.linear_u(seed2, u=u), 4)
        assert res.verdict == verdict, (r, res.verdict)
        assert res.saddle_ratio_tests_agree
        if verdict == "refuted":
            assert res.refuting_witness == "a1"
            assert res.rates is None
        else:
            assert res.stable_norm_estimate.value == pytest.approx(r, abs=1e-12)


def test_certify_monotone_refutation(seed2):
    t_a1 = _t_a1(seed2)
    u = generator_values({"a1": 0.6 * t_a1}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    for radius in (3, 4, 5):
        assert certify_anosov(spec, radius).verdict == "refuted"


def test_certify_radial_matches_linear(seed2, u_a1):
    lin = reps.linear_u(seed2, u=u_a1)
    rad = coboundary_radial(lin, 0.2, -0.1)
    a = certify_anosov(lin, 4)
    b = certify_anosov(rad, 4)
    assert a.verdict == b.verdict == "certified-at-scale"
    assert a.stable_norm_estimate.value == \
        pytest.approx(b.stable_norm_estimate.value, abs=1e-12)


def test_certify_rejects_explicit(seed2, canonical2):
    spec = reps.explicit(seed2, matrices=tuple(canonical2.generator_images()))
    with pytest.raises(UnsupportedSpec):
        certify_anosov(spec, 3)
    probe = probe_explicit(spec, 3)
    assert probe.loxodromy_rate == 1.0
    assert probe.inf_top_gap == pytest.approx(0.5, abs=1e-9)


def test_rates_canonical_exact(canonical2):
    rates = anosov_rates(canonical2, 4)
    # min(0.5 + r) == min(0.5 - r) == 0.5: every rate is 0.5
    assert rates.inf_top_gap == 0.5
    assert rates.inf_bottom_gap == 0.5


def test_rates_linear_u(seed2):
    u = generator_values({"a1": 0.4, "a2": -0.25}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    rates = anosov_rates(spec, 4)
    est = _stable_norm(u, seed2, 4)
    assert rates.inf_top_gap >= 0.5 - est.value - 1e-6
    assert rates.inf_bottom_gap >= 0.5 - est.value - 1e-6


def test_rates_match_generic_eigensolver(monkeypatch, seed2):
    u = generator_values({"a1": 0.4}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    radius = 3
    table = BallTable.build(seed2, radius)
    monkeypatch.setattr(BallTable, "build", staticmethod(lambda seed, radius: table))
    rates = anosov_rates(spec, radius)
    # cross-check the closed-form rates against cubic eigenvalues of the
    # accumulated matrix products (accurate only up to e^t determinant drift)
    from flagcurve.spectral import batch_eigvals3

    # The rates read the top level one rotation class at a time, each
    # class's least word standing for its class.
    pos, inf_top = 0, np.inf
    for _level, _idx, weight, t, _mats, exps, imgs in table.scored(
            0.5, table.exponent_sums, partial(table.images3, spec.letters),
            classes=True):
        vals, real = batch_eigvals3(imgs)
        assert real.all()
        a = np.abs(vals)
        got_top = np.log(a[:, 0] / a[:, 1]) / t
        ref = 0.5 + (exps @ np.array(u)) / t
        # signed closed form equals the generic sorted-modulus gap only
        # while the [e2] eigenvalue is the middle one (true here)
        assert np.abs(got_top - ref).max() <= 1e-8
        inf_top = min(inf_top, ref.min())
        pos += int(weight.sum())
    assert pos == rates.n_elements
    assert rates.inf_top_gap == inf_top


def test_rates_negative_iff_refuted(seed2):
    t_a1 = _t_a1(seed2)
    u = generator_values({"a1": 0.6 * t_a1}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    rates = anosov_rates(spec, 4)
    assert rates.inf_bottom_gap < 0
    assert certify_anosov(spec, 4).verdict == "refuted"


def test_regularity_canonical(canonical2):
    model = sample_limit_curve(canonical2, 4)
    rep = regularity_diagnostics(model)
    assert abs(rep.holder_exponent_estimate - 1.0) <= 0.05
    assert rep.secant_slope_max <= 4.0


def test_regularity_radial(seed2, u_a1):
    rad = coboundary_radial(reps.linear_u(seed2, u=u_a1), 0.2, -0.1)
    rep = regularity_diagnostics(sample_limit_curve(rad, 4))
    assert abs(rep.holder_exponent_estimate - 1.0) <= 0.05


def test_regularity_detects_cusp():
    # synthetic square-root cusp at angle 0, sampled at geometrically
    # accumulating params so consecutive pairs probe the cusp at all scales
    t = 0.25 * 1.05 ** (-np.arange(280.0))
    t = np.sort(t)
    z = np.sqrt(t)
    pts = np.stack([np.cos(t), z, np.sin(t)], axis=1)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    model = CurveModel(
        params=t,
        points=pts,
        lines=pts,
        words=("w",) * len(t),
        tlens=np.ones(len(t)),
        dedup_res=1e-9,
    )
    rep = regularity_diagnostics(model)
    assert abs(rep.holder_exponent_estimate - 0.5) <= 0.1


def test_regularity_needs_samples(canonical2):
    model = sample_limit_curve(canonical2, 3)
    small = CurveModel(
        params=model.params[:100],
        points=model.points[:100],
        lines=model.lines[:100],
        words=model.words[:100],
        tlens=model.tlens[:100],
        dedup_res=model.dedup_res,
    )
    with pytest.raises(InsufficientSamples):
        regularity_diagnostics(small)
