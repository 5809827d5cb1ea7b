import math
import re

import numpy as np
import pytest

from flagcurve import (
    CohomologyClass,
    RepSpec,
    Word,
    anosov_rates,
    certify_anosov,
    check_incidence,
    coboundary_radial,
    evaluate,
    injectivity_report,
    probe_explicit,
    regularity_diagnostics,
    sample_limit_curve,
    stable_norm,
    translation_length,
)
from flagcurve.ball import BallTable
from flagcurve.curve import CurveModel, equivariance_report
from flagcurve.errors import InsufficientSamples, NotHyperbolic, UnsupportedSpec
from flagcurve.projective import proj_dist
from flagcurve.spectral import attractive_flag
from flagcurve.surface import attractive_direction


@pytest.fixture(scope="module")
def model4(canonical2):
    return sample_limit_curve(canonical2, 4)


def test_canonical_model_on_invariant_line(model4):
    assert len(model4) >= 200
    assert np.abs(model4.points[:, 1]).max() <= 1e-9
    assert np.abs(model4.lines[:, 1]).max() <= 1e-9


def test_model_sorted_and_deduped(model4):
    gaps = np.diff(model4.params)
    assert (gaps >= model4.dedup_res - 1e-15).all()


def test_sample_invariants(seed2, canonical2, model4):
    for i in (0, len(model4) // 3, len(model4) - 1):
        s = model4.sample(i)
        w = Word.parse(s.source_word, 2)
        g = evaluate(canonical2, w)
        f = attractive_flag(g)
        assert proj_dist(f.point.rep, s.flag.point.rep) <= 1e-9
        assert proj_dist(f.line.rep, s.flag.line.rep) <= 1e-9
        m2 = seed2.image(w)
        assert s.param == pytest.approx(attractive_direction(m2), abs=1e-12)
        assert s.translation_length == pytest.approx(
            translation_length(m2), abs=1e-12
        )


def test_small_linear_deformation_keeps_curve(seed2):
    u = CohomologyClass.from_dict({"a1": 0.2, "b1": -0.1}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    model = sample_limit_curve(spec, 4)
    assert np.abs(model.points[:, 1]).max() <= 1e-9
    assert np.abs(model.lines[:, 1]).max() <= 1e-9


def test_radial_model_line_curve_exact(seed2, u_a1):
    rad = coboundary_radial(RepSpec("linear_u", seed2, u=u_a1), 0.2, -0.1)
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
        variant="doctored",
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
        variant="doctored",
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
    u = CohomologyClass.from_dict({"a1": 0.2}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    model = sample_limit_curve(spec, 4)
    rep = equivariance_report(model, spec)
    # mapped samples sit within a few local gaps of the nearest sample
    assert rep["relative_point_deviation"] <= 16.0


def test_insufficient_samples(canonical2):
    with pytest.raises(InsufficientSamples):
        sample_limit_curve(canonical2, 2, min_length=50.0)


def test_stable_norm_zero(seed2):
    est = stable_norm(CohomologyClass.zero(2), seed2, 3)
    assert est.value == 0.0


def test_stable_norm_generator(seed2, u_a1):
    t_a1 = translation_length(seed2.generators[0])
    est = stable_norm(u_a1, seed2, 4)
    assert est.value >= 0.3 / t_a1 - 1e-12
    assert est.value == pytest.approx(0.3 / t_a1, abs=1e-12)
    assert est.witness == "a1"
    values = [v for _, v in est.history]
    assert values == sorted(values)


def test_stable_norm_monotone_in_radius(seed2):
    u = CohomologyClass.from_dict({"a1": 0.4, "b2": 0.2}, 2)
    e3 = stable_norm(u, seed2, 3)
    e4 = stable_norm(u, seed2, 4)
    assert e4.value >= e3.value - 1e-15


def test_non_hyperbolic_seed_image_is_named(monkeypatch, seed2, u_a1):
    table = BallTable.build(seed2, 3)
    k = int(np.nonzero(table.cyclically_reduced(3))[0][100])
    c, s = math.cos(0.3), math.sin(0.3)
    table.mats2(3)[k] = [[c, -s], [s, c]]
    named = re.escape(repr(table.word_strings(3)[k]))
    spec = RepSpec("linear_u", seed2, u=u_a1)
    monkeypatch.setattr(BallTable, "build", staticmethod(lambda seed, radius: table))
    for run in (
        lambda: list(table.scored()),
        lambda: stable_norm(u_a1, seed2, 3),
        lambda: certify_anosov(spec, 3),
    ):
        with pytest.raises(NotHyperbolic, match=named):
            run()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trivial_seed_image_is_skipped(monkeypatch, seed2, u_a1, canonical2, sign):
    # From radius 4g on the ball holds the relator and its rotations, whose
    # seed images are +-I: they are the identity in the group, so scoring
    # drops them instead of raising.
    ref_model = sample_limit_curve(canonical2, 3)
    dropped = next(w for w in ref_model.words if w.count(".") == 2)
    plain = BallTable.build(seed2, 3)
    table = BallTable.build(seed2, 3)
    k = plain.word_strings(3).index(dropped)
    table.mats2(3)[k] = sign * np.eye(2)
    want = {level: idx for level, idx, _t in plain.scored()}
    want[3] = want[3][want[3] != k]
    got = {level: idx for level, idx, _t in table.scored()}
    assert got.keys() == want.keys()
    for level in want:
        assert np.array_equal(got[level], want[level])
    spec = RepSpec("linear_u", seed2, u=u_a1)
    ref_norm, ref = stable_norm(u_a1, seed2, 3), certify_anosov(spec, 3)
    monkeypatch.setattr(BallTable, "build", staticmethod(lambda seed, radius: table))
    assert stable_norm(u_a1, seed2, 3) == ref_norm
    res = certify_anosov(spec, 3)
    assert (res.verdict, res.tests_agree) == (ref.verdict, ref.tests_agree)
    assert res.n_scored == ref.n_scored - 1
    model = sample_limit_curve(canonical2, 3)
    assert model.words == tuple(w for w in ref_model.words if w != dropped)


@pytest.mark.parametrize("variant", ["linear_u", "radial"])
def test_certify_is_one_pass(monkeypatch, seed2, u_a1, variant):
    # certify_anosov derives the stable norm, the saddle check, the witness
    # and the rates from one scored pass of one ball; each agrees with the
    # function that computes it alone.
    spec = RepSpec("linear_u", seed2, u=u_a1)
    if variant == "radial":
        spec = coboundary_radial(spec, 0.2, -0.1)
    rates, norm = anosov_rates(spec, 4), stable_norm(spec.u, seed2, 4)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(BallTable, "build", staticmethod(counted("build", BallTable.build)))
    monkeypatch.setattr(BallTable, "scored", counted("scored", BallTable.scored))
    res = certify_anosov(spec, 4)
    assert calls == ["build", "scored"]
    assert res.estimate == norm
    assert (res.rates.inf_top_gap, res.rates.inf_bottom_gap, res.rates.n_elements) == (
        rates.inf_top_gap, rates.inf_bottom_gap, rates.n_elements)
    assert np.array_equal(res.rates.top_rates, rates.top_rates)
    assert np.array_equal(res.rates.bottom_rates, rates.bottom_rates)


def test_certify_canonical(canonical2):
    res = certify_anosov(canonical2, 4)
    assert res.verdict == "certified-at-scale"
    assert res.margin_found == pytest.approx(0.5, abs=1e-12)
    assert res.tests_agree


def test_certify_three_regimes(seed2):
    t_a1 = translation_length(seed2.generators[0])
    expected = {0.3: "certified-at-scale", 0.49: "inconclusive", 0.6: "refuted"}
    for r, verdict in expected.items():
        u = CohomologyClass.from_dict({"a1": r * t_a1}, 2)
        res = certify_anosov(RepSpec("linear_u", seed2, u=u), 4)
        assert res.verdict == verdict, (r, res.verdict)
        assert res.tests_agree
        if verdict == "refuted":
            assert res.refuting_witness == "a1"
            assert res.rates is None
        else:
            assert res.estimate.value == pytest.approx(r, abs=1e-12)


def test_certify_monotone_refutation(seed2):
    t_a1 = translation_length(seed2.generators[0])
    u = CohomologyClass.from_dict({"a1": 0.6 * t_a1}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    for radius in (3, 4, 5):
        assert certify_anosov(spec, radius).verdict == "refuted"


def test_certify_radial_matches_linear(seed2, u_a1):
    lin = RepSpec("linear_u", seed2, u=u_a1)
    rad = coboundary_radial(lin, 0.2, -0.1)
    a = certify_anosov(lin, 4)
    b = certify_anosov(rad, 4)
    assert a.verdict == b.verdict == "certified-at-scale"
    assert a.estimate.value == pytest.approx(b.estimate.value, abs=1e-12)


def test_certify_rejects_explicit(seed2, canonical2):
    spec = RepSpec("explicit", seed2,
                   matrices=tuple(canonical2.generator_images()))
    with pytest.raises(UnsupportedSpec):
        certify_anosov(spec, 3)
    probe = probe_explicit(spec, 3)
    assert probe.loxodromy_rate == 1.0
    assert probe.inf_top_gap == pytest.approx(0.5, abs=1e-9)


def test_rates_canonical_exact(canonical2):
    rates = anosov_rates(canonical2, 4)
    assert rates.inf_top_gap == 0.5
    assert rates.inf_bottom_gap == 0.5
    assert np.all(rates.top_rates == 0.5)


def test_rates_linear_u(seed2):
    u = CohomologyClass.from_dict({"a1": 0.4, "a2": -0.25}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    rates = anosov_rates(spec, 4)
    est = stable_norm(u, seed2, 4)
    assert rates.inf_top_gap >= 0.5 - est.value - 1e-6
    assert rates.inf_bottom_gap >= 0.5 - est.value - 1e-6


def test_rates_match_generic_eigensolver(monkeypatch, seed2):
    u = CohomologyClass.from_dict({"a1": 0.4}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    radius = 3
    table = BallTable.build(seed2, radius)
    monkeypatch.setattr(BallTable, "build", staticmethod(lambda seed, radius: table))
    rates = anosov_rates(spec, radius)
    # cross-check the closed-form rates against cubic eigenvalues of the
    # accumulated matrix products (accurate only up to e^t determinant drift)
    from flagcurve.spectral import batch_eigvals3

    imgs = table.images3(spec.letter_images())
    pos = 0
    for level, idx, t in table.scored(0.5):
        vals, real = batch_eigvals3(imgs[level - 1][idx])
        assert real.all()
        a = np.abs(vals)
        got_top = np.log(a[:, 0] / a[:, 1]) / t
        n = len(idx)
        ref = rates.top_rates[pos:pos + n]
        # signed closed form equals the generic sorted-modulus gap only
        # while the [e2] eigenvalue is the middle one (true here)
        assert np.abs(got_top - ref).max() <= 1e-8
        pos += n
    assert pos == rates.n_elements


def test_rates_negative_iff_refuted(seed2):
    t_a1 = translation_length(seed2.generators[0])
    u = CohomologyClass.from_dict({"a1": 0.6 * t_a1}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    rates = anosov_rates(spec, 4)
    assert rates.inf_bottom_gap < 0
    assert certify_anosov(spec, 4).verdict == "refuted"


def test_regularity_canonical(canonical2):
    model = sample_limit_curve(canonical2, 4)
    rep = regularity_diagnostics(model)
    assert abs(rep.holder_exponent_estimate - 1.0) <= 0.05
    assert rep.secant_slope_max <= 4.0


def test_regularity_radial(seed2, u_a1):
    rad = coboundary_radial(RepSpec("linear_u", seed2, u=u_a1), 0.2, -0.1)
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
        variant="synthetic",
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
        variant="canonical",
        dedup_res=model.dedup_res,
    )
    with pytest.raises(InsufficientSamples):
        regularity_diagnostics(small)


def test_csv_rows(model4):
    rows = list(model4.csv_rows())
    assert len(rows) == len(model4)
    assert len(rows[0]) == 9
