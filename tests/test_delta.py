import dataclasses
import math

import numpy as np
import pytest

from flagcurve import (
    CohomologyClass,
    RepSpec,
    coboundary_radial,
    fit_delta,
    pushforward_deviation,
    sample_limit_curve,
)
from flagcurve import delta
from flagcurve.curve import CurveModel
from flagcurve.errors import NotRadial, PolarDegenerate


@pytest.fixture(scope="module")
def radial_fit(seed2):
    u = CohomologyClass.from_dict({"a1": 0.3}, 2)
    rad = coboundary_radial(RepSpec("linear_u", seed2, u=u), 0.2, -0.1)
    model = sample_limit_curve(rad, 4)
    return rad, model, fit_delta(rad, model)


def test_linear_u_profile_is_zero(seed2):
    u = CohomologyClass.from_dict({"a1": 0.25}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    model = sample_limit_curve(spec, 4)
    fit = fit_delta(spec, model)
    assert np.abs(fit.model.grid).max() <= 1e-9
    assert fit.cocycle_residual <= 1e-9


def test_coboundary_profile_matches_shear(radial_fit):
    _, _, fit = radial_fit
    g = len(fit.model.grid)
    th = np.arange(g) * 2.0 * math.pi / g
    exact = -(0.2 * np.cos(th) - 0.1 * np.sin(th))
    assert np.abs(fit.model.grid - exact).max() <= 1e-7


def test_cocycle_residual(radial_fit):
    _, _, fit = radial_fit
    assert fit.cocycle_residual <= 1e-8


def test_taus_closed_form(radial_fit):
    rad, _, fit = radial_fit
    for k, (t1, t2) in enumerate(fit.taus):
        f = math.exp(2.0 * rad.u.values[k] / 3.0)
        assert t1 == pytest.approx(-f * rad.mu[k], abs=1e-12)
        assert t2 == pytest.approx(-f * rad.nu[k], abs=1e-12)


def test_pushforward_lands_on_canonical_line(radial_fit):
    _, model, fit = radial_fit
    assert pushforward_deviation(model, fit) <= 1e-7


def test_delta_homogeneous_and_odd(radial_fit):
    _, _, fit = radial_fit
    rng = np.random.default_rng(5)
    xy = rng.normal(size=(50, 2))
    vals = fit.model(xy[:, 0], xy[:, 1])
    doubled = fit.model(2.0 * xy[:, 0], 2.0 * xy[:, 1])
    flipped = fit.model(-xy[:, 0], -xy[:, 1])
    assert np.abs(doubled - 2.0 * vals).max() <= 1e-12
    assert np.abs(flipped + vals).max() <= 1e-9


def test_fit_delta_rejects_canonical(canonical2):
    model = sample_limit_curve(canonical2, 3)
    with pytest.raises(NotRadial):
        fit_delta(canonical2, model)


def test_fit_delta_polar_degenerate(seed2, u_a1):
    rad = coboundary_radial(RepSpec("linear_u", seed2, u=u_a1), 0.2, -0.1)
    model = sample_limit_curve(rad, 3)
    pts = model.points.copy()
    pts[0] = np.array([1e-9, 1.0, 1e-9])
    pts[0] /= np.linalg.norm(pts[0])
    broken = CurveModel(
        params=model.params, points=pts, lines=model.lines,
        words=model.words, tlens=model.tlens,
        dedup_res=model.dedup_res,
    )
    with pytest.raises(PolarDegenerate):
        fit_delta(rad, broken)


@pytest.mark.parametrize("rows", [1, 7, 10 ** 6])
def test_fit_does_not_depend_on_slice_rows(monkeypatch, radial_fit, rows):
    # n = 1 mod 7, so at 7 rows a slice the last slice holds one row, whose
    # product with a generator numpy rounds as a vector-matrix product.
    rad, model, _ = radial_fit
    m = len(model) - (len(model) - 1) % 7
    model = dataclasses.replace(
        model, params=model.params[:m], points=model.points[:m],
        lines=model.lines[:m], words=model.words[:m], tlens=model.tlens[:m])
    assert m < delta.SLICE_ROWS  # the reference fit reads one slice
    want = fit_delta(rad, model)
    want_push = pushforward_deviation(model, want)
    monkeypatch.setattr(delta, "SLICE_ROWS", rows)
    got = fit_delta(rad, model)
    assert got.model.grid.tobytes() == want.model.grid.tobytes()
    assert got.cocycle_residual == want.cocycle_residual
    assert got.taus == want.taus
    assert pushforward_deviation(model, got) == want_push


def test_cocycle_defect_of_a_row_does_not_depend_on_its_slice(radial_fit):
    # numpy rounds a one-row product with a generator as a vector-matrix
    # product, unlike the same row inside a larger slice.
    rad, model, _ = radial_fit
    terms = [(1.0, 0.3, -0.2, g.T) for g in rad.generator_images()]
    whole = delta._cocycle_defects(model.points, terms)
    rows = [delta._cocycle_defects(model.points[i:i + 1], terms) for i in range(len(model))]
    assert np.concatenate(rows).tobytes() == whole.tobytes()
