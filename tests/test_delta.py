import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flagcurve import (
    coboundary_radial,
    fit_delta,
    generator_values,
    pushforward_deviation,
    sample_limit_curve,
)
from flagcurve import ball, delta, reps
from flagcurve.curve import CurveModel
from flagcurve.errors import NotRadial, PolarDegenerate
from flagcurve.spectral import canonicalize_rows

from oracles import lagrange_fill_sorting_support


@pytest.fixture(scope="module")
def radial_fit(seed2):
    u = generator_values({"a1": 0.3}, "u", 2)
    rad = coboundary_radial(reps.linear_u(seed2, u=u), 0.2, -0.1)
    model = sample_limit_curve(rad, 4)
    return rad, model, fit_delta(rad, model)


def test_linear_u_profile_is_zero(seed2):
    u = generator_values({"a1": 0.25}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
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
        f = math.exp(2.0 * rad.u[k] / 3.0)
        assert t1 == pytest.approx(-f * rad.shear[0][k], abs=1e-12)
        assert t2 == pytest.approx(-f * rad.shear[1][k], abs=1e-12)


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
    rad = coboundary_radial(reps.linear_u(seed2, u=u_a1), 0.2, -0.1)
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


def test_fit_does_not_depend_on_point_signs(radial_fit):
    # A row with x < 0 is read as its antipode: the fill's runs need the
    # angles of canonical rows, and the profile is odd.
    rad, model, fit = radial_fit
    pts = model.points.copy()
    pts[::3] *= -1.0
    got = fit_delta(rad, dataclasses.replace(model, points=pts))
    assert got.model.grid.tobytes() == fit.model.grid.tobytes()
    assert got.cocycle_residual == fit.cocycle_residual


@pytest.mark.parametrize("rows", [1, 7, 10 ** 6])
def test_fit_does_not_depend_on_slice_rows(monkeypatch, radial_fit, rows):
    # n = 1 mod 7, so at 7 rows a slice the last slice holds one row, whose
    # product with a generator numpy rounds as a vector-matrix product.
    rad, model, _ = radial_fit
    m = len(model) - (len(model) - 1) % 7
    model = dataclasses.replace(
        model, params=model.params[:m], points=model.points[:m],
        lines=model.lines[:m], words=model.words[:m], tlens=model.tlens[:m])
    assert m < ball.BLOCK_ROWS  # the reference fit reads one slice
    want = fit_delta(rad, model)
    want_push = pushforward_deviation(model, want)
    monkeypatch.setattr(ball, "BLOCK_ROWS", rows)
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


@st.composite
def _canonical_points(draw):
    """Canonical rows (x >= 0) of points on the graph of an odd profile
    z = a cos t + b sin t + c sin 3t over clustered directions t: steps
    near the thinning spacing, rows on the axes (x a signed zero, and y a
    signed zero or tiny, whose angle rounds to 2*pi) and repeated rows."""
    a, b, c = (draw(st.floats(-2.0, 2.0)) for _ in range(3))
    base = draw(st.floats(0.0, 2.0 * math.pi))
    steps = draw(st.lists(st.one_of(st.floats(0.0, 3e-3), st.sampled_from([0.0, 1e-3, 0.5])),
                          min_size=8, max_size=80))
    t = base + np.cumsum(steps)
    rows = np.stack([np.cos(t), a * np.cos(t) + b * np.sin(t) + c * np.sin(3 * t), np.sin(t)],
                    axis=1)
    axes = {"x=0": [0.0, b - c, 1.0], "y=0": [1.0, a, 0.0], "y=-0": [1.0, a, -0.0],
            "y=-tiny": [1.0, a, -1e-300], "y=+tiny": [1.0, a, 1e-300]}
    picked = draw(st.lists(st.sampled_from(sorted(axes)), max_size=4))
    extra = np.array([axes[k] for k in picked]).reshape(-1, 3)
    pts = canonicalize_rows(np.concatenate([rows, extra]))
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=6))
    return np.concatenate([pts, pts[repeats]])


def _ties_are_equal_points(pts):
    """Whether every angle of the support (angles and antipodes) that
    occurs twice carries one value: the sorted order of tied angles of
    distinct values is not defined."""
    xs, zs, ys = delta._plane_coords(pts)
    ang = np.arctan2(ys, xs) % (2.0 * math.pi)
    ang = np.concatenate([ang, (ang + math.pi) % (2.0 * math.pi)])
    val = np.concatenate([-zs, zs]).view(np.uint64)
    order = np.lexsort((val, ang))
    ang, val = ang[order], val[order]
    return not ((ang[1:] == ang[:-1]) & (val[1:] != val[:-1])).any()


@pytest.mark.parametrize("rows", [1, 7, 10 ** 6])
@settings(max_examples=150, deadline=None)
@given(pts=_canonical_points())
# Rows on both axes: x = 0 (both signs of zero), y = 0 and y rounding the
# angle to 2*pi, each an end of one of the fill's runs.
@example(pts=canonicalize_rows(np.array(
    [[math.cos(t), 0.1 * math.sin(3 * t), math.sin(t)] for t in np.linspace(0.2, 1.2, 12)]
    + [[0.0, 0.5, 1.0], [-0.0, 0.5, 1.0], [1.0, 0.3, 0.0], [1.0, 0.3, -1e-300]])))
def test_fill_matches_sorting_the_whole_support(rows, pts):
    assume(_ties_are_equal_points(pts))
    assert (pts[:, 0] >= 0).all()
    try:
        want = lagrange_fill_sorting_support(pts)
    except PolarDegenerate:
        with pytest.raises(PolarDegenerate):
            delta._lagrange_fill(pts)
        return
    with mock.patch.object(ball, "BLOCK_ROWS", rows):
        got = delta._lagrange_fill(pts)
    assert got.tobytes() == want.tobytes()
