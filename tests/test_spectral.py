import math
from functools import partial

import numpy as np
import pytest

from flagcurve import generator_values
from flagcurve import ball, reps
from flagcurve.ball import BallTable
from flagcurve.spectral import (batch_attracting_flags, batch_eigvals3, batch_eigvec,
                                batch_loxodromic, batch_saddle_at_e2)
from flagcurve.surface import batch_translation_lengths

from conftest import random_unimodular, random_unimodular_batch
from oracles import Word, enumerate_ball, eval_u, evaluate, proj_dist


def _eigvecs(mats, vals) -> np.ndarray:
    """(n, 3, 3) unit eigenvectors, column k for eigenvalue vals[:, k]."""
    return np.stack([batch_eigvec(mats, vals[:, k]) for k in range(3)], axis=2)


def test_eigen3_diagonal():
    g = np.diag([4.0, 1.0, 0.25])
    lox, vals = batch_loxodromic(g[None])
    assert lox[0]
    assert vals[0] == pytest.approx((4.0, 1.0, 0.25), abs=1e-12)
    vecs = _eigvecs(g[None], vals)[0]
    for k, e in enumerate(np.eye(3)):
        assert proj_dist(vecs[:, k], e) <= 1e-12


def test_eigen3_rotation_raises():
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    lox, vals = batch_loxodromic(rot[None])
    assert np.isnan(vals[0]).all()
    assert not lox[0]


def test_eigen3_identity_triple_root():
    lox, vals = batch_loxodromic(np.eye(3)[None])
    assert vals[0] == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert not lox[0]


def test_eigen3_linear_u_block_structure(seed2):
    u = generator_values({"a1": 0.4, "b1": -0.2}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    words, m2s = zip(*list(enumerate_ball(seed2, 3))[1:][::17])
    _, tlens = batch_translation_lengths(np.array(m2s))
    vals, real = batch_eigvals3(np.array([evaluate(spec, w) for w in words]))
    checked = 0
    for w, t_w, got, is_real in zip(words, tlens, vals, real):
        uw = eval_u(u, w)
        l = t_w / 2.0
        if abs(uw) >= l:
            continue
        expected = sorted(
            [math.exp(uw / 3.0 + l), math.exp(-2.0 * uw / 3.0),
             math.exp(uw / 3.0 - l)],
            reverse=True,
        )
        assert is_real
        assert np.allclose(sorted(np.abs(got), reverse=True), expected, rtol=1e-9)
        checked += 1
    assert checked


def test_eigen3_matches_lapack(rng):
    mats = random_unimodular_batch(rng, 2000)
    vals, real = batch_eigvals3(mats / np.cbrt(np.linalg.det(mats))[:, None, None])
    for m, v, is_real in zip(mats, vals, real):
        if not is_real:
            assert np.abs(np.linalg.eigvals(m).imag).max() > 1e-10
            continue
        ref = np.linalg.eigvals(m)
        ref = ref[np.argsort(-np.abs(ref))].real
        assert np.abs(v - ref).max() <= 1e-8


def test_eigen3_residuals(rng):
    mats = []
    while len(mats) < 500:
        g = random_unimodular(rng)
        if batch_eigvals3(g[None])[1][0]:
            mats.append(g)
    mats = np.array(mats)
    vals = batch_eigvals3(mats)[0]
    vecs = _eigvecs(mats, vals)
    res = mats @ vecs - vecs * vals[:, None, :]
    assert np.linalg.norm(res, axis=1).max() <= 1e-8


def test_eigenvalue_product_one(rng):
    mats = random_unimodular_batch(rng, 2000)
    vals, real = batch_eigvals3(mats)
    prod = np.prod(vals[real], axis=1)
    assert np.abs(prod - 1.0).max() <= 1e-9


def test_batch_eigvals_match_lapack(rng):
    mats = random_unimodular_batch(rng, 300)
    vals, real = batch_eigvals3(mats)
    for m, v, is_real in zip(mats, vals, real):
        ref = np.linalg.eigvals(m)
        assert is_real == bool(np.all(np.abs(ref.imag) <= 1e-9 * np.abs(ref).max()))
        if is_real:
            ref = ref.real[np.argsort(-np.abs(ref.real), kind="stable")]
            assert np.abs(v - ref).max() <= 1e-9 * np.abs(ref).max()
        else:
            assert np.isnan(v).all()


def test_batch_eigvec_residual(rng):
    mats = random_unimodular_batch(rng, 500)
    vals, real = batch_eigvals3(mats)
    mats, vals = mats[real], vals[real]
    for col in range(3):
        v = batch_eigvec(mats, vals[:, col])
        res = np.einsum("nij,nj->ni", mats, v) - vals[:, col][:, None] * v
        assert np.linalg.norm(res, axis=1).max() <= 1e-7


def _conjugates(rng, diagonal, count):
    """Random SL(3) conjugates of diag(diagonal)."""
    d = np.diag(diagonal)
    out = []
    for _ in range(count):
        h = random_unimodular(rng)
        out.append(h @ d @ np.linalg.inv(h))
    return np.array(out)


def test_batch_eigvec_is_rowwise(rng):
    # The rank test is per row: a stack mixing repeated roots, nearly
    # repeated ones and a large matrix gives each row the vector of its
    # n=1 call.
    mats = np.concatenate([random_unimodular_batch(rng, 50),
                           _conjugates(rng, [2.0, 2.0, 0.25], 50),
                           _conjugates(rng, [2.0, 2.00002, 1 / 4.00004], 50),
                           np.diag([1e4, 1.0, 1e-4])[None]])
    lams = np.concatenate([batch_eigvals3(mats[:50])[0][:, 0], np.full(100, 2.0), [1.0]])
    keep = ~np.isnan(lams)
    mats, lams = mats[keep], lams[keep]
    rows = np.concatenate([batch_eigvec(m[None], lam[None]) for m, lam in zip(mats, lams)])
    assert np.array_equal(batch_eigvec(mats, lams), rows)


@pytest.mark.parametrize("a", [0.5, 1.3, 2.0, 3.05])
def test_batch_eigvals_double_root(rng, a):
    # Newton's step diverges where f' ~ 0; the polish must skip it.
    vals, real = batch_eigvals3(_conjugates(rng, [a, a, a ** -2], 500))
    assert real.all()
    expected = sorted([a, a, a ** -2], key=abs, reverse=True)
    assert np.abs(vals - expected).max() <= 1e-4


def test_eigvec_double_root(rng):
    # g - 2I has rank 1: every row cross product vanishes, and the null
    # vector comes from the singular-vector fallback.
    mats = _conjugates(rng, [2.0, 2.0, 0.25], 500)
    v = batch_eigvec(mats, np.full(len(mats), 2.0))
    res = np.einsum("nij,nj->ni", mats, v) - 2.0 * v
    assert np.linalg.norm(res, axis=1).max() <= 1e-10
    vals, real = batch_eigvals3(mats)
    assert real.all()
    vecs = _eigvecs(mats, vals)
    res = mats @ vecs - vecs * vals[:, None, :]
    assert np.linalg.norm(res, axis=1).max() <= 1e-4


def test_attractive_flag_diagonal():
    lox, points, lines = batch_attracting_flags(np.stack([np.diag([4.0, 1.0, 0.25]),
                                                          np.eye(3)]))
    assert lox.tolist() == [True, False]
    assert len(points) == len(lines) == 1
    assert proj_dist(points[0], np.array([1.0, 0, 0])) <= 1e-12
    assert proj_dist(lines[0], np.array([0, 0, 1.0])) <= 1e-12


def test_attractive_of_inverse_is_repulsive(rng):
    # The attracting flag of g^-1 is the repelling flag of g: the bottom
    # eigenline and the plane of the bottom two eigenlines of g.
    mats = []
    while len(mats) < 100:
        g = random_unimodular(rng)
        if batch_loxodromic(g[None])[0][0]:
            mats.append(g)
    mats = np.array(mats)
    lox, points, lines = batch_attracting_flags(np.linalg.inv(mats))
    assert lox.all()
    vecs = _eigvecs(mats, batch_eigvals3(mats)[0])
    for p, l, v in zip(points, lines, vecs):
        assert proj_dist(p, v[:, 2]) <= 1e-7
        ref_l = np.cross(v[:, 2], v[:, 1])
        assert proj_dist(l, ref_l / np.linalg.norm(ref_l)) <= 1e-7


def test_attractive_flag_equivariance(rng):
    g = np.diag([4.0, 1.0, 0.25])
    hs = np.array([random_unimodular(rng) for _ in range(100)])
    conj = hs @ g @ np.linalg.inv(hs)
    conj /= np.cbrt(np.linalg.det(conj))[:, None, None]
    lox, points, lines = batch_attracting_flags(conj)
    assert lox.all()
    _, (p0,), (l0,) = batch_attracting_flags(g[None])
    for h, p, l in zip(hs, points, lines):
        ref_p = h @ p0
        ref_l = np.linalg.inv(h).T @ l0
        assert proj_dist(p, ref_p / np.linalg.norm(ref_p)) <= 1e-7
        assert proj_dist(l, ref_l / np.linalg.norm(ref_l)) <= 1e-7


def test_attractive_line_is_dual_top_eigencovector(seed2, canonical2):
    mats = np.array([evaluate(canonical2, w)
                     for w, _ in list(enumerate_ball(seed2, 3))[1:][::29]])
    lox, _, lines = batch_attracting_flags(mats)
    assert lox.all()
    duals = np.linalg.inv(mats).transpose(0, 2, 1)
    top = batch_eigvec(duals, batch_eigvals3(duals)[0][:, 0])
    for l, t in zip(lines, top):
        assert proj_dist(l, t) <= 1e-8


def test_attractive_flag_fixed_and_attracting(rng, seed2, canonical2):
    g = evaluate(canonical2, Word.parse("a1.b1", 2))
    _, (p,), _ = batch_attracting_flags(g[None])
    gp = g @ p
    assert proj_dist(gp / np.linalg.norm(gp), p) <= 1e-8
    for _ in range(20):
        v = p + 0.05 * rng.normal(size=3)
        v /= np.linalg.norm(v)
        before = proj_dist(v, p)
        gv = g @ v
        gv /= np.linalg.norm(gv)
        after = proj_dist(gv, p)
        assert after < before


def test_saddle_examples():
    mats = np.stack([np.diag([4.0, 1.0, 0.25]), np.diag([2.0, 0.25, 2.0])])
    assert batch_saddle_at_e2(mats).tolist() == [True, False]


def test_saddle_iff_ratio(seed2):
    u = generator_values({"a1": 0.9, "b2": -0.5}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    words, m2s = zip(*list(enumerate_ball(seed2, 3))[1:][::11])
    _, tlens = batch_translation_lengths(np.array(m2s))
    ratio_ok = [abs(eval_u(u, w)) < t_w / 2.0 for w, t_w in zip(words, tlens)]
    saddle = batch_saddle_at_e2(np.array([evaluate(spec, w) for w in words]))
    assert saddle.tolist() == ratio_ok


def test_canonical_ball_loxodromic(seed2, canonical2):
    mats = np.array([evaluate(canonical2, w)
                     for w, _ in list(enumerate_ball(seed2, 4))[1:][::101]
                     if w.is_cyclically_reduced()])
    assert batch_loxodromic(mats)[0].all()


def test_batch_saddle_matches_ratio_on_ball(monkeypatch, seed2):
    # Every word of the ball, conjugates included; the class refutes some.
    u = generator_values({"a1": 1.6, "b2": -0.9}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    for block_rows in (1, 5, 10 ** 6):
        monkeypatch.setattr(ball, "BLOCK_ROWS", block_rows)
        table = BallTable.build(seed2, 3)
        refuted = 0
        fields = (table.seed_images, table.exponent_sums,
                  partial(table.images3, spec.letters))
        for _level, _rows, _weight, mats, exps, imgs in table.blocks(*fields):
            hyp, t = batch_translation_lengths(mats)
            assert hyp.all()
            ratio_ok = np.abs(exps @ np.array(u)) < t / 2.0
            assert np.array_equal(batch_saddle_at_e2(imgs), ratio_ok)
            refuted += int((~ratio_ok).sum())
        assert refuted > 0
