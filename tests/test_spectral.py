import math
from functools import partial

import numpy as np
import pytest

from flagcurve import (
    CohomologyClass,
    RepSpec,
    Word,
    attractive_flag,
    eigen3,
    enumerate_ball,
    evaluate,
    is_loxodromic,
    repulsive_flag,
    saddle_at_e2,
    translation_length,
)
from flagcurve.errors import ComplexSpectrum, NotFixed, NotLoxodromic
from flagcurve.projective import proj_dist
from flagcurve import ball
from flagcurve.ball import BallTable
from flagcurve.spectral import batch_eigvals3, batch_eigvec, batch_saddle_at_e2
from flagcurve.surface import batch_translation_lengths, eval_u

from conftest import random_unimodular, random_unimodular_batch


def test_eigen3_diagonal():
    t = eigen3(np.diag([4.0, 1.0, 0.25]))
    assert t.values == pytest.approx((4.0, 1.0, 0.25), abs=1e-12)
    assert proj_dist(t.vectors[0].rep, np.array([1.0, 0, 0])) <= 1e-12
    assert proj_dist(t.vectors[1].rep, np.array([0, 1.0, 0])) <= 1e-12
    assert proj_dist(t.vectors[2].rep, np.array([0, 0, 1.0])) <= 1e-12
    assert not t.near_degenerate


def test_eigen3_rotation_raises():
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ComplexSpectrum):
        eigen3(rot)
    assert not is_loxodromic(rot)


def test_eigen3_identity_triple_root():
    t = eigen3(np.eye(3))
    assert t.values == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert t.near_degenerate
    assert not is_loxodromic(np.eye(3))


def test_eigen3_linear_u_block_structure(seed2):
    u = CohomologyClass.from_dict({"a1": 0.4, "b1": -0.2}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    for w, m2 in list(enumerate_ball(seed2, 3))[1:][::17]:
        uw = eval_u(u, w)
        t_w = translation_length(m2)
        l = t_w / 2.0
        if abs(uw) >= l:
            continue
        expected = sorted(
            [math.exp(uw / 3.0 + l), math.exp(-2.0 * uw / 3.0),
             math.exp(uw / 3.0 - l)],
            reverse=True,
        )
        got = eigen3(evaluate(spec, w))
        assert np.allclose(sorted(np.abs(got.values), reverse=True),
                           expected, rtol=1e-9)


def test_eigen3_matches_lapack(rng):
    mats = random_unimodular_batch(rng, 2000)
    for m in mats:
        try:
            t = eigen3(m / np.cbrt(np.linalg.det(m)))
        except ComplexSpectrum:
            assert np.abs(np.linalg.eigvals(m).imag).max() > 1e-10
            continue
        ref = np.linalg.eigvals(m)
        ref = ref[np.argsort(-np.abs(ref))].real
        assert np.abs(np.array(t.values) - ref).max() <= 1e-8


def test_eigen3_residuals(rng):
    done = 0
    while done < 500:
        g = random_unimodular(rng)
        try:
            t = eigen3(g)
        except ComplexSpectrum:
            continue
        for lam, vec in zip(t.values, t.vectors):
            assert np.linalg.norm(g @ vec.rep - lam * vec.rep) <= 1e-8
        done += 1


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
    for m in mats:
        t = eigen3(m)
        for lam, vec in zip(t.values, t.vectors):
            assert np.linalg.norm(m @ vec.rep - lam * vec.rep) <= 1e-4


def test_attractive_flag_diagonal():
    g = np.diag([4.0, 1.0, 0.25])
    f = attractive_flag(g)
    assert proj_dist(f.point.rep, np.array([1.0, 0, 0])) <= 1e-12
    assert proj_dist(f.line.rep, np.array([0, 0, 1.0])) <= 1e-12
    with pytest.raises(NotLoxodromic):
        attractive_flag(np.eye(3))


def test_attractive_of_inverse_is_repulsive(rng):
    # repulsive_flag is attractive_flag of g^-1; check it against eigen3(g):
    # the bottom eigenline and the plane of the bottom two eigenlines.
    done = 0
    while done < 100:
        g = random_unimodular(rng)
        if not is_loxodromic(g):
            continue
        t = eigen3(g)
        fr = repulsive_flag(g)
        assert proj_dist(fr.point.rep, t.vectors[2].rep) <= 1e-7
        ref_l = np.cross(t.vectors[2].rep, t.vectors[1].rep)
        assert proj_dist(fr.line.rep, ref_l / np.linalg.norm(ref_l)) <= 1e-7
        done += 1


def test_attractive_flag_equivariance(rng):
    g = np.diag([4.0, 1.0, 0.25])
    for _ in range(100):
        h = random_unimodular(rng)
        conj = h @ g @ np.linalg.inv(h)
        conj = conj / np.cbrt(np.linalg.det(conj))
        f = attractive_flag(conj)
        ref_p = h @ attractive_flag(g).point.rep
        ref_l = np.linalg.inv(h).T @ attractive_flag(g).line.rep
        assert proj_dist(f.point.rep, ref_p / np.linalg.norm(ref_p)) <= 1e-7
        assert proj_dist(f.line.rep, ref_l / np.linalg.norm(ref_l)) <= 1e-7


def test_attractive_line_is_dual_top_eigencovector(seed2, canonical2):
    for w, _ in list(enumerate_ball(seed2, 3))[1:][::29]:
        g = evaluate(canonical2, w)
        f = attractive_flag(g)
        td = eigen3(np.linalg.inv(g).T)
        assert proj_dist(f.line.rep, td.vectors[0].rep) <= 1e-8


def test_attractive_flag_fixed_and_attracting(rng, seed2, canonical2):
    g = evaluate(canonical2, Word.parse("a1.b1", 2))
    f = attractive_flag(g)
    gp = g @ f.point.rep
    assert proj_dist(gp / np.linalg.norm(gp), f.point.rep) <= 1e-8
    for _ in range(20):
        v = f.point.rep + 0.05 * rng.normal(size=3)
        v /= np.linalg.norm(v)
        before = proj_dist(v, f.point.rep)
        gv = g @ v
        gv /= np.linalg.norm(gv)
        after = proj_dist(gv, f.point.rep)
        assert after < before


def test_saddle_examples():
    assert saddle_at_e2(np.diag([4.0, 1.0, 0.25]))
    assert not saddle_at_e2(np.diag([2.0, 0.25, 2.0]))
    with pytest.raises(NotFixed):
        saddle_at_e2(np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_saddle_iff_ratio(seed2):
    u = CohomologyClass.from_dict({"a1": 0.9, "b2": -0.5}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    for w, m2 in list(enumerate_ball(seed2, 3))[1:][::11]:
        g = evaluate(spec, w)
        t_w = translation_length(m2)
        ratio_ok = abs(eval_u(u, w)) < t_w / 2.0
        assert saddle_at_e2(g) == ratio_ok


def test_canonical_ball_loxodromic(seed2, canonical2):
    for w, _ in list(enumerate_ball(seed2, 4))[1:][::101]:
        if not w.is_cyclically_reduced():
            continue
        assert is_loxodromic(evaluate(canonical2, w))


def test_batch_saddle_matches_ratio_on_ball(monkeypatch, seed2):
    # Every word of the ball, conjugates included; the class refutes some.
    u = CohomologyClass.from_dict({"a1": 1.6, "b2": -0.9}, 2)
    spec = RepSpec("linear_u", seed2, u=u)
    for block_rows in (1, 5, 10 ** 6):
        monkeypatch.setattr(ball, "BLOCK_ROWS", block_rows)
        table = BallTable.build(seed2, 3)
        refuted = 0
        fields = (table.seed_images, table.exponent_sums,
                  partial(table.images3, spec.letter_images()))
        for _level, _rows, mats, exps, imgs in table.blocks(*fields):
            hyp, t = batch_translation_lengths(mats)
            assert hyp.all()
            ratio_ok = np.abs(exps @ u.as_vector()) < t / 2.0
            assert np.array_equal(batch_saddle_at_e2(imgs), ratio_ok)
            refuted += int((~ratio_ok).sum())
        assert refuted > 0
