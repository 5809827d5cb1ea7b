import math
from functools import partial

import numpy as np
import pytest

from flagcurve import (
    CohomologyClass,
    Flag,
    ProjLine,
    ProjPoint,
    RepSpec,
    coboundary_radial,
    in_omega,
    recurrence_experiment,
    sample_limit_curve,
)
from flagcurve import ball
from flagcurve.ball import BallTable, rowwise_dot
from flagcurve.curve import CurveModel, crossing_counts
from flagcurve.errors import BaseNotInterior
from flagcurve.spectral import batch_attracting_flags, canonicalize_rows

from oracles import Word, evaluate

E1, E2, E3 = np.eye(3)
S = 1.0 / math.sqrt(2.0)
BASE = Flag.of((S, S, 0.0), (S, -S, 0.0))


@pytest.fixture(scope="module")
def model4(canonical2):
    return sample_limit_curve(canonical2, 4)


def test_in_omega_inside(model4):
    q = in_omega(BASE, model4)
    assert q.verdict == "inside"
    assert q.margin_point == pytest.approx(math.pi / 4.0, abs=1e-9)
    assert q.margin_line == pytest.approx(math.pi / 4.0, abs=1e-9)


def test_in_omega_outside_on_curve(model4):
    q = in_omega(Flag.of(E1, E3), model4)
    assert q.verdict == "outside"


def test_in_omega_sampled_flag(model4):
    flag = Flag(ProjPoint(model4.points[7]), ProjLine(model4.lines[7]))
    q = in_omega(flag, model4)
    assert q.verdict in ("outside", "on-boundary")


def test_in_omega_sampled_curve_band(seed2):
    # without exact curve knowledge the verdict inside the band is honest
    u = CohomologyClass.from_dict({"a1": 0.2}, 2)
    model = sample_limit_curve(RepSpec("linear_u", seed2, u=u), 4)
    assert model.exact_point_line is None
    near = Flag.of((1.0, 5e-8, 0.0), (0.0, 0.0, 1.0))
    q = in_omega(near, model, tol=1e-6)
    assert q.verdict in ("on-boundary", "outside")


def _fiber(curve: np.ndarray, target) -> tuple:
    """(crossings, tangencies, all_zero) of one projective line with a
    sampled point curve, or dually of one point's line pencil with a
    sampled line curve."""
    cross, tang, allzero = crossing_counts(curve, target.rep[None], 1e-9)
    return int(cross[0]), int(tang[0]), bool(allzero[0])


def test_fiber_profile_line_crosses_once(model4):
    assert _fiber(model4.points, ProjLine.of(E3)) == (1, 0, False)


def test_fiber_profile_degenerate_line(model4):
    # The pencil's degenerate member holds the whole canonical point curve.
    assert _fiber(model4.points, ProjLine.of(E2)) == (0, 0, True)


def test_fiber_profile_generic_lines(model4, rng):
    for _ in range(25):
        l = ProjLine.of(rng.normal(size=3))
        if abs(l.rep[1]) < 0.05:
            continue  # close to the degenerate pencil member
        assert _fiber(model4.points, l)[0] == 1, l.rep


def test_fiber_profile_point_dual(model4):
    assert _fiber(model4.lines, ProjPoint.of(E1)) == (1, 0, False)


def test_fiber_profile_equivariance(model4, canonical2, seed2):
    g = evaluate(canonical2, Word.parse("a1.b2", 2))
    gd = np.linalg.inv(g).T
    l = ProjLine.of([0.3, 0.8, -0.2])
    before = _fiber(model4.points, l)[0]
    # transform the whole model and the line together
    mp = canonicalize_rows((g @ model4.points.T).T)
    ml = canonicalize_rows((gd @ model4.lines.T).T)
    new_params = np.arctan2(mp[:, 2], mp[:, 0]) % math.pi
    order = np.argsort(new_params)
    moved = CurveModel(
        params=new_params[order], points=mp[order], lines=ml[order],
        words=model4.words[order],
        tlens=model4.tlens[order],
        dedup_res=model4.dedup_res,
    )
    gl = ProjLine.of(gd @ l.rep)
    after = _fiber(moved.points, gl)[0]
    assert before == after == 1


def test_recurrence_canonical(canonical2, model4):
    rep = recurrence_experiment(canonical2, BASE, 0.05, 5, model=model4)
    assert rep.returning_words == ("",)
    assert rep.stabilized
    assert rep.free_at_scale
    assert rep.min_nonempty_displacement > 0.5
    counts = [c for _, c in rep.count_history]
    assert counts == sorted(counts)


def test_recurrence_brute_force_oracle(canonical2, seed2, model4):
    rep = recurrence_experiment(canonical2, BASE, 0.05, 3, model=model4)
    # independent recomputation: recursive enumeration, fresh matrices,
    # chordal distances via explicit representative comparison
    letters = canonical2.letter_images()
    duals = np.array([np.linalg.inv(m).T for m in letters])
    bp, bl = BASE.point.rep, BASE.line.rep

    def chord(u, v):
        u = u / np.linalg.norm(u)
        v = v / np.linalg.norm(v)
        return min(np.linalg.norm(u - v), np.linalg.norm(u + v))

    hits = [""]
    stack = [((), np.eye(3), np.eye(3))]
    for _ in range(3):
        nxt = []
        for w, m, md in stack:
            for l in range(8):
                if w and l == w[-1] ^ 1:
                    continue
                m2, md2 = m @ letters[l], md @ duals[l]
                nxt.append((w + (l,), m2, md2))
                disp = max(chord(m2 @ bp, bp), chord(md2 @ bl, bl))
                # chordal distance = 2 sin(angle/2); compare in angle terms
                ang = 2.0 * math.asin(min(1.0, disp / 2.0))
                if ang <= 0.1:
                    hits.append(str(Word(w + (l,), 2)))
        stack = nxt
    assert sorted(hits) == sorted(rep.returning_words)


def _near_a1_base(canonical2) -> Flag:
    """A base near the attracting fixed flag of a1, so a1 moves it little."""
    g = evaluate(canonical2, Word.parse("a1", 2))
    _, (p,), (l,) = batch_attracting_flags(g[None])
    pb = p + 0.25 * E2
    pb /= np.linalg.norm(pb)
    lb = l - (l @ pb) * pb + 0.25 * (E2 - (E2 @ pb) * pb)
    lb /= np.linalg.norm(lb)
    return Flag.of(pb, lb, tol=1e-8)


def test_recurrence_wider_neighborhood_returns_more(canonical2, model4):
    # a base near the attracting fixed flag of a1 is moved little by a1,
    # so growing the neighborhood past that displacement gains exactly the
    # orbit point's witnesses
    base = _near_a1_base(canonical2)
    tight = recurrence_experiment(canonical2, base, 0.05, 3, model=model4)
    assert tight.returning_words == ("",)
    grown = recurrence_experiment(canonical2, base, 0.1, 3, model=model4)
    assert "a1" in grown.returning_words
    assert set(tight.returning_words) < set(grown.returning_words)


def _recurrence_full_inverse(spec, base, nbhd, radius) -> tuple:
    """(returning words, least nonempty displacement) with every ball
    word's image inverted and its line mapped, block by block."""
    table = BallTable.build(spec.seed, radius)
    bp, bl = base.point.rep, base.line.rep
    returning, least = [""], math.inf
    for level, rows, imgs in table.blocks(partial(table.images3, spec.letter_images())):
        pts = np.einsum("nij,j->ni", imgs, bp)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        lns = np.einsum("nij,j->ni", np.linalg.inv(imgs).transpose(0, 2, 1), bl)
        lns /= np.linalg.norm(lns, axis=1)[:, None]
        disp = np.maximum(np.arccos(np.minimum(1.0, np.abs(rowwise_dot(pts, bp)))),
                          np.arccos(np.minimum(1.0, np.abs(rowwise_dot(lns, bl)))))
        least = min(least, float(disp.min()))
        returning += [table.word(level, int(rows[i]))
                      for i in np.flatnonzero(disp <= 2.0 * nbhd)]
    return tuple(returning), least


@pytest.mark.parametrize("rows", [1, 7, 10 ** 6])
def test_recurrence_matches_full_inverse(monkeypatch, canonical2, seed2, model4, rows):
    # Only the words whose point alone could return or lower the running
    # minimum are inverted; the rest cannot change the report, whatever
    # the block size, so the words and the minimum's bits are those of
    # inverting every word.
    monkeypatch.setattr(ball, "BLOCK_ROWS", rows)
    u = CohomologyClass.from_dict({"a1": 0.25}, 2)
    radial = coboundary_radial(RepSpec("linear_u", seed2, u=u), 0.15, 0.1)
    cases = [(canonical2, BASE, 0.05, model4),
             (canonical2, _near_a1_base(canonical2), 0.1, model4),
             (radial, BASE, 0.05, sample_limit_curve(radial, 4))]
    caught = 0
    for spec, base, nbhd, model in cases:
        rep = recurrence_experiment(spec, base, nbhd, 4, model=model)
        words, least = _recurrence_full_inverse(spec, base, nbhd, 4)
        assert rep.returning_words == words
        assert np.float64(rep.min_nonempty_displacement).tobytes() == \
            np.float64(least).tobytes()
        caught += len(words) - 1
    assert caught >= 1  # a1 returns near its attracting flag


def test_recurrence_rejects_boundary_base(canonical2, model4):
    with pytest.raises(BaseNotInterior):
        recurrence_experiment(canonical2, Flag.of(E1, E3), 0.05, 3, model=model4)


def test_freeness_multiple_specs_and_bases(seed2, canonical2, model4, rng):
    u = CohomologyClass.from_dict({"a1": 0.25}, 2)
    specs = [
        canonical2,
        RepSpec("linear_u", seed2, u=u),
        coboundary_radial(RepSpec("linear_u", seed2, u=u), 0.15, 0.1),
    ]
    models = {s.variant: sample_limit_curve(s, 4) for s in specs}
    found = 0
    while found < 4:
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        w -= (w @ v) * v / (v @ v)
        if np.linalg.norm(w) < 1e-3:
            continue
        flag = Flag.of(v, w)
        ok = True
        for s in specs:
            m = models[s.variant]
            if in_omega(flag, m).verdict != "inside":
                ok = False
                break
        if not ok:
            continue
        found += 1
        for s in specs:
            m = models[s.variant]
            rep = recurrence_experiment(s, flag, 1e-4, 3, model=m)
            assert rep.free_at_scale

