import json
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from flagcurve import FuchsianSeed, generator_values, spec_from_json_dict, standard_fuchsian
from flagcurve import ball, surface
from flagcurve.ball import BallTable, WordIds
from flagcurve.errors import FlagCurveError, NotUnimodular, UnsupportedGenus
from flagcurve.surface import (batch_attractive_directions, batch_translation_lengths,
                               gen_name, relator_residual, standard_relator)

from oracles import Word, ball_count, enumerate_ball, eval_u, seed_image, seed_to_json_dict


def test_standard_seed_relator(seed2):
    assert relator_residual(seed2.letter_matrices()) <= 1e-8
    m = np.eye(2)
    for j in range(2):
        a, b = seed2.generators[2 * j], seed2.generators[2 * j + 1]
        m = m @ a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    assert np.linalg.norm(m - np.eye(2)) <= 1e-8  # plus identity, not minus


def test_standard_seed_genus3():
    s3 = standard_fuchsian(3)
    assert len(s3.generators) == 6
    assert relator_residual(s3.letter_matrices()) <= 1e-8


def test_generators_hyperbolic(seed2):
    for m in seed2.generators:
        assert abs(np.trace(m)) > 2.0


def test_short_words_hyperbolic(seed2):
    assert seed2.short_word_min_trace() > 2.0


def test_seed_check_streams_its_short_words():
    # At genus 8 the check reads the traces of 985,088 words of length at
    # most 4 from the ball, which keeps 1 B a word and derives the top
    # level's images one block at a time.
    tracemalloc.start()
    try:
        standard_fuchsian(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_rejects_low_genus():
    with pytest.raises(UnsupportedGenus):
        standard_fuchsian(1)
    with pytest.raises(UnsupportedGenus):
        FuchsianSeed(0, ())


def test_large_genus_seed_fails_as_a_library_error():
    # From genus 41 on the regular 4g-gon's side pairings leave the reals
    # in float64; genus 15 already misses the relator check.
    with pytest.raises(FlagCurveError, match="not real"):
        standard_fuchsian(41)
    with pytest.raises(ValueError, match="relator residual"):
        standard_fuchsian(15)


def test_presentation_relator():
    assert tuple(gen_name(k) for k in range(4)) == ("a1", "b1", "a2", "b2")
    assert str(Word(standard_relator(2), 2)) == "a1.b1.A1.B1.a2.b2.A2.B2"


def test_ball_counts(seed2):
    for radius in range(5):
        words = list(enumerate_ball(seed2, radius))
        assert len(words) == ball_count(2, radius)
    assert ball_count(2, 1) == 9


def test_ball_no_duplicates_and_shortlex(seed2):
    words = [str(w) for w, _ in enumerate_ball(seed2, 3)]
    assert len(set(words)) == len(words)
    keys = [(len(w.letters), w.letters) for w, _ in enumerate_ball(seed2, 3)]
    assert keys == sorted(keys)


def test_ball_matrices_are_products(seed2):
    letters = seed2.letter_matrices()
    for w, m in enumerate_ball(seed2, 3):
        ref = np.eye(2)
        for l in w.letters:
            ref = ref @ letters[l]
        assert np.allclose(m, ref, atol=1e-12)


def test_word_parse_round_trip():
    w = Word.parse("a1.B2.a1", 2)
    assert str(w) == "a1.B2.a1"
    assert str(w.concat(Word.parse("A1.b2.A1", 2))) == ""
    with pytest.raises(ValueError):
        Word((0, 1), 2)  # a1 followed by its inverse


def test_cyclic_reduction():
    assert Word.parse("a1.b1.A1", 2).is_cyclically_reduced() is False
    assert Word.parse("a1.b1", 2).is_cyclically_reduced() is True


def test_eval_u_examples(seed2):
    u = generator_values({"a1": 0.3, "b1": -0.7}, "u", 2)
    assert eval_u(u, Word((), 2)) == 0.0
    assert eval_u(u, Word(standard_relator(2), 2)) == 0.0
    w = Word.parse("a1.b1.A1", 2)
    assert eval_u(u, w) == pytest.approx(-0.7)


def test_eval_u_homomorphism(rng, seed2):
    u = generator_values({"a1": 0.5, "a2": -0.2, "b2": 1.1}, "u", 2)
    words = [w for w, _ in enumerate_ball(seed2, 3)]
    for _ in range(200):
        w1 = words[rng.integers(len(words))]
        w2 = words[rng.integers(len(words))]
        assert eval_u(u, w1.concat(w2)) == pytest.approx(
            eval_u(u, w1) + eval_u(u, w2), abs=1e-12
        )


def test_translation_length():
    m = np.diag([math.e, 1.0 / math.e])
    hyp, t = batch_translation_lengths(np.stack([m, np.eye(2), np.linalg.inv(m)]))
    assert hyp.tolist() == [True, False, True]
    assert t[0] == pytest.approx(2.0, abs=1e-12)
    assert t[2] == pytest.approx(t[0], abs=1e-12)


def test_translation_length_powers(seed2):
    m = seed2.generators[0]
    powers = [m]
    for _ in range(4):
        powers.append(powers[-1] @ m)
    hyp, t = batch_translation_lengths(np.array(powers))
    assert hyp.all()
    assert t == pytest.approx(t[0] * np.arange(1, 6), abs=1e-9)


def test_attractive_direction_fixed(seed2):
    m = seed2.generators[0]
    th = float(batch_attractive_directions(m[None])[0])
    v = np.array([math.cos(th), math.sin(th)])
    mv = m @ v
    mv /= np.linalg.norm(mv)
    assert min(np.linalg.norm(mv - v), np.linalg.norm(mv + v)) < 1e-10


def test_seed_json_round_trip(seed2):
    d = json.loads(json.dumps(seed_to_json_dict(seed2)))
    loaded = spec_from_json_dict({"variant": "canonical", "seed": d}).seed
    for a, b in zip(seed2.generators, loaded.generators):
        assert np.array_equal(np.asarray(a), np.asarray(b))
    assert d["genus"] == 2
    assert len(d["generators"]) == 4
    assert len(d["generators"][0]) == 4


def test_seed_rejects_bad_relator():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    gens = (np.eye(2) * 1.0,) * 3 + (rot,)
    with pytest.raises(ValueError):
        FuchsianSeed(2, gens)


def test_seed_checks_fail_on_nan(monkeypatch, seed2):
    # NaN compares false both ways, so each check is written to fail it.
    with pytest.raises(NotUnimodular), np.errstate(invalid="ignore"):
        FuchsianSeed(2, (np.full((2, 2), np.nan),) * 4)
    with monkeypatch.context() as m:
        m.setattr(surface, "relator_residual", lambda letters: math.nan)
        with pytest.raises(ValueError, match="relator residual"):
            FuchsianSeed(2, seed2.generators)
    with monkeypatch.context() as m:
        m.setattr(FuchsianSeed, "short_word_min_trace", lambda self: math.nan)
        with pytest.raises(ValueError, match="non-hyperbolic short word"):
            FuchsianSeed(2, seed2.generators)


def _whole_levels(table) -> dict:
    """level -> (mats, exps) of every word of the level, joined from the
    blocks of ``table.blocks``."""
    levels = {}
    for level, _rows, _weight, *seed_data in table.blocks(table.seed_images, table.exponent_sums):
        levels.setdefault(level, []).append(seed_data)
    return {level: [np.concatenate(col) for col in zip(*blocks)]
            for level, blocks in levels.items()}


def test_ball_table_matches_enumeration(monkeypatch, seed2):
    # Brute force: every letter tuple, filtered by free reduction, sorted.
    for seed, radius in ((seed2, 3), (standard_fuchsian(3), 2)):
        levels = [
            [Word(ls, seed.genus)
             for ls in sorted(product(range(4 * seed.genus), repeat=level))
             if all(b != a ^ 1 for a, b in zip(ls, ls[1:]))]
            for level in range(1, radius + 1)
        ]
        lengths = []
        for words in levels:
            hyp, t = batch_translation_lengths(np.array([seed_image(seed, w) for w in words]))
            assert hyp.all()
            lengths.append(t.tolist())
        for block_rows in (1, 5, 10 ** 6):
            monkeypatch.setattr(ball, "BLOCK_ROWS", block_rows)
            table = BallTable.build(seed, radius)
            whole = _whole_levels(table)
            scored = {m: [] for m in (0.0, 5.0, 7.0)}
            for level, words in enumerate(levels, 1):
                named = table.word_strings(np.full(len(words), level), np.arange(len(words)))
                assert named.tolist() == [str(w).encode() for w in words]
                assert [table.word(level, i) for i in range(len(words))] == [
                    str(w) for w in words
                ]
                for m, expected in scored.items():
                    idx = [i for i, w in enumerate(words)
                           if w.is_cyclically_reduced() and lengths[level - 1][i] >= m]
                    if idx:
                        expected.append((level, idx, [lengths[level - 1][i] for i in idx]))
                mats, exps = whole[level]
                assert np.allclose(mats, [seed_image(seed, w) for w in words], atol=1e-12)
                assert np.array_equal(exps, [w.exponent_sums() for w in words])
            for m, expected in scored.items():
                got = {}
                for lv, idx, _weight, t, *_ in table.scored(m):
                    got.setdefault(lv, []).append((idx, t))
                assert [(lv, np.concatenate([i for i, _ in b]).tolist())
                        for lv, b in got.items()] == [(lv, idx) for lv, idx, _ in expected]
                for blocks, (_, _, ref) in zip(got.values(), expected):
                    assert np.allclose(np.concatenate([t for _, t in blocks]), ref,
                                       rtol=1e-12)


def test_word_strings_with_letter_names_of_two_widths():
    # From genus 10 on, a10, A10, b10 and B10 are a byte longer than the
    # other letter names.  Brute force: every letter tuple, filtered by
    # free reduction, sorted.
    genus, radius = 10, 2
    table = BallTable.build(standard_fuchsian(genus), radius)
    want = [str(Word(ls, genus)) for level in range(1, radius + 1)
            for ls in sorted(product(range(4 * genus), repeat=level))
            if all(b != a ^ 1 for a, b in zip(ls, ls[1:]))]
    sizes = [len(table.letters(level)) for level in range(1, radius + 1)]
    levels = np.repeat(np.arange(1, radius + 1, dtype=np.int8), sizes)
    index = np.concatenate([np.arange(n) for n in sizes])
    assert [s.decode() for s in table.word_strings(levels, index).tolist()] == want
    assert [table.word(int(l), int(i)) for l, i in zip(levels, index)] == want
    # An unsorted batch of mixed levels, named at once and one at a time.
    order = np.random.default_rng(0).permutation(len(want))[:500]
    named = table.word_strings(levels[order], index[order])
    assert [s.decode() for s in named.tolist()] == [want[k] for k in order]
    ids = WordIds(table, levels, index)[order]
    assert list(ids) == [ids[k] for k in range(len(ids))] == [want[k] for k in order]


def test_ball_table_expsums(monkeypatch, seed2):
    for block_rows in (1, 5, 10 ** 6):
        monkeypatch.setattr(ball, "BLOCK_ROWS", block_rows)
        table = BallTable.build(seed2, 3)
        exps = _whole_levels(table)[3][1]
        assert exps.dtype == np.int32
        for i in (0, 100, 390):
            w = Word.parse(table.word(3, i), 2)
            assert np.array_equal(w.exponent_sums(), exps[i])
