"""The ball streamed in row blocks: every result is bit for bit the same
whatever the block size, and the spectral pipelines stay within a fixed
number of bytes per ball word."""

import dataclasses
import math
from functools import lru_cache, partial
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcurve import (
    Flag,
    anosov_rates,
    certify_anosov,
    coboundary_radial,
    fit_delta,
    generator_values,
    probe_explicit,
    pushforward_deviation,
    recurrence_experiment,
    regularity_diagnostics,
    sample_limit_curve,
    standard_fuchsian,
)
from flagcurve import ball, reps
from flagcurve.ball import BallTable
from flagcurve.errors import FlagCurveError, NonLoxodromicEncountered
from flagcurve.surface import batch_translation_lengths, letter_name

from oracles import Word, ball_count

RADIUS = 4

# An integer SL(3) matrix and its inverse: conjugating the radial spec by
# it moves [e2] off the coordinate axes (the generic eigenvector path).
CONJ = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=float)
CONJ_INV = np.array([[3, -2, 1], [-2, 2, -1], [1, -1, 1]], dtype=float)


# Classes with several nonzero values, so that u(w) is a sum whose
# rounding depends on how it is evaluated.
@pytest.fixture(scope="module")
def radial(seed2):
    u = generator_values({"a1": 0.3, "b2": -0.2}, "u", 2)
    return coboundary_radial(reps.linear_u(seed2, u=u), 0.4, -0.2)


@pytest.fixture(scope="module")
def refuted(seed2):
    t_b2 = float(batch_translation_lengths(seed2.generators[3][None])[1][0])
    u = generator_values({"a1": 0.1, "b1": -0.15, "b2": 0.6 * t_b2}, "u", 2)
    return reps.linear_u(seed2, u=u)


@pytest.fixture(scope="module")
def explicit(seed2, radial):
    mats = tuple(CONJ @ g @ CONJ_INV for g in radial.generator_images())
    return reps.explicit(seed2, matrices=mats)


def _same(a, b) -> bool:
    """Bit-for-bit equality of nested dataclasses, sequences, arrays and
    scalars."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def _runs(radial, refuted, explicit) -> dict:
    s = 1.0 / math.sqrt(2.0)
    base = Flag.of((s, s, 0.0), (s, -s, 0.0))
    model = sample_limit_curve(radial, RADIUS)
    return {
        "certify_radial": certify_anosov(radial, RADIUS),
        "certify_refuted": certify_anosov(refuted, RADIUS),
        "probe": probe_explicit(explicit, RADIUS),
        "curve": model,
        "recurrence": recurrence_experiment(radial, base, 0.05, RADIUS, model),
    }


@pytest.fixture(scope="module")
def default_runs(radial, refuted, explicit):
    runs = _runs(radial, refuted, explicit)
    assert runs["certify_refuted"].refuting_witness is not None
    assert runs["certify_radial"].rates is not None
    return runs


@pytest.mark.parametrize("rows", [1, 5, 10 ** 6])
def test_results_do_not_depend_on_block_size(monkeypatch, radial, refuted, explicit,
                                             default_runs, rows):
    want = default_runs
    monkeypatch.setattr(ball, "BLOCK_ROWS", rows)
    got = _runs(radial, refuted, explicit)
    for key in want:
        assert _same(got[key], want[key]), key


def test_recurrence_derives_no_seed_data(monkeypatch, radial, default_runs):
    # The recurrence reads only the 3x3 images, so it streams no seed
    # images or exponent sums.
    def derived(*args):
        raise AssertionError("seed data derived")

    monkeypatch.setattr(BallTable, "seed_images", derived)
    monkeypatch.setattr(BallTable, "exponent_sums", derived)
    s = 1.0 / math.sqrt(2.0)
    base = Flag.of((s, s, 0.0), (s, -s, 0.0))
    got = recurrence_experiment(radial, base, 0.05, RADIUS, default_runs["curve"])
    assert _same(got, default_runs["recurrence"])


def test_images_only_readers_derive_no_exponent_sums(monkeypatch, radial, explicit,
                                                     default_runs):
    # The sampler and the probe name only the 3x3 images, so they stream
    # no exponent sums.
    def derived(*args):
        raise AssertionError("exponent sums derived")

    monkeypatch.setattr(BallTable, "exponent_sums", derived)
    assert _same(sample_limit_curve(radial, RADIUS), default_runs["curve"])
    assert _same(probe_explicit(explicit, RADIUS), default_runs["probe"])


@pytest.mark.parametrize("rows", [5, 4096])
def test_certify_walks_each_class_block_once(monkeypatch, radial, refuted, rows):
    # The class pass reads each top-level block's letters up the parents
    # once, to pick its least words and their class sizes; every other
    # walk names a witness.
    monkeypatch.setattr(ball, "BLOCK_ROWS", rows)
    walk, name = BallTable.word_letters, BallTable.word
    walks, names = [], []

    def counted_walk(self, level, idx):
        walks.append(level)
        return walk(self, level, idx)

    def counted_name(self, level, i):
        names.append(level)
        return name(self, level, i)

    monkeypatch.setattr(BallTable, "word_letters", counted_walk)
    monkeypatch.setattr(BallTable, "word", counted_name)
    top = 8 * 7 ** (RADIUS - 1)
    for spec in (radial, refuted):
        walks.clear()
        names.clear()
        certify_anosov(spec, RADIUS)
        assert names
        assert len(walks) == -(-top // rows) + len(names)


@lru_cache(maxsize=None)
def _level_classes(genus: int, length: int) -> tuple:
    """(table, letters, kept, sizes): a ball of radius ``length``, its top
    level's words as an (n, length) letter array read off the parents,
    and the rows and weights of the top level's blocks on the class pass
    of ``blocks``."""
    table = BallTable.build(standard_fuchsian(genus), length)
    n = len(table.letters(length))
    letters = np.empty((n, length), dtype=np.int8)
    up = np.arange(n)
    for k in range(length, 0, -1):
        letters[:, k - 1] = table.letters(k)[up]
        up = up // (4 * genus - 1)
    top = [(rows, weight) for level, rows, weight in table.blocks(classes=True)
           if level == length]
    return table, letters, *(np.concatenate(col) for col in zip(*top))


@settings(max_examples=60, deadline=None)
@given(genus=st.sampled_from([2, 3]), length=st.integers(1, 6), data=st.data())
def test_rotation_classes_partition_the_cyclically_reduced_words(genus, length, data):
    table, letters, kept, sizes = _level_classes(genus, length)
    # Cyclically reduced words of length L in the free group on n = 2g
    # letters: (2n-1)^L + 1 + (n-1)(1 + (-1)^L).
    n = 2 * genus
    reduced = letters[:, 0] != letters[:, -1] ^ 1
    assert reduced.sum() == (2 * n - 1) ** length + 1 + (n - 1) * (1 + (-1) ** length)
    assert sizes.sum() == reduced.sum()
    assert reduced[kept].all() and (np.diff(kept) > 0).all()
    # Every kept word is below or equal to each of its rotations, and its
    # size is its least period.
    words = letters[kept]
    period = np.full(len(kept), length)
    for s in range(1, length):
        rot = np.roll(words, -s, axis=1)
        differ = rot != words
        first = differ.argmax(axis=1)
        rows = np.arange(len(kept))
        assert (~differ.any(axis=1) | (rot[rows, first] > words[rows, first])).all()
        period[~differ.any(axis=1) & (period == length)] = s
    assert np.array_equal(sizes, period)
    # A drawn word: kept exactly when it is cyclically reduced and the least
    # of its rotations, whose class size counts its distinct rotations.
    i = data.draw(st.integers(0, len(letters) - 1))
    word = tuple(letters[i].tolist())
    pos = int(np.searchsorted(kept, i))
    is_kept = pos < len(kept) and kept[pos] == i
    rots = {word[s:] + word[:s] for s in range(length)}
    assert is_kept == (bool(reduced[i]) and word == min(rots))
    if is_kept:
        assert sizes[pos] == len(rots)


def _least_rotation(name: str, genus: int) -> str:
    """Display string of the least rotation of a word."""
    w = Word.parse(name, genus).letters
    return ".".join(map(letter_name, min(w[s:] + w[:s] for s in range(len(w)))))


def _per_word(monkeypatch):
    """Make every class pass read each cyclically reduced top-level word,
    each standing for itself."""
    monkeypatch.setattr(BallTable, "least_rotations",
                        lambda self, level, rows: (rows, np.ones(len(rows), dtype=np.int64)))


@pytest.mark.parametrize("radius", [4, 5])
def test_class_pass_matches_per_word_pass(monkeypatch, seed2, radial, refuted, explicit,
                                          radius):
    # The criterion and the gaps are conjugacy invariants, so scoring one
    # word a rotation class changes values only in their last bits: a
    # class's float values come from its least word.  Counts still count
    # words, and a top-level witness is its class's least word.
    def witness(got, want):
        if want is None or want.count(".") + 1 < radius:
            return got == want
        return got == _least_rotation(want, 2)

    # u = c(a1* - b1* + a2* - b2*) puts the stable-norm witness, and at
    # c = 0.77 the refutation, on a1.B1.a2.B2, a top-level word at R=4.
    specs = (radial, refuted) + tuple(
        reps.linear_u(seed2, u=generator_values(
            {"a1": c, "b1": -c, "a2": c, "b2": -c}, "u", 2)) for c in (0.1, 0.77))
    classed = [certify_anosov(s, radius) for s in specs], probe_explicit(explicit, radius)
    with monkeypatch.context() as m:
        _per_word(m)
        words = [certify_anosov(s, radius) for s in specs], probe_explicit(explicit, radius)
    for got, want in zip(classed[0], words[0]):
        assert (got.verdict, got.n_scored, got.saddle_ratio_tests_agree) == \
            (want.verdict, want.n_scored, want.saddle_ratio_tests_agree)
        g, w = got.stable_norm_estimate, want.stable_norm_estimate
        assert g.value == pytest.approx(w.value, rel=1e-12)
        assert witness(g.witness, w.witness)
        assert [lv for lv, _ in g.history] == [lv for lv, _ in w.history]
        assert [v for _, v in g.history] == pytest.approx([v for _, v in w.history], rel=1e-12)
        assert witness(got.refuting_witness, want.refuting_witness)
        assert (got.rates is None) == (want.rates is None)
        if got.rates is not None:
            assert got.rates.n_elements == want.rates.n_elements
            assert got.rates.inf_top_gap == pytest.approx(want.rates.inf_top_gap, rel=1e-12)
            assert got.rates.inf_bottom_gap == pytest.approx(want.rates.inf_bottom_gap,
                                                             rel=1e-12)
    got, want = classed[1], words[1]
    assert (got.n_scored, got.loxodromy_rate) == (want.n_scored, want.loxodromy_rate)
    assert got.inf_top_gap == pytest.approx(want.inf_top_gap, rel=1e-12)
    assert got.inf_bottom_gap == pytest.approx(want.inf_bottom_gap, rel=1e-12)
    linear = reps.linear_u(seed2, u=radial.u)
    assert (certify_anosov(linear, radius).stable_norm_estimate
            == classed[0][0].stable_norm_estimate)
    assert anosov_rates(radial, radius) == classed[0][0].rates


def test_a_level_maximum_lies_past_its_first_block(monkeypatch, refuted):
    # The per-level maximum of _scan must be the first maximum over every
    # block of the level; at 5 rows a block, some level's lies in a later
    # block than the first one it yields.
    monkeypatch.setattr(ball, "BLOCK_ROWS", 5)
    table = BallTable.build(refuted.seed, RADIUS)
    maxima = {}
    for level, _idx, _weight, t, _mats, exps in table.scored(0.0, table.exponent_sums):
        r = np.abs(exps @ np.array(refuted.u)) / t
        maxima.setdefault(level, []).append(r.max())
    assert any(np.argmax(m) > 0 for m in maxima.values())


@pytest.mark.parametrize("rows", [1, 5, 10 ** 6])
def test_degenerate_and_empty_rates(monkeypatch, seed2, rows):
    # u(b2) = t(b2)/2 puts the [e2] eigenvalue of b2 on the top one: the
    # rates name b2 as non-loxodromic and certify refutes at b2, whatever
    # the block size; a length filter that keeps no word has no rates.
    monkeypatch.setattr(ball, "BLOCK_ROWS", rows)
    t_b2 = float(batch_translation_lengths(seed2.generators[3][None])[1][0])
    spec = reps.linear_u(seed2, u=generator_values({"b2": 0.5 * t_b2}, "u", 2))
    with pytest.raises(NonLoxodromicEncountered, match="'b2'"):
        anosov_rates(spec, 3)
    res = certify_anosov(spec, 3)
    assert (res.verdict, res.refuting_witness, res.rates) == ("refuted", "b2", None)
    with pytest.raises(FlagCurveError, match="^no elements pass the length filter$"):
        anosov_rates(spec, 3, min_length=1e9)


def test_built_table_holds_only_letters(seed2):
    # A built table keeps each level's int8 last letters, 1 B a word;
    # parents and first letters have closed forms, and seed data and
    # images are derived as the ball is read (parent indices took it to
    # 9 B).
    radius = 6
    tracemalloc.start()
    try:
        table = BallTable.build(seed2, radius)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.radius == radius
    assert held <= ball_count(2, radius) + 16384


@pytest.mark.parametrize("command", ["probe", "certify"])
def test_streamed_peak_memory(radial, explicit, command):
    # The last level's seed data and 3x3 images and the eigen temporaries
    # are O(block), and certify keeps only running extrema of its ratios:
    # the traced peak of a whole run, its own ball included, stays within
    # 42 B a ball word at genus 2, R=6 (35.5 and 35.0 B now; parent
    # indices took it to 43.5 B, certify's per-word ratios to 55.5 B, the
    # whole last level kept to 113 and 122 B).
    radius = 6
    tracemalloc.start()
    try:
        if command == "probe":
            probe_explicit(explicit, radius)
        else:
            certify_anosov(radial, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42 * ball_count(2, radius)


def _sampler_peak(spec, radius, **kwargs):
    """The sampled model and the traced peak of sampling it."""
    tracemalloc.start()
    try:
        model = sample_limit_curve(spec, radius, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return model, peak


def test_sampled_curve_peak_memory(radial):
    # The sampler keeps one (level, index) id a sample, names no word and
    # reads the last level's seed images a block at a time: at genus 2,
    # R=6 its traced peak with every column, its own ball included, stays
    # within 160 B a ball word (106 B now; greedy_thin's index arrays took
    # it to 112 B, one for each run of two to 116 B, parent indices to
    # 124 B, the whole last level kept to 177 B, and word strings to
    # 250 B).
    model, peak = _sampler_peak(radial, 6)
    assert len(model) > 10 ** 5
    assert peak < 160 * ball_count(2, 6)


def test_points_only_sampler_peak_memory(radial):
    # Only the columns named are allocated and gathered: with the points
    # alone, as delta and regularity read them, the traced peak stays
    # within 72 B a ball word at genus 2, R=6 (65 B now; every column,
    # which both commands sampled before, took it to 112 B).
    model, peak = _sampler_peak(radial, 6, columns=("points",))
    assert len(model) > 10 ** 5
    assert peak < 72 * ball_count(2, 6)


@pytest.fixture(scope="module")
def radial_points6(radial):
    return sample_limit_curve(radial, 6, columns=("points",))


def test_delta_fit_memory(radial, radial_points6):
    # The fit and the pushforward read the model a slice at a time, and
    # beyond it hold only the angles, their values, sort order and sorted
    # copy whole, with one run of antipodes: at genus 2, R=6 their traced
    # rise over the model stays within 48 B a sample (33 B now; sorting
    # all 2n angles and antipodes took it to 64 B, whole-sample
    # temporaries to 120 B).
    model = radial_points6
    tracemalloc.start()
    try:
        fit = fit_delta(radial, model)
        pushforward_deviation(model, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model) > 10 ** 5
    assert peak < 48 * len(model)


def test_regularity_memory(radial_points6):
    # Gaps, distances and secants are taken a slice at a time, and only
    # the usable pairs' logs are held whole for np.polyfit, which copies
    # them: at genus 2, R=6 the traced rise over the model stays within
    # 72 B a sample (64 B now; whole-sample temporaries took it to 89 B).
    model = radial_points6
    tracemalloc.start()
    try:
        regularity_diagnostics(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model) > 10 ** 5
    assert peak < 72 * len(model)


def test_matmul3_matches_einsum(rng):
    # Normal stacks, and small-integer stacks with signed zeros, whose zero
    # sums einsum returns as +0.
    signs = rng.choice([-1.0, 1.0], size=(2, 20000, 3, 3))
    ints = rng.integers(-1, 2, size=(2, 20000, 3, 3)) * signs
    for a, b in (rng.normal(size=(2, 1000, 3, 3)), ints, ints[:, :1]):
        want = np.einsum("nij,njk->nik", a, b)
        assert ball.matmul3(a, b).tobytes() == want.tobytes()


def test_images3_matches_einsum_on_a_genus3_level():
    seed3 = standard_fuchsian(3)
    u = generator_values({"a1": 0.3, "b3": -0.1}, "u", 3)
    spec = coboundary_radial(reps.linear_u(seed3, u=u), 0.4, -0.2)
    letter_images = spec.letters
    table = BallTable.build(seed3, 5)
    stacks = {}
    for level, _rows, _weight, imgs in table.blocks(partial(table.images3, letter_images)):
        stacks.setdefault(level, []).append(imgs)
    prev, got = np.concatenate(stacks[4]), np.concatenate(stacks[5])
    # Word i of a level extends word i // (4g-1) of the level below.
    parents = np.arange(len(got)) // 11
    want = np.einsum("nij,njk->nik", prev[parents], letter_images[table.letters(5)])
    want /= np.cbrt(np.linalg.det(want))[:, None, None]
    assert got.tobytes() == want.tobytes()
