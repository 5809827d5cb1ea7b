"""The block-pruned crossing kernel against the dense reference kernel.

The reference builds the full (n_points, n_lines) pairing matrix and scans
it.  Integer and dyadic data make every dot product exact, so both kernels
see the same values whatever their summation order.  The block size is
patched down to 1, 2 and 3, and the superblock size to 1, 2 and 3 blocks,
so that block and superblock edges, the padding and the seam fall
everywhere.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flagcurve import coboundary_radial, curve, generator_values, reps, standard_fuchsian
from flagcurve.curve import crossing_counts, sample_limit_curve

BLOCKS = (1, 2, 3, curve._BLOCK)
SUPERS = (1, 2, 3, curve._SUPER)


def crossings_from_pairings(pair: np.ndarray, sigma: np.ndarray, ztol: float):
    """Dense reference: crossing counts from a precomputed pairing matrix.

    The bulk count XORs adjacent lifted sign bits; entries snapped to zero
    (|pairing| <= ztol) void their two adjacent pairs, and each zero run
    is bridged scalar-wise: flanking lifted signs alternating across the
    run is a crossing, agreeing is a tangency.

    Returns (crossings, tangencies, all_zero), one entry per column.
    """
    n = pair.shape[0]
    lift_neg = np.zeros(n, dtype=bool)
    lift_neg[1:] = np.cumsum(sigma[:-1] < 0) % 2 == 1
    monodromy_neg = bool(lift_neg[-1]) ^ bool(sigma[-1] < 0)
    neg = pair < 0
    neg ^= lift_neg[:, None]
    nz = pair > ztol
    nz |= pair < -ztol
    flips = (neg[:-1] ^ neg[1:]) & nz[:-1] & nz[1:]
    crossings = flips.sum(axis=0, dtype=np.int64)
    crossings += (neg[-1] ^ neg[0] ^ monodromy_neg) & nz[-1] & nz[0]
    tangencies = np.zeros(pair.shape[1], dtype=np.int64)
    all_zero = ~nz.any(axis=0)
    zrows_all, zcols_all = np.nonzero(~nz)
    order = np.argsort(zcols_all, kind="stable")  # group zeros by column
    zc, zr = zcols_all[order], zrows_all[order]
    starts = np.searchsorted(zc, np.arange(pair.shape[1]))
    ends = np.searchsorted(zc, np.arange(pair.shape[1]), side="right")
    for j in np.unique(zc):
        if all_zero[j]:
            continue
        zrows = zr[starts[j]:ends[j]]
        runs = np.split(zrows, np.nonzero(np.diff(zrows) > 1)[0] + 1)
        if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
            runs[0] = np.concatenate([runs[-1], runs[0]])
            runs.pop()
        negj = neg[:, j]
        for run in runs:
            a = (int(run[0]) - 1) % n
            b = (int(run[-1]) + 1) % n
            # bridging forward from a to b crosses the seam iff b <= a
            flip = bool(negj[a] ^ negj[b]) ^ (monodromy_neg if b <= a else False)
            if flip:
                crossings[j] += 1
            else:
                tangencies[j] += 1
    crossings[all_zero] = 0
    return crossings, tangencies, all_zero


def segment_signs(points):
    """Signs of consecutive representative dot products (cyclic)."""
    return np.sign(np.einsum("ij,ij->i", points, np.roll(points, -1, axis=0)))


def negative_monodromy(points):
    return np.count_nonzero(segment_signs(points) < 0) % 2 == 1


def assert_matches_dense(points, lines, ztol, block, pairs=None):
    """Check the pruned kernel against the dense one at every superblock
    size of SUPERS, with its line chunks sized by the default coarse byte
    budget, and at the default superblock again with one line a chunk."""
    want = crossings_from_pairings(points @ lines.T, segment_signs(points), ztol)
    runs = [(sup, curve._COARSE_BYTES) for sup in SUPERS] + [(curve._SUPER, 1)]
    for sup, coarse_bytes in runs:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curve, "_BLOCK", block)
            mp.setattr(curve, "_SUPER", sup)
            mp.setattr(curve, "_COARSE_BYTES", coarse_bytes)
            if pairs is not None:
                mp.setattr(curve, "_PAIRS", pairs)
            got = crossing_counts(points, lines, ztol)
        for name, g, w in zip(("crossings", "tangencies", "all_zero"), got, want):
            np.testing.assert_array_equal(
                g, w, err_msg=f"{name}, block {block}, super {sup}, pairs {pairs}, "
                              f"bytes {coarse_bytes}")
    return got


def dyadic(arr, bits=16):
    return np.round(np.asarray(arr, dtype=float) * 2.0**bits) / 2.0**bits


def half_circle(y):
    """Points (cos t, y, sin t) for t in [0, pi), sign-canonicalized so that
    the x coordinate is nonnegative: the lift flips mid-curve and the
    monodromy is negative."""
    n = len(y)
    t = math.pi * np.arange(n) / n
    pts = dyadic(np.stack([np.cos(t), y, np.sin(t)], axis=1))
    pts[pts[:, 0] < 0] *= -1.0
    return pts


def wave(n, freq=3, amp=0.3):
    return dyadic(amp * np.sin(freq * math.pi * (np.arange(n) + 0.5) / n))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 70),
    k=st.integers(1, 6),
    block=st.sampled_from(BLOCKS),
)
def test_matches_dense_on_integer_data(data, n, k, block):
    # Small integers give many exact zeros, zero runs, antipodal flips and
    # orthogonal neighbours (a zero consecutive sign).
    small = st.integers(-2, 2)
    points = data.draw(arrays(np.float64, (n, 3), elements=small))
    lines = data.draw(arrays(np.float64, (k, 3), elements=small))
    assert_matches_dense(points, lines, 0.5, block)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 200),
    block=st.sampled_from(BLOCKS),
    scale=st.sampled_from([1e-3, 1.0, 7.5, 1e3]),
)
def test_matches_dense_on_smooth_curve(data, n, block, scale):
    y = data.draw(arrays(np.float64, n, elements=st.sampled_from([-0.25, 0.0, 0.25])))
    points = half_circle(np.where(np.arange(n) % 5 == 0, y, wave(n)))
    lines = dyadic(np.array([[0.0, scale, 0.0], [0.0, -scale, 0.5 * scale],
                             [scale, 0.0, 0.0], [0.25, scale, -0.5]]))
    assert_matches_dense(points, lines, 1e-9, block)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", [1, 2, 5, 31, 33, 64, 65, 96, 301])
def test_sizes_around_the_block(n, block, rng):
    points = half_circle(wave(n, freq=5))
    lines = dyadic(np.vstack([rng.normal(size=(6, 3)), [[0.0, 2.0, 0.0]]]))
    assert_matches_dense(points, lines, 1e-9, block)


@pytest.mark.parametrize("block", BLOCKS)
def test_planted_zero_runs(block):
    n = 240
    y = wave(n, freq=1, amp=0.25)  # one sign change of y, at the seam
    edge = block * (n // 2 // block)
    y[edge - 1:edge + 2] = 0.0             # straddles a block boundary
    y[n // 2 + 20:n // 2 + 24] = 0.0       # inside a block, y > 0 on both sides
    y[n - 2:] = 0.0                        # straddles the seam with rows 0, 1
    y[:2] = 0.0
    points = half_circle(y)
    assert negative_monodromy(points)
    lines = np.array([[0.0, 1.0, 0.0], [0.0, -3.5, 0.0], [0.0, 1e-3, 0.0]])
    cross, tang, all_zero = assert_matches_dense(points, lines, 1e-9, block)
    # The seam run bridges the antipodal flip (a crossing); the other two
    # runs sit where y keeps its sign (tangencies).
    np.testing.assert_array_equal(cross, [1, 1, 1])
    np.testing.assert_array_equal(tang, [2, 2, 2])
    assert not all_zero.any()


@pytest.mark.parametrize("block", BLOCKS)
def test_all_zero_and_tangent_lines(block):
    n = 100
    points = half_circle(np.zeros(n))
    lines = np.array([
        [0.0, 1.0, 0.0],     # contains every point
        [0.0, 0.0, 0.0],     # the zero covector
        [0.0, 0.0, 1.0],     # meets the curve at row 0 only
        [1.0, 0.0, 0.0],     # meets it at row n/2 only
        [0.5, 2.0, -0.25],
    ])
    cross, tang, all_zero = assert_matches_dense(points, lines, 1e-9, block)
    np.testing.assert_array_equal(all_zero, [True, True, False, False, False])
    np.testing.assert_array_equal(cross[:2], [0, 0])
    np.testing.assert_array_equal(cross[2:], [1, 1, 1])
    np.testing.assert_array_equal(tang, [0, 0, 0, 0, 0])


@pytest.fixture(scope="module")
def models(canonical2, seed2):
    u = generator_values({"a1": 0.3}, "u", 2)
    radial = coboundary_radial(reps.linear_u(seed2, u=u), 0.4, -0.2)
    return [sample_limit_curve(canonical2, 4), sample_limit_curve(radial, 4)]


@pytest.mark.parametrize("block", BLOCKS)
def test_matches_dense_on_sampled_curves(models, block, rng):
    for model in models:
        assert negative_monodromy(model.points)
        extra = rng.normal(size=(16, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(16, 1))
        lines = np.vstack([model.lines, extra])
        cross, tang, all_zero = assert_matches_dense(model.points, lines, 1e-9, block)
        assert (cross[:len(model)] == 1).all()


@pytest.mark.parametrize("pairs", [1, 7, 10 ** 6])
def test_pair_slices_match_dense(models, pairs, rng):
    # The exact pass evaluates the flagged (block, line) pairs ``pairs``
    # at a time: at 1 and 7 the slice edges cut through zero runs, the
    # seam and the lines of a sampled curve.
    for block in (2, curve._BLOCK):
        y = wave(240, freq=1, amp=0.25)
        y[100:105] = 0.0
        y[238:] = 0.0
        y[:2] = 0.0
        lines = np.array([[0.0, 1.0, 0.0], [0.0, -3.5, 0.0], [0.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0], [0.5, 2.0, -0.25]])
        assert_matches_dense(half_circle(y), lines, 1e-9, block, pairs)
    for model in models:
        extra = rng.normal(size=(16, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(16, 1))
        lines = np.vstack([model.lines[::7], extra])
        cross, _, _ = assert_matches_dense(model.points, lines, 1e-9, curve._BLOCK, pairs)
        assert (cross[:-16] == 1).all()


def test_peak_memory_on_a_15948_sample_curve():
    # The first level's (lines, superblocks) arrays and the exact pass's
    # _PAIRS slices bound the working set.  On the genus-3 radial curve at
    # R=4 (15,948 samples, every line checked) the traced peak is 2.09 MiB;
    # the flat pass over every block start took it to 2.40 MiB.
    seed3 = standard_fuchsian(3)
    radial = coboundary_radial(reps.linear_u(seed3, u=generator_values({"a1": 0.3}, "u", 3)),
                               0.4, -0.2)
    model = sample_limit_curve(radial, 4, columns=("points", "lines"))
    assert len(model) == 15948
    tracemalloc.start()
    try:
        cross, tang, all_zero = crossing_counts(model.points, model.lines, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cross == 1).all() and not tang.any() and not all_zero.any()
    assert peak < 2.2 * 2 ** 20
