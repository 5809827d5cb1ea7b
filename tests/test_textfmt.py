"""``textfmt.csv_bytes`` against Python's ``repr``, its oracle."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcurve.textfmt import csv_bytes

TINY = 2.2250738585072014e-308  # least normal double


def reprs(values) -> bytes:
    return "".join(f"{v!r}\n" for v in values).encode()


def around(values) -> list:
    """values, their negatives and their nextafter neighbours."""
    out = []
    for v in values:
        for w in (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)):
            out += [w, -w]
    return out


# The fast path's range [1e-4, 1e16) and every float class outside it.
EDGES = around([0.0, 5e-324, TINY, 1e-4, 1e16, 1.0, 0.1, 0.5, 2.0 ** 53, 1e308]) + [
    math.nan, -math.nan, math.inf, -math.inf, 1.7976931348623157e308]
POWERS = around([2.0 ** k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
# Shortest digits that tie: x halfway between its two nearest shortest
# candidates, which repr rounds to the even one (2**49 + 0.25 reads
# 562949953421312.2, 2**49 + 0.75 reads 562949953421312.8).
TIES = around([2.0 ** 49 + j / 4 for j in range(1, 40, 2)]
              + [2.0 ** 50 + j / 4 for j in range(1, 40, 2)]
              + [2.0 ** 46 + j / 8 for j in range(1, 80, 2)])


def test_edges_powers_and_ties():
    for values in (EDGES, POWERS, TIES):
        assert csv_bytes([np.array(values)]) == reprs(values)


def test_random_bit_patterns():
    # 2**20 patterns with random sign and mantissa bits and an exponent
    # field from 2**-23 to 2**66, which straddles the fast path's range,
    # then 2**16 patterns with every bit random (most fall back to repr).
    rng = np.random.default_rng(20181)
    for chunk in range(17):
        bits = rng.integers(0, 2 ** 64, 1 << 16, dtype=np.uint64)
        if chunk < 16:
            field = rng.integers(1000, 1090, 1 << 16).astype(np.uint64)
            bits = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (field << np.uint64(52))
        x = bits.view(np.float64)
        assert csv_bytes([x]) == reprs(x.tolist())


def test_random_magnitudes():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1 << 16) * 10.0 ** rng.integers(-6, 18, 1 << 16)
    assert csv_bytes([x]) == reprs(x.tolist())


def from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


floats = st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(from_bits),
                   st.sampled_from(EDGES + TIES))


@settings(max_examples=300, deadline=None)
@given(st.lists(floats, max_size=40))
def test_matches_repr(values):
    assert csv_bytes([np.array(values, dtype=float)]) == reprs(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(floats, st.sampled_from(["a1", "B2.a1", ""]), floats), max_size=20))
def test_rows_join_columns(rows):
    x, words, y = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    got = csv_bytes([np.array(x, dtype=float), np.array(words, dtype="S"),
                     np.array(y, dtype=float)])
    assert got == "".join(f"{a!r},{w},{b!r}\n" for a, w, b in rows).encode()


def test_chunk_shapes():
    assert csv_bytes([np.array([])]) == b""
    assert csv_bytes([np.array([0.25]), np.array([b"a1"]), np.array([-0.0])]) == b"0.25,a1,-0.0\n"
    only_fallback = [math.nan, 1e-5, -1e300, 5e-324, math.inf, 1e16]
    assert csv_bytes([np.array(only_fallback)]) == reprs(only_fallback)
    x = np.array(only_fallback + [0.0, 1.5])
    assert csv_bytes([x, x[::-1].copy()]) == "".join(
        f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), x[::-1].tolist())).encode()
