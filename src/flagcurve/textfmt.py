"""CSV rows whose numbers read exactly as Python's ``repr`` writes them.

``csv_bytes`` formats a chunk of columns at once.  ``repr`` of a float is
the shortest digit string that reads back to the same double and, of
those, the one nearest to it, ties to even (Gay's ``dtoa``, mode 0).

Fast path: ±0.0 and finite |x| in [1e-4, 1e16), which ``repr`` writes
positionally.  The digits follow Ryu's interval walk (Adams, PLDI 2018),
done exactly.  With x = mv * 2**e2 (mv = 4m, so the ends of x's rounding
interval are mv - 2, or mv - 1 at a power of two, and mv + 2), Ryu's q
puts x * 10**-(q + e2) at floor(mv * 5**i / 2**q) with i = -e2 - q <= 22:
a product of at most 107 bits, formed from 32-bit limbs in uint64, then
floored by a shift.  Digits are dropped while the interval holds a
multiple of the next power of ten, and the last kept one is rounded to
nearest, ties to even.  In this range an interval end is never a decimal
of 17 or fewer digits, while a 17-digit decimal always lies strictly
inside, so whether the ends are open or closed cannot change the digits;
nor can the rounding pick a truncation that lies below the lower end (x
is then at least halfway to the next candidate, which the interval
holds).  Neither is tracked.

Layout: each float is one row of uint32 quads, 4 ASCII bytes each, with
NUL wherever ``repr`` writes nothing: a separator byte, a sign byte and
the integer part right-aligned, then the point and the fraction
left-aligned.  A chunk's rows of fields, commas and newlines form one
uint8 matrix, and its text is that matrix with every NUL removed.
Fallback: every other float (subnormals, 0 < |x| < 1e-4, |x| >= 1e16,
nan, inf) is written by ``repr`` one at a time into the same bytes.
"""
from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_POW5 = np.array([5 ** i for i in range(23)], dtype=_U)
_LO32 = _U(0xFFFFFFFF)


@functools.cache
def _tables() -> tuple:
    """10**k for k < 19; the 4 ASCII digits of each of 0..9999 as one
    uint32; and, at 9 lo + hi, the uint64 mask of bytes lo..hi-1 of 8."""
    pow10 = _POW5[:19].astype(np.int64) << np.arange(19)
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    d = np.arange(48, 58, dtype=np.uint8)
    quads[..., 0] = d[:, None, None, None]
    quads[..., 1] = d[:, None, None]
    quads[..., 2] = d[:, None]
    quads[..., 3] = d
    at, ends = np.arange(8), np.arange(9)
    runs = ((at >= ends[:, None, None]) & (at < ends[:, None])) * np.uint8(255)
    tables = pow10, quads.view(np.uint32).ravel(), runs.view(np.uint64).ravel()
    for t in tables:
        t.flags.writeable = False
    return tables


def _product(a: np.ndarray, b: np.ndarray) -> tuple:
    """(high, low) uint64 words of a * b, for a < 2**56 and b < 2**53,
    from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LO32, a >> _U(32), b & _LO32, b >> _U(32)
    lo = a0 * b0
    t = (lo >> _U(32)) + a0 * b1 + a1 * b0
    return a1 * b1 + (t >> _U(32)), (t << _U(32)) | (lo & _LO32)


def _interval(a: np.ndarray) -> tuple:
    """(vm, vr, vp, exact, e10) for each a: floor(x * 10**-e10) for the
    lower end x of a's rounding interval, for x = a and for the upper end,
    whether the one for a is exact, and e10 (int64 arrays)."""
    bits = a.view(_U)
    frac = bits & _U((1 << 52) - 1)
    e2 = (bits >> _U(52)).astype(np.int64) - 1077
    q = ((-e2 * 732923) >> 20) - (e2 < -1)  # Ryu: floor(-e2 log10 5) - [-e2 > 1]
    b = _POW5[-e2 - q]
    phi, plo = _product((frac | _U(1 << 52)) << _U(2), b)
    qu = q.astype(_U)
    vr = ((phi << (_U(64) - qu)) | (plo >> qu)).astype(np.int64)
    rv = (plo & ((_U(1) << qu) - _U(1))).astype(np.int64)
    b = b.astype(np.int64)
    vm = vr + ((rv - (1 + (frac != 0)) * b) >> q)
    return vm, vr, vr + ((rv + 2 * b) >> q), rv == 0, q + e2


def _shortest(a: np.ndarray) -> tuple:
    """(digits, exp): each a (positive, 1e-4 <= a < 1e16) reads back from
    the shortest-then-nearest decimal digits * 10**exp, int64 arrays."""
    vm, vr, vp, exact, e10 = _interval(a)
    # k: how many digits can go while (vm, vp] holds a multiple of 10**k;
    # here k >= 1.  Most values lose one to three, so three passes run on
    # every row and only the rows still going are carried on.
    m, p = vm // 10, vp // 10
    k = (p > m).astype(np.int64)
    for _ in range(2):
        m //= 10
        p //= 10
        k += p > m
    live = np.flatnonzero(k == 3)
    m, p = m.take(live), p.take(live)
    while live.size:
        m //= 10
        p //= 10
        more = np.flatnonzero(p > m)
        live, m, p = live.take(more), m.take(more), p.take(more)
        k[live] += 1
    pow10 = _tables()[0]
    below = pow10[k - 1]
    kept = vr // below
    digits = kept // 10
    last = kept - 10 * digits
    exact &= vr == kept * below
    # Round to nearest, ties to even.
    up = (last > 5) | ((last == 5) & ~(exact & ((digits & 1) == 0)))
    return digits + up, e10 + k


def _ascii(v: np.ndarray, out: np.ndarray, quads: np.ndarray) -> None:
    """Write each v < 10**(4 * out.shape[1]) into out as zero-padded ASCII
    digits, 4 to a uint32."""
    for g in range(out.shape[1] - 1, -1, -1):
        high = v // 10000
        out[:, g] = quads[v - 10000 * high]
        v = high


def _float_fields(x: np.ndarray) -> np.ndarray:
    """A uint8 row per float of x that spells its ``repr`` once its NULs
    are dropped; byte 0 is always NUL, free for a separator."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    spelled = fast | (a == 0)
    digits = np.zeros(len(x), dtype=np.int64)
    exp = np.zeros(len(x), dtype=np.int64)
    digits[fast], exp[fast] = _shortest(a[fast])
    pow10, quads, runs = _tables()
    # The integer part, and the fraction, whose -exp digits are places -1..exp.
    cut = pow10[np.minimum(np.maximum(-exp, 0), 18)]
    whole = digits // cut
    frac = digits - whole * cut
    whole *= pow10[np.maximum(exp, 0)]
    width = np.ones(len(x), dtype=np.int64)  # digits of the integer part
    for p in pow10[1:len(str(int(whole.max())))]:
        width += whole >= p
    other = ~spelled
    text = np.array([repr(v) for v in x[other].tolist()], dtype="S")
    # ints quads: a separator byte, a sign byte and the integer part
    # right-aligned; fracs quads: the point and the fraction left-aligned
    # in 4 * fracs - 1 places (as high * 10**8 + low); padding to whole
    # uint64 words.  The fallback text takes the same bytes.
    ints = (int(width.max()) + 5) // 4
    fracs = max((int(-exp.min()) + 4) // 4, 2)
    span = max(ints + fracs, (text.itemsize + 4) // 4)
    shift = 4 * fracs - 1 + np.minimum(exp, 0)
    cut = pow10[np.maximum(8 - shift, 0)]
    high = frac // cut
    low = (frac - high * cut) * pow10[np.minimum(shift, 8)]
    high *= pow10[np.maximum(shift - 8, 0)]
    out = np.empty((len(x), span + span % 2), dtype=np.uint32)
    _ascii(whole, out[:, :ints], quads)
    _ascii(high, out[:, ints:ints + fracs - 2], quads)
    _ascii(low, out[:, ints + fracs - 2:ints + fracs], quads)
    # repr writes the integer part without leading zeros and the fraction
    # without trailing ones, each at least one digit: one run of bytes,
    # kept 8 bytes at a time by a mask from the table of runs.
    point = 4 * ints
    first = np.where(spelled, point - width, 8 * out.shape[1])
    last = point + 1 + np.maximum(-exp, 1)
    words = out.view(np.uint64)
    for w in range(words.shape[1]):
        lo = np.minimum(np.maximum(first - 8 * w, 0), 8)
        hi = np.minimum(np.maximum(last - 8 * w, 0), 8)
        words[:, w] &= runs[9 * lo + hi]
    out = out.view(np.uint8)
    out[:, point] = spelled * np.uint8(ord("."))
    out[:, 1] = (np.signbit(x) & spelled) * np.uint8(ord("-"))
    out[other, 1:1 + text.itemsize] = text.view(np.uint8).reshape(len(text), text.itemsize)
    return out


def csv_bytes(columns) -> bytes:
    """The CSV rows of equal-length 1-D columns, each row ending in a
    newline: a float64 column's fields read as ``repr`` of its values, a
    byte-string column's as its bytes."""
    rows = len(columns[0])
    if not rows:
        return b""
    floats = [c for c in columns if c.dtype.kind == "f"]
    if floats:
        fields = _float_fields(np.column_stack(floats).ravel()).reshape(rows, len(floats), -1)
        fields[:, :, 0] = ord(",")
    pieces, f = [], 0
    for c in columns:
        if c.dtype.kind == "f":
            pieces.append(fields[:, f])
            f += 1
        else:
            piece = np.empty((rows, 1 + c.itemsize), dtype=np.uint8)
            piece[:, 0] = ord(",")
            piece[:, 1:] = c.view(np.uint8).reshape(rows, -1)
            pieces.append(piece)
    pieces.append(np.full((rows, 1), ord("\n"), dtype=np.uint8))
    text = np.concatenate(pieces, axis=1).ravel()
    text[0::len(text) // rows] = 0  # no separator opens a row
    return text[text != 0].tobytes()
