"""Vectorized enumeration of group balls.

The ball of freely reduced words is materialized level by level as flat
numpy arrays.  Level 1 holds the 4g letters in order, and level L appends
every letter in order to each word of level L-1 but the inverse of its
last (``BallTable.build``).  Since level L-1 is in shortlex order, so is
level L.  A ``BallTable`` keeps only each level's int8 last letters, 1 B
a word: every word has 4g-1 children, in order, so word i of a level of
n words extends word i // (4g-1) of the level below and has first letter
i // (n / 4g).

Everything else about a word is derived as the ball is read.
``BallTable.blocks(*fields)`` streams every level in blocks of at most
BLOCK_ROWS words, each an int64 index array of rows of the level, with
the fields its reader names: seed images (``seed_images``), exponent
sums (``exponent_sums``) or, given a representation, 3x3 images
(``images3``).  A field is derived from its own values over the whole
level below by row-wise products, so a block's rows are the same bits
whatever the block size; only the last level's values, (4g-2)/(4g-1) of
the ball, exist one block at a time.

``BallTable.word_letters`` is the one walk from a word's index up its
parents to its letters.  ``BallTable.word_strings`` is the one naming
kernel: it returns an ``S`` array; ``word`` is its n=1 wrapper, and
``WordIds`` names a sequence of (level, index) ids only when read.

``BallTable.scored(min_length, *fields)`` is the one word selection of
every spectral pipeline: the nontrivial cyclically reduced words above a
translation-length floor, with the seed images that give it and the
fields its reader names.  A spectral quantity is a conjugacy invariant,
and a cyclically reduced word is conjugate to its rotations, so with
rotation classes the top level is read only at the least word of each
class, weighted by its class size; one pass over each block's rotation
codes (``least_rotations``) picks the words and gives the sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .errors import NotHyperbolic
from .surface import FuchsianSeed, batch_translation_lengths, letter_name

# A word whose seed image is within this of +-I (entrywise) is taken to be
# trivial in the group.  Every nontrivial element of a Fuchsian group is
# hyperbolic and so stays far from +-I, while the relator images of a valid
# seed sit within its 1e-8 residual, times conjugation.
TRIVIAL_TOL = 1e-6

# Words per block of ``BallTable.blocks``, and sample rows per slice of
# the regularity and delta fits: bounds the last level's image stacks, the
# temporaries of every kernel applied to them and the fits' per-sample
# temporaries.  Readers read it through this module, at call time.
BLOCK_ROWS = 1 << 12

# Default seed translation-length floor of curve samples and gap rates.
DEFAULT_MIN_LENGTH = 0.5


def rowwise_dot(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``rows @ vec``, ``vec`` a vector or a matrix, with each row rounded
    the same way whatever the number of rows: numpy evaluates a one-row
    product as a dot or vector-matrix product, whose rounding differs from
    the product it uses for two rows or more, so a single row is evaluated
    as a two-row stack."""
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ vec)[:1]
    return rows @ vec


def matmul3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, 3, 3) products a[k] @ b[k] as three broadcast terms, added
    in order: the same bits as ``np.einsum("nij,njk->nik", a, b)`` in
    about half its time.  einsum adds the terms to a zeroed output, so a
    zero sum is +0 there; the final +0.0 makes it +0 here too."""
    out = a[:, :, :1] * b[:, :1]
    out += a[:, :, 1:2] * b[:, 1:2]
    out += a[:, :, 2:] * b[:, 2:]
    out += 0.0
    return out


def _near_identity(mats: np.ndarray) -> np.ndarray:
    """Mask of the (n, 2, 2) stack within TRIVIAL_TOL of +-I."""
    sign = np.where(mats[:, 0, 0] < 0, -1.0, 1.0)[:, None, None]
    return (np.abs(mats - sign * np.eye(2)) <= TRIVIAL_TOL).all(axis=(1, 2))


@dataclass
class BallTable:
    """Freely reduced words of length 1..radius, shortlex order.

    The empty word is not stored; callers account for it where needed.
    """

    seed: FuchsianSeed
    radius: int
    levels: list = field(default_factory=list)  # level L's last letters at L-1
    # Per-letter tables of ``seed_images``, ``exponent_sums`` and
    # ``word_strings``.
    _seed_letters: np.ndarray = field(init=False, repr=False)
    _exp_steps: np.ndarray = field(init=False, repr=False)
    _letter_bytes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._seed_letters = self.seed.letter_matrices()
        # Letter 2k adds 1 to the k-th exponent sum, letter 2k+1 adds -1.
        self._exp_steps = np.kron(np.eye(2 * self.genus, dtype=np.int32),
                                  np.int32([[1], [-1]]))
        # "." and each letter's name, NUL-padded to the widest.
        names = np.array([b"." + letter_name(l).encode() for l in range(4 * self.genus)])
        self._letter_bytes = names.view(np.uint8).reshape(len(names), -1)

    @staticmethod
    def build(seed: FuchsianSeed, radius: int) -> "BallTable":
        if radius < 0:
            raise ValueError("radius must be >= 0")
        table = BallTable(seed, radius)
        alphabet = np.arange(4 * seed.genus, dtype=np.int8)
        letts = alphabet
        for level in range(1, radius + 1):
            if level > 1:
                # Each word's children, in order: every letter but the
                # inverse of its last.
                tiled = np.tile(alphabet, len(letts))
                letts = tiled[tiled != np.repeat(letts ^ 1, len(alphabet))]
            table.levels.append(letts)
        return table

    @property
    def genus(self) -> int:
        return self.seed.genus

    @property
    def partitions(self):  # read by perfbench/tracer.py to count ball words
        return (SimpleNamespace(letters=self.levels),)

    def letters(self, level: int) -> np.ndarray:
        return self.levels[level - 1]

    def parents(self, rows: np.ndarray) -> np.ndarray:
        """Indices in the level below of the parents of the words ``rows``
        of a level > 1."""
        return rows // (4 * self.genus - 1)

    def first_letters(self, level: int, rows: np.ndarray) -> np.ndarray:
        """First letters of the words ``rows`` of a level: each letter
        starts an equal share of the level."""
        return rows // (len(self.letters(level)) // (4 * self.genus))

    def word_letters(self, level: int, rows: np.ndarray) -> np.ndarray:
        """(n, level) int8 letters of the words ``rows`` of a level, first
        letter first, read up their parents."""
        out = np.empty((len(rows), level), dtype=np.int8)
        for k in range(level - 1, -1, -1):
            out[:, k] = self.levels[k][rows]
            rows = self.parents(rows)
        return out

    def seed_images(self, level: int, rows, below) -> np.ndarray:
        """(n, 2, 2) seed images of the words ``rows`` of a level, from
        ``below``, those of the whole level below (None at level 1)."""
        mats = self._seed_letters[self.letters(level)[rows]]
        if below is None:
            return mats
        # The 2x2 products as two broadcast terms: a sum of two products
        # rounds the same whatever its order.
        below = below[self.parents(rows)]
        prods = below[:, :, :1] * mats[:, :1]
        prods += below[:, :, 1:] * mats[:, 1:]
        return prods

    def exponent_sums(self, level: int, rows, below) -> np.ndarray:
        """(n, 2g) int32 exponent sums of the words ``rows`` of a level,
        from ``below``, those of the whole level below (None at level 1)."""
        exps = self._exp_steps[self.letters(level)[rows]]
        if below is None:
            return exps
        return below[self.parents(rows)] + exps

    def least_rotations(self, level: int, idx: np.ndarray) -> tuple:
        """(kept, sizes): the words ``idx`` of a level that are cyclically
        reduced and the lexicographically least of their rotations (Booth,
        Inf. Process. Lett. 10, 1980), one word, the shortlex-first, of
        every rotation class of cyclically reduced words, and the size of
        each one's class, its least period."""
        # A word is cyclically reduced unless its first letter inverts its
        # last, and the least of its rotations only if its last letter is
        # not below its first.
        firsts, lasts = self.first_letters(level, idx), self.letters(level)[idx]
        idx = idx[(firsts != (lasts ^ 1)) & (firsts <= lasts)]
        # Each word as a base-4g integer, first letter most significant, and
        # its rotations by s letters (the first s moved to the end): words
        # of one length compare as their codes do.  A level's words fit in
        # memory only while base**level is far below 2**63.
        base = 4 * self.genus
        code = np.zeros(len(idx), dtype=np.int64)
        for letts in self.word_letters(level, idx).T:
            code *= base
            code += letts
        least = np.ones(len(idx), dtype=bool)
        sizes = np.full(len(idx), level, dtype=np.int64)
        # Downward, so a word's size is the least s whose rotation fixes it.
        for s in range(level - 1, 0, -1):
            high = base ** (level - s)
            rot = code % high * base ** s + code // high
            least &= code <= rot
            sizes[rot == code] = s
        return idx[least], sizes[least]

    def blocks(self, *fields, classes: bool = False) -> Iterator[tuple]:
        """Yield (level, rows, weight, *values) for the blocks of at most
        BLOCK_ROWS words of every level in shortlex order: ``rows`` is the
        block's int64 index array in the level, ``weight`` the number of
        words each row stands for, and each value is
        ``field(level, rows, below)``, ``below`` being that field's values
        over the whole level below (None at level 1), kept only while this
        level is read.  With ``classes``, the top level's rows and weights
        are a block's ``least_rotations`` and their class sizes, and blocks
        without one are skipped; every other row stands for itself."""
        below = [None] * len(fields)
        for level in range(1, self.radius + 1):
            n = len(self.letters(level))
            whole = []
            for start in range(0, n, BLOCK_ROWS):
                rows = np.arange(start, min(n, start + BLOCK_ROWS))
                if classes and level == self.radius:
                    rows, weight = self.least_rotations(level, rows)
                    if not len(rows):
                        continue
                else:
                    # Ones as a read-only view, which allocates nothing.
                    weight = np.broadcast_to(np.int64(1), len(rows))
                values = [f(level, rows, b) for f, b in zip(fields, below)]
                if not start and level < self.radius:
                    whole = [np.empty((n, *v.shape[1:]), v.dtype) for v in values]
                for stack, v in zip(whole, values):
                    stack[rows] = v
                yield (level, rows, weight, *values)
            below = whole

    def scored(self, min_length: float = 0.0, *fields, classes: bool = False) -> Iterator[tuple]:
        """For each block of ``blocks`` holding cyclically reduced words of
        seed translation length t >= min_length, yield
        (level, idx, weight, t, mats, *values): the words' indices in the
        level in shortlex order, the words each stands for, their
        translation lengths, (n, 2, 2) seed images, and the values of
        ``fields``, derived as ``blocks`` derives them.

        Words whose seed image is +-I are trivial in the group and skipped.
        Raises NotHyperbolic naming the first other cyclically reduced word
        whose seed image is not hyperbolic (the seed is then not Fuchsian;
        with ``classes``, a top-level class is named by its least word).
        """
        for level, rows, weight, mats, *values in self.blocks(self.seed_images, *fields,
                                                              classes=classes):
            hyp, t = batch_translation_lengths(mats)
            # A word is cyclically reduced unless its first letter inverts
            # its last; a one-letter word's first letter is its last.
            reduced = self.first_letters(level, rows) != (self.letters(level)[rows] ^ 1)
            # An image within TRIVIAL_TOL of +-I has t < 0.01.
            near = np.nonzero(reduced & (t < 0.01))[0]
            reduced[near[_near_identity(mats[near])]] = False
            bad = reduced & ~hyp
            if bad.any():
                w = self.word(level, int(rows[np.argmax(bad)]))
                raise NotHyperbolic(f"seed image of {w!r} is not hyperbolic")
            sel = np.nonzero(reduced & (t >= min_length))[0]
            if len(sel):
                yield (level, rows[sel], weight[sel], t[sel], mats[sel],
                       *(v[sel] for v in values))

    def word(self, level: int, i: int) -> str:
        """Dot-separated display string of word i of a level."""
        return self.word_strings(np.array([level]), np.array([i]))[0].decode()

    def word_strings(self, levels: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Dot-separated display strings, as an ``S`` array, of the words
        (levels[k], index[k]), in order: each word's letters index the
        table of "." and each letter's name, and the leading dot goes."""
        table = self._letter_bytes
        width = table.shape[1]
        out = np.zeros((len(levels), width * int(levels.max(initial=1))), dtype=np.uint8)
        for level in set(levels.tolist()):
            at = np.flatnonzero(levels == level)
            letters = self.word_letters(level, index[at])
            out[at, :width * level] = table[letters].reshape(len(at), -1)
        if (table == 0).any():
            # Letter names differ in width (genus >= 10): move each row's
            # NULs to its end, keeping the order of its other bytes.
            out = np.take_along_axis(out, np.argsort(out == 0, axis=1, kind="stable"), axis=1)
        return out[:, 1:].view(f"S{out.shape[1] - 1}").ravel()

    def images3(self, letter_images: np.ndarray, level: int, rows,
                prev: np.ndarray | None) -> np.ndarray:
        """(n, 3, 3) images of the words ``rows`` of a level under a
        representation given by its (4g, 3, 3) letter matrices, from
        ``prev``, the image stack of the whole level below (None at level
        1).  Renormalizes determinant drift; every step is row by row, so
        a block's images do not depend on the block."""
        imgs = letter_images[self.letters(level)[rows]]
        if prev is not None:
            imgs = matmul3(prev[self.parents(rows)], imgs)
        det = np.linalg.det(imgs)
        imgs /= np.cbrt(det)[:, None, None]
        return imgs


@dataclass(frozen=True, eq=False)
class WordIds:
    """A sequence of ball words held as (level, index) ids and named only
    when read, through ``BallTable.word_strings``: ``ids[i]`` names one
    word, iteration names them all at once, and a slice or an index array
    selects ids without naming any."""

    table: BallTable
    levels: np.ndarray  # (n,) int8
    index: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.table.word(int(self.levels[key]), int(self.index[key]))
        return WordIds(self.table, self.levels[key], self.index[key])

    def __iter__(self) -> Iterator[str]:
        return (s.decode() for s in self.table.word_strings(self.levels, self.index).tolist())
