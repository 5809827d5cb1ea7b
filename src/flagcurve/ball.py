"""Vectorized enumeration of group balls.

The ball of freely reduced words is materialized level by level as flat
numpy arrays.  Level 1 holds the 4g letters in order, and level L appends
every letter in order to each word of level L-1 (``surface.next_level``).
Since level L-1 is in shortlex order, so is level L.  A ``BallTable``
keeps only each level's int8 last letters, 1 B a word: every word has
4g-1 children, in order, so word i of a level of n words extends word
i // (4g-1) of the level below and has first letter i // (n / 4g).

Everything else about a word is derived as the ball is read.
``BallTable.blocks(*fields)`` streams every level in blocks of at most
BLOCK_ROWS words with the fields its reader asks for: seed images
(``BallTable.seed_images``), exponent sums (``exponent_sums``) or, given
a representation, 3x3 images (``images3``).  A field is derived from its
own values over the whole level below by row-wise products, so a block's
rows are the same bits whatever the block size.  A field's values of a
level are kept whole only while the next level is read; the last
level's, (4g-2)/(4g-1) of the ball, exist one block at a time, so they
and every consumer's temporaries are O(block).

Words are named only here.  ``BallTable.word`` walks one word's
parents; ``BallTable.names`` names a batch of (level, index) ids, reading
the levels below the top off their cached ``word_strings`` and building
each top-level word from its parent's string, so the top level, most of
the ball, never has all its strings built.  ``WordIds`` is a sequence of
such ids that names words only when they are read.

``BallTable.scored`` is the one word selection of every spectral pipeline:
the cyclically reduced words above a translation-length floor, filtered
from the blocks of ``blocks``.  Every spectral quantity is a conjugacy
invariant, so the other words add work but no information, and a
cyclically reduced word is conjugate to each of its rotations.  Asked
for rotation classes, ``blocks`` derives the fields of the top level,
(4g-2)/(4g-1) of the ball, only for the words that are cyclically
reduced and the least of their rotations (``least_rotations``: the
shortlex-first word of each class), and ``scored`` weights each with
the number of words in its class (``class_sizes``), so counts still
count words.  The levels below are read whole anyway and scored word by
word.  ``scored`` is also the only place that decides whether seed
images are hyperbolic, and it drops the words that are trivial in the
surface group (the relator and its rotations, from length 4g on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .errors import NotHyperbolic
from .surface import FuchsianSeed, batch_translation_lengths, letter_name, next_level

# A word whose seed image is within this of +-I (entrywise) is taken to be
# trivial in the group.  Every nontrivial element of a Fuchsian group is
# hyperbolic and so stays far from +-I, while the relator images of a valid
# seed sit within its 1e-8 residual, times conjugation.
TRIVIAL_TOL = 1e-6

# Words per block of ``BallTable.blocks``: bounds the last level's image
# stacks and the temporaries of every kernel applied to them.
BLOCK_ROWS = 1 << 12


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
    _strings: dict = field(default_factory=dict)
    # Per-letter tables of ``seed_images`` and ``exponent_sums``.
    _seed_letters: np.ndarray = field(init=False, repr=False)
    _exp_steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._seed_letters = self.seed.letter_matrices()
        # Letter 2k adds 1 to the k-th exponent sum, letter 2k+1 adds -1.
        self._exp_steps = np.kron(np.eye(2 * self.genus, dtype=np.int32),
                                  np.int32([[1], [-1]]))

    @staticmethod
    def build(seed: FuchsianSeed, radius: int) -> "BallTable":
        if radius < 0:
            raise ValueError("radius must be >= 0")
        table = BallTable(seed, radius)
        letts = np.arange(4 * seed.genus, dtype=np.int8)
        for level in range(1, radius + 1):
            if level > 1:
                letts = next_level(letts, 4 * seed.genus)
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

    def parents(self, level: int, rows) -> np.ndarray:
        """Indices in the level below of the parents of the words ``rows``
        (a slice or an index array) of a level > 1."""
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(len(self.letters(level))))
        return rows // (4 * self.genus - 1)

    def seed_images(self, level: int, rows, below) -> np.ndarray:
        """(n, 2, 2) seed images of the words ``rows`` of a level, from
        ``below``, those of the whole level below (None at level 1)."""
        mats = self._seed_letters[self.letters(level)[rows]]
        if below is None:
            return mats
        # The 2x2 products as two broadcast terms: a sum of two products
        # rounds the same whatever its order.
        below = below[self.parents(level, rows)]
        prods = below[:, :, :1] * mats[:, :1]
        prods += below[:, :, 1:] * mats[:, 1:]
        return prods

    def exponent_sums(self, level: int, rows, below) -> np.ndarray:
        """(n, 2g) int32 exponent sums of the words ``rows`` of a level,
        from ``below``, those of the whole level below (None at level 1)."""
        exps = self._exp_steps[self.letters(level)[rows]]
        if below is None:
            return exps
        return below[self.parents(level, rows)] + exps

    def _rotation_codes(self, level: int, idx: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the words ``idx`` of a level as base-4g integers, first
        letter most significant, then their rotations by 1..level-1
        letters (the first s letters moved to the end).  Words of one
        length compare as their codes do."""
        base = 4 * self.genus
        # A level's 4g(4g-1)^(level-1) letters fit in memory only while
        # base**level is far below 2**63.
        code, place, up = np.zeros(len(idx), dtype=np.int64), 1, idx
        for letts in reversed(self.levels[:level]):
            code += letts[up].astype(np.int64) * place
            place *= base
            up = up // (base - 1)
        yield code
        for s in range(1, level):
            high = base ** (level - s)
            yield code % high * base ** s + code // high

    def least_rotations(self, level: int, rows: slice) -> np.ndarray:
        """Indices of the words ``rows`` of a level that are cyclically
        reduced and the lexicographically least of their rotations (Booth,
        Inf. Process. Lett. 10, 1980): one word, the shortlex-first, of
        every rotation class of cyclically reduced words."""
        letts = self.letters(level)
        idx = np.arange(*rows.indices(len(letts)))
        # A word is cyclically reduced unless its first letter inverts its
        # last, and the least of its rotations only if its last letter is
        # not below its first.
        firsts, lasts = idx // (len(letts) // (4 * self.genus)), letts[idx]
        idx = idx[(firsts != (lasts ^ 1)) & (firsts <= lasts)]
        codes = self._rotation_codes(level, idx)
        code = next(codes)
        least = np.ones(len(idx), dtype=bool)
        for rot in codes:
            least &= code <= rot
        return idx[least]

    def class_sizes(self, level: int, idx: np.ndarray) -> np.ndarray:
        """Number of distinct rotations of each word ``idx`` of a level:
        its least period, level / (number of rotations that fix it)."""
        codes = self._rotation_codes(level, idx)
        code = next(codes)
        size = np.full(len(idx), level)
        for s, rot in enumerate(codes, 1):
            size[(rot == code) & (size == level)] = s
        return size

    def blocks(self, *fields, classes: bool = False) -> Iterator[tuple]:
        """Yield (level, rows, *values) for the blocks of at most
        BLOCK_ROWS words of every level in shortlex order: ``rows`` is a
        slice of the level, and each value is ``field(level, rows,
        below)``, ``below`` being that field's values over the whole level
        below (None at level 1), kept only while this level is read.  With
        ``classes``, the top level's ``rows`` are the index array of a
        block's ``least_rotations``, and blocks without one are skipped."""
        below = [None] * len(fields)
        for level in range(1, self.radius + 1):
            n = len(self.letters(level))
            whole = []
            for start in range(0, n, BLOCK_ROWS):
                rows = slice(start, min(n, start + BLOCK_ROWS))
                if classes and level == self.radius:
                    rows = self.least_rotations(level, rows)
                    if not len(rows):
                        continue
                values = [f(level, rows, b) for f, b in zip(fields, below)]
                if not start and level < self.radius:
                    whole = [np.empty((n, *v.shape[1:]), v.dtype) for v in values]
                for stack, v in zip(whole, values):
                    stack[rows] = v
                yield (level, rows, *values)
            below = whole

    def scored(self, min_length: float = 0.0, letter_images: np.ndarray | None = None,
               classes: bool = False) -> Iterator[tuple]:
        """For each block of ``blocks`` holding cyclically reduced words of
        seed translation length t >= min_length, yield
        (level, idx, t, mats, exps, imgs, weight): their indices in the
        level in shortlex order, their translation lengths, (n, 2, 2) seed
        images and (n, 2g) exponent sums, their (n, 3, 3) images (None
        without letter_images) and the number of words each one stands for
        (None without ``classes``): with ``classes`` a top-level word
        stands for its rotation class (``class_sizes``) and any other word
        for itself.

        Words whose seed image is +-I are trivial in the group and skipped.
        Raises NotHyperbolic naming the first other cyclically reduced word
        whose seed image is not hyperbolic (the seed is then not Fuchsian;
        with ``classes``, a top-level class is named by its least word).
        """
        fields = [self.seed_images, self.exponent_sums]
        if letter_images is not None:
            fields.append(partial(self.images3, letter_images))
        for level, rows, mats, exps, *imgs in self.blocks(*fields, classes=classes):
            hyp, t = batch_translation_lengths(mats)
            # A word is cyclically reduced unless its first letter inverts
            # its last; a one-letter word's first letter is its last.
            letts = self.letters(level)
            idx = np.arange(rows.start, rows.stop) if isinstance(rows, slice) else rows
            firsts = idx // (len(letts) // (4 * self.genus))
            reduced = firsts != (letts[rows] ^ 1)
            # An image within TRIVIAL_TOL of +-I has t < 0.01.
            near = np.nonzero(reduced & (t < 0.01))[0]
            reduced[near[_near_identity(mats[near])]] = False
            bad = reduced & ~hyp
            if bad.any():
                w = self.word(level, int(idx[np.argmax(bad)]))
                raise NotHyperbolic(f"seed image of {w!r} is not hyperbolic")
            sel = np.nonzero(reduced & (t >= min_length))[0]
            if len(sel):
                idx, weight = idx[sel], None
                if classes:
                    # Ones as a read-only view, which allocates nothing.
                    weight = (self.class_sizes(level, idx) if level == self.radius
                              else np.broadcast_to(np.int64(1), len(idx)))
                yield (level, idx, t[sel], mats[sel], exps[sel],
                       imgs[0][sel] if imgs else None, weight)

    def word(self, level: int, i: int) -> str:
        """Dot-separated display string of word i of a level, read off its
        parents; unlike ``word_strings`` it builds no strings for the rest
        of the level."""
        names = []
        for letts in reversed(self.levels[:level]):
            names.append(letter_name(int(letts[i])))
            i //= 4 * self.genus - 1
        return ".".join(reversed(names))

    def word_strings(self, level: int) -> list:
        """Dot-separated display strings of a level, shortlex order."""
        if level not in self._strings:
            self._strings[level] = self._extend(level, slice(None))
        return self._strings[level]

    def names(self, levels: np.ndarray, index: np.ndarray) -> list:
        """Display strings of the words (levels[k], index[k]), in order.
        A word below the top level is read off ``word_strings``; a word of
        the top level, which holds most of the ball, is its parent's string
        and its last letter, so the top level's strings are never all
        built."""
        out = np.empty(len(levels), dtype=object)
        for level in np.unique(levels).tolist():
            at = np.flatnonzero(levels == level)
            if level < self.radius:
                strs = self.word_strings(level)
                out[at] = [strs[i] for i in index[at].tolist()]
            else:
                out[at] = self._extend(level, index[at])
        return out.tolist()

    def _extend(self, level: int, rows) -> list:
        """Display strings of the words ``rows`` of a level: each is its
        parent's string, a dot and its last letter."""
        names = [letter_name(l) for l in range(4 * self.genus)]
        letters = self.letters(level)[rows].tolist()
        if level == 1:
            return [names[l] for l in letters]
        prev = self.word_strings(level - 1)
        return [prev[p] + "." + names[l]
                for p, l in zip(self.parents(level, rows).tolist(), letters)]

    def images3(self, letter_images: np.ndarray, level: int, rows,
                prev: np.ndarray | None) -> np.ndarray:
        """(n, 3, 3) images of the words ``rows`` of a level under a
        representation given by its (4g, 3, 3) letter matrices, from
        ``prev``, the image stack of the whole level below (None at level
        1).  Renormalizes determinant drift; every step is row by row, so
        a block's images do not depend on the block."""
        imgs = letter_images[self.letters(level)[rows]]
        if prev is not None:
            imgs = matmul3(prev[self.parents(level, rows)], imgs)
        det = np.linalg.det(imgs)
        imgs /= np.cbrt(det)[:, None, None]
        return imgs


@dataclass(frozen=True, eq=False)
class WordIds:
    """A sequence of ball words held as (level, index) ids and named only
    when read: ``ids[i]`` walks one word's parents (``BallTable.word``),
    iteration names them all through ``BallTable.names``, and a slice or
    an index array selects ids without naming any."""

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
        return iter(self.table.names(self.levels, self.index))
