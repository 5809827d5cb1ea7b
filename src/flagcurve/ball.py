"""Vectorized enumeration of group balls.

The ball of freely reduced words is materialized level by level as flat
numpy arrays.  Level 1 holds the 4g letters in order, and level L appends
every letter in order to each word of level L-1 (``surface.next_level``).
Since level L-1 is in shortlex order, so is level L.  A ``BallTable``
keeps only each level's last letters and parent indices, 9 B a word.

Everything else about a word is derived as the ball is read.
``BallTable.blocks`` streams every level in blocks of at most BLOCK_ROWS
words, each with its words' first letters, SL(2,R) seed images and
exponent sums (``BallTable.seed_data``) and, given a representation,
their 3x3 images (``BallTable.images3``), all from the same data of the
whole level below by row-wise products, so a block's rows are the same
bits whatever the block size.  A level's data is kept whole only while
the next level is read; the last level's, (4g-2)/(4g-1) of the ball,
exists one block at a time, so its data and every consumer's temporaries
are O(block).

Words are named only here.  ``BallTable.word`` walks one word's
parents; ``BallTable.names`` names a batch of (level, index) ids, reading
the levels below the top off their cached ``word_strings`` and building
each top-level word from its parent's string, so the top level, most of
the ball, never has all its strings built.  ``WordIds`` is a sequence of
such ids that names words only when they are read.

``BallTable.scored`` is the one word selection of every spectral pipeline:
the cyclically reduced words above a translation-length floor, filtered
from the blocks of ``blocks``.  Every spectral quantity is a conjugacy
invariant, so the other words add work but no information.  It is also
the only place that decides whether seed images are hyperbolic, and it
drops the words that are trivial in the surface group (the relator and
its rotations, from length 4g on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .errors import NotHyperbolic
from .surface import (FuchsianSeed, Word, batch_translation_lengths, letter_name,
                      next_level)

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


@dataclass(frozen=True)
class _Level:
    """All words of one length, in shortlex order, 9 B a word."""

    letters: np.ndarray  # (n,) int8, last letter of each word
    parents: np.ndarray  # (n,) int64 index into the previous level, -1 at level 1


@dataclass
class BallTable:
    """Freely reduced words of length 1..radius, shortlex order.

    The empty word is not stored; callers account for it where needed.
    """

    seed: FuchsianSeed
    radius: int
    levels: list = field(default_factory=list)  # level L at index L-1
    _strings: dict = field(default_factory=dict)

    @staticmethod
    def build(seed: FuchsianSeed, radius: int) -> "BallTable":
        if radius < 0:
            raise ValueError("radius must be >= 0")
        table = BallTable(seed, radius)
        letts = np.arange(4 * seed.genus, dtype=np.int8)
        parents = np.full(len(letts), -1, dtype=np.int64)
        for level in range(1, radius + 1):
            if level > 1:
                parents, letts = next_level(letts, 4 * seed.genus)
            table.levels.append(_Level(letts, parents))
        return table

    @property
    def genus(self) -> int:
        return self.seed.genus

    @property
    def partitions(self):  # read by perfbench/tracer.py to count ball words
        return (SimpleNamespace(letters=[lv.letters for lv in self.levels]),)

    def letters(self, level: int) -> np.ndarray:
        return self.levels[level - 1].letters

    def seed_data(self, level: int, rows: slice, prev: list | None) -> tuple:
        """(firsts, mats, exps): the first letters, (n, 2, 2) seed images
        and (n, 2g) int32 exponent sums of the words ``rows`` of a level,
        from ``prev``, the same of the whole level below (None at level
        1).  Every step is row by row, so a block's rows do not depend on
        the block."""
        lv = self.levels[level - 1]
        letts = lv.letters[rows]
        mats = self.seed.letter_matrices()[letts]
        # Letter 2k adds 1 to the k-th exponent sum, letter 2k+1 adds -1.
        exps = np.kron(np.eye(2 * self.genus, dtype=np.int32), np.int32([[1], [-1]]))[letts]
        if prev is None:
            return letts, mats, exps
        parents = lv.parents[rows]
        # The 2x2 products as two broadcast terms: a sum of two products
        # rounds the same whatever its order.
        below = prev[1][parents]
        prods = below[:, :, :1] * mats[:, :1]
        prods += below[:, :, 1:] * mats[:, 1:]
        return prev[0][parents], prods, prev[2][parents] + exps

    def blocks(self, letter_images: np.ndarray | None = None) -> Iterator[tuple]:
        """Yield (level, rows, firsts, mats, exps, imgs) for the blocks of
        at most BLOCK_ROWS words of every level in shortlex order: ``rows``
        is a slice of the level, (firsts, mats, exps) its words'
        ``seed_data``, and ``imgs`` their (n, 3, 3) images under the
        representation given by its (4g, 3, 3) letter matrices (None
        without them).

        Each level's data is kept whole until the next level is derived
        from it; the last level's is held one block at a time.
        """
        prev = None  # the whole level below: [firsts, mats, exps, imgs]
        for level in range(1, self.radius + 1):
            n = len(self.letters(level))
            below = None if prev is None else prev[3]
            whole = None if level == self.radius else [
                np.empty(n, dtype=np.int8), np.empty((n, 2, 2)),
                np.empty((n, 2 * self.genus), dtype=np.int32),
                None if letter_images is None else np.empty((n, 3, 3))]
            for start in range(0, n, BLOCK_ROWS):
                rows = slice(start, min(n, start + BLOCK_ROWS))
                data = self.seed_data(level, rows, prev) + (
                    None if letter_images is None else
                    self.images3(letter_images, level, rows, below),)
                for stack, block in zip(whole or (), data):
                    if stack is not None:
                        stack[rows] = block
                yield (level, rows, *data)
            prev = whole

    def scored(self, min_length: float = 0.0,
               letter_images: np.ndarray | None = None) -> Iterator[tuple]:
        """For each block of ``blocks`` holding cyclically reduced words of
        seed translation length t >= min_length, yield
        (level, idx, t, mats, exps, imgs): their indices in the level in
        shortlex order, their translation lengths, (n, 2, 2) seed images and
        (n, 2g) exponent sums, and their (n, 3, 3) images (None without
        letter_images).

        Words whose seed image is +-I are trivial in the group and skipped.
        Raises NotHyperbolic naming the first other cyclically reduced word
        whose seed image is not hyperbolic (the seed is then not Fuchsian).
        """
        for level, rows, firsts, mats, exps, imgs in self.blocks(letter_images):
            hyp, t = batch_translation_lengths(mats)
            # A word is cyclically reduced unless its first letter inverts
            # its last; a one-letter word's first letter is its last.
            reduced = firsts != (self.letters(level)[rows] ^ 1)
            # An image within TRIVIAL_TOL of +-I has t < 0.01.
            near = np.nonzero(reduced & (t < 0.01))[0]
            reduced[near[_near_identity(mats[near])]] = False
            bad = reduced & ~hyp
            if bad.any():
                w = self.word(level, rows.start + int(np.argmax(bad)))
                raise NotHyperbolic(f"seed image of {w!r} is not hyperbolic")
            sel = np.nonzero(reduced & (t >= min_length))[0]
            if len(sel):
                yield (level, rows.start + sel, t[sel], mats[sel], exps[sel],
                       None if imgs is None else imgs[sel])

    def word(self, level: int, i: int) -> str:
        """Dot-separated display string of word i of a level, read off its
        parents; unlike ``word_strings`` it builds no strings for the rest
        of the level."""
        names = []
        for lv in reversed(self.levels[:level]):
            names.append(letter_name(int(lv.letters[i])))
            i = int(lv.parents[i])
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
        lv = self.levels[level - 1]
        letters = lv.letters[rows].tolist()
        if level == 1:
            return [names[l] for l in letters]
        prev = self.word_strings(level - 1)
        return [prev[p] + "." + names[l] for p, l in zip(lv.parents[rows].tolist(), letters)]

    def images3(self, letter_images: np.ndarray, level: int, rows: slice,
                prev: np.ndarray | None) -> np.ndarray:
        """(n, 3, 3) images of the words ``rows`` of a level under a
        representation given by its (4g, 3, 3) letter matrices, from
        ``prev``, the image stack of the whole level below (None at level
        1).  Renormalizes determinant drift; every step is row by row, so
        a block's images do not depend on the block."""
        lv = self.levels[level - 1]
        imgs = letter_images[lv.letters[rows]]
        if prev is not None:
            imgs = matmul3(prev[lv.parents[rows]], imgs)
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


def enumerate_ball(seed: FuchsianSeed, radius: int) -> Iterator[tuple]:
    """Yield every freely reduced word of length <= radius with its SL(2,R)
    image, in shortlex order."""
    table = BallTable.build(seed, radius)
    yield Word((), seed.genus), np.eye(2)
    words = [()]  # level 1 parents are -1, which also indexes the empty word
    for level, rows, _firsts, mats, _exps, _imgs in table.blocks():
        if rows.start == 0:
            prev, words = words, []
        lv = table.levels[level - 1]
        for p, l, m in zip(lv.parents[rows].tolist(), lv.letters[rows].tolist(), mats):
            words.append(prev[p] + (l,))
            yield Word(words[-1], seed.genus), m
