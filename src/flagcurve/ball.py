"""Vectorized enumeration of group balls.

The ball of freely reduced words is materialized level by level as flat
numpy arrays.  Level 1 holds the 4g letters in order, and level L appends
every letter in order to each word of level L-1 (``surface.next_level``).
Since level L-1 is in shortlex order, so is level L.  Each level stores
its words' last letters, first letters, parent indices, SL(2,R) images and
exponent sums once.

``BallTable.scored`` is the one word selection of every spectral pipeline:
the cyclically reduced words above a translation-length floor.  Every
spectral quantity is a conjugacy invariant, so the other words add work
but no information.  It is also the only place that decides whether seed
images are hyperbolic, and it drops the words that are trivial in the
surface group (the relator and its rotations, from length 4g on).
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


def _near_identity(mats: np.ndarray) -> np.ndarray:
    """Mask of the (n, 2, 2) stack within TRIVIAL_TOL of +-I."""
    sign = np.where(mats[:, 0, 0] < 0, -1.0, 1.0)[:, None, None]
    return (np.abs(mats - sign * np.eye(2)) <= TRIVIAL_TOL).all(axis=(1, 2))


@dataclass(frozen=True)
class _Level:
    """All words of one length, in shortlex order."""

    letters: np.ndarray  # (n,) int8, last letter of each word
    firsts: np.ndarray  # (n,) int8, first letter of each word
    parents: np.ndarray  # (n,) int64 index into the previous level, -1 at level 1
    mats: np.ndarray  # (n, 2, 2) SL(2,R) images
    expsums: np.ndarray  # (n, 2g) int32 exponent sums


@dataclass
class BallTable:
    """Freely reduced words of length 1..radius with cached data, shortlex order.

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
        if radius == 0:
            return table
        letter_mats = seed.letter_matrices()
        letts = np.arange(len(letter_mats), dtype=np.int8)
        signs = np.where(letts % 2, -1, 1)
        exps = np.zeros((len(letts), 2 * seed.genus), dtype=np.int32)
        exps[letts, letts // 2] = signs
        lv = _Level(letts, letts, np.full(len(letts), -1, dtype=np.int64),
                    letter_mats, exps)
        table.levels.append(lv)
        for _ in range(2, radius + 1):
            parent, letts = next_level(lv.letters, len(letter_mats))
            exps = lv.expsums[parent]
            exps[np.arange(len(letts)), letts // 2] += signs[letts]
            lv = _Level(
                letts,
                lv.firsts[parent],
                parent,
                np.einsum("nij,njk->nik", lv.mats[parent], letter_mats[letts]),
                exps,
            )
            table.levels.append(lv)
        return table

    @property
    def genus(self) -> int:
        return self.seed.genus

    @property
    def partitions(self):  # read by perfbench/tracer.py to count ball words
        return (SimpleNamespace(letters=[lv.letters for lv in self.levels]),)

    def letters(self, level: int) -> np.ndarray:
        return self.levels[level - 1].letters

    def mats2(self, level: int) -> np.ndarray:
        return self.levels[level - 1].mats

    def expsums(self, level: int) -> np.ndarray:
        return self.levels[level - 1].expsums

    def cyclically_reduced(self, level: int) -> np.ndarray:
        lv = self.levels[level - 1]
        if level == 1:
            return np.ones(len(lv.letters), dtype=bool)
        return lv.firsts != (lv.letters ^ 1)

    def scored(self, min_length: float = 0.0) -> Iterator[tuple]:
        """For each level holding cyclically reduced words of seed
        translation length t >= min_length, yield (level, idx, t): their
        indices in shortlex order and their translation lengths.

        Words whose seed image is +-I are trivial in the group and skipped.
        Raises NotHyperbolic naming the first other cyclically reduced word
        whose seed image is not hyperbolic (the seed is then not Fuchsian).
        """
        for level in range(1, self.radius + 1):
            mats = self.mats2(level)
            hyp, t = batch_translation_lengths(mats)
            reduced = self.cyclically_reduced(level)
            # An image within TRIVIAL_TOL of +-I has t < 0.01.
            near = np.nonzero(reduced & (t < 0.01))[0]
            reduced[near[_near_identity(mats[near])]] = False
            bad = reduced & ~hyp
            if bad.any():
                w = self.word(level, int(np.argmax(bad)))
                raise NotHyperbolic(f"seed image of {w!r} is not hyperbolic")
            idx = np.nonzero(reduced & (t >= min_length))[0]
            if len(idx):
                yield level, idx, t[idx]

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
            names = [letter_name(l) for l in range(4 * self.genus)]
            lv = self.levels[level - 1]
            if level == 1:
                strs = [names[l] for l in lv.letters.tolist()]
            else:
                prev = self.word_strings(level - 1)
                strs = [prev[p] + "." + names[l]
                        for p, l in zip(lv.parents.tolist(), lv.letters.tolist())]
            self._strings[level] = strs
        return self._strings[level]

    def images3(self, letter_images: np.ndarray) -> list:
        """Per-level (n, 3, 3) images under a representation given by its
        (4g, 3, 3) letter matrices.  Renormalizes determinant drift at each
        level."""
        out = []
        for lv in self.levels:
            if not out:
                imgs = letter_images[lv.letters]
            else:
                imgs = np.einsum("nij,njk->nik", out[-1][lv.parents],
                                 letter_images[lv.letters])
            det = np.linalg.det(imgs)
            imgs /= np.cbrt(det)[:, None, None]
            out.append(imgs)
        return out


def enumerate_ball(seed: FuchsianSeed, radius: int) -> Iterator[tuple]:
    """Yield every freely reduced word of length <= radius with its SL(2,R)
    image, in shortlex order."""
    table = BallTable.build(seed, radius)
    yield Word((), seed.genus), np.eye(2)
    words = [()]  # level 1 parents are -1, which also indexes the empty word
    for lv in table.levels:
        words = [words[p] + (l,) for p, l in zip(lv.parents.tolist(), lv.letters.tolist())]
        for w, m in zip(words, lv.mats):
            yield Word(w, seed.genus), m
