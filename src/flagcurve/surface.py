"""Genus-g surface groups with a concrete Fuchsian embedding into SL(2,R).

A word is a freely reduced sequence of letter indices, held as a ball
entry (``ball.BallTable``) or, for the relator, a tuple, and named with
``letter_name``.  Generators are ordered a1, b1, ..., ag, bg; generator k
contributes the two letters 2k (the generator) and 2k+1 (its inverse), so
the inverse of a letter is ``letter ^ 1`` and shortlex order is (length,
letter tuple) with letter order a1 < a1^-1 < b1 < b1^-1 < a2 < ...

The standard seed comes from the regular hyperbolic 4g-gon with vertex
angle 2*pi/(4g), all vertices identified to a single point.  Side-pairing
translations are built in the disk model and conjugated to SL(2,R); the
pairing scheme is chosen so the product of commutators [a1,b1]...[ag,bg]
is the identity matrix (verified at build time).

A seed checks its relator with ``relator_residual``, the one product
along ``standard_relator``, which a representation's check shares, and
its short words by streaming their images through ``ball.BallTable``,
whose module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlagCurveError, NotUnimodular, UnsupportedGenus


def gen_name(k: int) -> str:
    return ("a" if k % 2 == 0 else "b") + str(k // 2 + 1)


def letter_name(letter: int) -> str:
    name = gen_name(letter // 2)
    return name.upper() if letter % 2 else name


def standard_relator(genus: int) -> tuple:
    """Letters of the relator [a1,b1]...[ag,bg]."""
    letters = []
    for j in range(genus):
        a, b = 2 * (2 * j), 2 * (2 * j + 1)
        letters += [a, b, a ^ 1, b ^ 1]
    return tuple(letters)


def relator_residual(letters: np.ndarray) -> float:
    """Distance to +-I of the relator's image, given the (4g, k, k) stack
    of letter images: the seed's check, and a representation's."""
    eye = m = np.eye(letters.shape[-1])
    for l in standard_relator(len(letters) // 4):
        m = m @ letters[l]
    return min(float(np.linalg.norm(m - eye)), float(np.linalg.norm(m + eye)))


def batch_translation_lengths(mats: np.ndarray):
    """(hyperbolic mask, translation lengths) for a (n,2,2) stack."""
    tr = np.abs(np.trace(mats, axis1=1, axis2=2))
    hyp = tr > 2.0 + 1e-10
    t = np.zeros(len(mats))
    t[hyp] = 2.0 * np.arccosh(tr[hyp] / 2.0)
    return hyp, t


def batch_attractive_directions(mats: np.ndarray) -> np.ndarray:
    """Angles in [0, pi) of attracting eigendirections of hyperbolic matrices."""
    tr = np.trace(mats, axis1=1, axis2=2)
    lam = np.sign(tr) * (np.abs(tr) / 2.0 + np.sqrt(tr * tr / 4.0 - 1.0))
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    v1 = np.stack([b, lam - a], axis=1)
    v2 = np.stack([lam - d, c], axis=1)
    use1 = (v1 * v1).sum(axis=1) >= (v2 * v2).sum(axis=1)
    v = np.where(use1[:, None], v1, v2)
    return np.arctan2(v[:, 1], v[:, 0]) % math.pi


# ---------------------------------------------------------------------------
# Standard Fuchsian seed from the regular 4g-gon
# ---------------------------------------------------------------------------

def _disk_translation(p: complex) -> np.ndarray:
    s = math.sqrt(1.0 - abs(p) ** 2)
    return np.array([[1.0, -p], [-p.conjugate(), 1.0]], dtype=complex) / s


def _disk_rotation(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(0.5j * theta), 0.0], [0.0, np.exp(-0.5j * theta)]], dtype=complex
    )


def _mobius(m: np.ndarray, z: complex) -> complex:
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def _disk_isometry(p, q, pp, qq) -> np.ndarray:
    """Unique orientation-preserving disk isometry with p -> pp, q -> qq."""
    tp, tpp = _disk_translation(p), _disk_translation(pp)
    theta = np.angle(_mobius(tpp, qq)) - np.angle(_mobius(tp, q))
    return np.linalg.inv(tpp) @ _disk_rotation(theta) @ tp


_CAYLEY = np.array([[1.0, -1j], [1.0, 1j]], dtype=complex)
_CAYLEY_INV = np.linalg.inv(_CAYLEY)


def _to_sl2r(m: np.ndarray) -> np.ndarray:
    out = _CAYLEY_INV @ m @ _CAYLEY
    out = out / np.sqrt(np.linalg.det(out))
    if np.max(np.abs(out.imag)) > 1e-9:
        raise FlagCurveError("conjugated matrix is not real")
    out = out.real
    return out / math.sqrt(float(np.linalg.det(out)))


# Words up to this length must have hyperbolic seed images, |trace| > 2.
SHORT_WORD_LENGTH = 4


@dataclass(frozen=True)
class FuchsianSeed:
    """Per-generator SL(2,R) matrices satisfying the surface relator."""

    genus: int
    generators: tuple  # 2*genus read-only (2,2) arrays, order a1, b1, ..., ag, bg

    def __post_init__(self):
        if self.genus < 2:
            raise UnsupportedGenus(f"genus {self.genus} < 2")
        if len(self.generators) != 2 * self.genus:
            raise ValueError("wrong number of generator matrices")
        # Each check is written so that a NaN fails it.
        for m in self.generators:
            d = float(np.linalg.det(m))
            if not abs(d - 1.0) <= 1e-10:
                raise NotUnimodular(f"generator determinant {d}")
        res = relator_residual(self.letter_matrices())
        if not res <= 1e-8:
            raise ValueError(f"relator residual {res:.3e} > 1e-8")
        mintr = self.short_word_min_trace()
        if not mintr > 2.0 + 1e-10:
            raise ValueError(f"non-hyperbolic short word: min |trace| = {mintr}"
                             f" over length <= {SHORT_WORD_LENGTH}")

    def short_word_min_trace(self) -> float:
        """Min |trace| over nonempty freely reduced words of length at most
        SHORT_WORD_LENGTH, their images read from the ball a block at a time."""
        from .ball import BallTable  # ball imports this module

        table = BallTable.build(self, SHORT_WORD_LENGTH)
        return min(float(np.abs(np.trace(mats, axis1=1, axis2=2)).min())
                   for *_, mats in table.blocks(table.seed_images))

    def letter_matrices(self) -> np.ndarray:
        """(4g, 2, 2) stack: generator at index 2k, its inverse at 2k+1."""
        out = np.empty((4 * self.genus, 2, 2))
        for k, m in enumerate(self.generators):
            out[2 * k] = m
            out[2 * k + 1] = np.linalg.inv(m)
        return out


def standard_fuchsian(genus: int) -> FuchsianSeed:
    """Side-pairing generators of the regular hyperbolic 4g-gon.

    Vertices sit at hyperbolic distance arccosh(cot^2(pi/4g)) from the
    center, giving vertex angle 2*pi/4g.  Edge 4j carries a_{j+1}, edge
    4j+1 carries b_{j+1}; the a-pairing maps edge 4j+2 reversed onto edge
    4j, and b is the inverse of the analogous map (that inversion is what
    makes the commutator relator hold, rather than [a, b^-1]).
    """
    if genus < 2:
        raise UnsupportedGenus(f"genus {genus} < 2")
    n = 4 * genus
    dist = math.acosh(1.0 / math.tan(math.pi / n) ** 2)
    radius = math.tanh(dist / 2.0)
    verts = [radius * np.exp(2j * math.pi * k / n) for k in range(n)]
    gens = []
    for j in range(genus):
        base = 4 * j
        a = _disk_isometry(
            verts[(base + 3) % n], verts[(base + 2) % n],
            verts[base], verts[(base + 1) % n],
        )
        b_pairing = _disk_isometry(
            verts[(base + 4) % n], verts[(base + 3) % n],
            verts[(base + 1) % n], verts[(base + 2) % n],
        )
        for m in (_to_sl2r(a), _to_sl2r(np.linalg.inv(b_pairing))):
            m.flags.writeable = False
            gens.append(m)
    return FuchsianSeed(genus, tuple(gens))
