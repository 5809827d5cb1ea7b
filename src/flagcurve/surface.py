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

``json_number`` and ``json_object`` are the type rules for JSON input: the
seed parsed here, and the rep_spec and run config parsed above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotUnimodular, UnsupportedGenus


def json_number(kind: type, value, name: str):
    """``value`` as ``kind``: int takes only a JSON integer, float any JSON
    number; a boolean, a string or anything else is a ConfigError naming
    the field."""
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"field {name!r} must be {expected}, not {value!r}")
    try:
        return kind(value)
    except OverflowError as e:
        raise ConfigError(f"field {name!r} must be a number: {e}") from e


def json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object, else a ConfigError naming the field."""
    if not isinstance(value, dict):
        raise ConfigError(f"field {name!r} must be a JSON object")
    return value


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


@dataclass(frozen=True)
class CohomologyClass:
    """Morphism to the reals, given by its value on each generator."""

    values: tuple
    genus: int

    @staticmethod
    def zero(genus: int) -> "CohomologyClass":
        return CohomologyClass((0.0,) * (2 * genus), genus)

    @staticmethod
    def from_dict(d: dict, genus: int) -> "CohomologyClass":
        names = {gen_name(k): k for k in range(2 * genus)}
        vals = [0.0] * (2 * genus)
        for key, val in d.items():
            if key not in names:
                raise ValueError(f"unknown generator {key!r} for genus {genus}")
            vals[names[key]] = float(val)
        return CohomologyClass(tuple(vals), genus)

    def as_vector(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


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


def next_level(last: np.ndarray, n_letters: int) -> np.ndarray:
    """Last letters of every freely reduced one-letter extension of a
    level of words ending in ``last``.

    Letters are appended in order to each word in turn, so word i of the
    result extends word i // (n_letters - 1), and the result is in
    shortlex order whenever the level is.
    """
    letts = np.tile(np.arange(n_letters, dtype=np.int8), len(last))
    return letts[letts != np.repeat(last ^ 1, n_letters)]


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
        raise ArithmeticError("conjugated matrix is not real")
    out = out.real
    return out / math.sqrt(float(np.linalg.det(out)))


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
        for m in self.generators:
            d = float(np.linalg.det(m))
            if abs(d - 1.0) > 1e-10:
                raise NotUnimodular(f"generator determinant {d}")
        res = self.relator_residual()
        if res > 1e-8:
            raise ValueError(f"relator residual {res:.3e} > 1e-8")
        mintr = self.short_word_min_trace()
        if mintr <= 2.0 + 1e-10:
            raise ValueError(
                f"non-hyperbolic short word: min |trace| = {mintr} over length <= 4"
            )

    def short_word_min_trace(self, max_length: int = 4) -> float:
        """Min |trace| over nonempty freely reduced words up to max_length."""
        letters = self.letter_matrices()
        last, mats = np.arange(len(letters), dtype=np.int8), letters
        best = math.inf
        for length in range(1, max_length + 1):
            best = min(best, float(np.abs(np.trace(mats, axis1=1, axis2=2)).min()))
            if length == max_length:
                break
            last = next_level(last, len(letters))
            parent = np.arange(len(last)) // (len(letters) - 1)
            mats = np.einsum("nij,njk->nik", mats[parent], letters[last])
        return best

    def relator_residual(self) -> float:
        m = np.eye(2)
        for j in range(self.genus):
            a, b = self.generators[2 * j], self.generators[2 * j + 1]
            m = m @ a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        return min(
            float(np.linalg.norm(m - np.eye(2))), float(np.linalg.norm(m + np.eye(2)))
        )

    def letter_matrices(self) -> np.ndarray:
        """(4g, 2, 2) stack: generator at index 2k, its inverse at 2k+1."""
        out = np.empty((4 * self.genus, 2, 2))
        for k, m in enumerate(self.generators):
            out[2 * k] = m
            out[2 * k + 1] = np.linalg.inv(m)
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "FuchsianSeed":
        genus = json_number(int, d["genus"], "seed.genus")
        gens = []
        for row in d["generators"]:
            m = np.array([json_number(float, x, "seed.generators") for x in row])
            m = m.reshape(2, 2)
            m.flags.writeable = False
            gens.append(m)
        return FuchsianSeed(genus, tuple(gens))


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
