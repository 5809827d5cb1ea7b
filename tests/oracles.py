"""Reference implementations that the tests compare the package against.

Each computes, one word or one matrix at a time, something the package
computes in batches over the ball: a word as a tuple of letters, its
images as products of letter matrices, its exponent sums and cohomology
values, the ball as a sequence of words, the chordal distance of two
projective points, the equivariance residuals of a sampled curve, and
the delta profile's grid filled from the whole sorted support.  Beside
them are the JSON forms of a seed and a spec, which the tests
write configs from.  No command reads any of them, so they live with the
tests.
"""

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from flagcurve.ball import BallTable
from flagcurve.curve import greedy_thin
from flagcurve.delta import _THIN_SPACING, GRID_SIZE, _plane_coords
from flagcurve.errors import PolarDegenerate
from flagcurve.spectral import canonicalize_rows
from flagcurve.surface import gen_name, letter_name


def parse_letter(token: str, genus: int) -> int:
    inv = token[0].isupper()
    kind, idx = token[0].lower(), token[1:]
    if kind not in "ab" or not idx.isdigit():
        raise ValueError(f"bad letter {token!r}")
    j = int(idx) - 1
    if not 0 <= j < genus:
        raise ValueError(f"letter {token!r} out of range for genus {genus}")
    k = 2 * j + (0 if kind == "a" else 1)
    return 2 * k + (1 if inv else 0)


@dataclass(frozen=True)
class Word:
    """Freely reduced word, stored as a tuple of letter indices."""

    letters: tuple
    genus: int

    def __post_init__(self):
        for i in range(len(self.letters) - 1):
            if self.letters[i + 1] == self.letters[i] ^ 1:
                raise ValueError("word is not freely reduced")

    def __str__(self):
        return ".".join(letter_name(l) for l in self.letters)

    @staticmethod
    def parse(text: str, genus: int) -> "Word":
        if not text:
            return Word((), genus)
        return Word(tuple(parse_letter(t, genus) for t in text.split(".")), genus)

    def concat(self, other: "Word") -> "Word":
        """Concatenation with free reduction at the junction."""
        left = list(self.letters)
        right = list(other.letters)
        while left and right and right[0] == left[-1] ^ 1:
            left.pop()
            right.pop(0)
        return Word(tuple(left + right), self.genus)

    def is_cyclically_reduced(self) -> bool:
        ls = self.letters
        return len(ls) <= 1 or ls[0] != ls[-1] ^ 1

    def exponent_sums(self) -> np.ndarray:
        out = np.zeros(2 * self.genus, dtype=np.int64)
        for l in self.letters:
            out[l // 2] += -1 if l % 2 else 1
        return out


def evaluate(spec, w: Word) -> np.ndarray:
    """Image of a word, read-only: product of letter images, determinant
    renormalized every 16 multiplications to bound drift."""
    letters = spec.letters
    m = np.eye(3)
    for i, l in enumerate(w.letters):
        m = m @ letters[l]
        if (i + 1) % 16 == 0:
            m = m / np.cbrt(np.linalg.det(m))
    m = m / np.cbrt(np.linalg.det(m))
    m.flags.writeable = False
    return m


def seed_image(seed, w: Word) -> np.ndarray:
    """SL(2,R) image of a word under a Fuchsian seed."""
    letters = seed.letter_matrices()
    m = np.eye(2)
    for l in w.letters:
        m = m @ letters[l]
    return m


def eval_u(u, w: Word) -> float:
    """Signed sum of generator values along the word."""
    return float(w.exponent_sums() @ np.array(u, dtype=float))


def ball_count(genus: int, radius: int) -> int:
    """Closed-form number of freely reduced words of length <= radius."""
    k = 4 * genus
    if radius == 0:
        return 1
    return 1 + k * ((k - 1) ** radius - 1) // (k - 2)


def enumerate_ball(seed, radius: int) -> Iterator[tuple]:
    """Yield every freely reduced word of length <= radius with its SL(2,R)
    image, in shortlex order, as a ``BallTable`` streams them."""
    table = BallTable.build(seed, radius)
    yield Word((), seed.genus), np.eye(2)
    words = []
    for level, rows, _weight, mats in table.blocks(table.seed_images):
        if rows[0] == 0:
            prev, words = words, []
        letters = table.letters(level)[rows].tolist()
        heads = ([prev[p] for p in table.parents(rows).tolist()] if level > 1
                 else [()] * len(letters))
        for head, l, m in zip(heads, letters, mats):
            words.append(head + (l,))
            yield Word(words[-1], seed.genus), m


def seed_to_json_dict(seed) -> dict:
    """The JSON form of a seed, as ``spec_from_json_dict`` reads it."""
    return {
        "genus": seed.genus,
        "generators": [list(np.asarray(m).ravel()) for m in seed.generators],
    }


def spec_to_json_dict(spec) -> dict:
    """The JSON form of a spec, as ``spec_from_json_dict`` reads it; a
    zero shear reads back as linear_u."""
    names = [gen_name(k) for k in range(2 * spec.seed.genus)]
    if spec.u is None:
        variant = "explicit"
    elif spec.shear is None:
        variant = "canonical"
    else:
        variant = "radial" if any(map(any, spec.shear)) else "linear_u"
    d = {"variant": variant, "seed": seed_to_json_dict(spec.seed)}
    if variant in ("linear_u", "radial"):
        d["u"] = dict(zip(names, spec.u))
    if variant == "radial":
        d["mu"], d["nu"] = (dict(zip(names, values)) for values in spec.shear)
    if variant == "explicit":
        d["matrices"] = {name: list(m.ravel())
                         for name, m in zip(names, spec.generator_images())}
    return d


def proj_dist(u: np.ndarray, v: np.ndarray) -> float:
    """Chordal distance min(|u-v|, |u+v|) of unit representatives.

    Resolves tiny separations to machine precision, unlike the arccos of
    the dot product (whose error floor near zero angle is ~1e-8).
    """
    return float(min(np.linalg.norm(u - v), np.linalg.norm(u + v)))


def equivariance_report(model, spec) -> dict:
    """Residuals of curve invariance under the generators.

    When the curve (or its dual) is exactly known, reports the max exact
    residual of the mapped samples.  Otherwise reports the max angular
    deviation of each mapped point from the sample nearest to its mapped
    param, divided by the local param gap (a scale-free heuristic: the
    curve map is at least Lipschitz on the families handled here).
    """
    gen_imgs = spec.generator_images()
    n = len(model)
    exact_p, exact_l, rel = 0.0, 0.0, 0.0
    for k in range(2 * spec.seed.genus):
        g = gen_imgs[k]
        gd = np.linalg.inv(g).T
        mp = canonicalize_rows((g @ model.points.T).T)
        ml = canonicalize_rows((gd @ model.lines.T).T)
        if model.exact_point_line is not None:
            exact_p = max(exact_p, float(np.abs(mp @ model.exact_point_line).max()))
        else:
            m2 = spec.seed.generators[k]
            dirs = np.stack([np.cos(model.params), np.sin(model.params)], axis=1)
            mdir = (m2 @ dirs.T).T
            mpar = np.arctan2(mdir[:, 1], mdir[:, 0]) % math.pi
            pos = np.searchsorted(model.params, mpar)
            left, right = (pos - 1) % n, pos % n
            dl = np.abs(model.params[left] - mpar)
            dl = np.minimum(dl, math.pi - dl)
            dr = np.abs(model.params[right] - mpar)
            dr = np.minimum(dr, math.pi - dr)
            use = np.where(dr <= dl, right, left)
            gaps = np.maximum(np.minimum(dl, dr), model.dedup_res)
            ref = model.points[use]
            dev = np.arccos(np.minimum(1.0, np.abs(np.einsum("ij,ij->i", mp, ref))))
            rel = max(rel, float((dev / gaps).max()))
        if model.exact_line_point is not None:
            exact_l = max(exact_l, float(np.abs(ml @ model.exact_line_point).max()))
    return {
        "exact_point_residual": exact_p if model.exact_point_line is not None else None,
        "exact_line_residual": exact_l if model.exact_line_point is not None else None,
        "relative_point_deviation": rel if model.exact_point_line is None else None,
    }


def lagrange_fill_sorting_support(pts: np.ndarray) -> np.ndarray:
    """The delta profile's grid, as ``delta._lagrange_fill`` fills it,
    from the support of all 2n angles and antipodes sorted at once.

    Each grid node is the cubic Lagrange value through its 4 nearest
    support nodes; the support is thinned to ``_THIN_SPACING`` by the
    greedy pass, the last node dropped when it wraps onto the first.
    """
    xs, zs, ys = _plane_coords(pts)
    ang = np.arctan2(ys, xs) % (2.0 * math.pi)
    support = np.concatenate([ang, (ang + math.pi) % (2.0 * math.pi)])
    order = np.argsort(support)
    ang, val = support[order], np.concatenate([-zs, zs])[order]
    keep = greedy_thin(ang, _THIN_SPACING)
    if (2.0 * math.pi - ang[keep[-1]]) + ang[keep[0]] < _THIN_SPACING and len(keep) > 4:
        keep = keep[:-1]
    ang, val = ang[keep], val[keep]
    m = len(ang)
    if m < 8:
        raise PolarDegenerate("too few distinct directions to fit a profile")
    nodes = np.arange(GRID_SIZE) * (2.0 * math.pi / GRID_SIZE)
    idx = (np.searchsorted(ang, nodes)[:, None] + np.array([-2, -1, 0, 1])) % m
    theta = ang[idx]
    theta += 2.0 * math.pi * np.round((nodes[:, None] - theta) / (2.0 * math.pi))
    fv = val[idx]
    out = np.zeros(GRID_SIZE)
    for j in range(4):
        w = np.ones(GRID_SIZE)
        for k in range(4):
            if k != j:
                w *= (nodes - theta[:, k]) / (theta[:, j] - theta[:, k])
        out += w * fv[:, j]
    return out
