"""Representation specs, their constructors and JSON form, and the
config's JSON type rules.

A ``RepSpec`` is a Fuchsian seed, its letter stack, built once, and three
facts its readers ask for in place of a family name, each checked
against the letters; the constructors below build one.
``SPEC_READERS`` is the one map from a config's ``variant`` to a reader
and the keys it reads.

Determinant-1 representatives are unique in odd dimension (no PGL sign
ambiguity), so evaluation is sign-deterministic by construction, and the
relator's image, checked by ``surface.relator_residual``, can be near the
identity but never near -I.

The JSON type rules of the run config live here beside the spec reader
that uses them most: ``json_number``, ``json_object`` (which rejects a
key it is not given), ``json_field`` (which names a missing one),
``json_floats`` (the one reader of a fixed-shape array) and
``generator_values`` (an object keyed by generator name).  Each failure
is a ConfigError naming its field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NotUnimodular, UnsupportedSpec
from .surface import FuchsianSeed, gen_name, relator_residual, standard_fuchsian

# Largest genus a config may give: the standard seed of genus 15 misses
# its relator check (residual 2.1e-8 > 1e-8), and from genus 41 on its
# construction leaves the reals.
MAX_GENUS = 14
# [e2], which radial images fix; as a covector, the canonical line.
E2 = np.array([0.0, 1.0, 0.0])
E2.flags.writeable = False


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


def _path(name: str, key: str) -> str:
    """The dotted name of field ``key`` of field ``name`` ("" is the root)."""
    return f"{name}.{key}" if name else key


def json_object(value, name: str, keys) -> dict:
    """``value`` if it is a JSON object whose every key is in ``keys``, else
    a ConfigError naming the field."""
    if not isinstance(value, dict):
        where = f"field {name!r}" if name else "config root"
        raise ConfigError(f"{where} must be a JSON object")
    for k in value:
        if k not in keys:
            raise ConfigError(f"unknown field {_path(name, k)!r}")
    return value


def json_field(obj: dict, name: str, key: str):
    """``obj[key]``, or a ConfigError naming the missing field."""
    if key not in obj:
        raise ConfigError(f"missing field {_path(name, key)!r}")
    return obj[key]


def json_floats(value, name: str, shape: tuple) -> np.ndarray:
    """A read-only float array of ``shape`` from a flat JSON array of that
    many numbers, else a ConfigError naming the field."""
    size = math.prod(shape)
    if not isinstance(value, list) or len(value) != size:
        raise ConfigError(f"field {name!r} must be an array of {size} numbers")
    out = np.array([json_number(float, x, name) for x in value]).reshape(shape)
    out.flags.writeable = False
    return out


def generator_values(obj, name: str, genus: int) -> tuple:
    """One float per generator from a JSON object keyed by generator name;
    an absent generator reads as 0.0."""
    names = [gen_name(k) for k in range(2 * genus)]
    obj = json_object(obj, name, set(names))
    return tuple(json_number(float, obj.get(k, 0.0), _path(name, k)) for k in names)


def rho0(m: np.ndarray) -> np.ndarray:
    """Block embedding [[a,b],[c,d]] -> [[a,0,b],[0,1,0],[c,0,d]], read-only."""
    m = np.asarray(m, dtype=float)
    d = float(np.linalg.det(m))
    if not abs(d - 1.0) <= 1e-10:  # a NaN determinant fails too
        raise NotUnimodular(f"2x2 determinant {d}")
    out = np.array(
        [
            [m[0, 0], 0.0, m[0, 1]],
            [0.0, 1.0, 0.0],
            [m[1, 0], 0.0, m[1, 1]],
        ]
    )
    out.flags.writeable = False
    return out


def phi(t: float) -> np.ndarray:
    """Diagonal flow diag(e^{t/3}, e^{-2t/3}, e^{t/3}), read-only; commutes
    with rho0."""
    a, b = math.exp(t / 3.0), math.exp(-2.0 * t / 3.0)
    out = np.diag([a, b, a])
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class RepSpec:
    """A representation: its seed, its letter stack, checked against the
    relator, and three facts, each checked against it or None if unstated."""

    seed: FuchsianSeed
    letters: np.ndarray  # read-only (4g, 3, 3): generator k at 2k, its inverse at 2k+1
    # Per generator: u where each image fixes [e2] with eigenvalue
    # e^{-2u/3}, for certify's closed-form ratio and in_omega's exact
    # line margin (the line curve is the pencil through [e2]); and
    # the middle-row shear (mu, nu) whose profile delta fits.
    u: tuple | None = None
    shear: tuple | None = None
    # A line (a covector) every image preserves that holds every
    # attracting point: in_omega's exact point margin.
    fixed_line: np.ndarray | None = None

    def __post_init__(self):
        if self.letters.flags.writeable:
            raise ValueError("a spec's letter stack must be read-only")
        res = relator_residual(self.letters)
        if not res <= 1e-8:  # a NaN residual fails too
            raise ValueError(f"3x3 relator residual {res:.3e} > 1e-8")
        # Each stated fact as (got, want) rows, one per generator image.
        gens, line, checks = self.letters[::2], self.fixed_line, []
        if self.u is not None:
            checks.append(("u", gens @ E2, np.exp(-2.0 * np.array(self.u) / 3.0)[:, None] * E2))
        if self.shear is not None:
            if self.u is None:
                raise ValueError("a spec that states its shear must state its u")
            checks.append(("shear", gens[:, 1, ::2], np.array(self.shear).T))
        if line is not None:
            rows = line @ gens
            checks.append(("fixed_line", rows, (rows @ line / (line @ line))[:, None] * line))
        for name, got, want in checks:
            scale = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
            if not np.all(np.abs(got - want) <= 1e-12 * scale):  # NaN fails too
                raise ValueError(f"the spec's {name} disagrees with its generator images")

    def generator_images(self) -> np.ndarray:
        """Read-only (2g, 3, 3) stack of generator images: the even letters."""
        return self.letters[::2]


def explicit(seed: FuchsianSeed, matrices, **facts) -> RepSpec:
    """The spec of SL(3,R) generator images ``matrices`` and of ``facts``,
    none by default: generator k at letter 2k, its inverse scaled to
    determinant 1 at 2k+1."""
    if len(matrices) != 2 * seed.genus:
        raise ValueError("a spec needs one 3x3 matrix per generator")
    letters = np.empty((4 * seed.genus, 3, 3))
    letters[::2] = matrices
    inv = np.linalg.inv(letters[::2])
    letters[1::2] = inv / np.cbrt(np.linalg.det(inv))[:, None, None]
    letters.flags.writeable = False
    return RepSpec(seed, letters, **facts)


def radial(seed: FuchsianSeed, u, mu, nu) -> RepSpec:
    """Generator k fixes [e2]: seed block k scaled by e^{u[k]/3} in the
    corners, and the middle row (mu[k], e^{-2u[k]/3}, nu[k])."""
    u, mu, nu = data = tuple(tuple(map(float, v)) for v in (u, mu, nu))
    gens = []
    for m2, u_k, mu_k, nu_k in zip(seed.generators, *data, strict=True):
        a3, q = math.exp(u_k / 3.0), math.exp(-2.0 * u_k / 3.0)
        gens.append([[a3 * m2[0, 0], 0.0, a3 * m2[0, 1]], [mu_k, q, nu_k],
                     [a3 * m2[1, 0], 0.0, a3 * m2[1, 1]]])
    return explicit(seed, gens, u=u, shear=(mu, nu))


def linear_u(seed: FuchsianSeed, u) -> RepSpec:
    """Radial with zero shear: the canonical images composed with the
    commuting diagonal flow ``phi`` of exponent u[k]."""
    return radial(seed, u, *[(0.0,) * (2 * seed.genus)] * 2)


def canonical(seed: FuchsianSeed) -> RepSpec:
    """The block embedding ``rho0``: u zero, no shear profile, and images
    that preserve the line {second coordinate = 0}, which holds every
    attracting point (the [e2] eigenvalue 1 is always the middle one)."""
    return replace(linear_u(seed, (0.0,) * (2 * seed.genus)), shear=None, fixed_line=E2)


def coboundary_radial(spec: RepSpec, m1: float, m2: float) -> RepSpec:
    """Radial spec obtained by conjugating a zero-shear spec with the
    unipotent whose middle row is (m1, 1, m2).

    The conjugated generators preserve [e2]; their invariant point curve is
    the shear image {z = m1*x + m2*y} of the canonical line z = 0.
    """
    if spec.shear is None or any(map(any, spec.shear)):
        raise UnsupportedSpec("coboundary construction starts from a zero-shear spec")
    U, Uinv = np.eye(3), np.eye(3)
    U[1, ::2], Uinv[1, ::2] = (m1, m2), (-m1, -m2)
    imgs = [U @ phi(u_k) @ rho0(g2) @ Uinv for u_k, g2 in zip(spec.u, spec.seed.generators)]
    return radial(spec.seed, spec.u, *(tuple(float(g[1, j]) for g in imgs) for j in (0, 2)))


def _radial_from_json(d: dict, seed: FuchsianSeed) -> RepSpec:
    """A radial spec from its mu and nu, or from its coboundary."""
    u = generator_values(d.get("u", {}), "rep_spec.u", seed.genus)
    if "coboundary" in d:
        if "mu" in d or "nu" in d:
            raise ConfigError("give 'rep_spec.coboundary' or 'rep_spec.mu'/'rep_spec.nu',"
                              " not both")
        cb = json_object(d["coboundary"], "rep_spec.coboundary", ("m1", "m2"))
        m1, m2 = (json_number(float, json_field(cb, "rep_spec.coboundary", k),
                              f"rep_spec.coboundary.{k}") for k in ("m1", "m2"))
        return coboundary_radial(linear_u(seed, u), m1, m2)
    return radial(seed, u, *(generator_values(json_field(d, "rep_spec", k), f"rep_spec.{k}",
                                              seed.genus) for k in ("mu", "nu")))


def _explicit_from_json(d: dict, seed: FuchsianSeed) -> RepSpec:
    """An explicit spec from its matrices, each scaled to determinant 1."""
    names = [gen_name(k) for k in range(2 * seed.genus)]
    mats_d = json_object(json_field(d, "rep_spec", "matrices"), "rep_spec.matrices", set(names))
    mats = []
    for name in names:
        m = json_floats(json_field(mats_d, "rep_spec.matrices", name),
                        f"rep_spec.matrices.{name}", (3, 3))
        det = np.linalg.det(m)
        if det == 0.0:
            raise ValueError(f"matrix for generator {name} is singular")
        mats.append(m / np.cbrt(det))
    return explicit(seed, mats)


# Each config variant's rep_spec keys beside "variant" and "seed", and its
# reader: the one place a variant name appears.
SPEC_READERS = {
    "canonical": ((), lambda d, seed: canonical(seed)),
    "linear_u": (("u",), lambda d, seed: linear_u(
        seed, generator_values(d.get("u", {}), "rep_spec.u", seed.genus))),
    "radial": (("u", "mu", "nu", "coboundary"), _radial_from_json),
    "explicit": (("matrices",), _explicit_from_json),
}


def spec_from_json_dict(d: dict) -> RepSpec:
    """Build a RepSpec from its JSON form.

    The seed may be given explicitly ({"genus", "generators"}, each
    generator a row of 4 numbers) or as {"genus": g} alone, which selects
    the standard 4g-gon seed; either way the genus is in [2, MAX_GENUS].
    A malformed field, or a key the variant's reader does not read, is a
    ConfigError naming its full ``rep_spec.`` path.
    """
    # Every key passes here; the variant's own keys are checked below.
    variant = json_field(json_object(d, "rep_spec", d), "rep_spec", "variant")
    if not isinstance(variant, str) or variant not in SPEC_READERS:
        raise ConfigError(f"field 'rep_spec.variant' must be one of {tuple(SPEC_READERS)},"
                          f" not {variant!r}")
    keys, read = SPEC_READERS[variant]
    json_object(d, "rep_spec", ("variant", "seed", *keys))
    seed_d = json_object(json_field(d, "rep_spec", "seed"), "rep_spec.seed",
                         ("genus", "generators"))
    genus = json_number(int, json_field(seed_d, "rep_spec.seed", "genus"), "rep_spec.seed.genus")
    if not 2 <= genus <= MAX_GENUS:
        raise ConfigError(f"field 'rep_spec.seed.genus' must be in [2, {MAX_GENUS}], not {genus}")
    if "generators" in seed_d:
        rows = seed_d["generators"]
        if not isinstance(rows, list):
            raise ConfigError("field 'rep_spec.seed.generators' must be a JSON array")
        seed = FuchsianSeed(genus, tuple(json_floats(row, "rep_spec.seed.generators", (2, 2))
                                         for row in rows))
    else:
        seed = standard_fuchsian(genus)
    return read(d, seed)
