"""Representation constructors, their JSON form and the config's JSON
type rules.

Four families, all sharing a Fuchsian seed.  The three structured ones
build each generator image with ``radial_generator`` from its 2x2 seed
block and its data (u, mu, nu):

- radial: a middle-row shear (mu, nu) per generator, validated against
  the surface relator;
- linear_u: zero shear, the canonical images composed with the commuting
  diagonal flow ``phi`` of exponent u;
- canonical: zero data, the block embedding ``rho0`` fixing [e2] and the
  plane {second coordinate = 0};
- explicit: arbitrary per-generator SL(3,R) images.

Determinant-1 representatives are unique in odd dimension (no PGL sign
ambiguity), so evaluation is sign-deterministic by construction, and the
relator's image, checked by ``surface.relator_residual``, can be near the
identity but never near -I.

A spec's data u, mu and nu is a tuple of one float per generator.  The
JSON type rules of the run config live here beside the spec reader that
uses them most: ``json_number``, ``json_object`` (which rejects a key it
is not given), ``json_field`` (which names a missing one), ``json_floats``
(the one reader of a fixed-shape array) and ``generator_values`` (an
object keyed by generator name).  Each failure is a ConfigError naming
its field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotUnimodular, UnsupportedSpec
from .surface import FuchsianSeed, gen_name, relator_residual, standard_fuchsian

VARIANTS = ("canonical", "linear_u", "radial", "explicit")
# Largest genus a config may give: the standard seed of genus 15 misses
# its relator check (residual 2.1e-8 > 1e-8), and from genus 41 on its
# construction leaves the reals.
MAX_GENUS = 14
REP_SPEC_KEYS = ("variant", "seed", "u", "mu", "nu", "coboundary", "matrices")


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


def radial_generator(m2: np.ndarray, u_val: float, mu: float, nu: float) -> np.ndarray:
    """One radial generator image from its 2x2 seed block and shear data."""
    a3 = math.exp(u_val / 3.0)
    q = math.exp(-2.0 * u_val / 3.0)
    return np.array(
        [
            [a3 * m2[0, 0], 0.0, a3 * m2[0, 1]],
            [mu, q, nu],
            [a3 * m2[1, 0], 0.0, a3 * m2[1, 1]],
        ]
    )


@dataclass(frozen=True)
class RepSpec:
    """Representation descriptor.  Immutable after validation."""

    variant: str
    seed: FuchsianSeed
    # Structured data, one float per generator: zero where the variant
    # fixes it, u zero by default.
    u: tuple | None = None
    mu: tuple | None = None  # given for radial
    nu: tuple | None = None
    matrices: tuple | None = None  # per generator 3x3, explicit only

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant != "explicit":
            zero = (0.0,) * (2 * self.seed.genus)
            if self.variant == "canonical" or self.u is None:
                object.__setattr__(self, "u", zero)
            if self.variant != "radial":
                object.__setattr__(self, "mu", zero)
                object.__setattr__(self, "nu", zero)
            if self.mu is None or self.nu is None:
                raise ValueError("radial spec requires mu and nu per generator")
            for field in ("u", "mu", "nu"):
                values = tuple(map(float, getattr(self, field)))
                if len(values) != len(zero):
                    raise ValueError(f"{field} length must match generator count")
                object.__setattr__(self, field, values)
        elif self.matrices is None or len(self.matrices) != 2 * self.seed.genus:
            raise ValueError("explicit spec requires one 3x3 matrix per generator")
        res = relator_residual(self.letter_images())
        if not res <= 1e-8:  # a NaN residual fails too
            raise ValueError(f"3x3 relator residual {res:.3e} > 1e-8")

    @property
    def genus(self) -> int:
        return self.seed.genus

    def generator_images(self) -> np.ndarray:
        """(2g, 3, 3) stack of generator images."""
        if self.variant == "explicit":
            return np.array(self.matrices, dtype=float)
        return np.array([radial_generator(*data) for data in zip(
            self.seed.generators, self.u, self.mu, self.nu)])

    def letter_images(self) -> np.ndarray:
        """(4g, 3, 3) stack: generator at 2k, inverse at 2k+1."""
        gens = self.generator_images()
        out = np.empty((4 * self.genus, 3, 3))
        for k in range(2 * self.genus):
            out[2 * k] = gens[k]
            inv = np.linalg.inv(gens[k])
            out[2 * k + 1] = inv / np.cbrt(np.linalg.det(inv))
        return out


def spec_from_json_dict(d: dict) -> RepSpec:
    """Build a RepSpec from its JSON form.

    The seed may be given explicitly ({"genus", "generators"}, each
    generator a row of 4 numbers) or as {"genus": g} alone, which selects
    the standard 4g-gon seed; either way the genus is in [2, MAX_GENUS].
    A radial spec may give {"coboundary": {"m1":..., "m2":...}} instead of
    mu/nu.
    """
    variant = json_object(d, "rep_spec", REP_SPEC_KEYS).get("variant")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if "seed" not in d:
        raise ValueError("missing field 'seed'")
    seed_d = json_object(d["seed"], "seed", ("genus", "generators"))
    genus = json_number(int, json_field(seed_d, "seed", "genus"), "seed.genus")
    if not 2 <= genus <= MAX_GENUS:
        raise ConfigError(f"field 'seed.genus' must be in [2, {MAX_GENUS}], not {genus}")
    if "generators" in seed_d:
        rows = seed_d["generators"]
        if not isinstance(rows, list):
            raise ConfigError("field 'seed.generators' must be a JSON array")
        seed = FuchsianSeed(genus, tuple(json_floats(row, "seed.generators", (2, 2))
                                         for row in rows))
    else:
        seed = standard_fuchsian(genus)
    u = generator_values(d.get("u", {}), "u", genus)
    if variant == "canonical":
        return RepSpec("canonical", seed)
    if variant == "linear_u":
        return RepSpec("linear_u", seed, u=u)
    if variant == "radial":
        if "coboundary" in d:
            if "mu" in d or "nu" in d:
                raise ValueError("give either 'coboundary' or 'mu'/'nu', not both")
            cb = json_object(d["coboundary"], "coboundary", ("m1", "m2"))
            m1, m2 = (json_number(float, json_field(cb, "coboundary", k), f"coboundary.{k}")
                      for k in ("m1", "m2"))
            return coboundary_radial(RepSpec("linear_u", seed, u=u), m1, m2)
        if d.get("mu") is None or d.get("nu") is None:
            raise ValueError("radial spec requires 'mu' and 'nu' (or 'coboundary')")
        return RepSpec("radial", seed, u=u, mu=generator_values(d["mu"], "mu", genus),
                       nu=generator_values(d["nu"], "nu", genus))
    if "matrices" not in d:
        raise ValueError("explicit spec requires 'matrices'")
    names = [gen_name(k) for k in range(2 * genus)]
    mats_d = json_object(d["matrices"], "matrices", set(names))
    mats = []
    for name in names:
        m = json_floats(json_field(mats_d, "matrices", name), f"matrices.{name}", (3, 3))
        det = np.linalg.det(m)
        if det == 0.0:
            raise ValueError(f"matrix for generator {name} is singular")
        m = m / np.cbrt(det)
        m.flags.writeable = False
        mats.append(m)
    return RepSpec("explicit", seed, matrices=tuple(mats))


def coboundary_radial(spec: RepSpec, m1: float, m2: float) -> RepSpec:
    """Radial spec obtained by conjugating a linear_u spec with the unipotent
    whose middle row is (m1, 1, m2).

    The conjugated generators preserve [e2]; their invariant point curve is
    the shear image {z = m1*x + m2*y} of the canonical line z = 0.
    """
    if spec.variant != "linear_u":
        raise UnsupportedSpec("coboundary construction starts from a linear_u spec")
    g = spec.genus
    U = np.eye(3)
    U[1, 0], U[1, 2] = m1, m2
    Uinv = np.eye(3)
    Uinv[1, 0], Uinv[1, 2] = -m1, -m2
    mu, nu = [], []
    for k in range(2 * g):
        img = U @ phi(spec.u[k]) @ rho0(spec.seed.generators[k]) @ Uinv
        mu.append(float(img[1, 0]))
        nu.append(float(img[1, 2]))
    return RepSpec("radial", spec.seed, u=spec.u, mu=tuple(mu), nu=tuple(nu))
