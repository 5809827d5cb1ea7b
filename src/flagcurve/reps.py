"""Representation constructors and their JSON form.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnimodular, UnsupportedSpec
from .surface import (
    CohomologyClass,
    FuchsianSeed,
    gen_name,
    json_number,
    json_object,
    relator_residual,
    standard_fuchsian,
)

VARIANTS = ("canonical", "linear_u", "radial", "explicit")


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
    # Structured data: zero where the variant fixes it, u zero by default.
    u: CohomologyClass | None = None
    mu: tuple | None = None  # per generator, given for radial
    nu: tuple | None = None
    matrices: tuple | None = None  # per generator 3x3, explicit only

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant in ("canonical", "linear_u", "radial"):
            zero = CohomologyClass.zero(self.seed.genus)
            if self.variant == "canonical" or self.u is None:
                object.__setattr__(self, "u", zero)
            if self.variant != "radial":
                object.__setattr__(self, "mu", zero.values)
                object.__setattr__(self, "nu", zero.values)
            if self.mu is None or self.nu is None:
                raise ValueError("radial spec requires mu and nu per generator")
            if len(self.mu) != 2 * self.seed.genus or len(self.nu) != 2 * self.seed.genus:
                raise ValueError("mu/nu length must match generator count")
        if self.variant == "explicit":
            if self.matrices is None or len(self.matrices) != 2 * self.seed.genus:
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
            self.seed.generators, self.u.values, self.mu, self.nu)])

    def letter_images(self) -> np.ndarray:
        """(4g, 3, 3) stack: generator at 2k, inverse at 2k+1."""
        gens = self.generator_images()
        out = np.empty((4 * self.genus, 3, 3))
        for k in range(2 * self.genus):
            out[2 * k] = gens[k]
            inv = np.linalg.inv(gens[k])
            out[2 * k + 1] = inv / np.cbrt(np.linalg.det(inv))
        return out


def _cohomology(d: dict, key: str, genus: int) -> CohomologyClass:
    """The class whose generator values are the JSON object ``d[key]``;
    zero when the key is absent."""
    values = json_object(d.get(key, {}), key)
    return CohomologyClass.from_dict(
        {k: json_number(float, v, f"{key}.{k}") for k, v in values.items()}, genus)


def spec_from_json_dict(d: dict) -> RepSpec:
    """Build a RepSpec from its JSON form.

    The seed may be given explicitly ({"genus", "generators"}) or as
    {"genus": g} alone, which selects the standard 4g-gon seed.  A radial
    spec may give {"coboundary": {"m1":..., "m2":...}} instead of mu/nu.
    """
    variant = json_object(d, "rep_spec").get("variant")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if "seed" not in d:
        raise ValueError("missing field 'seed'")
    seed_d = json_object(d["seed"], "seed")
    if "generators" in seed_d:
        seed = FuchsianSeed.from_json_dict(seed_d)
    else:
        seed = standard_fuchsian(json_number(int, seed_d["genus"], "seed.genus"))
    genus = seed.genus
    u = _cohomology(d, "u", genus)
    if variant == "canonical":
        return RepSpec("canonical", seed)
    if variant == "linear_u":
        return RepSpec("linear_u", seed, u=u)
    if variant == "radial":
        if "coboundary" in d:
            if "mu" in d or "nu" in d:
                raise ValueError("give either 'coboundary' or 'mu'/'nu', not both")
            cb = json_object(d["coboundary"], "coboundary")
            base = RepSpec("linear_u", seed, u=u)
            return coboundary_radial(base, json_number(float, cb["m1"], "coboundary.m1"),
                                     json_number(float, cb["m2"], "coboundary.m2"))
        if d.get("mu") is None or d.get("nu") is None:
            raise ValueError("radial spec requires 'mu' and 'nu' (or 'coboundary')")
        mu = _cohomology(d, "mu", genus).values
        nu = _cohomology(d, "nu", genus).values
        return RepSpec("radial", seed, u=u, mu=mu, nu=nu)
    if "matrices" not in d:
        raise ValueError("explicit spec requires 'matrices'")
    mats_d = json_object(d["matrices"], "matrices")
    mats = []
    for k in range(2 * genus):
        name = gen_name(k)
        if name not in mats_d:
            raise ValueError(f"missing matrix for generator {name}")
        m = np.array([json_number(float, x, f"matrices.{name}") for x in mats_d[name]])
        m = m.reshape(3, 3)
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
        img = U @ phi(spec.u.values[k]) @ rho0(spec.seed.generators[k]) @ Uinv
        mu.append(float(img[1, 0]))
        nu.append(float(img[1, 2]))
    return RepSpec("radial", spec.seed, u=spec.u, mu=tuple(mu), nu=tuple(nu))
