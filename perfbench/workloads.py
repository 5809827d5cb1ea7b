"""Workload definitions and their seeded config files.

Every workload is a fixed list of CLI commands, each run against a
generated JSON config with the default of one worker.  Only the
conjugator of ``explicit-g3`` depends on the seed; the other two
workloads write the same configs for every seed.

Why these three (sizes at full scale):

- ``curve-g2r5``: genus 2 radial spec at R=5 (38,736 samples).
  ``limit-curve`` checks a tall 38,736 x 2,048 strided pairing and writes
  3 MB of CSV, SVG and JSON, so it exercises the incidence and emission
  layers; then ``regularity``.
- ``spectra-g2r6``: the same spec at R=6 (493,000 ball words over the
  three commands' builds, 150,728 samples, 137,280 scored elements).
  ``certify``, ``delta`` and ``orbit`` spend about half their time in the
  ball and spectral layers and never run incidence.
- ``explicit-g3``: the genus 3 radial spec conjugated by a seeded SL(3)
  matrix, as an explicit spec.  ``limit-curve`` at R=4 checks every line
  (a square 15,948 x 15,948 pairing); ``certify`` at R=5 takes the probe
  path (177,180 scored elements, no word strings, generic eigenproblems)
  and exits 5.

The radii keep one pass of a workload to a few seconds, so that a run
holds many passes and their medians hold still on a shared host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0  # the seed digests.json is pinned at

# Shared radial data: u(a1) = 0.3, coboundary (m1, m2) = (0.4, -0.2).
RADIAL = {"variant": "radial", "u": {"a1": 0.3}, "coboundary": {"m1": 0.4, "m2": -0.2}}

# Report file and the other files each command writes.
REPORTS = {
    "limit-curve": "limit_curve.json",
    "certify": "certify.json",
    "delta": "delta.json",
    "orbit": "orbit.json",
    "regularity": "regularity.json",
}
FILES = {
    "limit-curve": ("curve.csv", "curve.svg"),
    "delta": ("delta_profile.csv",),
}
CURVE_FACTS = {"incidence/passed": True, "injectivity/violations": 0}


@dataclass(frozen=True)
class Command:
    name: str
    config: str  # key into Workload.configs
    exit_code: int
    # Report fields, as "a/b" paths, that hold one value for every seed.
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict  # key -> config object
    commands: tuple
    seeded: bool  # True when the configs depend on the seed

    def write_configs(self, directory: Path) -> dict:
        """Write each config as ``<key>.json``; return key -> path."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, cfg in self.configs.items():
            p = directory / f"{key}.json"
            p.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            paths[key] = p
        return paths


def conjugator(seed: int, max_cond: float = 20.0) -> np.ndarray:
    """Random determinant-one 3x3 matrix with condition number below max_cond."""
    rng = np.random.default_rng(seed)
    while True:
        m = rng.normal(size=(3, 3))
        d = np.linalg.det(m)
        if abs(d) < 0.1:
            continue
        m = m / np.cbrt(d)
        if np.linalg.cond(m) < max_cond:
            return m


def explicit_spec(genus: int, seed: int) -> dict:
    """The genus-g radial spec conjugated by ``conjugator(seed)``, given
    as an explicit spec of generator matrices."""
    from flagcurve.reps import spec_from_json_dict
    from flagcurve.surface import gen_name

    gens = spec_from_json_dict({**RADIAL, "seed": {"genus": genus}}).generator_images()
    c = conjugator(seed)
    ci = np.linalg.inv(c)
    return {
        "variant": "explicit",
        "seed": {"genus": genus},
        "matrices": {gen_name(k): [float(x) for x in (c @ gens[k] @ ci).ravel()]
                     for k in range(2 * genus)},
    }


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks every radius to a few-second run."""
    if name == "curve-g2r5":
        cfg = {"rep_spec": {**RADIAL, "seed": {"genus": 2}}, "ball_radius": 4 if smoke else 5}
        return Workload(name, {"g2": cfg}, (
            Command("limit-curve", "g2", 0, CURVE_FACTS),
            Command("regularity", "g2", 0),
        ), seeded=False)
    if name == "spectra-g2r6":
        cfg = {"rep_spec": {**RADIAL, "seed": {"genus": 2}}, "ball_radius": 4 if smoke else 6}
        return Workload(name, {"g2": cfg}, (
            Command("certify", "g2", 0, {"verdict": "certified-at-scale"}),
            Command("delta", "g2", 0),
            Command("orbit", "g2", 0),
        ), seeded=False)
    if name == "explicit-g3":
        spec = explicit_spec(3, seed)
        curve = {"rep_spec": spec, "ball_radius": 3 if smoke else 4,
                 "incidence_max_lines": None}
        probe = {"rep_spec": spec, "ball_radius": 3 if smoke else 5}
        # Conjugation moves neither the seed's 2x2 data nor the spectrum,
        # so the sample and scored counts are those of the radial spec.
        return Workload(name, {"curve": curve, "probe": probe}, (
            Command("limit-curve", "curve", 0,
                    {**CURVE_FACTS, "samples": 1452 if smoke else 15948}),
            Command("certify", "probe", 5,
                    {"probe/n_scored": 1476 if smoke else 177180,
                     "probe/loxodromy_rate": 1.0}),
        ), seeded=True)
    raise KeyError(name)


NAMES = ("curve-g2r5", "spectra-g2r6", "explicit-g3")
