"""Command-line surface.

One JSON config file drives everything; flags only select the command,
the config path, and the output directory.  ``RunConfig`` validates the
whole config with the JSON type rules of ``reps`` before any output
exists, so a key it does not know is an error; a render key it omits
takes ``svg.render_model``'s default.  Each ``cmd_*`` returns its exit code and
report payload, ``dataclasses.asdict`` of its library result, so a report
key is its result field's name; ``main`` writes ``<command>.json`` with
the common header, and a command writes only its other files.  All file
outputs are byte-deterministic for a fixed config (collections are
sorted before emission, wall-clock timing goes to stderr only).  One
writer, ``_write_csv``, streams both CSV files CSV_ROWS rows at a time,
each float as Python's ``repr`` writes it: ``textfmt`` formats a chunk of
columns at once in numpy, and hands the few floats ``repr`` writes in
exponent form (or as nan/inf) to ``repr`` itself.

``limit-curve`` checks incidence, which needs 64 samples, before it
writes any file; ``curve.csv`` names each chunk's words as bytes with
``BallTable.word_strings``.  ``delta`` and ``regularity`` sample only
the points beside the params, and ``orbit`` only the points and lines,
at radius min(R, 5): none names a word of its curve model.  Every
command samples its model through ``_model``, with the config's
translation-length floor and dedup tolerance.

Exit codes: 0 success (certify: certified-at-scale), 2 config error,
3 insufficient samples, 4 certify refuted, 5 certify inconclusive or a
spec with no u (probe only), 6 other module errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ball import DEFAULT_MIN_LENGTH
from .certify import DEFAULT_MARGIN, certify_anosov, probe_explicit
from .curve import (COLUMNS, DEFAULT_DEDUP, DEFAULT_INCIDENCE_ZERO, check_incidence,
                    injectivity_report, regularity_diagnostics, sample_limit_curve)
from .delta import fit_delta, pushforward_deviation
from .domain import recurrence_experiment
from .errors import ConfigError, FlagCurveError, InsufficientSamples
from .projective import Flag
from .reps import RepSpec, json_field, json_floats, json_number, json_object, spec_from_json_dict

DEFAULT_TOLERANCES = {
    "certify_margin": DEFAULT_MARGIN,
    "dedup": DEFAULT_DEDUP,
    "incidence_zero": DEFAULT_INCIDENCE_ZERO,
}
# The render block's numeric keys, by type; ``chart`` is its other key.
RENDER_NUMBERS = {"width_px": int, "stroke": float, "window": float}
CSV_HEADER = b"param,point_x,point_y,point_z,line_a,line_b,line_c,word,translation_length"
# Rows of a CSV file formatted per write: for 1,024 rows of curve.csv
# (8,192 floats, words named) the formatter's arrays peak at about 1.3 MB.
CSV_ROWS = 1 << 10
ORBIT_KEYS = ("base_point", "base_line", "neighborhood")
ROOT_KEYS = ("rep_spec", "output_dir", "ball_radius", "min_translation_length", "tolerances",
             "render", "incidence_max_lines", "orbit")


def _positive(kind: type, value, name: str):
    """``json_number`` restricted to values > 0."""
    value = json_number(kind, value, name)
    if value <= 0:
        raise ConfigError(f"field {name!r} must be positive")
    return value


def _reject_constant(name: str):
    """``json.loads`` hook: the report echoes the config, and JSON has no
    NaN or Infinity."""
    raise ConfigError(f"config holds {name}, which is not a JSON number")


def _finite_float(text: str) -> float:
    """``json.loads`` hook: a number such as 1e999 would parse to inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} overflows a float")
    return value


def _base_flag(orbit: dict) -> Flag:
    """The base flag of the ``orbit`` config block."""
    if "base_point" in orbit or "base_line" in orbit:
        point, line = (json_floats(json_field(orbit, "orbit", k), f"orbit.{k}", (3,))
                       for k in ("base_point", "base_line"))
        try:
            return Flag.of(point, line)
        except ValueError as e:
            raise ConfigError(f"bad field 'orbit.base_point'/'orbit.base_line': {e}") from e
    # Documented default: inside the canonical domain with wide margins.
    s = 1.0 / math.sqrt(2.0)
    return Flag.of((s, s, 0.0), (s, -s, 0.0))


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict, source_bytes: bytes, out_dir: str | None):
        output_dir = json_object(raw, "", ROOT_KEYS).get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("field 'output_dir' must be a string")
        rep_spec = json_field(raw, "", "rep_spec")
        try:
            self.spec: RepSpec = spec_from_json_dict(rep_spec)
        except (ValueError, OverflowError, FlagCurveError) as e:
            # OverflowError: math.exp of a large |u| in a generator image.
            raise ConfigError(f"bad field 'rep_spec': {e}") from e
        self.ball_radius = json_number(int, raw.get("ball_radius", 6), "ball_radius")
        if not 2 <= self.ball_radius <= 12:
            raise ConfigError("field 'ball_radius' must be in [2, 12]")
        self.min_translation_length = json_number(
            float, raw.get("min_translation_length", DEFAULT_MIN_LENGTH),
            "min_translation_length")
        if self.min_translation_length < 0:
            raise ConfigError("field 'min_translation_length' must be >= 0")
        self.tolerances = dict(DEFAULT_TOLERANCES)
        for k, v in json_object(raw.get("tolerances", {}), "tolerances",
                                DEFAULT_TOLERANCES).items():
            self.tolerances[k] = _positive(float, v, f"tolerances.{k}")
        self.render = dict(json_object(raw.get("render", {}), "render",
                                       ("chart", *RENDER_NUMBERS)))
        if "chart" in self.render and self.render["chart"] not in ("affine", "dual", "both"):
            raise ConfigError("field 'render.chart' must be affine|dual|both")
        for k, kind in RENDER_NUMBERS.items():
            if k in self.render:
                self.render[k] = _positive(kind, self.render[k], f"render.{k}")
        self.incidence_max_lines = raw.get("incidence_max_lines", 4096)
        if self.incidence_max_lines is not None:
            self.incidence_max_lines = json_number(
                int, self.incidence_max_lines, "incidence_max_lines")
            if self.incidence_max_lines < 1:
                raise ConfigError("field 'incidence_max_lines' must be >= 1 or null")
        orbit = json_object(raw.get("orbit", {}), "orbit", ORBIT_KEYS)
        self.orbit_base = _base_flag(orbit)
        self.orbit_neighborhood = _positive(
            float, orbit.get("neighborhood", 0.05), "orbit.neighborhood")
        # The base's margins are angles in [0, pi/2], and the recurrence
        # needs both above 2 * neighborhood.
        if self.orbit_neighborhood >= math.pi / 4:
            raise ConfigError("field 'orbit.neighborhood' must be below pi/4")
        self.out_dir = Path(out_dir) if out_dir else Path(output_dir)
        self.raw = raw
        self.source_bytes = source_bytes

    @property
    def input_sha256(self) -> str:
        # The interpreter's own SHA-256: hashlib loads OpenSSL, about
        # 3.4 MB resident, for the one digest of the report header.
        try:
            if sys.version_info >= (3, 12):
                from _sha2 import sha256
            else:
                from _sha256 import sha256
        except ImportError:  # an interpreter built without its own hashes
            from hashlib import sha256
        return sha256(self.source_bytes).hexdigest()

    @staticmethod
    def load(path: str, out_dir: str | None, _ignored=None) -> "RunConfig":
        # _ignored: perfbench/run.py's set-up probe passes a third argument.
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        data = p.read_bytes()
        try:
            raw = json.loads(data, parse_constant=_reject_constant,
                             parse_float=_finite_float)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        except RecursionError as e:
            raise ConfigError("config nests too deeply to parse") from e
        return RunConfig(raw, data, out_dir)


def _model(config: RunConfig, *columns: str, radius: int | None = None):
    """The config's curve model, with the columns its reader names, at the
    config's ball radius unless ``radius`` is given."""
    return sample_limit_curve(config.spec, config.ball_radius if radius is None else radius,
                              min_length=config.min_translation_length,
                              dedup_res=config.tolerances["dedup"], columns=columns)


def _write_csv(path: Path, header: bytes, n: int, columns) -> None:
    """Write ``header`` and ``n`` rows to ``path``, CSV_ROWS per ``csv_bytes``
    call; ``columns(rows)`` gives the columns of the rows in slice ``rows``."""
    from .textfmt import csv_bytes

    with open(path, "wb") as f:
        f.write(header + b"\n")
        for lo in range(0, n, CSV_ROWS):
            f.write(csv_bytes(columns(slice(lo, lo + CSV_ROWS))))


def cmd_limit_curve(config: RunConfig) -> tuple:
    from .svg import render_model

    model = _model(config, *COLUMNS)
    # Raises InsufficientSamples below 64 samples, before any file exists.
    inc = check_incidence(model, ztol=config.tolerances["incidence_zero"],
                          max_lines=config.incidence_max_lines)
    ids = model.words
    _write_csv(config.out_dir / "curve.csv", CSV_HEADER, len(model), lambda rows: [
        model.params[rows], *model.points[rows].T, *model.lines[rows].T,
        ids.table.word_strings(ids.levels[rows], ids.index[rows]), model.tlens[rows]])
    payload = {
        "samples": len(model),
        "injectivity": dataclasses.asdict(injectivity_report(model)),
        "incidence": dataclasses.asdict(inc),
    }
    # String keys: sort_keys orders int keys as numbers, 1, 3, 11, and the
    # report lists them as strings, "1", "11", "3".
    payload["incidence"]["histogram"] = {str(k): v for k, v in inc.histogram.items()}
    (config.out_dir / "curve.svg").write_text(render_model(model, **config.render),
                                              encoding="utf-8")
    return 0, payload


def cmd_certify(config: RunConfig) -> tuple:
    if config.spec.u is None:
        probe = probe_explicit(config.spec, config.ball_radius,
                               min_length=config.min_translation_length)
        return 5, {"verdict": "probe-only", "probe": dataclasses.asdict(probe)}
    res = certify_anosov(config.spec, config.ball_radius,
                         margin=config.tolerances["certify_margin"],
                         min_length=config.min_translation_length)
    payload = dataclasses.asdict(res)
    if res.rates is None:  # a refuted report has no rates key
        del payload["rates"]
    return {"certified-at-scale": 0, "refuted": 4, "inconclusive": 5}[res.verdict], payload


def cmd_delta(config: RunConfig) -> tuple:
    model = _model(config, "points")
    fit = fit_delta(config.spec, model)
    push = pushforward_deviation(model, fit)
    grid = fit.model.grid
    theta = np.arange(len(grid)) * (2.0 * math.pi / len(grid))
    _write_csv(config.out_dir / "delta_profile.csv", b"theta,delta", len(grid),
               lambda rows: [theta[rows], grid[rows]])
    return 0, {
        "samples": len(model),
        "grid_size": len(grid),
        "cocycle_residual": fit.cocycle_residual,
        "pushforward_to_canonical_line": push,
        "taus": fit.taus,
    }


def cmd_orbit(config: RunConfig) -> tuple:
    model = _model(config, "points", "lines", radius=min(config.ball_radius, 5))
    rep = recurrence_experiment(config.spec, config.orbit_base, config.orbit_neighborhood,
                                config.ball_radius, model)
    payload = dataclasses.asdict(rep)
    # Shorter words first: string length stops tracking word length once
    # letter names differ in width (genus >= 10).
    payload["returning_words"] = sorted(rep.returning_words,
                                        key=lambda w: (w.count(".") + 1 if w else 0, w))
    return 0, payload


def cmd_regularity(config: RunConfig) -> tuple:
    model = _model(config, "points")
    return 0, {"samples": len(model), **dataclasses.asdict(regularity_diagnostics(model))}


_DISPATCH = {"limit-curve": cmd_limit_curve, "certify": cmd_certify, "delta": cmd_delta,
             "orbit": cmd_orbit, "regularity": cmd_regularity}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flagcurve", description="Flag representations of surface groups: limit "
        "curves, certificates, invariant-domain experiments.")
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        config = RunConfig.load(args.config, args.out)
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory: {e}") from e
        # A spec whose images near the float range trips numpy's overflow
        # and invalid-value warnings on the way to the one error it
        # reports; only that error reaches stderr.
        with np.errstate(all="ignore"):
            code, payload = _DISPATCH[args.command](config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InsufficientSamples as e:
        print(f"insufficient samples: {e}", file=sys.stderr)
        return 3
    except FlagCurveError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 6
    report = {
        "command": args.command,
        "tool_version": __version__,
        "input_sha256": config.input_sha256,
        "config": config.raw,
        **payload,
    }
    (config.out_dir / f"{args.command.replace('-', '_')}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    print(f"elapsed {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
