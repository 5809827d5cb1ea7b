"""Command-line surface.

One JSON config file drives everything; flags only select the command,
the config path, and the output directory.  ``RunConfig`` validates the
whole config before any output exists.  Each ``cmd_*`` returns its exit
code and report payload; ``main`` creates the output directory and writes
``<command>.json`` with the common header, while a command writes only
its other files (CSV, SVG).  All file outputs are byte-deterministic for
a fixed config (collections are sorted before emission, wall-clock timing
goes to stderr only).  Every float in a CSV file reads exactly as Python's
``repr`` writes it, the shortest string that round-trips: ``textfmt``
formats a chunk of columns at once in numpy, and hands the few floats
``repr`` writes in exponent form (or as nan/inf) to ``repr`` itself.

``limit-curve`` checks incidence, which needs 64 samples, before it
writes any file, and then streams ``curve.csv`` to the open file in
chunks of CSV_ROWS rows, each chunk's words named as bytes by
``BallTable.word_strings``.  ``delta``, ``regularity`` and ``orbit``
name no word of their curve models.

Exit codes: 0 success (certify: certified-at-scale), 2 config error,
3 insufficient samples, 4 certify refuted, 5 certify inconclusive or
probe-only spec, 6 other module errors.
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
from .certify import DEFAULT_MARGIN, certify_anosov, probe_explicit
from .curve import (
    check_incidence,
    injectivity_report,
    regularity_diagnostics,
    sample_limit_curve,
)
from .delta import fit_delta, pushforward_deviation
from .domain import recurrence_experiment
from .errors import ConfigError, FlagCurveError, InsufficientSamples
from .projective import Flag, ProjLine, ProjPoint
from .reps import RepSpec, spec_from_json_dict
from .surface import json_number, json_object

DEFAULT_TOLERANCES = {
    "certify_margin": DEFAULT_MARGIN,
    "dedup": 1e-7,
    "incidence_zero": 1e-9,
}
RENDER_KEYS = ("chart", "width_px", "stroke", "window")
CSV_HEADER = b"param,point_x,point_y,point_z,line_a,line_b,line_c,word,translation_length"
# Rows of a CSV file formatted per write: for 1,024 rows of curve.csv
# (8,192 floats, words named) the formatter's arrays peak at about 1.3 MB.
CSV_ROWS = 1 << 10
ORBIT_KEYS = ("base_point", "base_line", "neighborhood")


def _positive(kind: type, value, name: str):
    """``json_number`` restricted to values > 0."""
    value = json_number(kind, value, name)
    if value <= 0:
        raise ConfigError(f"field {name!r} must be positive")
    return value


def _object(raw: dict, name: str, keys) -> dict:
    """The optional JSON-object field ``name`` of the config, or {}; a key
    outside ``keys`` is a ConfigError."""
    value = json_object(raw.get(name, {}), name)
    for k in value:
        if k not in keys:
            raise ConfigError(f"unknown field '{name}.{k}'")
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


def _orbit_vector(orbit: dict, key: str) -> np.ndarray:
    """The array field ``key`` of the ``orbit`` block, every entry a JSON
    number."""
    value = orbit[key]
    if not isinstance(value, list):
        raise ConfigError(f"field 'orbit.{key}' must be a JSON array")
    return np.array([json_number(float, v, f"orbit.{key}") for v in value])


def _base_flag(orbit: dict) -> Flag:
    """The base flag of the ``orbit`` config block."""
    if "base_point" in orbit or "base_line" in orbit:
        try:
            p = ProjPoint.of(_orbit_vector(orbit, "base_point"))
            l = ProjLine.of(_orbit_vector(orbit, "base_line"))
            return Flag.of(p, l, tol=1e-8)
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad field 'orbit.base_point'/'orbit.base_line': {e}") from e
    # Documented default: inside the canonical domain with wide margins.
    s = 1.0 / math.sqrt(2.0)
    return Flag.of((s, s, 0.0), (s, -s, 0.0))


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict, source_bytes: bytes, out_dir: str | None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        output_dir = raw.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("field 'output_dir' must be a string")
        if "rep_spec" not in raw:
            raise ConfigError("missing field 'rep_spec'")
        try:
            self.spec: RepSpec = spec_from_json_dict(raw["rep_spec"])
        except (KeyError, ValueError, TypeError, OverflowError, FlagCurveError) as e:
            # OverflowError: math.exp of a large |u| in a generator image.
            raise ConfigError(f"bad field 'rep_spec': {e}") from e
        self.ball_radius = json_number(int, raw.get("ball_radius", 6), "ball_radius")
        if not 2 <= self.ball_radius <= 12:
            raise ConfigError("field 'ball_radius' must be in [2, 12]")
        self.min_translation_length = json_number(
            float, raw.get("min_translation_length", 0.5), "min_translation_length")
        if self.min_translation_length < 0:
            raise ConfigError("field 'min_translation_length' must be >= 0")
        self.tolerances = dict(DEFAULT_TOLERANCES)
        for k, v in _object(raw, "tolerances", DEFAULT_TOLERANCES).items():
            self.tolerances[k] = _positive(float, v, f"tolerances.{k}")
        render = _object(raw, "render", RENDER_KEYS)
        self.render_chart = render.get("chart", "both")
        if self.render_chart not in ("affine", "dual", "both"):
            raise ConfigError("field 'render.chart' must be affine|dual|both")
        self.render_width = _positive(int, render.get("width_px", 640), "render.width_px")
        self.render_stroke = _positive(float, render.get("stroke", 1.2), "render.stroke")
        self.render_window = _positive(float, render.get("window", 3.0), "render.window")
        self.incidence_max_lines = raw.get("incidence_max_lines", 4096)
        if self.incidence_max_lines is not None:
            self.incidence_max_lines = json_number(
                int, self.incidence_max_lines, "incidence_max_lines")
            if self.incidence_max_lines < 1:
                raise ConfigError("field 'incidence_max_lines' must be >= 1 or null")
        orbit = _object(raw, "orbit", ORBIT_KEYS)
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
        # hashlib loads OpenSSL, about 3.4 MB resident; only the report
        # header needs the digest.
        import hashlib

        return hashlib.sha256(self.source_bytes).hexdigest()

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


def _model(config: RunConfig):
    return sample_limit_curve(
        config.spec,
        config.ball_radius,
        min_length=config.min_translation_length,
        dedup_res=config.tolerances["dedup"],
    )


def cmd_limit_curve(config: RunConfig) -> tuple:
    from .svg import render_model
    from .textfmt import csv_bytes

    model = _model(config)
    # Raises InsufficientSamples below 64 samples, before any file exists.
    inc = check_incidence(
        model,
        ztol=config.tolerances["incidence_zero"],
        max_lines=config.incidence_max_lines,
    )
    out, ids = config.out_dir, model.words
    with open(out / "curve.csv", "wb") as f:
        f.write(CSV_HEADER + b"\n")
        for lo in range(0, len(model), CSV_ROWS):
            rows = slice(lo, lo + CSV_ROWS)
            f.write(csv_bytes([model.params[rows], *model.points[rows].T,
                               *model.lines[rows].T,
                               ids.table.word_strings(ids.levels[rows], ids.index[rows]),
                               model.tlens[rows]]))
    payload = {
        "samples": len(model),
        "injectivity": dataclasses.asdict(injectivity_report(model)),
        "incidence": {
            "lines_checked": sum(inc.histogram.values()) + inc.nontransversal,
            "histogram": {str(k): v for k, v in inc.histogram.items()},
            "worst_count": inc.worst_count,
            "worst_word": inc.worst_word,
            "nontransversal": inc.nontransversal,
            "passed": inc.passed,
        },
    }
    svg = render_model(
        model,
        chart=config.render_chart,
        width_px=config.render_width,
        stroke=config.render_stroke,
        window=config.render_window,
    )
    (out / "curve.svg").write_text(svg, encoding="utf-8")
    return 0, payload


def cmd_certify(config: RunConfig) -> tuple:
    if config.spec.variant == "explicit":
        probe = probe_explicit(
            config.spec, config.ball_radius,
            min_length=config.min_translation_length,
        )
        return 5, {"verdict": "probe-only", "probe": dataclasses.asdict(probe)}
    res = certify_anosov(
        config.spec,
        config.ball_radius,
        margin=config.tolerances["certify_margin"],
        min_length=config.min_translation_length,
    )
    payload = {
        "verdict": res.verdict,
        "stable_norm_estimate": dataclasses.asdict(res.estimate),
        "margin_required": res.margin,
        "margin_found": res.margin_found,
        "refuting_witness": res.refuting_witness,
        "saddle_ratio_tests_agree": res.tests_agree,
        "n_scored": res.n_scored,
    }
    if res.rates is not None:
        payload["rates"] = {
            "inf_top_gap": res.rates.inf_top_gap,
            "inf_bottom_gap": res.rates.inf_bottom_gap,
            "n_elements": res.rates.n_elements,
        }
    return {"certified-at-scale": 0, "refuted": 4, "inconclusive": 5}[res.verdict], payload


def cmd_delta(config: RunConfig) -> tuple:
    from .textfmt import csv_bytes

    model = _model(config)
    fit = fit_delta(config.spec, model)
    push = pushforward_deviation(model, fit)
    grid = fit.model.grid
    theta = np.arange(len(grid)) * (2.0 * math.pi / len(grid))
    with open(config.out_dir / "delta_profile.csv", "wb") as f:
        f.write(b"theta,delta\n")
        for lo in range(0, len(grid), CSV_ROWS):
            f.write(csv_bytes([theta[lo:lo + CSV_ROWS], grid[lo:lo + CSV_ROWS]]))
    return 0, {
        "samples": len(model),
        "grid_size": len(grid),
        "cocycle_residual": fit.cocycle_residual,
        "pushforward_to_canonical_line": push,
        "taus": [[t1, t2] for t1, t2 in fit.taus],
    }


def cmd_orbit(config: RunConfig) -> tuple:
    rep = recurrence_experiment(config.spec, config.orbit_base, config.orbit_neighborhood,
                                config.ball_radius)
    return 0, {
        "neighborhood": rep.neighborhood,
        "returning_words": sorted(rep.returning_words, key=lambda w: (len(w), w)),
        "count_history": [[r, c] for r, c in rep.count_history],
        "stabilized": rep.stabilized,
        "min_nonempty_displacement": rep.min_nonempty_displacement,
        "free_at_scale": rep.free_at_scale,
    }


def cmd_regularity(config: RunConfig) -> tuple:
    model = _model(config)
    return 0, {"samples": len(model), **dataclasses.asdict(regularity_diagnostics(model))}


_DISPATCH = {
    "limit-curve": cmd_limit_curve,
    "certify": cmd_certify,
    "delta": cmd_delta,
    "orbit": cmd_orbit,
    "regularity": cmd_regularity,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flagcurve",
        description="Flag representations of surface groups: limit curves, "
        "certificates, invariant-domain experiments.",
    )
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
