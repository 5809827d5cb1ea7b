"""End-to-end runs of the CLI commands through ``cli.main``."""

import json
from importlib.resources import files

import jsonschema
import pytest

from flagcurve import RepSpec, cli, standard_fuchsian

RADIAL_G2 = {
    "variant": "radial",
    "seed": {"genus": 2},
    "u": {"a1": 0.3},
    "coboundary": {"m1": 0.4, "m2": -0.2},
}
CANONICAL_G2 = {"variant": "canonical", "seed": {"genus": 2}}
SAMPLES = 2736  # at ball radius 4, below the default incidence_max_lines
REPORTS = {
    "limit-curve": "limit_curve.json",
    "certify": "certify.json",
    "delta": "delta.json",
    "orbit": "orbit.json",
    "regularity": "regularity.json",
}


@pytest.fixture(scope="module")
def report_schema():
    return json.loads(files("flagcurve").joinpath("schemas/report.schema.json").read_text())


def _run(tmp_path, command: str, config: dict, raw_member: str = "") -> int:
    """Run a command on the config, with an optional member given as raw
    JSON text (for numbers json.dumps cannot write)."""
    text = json.dumps(config)
    if raw_member:
        text = text[:-1] + ", " + raw_member + "}"
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def _explicit_g2() -> dict:
    """The canonical genus-2 representation given by its matrices."""
    seed = standard_fuchsian(2)
    mats = tuple(RepSpec("canonical", seed).generator_images())
    return RepSpec("explicit", seed, matrices=mats).to_json_dict()


@pytest.mark.parametrize("command, rep_spec, fields, code, expect", [
    ("certify", RADIAL_G2, {}, 0,
     {"verdict": "certified-at-scale", "n_scored": 408, "rates/n_elements": 408}),
    ("certify", {"variant": "linear_u", "seed": {"genus": 2}, "u": {"a1": 5}}, {}, 4,
     {"verdict": "refuted", "refuting_witness": "a1"}),
    ("certify", "explicit", {}, 5, {"verdict": "probe-only", "probe/loxodromy_rate": 1.0}),
    ("limit-curve", RADIAL_G2, {"min_translation_length": 50}, 3, None),
    ("delta", CANONICAL_G2, {}, 6, None),
    ("orbit", RADIAL_G2, {}, 0, {"free_at_scale": True}),
    ("regularity", RADIAL_G2, {}, 0, {}),
], ids=["certify_certified", "certify_refuted", "certify_explicit", "limit_curve_insufficient",
        "delta_not_radial", "orbit", "regularity"])
def test_exit_code_and_report(tmp_path, report_schema, command, rep_spec, fields, code,
                              expect):
    if rep_spec == "explicit":
        rep_spec = _explicit_g2()
    config = {"rep_spec": rep_spec, "ball_radius": 3, **fields}
    assert _run(tmp_path, command, config) == code
    path = tmp_path / "out" / REPORTS[command]
    if expect is None:  # the command failed before writing its report
        assert not path.exists()
        return
    report = json.loads(path.read_text(encoding="utf-8"))
    jsonschema.validate(report, report_schema)
    for key, value in expect.items():
        leaf = report
        for part in key.split("/"):
            leaf = leaf[part]
        assert leaf == value, key


@pytest.mark.parametrize("max_lines", ["default", None])
def test_limit_curve(tmp_path, report_schema, max_lines):
    config = {"rep_spec": RADIAL_G2, "ball_radius": 4}
    if max_lines != "default":
        config["incidence_max_lines"] = max_lines
    assert _run(tmp_path, "limit-curve", config) == 0
    out = tmp_path / "out"
    written = sorted(p.name for p in out.iterdir())
    assert written == ["curve.csv", "curve.svg", "limit_curve.json"]
    report = json.loads((out / "limit_curve.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, report_schema)
    assert report["samples"] == SAMPLES
    incidence = report["incidence"]
    assert incidence["passed"] is True
    assert incidence["lines_checked"] == SAMPLES
    assert incidence["histogram"] == {"1": SAMPLES}
    assert (incidence["worst_count"], incidence["worst_word"]) == (1, "")
    assert incidence["nontransversal"] == 0


@pytest.mark.parametrize("fields", [
    {"ball_radius": "x"},
    {"render": {"width_px": "big"}},
    {"orbit": {"neighborhood": "wide"}},
    {"rep_spec": {**RADIAL_G2, "seed": {"genus": 1}}},
    {"tolerances": {"dedupe": 1e-7}},
    {"render": "wide"},
    {"note": float("nan")},
    {"tolerances": {"dedup": float("inf")}},
    {"orbit": {"base_point": {"x": 1}, "base_line": [0, 1, 0]}},
    '"note": 1e999',
    '"tolerances": {"dedup": -1e999}',
    '"tolerances": {"dedup": 1' + "0" * 400 + "}",
], ids=["ball_radius", "width_px", "neighborhood", "genus", "tolerance_key", "render",
        "nan", "infinity", "base_point_object", "overflow", "tolerance_overflow",
        "tolerance_huge_int"])
def test_malformed_config_exits_2(tmp_path, capsys, fields):
    raw = fields if isinstance(fields, str) else ""
    config = {"rep_spec": RADIAL_G2, "ball_radius": 3, **({} if raw else fields)}
    assert _run(tmp_path, "orbit", config, raw) == 2
    assert capsys.readouterr().err.startswith("config error:")
