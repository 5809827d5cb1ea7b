"""End-to-end runs of the CLI commands through ``cli.main``."""

import json
from importlib.resources import files

import jsonschema
import pytest

from flagcurve import cli

RADIAL_G2 = {
    "variant": "radial",
    "seed": {"genus": 2},
    "u": {"a1": 0.3},
    "coboundary": {"m1": 0.4, "m2": -0.2},
}
SAMPLES = 2736  # at ball radius 4, below the default incidence_max_lines


@pytest.fixture(scope="module")
def report_schema():
    return json.loads(files("flagcurve").joinpath("schemas/report.schema.json").read_text())


@pytest.mark.parametrize("max_lines", ["default", None])
def test_limit_curve(tmp_path, report_schema, max_lines):
    config = {"rep_spec": RADIAL_G2, "ball_radius": 4}
    if max_lines != "default":
        config["incidence_max_lines"] = max_lines
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["limit-curve", "--config", str(path), "--out", str(out)]) == 0
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
], ids=["ball_radius", "width_px", "neighborhood", "genus", "tolerance_key", "render"])
def test_malformed_config_exits_2(tmp_path, capsys, fields):
    config = {"rep_spec": RADIAL_G2, "ball_radius": 3, **fields}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["orbit", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
