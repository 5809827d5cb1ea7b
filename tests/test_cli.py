"""End-to-end runs of the CLI commands through ``cli.main``."""

import hashlib
import json
from importlib.resources import files

import jsonschema
import numpy as np
import pytest

from flagcurve import RepSpec, cli, spec_from_json_dict, standard_fuchsian

RADIAL_G2 = {
    "variant": "radial",
    "seed": {"genus": 2},
    "u": {"a1": 0.3},
    "coboundary": {"m1": 0.4, "m2": -0.2},
}
CANONICAL_G2 = {"variant": "canonical", "seed": {"genus": 2}}
SAMPLES = 2736  # at ball radius 4, below the default incidence_max_lines
ABSENT = "<absent from the report>"
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


def _explicit_g2_with(matrix: np.ndarray) -> dict:
    """``_explicit_g2`` with every generator mapped to ``matrix``."""
    spec = _explicit_g2()
    spec["matrices"] = {name: [float(x) for x in matrix.ravel()] for name in spec["matrices"]}
    return spec


def _explicit_g2_as_string(field: str) -> dict:
    """``_explicit_g2`` with one number written as a JSON string: the first
    entry of the first seed generator (``field`` "seed") or of the a1
    matrix (``field`` "matrices")."""
    spec = _explicit_g2()
    row = spec["seed"]["generators"][0] if field == "seed" else spec["matrices"]["a1"]
    row[0] = str(float(row[0]))
    return spec


# An integer SL(3) matrix and its inverse: conjugating by it moves [e2]
# off the coordinate axes, so the conjugated spec runs the generic
# eigenvector path.
CONJ = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=float)
CONJ_INV = np.array([[3, -2, 1], [-2, 2, -1], [1, -1, 1]], dtype=float)


def _conjugated_radial_g2() -> dict:
    """RADIAL_G2 conjugated by CONJ, as an explicit spec."""
    spec = spec_from_json_dict(RADIAL_G2)
    mats = tuple(CONJ @ g @ CONJ_INV for g in spec.generator_images())
    return RepSpec("explicit", spec.seed, matrices=mats).to_json_dict()


@pytest.mark.parametrize("command, rep_spec, fields, code, expect", [
    ("certify", RADIAL_G2, {}, 0,
     {"verdict": "certified-at-scale", "n_scored": 408, "rates/n_elements": 408}),
    ("certify", {"variant": "linear_u", "seed": {"genus": 2}, "u": {"a1": 5}}, {}, 4,
     {"verdict": "refuted", "refuting_witness": "a1", "rates": ABSENT}),
    ("certify", "explicit", {}, 5, {"verdict": "probe-only", "probe/loxodromy_rate": 1.0}),
    ("certify", "identity", {}, 3, None),
    ("limit-curve", RADIAL_G2, {"min_translation_length": 50}, 3, None),
    ("delta", CANONICAL_G2, {}, 6, None),
    ("orbit", RADIAL_G2, {}, 0, {"free_at_scale": True}),
    ("regularity", RADIAL_G2, {}, 0, {}),
], ids=["certify_certified", "certify_refuted", "certify_explicit", "certify_not_loxodromic",
        "limit_curve_insufficient", "delta_not_radial", "orbit", "regularity"])
def test_exit_code_and_report(tmp_path, report_schema, command, rep_spec, fields, code,
                              expect):
    if rep_spec == "explicit":
        rep_spec = _explicit_g2()
    elif rep_spec == "identity":  # no scored word is loxodromic
        rep_spec = _explicit_g2_with(np.eye(3))
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
            leaf = leaf.get(part, ABSENT)
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
    {"render": {"window": 0}},
    {"render": {"width_px": 0}},
    {"render": {"width_px": -5}},
    {"render": {"stroke": -1.2}},
    {"render": {"window": -3.0}},
    {"ball_radius": 3.9},
    {"ball_radius": "3"},
    {"incidence_max_lines": 64.5},
    {"tolerances": {"dedup": True}},
    {"orbit": {"neighborhood": True}},
    {"rep_spec": {**RADIAL_G2, "seed": {"genus": 2.9}}},
    {"rep_spec": {**RADIAL_G2, "seed": {"genus": "2"}}},
    {"rep_spec": {**RADIAL_G2, "coboundary": {"m1": "0.4", "m2": False}}},
    {"rep_spec": {**RADIAL_G2, "u": {"a1": "0.3"}}},
    {"rep_spec": {**RADIAL_G2, "u": {"a1": True}}},
    {"rep_spec": _explicit_g2_as_string("seed")},
    {"rep_spec": _explicit_g2_as_string("matrices")},
    {"rep_spec": [1]},
    {"rep_spec": {**RADIAL_G2, "u": [0.3]}},
    {"rep_spec": {**RADIAL_G2, "u": "a1"}},
    {"rep_spec": {"variant": "radial", "seed": {"genus": 2}, "mu": [0.1], "nu": {}}},
    {"render": {"widht_px": 800}},
    {"orbit": {"neighbourhood": 0.5}},
    {"rep_spec": _explicit_g2_with(np.zeros((3, 3)))},
], ids=["ball_radius", "width_px", "neighborhood", "genus", "tolerance_key", "render",
        "nan", "infinity", "base_point_object", "overflow", "tolerance_overflow",
        "tolerance_huge_int", "window_zero", "width_px_zero", "width_px_negative",
        "stroke_negative", "window_negative", "ball_radius_float", "ball_radius_string",
        "max_lines_float", "dedup_bool", "neighborhood_bool", "genus_float",
        "genus_string", "coboundary_types", "u_string", "u_bool", "generator_string",
        "matrix_string", "rep_spec_list", "u_list", "u_string_object", "mu_list",
        "render_key", "orbit_key", "singular_matrices"])
def test_malformed_config_exits_2(tmp_path, capsys, fields):
    raw = fields if isinstance(fields, str) else ""
    config = {"rep_spec": RADIAL_G2, "ball_radius": 3, **({} if raw else fields)}
    assert _run(tmp_path, "orbit", config, raw) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(REPORTS))
@pytest.mark.parametrize("orbit", [
    {"neighborhood": 0},
    {"base_point": [1, 0, 0]},
    {"base_point": [1, 0, 0], "base_line": [1, 0, 0]},
], ids=["neighborhood_zero", "base_line_missing", "not_incident"])
def test_malformed_orbit_block_exits_2_before_output(tmp_path, capsys, command, orbit):
    config = {"rep_spec": RADIAL_G2, "ball_radius": 3, "orbit": orbit}
    assert _run(tmp_path, command, config) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


# SHA-256 of every file each command writes, pinned so that a refactor
# which claims byte-identical outputs is checked by the tests.
PINNED = {
    "limit_curve": ("limit-curve", RADIAL_G2, {"ball_radius": 4}, {
        "curve.csv":
            "0e2ece373aeffea506341f0f616994d3f06c278c97fe46e7819b942b72011071",
        "curve.svg":
            "1ebfd31c13a1d9adfeb25688af5ce381cb33112caadf417c86799c7508ae66d6",
        "limit_curve.json":
            "76f6406ddd24e07e926afaecab8fb0d1fdf95ab83ed798e1ed5b7643f651ee75",
    }),
    "certify": ("certify", RADIAL_G2, {"ball_radius": 4}, {
        "certify.json":
            "3933acc876f094f4b01084d017b184e0940a5315886ea7a6647a4aca782e0e8c",
    }),
    "delta": ("delta", RADIAL_G2, {"ball_radius": 4}, {
        "delta.json":
            "672ce6d48f18871e6f9f0207658536f0537687c5c0299271569cc3987bdc194c",
        "delta_profile.csv":
            "f4b98bfa3164f3f603769181caab32349288812730e12e6defb5d8afd1005f37",
    }),
    "orbit": ("orbit", RADIAL_G2, {"ball_radius": 4}, {
        "orbit.json":
            "b09ee02c5f84143deebb64cbcd56e56b469c84d27616666d4320f04bb7a1857d",
    }),
    "regularity": ("regularity", RADIAL_G2, {"ball_radius": 4}, {
        "regularity.json":
            "caf146f8efdb45439d3b3ad473dba1adfe8521840e935b57af87e44bdb47eb2e",
    }),
    "explicit_limit_curve": ("limit-curve", "conjugated",
                             {"ball_radius": 4, "incidence_max_lines": None}, {
        "curve.csv":
            "0dbad7743d0038d6486532e328a9817742399403eac29aedaced099cfcf39cf5",
        "curve.svg":
            "91dc1f7195f274b88b358ed8b6a99196cf4fb49120e065151f66930e276009e2",
        "limit_curve.json":
            "9d1d7de533d18da4f238be536c3708792fbd30566142dff2a4bccb9ef0809a2c",
    }),
    "explicit_certify": ("certify", "conjugated", {"ball_radius": 4}, {
        "certify.json":
            "9a8593af69039c2cc3c038d619ab1bfb96bb964ce56a1ed40aa5670e1a84c3bf",
    }),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_output_digests(tmp_path, case):
    command, rep_spec, fields, digests = PINNED[case]
    if rep_spec == "conjugated":
        rep_spec = _conjugated_radial_g2()
    code = 5 if command == "certify" and rep_spec["variant"] == "explicit" else 0
    assert _run(tmp_path, command, {"rep_spec": rep_spec, **fields}) == code
    out = tmp_path / "out"
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == digests
