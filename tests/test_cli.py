"""End-to-end runs of the CLI commands through ``cli.main``."""

import hashlib
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from flagcurve import RecurrenceReport, ball, cli, reps, spec_from_json_dict, standard_fuchsian
from flagcurve.ball import BallTable
from flagcurve.curve import COLUMNS, IncidenceReport
from flagcurve.svg import render_model

from oracles import spec_to_json_dict

RADIAL_G2 = {
    "variant": "radial",
    "seed": {"genus": 2},
    "u": {"a1": 0.3},
    "coboundary": {"m1": 0.4, "m2": -0.2},
}
CANONICAL_G2 = {"variant": "canonical", "seed": {"genus": 2}}
LINEAR_U_G2 = {"variant": "linear_u", "seed": {"genus": 2}, "u": {"a1": 0.3}}
# exp(700/3) in the image of a1 sends its eigen computations past the
# float range: its flag is not finite.
LINEAR_U_700 = {"variant": "linear_u", "seed": {"genus": 2}, "u": {"a1": 700}}
NO_FLOAT_WARNINGS = pytest.mark.filterwarnings("error::RuntimeWarning")
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


def _run(tmp_path, command: str, config: dict, raw_member: str = "",
         out: bool = True) -> int:
    """Run a command on the config, with an optional member given as raw
    JSON text (for numbers json.dumps cannot write); without ``out`` the
    output directory is left to the config."""
    text = json.dumps(config)
    if raw_member:
        text = text[:-1] + ", " + raw_member + "}"
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(path)]
    return cli.main(argv + ["--out", str(tmp_path / "out")] if out else argv)


def _explicit_g2() -> dict:
    """The canonical genus-2 representation given by its matrices."""
    seed = standard_fuchsian(2)
    mats = tuple(reps.canonical(seed).generator_images())
    return spec_to_json_dict(reps.explicit(seed, matrices=mats))


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


def _explicit_g2_cut(field: str, size: int) -> dict:
    """``_explicit_g2`` with the first seed generator (``field`` "seed") or
    the a1 matrix (``field`` "matrices") cut to its first ``size`` numbers."""
    spec = _explicit_g2()
    rows, key = (spec["seed"]["generators"], 0) if field == "seed" else (spec["matrices"], "a1")
    rows[key] = rows[key][:size]
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
    return spec_to_json_dict(reps.explicit(spec.seed, matrices=mats))


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
    # orbit's membership model keeps the config's sampling tolerances.
    ("orbit", RADIAL_G2, {"tolerances": {"dedup": 0.2}}, 3, None),
    ("orbit", RADIAL_G2, {"min_translation_length": 100}, 3, None),
    ("regularity", RADIAL_G2, {}, 0, {}),
    # Images near the float range: numpy's overflow warnings stay silent.
    pytest.param("limit-curve", LINEAR_U_700, {}, 6, None, marks=NO_FLOAT_WARNINGS),
    pytest.param("delta", LINEAR_U_700, {}, 6, None, marks=NO_FLOAT_WARNINGS),
    pytest.param("regularity", LINEAR_U_700, {}, 6, None, marks=NO_FLOAT_WARNINGS),
    pytest.param("certify", LINEAR_U_700, {}, 4, {"verdict": "refuted"},
                 marks=NO_FLOAT_WARNINGS),
], ids=["certify_certified", "certify_refuted", "certify_explicit", "certify_not_loxodromic",
        "limit_curve_insufficient", "delta_not_radial", "orbit", "orbit_dedup_insufficient",
        "orbit_length_insufficient", "regularity",
        "limit_curve_not_finite", "delta_not_finite", "regularity_not_finite",
        "certify_near_float_range"])
def test_exit_code_and_report(tmp_path, report_schema, command, rep_spec, fields, code,
                              expect):
    if rep_spec == "explicit":
        rep_spec = _explicit_g2()
    elif rep_spec == "identity":  # no scored word is loxodromic
        rep_spec = _explicit_g2_with(np.eye(3))
    config = {"rep_spec": rep_spec, "ball_radius": 3, **fields}
    assert _run(tmp_path, command, config) == code
    path = tmp_path / "out" / REPORTS[command]
    if expect is None:  # the command failed before writing any file
        assert list((tmp_path / "out").iterdir()) == []
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


def test_limit_curve_histogram_keys_sort_as_strings(tmp_path, monkeypatch):
    # sort_keys would order int keys as numbers; the report's keys are the
    # counts as strings, in string order.
    report = IncidenceReport(8, {1: 5, 3: 2, 11: 1}, "a1", 11, 0, False)
    monkeypatch.setattr(cli, "check_incidence", lambda *args, **kwargs: report)
    assert _run(tmp_path, "limit-curve", {"rep_spec": RADIAL_G2, "ball_radius": 3}) == 0
    text = (tmp_path / "out" / "limit_curve.json").read_text(encoding="utf-8")
    assert list(json.loads(text)["incidence"]["histogram"]) == ["1", "11", "3"]


def test_render_block_reaches_the_svg(tmp_path):
    # Each render key given is passed to render_model as validated (an
    # integer stroke as a float), while the report echoes the config as
    # given; an absent key takes render_model's default.
    render = {"chart": "dual", "width_px": 300, "stroke": 2, "window": 2.5}
    config = {"rep_spec": RADIAL_G2, "ball_radius": 3, "render": render}
    assert _run(tmp_path, "limit-curve", config) == 0
    report = json.loads((tmp_path / "out" / "limit_curve.json").read_text(encoding="utf-8"))
    assert report["config"]["render"] == render
    assert type(report["config"]["render"]["stroke"]) is int
    svg = (tmp_path / "out" / "curve.svg").read_text(encoding="utf-8")
    model = cli._model(cli.RunConfig(config, b"", None), *COLUMNS)
    assert svg == render_model(model, chart="dual", width_px=300, stroke=2.0, window=2.5)
    assert 'stroke-width="2.0"' in svg


@pytest.mark.parametrize("command, rep_spec, objects", [
    ("limit-curve", RADIAL_G2, ["injectivity", "incidence"]),
    ("certify", RADIAL_G2, ["stable_norm_estimate", "rates"]),
    ("certify", "explicit", ["probe"]),
], ids=["limit_curve", "certify", "probe"])
def test_schema_rejects_a_key_it_does_not_name(tmp_path, report_schema, command, rep_spec,
                                               objects):
    # A report is its result's fields: one that leaks into a report, at
    # the root or in a nested object, fails the schema.
    if rep_spec == "explicit":
        rep_spec = _explicit_g2()
    _run(tmp_path, command, {"rep_spec": rep_spec, "ball_radius": 3})
    report = json.loads((tmp_path / "out" / REPORTS[command]).read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(report_schema)
    assert validator.is_valid(report)
    for name in [None, *objects]:
        bad = json.loads(json.dumps(report))
        (bad if name is None else bad[name])["extra"] = 0
        assert not validator.is_valid(bad), name


def test_too_few_samples_leave_no_file(tmp_path):
    # The radial genus-2 ball of radius 2 gives 56 samples, under the 64
    # the incidence check needs: the run exits 3 before writing anything.
    assert _run(tmp_path, "limit-curve", {"rep_spec": RADIAL_G2, "ball_radius": 2}) == 3
    assert list((tmp_path / "out").iterdir()) == []


@pytest.fixture(scope="module")
def curve_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    assert _run(tmp, "limit-curve", {"rep_spec": RADIAL_G2, "ball_radius": 3}) == 0
    return (tmp / "out" / "curve.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, 5, 10 ** 6])
def test_curve_csv_does_not_depend_on_chunk_size(tmp_path, monkeypatch, curve_csv, rows):
    monkeypatch.setattr(cli, "CSV_ROWS", rows)
    assert _run(tmp_path, "limit-curve", {"rep_spec": RADIAL_G2, "ball_radius": 3}) == 0
    got = (tmp_path / "out" / "curve.csv").read_bytes()
    assert got == curve_csv
    # words of every level, the top one named from its parents
    words = [row.split(",")[7] for row in got.decode().splitlines()[1:]]
    assert {w.count(".") for w in words} == {0, 1, 2}


@pytest.mark.parametrize("spec", ["canonical", "radial", "explicit"])
def test_curve_csv_fields_are_repr(tmp_path, spec):
    # Each number is repr of the model's float and reads back to its bits.
    # The canonical curve's points have y = 0 and its lines b = 0: 392
    # rows hold 784 zeros, signed either way.
    rep_spec = {"canonical": CANONICAL_G2, "radial": RADIAL_G2,
                "explicit": _conjugated_radial_g2()}[spec]
    config = {"rep_spec": rep_spec, "ball_radius": 3}
    assert _run(tmp_path, "limit-curve", config) == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "curve.csv").read_text(encoding="ascii").splitlines()[1:]]
    model = cli._model(cli.RunConfig(config, b"", None), "points", "lines", "tlens")
    want = np.column_stack([model.params, model.points, model.lines, model.tlens])
    got = [row[:7] + row[8:] for row in rows]
    assert got == [[repr(v) for v in row] for row in want.tolist()]
    assert np.array_equal(np.array(got, dtype=float).view(np.uint64), want.view(np.uint64))
    if spec == "canonical":
        assert sum(f in ("0.0", "-0.0") for row in got for f in row) == 784 == 2 * len(rows)


@pytest.mark.parametrize("command", ["delta", "regularity", "orbit"])
def test_model_commands_name_no_word(tmp_path, monkeypatch, command):
    # delta and regularity name no word of their curve models, and orbit
    # names only its returning words.
    kernel, named = BallTable.word_strings, []

    def counted(self, levels, index):
        named.append(len(levels))
        return kernel(self, levels, index)

    monkeypatch.setattr(BallTable, "word_strings", counted)
    assert _run(tmp_path, command, {"rep_spec": RADIAL_G2, "ball_radius": 4}) == 0
    report = json.loads((tmp_path / "out" / REPORTS[command]).read_text(encoding="utf-8"))
    # The returning words include the empty word, which is never named.
    assert sum(named) <= max(len(report.get("returning_words", [])) - 1, 0)


@pytest.mark.parametrize("fields", [
    {"ball_radius": "x"},
    {"render": {"width_px": "big"}},
    {"orbit": {"neighborhood": "wide"}},
    {"rep_spec": {**RADIAL_G2, "seed": {"genus": 1}}},
    {"tolerances": {"dedupe": 1e-7}},
    {"render": "wide"},
    {"min_translation_length": float("nan")},
    {"tolerances": {"dedup": float("inf")}},
    {"orbit": {"base_point": {"x": 1}, "base_line": [0, 1, 0]}},
    '"min_translation_length": 1e999',
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
    [1],
    {"output_dir": 5},
    {"orbit": {"base_point": ["0.7071067811865476", "0.7071067811865476", False],
               "base_line": [0.7071067811865476, -0.7071067811865476, 0.0]}},
    '"note": ' + "[" * 100000 + "]" * 100000,
    {"rep_spec": _conjugated_radial_g2(),
     "orbit": {"base_point": [1e308, 1e308, 0], "base_line": [1e308, -1e308, 0]}},
    {"rep_spec": {"variant": "linear_u", "seed": {"genus": 2}, "u": {"a1": 1e6}}},
    {"rep_spec": {"variant": "linear_u", "seed": {"genus": 2}, "u": {"a1": -1100}}},
    {"rep_spec": {**RADIAL_G2, "u": {"a1": 1e6}}},
], ids=["ball_radius", "width_px", "neighborhood", "genus", "tolerance_key", "render",
        "nan", "infinity", "base_point_object", "overflow", "tolerance_overflow",
        "tolerance_huge_int", "window_zero", "width_px_zero", "width_px_negative",
        "stroke_negative", "window_negative", "ball_radius_float", "ball_radius_string",
        "max_lines_float", "dedup_bool", "neighborhood_bool", "genus_float",
        "genus_string", "coboundary_types", "u_string", "u_bool", "generator_string",
        "matrix_string", "rep_spec_list", "u_list", "u_string_object", "mu_list",
        "render_key", "orbit_key", "singular_matrices", "root_list", "output_dir_int",
        "base_point_strings", "deep_nesting", "base_flag_overflow", "u_overflow",
        "u_negative_overflow", "radial_u_overflow"])
def test_malformed_config_exits_2(tmp_path, capsys, monkeypatch, fields):
    raw = fields if isinstance(fields, str) else ""
    if isinstance(fields, list):  # a config root that is not an object
        config = fields
    else:
        config = {"rep_spec": RADIAL_G2, "ball_radius": 3, **({} if raw else fields)}
    monkeypatch.chdir(tmp_path)  # the default output directory is ./out
    for out in (True, False):
        assert _run(tmp_path, "orbit", config, raw, out) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, field", [
    ({"rep_spec": {**CANONICAL_G2, "seed": {}}}, "rep_spec.seed.genus"),
    ({"rep_spec": {**RADIAL_G2, "coboundary": {"m1": 0.4}}}, "rep_spec.coboundary.m2"),
    ({"rep_spec": _explicit_g2_cut("matrices", 2)}, "rep_spec.matrices.a1"),
    ({"rep_spec": _explicit_g2_cut("seed", 3)}, "rep_spec.seed.generators"),
    ({"ball_radus": 9}, "ball_radus"),
    ({"rep_spec": {**CANONICAL_G2, "seed": {"genus": 2, "genera": 3}}}, "rep_spec.seed.genera"),
    ({"rep_spec": {**RADIAL_G2, "coboundary": {"m1": 0.4, "m2": -0.2, "m3": 0}}},
     "rep_spec.coboundary.m3"),
    ({"rep_spec": {**RADIAL_G2, "nu_": {}}}, "rep_spec.nu_"),
    ({"rep_spec": {**RADIAL_G2, "u": {"a3": 0.1}}}, "rep_spec.u.a3"),
    ({"tolerance": {"dedup": 1e-7}}, "tolerance"),
    ({"rep_spec": {**CANONICAL_G2, "seed": {"genus": 15}}}, "rep_spec.seed.genus"),
    ({"rep_spec": {**CANONICAL_G2, "seed": {"genus": 200}}}, "rep_spec.seed.genus"),
    ({"rep_spec": {**_explicit_g2(), "seed": {**_explicit_g2()["seed"], "genus": 15}}},
     "rep_spec.seed.genus"),
    # A key the variant's constructor does not read.
    ({"rep_spec": {**CANONICAL_G2, "u": {"a1": 0.3}}}, "rep_spec.u"),
    ({"rep_spec": {**CANONICAL_G2, "matrices": _explicit_g2()["matrices"]}},
     "rep_spec.matrices"),
    ({"rep_spec": {**LINEAR_U_G2, "mu": {"a1": 0.1}}}, "rep_spec.mu"),
    ({"rep_spec": {**LINEAR_U_G2, "coboundary": {"m1": 0.4, "m2": -0.2}}},
     "rep_spec.coboundary"),
    ({"rep_spec": {**RADIAL_G2, "matrices": _explicit_g2()["matrices"]}}, "rep_spec.matrices"),
    ({"rep_spec": {**_explicit_g2(), "u": {"a1": 0.3}}}, "rep_spec.u"),
    # A variant that is missing, not a string or not a known name.
    ({"rep_spec": {"variant": ["radial"], "seed": {"genus": 2}}}, "rep_spec.variant"),
    ({"rep_spec": {"variant": {}, "seed": {"genus": 2}}}, "rep_spec.variant"),
    ({"rep_spec": {"variant": "nope", "seed": {"genus": 2}}}, "rep_spec.variant"),
    ({"rep_spec": {"seed": {"genus": 2}}}, "rep_spec.variant"),
    # A field the variant's reader needs.
    ({"rep_spec": {"variant": "canonical"}}, "rep_spec.seed"),
    ({"rep_spec": {"variant": "radial", "seed": {"genus": 2}, "mu": {}}}, "rep_spec.nu"),
    ({"rep_spec": {"variant": "explicit", "seed": {"genus": 2}}}, "rep_spec.matrices"),
    # Generator images past the float range: numpy's overflow warnings on
    # the way to the relator check stay silent.
    pytest.param({"rep_spec": {**RADIAL_G2, "coboundary": {"m1": 1e300, "m2": 0.0}}},
                 "rep_spec", marks=NO_FLOAT_WARNINGS),
], ids=["missing_seed_genus", "missing_coboundary_m2", "matrix_of_2", "seed_row_of_3",
        "root_key", "seed_key", "coboundary_key", "rep_spec_key", "u_generator",
        "tolerance_root_key", "genus_15", "genus_200", "explicit_seed_genus_15",
        "canonical_u", "canonical_matrices", "linear_u_mu", "linear_u_coboundary",
        "radial_matrices", "explicit_u", "variant_list", "variant_object", "variant_unknown",
        "missing_variant", "missing_seed", "radial_missing_nu", "explicit_missing_matrices",
        "coboundary_overflow"])
def test_malformed_field_exits_2_naming_it(tmp_path, capsys, fields, field):
    # A missing, unknown or misshapen field is one config error line that
    # names the field, with no output and no traceback.
    config = {"rep_spec": RADIAL_G2, "ball_radius": 3, **fields}
    assert _run(tmp_path, "certify", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"'{field}'" in err
    assert not (tmp_path / "out").exists()


# A rotation by 2*pi/5: rotations commute, so they satisfy the relator.
ROTATION = np.array([[np.cos(0.4 * np.pi), -np.sin(0.4 * np.pi)],
                     [np.sin(0.4 * np.pi), np.cos(0.4 * np.pi)]])


@pytest.mark.parametrize("command", sorted(REPORTS))
@pytest.mark.parametrize("generator", [np.eye(2), ROTATION], ids=["identity", "rotations"])
def test_non_fuchsian_seed_exits_2_before_output(tmp_path, capsys, command, generator):
    # Every nontrivial element of a Fuchsian group is hyperbolic; these
    # seeds satisfy the relator, but their words have |trace| <= 2.
    seed = {"genus": 2, "generators": [[float(x) for x in generator.ravel()]] * 4}
    config = {"rep_spec": {**CANONICAL_G2, "seed": seed}, "ball_radius": 3}
    assert _run(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad field 'rep_spec': non-hyperbolic short word: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out, output_dir", [
    ("blocker", None),
    ("blocker/sub", None),
    (None, "blocker"),
], ids=["out_is_file", "out_under_file", "output_dir_is_file"])
def test_unusable_output_dir_exits_2(tmp_path, capsys, monkeypatch, out, output_dir):
    # The output directory is made before any computation; a path that is
    # or runs through a file is a config error, not a traceback.
    (tmp_path / "blocker").write_text("kept\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    config = {"rep_spec": RADIAL_G2, "ball_radius": 3}
    if output_dir is not None:
        config["output_dir"] = output_dir
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = ["certify", "--config", "config.json"] + (["--out", out] if out else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: cannot create output directory")
    assert (tmp_path / "blocker").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command", sorted(REPORTS))
@pytest.mark.parametrize("orbit", [
    {"neighborhood": 0},
    {"base_point": [1, 0, 0]},
    {"base_point": [1, 0, 0], "base_line": [1, 0, 0]},
    {"neighborhood": 0.8},
], ids=["neighborhood_zero", "base_line_missing", "not_incident", "neighborhood_past_pi_4"])
def test_malformed_orbit_block_exits_2_before_output(tmp_path, capsys, command, orbit):
    config = {"rep_spec": RADIAL_G2, "ball_radius": 3, "orbit": orbit}
    assert _run(tmp_path, command, config) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("offset, code", [(1e-8, 0), (4e-8, 2)])
def test_orbit_base_flag_incidence_tolerance(tmp_path, capsys, offset, code):
    # The line (1 + offset, -1, 0) pairs with the point (1, 1, 0) to about
    # offset / 2 in unit representatives: 5e-9 passes the one flag
    # tolerance, 1e-8, and 2e-8 does not.
    orbit = {"base_point": [1, 1, 0], "base_line": [1 + offset, -1, 0]}
    config = {"rep_spec": CANONICAL_G2, "ball_radius": 3, "orbit": orbit}
    assert _run(tmp_path, "orbit", config) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: bad field 'orbit.base_point'/'orbit.base_line': "
                              "not incident: |<point|line>| = 2.000e-08 > 1.0e-08")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_orbit_lists_shorter_words_first(tmp_path, monkeypatch):
    # Letter names differ in width from genus 10 on, so a longer word can
    # be the shorter string; the report orders words by letter count.
    words = ("", "a10.b10.a10", "a1.b1.a1.b1", "b2", "A10", "a1.B1")
    report = RecurrenceReport(0.05, words, ((0, 1),), False, 0.5, True)
    monkeypatch.setattr(cli, "recurrence_experiment", lambda *args: report)
    assert _run(tmp_path, "orbit", {"rep_spec": RADIAL_G2, "ball_radius": 3}) == 0
    got = json.loads((tmp_path / "out" / "orbit.json").read_text(encoding="utf-8"))
    assert got["returning_words"] == ["", "A10", "b2", "a1.B1", "a10.b10.a10", "a1.b1.a1.b1"]


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


@pytest.mark.parametrize("rows", [1, 7, 10 ** 6])
@pytest.mark.parametrize("case", ["certify", "delta", "explicit_certify", "limit_curve",
                                  "orbit", "regularity"])
def test_model_outputs_do_not_depend_on_slice_rows(tmp_path, monkeypatch, case, rows):
    # The sampler writes its columns a ball block at a time and the delta
    # and regularity fits read the model a slice at a time; neither size
    # shows in a file.
    # At 7 rows a slice the 2,736 samples leave a 6-row tail slice.
    # certify and its probe read the top level one rotation class at a
    # time, a block's least words, so most 1-row blocks hold none; orbit's
    # inverses skip the rows ruled out by the minimum of earlier blocks.
    monkeypatch.setattr(ball, "BLOCK_ROWS", rows)
    command, rep_spec, fields, digests = PINNED[case]
    code = 0
    if rep_spec == "conjugated":
        rep_spec, code = _conjugated_radial_g2(), 5
    assert _run(tmp_path, command, {"rep_spec": rep_spec, **fields}) == code
    out = tmp_path / "out"
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == digests


def test_loading_a_config_leaves_openssl_unloaded(tmp_path):
    # hashlib's OpenSSL backend adds about 3.4 MB to every command's
    # resident peak, so the report header's input digest comes from the
    # interpreter's own SHA-256 module: OpenSSL stays unloaded after a
    # command writes its report.  The CSV formatter, too, loads only in
    # the commands that write CSV.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rep_spec": RADIAL_G2, "ball_radius": 3}), encoding="utf-8")
    probe = ("import sys\n"
             "import flagcurve.cli as cli\n"
             "cli.RunConfig.load(sys.argv[1], None, None)\n"
             "print(sorted(m for m in sys.modules if 'hashlib' in m or 'textfmt' in m))\n"
             "code = cli.main(['regularity', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
             "print(code, '_hashlib' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", probe, str(path), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert res.stdout.splitlines() == ["[]", "0 False"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert cli.RunConfig.load(str(path), None, None).input_sha256 == digest
    report = json.loads((tmp_path / "out" / "regularity.json").read_text(encoding="utf-8"))
    assert report["input_sha256"] == digest
