"""The parts of the package that the benchmark in ``perfbench/`` reads.

The benchmark is kept fixed between its own revisions, so a refactor of
the package must keep these working.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from flagcurve import cli
from flagcurve.ball import BallTable

from oracles import ball_count

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_ball_words(tracer, seed2):
    table = BallTable.build(seed2, 4)
    assert tracer._ball_words((), {}, table) == {"words": ball_count(2, 4) - 1}


def test_tracer_targets_exist(tracer):
    for modname, path in tracer.TARGETS.values():
        obj = importlib.import_module(modname)
        for name in path.split("."):
            obj = getattr(obj, name)
        assert callable(obj), (modname, path)


def test_setup_probe_loads_config(tmp_path):
    rep_spec = {"variant": "radial", "seed": {"genus": 2}, "u": {"a1": 0.3},
                "coboundary": {"m1": 0.4, "m2": -0.2}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rep_spec": rep_spec, "ball_radius": 4}), encoding="utf-8")
    config = cli.RunConfig.load(str(path), None, None)
    assert config.ball_radius == 4
