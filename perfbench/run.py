"""flagcurve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # the benchmark's own tests
    python3 perfbench/run.py --pin       # re-pin the default-seed digests

Run from the root of a checkout.  Each workload (see ``workloads.py``) is a
closed loop with a single client: its CLI commands run one after another,
each as its own ``python -m flagcurve.cli`` process on configs generated
from ``--seed``, with the default single worker and one BLAS thread.
Passes repeat while the next one is expected to end within ``--seconds``;
at least one runs.  Every command's outputs go through the correctness
gate (``gate.py``).

``--trace 0`` reports the end-to-end metrics:

- ``cpu_s``: the sum over the commands of each one's median CPU time
  (user + system, from the child's own ``os.wait4`` rusage) over the
  passes.  With one worker and one BLAS thread a command is a single
  thread, so on an idle machine this is its wall time; unlike wall time
  it leaves out the time the command waited while other processes on a
  shared host held the CPU;
- ``peak_rss_mb``: the largest over the commands of each one's median
  ``ru_maxrss``, from the same rusage;
- ``setup_s``: the median CPU time of fresh interpreters that import
  ``flagcurve.cli`` and load the workload's configs, one launched before
  each pass (and at least seven in all), so the launches spread over the
  whole run.

``--trace 1`` runs pairs of passes, one plain and one where every command
runs under ``tracer.py``, and reports the per-layer metrics of the traced
pass (self times, counts and ``ru_maxrss`` rises of the spans), the plain
pass's wall time and per-command CPU times and peaks, and the tracing
overhead (traced minus plain wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (commands run, and commands with a
wrong exit code or output) and ``metrics``.  The benchmark has no control
of the page cache and no cgroup accounting: memory is per-child
``ru_maxrss`` only.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child: a command is then a
# single thread, and its CPU time does not count a second BLAS thread
# spinning while it waits for a shared core.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import jsonschema
import numpy as np

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
SETUP_LAUNCHES = 7
SETUP_PROBE = (
    "import sys\n"
    "import flagcurve.cli as cli\n"
    "for p in sys.argv[1:]:\n"
    "    cli.RunConfig.load(p, None, None)\n"
)
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(argv: list, log: Path) -> tuple:
    """Run one child process to its end:
    (exit code, wall s, user + system CPU s, ru_maxrss MB)."""
    with open(log, "wb") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=ENV, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def setup_launch(config_paths: list, directory: Path) -> float:
    """CPU time of one fresh interpreter importing the CLI and loading the
    configs."""
    argv = [sys.executable, "-c", SETUP_PROBE, *map(str, config_paths)]
    code, _, cpu, _ = run_child(argv, directory / "setup.log")
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}; see {directory / 'setup.log'}")
    return cpu


def run_pass(wl, configs: dict, directory: Path, traced: bool, validator, pins) -> list:
    """Run every command of the workload once; one record per command."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    records = []
    for cmd in wl.commands:
        out = directory / cmd.name
        argv = [sys.executable]
        if traced:
            trace_path = directory / f"{cmd.name}.trace.json"
            argv += [str(HERE / "tracer.py"), str(trace_path)]
        else:
            argv += ["-m", "flagcurve.cli"]
        argv += [cmd.name, "--config", str(configs[cmd.config]), "--out", str(out)]
        code, wall, cpu, rss = run_child(argv, directory / f"{cmd.name}.log")
        errors = gate.check(cmd, code, out, validator, pins.get(cmd.name) if pins else None)
        rec = {
            "command": cmd.name, "code": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
            "errors": errors,
            "output_bytes": sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0,
        }
        if traced:
            try:
                rec["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as e:
                errors.append(f"no trace: {e}")
                rec["trace"] = {"spans": [], "restored": -1}
            if rec["trace"]["restored"] <= 0:
                errors.append("tracer did not restore every wrapped function")
        records.append(rec)
    return records


def layer_metrics(traced: list, plain: list) -> dict:
    """Per-layer metrics of one traced pass and the plain pass paired with it."""
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    incidence_rise = ball_rise = 0.0
    incidence_bytes = 0
    dedup_candidates = 0
    for rec in traced:
        spans = rec["trace"]["spans"]
        child_t = [0.0] * len(spans)
        child_rss = [0] * len(spans)
        for name, parent, t0, t1, rise, _ in spans:
            if parent >= 0:
                child_t[parent] += t1 - t0
                child_rss[parent] += rise
        proc_ball_rise = 0.0
        for i, (name, parent, t0, t1, rise, cnt) in enumerate(spans):
            self_s[name] += (t1 - t0) - child_t[i]
            self_rise_mb = (rise - child_rss[i]) / 1024.0
            for k, v in cnt.items():
                counts[name][k] += v
            if name.startswith("ball."):
                proc_ball_rise += self_rise_mb
            elif name == "curve.incidence":
                incidence_rise = max(incidence_rise, self_rise_mb)
                incidence_bytes = max(incidence_bytes, cnt["chunk_bytes"])
            elif name == "spectral.eigvals3" and parent >= 0 and spans[parent][0] == "curve.sample":
                dedup_candidates += cnt["lox"]
        ball_rise = max(ball_rise, proc_ball_rise)

    def ratio(a, b):
        return a / b if b else 0.0

    eig = counts["spectral.eigvals3"]
    samples = counts["curve.sample"]["samples"]
    m = {
        "ball.build_s": (self_s["ball.build"], "s"),
        "ball.images3_s": (self_s["ball.images3"], "s"),
        "ball.word_strings_s": (self_s["ball.word_strings"], "s"),
        "ball.words": (counts["ball.build"]["words"], "count"),
        "ball.rss_rise_mb": (ball_rise, "MB"),
        "spectral.eigvals3_s": (self_s["spectral.eigvals3"], "s"),
        "spectral.eigvals3_n": (eig["n"], "count"),
        "spectral.eigvec_s": (self_s["spectral.eigvec"], "s"),
        "spectral.lox_ratio": (ratio(eig["lox"], eig["n"]), "ratio"),
        "curve.sample_self_s": (self_s["curve.sample"], "s"),
        "curve.samples": (samples, "count"),
        "curve.dedup_ratio": (ratio(samples, dedup_candidates), "ratio"),
        "curve.incidence_s": (self_s["curve.incidence"], "s"),
        "curve.incidence_pairings": (counts["curve.incidence"]["pairings"], "count"),
        "curve.incidence_bytes": (incidence_bytes, "B-computed"),
        "curve.incidence_rss_rise_mb": (incidence_rise, "MB"),
        "curve.injectivity_s": (self_s["curve.injectivity"], "s"),
        "curve.regularity_s": (self_s["curve.regularity"], "s"),
        "certify.anosov_self_s": (self_s["certify.anosov"], "s"),
        "certify.rates_self_s": (self_s["certify.rates"], "s"),
        "certify.probe_self_s": (self_s["certify.probe"], "s"),
        "certify.n_scored": (counts["certify.anosov"]["n_scored"]
                             + counts["certify.probe"]["n_scored"], "count"),
        "delta.fit_s": (self_s["delta.fit"], "s"),
        "delta.pushforward_s": (self_s["delta.pushforward"], "s"),
        "domain.recurrence_self_s": (self_s["domain.recurrence"], "s"),
        "domain.returning_words": (counts["domain.recurrence"]["returning_words"], "count"),
        "svg.render_s": (self_s["svg.render"], "s"),
        "svg.bytes": (counts["svg.render"]["bytes"], "B"),
        "cli.emit_self_s": (self_s["cli.emit"], "s"),
        "cli.output_bytes": (sum(r["output_bytes"] for r in traced), "B"),
        "cli.import_s": (self_s["cli.import"], "s"),
        "cli.main_self_s": (self_s["cli.main"], "s"),
    }
    by_cmd = {r["command"]: r for r in plain}
    for c in workloads.REPORTS:
        key = c.replace("-", "_")
        m[f"cmd.{key}_s"] = (by_cmd[c]["cpu_s"] if c in by_cmd else 0.0, "s")
        m[f"cmd.{key}_rss_mb"] = (by_cmd[c]["rss_mb"] if c in by_cmd else 0.0, "MB")
    plain_wall = sum(r["wall_s"] for r in plain)
    traced_wall = sum(r["wall_s"] for r in traced)
    m["wall_s"] = (plain_wall, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    # Interpreter start-up and teardown: the part of each traced process
    # that no span covers.
    m["trace.unspanned_s"] = (traced_wall - sum(self_s.values()), "s")
    return m


def layer_split(metrics: dict) -> str:
    """One line on where the traced time went."""
    spans = {k: v for k, (v, u) in metrics.items()
             if u == "s" and not k.startswith(("cmd.", "trace.")) and k != "wall_s"}
    total = sum(spans.values())
    top = max(spans, key=spans.get)
    share = sum(v for k, v in spans.items() if k.startswith(("ball.", "spectral."))) / total
    return f"largest span {top} ({spans[top]:.3f} s of {total:.3f} s); ball+spectral share {share:.3f}"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_within_nproc": threads is not None and threads <= nproc,
        "blas_thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "limits": "no page-cache control; no cgroup accounting; "
                  "memory is per-child ru_maxrss from os.wait4",
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _steal_s() -> float:
    """CPU time the host took from this machine's vCPUs so far (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 check_pins: bool = True) -> dict:
    wl = workloads.build(name, seed, smoke)
    base = WORK / name
    shutil.rmtree(base, ignore_errors=True)
    configs = wl.write_configs(base / "configs")
    schema = json.loads((SRC / "flagcurve" / "schemas" / "report.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    pins = None
    if check_pins and not smoke and DIGESTS.is_file():
        pinned = json.loads(DIGESTS.read_text())
        if not wl.seeded or seed == pinned["seed"]:
            pins = pinned["workloads"].get(name)
    config_paths = list(configs.values())
    if not trace:
        setup_launch(config_paths, base)  # writes the bytecode cache; not counted

    passes, layers, setups = [], [], []
    t0, steal0 = time.perf_counter(), _steal_s()
    while True:
        if trace:
            # Alternate which pass of a pair runs first, across pairs and seeds.
            order = (False, True) if (seed + len(layers)) % 2 == 0 else (True, False)
            pair = {t: run_pass(wl, configs, base / ("traced" if t else "plain"), t,
                                validator, pins) for t in order}
            passes += [pair[False], pair[True]]
            layers.append(layer_metrics(pair[True], pair[False]))
        else:
            setups.append(setup_launch(config_paths, base))
            passes.append(run_pass(wl, configs, base / "plain", False, validator, pins))
        elapsed = time.perf_counter() - t0
        rounds = len(layers) if trace else len(passes)
        if elapsed + elapsed / rounds > seconds:
            break

    while not trace and len(setups) < SETUP_LAUNCHES:
        setups.append(setup_launch(config_paths, base))
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r["errors"])
    for p in passes:
        for r in p:
            for e in r["errors"]:
                print(f"FAIL {name} {r['command']}: {e}")
    if trace:
        metrics = {}
        for k, (v, unit) in layers[0].items():
            med = statistics.median_low if isinstance(v, int) else statistics.median
            metrics[k] = (med(m[k][0] for m in layers), unit)
        metrics["failed_frac"] = (failed / attempted, "ratio")
        print(f"{name}: {layer_split(metrics)}")
    else:
        # Per command over the passes, so one slow command in one pass does
        # not move the others.
        times, peaks = [], []
        for c in wl.commands:
            runs = [r for p in passes for r in p if r["command"] == c.name]
            times.append(statistics.median(r["cpu_s"] for r in runs))
            peaks.append(statistics.median(r["rss_mb"] for r in runs))
            each = " ".join(f"{r['cpu_s']:.3f}" for r in runs)
            print(f"{name} {c.name}: {times[-1]:.3f} s median CPU (passes {each}), "
                  f"{statistics.median(r['wall_s'] for r in runs):.3f} s median wall, "
                  f"{peaks[-1]:.1f} MB peak")
        metrics = {
            "cpu_s": (sum(times), "s"),
            "peak_rss_mb": (max(peaks), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    print(f"{name}: {len(passes)} passes in {time.perf_counter() - t0:.1f} s "
          f"(host steal {_steal_s() - steal0:.2f} s), {attempted} commands, {failed} failed")
    for k, (v, unit) in metrics.items():
        print(f"  {k} = {v!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def tracer_restore_errors() -> list:
    """Install the tracer in this process and check that restore() puts
    back every attribute it wrapped."""
    import flagcurve.cli
    import flagcurve.svg  # noqa: F401
    from flagcurve.ball import BallTable

    import tracer

    def snapshot():
        snap = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("flagcurve")}
        snap["BallTable"] = dict(BallTable.__dict__)
        snap["_DISPATCH"] = dict(flagcurve.cli._DISPATCH)
        return snap

    def changed(a, b):
        return {(o, k) for o in a for k in a[o] if b[o].get(k) is not a[o][k]}

    before = snapshot()
    t = tracer.Tracer()
    t.install()
    wrapped = changed(before, snapshot())
    n = t.restore()
    errors = [f"{o}.{k} not restored" for o, k in sorted(changed(before, snapshot()))]
    if n != len(wrapped):
        errors.append(f"restore() reported {n}, but {len(wrapped)} attributes were wrapped")
    originals = {id(before[o][k]) for o, k in wrapped}
    expected = len(tracer.TARGETS) + len(flagcurve.cli._DISPATCH)
    if len(originals) != expected:
        errors.append(f"{len(originals)} functions wrapped, expected {expected}")
    return errors


def smoke(seed: int) -> int:
    """Run every workload at a tiny radius, plain and traced, through the
    same code path, and check the metric names and the tracer."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"] for m in declared["end_to_end"]},
            True: {m["name"] for m in declared["per_layer"]}}
    problems = tracer_restore_errors()
    if {w["name"] for w in declared["workloads"]} != set(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        for trace in (False, True):
            res = run_workload(name, seed, 0, trace, smoke=True)
            got = set(res["metrics"])
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics missing "
                                f"{sorted(want[trace] - got)}, undeclared {sorted(got - want[trace])}")
            if not res["correct"]:
                problems.append(f"{name} trace={int(trace)}: {res['failed']} commands failed")
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def pin(seed: int) -> int:
    """Write digests.json from one plain pass of every workload at ``seed``."""
    out = {"seed": seed, "workloads": {}}
    for name in workloads.NAMES:
        res = run_workload(name, seed, 0, False, check_pins=False)
        if not res["correct"]:
            print(f"pin: {name} failed its checks; nothing written")
            return 1
        wl = workloads.build(name, seed)
        out["workloads"][name] = {
            c.name: gate.pins_of(c.name, WORK / name / "plain" / c.name) for c in wl.commands
        }
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "flagcurve" / "cli.py").is_file():
        print(f"perfbench: no flagcurve package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args.seed)
    if args.pin:
        return pin(args.seed)
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
