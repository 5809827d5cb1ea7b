"""Span tracer for one flagcurve CLI process.

Run as ``python tracer.py TRACE_JSON COMMAND --config ... --out ...`` with
the package on ``PYTHONPATH``.  It wraps the public functions of each layer
in every ``flagcurve`` module namespace that holds them (the CLI, curve,
certify and domain modules re-import names, so patching only the defining
module would miss calls), runs ``flagcurve.cli.main``, restores every
wrapped attribute, and writes the spans to TRACE_JSON.  The exit code is
the CLI's.

A span is ``[name, parent, start, end, rss_rise_kb, counts]``: times from
``time.perf_counter`` in seconds, ``parent`` the index of the enclosing
span or -1, ``rss_rise_kb`` the rise of the ``ru_maxrss`` high-water mark
while the span was open, and ``counts`` sizes read from the arguments and
the return value.  Spans stay in memory until the process ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
import time


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# Counters: f(args, kwargs, result) -> dict of counts, computed after the
# span's end time is taken.

def _ball_words(a, k, table):
    return {"words": sum(len(p.letters[lv]) for p in table.partitions
                         for lv in range(table.radius))}


def _eigvals3_counts(a, k, res):
    import numpy as np

    from flagcurve.spectral import GAP_TOL

    vals, real = res
    m = np.abs(vals[real])
    with np.errstate(divide="ignore", invalid="ignore"):
        lox = (m[:, 0] / m[:, 1] - 1.0 > GAP_TOL) & (m[:, 1] / m[:, 2] - 1.0 > GAP_TOL)
    return {"n": len(vals), "lox": int(lox.sum())}


def _incidence_counts(a, k, rep):
    # The signature follows __wrapped__ back to check_incidence itself.
    bound = inspect.signature(sys.modules["flagcurve.curve"].check_incidence).bind(*a, **k)
    bound.apply_defaults()
    model, chunk = bound.arguments["model"], bound.arguments["chunk"]
    lines = sum(rep.histogram.values()) + rep.nontransversal
    # Working set of one chunk: the float64 pairing block plus the two
    # boolean sign / nonzero masks alive with it.
    return {"pairings": len(model) * lines,
            "chunk_bytes": len(model) * min(chunk, lines) * (8 + 1 + 1)}


COUNTERS = {
    "ball.build": _ball_words,
    "spectral.eigvals3": _eigvals3_counts,
    "curve.sample": lambda a, k, m: {"samples": len(m)},
    "curve.incidence": _incidence_counts,
    "certify.anosov": lambda a, k, r: {"n_scored": r.n_scored},
    "certify.probe": lambda a, k, r: {"n_scored": r.n_scored},
    "domain.recurrence": lambda a, k, r: {"returning_words": len(r.returning_words)},
    "svg.render": lambda a, k, s: {"bytes": len(s.encode("utf-8"))},
}

# Span name -> (defining module, attribute path).
TARGETS = {
    "ball.build": ("flagcurve.ball", "BallTable.build"),
    "ball.images3": ("flagcurve.ball", "BallTable.images3"),
    "ball.word_strings": ("flagcurve.ball", "BallTable.word_strings"),
    "spectral.eigvals3": ("flagcurve.spectral", "batch_eigvals3"),
    "spectral.eigvec": ("flagcurve.spectral", "batch_eigvec"),
    "curve.sample": ("flagcurve.curve", "sample_limit_curve"),
    "curve.incidence": ("flagcurve.curve", "check_incidence"),
    "curve.injectivity": ("flagcurve.curve", "injectivity_report"),
    "curve.regularity": ("flagcurve.curve", "regularity_diagnostics"),
    "certify.anosov": ("flagcurve.certify", "certify_anosov"),
    "certify.rates": ("flagcurve.certify", "anosov_rates"),
    "certify.probe": ("flagcurve.certify", "probe_explicit"),
    "delta.fit": ("flagcurve.delta", "fit_delta"),
    "delta.pushforward": ("flagcurve.delta", "pushforward_deviation"),
    "domain.recurrence": ("flagcurve.domain", "recurrence_experiment"),
    "svg.render": ("flagcurve.svg", "render_model"),
}

class Tracer:
    """Installs span wrappers and puts the original attributes back."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []  # (owner, key, original, is_item)

    def span(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, _maxrss_kb(), {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        s = self.spans[idx]
        s[3] = time.perf_counter()
        s[4] = _maxrss_kb() - s[4]
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx][5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _current(owner, key, is_item):
        if is_item:
            return owner[key]
        # A class attribute is read raw, so a staticmethod stays one.
        return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)

    def _patch(self, owner, key, new, is_item=False):
        self._patches.append((owner, key, self._current(owner, key, is_item), is_item))
        if is_item:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def install(self):
        """Wrap every target in every loaded flagcurve module that holds it,
        and the CLI's ``cmd_*`` dispatch entries."""
        for name, (modname, path) in TARGETS.items():
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                w = self.wrap(name, fn)
                self._patch(cls, meth, staticmethod(w) if isinstance(raw, staticmethod) else w)
                continue
            fn = getattr(mod, path)
            w = self.wrap(name, fn)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("flagcurve") and \
                        m.__dict__.get(path) is fn:
                    self._patch(m, path, w)
        cli = sys.modules["flagcurve.cli"]
        for command, fn in list(cli._DISPATCH.items()):
            w = self.wrap("cli.emit", fn)
            self._patch(cli._DISPATCH, command, w, is_item=True)
            if cli.__dict__.get(fn.__name__) is fn:
                self._patch(cli, fn.__name__, w)

    def restore(self) -> int:
        """Put back every original.  Returns how many attributes were
        wrapped, or -1 when some attribute is not its original afterwards."""
        for owner, key, old, is_item in reversed(self._patches):
            if is_item:
                owner[key] = old
            else:
                setattr(owner, key, old)
        ok = all(self._current(owner, key, is_item) is old
                 for owner, key, old, is_item in self._patches)
        n = len(self._patches)
        self._patches.clear()
        return n if ok else -1


def main(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    imp = tracer.span("cli.import")
    import flagcurve.cli
    import flagcurve.svg  # noqa: F401  (imported lazily by the CLI; wrap it too)
    tracer.close(imp)
    tracer.install()
    root = tracer.span("cli.main")
    try:
        code = flagcurve.cli.main(cli_argv)
    finally:
        tracer.close(root)
        restored = tracer.restore()
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans, "restored": restored}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
