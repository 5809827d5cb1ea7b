"""Correctness gate for one command run.

A command passes when it exits with its expected code, its JSON report
validates against the package's shipped report schema, the report holds
the workload's seed-independent facts, and every other output file exists.
Where digests are pinned (``digests.json``), every pinned output file and
every pinned report field must also match; fields a later version adds to
a report are allowed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import FILES, REPORTS

_MISSING = object()


def leaves(obj, prefix: str = ""):
    """(path, value) for every leaf of a JSON object; lists are leaves."""
    if isinstance(obj, dict) and obj:
        for k, v in obj.items():
            yield from leaves(v, f"{prefix}/{k}" if prefix else str(k))
    else:
        yield prefix, obj


def field_digests(report: dict) -> dict:
    return {path: hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest()
            for path, v in leaves(report)}


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pins_of(command: str, out: Path) -> dict:
    """Digests to pin for a command's outputs in ``out``."""
    report = json.loads((out / REPORTS[command]).read_text(encoding="utf-8"))
    return {
        "files": {name: file_digest(out / name) for name in FILES.get(command, ())},
        "fields": field_digests(report),
    }


def check(command, code: int, out: Path, validator, pins: dict | None) -> list:
    """Error messages for one run of ``command`` (a workloads.Command)."""
    errors = []
    if code != command.exit_code:
        errors.append(f"exit code {code}, expected {command.exit_code}")
    try:
        report = json.loads((out / REPORTS[command.name]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return errors + [f"no valid report: {e}"]
    for e in validator.iter_errors(report):
        errors.append(f"schema: {e.message} at /{'/'.join(map(str, e.absolute_path))}")
    fields = dict(leaves(report))
    for path, want in command.facts.items():
        got = fields.get(path, _MISSING)
        if got is _MISSING or got != want:
            errors.append(f"{path} is {got!r}, expected {want!r}")
    for name in FILES.get(command.name, ()):
        p = out / name
        if not p.is_file() or p.stat().st_size == 0:
            errors.append(f"{name} missing or empty")
        elif pins and file_digest(p) != pins["files"][name]:
            errors.append(f"{name} differs from its pinned digest")
    if pins:
        got = field_digests(report)
        for path, digest in pins["fields"].items():
            if got.get(path) != digest:
                errors.append(f"report field {path} differs from its pinned digest")
    return errors
