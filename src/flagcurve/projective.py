"""Projective plane primitives: canonical representatives and incident
flags.

``canonicalize`` gives a homogeneous vector its representative of unit
Euclidean norm with the first nonzero coordinate positive, so equal
projective elements have bitwise equal representatives.  A ``Flag``
holds two such read-only arrays, a point and the covector of a line
through it, and carries the CLI's base flag and the domain queries; the
curve and ball pipelines work on (n, 3) row arrays instead
(``spectral.canonicalize_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest |<point|line>| of the unit representatives of an incident flag.
INCIDENCE_TOL = 1e-8

_UNIT_SLACK = 4 * np.finfo(float).eps
_TINY = np.finfo(float).tiny  # the least normal double


def canonicalize(v: np.ndarray) -> np.ndarray:
    """Unit-norm, first-nonzero-positive representative of a homogeneous vector.

    Idempotent bit-exactly: vectors whose norm is already 1 within a few ulp
    are not rescaled again.  A vector whose squared norm falls below the
    normal range is first divided by its largest entry, so a tiny nonzero
    vector still gets a unit representative.  Raises ValueError for a zero
    vector and for one whose squared norm overflows (it would otherwise
    scale to zero).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore", under="ignore"):
        sq = float(v @ v)
    if not math.isfinite(sq):
        raise ValueError("vector norm overflows or is not a number")
    if sq < _TINY:
        top = float(np.abs(v).max())
        if top == 0.0:
            raise ValueError("zero vector has no projective class")
        v = v / top
        sq = float(v @ v)
    n = math.sqrt(sq)
    if abs(n - 1.0) > _UNIT_SLACK:
        v = v / n
    for x in v:
        if x != 0.0:
            if x < 0.0:
                v = -v
            break
    out = np.array(v, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Flag:
    """Incident (point, line) pair: the canonical representatives of a
    point and of the covector of a line through it.  Built by
    ``Flag.of``."""

    point: np.ndarray
    line: np.ndarray

    @staticmethod
    def of(point, line) -> "Flag":
        """The flag of a point and a line given by any representatives;
        raises ValueError unless they pair to within INCIDENCE_TOL."""
        p, l = canonicalize(point), canonicalize(line)
        res = abs(float(p @ l))
        if res > INCIDENCE_TOL:
            raise ValueError(f"not incident: |<point|line>| = {res:.3e} > {INCIDENCE_TOL:.1e}")
        return Flag(p, l)
