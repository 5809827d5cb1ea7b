"""Projective plane primitives: points, lines and incident flags.

Homogeneous representatives are stored with unit Euclidean norm and the
first nonzero coordinate positive, so equal projective elements have equal
(bitwise, after canonicalization) representatives and hashing/dedup is
stable.  These scalar values carry the CLI's base flag and the domain
queries; the curve and ball pipelines work on (n, 3) row arrays instead
(``spectral.canonicalize_rows``).

All objects are immutable values and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Incidence tolerance for flags constructed by the library (near machine
# precision).
CONSTRUCTED_TOL = 1e-10

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
class ProjPoint:
    """Point of the projective plane, canonicalized unit 3-vector."""

    rep: np.ndarray

    @staticmethod
    def of(v) -> "ProjPoint":
        return ProjPoint(canonicalize(v))


@dataclass(frozen=True, eq=False)
class ProjLine:
    """Projective line, represented by a canonicalized unit covector."""

    rep: np.ndarray

    @staticmethod
    def of(v) -> "ProjLine":
        return ProjLine(canonicalize(v))


def pairing(p: ProjPoint, l: ProjLine) -> float:
    """Evaluation of the line's covector on the point's vector (both unit)."""
    return float(p.rep @ l.rep)


@dataclass(frozen=True, eq=False)
class Flag:
    """Incident (point, line) pair."""

    point: ProjPoint
    line: ProjLine

    def __post_init__(self):
        res = abs(pairing(self.point, self.line))
        if res > CONSTRUCTED_TOL:
            raise ValueError(f"not incident: |<point|line>| = {res:.3e} > {CONSTRUCTED_TOL:.1e}")

    @staticmethod
    def of(point, line, tol: float = CONSTRUCTED_TOL) -> "Flag":
        p = point if isinstance(point, ProjPoint) else ProjPoint.of(point)
        l = line if isinstance(line, ProjLine) else ProjLine.of(line)
        res = abs(pairing(p, l))
        if res > tol:
            raise ValueError(f"not incident: |<point|line>| = {res:.3e} > {tol:.1e}")
        f = object.__new__(Flag)
        object.__setattr__(f, "point", p)
        object.__setattr__(f, "line", l)
        return f
