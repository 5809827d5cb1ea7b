"""Projective plane primitives: points, lines, flags, frames, duality.

Homogeneous representatives are stored with unit Euclidean norm and the
first nonzero coordinate positive, so equal projective elements have equal
(bitwise, after canonicalization) representatives and hashing/dedup is
stable.  Joins and meets use the 3-dimensional alternating product (cross
product), which is exact up to rounding; no linear solves.

All objects are immutable values and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateJoin, NotInY, SingularMatrix

# Incidence tolerance for flags constructed by the library (near machine
# precision).
CONSTRUCTED_TOL = 1e-10

# Angular tolerance for projective equality tests: 1 - |<u,v>| <= ANGULAR_TOL.
ANGULAR_TOL = 1e-9

_UNIT_SLACK = 4 * np.finfo(float).eps


def canonicalize(v: np.ndarray) -> np.ndarray:
    """Unit-norm, first-nonzero-positive representative of a homogeneous vector.

    Idempotent bit-exactly: vectors whose norm is already 1 within a few ulp
    are not rescaled again.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    n = float(np.sqrt(v @ v))
    if n < 1e-300:
        raise ValueError("zero vector has no projective class")
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


def proj_dist(u: np.ndarray, v: np.ndarray) -> float:
    """Chordal distance min(|u-v|, |u+v|) of unit representatives.

    Resolves tiny separations to machine precision, unlike the arccos of
    the dot product (whose error floor near zero angle is ~1e-8).
    """
    return float(
        min(np.linalg.norm(u - v), np.linalg.norm(u + v))
    )


def proj_equal(u: np.ndarray, v: np.ndarray, tol: float = ANGULAR_TOL) -> bool:
    return 1.0 - abs(float(u @ v)) <= tol


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """Point of the projective plane, canonicalized unit 3-vector."""

    rep: np.ndarray

    @staticmethod
    def of(v) -> "ProjPoint":
        return ProjPoint(canonicalize(v))

    def same_as(self, other: "ProjPoint", tol: float = ANGULAR_TOL) -> bool:
        return proj_equal(self.rep, other.rep, tol)


@dataclass(frozen=True, eq=False)
class ProjLine:
    """Projective line, represented by a canonicalized unit covector."""

    rep: np.ndarray

    @staticmethod
    def of(v) -> "ProjLine":
        return ProjLine(canonicalize(v))

    def same_as(self, other: "ProjLine", tol: float = ANGULAR_TOL) -> bool:
        return proj_equal(self.rep, other.rep, tol)


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


@dataclass(frozen=True, eq=False)
class Frame:
    """Triple of non-collinear projective points."""

    p1: ProjPoint
    p2: ProjPoint
    p3: ProjPoint

    def __post_init__(self):
        d = abs(float(np.linalg.det(np.stack([self.p1.rep, self.p2.rep, self.p3.rep]))))
        if d <= 1e-10:
            raise ValueError(f"collinear triple: |det| = {d:.3e}")

    @staticmethod
    def of(v1, v2, v3) -> "Frame":
        return Frame(ProjPoint.of(v1), ProjPoint.of(v2), ProjPoint.of(v3))


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Element of SL(3, R)."""

    mat: np.ndarray

    @staticmethod
    def of(m) -> "GroupElement":
        m = np.array(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected 3x3 matrix, got {m.shape}")
        d = float(np.linalg.det(m))
        if abs(d - 1.0) > 1e-10:
            raise ValueError(f"determinant {d} not 1 within 1e-10")
        m.flags.writeable = False
        return GroupElement(m)


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """Line through two distinct points (cross product of representatives)."""
    if proj_equal(p.rep, q.rep, 1e-8):
        raise DegenerateJoin("join of projectively equal points")
    return ProjLine.of(np.cross(p.rep, q.rep))


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """Intersection point of two distinct lines (dual of join)."""
    if proj_equal(l1.rep, l2.rep, 1e-8):
        raise DegenerateJoin("meet of projectively equal lines")
    return ProjPoint.of(np.cross(l1.rep, l2.rep))


@dataclass(frozen=True, eq=False)
class Pencil:
    """One-parameter family of lines through a point (or dually, of points
    on a line), represented by the base element whose pairing must vanish."""

    base: np.ndarray
    dual: bool  # True when the members are points and the base is a covector

    def contains(self, member, tol: float = CONSTRUCTED_TOL) -> bool:
        rep = member.rep if hasattr(member, "rep") else canonicalize(member)
        return abs(float(self.base @ rep)) <= tol


def perp(p: ProjPoint) -> Pencil:
    """Pencil of lines through p, i.e. the line p^perp of the dual plane."""
    return Pencil(base=p.rep, dual=False)


def pi_plus(f: Frame) -> Flag:
    """First frame projection: (p1, line through p1 and p2)."""
    return Flag(f.p1, join(f.p1, f.p2))


def pi_minus(f: Frame) -> Flag:
    """Second frame projection: (p3, line through p3 and p2)."""
    return Flag(f.p3, join(f.p3, f.p2))


def is_in_Y(f1: Flag, f2: Flag, tol: float = CONSTRUCTED_TOL) -> bool:
    """Transversality of a flag pair: each point off the other's line."""
    return (
        abs(pairing(f1.point, f2.line)) > tol
        and abs(pairing(f2.point, f1.line)) > tol
    )


def frame_from_flags(f1: Flag, f2: Flag) -> Frame:
    """Unique frame projecting onto a transversal flag pair.

    The middle point is the meet of the two lines; the round trip
    (pi_plus, pi_minus) recovers (f1, f2).
    """
    if not is_in_Y(f1, f2):
        raise NotInY("flag pair is not transversal")
    return Frame(f1.point, meet(f1.line, f2.line), f2.point)


def dual(g: GroupElement) -> GroupElement:
    """Dual action on covectors: inverse transpose."""
    d = float(np.linalg.det(g.mat))
    if abs(d) < 1e-12:
        raise SingularMatrix("matrix numerically singular")
    m = np.linalg.inv(g.mat).T
    m.flags.writeable = False
    return GroupElement(m)


def act(g: GroupElement, p: ProjPoint) -> ProjPoint:
    return ProjPoint.of(g.mat @ p.rep)


def act_dual(g: GroupElement, l: ProjLine) -> ProjLine:
    return ProjLine.of(dual(g).mat @ l.rep)


def act_frame(g: GroupElement, f: Frame) -> Frame:
    return Frame(act(g, f.p1), act(g, f.p2), act(g, f.p3))
