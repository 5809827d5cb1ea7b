"""Height-profile fit of the invariant point curve of a spec with a shear.

For a radial representation the invariant point curve is a graph
z = h(x, y) over the plane directions, with h homogeneous of degree one
and odd.  The fitted profile delta is the NEGATED graph, so that the
shear (x, y, z) -> (x, y, z + delta(x, y)) carries the sampled curve onto
the canonical line z = 0.

Coordinates: a point representative (p0, p1, p2) is read as x = p0,
z = p1 (the fixed-point coordinate), y = p2.

The profile is stored on a dense angular grid over [0, 2*pi) and
evaluated with linear interpolation; grid nodes are filled from the
samples by 4-point Lagrange interpolation after thinning clusters, which
keeps the fill error far below the grid-interpolation error.

The fit reads the model's points ``ball.BLOCK_ROWS`` rows at a time: the
support angles and values are filled slice by slice, and the cocycle
residual and the pushforward deviation are maxima over slices, so beyond
the model only the angles, their values, their sort order and their
sorted copy are ever held whole, with one run of antipodes: about 33 B a
sample at once.  Every per-row step rounds the same whatever the slice
(``ball.rowwise_dot`` for the one product whose rounding depends on the
row count), so the results do not depend on the slice size.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import ball
from .curve import CurveModel, greedy_thin
from .errors import InsufficientSamples, NotRadial, PolarDegenerate
from .reps import RepSpec

GRID_SIZE = 4096
_THIN_SPACING = 1e-3


@dataclass(frozen=True)
class DeltaModel:
    """Degree-one homogeneous odd profile on the plane of (x, y) directions."""

    grid: np.ndarray  # node values at angles 2*pi*k/len(grid)

    def profile(self, angles) -> np.ndarray:
        """Linear interpolation of the stored profile at given angles."""
        g = len(self.grid)
        pos = np.asarray(angles, dtype=float) % (2.0 * math.pi) / (2.0 * math.pi) * g
        i0 = np.floor(pos).astype(int) % g
        frac = pos - np.floor(pos)
        i1 = (i0 + 1) % g
        return (1.0 - frac) * self.grid[i0] + frac * self.grid[i1]

    def __call__(self, x, y) -> np.ndarray:
        """Homogeneous evaluation: delta(r * d) = r * delta(d)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        return r * self.profile(np.arctan2(y, x))


@dataclass(frozen=True)
class DeltaFit:
    model: DeltaModel
    cocycle_residual: float
    taus: tuple  # per generator (tau1, tau2)


def _slices(n: int):
    """Consecutive slices of ``ball.BLOCK_ROWS`` rows covering range(n)."""
    rows = ball.BLOCK_ROWS
    return (slice(lo, min(n, lo + rows)) for lo in range(0, n, rows))


def _plane_coords(pts: np.ndarray) -> tuple:
    """(xs, zs, ys): the rows' x, z and y over their plane norm hypot(x, y).
    Every step is elementwise, so a row's values do not depend on the
    rows around it."""
    x, z, y = pts[:, 0], pts[:, 1], pts[:, 2]
    plane = np.hypot(x, y)
    if plane.min() < 1e-8:
        raise PolarDegenerate("sample too close to the fixed point [e2]")
    return x / plane, z / plane, y / plane


def _lagrange_fill(pts: np.ndarray) -> np.ndarray:
    """Fill grid nodes by cubic Lagrange through the 4 nearest support nodes.

    The support is the samples' plane directions in [0, 2*pi) with their
    values -z / hypot(x, y), filled a slice at a time, and their
    antipodes with the negated values, since the profile is odd.  Support
    is cyclic over [0, 2*pi); clusters are thinned first so node spacing
    is bounded below and the Lagrange weights stay well conditioned.
    Thinning keeps exact values, it does not average.

    A row with x < 0 is read as its antipode, as a canonical row would
    be, so the angles lie in [0, pi/2] and [3*pi/2, 2*pi] and their
    antipodes in [pi/2, 3*pi/2]: the sorted support is the low angles,
    the antipodes of the high ones, those of the low ones, and the high
    angles, runs cut from one argsort of the n angles.  The runs are
    thinned in that order, each from the last angle kept before it, and
    only the kept angles' values are gathered.  Tied angles are equal
    points here; ties of distinct values would be kept in sort order,
    which neither this fill nor a sort of the whole support defines.
    """
    n = len(pts)
    ang, vals = np.empty(n), np.empty(n)
    for rows in _slices(n):
        xs, zs, ys = _plane_coords(pts[rows])
        sign = np.where(xs < 0, -1.0, 1.0)
        ang[rows] = np.arctan2(ys * sign, xs * sign) % (2.0 * math.pi)
        vals[rows] = -zs * sign
    order = np.argsort(ang)
    ang = ang[order]
    split = int(np.searchsorted(ang, math.pi))
    low, high = slice(0, split), slice(split, n)
    kept_ang, kept_val, last = [], [], None
    for part, antipodes in ((low, False), (high, True), (low, True), (high, False)):
        x = ang[part]
        if antipodes:
            x = x + math.pi
            x %= 2.0 * math.pi
        # The first angle kept in a run is the first far enough from the
        # last one kept, by the exact predicate of greedy_thin.
        start = 0 if last is None else bisect_left(
            x, True, key=lambda a: a - last >= _THIN_SPACING)
        keep = greedy_thin(x[start:], _THIN_SPACING) + start
        if len(keep):
            kept_ang.append(x[keep])
            v = vals[order[part][keep]]
            kept_val.append(-v if antipodes else v)
            last = x[keep[-1]]
        del x  # one run of antipodes at a time
    ang, val = np.concatenate(kept_ang), np.concatenate(kept_val)
    if (2.0 * math.pi - ang[-1]) + ang[0] < _THIN_SPACING and len(ang) > 4:
        ang, val = ang[:-1], val[:-1]
    m = len(ang)
    if m < 8:
        raise PolarDegenerate("too few distinct directions to fit a profile")
    nodes = np.arange(GRID_SIZE) * (2.0 * math.pi / GRID_SIZE)
    pos = np.searchsorted(ang, nodes)
    # indices of the 4 cyclic neighbors: two below, two above
    idx = (pos[:, None] + np.array([-2, -1, 0, 1])) % m
    theta = ang[idx]
    # unwrap the neighborhood around each node
    theta += 2.0 * math.pi * np.round((nodes[:, None] - theta) / (2.0 * math.pi))
    fv = val[idx]
    out = np.zeros(GRID_SIZE)
    for j in range(4):
        w = np.ones(GRID_SIZE)
        for k in range(4):
            if k == j:
                continue
            w *= (nodes - theta[:, k]) / (theta[:, j] - theta[:, k])
        out += w * fv[:, j]
    return out


def fit_delta(spec: RepSpec, model: CurveModel) -> DeltaFit:
    """Fit the profile from curve samples and verify the shear cocycle.

    The spec must state its shear (mu, nu), zero included.  The cocycle
    identity checked is, per generator g with data (u, mu, nu):

        delta(lambda_g (x, y)) = delta(x, y) + tau1 x + tau2 y,
        lambda_g = e^u * (seed block),  tau_i = -e^{2u/3} * (mu, nu),

    evaluated on unit (x, y) with the mapped delta value read off the
    exactly mapped sample (the mapped point lies on the invariant curve),
    so the residual is free of interpolation error.
    """
    if spec.shear is None:
        raise NotRadial("the spec states no shear profile")
    if len(model) < 64:
        raise InsufficientSamples(f"{len(model)} samples < 64")
    dm = DeltaModel(_lagrange_fill(model.points))

    terms = []
    for g, u, mu, nu in zip(spec.generator_images(), spec.u, *spec.shear):
        e23 = math.exp(2.0 * u / 3.0)
        terms.append((e23, -e23 * mu, -e23 * nu, g.T))
    residual = 0.0
    for rows in _slices(len(model)):
        residual = max(residual, float(_cocycle_defects(model.points[rows], terms).max()))
    return DeltaFit(dm, residual, tuple((tau1, tau2) for _, tau1, tau2, _ in terms))


def _cocycle_defects(pts: np.ndarray, terms) -> np.ndarray:
    """Each row's largest cocycle defect over the generators, given each
    generator's (e^{2u/3}, tau1, tau2, g^T).  A row's defect does not
    depend on the rows around it."""
    xs, zs, ys = _plane_coords(pts)
    unit = np.stack([xs, zs, ys], axis=1)
    out = np.zeros(len(pts))
    for e23, tau1, tau2, gt in terms:
        # delta at the mapped direction, homogeneous
        lhs = -e23 * ball.rowwise_dot(unit, gt)[:, 1]
        rhs = -zs + tau1 * xs + tau2 * ys
        np.maximum(out, np.abs(lhs - rhs), out=out)
    return out


def pushforward_deviation(model: CurveModel, fit: DeltaFit) -> float:
    """Max angular distance to the canonical line z = 0 after applying the
    shear (x, y, z) -> (x, y, z + delta(x, y)) to the samples, a slice at
    a time."""
    deviation = 0.0
    for rows in _slices(len(model)):
        pts = model.points[rows]
        z_new = pts[:, 1] + fit.model(pts[:, 0], pts[:, 2])
        sheared = np.stack([pts[:, 0], z_new, pts[:, 2]], axis=1)
        norms = np.linalg.norm(sheared, axis=1)
        deviation = max(deviation, float(np.arcsin(np.abs(z_new) / norms).max()))
    return deviation
