"""Eigenstructure of 3x3 unimodular matrices.

Each eigen task has one kernel on (n,3,3) stacks; a single matrix g is
the stack g[None].  Eigenvalues come from ``batch_eigvals3``: the
characteristic cubic solved in trigonometric form with a Newton polish
that skips the divergent steps near a double root.  ``batch_loxodromic``
and ``batch_saddle_at_e2`` classify stacks from those eigenvalues.
Eigenvectors come from ``batch_eigvec``: the longest cross product of two
rows of g - lambda*I (the rank-2 null-space formula), or, where
g - lambda*I has rank <= 1, its smallest right singular vector; there is
no inverse iteration.  Attracting flags come from
``batch_attracting_flags`` (top eigenline, and the plane of the top two
eigenlines); the repelling flag of g is the attracting flag of its
inverse.  Everything is 3x3-specialized, deterministic, and free of
iteration-order ambiguity.
"""

from __future__ import annotations

import numpy as np

# Relative modulus gap below which eigenvalue ordering is unreliable.
GAP_TOL = 1e-8

# Largest Newton polish step of batch_eigvals3, relative to the scale of
# the characteristic coefficients; larger steps are skipped.
NEWTON_MAX_STEP = 1e-6

# Null-vector rule of batch_eigvec: a longest row cross product of g - lam*I
# at or below NULL_TOL * max(1, max|g - lam*I|)^2 means rank <= 1.
NULL_TOL = 1e-12


def batch_eigvals3(mats: np.ndarray):
    """Eigenvalues of a (n,3,3) stack, sorted by decreasing modulus.

    Returns (vals (n,3), real_mask (n,)); rows with a complex pair hold NaN.
    """
    n = len(mats)
    c2 = np.trace(mats, axis1=1, axis2=2)
    # trace(M^2) from its diagonal alone, summed in the order of the
    # full product's entries and of np.trace.
    diag = [mats[:, i, 0] * mats[:, 0, i] + mats[:, i, 1] * mats[:, 1, i]
            + mats[:, i, 2] * mats[:, 2, i] for i in range(3)]
    c1 = 0.5 * (c2 * c2 - (diag[0] + diag[1] + diag[2]))
    c0 = np.linalg.det(mats)
    p = c1 - c2 * c2 / 3.0
    q = -2.0 * c2 ** 3 / 27.0 + c2 * c1 / 3.0 - c0
    scale = np.maximum.reduce(
        [np.ones(n), np.abs(c2), np.sqrt(np.abs(c1)), np.abs(c0) ** (1.0 / 3.0)]
    )
    real = p <= 1e-12 * scale * scale
    u = np.sqrt(np.maximum(0.0, -p) / 3.0)
    tiny = u ** 3 < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(tiny, 0.0, -q / np.where(tiny, 1.0, 2.0 * u ** 3))
    real &= np.abs(r) <= 1.0 + 1e-9
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    ks = np.arange(3.0)
    vals = 2.0 * u[:, None] * np.cos(phi[:, None] - 2.0 * np.pi * ks / 3.0)
    vals += (c2 / 3.0)[:, None]
    vals[tiny] = (c2[tiny] / 3.0)[:, None]
    for _ in range(2):  # Newton polish, vectorized
        f = ((vals - c2[:, None]) * vals + c1[:, None]) * vals - c0[:, None]
        fp = (3.0 * vals - 2.0 * c2[:, None]) * vals + c1[:, None]
        step = np.where(fp != 0.0, f / np.where(fp != 0.0, fp, 1.0), 0.0)
        # Near a double root f' ~ 0 and the step diverges; on simple
        # roots of ball images the largest step measured is ~1e-12 * scale.
        vals -= np.where(np.abs(step) <= NEWTON_MAX_STEP * scale[:, None], step, 0.0)
    order = np.argsort(-np.abs(vals), axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vals[~real] = np.nan
    return vals, real


def batch_eigvec(mats: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Unit eigenvectors for one eigenvalue per matrix: the longest cross
    product of two rows of g - lam*I, or, where g - lam*I has rank <= 1
    (a repeated eigenvalue), its smallest right singular vector."""
    shifted = mats - lams[:, None, None] * np.eye(3)
    stack = np.empty((len(mats), 3, 3))
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        _cross(shifted[:, i], shifted[:, j], out=stack[:, k])
    best = np.argmax(np.linalg.norm(stack, axis=2), axis=1)
    v = stack[np.arange(len(mats)), best]
    nv = np.linalg.norm(v, axis=1)
    # The largest entry of the whole stack bounds every row's, so it
    # shortlists the rows that can meet the rank <= 1 test.
    top = max(shifted.max(initial=1.0), -shifted.min(initial=-1.0))
    flat = np.flatnonzero(nv <= NULL_TOL * top * top)
    if len(flat):
        big = np.maximum(1.0, np.abs(shifted[flat]).max(axis=(1, 2)))
        flat = flat[nv[flat] <= NULL_TOL * big * big]
        v[flat] = np.linalg.svd(shifted[flat])[2][:, -1]
        nv[flat] = 1.0
    return v / nv[:, None]


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (n,3) arrays into ``out``: the
    component products a1 b2 - a2 b1, ... that ``np.cross`` evaluates,
    in its order, without its temporaries."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    np.subtract(a1 * b2, a2 * b1, out=out[:, 0])
    np.subtract(a2 * b0, a0 * b2, out=out[:, 1])
    np.subtract(a0 * b1, a1 * b0, out=out[:, 2])
    return out


def batch_attracting_flags(mats: np.ndarray, lines: bool = True):
    """(lox, points, lines) for a (n,3,3) stack: the ``batch_loxodromic``
    mask, and for the loxodromic rows in stack order the canonical top
    eigenline and the covector of the plane of the top two eigenlines.
    With ``lines`` false the covectors are not computed and lines is None."""
    lox, vals = batch_loxodromic(mats)
    mats, vals = mats[lox], vals[lox]
    v1 = batch_eigvec(mats, vals[:, 0])
    if not lines:
        return lox, canonicalize_rows(v1), None
    v2 = batch_eigvec(mats, vals[:, 1])
    return lox, canonicalize_rows(v1), canonicalize_rows(_cross(v1, v2, np.empty_like(v1)))


def batch_loxodromic(mats: np.ndarray):
    """(mask, vals) for a (n,3,3) stack: whether each matrix has three real
    eigenvalues whose relative modulus gaps both exceed GAP_TOL, and the
    eigenvalues of ``batch_eigvals3``."""
    vals, real = batch_eigvals3(mats)
    a = np.abs(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = (a[:, 0] / a[:, 1] - 1.0 > GAP_TOL) & (a[:, 1] / a[:, 2] - 1.0 > GAP_TOL)
    return real & gaps, vals


def batch_saddle_at_e2(mats: np.ndarray) -> np.ndarray:
    """Middle-modulus test for the eigenvalue at [e2] on a (n,3,3) stack:
    loxodromic, with the eigenvalue closest to the (1,1) entry in the middle.

    Assumes the stack fixes [e2] (middle column proportional to e2), which
    holds for the images of every spec with u.
    """
    lox, vals = batch_loxodromic(mats)
    closest = np.argmin(np.abs(vals - mats[:, 1, 1, None]), axis=1)
    return lox & (closest == 1)


def canonicalize_rows(arr: np.ndarray) -> np.ndarray:
    """Row-wise canonicalization: unit norm, first nonzero coordinate positive."""
    out = arr / np.linalg.norm(arr, axis=1)[:, None]
    sign = np.zeros(len(out))
    for col in range(out.shape[1]):
        undecided = sign == 0.0
        if not np.any(undecided):
            break
        sign[undecided] = np.sign(out[undecided, col])
    out *= np.where(sign == 0.0, 1.0, sign)[:, None]
    return out
