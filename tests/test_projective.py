import math

import numpy as np
import pytest

from flagcurve import Flag, canonicalize

E1, E2, E3 = np.eye(3)


def test_canonicalize_unit_and_sign():
    v = canonicalize([0.0, -2.0, 1.0])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert v[1] > 0  # first nonzero made positive


def test_canonicalize_bit_exact_idempotent(rng):
    for _ in range(200):
        v = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        once = canonicalize(v)
        twice = canonicalize(once)
        assert np.array_equal(once, twice)


def test_canonicalize_rejects_zero():
    # A norm that overflows would otherwise scale the vector to zero.
    for v in ([0.0, 0.0, 0.0], [1e308, 1e308, 0.0]):
        with pytest.raises(ValueError):
            canonicalize(v)


def test_canonicalize_tiny_vectors():
    # Squared norms below the normal range: subnormal, or zero in float64.
    for v in ([1e-160, 0.0, 0.0], [1e-170, 0.0, 0.0], [5e-324, 0.0, 0.0]):
        assert np.array_equal(canonicalize(v), E1)
    assert abs(np.linalg.norm(canonicalize([3e-155, 4e-155, 0.0])) - 1.0) <= 4e-16


def test_pairing_dual_basis():
    # A flag holds the canonical representatives of its point and line.
    flag = Flag.of(-2.0 * E1, 3.0 * E3)
    assert np.array_equal(flag.point, E1) and np.array_equal(flag.line, E3)
    assert flag.point @ flag.line == 0.0


def test_pairing_example_vectors():
    # The rejection names the pairing of the unit representatives.
    res = 32.0 / math.sqrt(14.0 * 77.0)
    with pytest.raises(ValueError, match=rf"^not incident: \|<point\|line>\| = {res:.3e} > "):
        Flag.of([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])


def test_flag_rejects_non_incident():
    with pytest.raises(ValueError):
        Flag.of(E1, E1)


@pytest.mark.parametrize("pairing, ok", [(5e-9, True), (2e-8, False)])
def test_flag_incidence_tolerance(pairing, ok):
    # One tolerance, 1e-8, for every flag.
    line = np.array([pairing, 0.0, math.sqrt(1.0 - pairing ** 2)])
    if ok:
        flag = Flag.of(E1, line)
        assert flag.point @ flag.line == pytest.approx(pairing, rel=1e-12, abs=0.0)
    else:
        with pytest.raises(ValueError, match=r"> 1\.0e-08$"):
            Flag.of(E1, line)
