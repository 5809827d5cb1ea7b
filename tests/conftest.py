import numpy as np
import pytest

from flagcurve import generator_values, reps, standard_fuchsian


def pytest_report_header(config):
    """The numpy and BLAS builds: the SHA-256 output pins of test_cli.py
    hold for the float rounding of the build they were taken on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = blas.get("openblas configuration") or blas.get("version", "")
        blas = f"{blas['name']} {build}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


@pytest.fixture(scope="session")
def seed2():
    return standard_fuchsian(2)


@pytest.fixture(scope="session")
def canonical2(seed2):
    return reps.canonical(seed2)


@pytest.fixture(scope="session")
def u_a1(seed2):
    return generator_values({"a1": 0.3}, "u", 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_unimodular(rng, n=3, max_cond=1e3):
    """Random SL(n) matrix with bounded conditioning (resamples outliers)."""
    while True:
        m = rng.normal(size=(n, n))
        d = np.linalg.det(m)
        if abs(d) < 0.1:
            continue
        m = m / np.cbrt(d) if n == 3 else m / np.sqrt(abs(d)) * np.sign(d)
        if np.linalg.cond(m) <= max_cond:
            return m


def random_unimodular_batch(rng, count, max_cond=1e6):
    """(count, 3, 3) stack of det-1 matrices, no conditioning control."""
    m = rng.normal(size=(count, 3, 3))
    d = np.linalg.det(m)
    bad = np.abs(d) < 1e-3
    while bad.any():
        m[bad] = rng.normal(size=(int(bad.sum()), 3, 3))
        d = np.linalg.det(m)
        bad = np.abs(d) < 1e-3
    return m / np.cbrt(d)[:, None, None]
