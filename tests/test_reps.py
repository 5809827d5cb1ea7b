import dataclasses
import math

import numpy as np
import pytest

from flagcurve import (
    coboundary_radial,
    generator_values,
    phi,
    reps,
    rho0,
    spec_from_json_dict,
    standard_fuchsian,
)
from flagcurve.errors import NotUnimodular, UnsupportedSpec
from flagcurve.surface import relator_residual

from conftest import random_unimodular
from oracles import Word, enumerate_ball, evaluate, spec_to_json_dict


def random_sl2(rng):
    m = rng.normal(size=(2, 2))
    d = np.linalg.det(m)
    while abs(d) < 0.1:
        m = rng.normal(size=(2, 2))
        d = np.linalg.det(m)
    return m / math.sqrt(abs(d)) * (1.0 if d > 0 else 1.0), d

def random_sl2_strict(rng):
    while True:
        m = rng.normal(size=(2, 2))
        d = np.linalg.det(m)
        if d > 0.1:
            return m / math.sqrt(d)


def test_rho0_layout():
    m = np.array([[1.0, 2.0], [3.0, 7.0]])
    m /= math.sqrt(np.linalg.det(m))
    g = rho0(m)
    a, b = m[0]
    c, d = m[1]
    assert np.allclose(
        g, [[a, 0.0, b], [0.0, 1.0, 0.0], [c, 0.0, d]], atol=1e-15
    )
    assert np.allclose(rho0(np.eye(2)), np.eye(3))
    assert g.shape == (3, 3) and not g.flags.writeable
    for m in (2.0 * np.eye(2), np.full((2, 2), np.nan)):
        with pytest.raises(NotUnimodular), np.errstate(invalid="ignore"):
            rho0(m)


def test_rho0_morphism(rng):
    for _ in range(200):
        m1, m2 = random_sl2_strict(rng), random_sl2_strict(rng)
        assert np.allclose(
            rho0(m1 @ m2), rho0(m1) @ rho0(m2), atol=1e-12
        )


def test_phi_values():
    assert np.allclose(phi(0.0), np.eye(3))
    assert not phi(0.0).flags.writeable
    assert np.allclose(
        phi(3.0), np.diag([math.e, math.exp(-2.0), math.e]), atol=1e-14
    )


def test_phi_commutes_with_rho0(rng):
    for _ in range(200):
        t = float(rng.uniform(-2, 2))
        m = random_sl2_strict(rng)
        lhs = phi(t) @ rho0(m)
        rhs = rho0(m) @ phi(t)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_evaluate_canonical(seed2, canonical2):
    w = Word.parse("a1", 2)
    g = evaluate(canonical2, w)
    assert np.allclose(g, rho0(seed2.generators[0]))
    assert g.shape == (3, 3) and not g.flags.writeable


def test_linear_u_zero_is_canonical(seed2, canonical2):
    lin = reps.linear_u(seed2, u=(0.0,) * 4)
    for w, _ in list(enumerate_ball(seed2, 2)):
        assert np.allclose(
            evaluate(lin, w), evaluate(canonical2, w), atol=1e-12
        )


def test_radial_zero_shear_is_linear_u(seed2):
    u = generator_values({"a1": 0.2, "b1": -0.1}, "u", 2)
    lin = reps.linear_u(seed2, u=u)
    rad = reps.radial(seed2, u=u, mu=(0.0,) * 4, nu=(0.0,) * 4)
    for w, _ in list(enumerate_ball(seed2, 4))[::37]:
        assert np.abs(evaluate(rad, w) - evaluate(lin, w)).max() <= 1e-10


def test_evaluate_homomorphism(rng, seed2):
    u = generator_values({"a1": 0.15, "b2": 0.3}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    words = [w for w, _ in enumerate_ball(seed2, 3)]
    for _ in range(100):
        w1 = words[rng.integers(len(words))]
        w2 = words[rng.integers(len(words))]
        lhs = evaluate(spec, w1.concat(w2))
        rhs = evaluate(spec, w1) @ evaluate(spec, w2)
        # entries grow like e^t, so the bound is relative to the result size
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())


def test_evaluate_det_one(rng, seed2):
    u = generator_values({"a1": 0.15}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    words = [w for w, _ in enumerate_ball(seed2, 5)]
    for _ in range(50):
        w = words[rng.integers(len(words))]
        assert abs(np.linalg.det(evaluate(spec, w)) - 1.0) <= 1e-9


def test_linear_u_fixes_middle(seed2):
    u = generator_values({"a1": 0.2, "a2": -0.3}, "u", 2)
    spec = reps.linear_u(seed2, u=u)
    for w, _ in list(enumerate_ball(seed2, 3))[1:]:
        g = evaluate(spec, w)
        q = math.exp(-2.0 * sum(
            u[l // 2] * (-1 if l % 2 else 1) for l in w.letters
        ) / 3.0)
        assert np.abs(g[:, 1] - np.array([0.0, q, 0.0])).max() <= 1e-12
        assert np.abs(g[1, :] - np.array([0.0, q, 0.0])).max() <= 1e-12


def test_dual_of_product_is_product_of_duals(rng, seed2):
    spec = reps.canonical(seed2)
    letters = spec.letters
    duals = np.array([np.linalg.inv(l).T for l in letters])
    words = [w for w, _ in enumerate_ball(seed2, 4)]
    for _ in range(50):
        w = words[rng.integers(len(words))]
        g = evaluate(spec, w)
        ref = np.eye(3)
        for l in w.letters:
            ref = ref @ duals[l]
        assert np.abs(np.linalg.inv(g).T - ref).max() <= 1e-10 * max(
            1.0, np.abs(ref).max()
        )


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_structured_images_are_radial_with_zero_data(rng, genus):
    # canonical and linear_u images are radial generators with zero data,
    # bit for bit the block embedding and its composition with the flow.
    seed = standard_fuchsian(genus)
    can = reps.canonical(seed)
    for _ in range(5):
        u = tuple(rng.normal(scale=0.3, size=2 * genus))
        lin = reps.linear_u(seed, u=u)
        for k, (c, l) in enumerate(zip(can.generator_images(), lin.generator_images())):
            m = seed.generators[k]
            assert c.tobytes() == rho0(m).tobytes()
            assert l.tobytes() == (phi(u[k]) @ rho0(m)).tobytes()


def test_coboundary_trivial_is_identity_shear(seed2, u_a1):
    lin = reps.linear_u(seed2, u=u_a1)
    rad = coboundary_radial(lin, 0.0, 0.0)
    assert max(abs(x) for x in rad.shear[0] + rad.shear[1]) <= 1e-14


def test_coboundary_preserves_middle_column(seed2, u_a1):
    lin = reps.linear_u(seed2, u=u_a1)
    rad = coboundary_radial(lin, 0.2, -0.1)
    assert relator_residual(rad.letters) <= 1e-8
    for k, img in enumerate(rad.generator_images()):
        q = math.exp(-2.0 * u_a1[k] / 3.0)
        assert np.abs(img[:, 1] - np.array([0.0, q, 0.0])).max() <= 1e-12


def test_coboundary_preserves_spectra(seed2, u_a1):
    lin = reps.linear_u(seed2, u=u_a1)
    rad = coboundary_radial(lin, 0.2, -0.1)
    for a, b in zip(lin.generator_images(), rad.generator_images()):
        ea = np.sort(np.abs(np.linalg.eigvals(a)))
        eb = np.sort(np.abs(np.linalg.eigvals(b)))
        assert np.abs(ea - eb).max() <= 1e-10


def test_spec_json_round_trips(seed2, u_a1):
    lin = reps.linear_u(seed2, u=u_a1)
    rad = coboundary_radial(lin, 0.2, -0.1)
    explicit = reps.explicit(seed2, matrices=tuple(reps.canonical(seed2).generator_images()))
    for spec in (reps.canonical(seed2), lin, rad, explicit):
        back = spec_from_json_dict(spec_to_json_dict(spec))
        assert np.array_equal(back.letters, spec.letters)
        for fact in ("u", "shear", "fixed_line"):
            a, b = getattr(spec, fact), getattr(back, fact)
            assert (a is None) == (b is None) and (a is None or np.array_equal(a, b))
        for a, b in zip(spec.generator_images(), back.generator_images()):
            assert np.abs(a - b).max() <= 1e-12


def test_spec_json_coboundary_and_standard_seed(seed2, u_a1):
    d = {
        "variant": "radial",
        "seed": {"genus": 2},
        "u": {"a1": 0.3},
        "coboundary": {"m1": 0.2, "m2": -0.1},
    }
    spec = spec_from_json_dict(d)
    ref = coboundary_radial(reps.linear_u(seed2, u=u_a1), 0.2, -0.1)
    assert np.allclose(spec.shear[0], ref.shear[0], atol=1e-12)


def test_spec_json_errors(seed2):
    with pytest.raises(ValueError):
        spec_from_json_dict({"variant": "nope", "seed": {"genus": 2}})
    with pytest.raises(ValueError):
        spec_from_json_dict({"variant": "canonical"})
    with pytest.raises(ValueError):
        spec_from_json_dict({"variant": "radial", "seed": {"genus": 2}})
    with pytest.raises(ValueError):
        spec_from_json_dict({"variant": "explicit", "seed": {"genus": 2}})
    zeros = {name: [0.0] * 9 for name in ("a1", "b1", "a2", "b2")}
    with pytest.raises(ValueError, match="generator a1 is singular"):
        spec_from_json_dict({"variant": "explicit", "seed": {"genus": 2}, "matrices": zeros})


def test_explicit_requires_projective_relator(seed2, rng):
    mats = list(reps.canonical(seed2).generator_images())
    mats[0] = random_unimodular(rng)
    with pytest.raises(ValueError):
        reps.explicit(seed2, matrices=tuple(mats))


def test_nan_relator_residual_is_rejected(seed2):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="residual nan"):
        reps.explicit(seed2, matrices=(np.full((3, 3), np.nan),) * 4)


def test_phi_conjugate_rejects_non_radial(seed2):
    with pytest.raises(UnsupportedSpec):
        coboundary_radial(reps.canonical(seed2), 0.1, 0.1)


def test_spec_facts_must_agree_with_letters(seed2, u_a1):
    canon, lin = reps.canonical(seed2), reps.linear_u(seed2, u=u_a1)
    gens = tuple(lin.generator_images())
    # Each fact a constructor states holds, so an explicit spec may state it.
    assert reps.explicit(seed2, gens, u=lin.u, shear=lin.shear).u == lin.u
    wrong = [
        (canon, {"u": u_a1}),
        (lin, {"shear": ((0.1, 0.0, 0.0, 0.0), (0.0,) * 4)}),
        (coboundary_radial(lin, 0.2, -0.1), {"fixed_line": reps.E2}),
        (canon, {"fixed_line": np.array([1.0, 0.0, 0.0])}),
    ]
    for spec, facts in wrong:
        with pytest.raises(ValueError, match="disagrees with its generator images"):
            dataclasses.replace(spec, **facts)
    with pytest.raises(ValueError, match="must state its u"):
        reps.explicit(seed2, gens, shear=lin.shear)
    with pytest.raises(ValueError, match="read-only"):
        reps.RepSpec(seed2, np.array(canon.letters))
