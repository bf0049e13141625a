import math

import numpy as np
import pytest

from shapeinv.errors import DomainError, SingularConfigurationError
from shapeinv.models import (
    check_pair_condition,
    make_nbody_model,
    make_pair_prepotential,
    make_prepotential_1d,
    model_from_config,
    model_to_config,
    remainder_1d,
    remainder_nominal,
    remainder_shift,
)


# ---------------------------------------------------------------------------
# 1-D families
# ---------------------------------------------------------------------------

def test_rosen_morse_w_at_half_period():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    assert abs(prep.w(math.pi / 2)) < 1e-15  # cot(pi/2) = 0


def test_rosen_morse_parameter_map():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    assert prep.next_params() == (3.0, 1.0)
    assert prep.step().family == "rosen_morse_trig"


def test_rational_harmonic_value():
    prep = make_prepotential_1d("rational_harmonic", (1.0, 2.0))
    assert prep.w(1.0) == pytest.approx(3.0, abs=1e-15)


def test_remainder_values():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    assert remainder_1d(prep, (3.0, 1.0)) == pytest.approx(5.0)
    box = make_prepotential_1d("rosen_morse_trig", (1.0, 1.0))
    assert remainder_1d(box, (2.0, 1.0)) == pytest.approx(3.0)


def test_remainder_degenerate_map():
    prep = make_prepotential_1d("rosen_morse_trig", (0.5, 0.0))
    assert prep.degenerate
    assert remainder_1d(prep, (0.5, 0.0)) == 0.0
    with pytest.raises(DomainError):
        prep.w(0.3)  # no evaluable W in the degenerate limit


def test_rejects_bad_params():
    with pytest.raises(DomainError):
        make_prepotential_1d("rosen_morse_trig", (2.0, -1.0))
    with pytest.raises(DomainError):
        make_prepotential_1d("nope", (1.0,))
    with pytest.raises(DomainError):
        remainder_1d(make_prepotential_1d("rosen_morse_trig", (2.0, 1.0)), (4.0, 1.0))


@pytest.mark.parametrize("family,params", [
    ("rosen_morse_trig", (2.0, 1.0)),
    ("rational_harmonic", (1.3, 0.7)),
    ("sign", (0.8,)),
    ("coth_hyperbolic", (1.1,)),
])
def test_w_is_odd(family, params):
    prep = make_prepotential_1d(family, params)
    x = np.array([0.21, 0.5, 0.93, 1.4])
    assert np.allclose(prep.w(-x), -prep.w(x), atol=1e-14)


@pytest.mark.parametrize("family,params", [
    ("rosen_morse_trig", (2.0, 1.0)),
    ("rational_harmonic", (1.3, 0.7)),
    ("coth_hyperbolic", (1.1,)),
])
def test_w_prime_matches_finite_difference(family, params):
    prep = make_prepotential_1d(family, params)
    x = np.array([0.3, 0.7, 1.2])
    h = 1e-6
    fd = (prep.w(x + h) - prep.w(x - h)) / (2 * h)
    assert np.allclose(fd, prep.w_prime(x), rtol=1e-7, atol=1e-7)


def test_parameter_map_accumulates_exactly():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 0.5))
    current = prep
    for n in range(1, 11):
        current = current.step()
        assert current.family == "rosen_morse_trig"
        assert current.params[0] == pytest.approx(2.0 + 0.5 * n, abs=0)
        assert current.params[1] == 0.5


# ---------------------------------------------------------------------------
# N-body models
# ---------------------------------------------------------------------------

def test_coupling_constant():
    assert make_nbody_model("calogero", 3, 2.0).g == pytest.approx(4.0)


def test_cs_constants():
    assert make_nbody_model("calogero_sutherland", 3, 1.0).c == pytest.approx(-8.0)
    assert make_nbody_model("calogero_sutherland", 2, 1.0).g == 0.0


def test_model_validation():
    with pytest.raises(DomainError):
        make_nbody_model("calogero", 1, 1.0)
    with pytest.raises(DomainError):
        make_nbody_model("harmonic_calogero", 2, 1.0)  # omega missing
    with pytest.raises(DomainError):
        make_nbody_model("calogero", 2, 1.0, omega=1.0)


def test_harmonic_beta_default_and_override():
    m = make_nbody_model("harmonic_calogero", 4, 1.0, omega=2.0)
    assert m.beta == pytest.approx(2.0 / (2 * math.sqrt(4)))
    m2 = make_nbody_model("harmonic_calogero", 4, 1.0, omega=2.0, beta=0.9)
    assert m2.beta == 0.9


def test_prepotential_values_calogero():
    m = make_nbody_model("calogero", 2, 1.0)
    assert np.allclose(m.prepotential([0.0, 1.0]), [1.0, -1.0])


def test_prepotential_equal_spacing_cs():
    m = make_nbody_model("calogero_sutherland", 3, 1.0)
    w = m.prepotential([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    assert np.allclose(w, 0.0, atol=1e-13)


def test_prepotential_harmonic():
    m = make_nbody_model("harmonic_calogero", 2, 1.0, omega=1.0)
    w = m.prepotential([0.0, 1.0])
    assert np.allclose(w, [1.0 - m.beta, -1.0 + m.beta])


def test_singular_configuration_rejected():
    m = make_nbody_model("calogero", 3, 1.0)
    with pytest.raises(SingularConfigurationError):
        m.prepotential([0.0, 1e-8, 1.0])
    cs = make_nbody_model("calogero_sutherland", 2, 1.0)
    with pytest.raises(SingularConfigurationError):
        cs.prepotential([0.1, 0.1 + math.pi])  # singular mod pi
    batch = np.array([[0.0, 0.5, 1.0], [0.0, 1e-8, 1.0], [0.2, 0.9, 1.7]])
    with pytest.raises(SingularConfigurationError):
        m.prepotential(batch)  # one singular row rejects the batch


@pytest.mark.parametrize("kind", ["calogero", "harmonic_calogero",
                                  "calogero_sutherland"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_batch_evaluation_matches_pointwise(kind, n):
    omega = 1.3 if kind == "harmonic_calogero" else None
    m = make_nbody_model(kind, n, 1.7, omega=omega)
    xs = np.sort(np.random.default_rng(n).uniform(0.05, 3.0, (60, n)), axis=1)
    xs = xs[np.min(np.diff(xs, axis=1), axis=1) > 0.05]
    for name in ("potential", "pair_potential", "prepotential", "prepotential_jacobian",
                 "separation_margin"):
        batch = getattr(m, name)(xs)
        rows = np.array([getattr(m, name)(x) for x in xs])
        assert batch.shape == rows.shape
        assert np.max(np.abs(batch - rows)) <= 1e-14 * max(1.0, np.max(np.abs(rows)))


@pytest.mark.parametrize("kind,alpha", [("calogero", 1.5),
                                        ("calogero_sutherland", 2.0),
                                        ("harmonic_calogero", 1.0)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_prepotential_sum_and_curl(kind, alpha, n):
    omega = 1.0 if kind == "harmonic_calogero" else None
    m = make_nbody_model(kind, n, alpha, omega=omega)
    rng = np.random.default_rng(42 + n)
    for _ in range(20):
        if kind == "calogero_sutherland":
            x = np.sort(rng.uniform(0.1, 2.9, n))
            if np.min(np.diff(x)) < 0.05:
                continue
        else:
            x = rng.uniform(-2, 2, n)
            if np.min(np.abs(x[:, None] - x[None, :]) + np.eye(n)) < 0.05:
                continue
        w = m.prepotential(x)
        assert abs(w.sum()) <= 1e-12 * max(1.0, np.max(np.abs(w)))
        jac = m.prepotential_jacobian(x)
        assert np.max(np.abs(jac - jac.T)) <= 1e-12 * max(1.0, np.max(np.abs(jac)))


def test_jacobian_matches_finite_difference():
    m = make_nbody_model("calogero_sutherland", 3, 1.5)
    x = np.array([0.3, 1.1, 2.0])
    jac = m.prepotential_jacobian(x)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (m.prepotential(x + e) - m.prepotential(x - e)) / (2 * h)
        assert np.allclose(fd, jac[i, :], rtol=1e-6, atol=1e-6)


def test_remainder_shift_values():
    assert remainder_shift(make_nbody_model("calogero", 4, 2.0)) == 0.0
    cs = make_nbody_model("calogero_sutherland", 3, 1.0)
    assert remainder_shift(cs) == pytest.approx(24.0)
    cs2 = make_nbody_model("calogero_sutherland", 2, 1.0)
    assert remainder_shift(cs2) == pytest.approx(6.0)
    h = make_nbody_model("harmonic_calogero", 2, 1.0, omega=1.0)
    # the measured shift is beta N (N-1) (N+2); the nominal closed form differs
    assert remainder_shift(h) == pytest.approx(8 * h.beta, rel=1e-10)
    assert remainder_nominal(h) == pytest.approx(2.0)
    # partner potential minus shifted ladder potential is that constant
    x = np.array([-0.7, 0.4])
    rho = h.ladder_potential(x, partner=True) - h.shifted(1.0).ladder_potential(x)
    assert rho == pytest.approx(remainder_shift(h), rel=1e-12)


# ---------------------------------------------------------------------------
# pair rows and the balance condition
# ---------------------------------------------------------------------------

ROWS = [
    ("rational_harmonic", (1.0, 2.0)),
    ("sign", (0.8,)),
    ("cot", (0.9,)),
    ("coth", (1.2,)),
]


@pytest.mark.parametrize("family,params", ROWS)
def test_v0_is_w_squared_minus_w_prime(family, params):
    pair = make_pair_prepotential(family, *params)
    x = np.array([0.31, 0.57, 0.92, 1.27])
    direct = pair.w(x) ** 2 - pair.w_prime(x)
    assert np.max(np.abs(pair.v0(x) - direct)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


@pytest.mark.parametrize("family,params", ROWS)
def test_psi0_solves_first_order_equation(family, params):
    # d/dx log psi0 = -W away from singular points
    pair = make_pair_prepotential(family, *params)
    x = np.array([0.4, 0.8, 1.1])
    h = 1e-6
    fd = (pair.log_psi0(x + h) - pair.log_psi0(x - h)) / (2 * h)
    assert np.allclose(fd, -pair.w(x), rtol=1e-6, atol=1e-6)


def test_pair_condition_cot_example():
    pair = make_pair_prepotential("cot", 0.9)
    assert pair.condition_residual(0.4, 0.7) < 1e-10


def test_pair_condition_rational_example():
    pair = make_pair_prepotential("rational_harmonic", 1.0, 2.0)
    assert pair.condition_residual(0.3, -1.1) < 1e-10


def test_pair_condition_detects_violation():
    # replacing the companion with zero leaves a constant a^2 mismatch
    pair = make_pair_prepotential("cot", 0.9)
    res = pair.condition_residual(0.4, 0.7, vtilde_override=lambda x: 0.0 * x)
    assert res == pytest.approx(0.81, rel=1e-10)


@pytest.mark.parametrize("family,params", ROWS)
def test_pair_condition_sampled(family, params):
    pair = make_pair_prepotential(family, *params)
    stats = check_pair_condition(pair, samples=500, seed=5)
    assert stats.max_residual < 1e-10
    assert stats.mean_residual <= stats.max_residual


def test_sign_row_delta_note():
    pair = make_pair_prepotential("sign", 0.8)
    assert pair.v0_delta_note is not None
    assert "delta" in pair.v0_delta_note


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

def test_config_round_trip():
    m = make_nbody_model("harmonic_calogero", 3, 1.5, omega=2.0, beta=0.4,
                         eps_sing=1e-5)
    m2 = model_from_config(model_to_config(m))
    assert m2 == m


def test_config_rejects_unknown_key():
    with pytest.raises(DomainError):
        model_from_config("kind = calogero\nn = 2\nalpha = 1\nwhat = 3\n")


def test_config_requires_core_keys():
    with pytest.raises(DomainError):
        model_from_config("kind = calogero\n")
