import dataclasses
import math

import numpy as np
import pytest

from shapeinv.errors import DomainError, SingularConfigurationError
from shapeinv.models import (
    FAMILIES,
    FAMILIES_1D,
    NBODY_KINDS,
    PAIR_ROWS,
    make_nbody_model,
    make_pair_prepotential,
    make_prepotential_1d,
    remainder_shift,
)
from shapeinv.spectral import relative_prepotential


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
    assert prep.remainder_next() == pytest.approx(5.0)
    box = make_prepotential_1d("rosen_morse_trig", (1.0, 1.0))
    assert box.remainder_next() == pytest.approx(3.0)


def test_remainder_degenerate_map():
    prep = make_prepotential_1d("rosen_morse_trig", (0.5, 0.0))
    assert prep.next_params() == (0.5, 0.0)
    assert prep.remainder_next() == 0.0
    with pytest.raises(DomainError):
        prep.w(0.3)  # no evaluable W in the degenerate limit


def test_rejects_bad_params():
    with pytest.raises(DomainError):
        make_prepotential_1d("rosen_morse_trig", (2.0, -1.0))
    with pytest.raises(DomainError):
        make_prepotential_1d("nope", (1.0,))


# one admissible parameter set per row of the family table, in table order
SAMPLE_PARAMS = {"rosen_morse_trig": (2.0, 1.0), "rational_harmonic": (1.3, 0.7),
                 "sign": (0.8,), "coth_hyperbolic": (1.1,)}
FAMILY_SAMPLES = [(family, SAMPLE_PARAMS[family]) for family in FAMILIES_1D]


@pytest.mark.parametrize("family,params", FAMILY_SAMPLES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_family_parameters_rejected(family, params, value):
    # nan < 0 is False, so the sign check alone lets NaN through
    for index, name in enumerate(FAMILIES[family].params):
        bad = params[:index] + (value,) + params[index + 1:]
        with pytest.raises(DomainError, match=f"{name} must be finite, got {value}"):
            make_prepotential_1d(family, bad)


@pytest.mark.parametrize("family,params", FAMILY_SAMPLES)
def test_w_is_odd(family, params):
    prep = make_prepotential_1d(family, params)
    x = np.array([0.21, 0.5, 0.93, 1.4])
    assert np.allclose(prep.w(-x), -prep.w(x), atol=1e-14)


@pytest.mark.parametrize("family,params", FAMILY_SAMPLES)
def test_w_prime_matches_finite_difference(family, params):
    prep = make_prepotential_1d(family, params)
    x = np.array([0.3, 0.7, 1.2])
    h = 1e-6
    fd = (prep.w(x + h) - prep.w(x - h)) / (2 * h)
    assert np.allclose(fd, prep.w_prime(x), rtol=1e-7, atol=1e-7)


def test_degenerate_trig_has_no_normalizability():
    # the constructor accepts a = 0; every evaluation of the ground state
    # then reports the missing W instead of dividing by a
    prep = make_prepotential_1d("rosen_morse_trig", (0.5, 0.0))
    for evaluate in (prep.ground_state_normalizable, lambda: prep.w(0.3),
                     lambda: prep.log_ground_state(0.3)):
        with pytest.raises(DomainError, match="no evaluable W"):
            evaluate()


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


@pytest.mark.parametrize("n", [3.9, np.float64(4.5), 3.0, True])
def test_particle_count_must_be_an_integer(n):
    # int(n) would truncate a float count silently; a bool is not a count
    with pytest.raises(DomainError, match="particle count must be an integer"):
        make_nbody_model("calogero", n, 1.0)
    assert make_nbody_model("calogero", np.int64(3), 1.0).n == 3


def test_harmonic_beta_default_and_override():
    m = make_nbody_model("harmonic_calogero", 4, 1.0, omega=2.0)
    assert m.beta == pytest.approx(2.0 / (2 * math.sqrt(4)))
    m2 = make_nbody_model("harmonic_calogero", 4, 1.0, omega=2.0, beta=0.9)
    assert m2.beta == 0.9


@pytest.mark.parametrize("kind", ["calogero", "calogero_sutherland"])
def test_beta_rejected_by_kinds_without_omega(kind):
    # without omega there is no beta; a report config must not record one
    with pytest.raises(DomainError, match="does not take beta"):
        make_nbody_model(kind, 3, 1.5, beta=0.3)


@pytest.mark.parametrize("param", ["alpha", "omega", "beta", "eps_sing"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(param, value):
    # nan <= 0 is False, so a sign check alone lets NaN through
    kwargs = {"alpha": 1.5, "omega": 1.0, "beta": None, "eps_sing": 1e-6, param: value}
    with pytest.raises(DomainError, match=f"{param} must be finite"):
        make_nbody_model("harmonic_calogero", 3, **kwargs)
    if param != "omega":
        kwargs["omega"] = None
        with pytest.raises(DomainError, match=f"{param} must be finite"):
            make_nbody_model("calogero_sutherland", 3, **kwargs)


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


@pytest.mark.parametrize("kind", ["calogero", "harmonic_calogero",
                                  "calogero_sutherland"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_ladder_potential_batch_matches_rows(kind, n):
    # one value per configuration, not the sum over the batch
    omega = 1.3 if kind == "harmonic_calogero" else None
    m = make_nbody_model(kind, n, 1.7, omega=omega)
    xs = np.sort(np.random.default_rng(n).uniform(0.05, 3.0, (60, n)), axis=1)
    xs = xs[np.min(np.diff(xs, axis=1), axis=1) > 0.05]
    for partner in (False, True):
        batch = m.ladder_potential(xs, partner=partner)
        rows = np.array([m.ladder_potential(x, partner=partner) for x in xs])
        assert batch.shape == (len(xs),)
        assert np.array_equal(batch, rows)


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


@pytest.mark.parametrize("kind", NBODY_KINDS)
def test_pair_functions_are_the_reduced_family(kind):
    # the kind map is shared: the N-body pair functions and the relative
    # problem of the two-body reduction evaluate the same 1-D family
    omega = 1.3 if kind == "harmonic_calogero" else None
    m = make_nbody_model(kind, 2, 1.7, omega=omega)
    prep = relative_prepotential(m)
    r = np.array([-2.1, -0.9, -0.25, 0.3, 0.8, 1.9, 2.6])
    assert np.array_equal(m.pair_w(r), prep.w(r))
    assert np.array_equal(m.pair_w_prime(r), prep.w_prime(r))
    assert np.array_equal(m.pair_log_jastrow(r), prep.log_ground_state(r))


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
    # the shift is beta N (N-1) (N+2)
    assert remainder_shift(h) == pytest.approx(8 * h.beta, rel=1e-10)
    # partner potential minus shifted ladder potential is that constant
    x = np.array([-0.7, 0.4])
    rho = h.ladder_potential(x, partner=True) - h.shifted(1.0).ladder_potential(x)
    assert rho == pytest.approx(remainder_shift(h), rel=1e-12)


HARMONIC_OMEGA = 1.3


def _harmonic_beta(label, n):
    """None (the default omega / (2 sqrt N)), the textbook omega / sqrt(2N),
    or a value unrelated to omega."""
    return {"default": None, "textbook": HARMONIC_OMEGA / math.sqrt(2 * n),
            "free": 0.7}[label]


@pytest.mark.parametrize("beta", ["default", "textbook", "free"])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_harmonic_closed_forms_follow_beta(n, alpha, beta):
    # c and R are closed forms in beta; the partner-minus-shifted difference
    # is the probe that once measured R, kept here as its reference
    m = make_nbody_model("harmonic_calogero", n, alpha, omega=HARMONIC_OMEGA,
                         beta=_harmonic_beta(beta, n))
    rng = np.random.default_rng(100 * n + int(10 * alpha))
    xs = rng.uniform(-2.0, 2.0, (40, n))
    xs = xs[m.separation_margin(xs) > 0.05]
    ladder = m.ladder_potential(xs)
    scale = max(1.0, np.max(np.abs(ladder)))
    assert np.max(np.abs(ladder - m.pair_potential(xs) - m.c)) <= 1e-12 * scale
    partner = m.ladder_potential(xs, partner=True)
    probe = partner - m.shifted(1.0).ladder_potential(xs)
    scale = max(1.0, np.max(np.abs(partner)))
    assert np.max(np.abs(probe - remainder_shift(m))) <= 1e-12 * scale
    if beta == "textbook":
        d = xs[:, :, None] - xs[:, None, :]
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        textbook = (HARMONIC_OMEGA ** 2 / 4 * 2 * np.sum(d[:, upper] ** 2, axis=1)
                    + m.g * np.sum(d[:, upper] ** -2.0, axis=1))
        assert np.allclose(m.pair_potential(xs), textbook, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# pair rows and the balance condition
# ---------------------------------------------------------------------------

ROWS = [
    ("rational_harmonic", (1.0, 2.0)),
    ("sign", (0.8,)),
    ("cot", (0.9,)),
    ("coth", (1.2,)),
]
# (half-width of the draws of A and B, singular period of W or None)
DRAW_WINDOWS = {"cot": (1.4, math.pi)}


def sample_pair_condition(pair, samples, seed, eps_sing=1e-3):
    """The balance condition's residual at `samples` random (A, B), C = -A - B,
    each from (-half, half) of the row's draw window.  Draws near a singular
    argument are drawn again; a row with a singular period also keeps |C|
    below it.  Returns (max, mean)."""
    rng = np.random.default_rng(seed)
    half, period = DRAW_WINDOWS.get(pair.family, (2.0, None))
    residuals = np.empty(samples)
    filled = 0
    while filled < samples:
        a = rng.uniform(-half, half, size=samples - filled)
        b = rng.uniform(-half, half, size=samples - filled)
        c = -a - b
        ok = (np.abs(a) > eps_sing) & (np.abs(b) > eps_sing) & (np.abs(c) > eps_sing)
        if period is not None:
            ok &= np.abs(c) < period - eps_sing
        a, b = a[ok], b[ok]
        if a.size:
            residuals[filled:filled + a.size] = pair.condition_residual(a, b)
            filled += a.size
    return float(residuals.max()), float(residuals.mean())


@pytest.mark.parametrize("family,params", ROWS)
def test_v0_is_w_squared_minus_w_prime(family, params):
    pair = make_pair_prepotential(family, *params)
    x = np.array([0.31, 0.57, 0.92, 1.27])
    direct = pair.prep.w(x) ** 2 - pair.prep.w_prime(x)
    assert np.max(np.abs(pair.v0(x) - direct)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


@pytest.mark.parametrize("family,params", ROWS)
def test_psi0_solves_first_order_equation(family, params):
    # d/dx log psi0 = -W away from singular points
    pair = make_pair_prepotential(family, *params)
    x = np.array([0.4, 0.8, 1.1])
    h = 1e-6
    fd = (pair.prep.log_ground_state(x + h) - pair.prep.log_ground_state(x - h)) / (2 * h)
    assert np.allclose(fd, -pair.prep.w(x), rtol=1e-6, atol=1e-6)


def test_pair_condition_cot_example():
    pair = make_pair_prepotential("cot", 0.9)
    assert pair.condition_residual(0.4, 0.7) < 1e-10


def test_pair_condition_rational_example():
    pair = make_pair_prepotential("rational_harmonic", 1.0, 2.0)
    assert pair.condition_residual(0.3, -1.1) < 1e-10


def test_pair_condition_detects_violation(monkeypatch):
    # replacing the companion with zero leaves a constant a^2 mismatch
    row = PAIR_ROWS["cot"]
    monkeypatch.setitem(PAIR_ROWS, "cot", dataclasses.replace(
        row, vtilde0=lambda x, a: 0.0 * x))
    pair = make_pair_prepotential("cot", 0.9)
    assert pair.condition_residual(0.4, 0.7) == pytest.approx(0.81, rel=1e-10)


@pytest.mark.parametrize("family,params", ROWS)
def test_pair_condition_sampled(family, params):
    pair = make_pair_prepotential(family, *params)
    worst, mean = sample_pair_condition(pair, samples=500, seed=5)
    assert worst < 1e-10
    assert mean <= worst


@pytest.mark.parametrize("family,params", ROWS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_pair_parameters_rejected(family, params, value):
    for index, name in enumerate(PAIR_ROWS[family].names):
        bad = params[:index] + (value,) + params[index + 1:]
        with pytest.raises(DomainError, match=f"{name} must be finite, got {value}"):
            make_pair_prepotential(family, *bad)


def test_sign_row_delta_note():
    pair = make_pair_prepotential("sign", 0.8)
    assert pair.row.v0_delta_note is not None
    assert "delta" in pair.row.v0_delta_note

