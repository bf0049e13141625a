import inspect
import math

import numpy as np
import pytest

from shapeinv import calculus as calc
from shapeinv.errors import DomainError, JetOrderError
from shapeinv.models import NBodyModel, make_nbody_model


def _cs(n=2, alpha=1.0):
    return make_nbody_model("calogero_sutherland", n, alpha)


def _cal(n=2, alpha=1.0):
    return make_nbody_model("calogero", n, alpha)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_arithmetic_against_closed_form():
    # f = (x0 + 2 x1)^2 * exp(x0): value/grad/hess at a point
    f = calc.TestFunction(2, lambda c: (c[0] + 2.0 * c[1]).pow_int(2) * c[0].exp())
    x = np.array([0.3, -0.2])
    jet = f.jet(x)
    u = x[0] + 2 * x[1]
    e = math.exp(x[0])
    assert jet.v == pytest.approx(u * u * e)
    assert jet.g[0] == pytest.approx((2 * u + u * u) * e)
    assert jet.g[1] == pytest.approx(4 * u * e)
    assert jet.h[0, 1] == pytest.approx((4 + 4 * u) * e)
    assert jet.h[1, 1] == pytest.approx(8 * e)


@pytest.mark.parametrize("kind", ["calogero", "calogero_sutherland"],
                         ids=["gaussian_polynomial", "periodic_product"])
def test_gradient_consistency_order(kind):
    # |f(x + h e_i) - f(x) - h d_i f| must shrink at measured order >= 1.9
    rng = np.random.default_rng(3)
    n = 3
    f = calc.random_test_function(make_nbody_model(kind, n, 1.0), rng)
    x = rng.uniform(0.2, 1.2, n)
    jet = f.jet(x)
    for i in range(n):
        errs = []
        for h in (1e-3, 5e-4):
            e = np.zeros(n)
            e[i] = h
            errs.append(abs(f(x + e) - jet.v - h * jet.g[i]))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order > 1.9


def test_hessian_consistency():
    rng = np.random.default_rng(4)
    f = calc.random_test_function(_cal(2), rng)
    x = np.array([0.1, -0.4])
    jet = f.jet(x)
    h = 1e-4
    fd = (f(x + [h, 0]) - 2 * f(x) + f(x - [h, 0])) / h ** 2
    assert fd == pytest.approx(jet.h[0, 0], rel=1e-5, abs=1e-5)
    fd01 = (f(x + [h, h]) - f(x + [h, -h]) - f(x + [-h, h]) + f(x - [h, h])) / (4 * h * h)
    assert fd01 == pytest.approx(jet.h[0, 1], rel=1e-5, abs=1e-5)


def test_abs_pow_jet():
    f = calc.TestFunction(1, lambda c: c[0].abs_pow(1.5))
    jet = f.jet(np.array([-0.7]))
    assert jet.v == pytest.approx(0.7 ** 1.5)
    assert jet.g[0] == pytest.approx(-1.5 * 0.7 ** 0.5)
    with pytest.raises(DomainError):
        f.jet(np.array([0.0]))


def test_stacked_pow_int_matches_python_pow():
    # numpy's array ** is not Python's float ** int: at u = 0.9027556576068978
    # the array cube is one ulp above Python's.  pow_int goes through
    # np.float_power, so each row of a stacked jet equals its own scalar jet.
    u = np.array([0.9027556576068978, -1.3, 2.652678663038987])
    f = calc.TestFunction(1, lambda c: c[0].pow_int(3))
    stacked = f.jet(u[:, None])
    assert stacked.v.shape == (3,) and stacked.h.shape == (3, 1, 1)
    for t, ut in enumerate(u):
        scalar = f.jet([ut])
        assert stacked.v[t] == scalar.v == float(ut) ** 3
        assert np.array_equal(stacked.g[t], scalar.g)
        assert np.array_equal(stacked.h[t], scalar.h)


def test_stacked_jet_shapes_and_cache():
    f = calc.TestFunction(2, lambda c: c[0] * np.array([2.0, 3.0]))
    x = np.array([[0.5, 1.0], [0.25, 1.0]])
    jet = f.jet(x)
    assert np.array_equal(jet.v, [1.0, 0.75])
    assert np.array_equal(jet.g, [[2.0, 0.0], [3.0, 0.0]])
    assert jet.h.shape == (2, 2, 2) and jet.n == 2
    g = calc.TestFunction(2, lambda c: c[1].exp())
    assert isinstance(g.jet(x[0]).v, float)
    assert g.jet(x[:1]).v.shape == (1,)  # same bytes, new shape: no stale cache
    with pytest.raises(DomainError):
        g.jet(x[None])
    with pytest.raises(DomainError):
        calc.TestFunction(2, lambda c: c[0].abs_pow(1.5)).jet(
            np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_array_times_stacked_jet_is_the_jet_times_the_array():
    # the families multiply stacked jets by per-trial constants from the left
    x = np.array([[0.5, 1.0], [0.25, -1.0], [1.5, 0.3]])
    jet = calc.TestFunction(2, lambda c: (c[0] * c[1]).sin()).jet(x)
    c = np.array([2.0, -3.0, 0.7])
    left, right = c * jet, jet * c
    assert isinstance(left, calc.Jet2)
    for a, b in ((left.v, right.v), (left.g, right.g), (left.h, right.h)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# ladder actions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,omega", [("calogero", None), ("calogero_sutherland", None),
                                        ("harmonic_calogero", 1.3)])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_model_data_one_check_bit_identical(kind, omega, n, monkeypatch):
    model = make_nbody_model(kind, n, 1.5, omega=omega)
    x = np.sort(np.random.default_rng(n).uniform(0.1, 3.0, n))
    w_ref, j_ref = model.prepotential(x), model.prepotential_jacobian(x)
    calls = {"check_configuration": 0, "_diff": 0}
    for name in calls:
        original = getattr(NBodyModel, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(NBodyModel, name, counted)
    _, w, j = calc._model_data(model, x)
    assert calls == {"check_configuration": 1, "_diff": 1}
    assert w.dtype == w_ref.dtype and w.tobytes() == w_ref.tobytes()
    assert j.dtype == j_ref.dtype and j.tobytes() == j_ref.tobytes()


def test_annihilator_kills_jastrow():
    model = _cal(2, 1.0)
    phi = calc.jastrow_function(model)
    for x in ([0.0, 1.0], [-1.3, 0.4]):
        for i in range(2):
            assert abs(calc.apply_annihilator(model, i, phi, x).value) < 1e-13


def test_annihilator_on_constant():
    model = _cal(2, 1.0)
    one = calc.constant(1.0, 2)
    j = calc.apply_annihilator(model, 0, one, [0.0, 1.0])
    assert j.value == pytest.approx(1.0)  # W_1 at this configuration


def test_annihilator_direct_substitution_cs():
    # f = x1 + x2 at x = (0.2, 1.0): the gradient term is 1 and the
    # prepotential term is -alpha cot(x_i - x_j) f; cross-checked with a
    # finite difference of the full expression below
    model = _cs(2, 1.0)
    f = calc.TestFunction(2, lambda c: c[0] + c[1])
    x = np.array([0.2, 1.0])
    got = calc.apply_annihilator(model, 0, f, x).value
    assert got == pytest.approx(1.0 + 1.2 / math.tan(0.8), rel=1e-12)
    got2 = calc.apply_annihilator(model, 1, f, x).value
    assert got2 == pytest.approx(1.0 - 1.2 / math.tan(0.8), rel=1e-12)
    # finite-difference oracle for (A_0 f)(x) = d_0 f + W_0 f
    h = 1e-6
    w0 = model.prepotential(x)[0]
    fd = (f(x + [h, 0]) - f(x - [h, 0])) / (2 * h) + w0 * f(x)
    assert got == pytest.approx(fd, rel=1e-8)


def test_creator_on_constant_cs():
    model = _cs(2, 2.0)
    one = calc.constant(1.0, 2)
    j = calc.apply_creator(model, 0, one, [0.0, 0.9])
    assert j.value == pytest.approx(2.0 / math.tan(0.9), rel=1e-12)


def test_creator_annihilator_chain_on_jastrow():
    model = _cal(3, 2.0)
    phi = calc.jastrow_function(model)
    x = np.array([-1.0, 0.2, 1.4])
    for i in range(3):
        first = calc.apply_annihilator(model, i, phi, x)
        assert abs(calc.apply_to_jet1(model, "adag", i, first, x)) < 1e-10


def test_jet_order_enforced():
    model = _cal(2, 1.0)
    with pytest.raises(JetOrderError):
        calc.apply_to_jet1(model, "a", 0, "not a jet", [0.0, 1.0])


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def test_free_cs_plane_wave():
    # g = 0 at alpha = 1: H acts on cos(k(x1+x2)) as multiplication by
    # 2k^2 + c with c = -2
    model = _cs(2, 1.0)
    k = 0.7
    f = calc.TestFunction(2, lambda c: (k * (c[0] + c[1])).cos())
    x = np.array([0.4, 1.5])
    expected = (2 * k * k + model.c) * f(x)
    assert calc.apply_hamiltonian_direct(model, f, x) == pytest.approx(expected)


def test_hamiltonian_annihilates_jastrow():
    model = _cal(2, 2.0)
    phi = calc.jastrow_function(model)
    x = np.array([-0.3, 0.8])
    assert abs(calc.apply_hamiltonian_direct(model, phi, x)) < 1e-10


def test_potential_on_constant():
    model = _cal(2, 2.0)
    one = calc.constant(1.0, 2)
    assert calc.apply_hamiltonian_direct(model, one, [0.0, 1.0]) == pytest.approx(4.0)


def test_direct_equals_factorized():
    rng = np.random.default_rng(11)
    for model in (_cal(3, 1.5), _cs(3, 2.0)):
        for _ in range(25):
            if model.kind == "calogero_sutherland":
                x = np.sort(rng.uniform(0.1, 2.9, 3))
            else:
                x = np.sort(rng.uniform(-2, 2, 3))
            if np.min(np.diff(x)) < 0.08:
                continue
            f = calc.random_test_function(model, rng)
            lhs = calc.apply_hamiltonian_direct(model, f, x)
            rhs = calc.apply_hamiltonian_factorized(model, f, x)
            assert abs(lhs - rhs) <= 1e-8 * calc.residual_scale(model, f, x)


def test_partner_shift_cs():
    model = _cs(2, 1.0)
    rng = np.random.default_rng(12)
    shifted = model.shifted(1.0)
    f = calc.random_test_function(model, rng)
    x = np.array([0.3, 1.4])
    lhs = calc.apply_partner(model, f, x)
    rhs = calc.apply_hamiltonian_factorized(shifted, f, x) + 6.0 * f(x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_partner_equals_direct_at_raised_coupling_calogero():
    model = _cal(3, 2.0)
    rng = np.random.default_rng(13)
    f = calc.random_test_function(model, rng)
    x = np.array([-1.1, 0.1, 1.3])
    lhs = calc.apply_partner(model, f, x)
    rhs = calc.apply_hamiltonian_direct(model.shifted(1.0), f, x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_partner_on_shifted_jastrow():
    model = _cs(2, 1.0)
    phi = calc.jastrow_function(model.shifted(1.0))
    x = np.array([0.5, 1.6])
    assert calc.apply_partner(model, phi, x) == pytest.approx(6.0 * phi(x), rel=1e-10)


# ---------------------------------------------------------------------------
# momentum and recombined basis
# ---------------------------------------------------------------------------

def test_total_momentum_linear():
    model = _cal(3, 1.0)
    f = calc.TestFunction(3, lambda c: c[0] + c[1] + c[2])
    assert calc.total_momentum(model, f, [-1.0, 0.0, 1.2]) == pytest.approx(3.0)


def test_total_momentum_constant():
    model = _cal(2, 1.0)
    one = calc.constant(1.0, 2)
    assert calc.total_momentum(model, one, [0.0, 1.0]) == pytest.approx(0.0)


def test_total_momentum_sine():
    model = _cs(2, 1.0)
    f = calc.TestFunction(2, lambda c: (c[0] + c[1]).sin())
    assert calc.total_momentum(model, f, [0.3, 0.5]) == pytest.approx(
        2 * math.cos(0.8))


def test_jacobi_matrix_orthogonal():
    for n in (2, 3, 5):
        u = calc.jacobi_matrix(n)
        assert np.allclose(u @ u.T, np.eye(n), atol=1e-14)


def test_jacobi_two_body_forms():
    model = _cs(2, 1.5)
    rng = np.random.default_rng(14)
    f = calc.random_test_function(model, rng)
    x = np.array([0.4, 1.3])
    b0 = calc.jacobi_action(model, 0, f, x)
    a0 = calc.apply_annihilator(model, 0, f, x)
    a1 = calc.apply_annihilator(model, 1, f, x)
    assert b0.value == pytest.approx((a0.value - a1.value) / math.sqrt(2))
    b1 = calc.jacobi_action(model, 1, f, x)
    assert b1.value == pytest.approx((a0.value + a1.value) / math.sqrt(2))


def test_jacobi_sum_equals_ladder_sum():
    for model in (_cs(3, 1.5), _cal(4, 2.0)):
        rng = np.random.default_rng(15)
        f = calc.random_test_function(model, rng)
        if model.kind == "calogero_sutherland":
            x = np.linspace(0.3, 2.6, model.n)
        else:
            x = np.linspace(-1.5, 1.5, model.n)
        total_b = sum(calc.jacobi_to_jet1(model, "adag", i,
                                          calc.jacobi_action(model, i, f, x), x)
                      for i in range(model.n))
        total_a = calc.apply_hamiltonian_factorized(model, f, x)
        assert abs(total_b - total_a) <= 1e-12 * calc.residual_scale(model, f, x)


def test_jacobi_last_mode_on_constant():
    model = _cs(3, 1.0)
    one = calc.constant(1.0, 3)
    assert abs(calc.jacobi_action(model, 2, one, [0.3, 1.1, 2.0]).value) < 1e-13


def test_jacobi_last_mode_commutes():
    model = _cs(3, 1.5)
    rng = np.random.default_rng(16)
    f = calc.random_test_function(model, rng)
    x = np.array([0.3, 1.2, 2.1])
    scale = calc.residual_scale(model, f, x)
    n = model.n
    for j in range(n - 1):
        t1 = calc.jacobi_to_jet1(model, "a", n - 1,
                                 calc.jacobi_creator(model, j, f, x), x)
        t2 = calc.jacobi_to_jet1(model, "adag", j,
                                 calc.jacobi_action(model, n - 1, f, x), x)
        assert abs(t1 - t2) < 1e-10 * scale


def test_commutator_structure():
    model = _cs(3, 1.2)
    rng = np.random.default_rng(17)
    f = calc.random_test_function(model, rng)
    x = np.array([0.5, 1.3, 2.4])
    # like-operator commutators vanish identically
    assert calc.commutator_value(model, ("a", 0), ("a", 1), f, x) == 0.0
    assert calc.commutator_value(model, ("adag", 0), ("adag", 2), f, x) == 0.0
    # mixed commutator is -2 d_i W_j as a multiplication operator
    got = calc.commutator_value(model, ("adag", 0), ("a", 1), f, x)
    expected = 2 * model.alpha / math.sin(x[0] - x[1]) ** 2 * f(x)
    assert got == pytest.approx(expected, rel=1e-12)


def test_all_lists_exactly_the_public_names():
    defined = [name for name, obj in vars(calc).items()
               if not name.startswith("_") and getattr(obj, "__module__", None) == calc.__name__
               and (inspect.isfunction(obj) or inspect.isclass(obj))]
    assert sorted(calc.__all__) == sorted(defined)
