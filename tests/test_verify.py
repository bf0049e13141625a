import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeinv import calculus as calc
from shapeinv import verify
from shapeinv.errors import DomainError
from shapeinv.models import FAMILIES, NBODY_KINDS, NBodyModel, make_nbody_model


def test_factorization_calogero():
    m = make_nbody_model("calogero", 4, 1.5)
    rep = verify.factorization_residual(m, 100, seed=3)
    assert rep.passed and rep.max_residual < 1e-8
    assert rep.max_residual >= rep.mean_residual >= 0.0


def test_factorization_cs():
    m = make_nbody_model("calogero_sutherland", 5, 2.0)
    rep = verify.factorization_residual(m, 100, seed=3)
    assert rep.passed and rep.max_residual < 1e-8


def test_factorization_free_limit():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    rep = verify.factorization_residual(m, 50, seed=3)
    assert rep.max_residual < 1e-12


def test_factorization_harmonic_consistent_beta():
    # with beta = omega / sqrt(2N) the standard potential and constant match
    # the ladder assembly exactly, so even the harmonic kind factorizes
    m = make_nbody_model("harmonic_calogero", 3, 1.5, omega=1.0,
                         beta=1.0 / math.sqrt(6.0))
    rep = verify.factorization_residual(m, 60, seed=4)
    assert rep.passed


def test_factorization_harmonic_default_beta_passes():
    # the potential and its constant are written in beta, so the default
    # beta = omega / (2 sqrt N) factorizes as well as any other
    for n in (2, 3, 4):
        m = make_nbody_model("harmonic_calogero", n, 1.5, omega=1.0)
        rep = verify.factorization_residual(m, 30, seed=4)
        assert rep.passed, (n, rep.max_residual)


def test_shape_invariance_cs_n3():
    m = make_nbody_model("calogero_sutherland", 3, 1.0)
    rep = verify.shape_invariance_residual(m, 100, seed=5)
    assert rep.passed
    assert rep.extra["remainder_used"] == pytest.approx(24.0)


def test_shape_invariance_calogero():
    m = make_nbody_model("calogero", 3, 2.0)
    rep = verify.shape_invariance_residual(m, 100, seed=5)
    assert rep.passed
    assert rep.extra["remainder_used"] == 0.0


def test_shape_invariance_harmonic_fitted():
    m = make_nbody_model("harmonic_calogero", 3, 1.0, omega=1.0)
    rep = verify.shape_invariance_residual(m, 60, seed=5)
    assert rep.passed
    assert rep.extra["remainder_used"] == pytest.approx(
        m.beta * 3 * 2 * 5, rel=1e-10)  # beta N (N-1) (N+2)


@pytest.mark.parametrize("kind", ["calogero", "calogero_sutherland"])
def test_shape_invariance_full_sweep(kind):
    # the identity holds at 1e-8 relative for every N in 2..6 and the
    # standard coupling ladder
    for n in range(2, 7):
        for alpha in (1.0, 1.5, 2.0, 3.0):
            m = make_nbody_model(kind, n, alpha)
            rep = verify.shape_invariance_residual(m, 30, seed=50 + n)
            assert rep.passed, (kind, n, alpha, rep.max_residual)


def test_commutator_closed_forms():
    m = make_nbody_model("calogero", 3, 1.0)
    rep = verify.commutator_check(m, 20, seed=6)
    assert rep.passed
    # spot value: [A+_1, A_2] at x = (0, 1, 3) is 2 alpha / (x1-x2)^2 = 2
    assert verify._mixed_commutator(m, np.array([0.0, 1.0, 3.0]))[0, 1] \
        == pytest.approx(2.0)
    cs = make_nbody_model("calogero_sutherland", 2, 1.0)
    got = verify._mixed_commutator(cs, np.array([0.2, 1.0]))[0, 0]
    assert got == pytest.approx(-2.0 / math.sin(0.8) ** 2)


def test_momentum_commutation_all_kinds():
    for m in (make_nbody_model("calogero", 3, 1.0),
              make_nbody_model("calogero_sutherland", 4, 1.5),
              make_nbody_model("harmonic_calogero", 2, 1.0, omega=1.0)):
        rep = verify.momentum_commutation(m, 30, seed=7)
        assert rep.passed and rep.max_residual < 1e-10


def _three_body(kind, triple, alpha=1.5):
    return float(verify._three_body_residuals(_guard_model(kind, alpha), [triple])[0])


def test_three_body_values():
    assert _three_body("calogero", (0.3, 1.1, 2.7)) < 1e-12
    assert _three_body("harmonic_calogero", (0.3, 1.1, 2.7)) < 1e-12
    # A = 0.4, B = 0.7, C = -1.1 as the differences of (1.5, 1.1, 0.4)
    assert _three_body("calogero_sutherland", (1.5, 1.1, 0.4)) < 1e-12


def test_three_body_near_coincident_conditioning():
    res = _three_body("calogero", (0.3, 0.3 + 1e-5, 2.7))
    assert res < 1e-7  # relative to the largest pair product


def test_three_body_rejects_coincident():
    # every coincident pair, alone and as one row of a batch
    for kind in NBODY_KINDS:
        model = _guard_model(kind)
        for triple in ((0.3, 0.3, 1.0), (0.3, 1.0, 1.0), (1.0, 0.3, 1.0)):
            for triples in ([triple], [(0.1, 0.5, 0.9), triple]):
                with pytest.raises(DomainError, match="distinct"):
                    verify._three_body_residuals(model, triples)


def test_three_body_sampled_both_flavors():
    for kind in NBODY_KINDS:
        m = _guard_model(kind, alpha=1.0)
        rep = verify.three_body_report(m, 500, seed=9)
        assert rep.passed and rep.max_residual < 1e-12


def test_prepotential_structure_report():
    m = make_nbody_model("calogero_sutherland", 4, 1.5)
    rep = verify.prepotential_structure_report(m, 50, seed=10)
    assert rep.passed
    assert rep.extra["fd_jacobian_relerr"] < 1e-4


def test_constant_fit_cs():
    for n, expected in ((2, -2.0), (3, -8.0)):
        m = make_nbody_model("calogero_sutherland", n, 1.0)
        fit = verify.constant_fit_diagnostic(m, 100, seed=11)
        assert fit.passed
        assert fit.fitted_constant == pytest.approx(expected, abs=1e-8)
        assert fit.residual_std <= 1e-8 * fit.scale


def test_constant_fit_calogero():
    m = make_nbody_model("calogero", 4, 2.0)
    fit = verify.constant_fit_diagnostic(m, 100, seed=11)
    assert fit.passed
    assert fit.fitted_constant == pytest.approx(0.0, abs=1e-10)


def test_constant_fit_harmonic_default_beta():
    m = make_nbody_model("harmonic_calogero", 2, 1.0, omega=1.0)
    fit = verify.constant_fit_diagnostic(m, 150, seed=11)
    assert fit.passed
    assert fit.residual_std <= 1e-8 * fit.scale
    assert fit.fitted_constant == pytest.approx(fit.expected_constant, abs=1e-9)


def test_constant_fit_harmonic_consistent_beta():
    m = make_nbody_model("harmonic_calogero", 2, 1.0, omega=1.0, beta=0.5)
    fit = verify.constant_fit_diagnostic(m, 150, seed=11)
    assert fit.passed
    assert fit.fitted_constant == pytest.approx(fit.expected_constant, abs=1e-9)


def test_reports_deterministic():
    m = make_nbody_model("calogero_sutherland", 3, 1.5)
    a = verify.factorization_residual(m, 40, seed=21)
    b = verify.factorization_residual(m, 40, seed=21)
    assert a.to_json() == b.to_json()
    c = verify.factorization_residual(m, 40, seed=22)
    assert c.worst_sample != a.worst_sample


def test_report_schema():
    m = make_nbody_model("calogero", 2, 1.5)
    rep = verify.factorization_residual(m, 10, seed=1)
    d = json.loads(rep.to_json())
    for key in ("identity", "model", "seed", "trials", "max_residual",
                "mean_residual", "pass", "worst_sample"):
        assert key in d
    assert isinstance(d["worst_sample"]["x"], list)


def test_run_all_names():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    reports = verify.run_all(m, 20, seed=2)
    assert set(reports) == set(verify.IDENTITY_NAMES)
    assert all(r.to_dict()["pass"] for r in reports.values())


def test_tolerance_override():
    m = make_nbody_model("calogero_sutherland", 2, 1.5)
    reports = verify.run_all(m, 20, seed=2, tolerance=1e-20)
    assert not all(r.to_dict()["pass"] for r in reports.values())


def test_run_all_passes_tolerance_only_when_given(monkeypatch):
    # each identity keeps the default of its own signature unless a
    # tolerance is given, and run_all calls what the module holds by name
    m = make_nbody_model("calogero_sutherland", 3, 1.0)
    seen = []
    for _, function in verify.IDENTITIES:
        original = getattr(verify, function)
        monkeypatch.setattr(verify, function, lambda *a, _f=original, _n=function, **kw:
                            seen.append((_n, kw)) or _f(*a, **kw))
    verify.run_all(m, 5, seed=1)
    verify.run_all(m, 5, seed=1, tolerance=1e-3)
    functions = [function for _, function in verify.IDENTITIES]
    assert seen == [(f, {}) for f in functions] + [(f, {"tolerance": 1e-3}) for f in functions]


def test_sampling_respects_sector():
    m = make_nbody_model("calogero_sutherland", 6, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = verify.draw_configuration(m, rng)
        assert np.all(np.diff(x) >= verify.DEFAULT_GAP)
        assert x[-1] - x[0] <= math.pi - verify.DEFAULT_GAP


# ---------------------------------------------------------------------------
# batched trial sets against the pointwise calculus path
# ---------------------------------------------------------------------------

def _pair_formula(model, i, j, x):
    """[A+_i, A_j] / f written out pair by pair (restricted sum for i = j)."""
    if i == j:
        return float(np.sum([-_pair_formula(model, i, k, x)
                             for k in range(model.n) if k != i]))
    d = x[i] - x[j]
    if model.kind == "calogero":
        return 2 * model.alpha / d ** 2
    if model.kind == "calogero_sutherland":
        return 2 * model.alpha / np.sin(d) ** 2
    return 2 * (model.alpha / d ** 2 + model.beta)


def _scalar_residuals(model, trials, seed):
    """Per-trial residuals of the four jet identities, one trial and one
    operator product at a time through the public calculus functions (the
    mixed-commutator closed form is checked on its own below)."""
    shifted, r_used = model.shifted(1.0), verify.remainder_shift(model)
    out = {"factorization": [], "shape_invariance": [], "commutators": [],
           "momentum_commutation": []}
    for rng in verify._child_rngs(seed, trials):
        x = verify.draw_configuration(model, rng)
        f = calc.random_test_function(model, rng)
        fv, scale = f(x), calc.residual_scale(model, f, x)
        out["factorization"].append(
            abs(calc.apply_hamiltonian_direct(model, f, x)
                - calc.apply_hamiltonian_factorized(model, f, x)) / scale)
        out["shape_invariance"].append(
            abs(calc.apply_partner(model, f, x)
                - (calc.apply_hamiltonian_factorized(shifted, f, x) + r_used * fv)) / scale)
        closed_form, worst = verify._mixed_commutator(model, x), 0.0
        for i in range(model.n):
            for j in range(model.n):
                if i < j:
                    for op in ("a", "adag"):
                        worst = max(worst, abs(calc.commutator_value(
                            model, (op, i), (op, j), f, x)))
                mixed = calc.commutator_value(model, ("adag", i), ("a", j), f, x)
                worst = max(worst, abs(mixed - closed_form[i, j] * fv))
        out["commutators"].append(worst / scale)
        jet = f.jet(x)
        p_f = calc.Jet1(float(np.sum(jet.g)), jet.h.sum(axis=1))
        worst = 0.0
        for i in range(model.n):
            for op, first in (("a", calc.apply_annihilator), ("adag", calc.apply_creator)):
                after = float(np.sum(first(model, i, f, x).gradient))
                worst = max(worst, abs(after - calc.apply_to_jet1(model, op, i, p_f, x)))
        out["momentum_commutation"].append(worst / scale)
    return out


_BATCHED = {
    "factorization": verify._factorization,
    "shape_invariance": lambda m, s: verify._shape_invariance(m, s, verify.remainder_shift(m)),
    "commutators": verify._commutators,
    "momentum_commutation": verify._momentum,
}


@settings(deadline=None, max_examples=30)
@given(kind=st.sampled_from(["calogero", "calogero_sutherland", "harmonic_calogero"]),
       n=st.integers(2, 6), alpha=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_residuals_match_scalar_path(kind, n, alpha, seed):
    omega = 1.0 if kind == "harmonic_calogero" else None
    m = make_nbody_model(kind, n, alpha, omega=omega)
    trials = 5
    scalar = _scalar_residuals(m, trials, seed)
    s = verify._trial_set(m, trials, seed)
    for name, batched in _BATCHED.items():
        got = batched(m, s)
        assert got.shape == (trials,)
        np.testing.assert_allclose(got, scalar[name], rtol=1e-14, atol=0, err_msg=name)


@settings(deadline=None, max_examples=25)
@given(kind=st.sampled_from(["calogero", "calogero_sutherland", "harmonic_calogero"]),
       n=st.integers(2, 7), trials=st.sampled_from([1, 5, 200]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_jets_equal_per_trial_jets(kind, n, trials, seed):
    m = make_nbody_model(kind, n, 1.5, omega=1.0 if kind == "harmonic_calogero" else None)
    s = verify._trial_set(m, trials, seed)
    xs, jets = [], []
    for rng in verify._child_rngs(seed, trials):
        xs.append(verify.draw_configuration(m, rng))
        jets.append(calc.random_test_function(m, rng).jet(xs[-1]))
    assert np.array_equal(s.x, xs)
    assert np.array_equal(s.v, [j.v for j in jets])
    assert np.array_equal(s.g, [j.g for j in jets])
    assert np.array_equal(s.h, [j.h for j in jets])


@pytest.mark.parametrize("kind,n,alpha,trials", [
    ("calogero_sutherland", 2, 1.0, 25), ("calogero_sutherland", 3, 2.0, 200),
    ("calogero_sutherland", 6, 1.5, 25), ("calogero", 2, 2.0, 200),
    ("calogero", 3, 2.0, 25), ("harmonic_calogero", 4, 1.5, 25),
])
def test_jastrow_residual_matches_scalar_loop(kind, n, alpha, trials):
    m = make_nbody_model(kind, n, alpha, omega=1.0 if kind == "harmonic_calogero" else None)
    phi = calc.jastrow_function(m)
    worst = 0.0
    for rng in verify._child_rngs(3, trials):
        x = verify.draw_configuration(m, rng)
        scale = max(1.0, abs(m.potential(x))) * max(abs(phi(x)), 1e-300)
        worst = max(worst, abs(calc.apply_hamiltonian_factorized(m, phi, x)) / scale)
    assert verify.jastrow_residual(m, trials, 3) == worst
    assert worst < 1e-8
    with pytest.raises(DomainError):
        verify.jastrow_residual(m, 0, 3)


def test_mixed_commutator_matrix_matches_pair_formulas():
    # the matrix squares arrays, where numpy scalars go through C pow, so
    # entries may differ from the pair formulas in the last bit
    for kind, omega in (("calogero", None), ("calogero_sutherland", None),
                        ("harmonic_calogero", 1.0)):
        m = make_nbody_model(kind, 4, 1.5, omega=omega)
        xs = np.array([[0.1, 0.7, 1.6, 2.9], [0.3, 0.5, 1.2, 2.0]])
        c = verify._mixed_commutator(m, xs)
        assert c.shape == (2, 4, 4)
        for t, x in enumerate(xs):
            assert np.array_equal(c[t], verify._mixed_commutator(m, x))
            for i in range(4):
                for j in range(4):
                    assert c[t, i, j] == pytest.approx(_pair_formula(m, i, j, x),
                                                       rel=1e-14)


def test_run_all_draws_each_trial_once(monkeypatch):
    drawn = []
    original = calc.draw_test_parameters

    def counting(model, rng):
        drawn.append(model.n)
        return original(model, rng)

    monkeypatch.setattr(calc, "draw_test_parameters", counting)
    m = make_nbody_model("calogero_sutherland", 3, 1.5)
    first = verify.run_all(m, 25, seed=4)
    assert len(drawn) == 25
    assert verify._drawn is None  # nothing outlives the call
    second = verify.run_all(m, 25, seed=4)
    assert len(drawn) == 50  # a second call draws again
    assert {k: r.to_json() for k, r in first.items()} \
        == {k: r.to_json() for k, r in second.items()}
    verify.factorization_residual(m, 25, seed=4)
    verify.commutator_check(m, 25, seed=4)
    assert len(drawn) == 100  # outside run_all every identity draws its own


def _models_of_every_kind():
    yield from (make_nbody_model(kind, 3, 1.5, omega=1.0 if kind == "harmonic_calogero" else None)
                for kind in NBODY_KINDS)
    yield make_nbody_model("harmonic_calogero", 3, 1.5, omega=1.0, beta=0.4)


@pytest.mark.parametrize("trials", [2, 20, 200])
def test_run_all_reports_equal_the_identities_called_alone(trials):
    for m in _models_of_every_kind():
        shared = verify.run_all(m, trials, seed=13)
        assert verify._drawn is None
        alone = {name: getattr(verify, function)(m, trials, 13)
                 for name, function in verify.IDENTITIES}
        assert {k: r.to_json() for k, r in shared.items()} \
            == {k: r.to_json() for k, r in alone.items()}


def test_run_all_clears_its_memo_when_an_identity_raises(monkeypatch):
    def failing(model, trials, seed, **kw):
        raise DomainError("injected")

    monkeypatch.setattr(verify, "commutator_check", failing)
    with pytest.raises(DomainError, match="injected"):
        verify.run_all(make_nbody_model("calogero", 3, 1.5), 10, seed=2)
    assert verify._drawn is None


def _count_work(monkeypatch):
    """Count model evaluations (by alpha) and seed spawns from here on."""
    calls = {"spawn": 0, "W, J": [], "V": []}
    for method, name in (("prepotential_and_jacobian", "W, J"), ("potential", "V")):
        original = getattr(NBodyModel, method)
        monkeypatch.setattr(NBodyModel, method, lambda self, x, _f=original, _n=name:
                            calls[_n].append(self.alpha) or _f(self, x))

    class CountingSeedSequence(np.random.SeedSequence):
        def spawn(self, n):
            calls["spawn"] += 1
            return super().spawn(n)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    return calls


def test_run_all_does_each_piece_of_work_once(monkeypatch):
    m = make_nbody_model("calogero_sutherland", 4, 1.5)
    calls = _count_work(monkeypatch)
    verify.run_all(m, 30, seed=8)
    assert calls == {"spawn": 1, "W, J": [1.5, 2.5], "V": [1.5]}
    for _, function in verify.IDENTITIES:
        getattr(verify, function)(m, 30, 8)
    # outside run_all every identity draws and evaluates its own
    assert calls == {"spawn": 1 + 6, "W, J": [1.5, 2.5] + [1.5, 1.5, 2.5, 1.5, 1.5],
                     "V": [1.5] + [1.5] * 4}
    # at N = 3 the three-body check reads the trial set's configurations
    drawn = []
    draw = verify.draw_configuration
    monkeypatch.setattr(verify, "draw_configuration",
                        lambda model, rng: drawn.append(model.n) or draw(model, rng))
    verify.run_all(make_nbody_model("calogero_sutherland", 3, 1.0), 20, seed=8)
    assert drawn == [3] * 20


def test_run_all_rejects_too_few_trials_before_any_draw(monkeypatch):
    calls = _count_work(monkeypatch)
    drawn = []
    monkeypatch.setattr(verify, "draw_configuration", lambda *a: drawn.append(a))
    for trials in (1, 0):
        with pytest.raises(DomainError, match="trials must be >= 2 for a fit"):
            verify.run_all(make_nbody_model("calogero_sutherland", 3, 1.0), trials, seed=1)
    assert drawn == [] and calls == {"spawn": 0, "W, J": [], "V": []}


@pytest.mark.parametrize("check,n", [
    ("factorization_residual", 3), ("shape_invariance_residual", 3),
    ("commutator_check", 3), ("momentum_commutation", 3), ("jastrow_residual", 3),
    ("three_body_report", 3), ("three_body_report", 4),
    ("prepotential_structure_report", 3),
])
def test_checks_reject_zero_trials(check, n):
    model = make_nbody_model("calogero_sutherland", n, 1.0)
    with pytest.raises(DomainError, match="trials must be >= 1"):
        getattr(verify, check)(model, 0, seed=1)


def _three_body_reference(model, triple):
    """The balance condition of the model's pair row at one triple, in
    Python floats, term by term."""
    u, v, w = map(float, triple)
    args = (u - v, v - w, w - u)
    wa, wb, wc = (float(model.pair.prep.w(r)) for r in args)
    va, vb, vc = (float(model.pair.vtilde0(r)) for r in args)
    products = (wa * wb, wb * wc, wc * wa)
    gap = -(products[0] + products[1] + products[2]) - (va + vb + vc)
    return abs(gap) / max(1.0, max(abs(p) for p in products))


@pytest.mark.parametrize("kind", NBODY_KINDS)
def test_batched_three_body_equals_each_triple(kind):
    model = _guard_model(kind)
    rng = np.random.default_rng(5)
    triples = rng.uniform(0.0, 3.0, size=(400, 3))
    near = triples[:100].copy()
    near[:, 1] = near[:, 0] + 10.0 ** rng.uniform(-13, -4, size=100)
    near[:, 2] = near[:, 0] - 10.0 ** rng.uniform(-13, -4, size=100)
    triples = np.concatenate([triples, near])
    batched = verify._three_body_residuals(model, triples)
    assert batched.tolist() == [_three_body_reference(model, t) for t in triples]


# ---------------------------------------------------------------------------
# the references the checks compare against are independent of FAMILIES
# ---------------------------------------------------------------------------

def _guard_model(kind, alpha=1.5):
    omega = 1.0 if kind == "harmonic_calogero" else None
    return make_nbody_model(kind, 3, alpha, omega=omega)


def _scale_family_formula(monkeypatch, model, name):
    """Replace one formula of the model's family row by a copy scaled by
    (1 + 1e-6), as a wrong table entry would be."""
    family = model.pair.prep.family
    row = FAMILIES[family]
    formula = getattr(row, name)
    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(
        row, **{name: lambda x, *params: (1 + 1e-6) * formula(x, *params)}))


# calogero's balance condition, sum 1/(AB) = 0, is homogeneous in w, so a
# scaled w keeps it and only the factorization sees the scale
@pytest.mark.parametrize("check,kind", [
    *(pytest.param("factorization_residual", kind, id=kind) for kind in NBODY_KINDS),
    *(pytest.param("three_body_report", kind, id=f"three_body-{kind}")
      for kind in ("harmonic_calogero", "calogero_sutherland"))])
def test_perturbed_family_w_is_detected(monkeypatch, check, kind):
    m = _guard_model(kind)
    assert getattr(verify, check)(m, 20, seed=5).passed
    _scale_family_formula(monkeypatch, m, "w")
    assert not getattr(verify, check)(m, 20, seed=5).passed


@pytest.mark.parametrize("kind", NBODY_KINDS)
def test_perturbed_family_w_prime_is_detected(monkeypatch, kind):
    m = _guard_model(kind)
    assert verify.commutator_check(m, 20, seed=5).passed
    _scale_family_formula(monkeypatch, m, "w_prime")
    assert not verify.commutator_check(m, 20, seed=5).passed
