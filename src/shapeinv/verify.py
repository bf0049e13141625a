"""Seeded, repeatable residual checks for every operator identity:
factorization, shape invariance, commutators, momentum commutation,
three-body cancellation and the constant-fit diagnostic.

All reports are deterministic given (model, trials, seed): each trial gets
an independent child seed spawned from the master seed, so aggregation is
order-independent and trials could run in parallel without changing a bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import calculus as calc
from .errors import DomainError
from .models import NBodyModel, remainder_nominal, remainder_shift

DEFAULT_GAP = 0.05
BOX_HALF = 2.0  # configurations drawn from a box of side 4


@dataclass
class ResidualReport:
    identity: str
    model: dict
    trials: int
    seed: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    worst_sample: dict
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass
class ConstantFit:
    """Least-squares fit of D(x) = sum W_i^2 - sum d_i W_i - V_pair(x).

    D must be a pure constant (plus a quadratic in the pair separations for
    the harmonic kind); `residual_std` after the fit is the theorem-level
    check that no genuine many-body term survives.  `expected_*` are the
    closed-form values of the default normalization, recorded next to the
    fitted ones rather than asserted.
    """
    model: dict
    trials: int
    seed: int
    fitted_constant: float
    expected_constant: float
    constant_discrepancy: float
    residual_std: float
    scale: float
    passed: bool
    fitted_quadratic: float | None = None
    expected_quadratic: float | None = None
    quadratic_discrepancy: float | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _child_rngs(seed: int, trials: int):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(trials)]


def draw_configuration(model: NBodyModel, rng: np.random.Generator,
                       gap: float = DEFAULT_GAP) -> np.ndarray:
    """One admissible configuration for the model's kind.

    calogero / harmonic: uniform in a box of side 4, minimum pair gap `gap`.
    calogero_sutherland: ordered draw in (0, pi) with consecutive gaps >= gap
    and total span <= pi - gap, keeping every difference away from the
    singular lattice (multiples of pi).
    """
    n = model.n
    for _ in range(10_000):
        if model.kind == "calogero_sutherland":
            x = np.sort(rng.uniform(0.0, math.pi, size=n))
            if np.min(np.diff(x)) < gap or (x[-1] - x[0]) > math.pi - gap:
                continue
        else:
            x = rng.uniform(-BOX_HALF, BOX_HALF, size=n)
            d = np.abs(x[:, None] - x[None, :]) + np.eye(n)
            if d.min() < gap:
                continue
        return x
    raise DomainError("failed to draw an admissible configuration; gap too large?")


def _report(identity, model, trials, seed, residuals, worsts, tolerance, extra=None):
    residuals = np.asarray(residuals)
    k = int(np.argmax(residuals))
    return ResidualReport(
        identity=identity, model=model.descriptor(), trials=trials, seed=seed,
        max_residual=float(residuals.max()), mean_residual=float(residuals.mean()),
        tolerance=tolerance, passed=bool(residuals.max() <= tolerance),
        worst_sample={"x": list(map(float, worsts[k])),
                      "residual": float(residuals[k])},
        extra=extra or {})


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def factorization_residual(model: NBodyModel, trials: int, seed: int,
                           tolerance: float = 1e-8) -> ResidualReport:
    """max_t |H_direct f - sum A+_i A_i f| / scale over seeded trials."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    residuals, xs = [], []
    for rng in _child_rngs(seed, trials):
        x = draw_configuration(model, rng)
        f = calc.random_test_function(model, rng)
        lhs = calc.apply_hamiltonian_direct(model, f, x)
        rhs = calc.apply_hamiltonian_factorized(model, f, x)
        residuals.append(abs(lhs - rhs) / calc.residual_scale(model, f, x))
        xs.append(x)
    return _report("factorization", model, trials, seed, residuals, xs, tolerance)


def shape_invariance_residual(model: NBodyModel, trials: int, seed: int,
                              tolerance: float = 1e-8) -> ResidualReport:
    """Residual of sum A_i A+_i (alpha) f - sum A+_i A_i (alpha+1) f - R f.

    R is the closed-form shift for calogero (0) and calogero_sutherland;
    for the harmonic kind it is the measured constant, with the nominal
    closed form recorded in `extra` for comparison.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    shifted = model.shifted(1.0)
    r_used = remainder_shift(model)
    r_nominal = remainder_nominal(model)
    residuals, xs = [], []
    for rng in _child_rngs(seed, trials):
        x = draw_configuration(model, rng)
        f = calc.random_test_function(model, rng)
        lhs = calc.apply_partner(model, f, x)
        rhs = calc.apply_hamiltonian_factorized(shifted, f, x) + r_used * f(x)
        residuals.append(abs(lhs - rhs) / calc.residual_scale(model, f, x))
        xs.append(x)
    return _report("shape_invariance", model, trials, seed, residuals, xs, tolerance,
                   extra={"remainder_used": r_used, "remainder_nominal": r_nominal})


def commutator_check(model: NBodyModel, trials: int, seed: int,
                     tolerance: float = 1e-10) -> ResidualReport:
    """[A_i, A_j] = 0, [A+_i, A+_j] = 0 and [A+_i, A_j] = -2 d_i W_j.

    The mixed commutator is compared against the closed pair formulas
    (restricted sum for i = j, single term for i != j), not against the
    jacobian used internally.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    n = model.n
    residuals, xs = [], []
    for rng in _child_rngs(seed, trials):
        x = draw_configuration(model, rng)
        f = calc.random_test_function(model, rng)
        fv = f(x)
        scale = calc.residual_scale(model, f, x)
        worst = 0.0
        for i in range(n):
            for j in range(n):
                if i < j:
                    worst = max(worst,
                                abs(calc.commutator_value(model, ("a", i), ("a", j), f, x)),
                                abs(calc.commutator_value(model, ("adag", i), ("adag", j), f, x)))
                mixed = calc.commutator_value(model, ("adag", i), ("a", j), f, x)
                worst = max(worst, abs(mixed - _mixed_commutator(model, i, j, x) * fv))
        residuals.append(worst / scale)
        xs.append(x)
    return _report("commutators", model, trials, seed, residuals, xs, tolerance)


def _mixed_commutator(model: NBodyModel, i: int, j: int, x) -> float:
    """Closed form of [A+_i, A_j] / f: the case-split pair formulas."""
    x = np.asarray(x, dtype=float)
    alpha = model.alpha
    if model.kind == "calogero":
        if i == j:
            return float(np.sum([-2 * alpha / (x[i] - x[k]) ** 2
                                 for k in range(model.n) if k != i]))
        return 2 * alpha / (x[i] - x[j]) ** 2
    if model.kind == "calogero_sutherland":
        if i == j:
            return float(np.sum([-2 * alpha / np.sin(x[i] - x[k]) ** 2
                                 for k in range(model.n) if k != i]))
        return 2 * alpha / np.sin(x[i] - x[j]) ** 2
    beta = model.beta
    if i == j:
        return float(np.sum([-2 * (alpha / (x[i] - x[k]) ** 2 + beta)
                             for k in range(model.n) if k != i]))
    return 2 * (alpha / (x[i] - x[j]) ** 2 + beta)


def momentum_commutation(model: NBodyModel, trials: int, seed: int,
                         tolerance: float = 1e-10) -> ResidualReport:
    """[P_tot, A_i] f and [P_tot, A+_i] f at sampled points (both vanish:
    the prepotential depends on differences only)."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    n = model.n
    residuals, xs = [], []
    for rng in _child_rngs(seed, trials):
        x = draw_configuration(model, rng)
        f = calc.random_test_function(model, rng)
        jet = f.jet(np.asarray(x, float))
        tf_value = float(np.sum(jet.g))
        tf_grad = jet.h.sum(axis=1)
        tjet = calc.Jet1(tf_value, tf_grad)
        scale = calc.residual_scale(model, f, x)
        worst = 0.0
        for i in range(n):
            for kind in ("a", "adag"):
                first = (calc.apply_annihilator if kind == "a"
                         else calc.apply_creator)(model, i, f, x)
                p_after = float(np.sum(first.gradient))     # P (Op f)
                op_after = calc.apply_to_jet1(model, kind, i, tjet, x)  # Op (P f)
                worst = max(worst, abs(p_after - op_after))
        residuals.append(worst / scale)
        xs.append(x)
    return _report("momentum_commutation", model, trials, seed, residuals, xs, tolerance)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def three_body_cancellation(kind: str, x_triple) -> float:
    """Relative residual of the three-body cancellation at one triple.

    kind 'rational': 1/((xi-xj)(xi-xk)) + cyclic permutations -> 0.
    kind 'trig':     cot a cot b + cot b cot c + cot c cot a -> 1 for
                     a + b + c = 0 built from the pairwise differences.
    Residuals are relative to the largest term so the conditioning of
    near-coincident triples is visible, not hidden.
    """
    u, v, w = (float(t) for t in x_triple)
    if len({u, v, w}) < 3:
        raise DomainError("triple must have distinct coordinates")
    if kind == "rational":
        terms = np.array([1.0 / ((u - v) * (u - w)),
                          1.0 / ((v - u) * (v - w)),
                          1.0 / ((w - u) * (w - v))])
        target = 0.0
    elif kind == "trig":
        a, b, c = u - v, v - w, w - u
        terms = np.array([1.0 / (np.tan(a) * np.tan(b)),
                          1.0 / (np.tan(b) * np.tan(c)),
                          1.0 / (np.tan(c) * np.tan(a))])
        target = 1.0
    else:
        raise DomainError(f"kind must be 'rational' or 'trig', got {kind!r}")
    return float(abs(terms.sum() - target) / max(1.0, np.max(np.abs(terms))))


def structural_kind(model: NBodyModel) -> str:
    return "trig" if model.kind == "calogero_sutherland" else "rational"


def three_body_report(model: NBodyModel, trials: int, seed: int,
                      tolerance: float = 1e-12) -> ResidualReport:
    """Sampled three-body cancellation for the model's flavor."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    kind = structural_kind(model)
    probe = NBodyModel(model.kind, 3, model.alpha, model.omega, model.beta,
                       model.eps_sing)
    residuals, xs = [], []
    for rng in _child_rngs(seed, trials):
        x = draw_configuration(probe, rng)
        residuals.append(three_body_cancellation(kind, x))
        xs.append(x)
    return _report("three_body_cancellation", model, trials, seed,
                   residuals, xs, tolerance)


def prepotential_structure_report(model: NBodyModel, trials: int, seed: int,
                                  tolerance: float = 1e-12) -> ResidualReport:
    """sum_i W_i = 0 and the symmetry of d_i W_j, cross-checked against
    centered finite differences of W (step 1e-6, so the FD comparison is
    held to a looser 1e-4 scale recorded in extra)."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    residuals, xs = [], []
    fd_worst = 0.0
    for t, rng in enumerate(_child_rngs(seed, trials)):
        x = draw_configuration(model, rng)
        W = model.prepotential(x)
        J = model.prepotential_jacobian(x)
        scale = max(1.0, float(np.max(np.abs(W))))
        res = abs(float(W.sum())) / scale
        res = max(res, float(np.max(np.abs(J - J.T))) / max(1.0, np.max(np.abs(J))))
        if t < 5:  # FD spot check on a few trials only; it is O(h^2) accurate
            h = 1e-6
            for i in range(model.n):
                e = np.zeros(model.n)
                e[i] = h
                fd = (model.prepotential(x + e) - model.prepotential(x - e)) / (2 * h)
                fd_worst = max(fd_worst, float(np.max(np.abs(fd - J[i, :])))
                               / max(1.0, np.max(np.abs(J))))
        residuals.append(res)
        xs.append(x)
    return _report("prepotential_structure", model, trials, seed, residuals, xs,
                   tolerance, extra={"fd_jacobian_relerr": fd_worst})


# ---------------------------------------------------------------------------
# constant-fit diagnostic
# ---------------------------------------------------------------------------

def constant_fit_diagnostic(model: NBodyModel, trials: int, seed: int,
                            tolerance: float = 1e-8) -> ConstantFit:
    """Fit D(x) = sum W_i^2 - sum d_i W_i - V_pair(x) as a constant, plus a
    coefficient on sum'(x_i - x_j)^2 for the harmonic kind.

    The post-fit residual std certifies that D has no remaining shape; the
    fitted values arbitrate the harmonic normalization question without ever
    entering an assertion.
    """
    if trials < 2:
        raise DomainError("trials must be >= 2 for a fit")
    harmonic = model.kind == "harmonic_calogero"
    d_vals, s_vals = [], []
    for rng in _child_rngs(seed, trials):
        x = draw_configuration(model, rng)
        d_vals.append(model.ladder_potential(x) - model.pair_potential(x))
        if harmonic:
            diff = x[:, None] - x[None, :]
            s_vals.append(float(np.sum(diff[~np.eye(model.n, dtype=bool)] ** 2)))
    d_vals = np.asarray(d_vals)
    if harmonic:
        design = np.column_stack([np.ones_like(d_vals), np.asarray(s_vals)])
    else:
        design = np.ones((d_vals.size, 1))
    coef, *_ = np.linalg.lstsq(design, d_vals, rcond=None)
    resid = d_vals - design @ coef
    scale = float(max(1.0, np.max(np.abs(d_vals))))
    std = float(np.sqrt(np.mean(resid ** 2)))
    fit = ConstantFit(
        model=model.descriptor(), trials=trials, seed=seed,
        fitted_constant=float(coef[0]), expected_constant=model.c,
        constant_discrepancy=float(coef[0] - model.c),
        residual_std=std, scale=scale,
        passed=bool(std <= tolerance * scale))
    if harmonic:
        fit.fitted_quadratic = float(coef[1])
        fit.expected_quadratic = 0.0  # standard quadratic already in V_pair
        fit.quadratic_discrepancy = float(coef[1])
    else:
        # for the exactly-solved kinds the constant itself is part of the pass
        fit.passed = bool(fit.passed and abs(fit.constant_discrepancy)
                          <= tolerance * max(1.0, abs(model.c)))
    return fit


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

IDENTITY_NAMES = ("factorization", "shape_invariance", "commutators",
                  "momentum_commutation", "three_body_cancellation",
                  "constant_fit")


def run_all(model: NBodyModel, trials: int, seed: int,
            tolerance: float | None = None) -> dict:
    """All six identity reports for one model, keyed by identity name.

    `tolerance` overrides every identity's default (used by the CLI --tol).
    """
    def tol(default):
        return default if tolerance is None else tolerance

    reports = {
        "factorization": factorization_residual(model, trials, seed, tol(1e-8)),
        "shape_invariance": shape_invariance_residual(model, trials, seed, tol(1e-8)),
        "commutators": commutator_check(model, trials, seed, tol(1e-10)),
        "momentum_commutation": momentum_commutation(model, trials, seed, tol(1e-10)),
        "three_body_cancellation": three_body_report(model, trials, seed, tol(1e-12)),
        "constant_fit": constant_fit_diagnostic(model, trials, seed, tol(1e-8)),
    }
    return reports
