"""Seeded, repeatable residual checks for every operator identity:
factorization, shape invariance, commutators, momentum commutation,
three-body cancellation and the constant-fit diagnostic.

All reports are deterministic given (model, trials, seed): each trial gets
an independent child seed spawned from the master seed, so aggregation is
order-independent and trials could run in parallel without changing a bit.

The four jet identities run on a `TrialSet`, every trial's configuration
and test-function 2-jet stacked into arrays.  Each trial draws only its
configuration and its test function's parameters; one test function
over the stacked parameters gives all T jets in one evaluation.  The
identities are array contractions over all trials at once: one batched
W, J evaluation, the first applications of every A_j and A+_j as arrays
u (T, N) and G (T, N, N), and every depth-2 product as
P[t, i, j] = s G[t, i, j] + W[t, i] u[t, j].  Each commutator is the
difference of its two products.  The contractions keep the scalar
operation order of the pointwise `calculus` functions, which stay the
reference: every residual equals theirs bit for bit.  The three-body
cancellation is the balance condition of the model's pair row, one array
expression over all sampled triples.

`run_all` does each piece of work once per call and shares it with the
checks: it spawns the child seeds once (every check still gets fresh
generators from them), draws each trial set once, and evaluates W, J at
alpha and at alpha + 1 and V once per model and trial set.  For N = 3 the
three-body check reads its configurations from the trial set.  The memo is
cleared when the call returns, so nothing is cached across calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import calculus as calc
from .errors import DomainError
from .models import NBodyModel, _set_diagonal, balance_gap, remainder_shift

DEFAULT_GAP = 0.05
BOX_HALF = 2.0  # configurations drawn from a box of side 4


class _Serialized:
    """`to_dict` and `to_json` of a report dataclass; `passed` is written
    as "pass"."""

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["pass"] = d.pop("passed")
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass
class ResidualReport(_Serialized):
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


@dataclass
class ConstantFit(_Serialized):
    """Least-squares fit of D(x) = sum W_i^2 - sum d_i W_i - V_pair(x) as a
    constant.

    `residual_std` after the fit is the theorem-level check that no genuine
    many-body term survives, and the fitted constant must match the closed
    form `expected_constant` (the model's `c`) for every kind.
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


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# Work shared by the checks of the current `run_all` call, keyed by what it
# depends on: the spawned child seeds, each trial set and the model values
# on it.  None outside the call, so nothing outlives it.
_drawn: dict | None = None


def _memo(key, compute):
    """compute(), or during a `run_all` call the value first computed under
    key in that call."""
    if _drawn is None:
        return compute()
    if key not in _drawn:
        _drawn[key] = compute()
    return _drawn[key]


def _child_rngs(seed: int, trials: int):
    """A fresh generator per trial, from the child seeds spawned by seed;
    every check draws its trials here."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    children = _memo(("seeds", seed, trials),
                     lambda: np.random.SeedSequence(seed).spawn(trials))
    return [np.random.default_rng(s) for s in children]


def draw_configuration(model: NBodyModel, rng: np.random.Generator) -> np.ndarray:
    """One admissible configuration for the model.

    Without a period: uniform in a box of side 2 BOX_HALF, minimum pair gap
    DEFAULT_GAP.  With a period: ordered draw in (0, period) with
    consecutive gaps >= DEFAULT_GAP and total span <= period - DEFAULT_GAP,
    keeping every difference away from the singular lattice (multiples of
    the period).
    """
    n = model.n
    period = model.kind_row.period
    for _ in range(10_000):
        if period:
            x = np.sort(rng.uniform(0.0, period, size=n))
            if (x[1:] - x[:-1]).min() < DEFAULT_GAP or (x[-1] - x[0]) > period - DEFAULT_GAP:
                continue
        else:
            x = rng.uniform(-BOX_HALF, BOX_HALF, size=n)
            # rounding is monotone, so the smallest gap of the sorted
            # coordinates is the smallest |x_i - x_j| over all pairs
            ordered = np.sort(x)
            if (ordered[1:] - ordered[:-1]).min() < DEFAULT_GAP:
                continue
        return x
    raise DomainError("failed to draw an admissible configuration")


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
# trial sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialSet:
    """T seeded trials, stacked: configurations x (T, N) and the exact 2-jet
    of each trial's test function there, v (T,), g (T, N), h (T, N, N).
    `key` names the draw, (kind, n, trials, seed), under which model values
    at x are shared during a `run_all` call; a set without a key shares
    none."""
    x: np.ndarray
    v: np.ndarray
    g: np.ndarray
    h: np.ndarray
    key: tuple | None = None


def _trial_set(model: NBodyModel, trials: int, seed: int) -> TrialSet:
    """Each child rng draws a configuration, then its test function's
    parameters; one test function over the stacked parameters gives every
    trial's jet at once."""
    key = (model.kind, model.n, trials, seed)

    def draw():
        xs, params = [], []
        for rng in _child_rngs(seed, trials):
            xs.append(draw_configuration(model, rng))
            params.append(calc.draw_test_parameters(model, rng))
        x = np.array(xs)
        jet = calc.build_test_function(model, [np.array(p) for p in zip(*params)]).jet(x)
        return TrialSet(x, jet.v, jet.g, jet.h, key)

    return _memo(key, draw)


def _model_value(method: str, model: NBodyModel, s: TrialSet):
    """model.<method>(s.x), evaluated once per model and trial set during a
    `run_all` call."""
    if s.key is None:
        return getattr(model, method)(s.x)
    return _memo((method, model, s.key), lambda: getattr(model, method)(s.x))


# ---------------------------------------------------------------------------
# ladder products on a trial set
#
# The arrays repeat the scalar operation order of `calculus`, so every
# residual equals the pointwise one (`apply_product`, `commutator_value`,
# `_ladder_sum`, `residual_scale`) bit for bit.  Where the pointwise path
# sums a contiguous vector, the batched sum runs over the last axis of a
# C-contiguous array, so that numpy adds each row in the same order (its
# pairwise summation starts at 8 terms).
# ---------------------------------------------------------------------------

def _first(sign: float, W, J, s: TrialSet):
    """L_j f for every j, with L_j = sign d_j + W_j (A_j at +1, A+_j at -1):
    values u[t, j] and gradients G[t, k, j] = d_k (L_j f)."""
    u = sign * s.g + W * s.v[:, None]
    G = sign * s.h + J * s.v[:, None, None] + s.g[:, :, None] * W[:, None, :]
    return u, G


def _products(sign: float, W, u, G):
    """P[t, i, j] = (L_i applied to the first applications u, G), with
    L_i = sign d_i + W_i: every depth-2 product at once."""
    return sign * G + W[:, :, None] * u[:, None, :]


def _ladder_sums(model: NBodyModel, sign: float, s: TrialSet):
    """sum_i L-_i L_i f per trial, L_i = sign d_i + W_i and L-_i its
    adjoint: sum A+_i A_i at sign = +1, the partner sum A_i A+_i at -1."""
    W, J = _model_value("prepotential_and_jacobian", model, s)
    products = _products(-sign, W, *_first(sign, W, J, s))
    return np.einsum("tii->ti", products).sum(axis=-1)


def _scale(s: TrialSet, V):
    """max(1, |f|, |grad f|, |hess f|, |V|) per trial."""
    return np.max([np.ones_like(s.v), np.abs(s.v), np.abs(s.g).max(axis=1),
                   np.abs(s.h).max(axis=(1, 2)), np.abs(V)], axis=0)


def _factorization(model: NBodyModel, s: TrialSet):
    V = _model_value("potential", model, s)
    lhs = -np.trace(s.h, axis1=1, axis2=2) + V * s.v
    return np.abs(lhs - _ladder_sums(model, 1.0, s)) / _scale(s, V)


def _shape_invariance(model: NBodyModel, s: TrialSet, r_used: float):
    lhs = _ladder_sums(model, -1.0, s)
    rhs = _ladder_sums(model.shifted(1.0), 1.0, s) + r_used * s.v
    return np.abs(lhs - rhs) / _scale(s, _model_value("potential", model, s))


def _commutators(model: NBodyModel, s: TrialSet):
    """Largest |[A_i, A_j] f|, |[A+_i, A+_j] f| (i < j) and
    |[A+_i, A_j] f - closed form| per trial, each commutator the difference
    of its two depth-2 products."""
    W, J = _model_value("prepotential_and_jacobian", model, s)
    ua, Ga = _first(1.0, W, J, s)
    ud, Gd = _first(-1.0, W, J, s)
    aa = _products(1.0, W, ua, Ga)      # A_i A_j f
    dd = _products(-1.0, W, ud, Gd)     # A+_i A+_j f
    da = _products(-1.0, W, ua, Ga)     # A+_i A_j f
    ad = _products(1.0, W, ud, Gd)      # A_i A+_j f
    upper = np.triu(np.ones((model.n, model.n), dtype=bool), 1)
    pure = np.abs(np.concatenate([(aa - aa.swapaxes(1, 2))[:, upper],
                                  (dd - dd.swapaxes(1, 2))[:, upper]], axis=1))
    mixed = np.abs(da - ad.swapaxes(1, 2)
                   - _mixed_commutator(model, s.x) * s.v[:, None, None])
    worst = np.maximum(pure.max(axis=1, initial=0.0), mixed.max(axis=(1, 2)))
    return worst / _scale(s, _model_value("potential", model, s))


def _momentum(model: NBodyModel, s: TrialSet):
    """Largest |P_tot (Op_i f) - Op_i (P_tot f)| over Op = A, A+ per trial."""
    W, J = _model_value("prepotential_and_jacobian", model, s)
    p_value = s.g.sum(axis=1)       # P_tot f and its gradient
    p_grad = s.h.sum(axis=2)
    worst = np.zeros_like(s.v)
    for sign in (1.0, -1.0):
        _, G = _first(sign, W, J, s)
        p_after = np.ascontiguousarray(G.swapaxes(1, 2)).sum(axis=-1)  # P_tot L_i f
        gap = np.abs(p_after - (sign * p_grad + W * p_value[:, None]))
        worst = np.maximum(worst, gap.max(axis=1))
    return worst / _scale(s, _model_value("potential", model, s))


def _mixed_commutator(model: NBodyModel, x) -> np.ndarray:
    """Closed form of [A+_i, A_j] / f as an (..., N, N) matrix: the pair
    formula off the diagonal, minus the sum of the row's off-diagonal
    entries on it."""
    d = model._diff(np.asarray(x, dtype=float))  # dummy diagonal, overwritten below
    c = model.alpha / (np.sin(d) if model.kind_row.period else d) ** 2
    if model.kind_row.confined:
        c = c + model.beta
    c = 2 * c
    off = ~np.eye(model.n, dtype=bool)
    restricted = np.ascontiguousarray(c[..., off]).reshape(c.shape[:-1] + (model.n - 1,))
    _set_diagonal(c, -restricted.sum(axis=-1))
    return c


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def factorization_residual(model: NBodyModel, trials: int, seed: int,
                           tolerance: float = 1e-8) -> ResidualReport:
    """max_t |H_direct f - sum A+_i A_i f| / scale over seeded trials."""
    s = _trial_set(model, trials, seed)
    return _report("factorization", model, trials, seed,
                   _factorization(model, s), s.x, tolerance)


def shape_invariance_residual(model: NBodyModel, trials: int, seed: int,
                              tolerance: float = 1e-8) -> ResidualReport:
    """Residual of sum A_i A+_i (alpha) f - sum A+_i A_i (alpha+1) f - R f,
    with R the kind's closed-form shift (`remainder_shift`), recorded in
    `extra`."""
    s = _trial_set(model, trials, seed)
    r_used = remainder_shift(model)
    return _report("shape_invariance", model, trials, seed,
                   _shape_invariance(model, s, r_used), s.x, tolerance,
                   extra={"remainder_used": r_used})


def commutator_check(model: NBodyModel, trials: int, seed: int,
                     tolerance: float = 1e-10) -> ResidualReport:
    """[A_i, A_j] = 0, [A+_i, A+_j] = 0 and [A+_i, A_j] = -2 d_i W_j.

    The mixed commutator is compared against the closed pair formulas
    (restricted sum for i = j, single term for i != j), not against the
    jacobian used internally.
    """
    s = _trial_set(model, trials, seed)
    return _report("commutators", model, trials, seed,
                   _commutators(model, s), s.x, tolerance)


def momentum_commutation(model: NBodyModel, trials: int, seed: int,
                         tolerance: float = 1e-10) -> ResidualReport:
    """[P_tot, A_i] f and [P_tot, A+_i] f at sampled points (both vanish:
    the prepotential depends on differences only)."""
    s = _trial_set(model, trials, seed)
    return _report("momentum_commutation", model, trials, seed,
                   _momentum(model, s), s.x, tolerance)


def jastrow_residual(model: NBodyModel, trials: int, seed: int) -> float:
    """Largest |sum A+_i A_i Phi0| / (max(1, |V|) max(|Phi0|, 1e-300)) over
    seeded configurations: the product ground state Phi0 is annihilated by
    every A_i, so this is roundoff.  One Jastrow function gives every
    trial's jet at once."""
    x = np.array([draw_configuration(model, rng) for rng in _child_rngs(seed, trials)])
    jet = calc.jastrow_function(model).jet(x)
    hval = _ladder_sums(model, 1.0, TrialSet(x, jet.v, jet.g, jet.h))
    scale = (np.maximum(1.0, np.abs(model.potential(x)))
             * np.maximum(np.abs(jet.v), 1e-300))
    return float(np.max(np.abs(hval) / scale))


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def _three_body_residuals(model: NBodyModel, triples) -> np.ndarray:
    """Relative residuals of the model's cross-term balance condition at
    triples (u, v, w) of shape (T, 3), with A = u - v, B = v - w and
    C = w - u: |lhs - rhs| over the largest |pair product| (at least 1), so
    the conditioning of near-coincident triples is visible, not hidden.
    w is the model's pair prepotential, from the family table, and vtilde0
    its pair row's closed form; one array expression covers all rows."""
    u, v, w = np.asarray(triples, dtype=float).T
    if np.any((u == v) | (v == w) | (w == u)):
        raise DomainError("triple must have distinct coordinates")
    gap, products = balance_gap(model.pair_w, model.pair.vtilde0, u - v, v - w, w - u)
    return np.abs(gap) / np.maximum(1.0, np.abs(products).max(axis=-1))


def three_body_report(model: NBodyModel, trials: int, seed: int,
                      tolerance: float = 1e-12) -> ResidualReport:
    """Sampled three-body cancellation: the balance condition of the
    model's pair row (``models.balance_gap``) at one configuration of three
    particles per trial, which leaves sum_i W_i^2 without a three-body
    term."""
    if model.n == 3 and _drawn is not None:
        # the trial set's configurations are these draws: the same child
        # seeds, each drawing its configuration first
        xs = _trial_set(model, trials, seed).x
    else:
        probe = NBodyModel(model.kind, 3, model.alpha, model.omega, model.beta,
                           model.eps_sing)
        xs = np.array([draw_configuration(probe, rng)
                       for rng in _child_rngs(seed, trials)])
    return _report("three_body_cancellation", model, trials, seed,
                   _three_body_residuals(model, xs), xs, tolerance)


def prepotential_structure_report(model: NBodyModel, trials: int, seed: int,
                                  tolerance: float = 1e-12) -> ResidualReport:
    """sum_i W_i = 0 and the symmetry of d_i W_j, cross-checked against
    centered finite differences of W (step 1e-6, so the FD comparison is
    held to a looser 1e-4 scale recorded in extra)."""
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

def _check_fit_trials(trials: int):
    if trials < 2:
        raise DomainError("trials must be >= 2 for a fit")


def constant_fit_diagnostic(model: NBodyModel, trials: int, seed: int,
                            tolerance: float = 1e-8) -> ConstantFit:
    """Fit D(x) = sum W_i^2 - sum d_i W_i - V_pair(x) as a constant.

    It passes when the post-fit residual std shows that D has no remaining
    shape and the fitted constant equals the closed form `model.c`, both to
    `tolerance` relative.
    """
    _check_fit_trials(trials)
    x = _trial_set(model, trials, seed).x
    d_vals = model.ladder_potential(x) - model.pair_potential(x)
    design = np.ones((d_vals.size, 1))
    coef, *_ = np.linalg.lstsq(design, d_vals, rcond=None)
    resid = d_vals - design @ coef
    scale = float(max(1.0, np.max(np.abs(d_vals))))
    std = float(np.sqrt(np.mean(resid ** 2)))
    discrepancy = float(coef[0] - model.c)
    return ConstantFit(
        model=model.descriptor(), trials=trials, seed=seed,
        fitted_constant=float(coef[0]), expected_constant=model.c,
        constant_discrepancy=discrepancy, residual_std=std, scale=scale,
        passed=bool(std <= tolerance * scale
                    and abs(discrepancy) <= tolerance * max(1.0, abs(model.c))))


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

# (identity name, checking function), each default tolerance in its signature;
# named, so run_all calls what the module holds then, wrappers included
IDENTITIES = (("factorization", "factorization_residual"),
              ("shape_invariance", "shape_invariance_residual"),
              ("commutators", "commutator_check"),
              ("momentum_commutation", "momentum_commutation"),
              ("three_body_cancellation", "three_body_report"),
              ("constant_fit", "constant_fit_diagnostic"))
IDENTITY_NAMES = tuple(name for name, _ in IDENTITIES)


def run_all(model: NBodyModel, trials: int, seed: int,
            tolerance: float | None = None) -> dict:
    """All six identity reports for one model, keyed by identity name.

    `tolerance` overrides every identity's default (used by the CLI --tol).
    The constant fit needs two trials, so fewer are rejected before any draw.
    """
    _check_fit_trials(trials)
    given = {} if tolerance is None else {"tolerance": tolerance}
    global _drawn
    _drawn = {}
    try:
        return {name: globals()[function](model, trials, seed, **given)
                for name, function in IDENTITIES}
    finally:
        _drawn = None
