"""Exact-derivative test functions (2-jets) and the pointwise action of the
ladder operators, Hamiltonians, total momentum and the orthogonal recombined
basis on them.

A Jet2 carries (value, gradient, hessian) at a single configuration; jets
propagate through arithmetic, exp, sin/cos and |u|^p exactly, so operator
identities can be checked to roundoff without any differencing error.

Applying one ladder operator consumes one derivative order: it maps a Jet2
to a Jet1 (value + gradient).  A second operator maps a Jet1 to a bare value.
Deeper products are not evaluated on jets; chains live on grids instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, JetOrderError
from .models import NBodyModel

__all__ = [
    "Jet1", "Jet2", "TestFunction", "coordinate", "constant",
    "gaussian_polynomial", "periodic_product", "random_test_function",
    "jastrow_function", "apply_annihilator", "apply_creator", "apply_to_jet1",
    "apply_product", "commutator_value", "apply_hamiltonian_direct",
    "apply_hamiltonian_factorized", "apply_partner", "total_momentum",
    "jacobi_matrix", "jacobi_action", "residual_scale",
]


class Jet2:
    """Second-order jet: value v, gradient g (n,), hessian h (n, n)."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = float(v)
        self.g = g
        self.h = h

    @property
    def n(self):
        return self.g.shape[0]

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.v + other.v, self.g + other.g, self.h + other.h)
        return Jet2(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.v, -self.g, -self.h)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            cross = np.outer(self.g, other.g)
            return Jet2(self.v * other.v,
                        self.v * other.g + other.v * self.g,
                        self.v * other.h + other.v * self.h + cross + cross.T)
        return Jet2(self.v * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    # -- library functions ----------------------------------------------------
    def exp(self):
        e = np.exp(self.v)
        return Jet2(e, e * self.g, e * (self.h + np.outer(self.g, self.g)))

    def sin(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return Jet2(s, c * self.g, c * self.h - s * np.outer(self.g, self.g))

    def cos(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return Jet2(c, -s * self.g, -s * self.h - c * np.outer(self.g, self.g))

    def pow_int(self, k: int):
        if k < 0 or k != int(k):
            raise DomainError("pow_int takes a non-negative integer exponent")
        u, g, h = self.v, self.g, self.h
        if k == 0:
            return Jet2(1.0, np.zeros_like(g), np.zeros_like(h))
        d1 = k * u ** (k - 1)
        d2 = k * (k - 1) * u ** (k - 2) if k >= 2 else 0.0
        return Jet2(u ** k, d1 * g, d1 * h + d2 * np.outer(g, g))

    def abs_pow(self, p: float):
        """|u|^p for u != 0 (chain rule with d|u|^p = p |u|^p / u)."""
        u = self.v
        if u == 0.0:
            raise DomainError("abs_pow evaluated at a zero of its argument")
        a = np.abs(u) ** p
        d1 = p * a / u
        d2 = p * (p - 1) * np.abs(u) ** (p - 2)
        return Jet2(a, d1 * self.g, d1 * self.h + d2 * np.outer(self.g, self.g))


@dataclass
class Jet1:
    """First-order jet: what remains after one ladder application."""
    value: float
    gradient: np.ndarray


class TestFunction:
    """A point-evaluable scalar field returning exact 2-jets.

    Built compositionally from coordinates, constants, arithmetic, exp,
    sin/cos and |.|^p envelopes; carries its maximal derivative order (2).
    """

    max_order = 2

    def __init__(self, n: int, fn):
        self.n = n
        self._fn = fn
        self._last = None  # identity checks hit the same point repeatedly

    def jet(self, x) -> Jet2:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DomainError(f"expected a configuration of shape ({self.n},)")
        key = x.tobytes()
        if self._last is None or self._last[0] != key:
            self._last = (key, self._fn(x))
        return self._last[1]

    def __call__(self, x) -> float:
        return self.jet(x).v

    def _check(self, other):
        if isinstance(other, TestFunction) and other.n != self.n:
            raise DomainError("mixing test functions of different arity")

    def __add__(self, other):
        self._check(other)
        if isinstance(other, TestFunction):
            return TestFunction(self.n, lambda x: self._fn(x) + other._fn(x))
        return TestFunction(self.n, lambda x: self._fn(x) + other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TestFunction(self.n, lambda x: -self._fn(x))

    def __mul__(self, other):
        self._check(other)
        if isinstance(other, TestFunction):
            return TestFunction(self.n, lambda x: self._fn(x) * other._fn(x))
        return TestFunction(self.n, lambda x: self._fn(x) * other)

    __rmul__ = __mul__

    def exp(self):
        return TestFunction(self.n, lambda x: self._fn(x).exp())

    def sin(self):
        return TestFunction(self.n, lambda x: self._fn(x).sin())

    def cos(self):
        return TestFunction(self.n, lambda x: self._fn(x).cos())

    def pow_int(self, k: int):
        return TestFunction(self.n, lambda x: self._fn(x).pow_int(k))

    def abs_pow(self, p: float):
        return TestFunction(self.n, lambda x: self._fn(x).abs_pow(p))


def coordinate(i: int, n: int) -> TestFunction:
    if not 0 <= i < n:
        raise DomainError(f"coordinate index {i} out of range for n={n}")

    def fn(x, i=i, n=n):
        g = np.zeros(n)
        g[i] = 1.0
        return Jet2(x[i], g, np.zeros((n, n)))

    return TestFunction(n, fn)


def constant(c: float, n: int) -> TestFunction:
    def fn(x, c=float(c), n=n):
        return Jet2(c, np.zeros(n), np.zeros((n, n)))

    return TestFunction(n, fn)


def gaussian_polynomial(n: int, rng: np.random.Generator,
                        sigma_range=(0.8, 2.0)) -> TestFunction:
    """Random degree-<=3 polynomial times a Gaussian envelope."""
    mu = rng.uniform(-1.0, 1.0, size=n)
    sigma = rng.uniform(*sigma_range)
    c0 = rng.uniform(0.5, 1.5)
    c1 = rng.uniform(-1.0, 1.0, size=n)
    c2 = rng.uniform(-0.5, 0.5, size=n)
    c3 = rng.uniform(-0.2, 0.2, size=n)
    coords = [coordinate(i, n) for i in range(n)]
    poly = constant(c0, n)
    quad = constant(0.0, n)
    for i in range(n):
        u = coords[i] - mu[i]
        poly = poly + c1[i] * u + c2[i] * u.pow_int(2) + c3[i] * u.pow_int(3)
        quad = quad + u.pow_int(2)
    return poly * (quad * (-0.5 / sigma ** 2)).exp()


def periodic_product(n: int, rng: np.random.Generator) -> TestFunction:
    """Random product of two bounded trigonometric combinations."""
    f = constant(1.0, n)
    for _ in range(2):
        a = rng.uniform(1.2, 2.0)
        b = rng.uniform(-1.0, 1.0, size=n)
        phi = rng.uniform(0.0, 2 * np.pi, size=n)
        term = constant(a, n)
        for i in range(n):
            term = term + b[i] * (coordinate(i, n) + phi[i]).sin()
        f = f * term
    return f


def random_test_function(model: NBodyModel, rng: np.random.Generator) -> TestFunction:
    if model.kind == "calogero_sutherland":
        return periodic_product(model.n, rng)
    return gaussian_polynomial(model.n, rng)


def jastrow_function(model: NBodyModel, dalpha: float = 0.0) -> TestFunction:
    """Product ground state Phi0 as a TestFunction (coupling alpha + dalpha).

    calogero:             prod |x_i - x_j|^alpha
    calogero_sutherland:  prod |sin(x_i - x_j)|^alpha
    harmonic_calogero:    prod |x_i - x_j|^alpha exp(-beta (x_i - x_j)^2 / 2)
    """
    n = model.n
    alpha = model.alpha + dalpha
    f = constant(1.0, n)
    for i in range(n):
        for j in range(i + 1, n):
            diff = coordinate(i, n) - coordinate(j, n)
            if model.kind == "calogero_sutherland":
                f = f * diff.sin().abs_pow(alpha)
            elif model.kind == "calogero":
                f = f * diff.abs_pow(alpha)
            else:
                f = f * diff.abs_pow(alpha)
                f = f * (diff.pow_int(2) * (-0.5 * model.beta)).exp()
    return f


# ---------------------------------------------------------------------------
# Operator actions
# ---------------------------------------------------------------------------

def _model_data(model: NBodyModel, x):
    x = np.asarray(x, dtype=float)
    return (x, *model.prepotential_and_jacobian(x))


def apply_annihilator(model: NBodyModel, i: int, f: TestFunction, x) -> Jet1:
    """(A_i f)(x) = d_i f + W_i f, with its exact gradient."""
    x, W, J = _model_data(model, x)
    jet = f.jet(x)
    value = jet.g[i] + W[i] * jet.v
    grad = jet.h[:, i] + J[:, i] * jet.v + W[i] * jet.g
    return Jet1(float(value), grad)


def apply_creator(model: NBodyModel, i: int, f: TestFunction, x) -> Jet1:
    """(A+_i f)(x) = -d_i f + W_i f, with its exact gradient."""
    x, W, J = _model_data(model, x)
    jet = f.jet(x)
    value = -jet.g[i] + W[i] * jet.v
    grad = -jet.h[:, i] + J[:, i] * jet.v + W[i] * jet.g
    return Jet1(float(value), grad)


def apply_to_jet1(model: NBodyModel, kind: str, i: int, j1: Jet1, x) -> float:
    """Apply one more ladder operator to a Jet1; exhausts the jet.

    kind is 'a' (annihilator) or 'adag' (creator).  The result is a bare
    value: a third application would need a gradient that no longer exists.
    """
    if not isinstance(j1, Jet1):
        raise JetOrderError("second application requires a Jet1; "
                            "jets deeper than two operators are not supported")
    x = np.asarray(x, dtype=float)
    W = model.prepotential(x)
    if kind == "a":
        return float(j1.gradient[i] + W[i] * j1.value)
    if kind == "adag":
        return float(-j1.gradient[i] + W[i] * j1.value)
    raise DomainError(f"operator kind must be 'a' or 'adag', got {kind!r}")


def apply_product(model: NBodyModel, outer, inner, f: TestFunction, x) -> float:
    """(Outer Inner f)(x) where each op is a ('a'|'adag', index) pair."""
    okind, oi = outer
    ikind, ii = inner
    first = (apply_annihilator if ikind == "a" else apply_creator)(model, ii, f, x)
    return apply_to_jet1(model, okind, oi, first, x)


def commutator_value(model: NBodyModel, op1, op2, f: TestFunction, x) -> float:
    """([Op1, Op2] f)(x) via the two depth-2 products."""
    return (apply_product(model, op1, op2, f, x)
            - apply_product(model, op2, op1, f, x))


def apply_hamiltonian_direct(model: NBodyModel, f: TestFunction, x) -> float:
    """(-sum_i d_i^2 + V) f with the model's pair potential and constant."""
    x = np.asarray(x, dtype=float)
    jet = f.jet(x)
    return float(-np.trace(jet.h) + model.potential(x) * jet.v)


def apply_hamiltonian_factorized(model: NBodyModel, f: TestFunction, x) -> float:
    """sum_i (A+_i A_i f)(x), assembled operator by operator."""
    x, W, J = _model_data(model, x)
    jet = f.jet(x)
    # value_i = (A_i f), grad_i = d_i (A_i f); then contract with A+_i
    values = jet.g + W * jet.v
    diag_grad = np.diag(jet.h) + np.diag(J) * jet.v + W * jet.g
    return float(np.sum(-diag_grad + W * values))


def apply_partner(model: NBodyModel, f: TestFunction, x) -> float:
    """sum_i (A_i A+_i f)(x), the partner assembled operator by operator."""
    x, W, J = _model_data(model, x)
    jet = f.jet(x)
    values = -jet.g + W * jet.v
    diag_grad = -np.diag(jet.h) + np.diag(J) * jet.v + W * jet.g
    return float(np.sum(diag_grad + W * values))


def total_momentum(model: NBodyModel, f: TestFunction, x) -> float:
    """Real coefficient of -i in (P_tot f)(x), i.e. sum_i d_i f(x).

    Internally cross-checks that sum_i W_i vanishes, which is what makes
    -i sum A_i and +i sum A+_i the same operator.
    """
    x = np.asarray(x, dtype=float)
    W = model.prepotential(x)
    jet = f.jet(x)
    via_ladder = float(np.sum(jet.g) + np.sum(W) * jet.v)
    plain = float(np.sum(jet.g))
    tol = 1e-10 * max(1.0, abs(plain), np.max(np.abs(W)) * abs(jet.v))
    if abs(via_ladder - plain) > tol:
        raise RuntimeError("prepotential sum failed to cancel in total momentum")
    return plain


def jacobi_matrix(n: int) -> np.ndarray:
    """Orthogonal recombination with the uniform mode in the last row."""
    u = np.zeros((n, n))
    for k in range(1, n):
        norm = 1.0 / np.sqrt(k * (k + 1))
        u[k - 1, :k] = norm
        u[k - 1, k] = -k * norm
    u[n - 1, :] = 1.0 / np.sqrt(n)
    return u


def jacobi_action(model: NBodyModel, i: int, f: TestFunction, x) -> Jet1:
    """(B_i f)(x): row i (0-based) of the orthogonal recombination of the A_j.

    B_{N-1} is proportional to the total momentum; sum_i B+_i B_i equals
    sum_i A+_i A_i because the recombination matrix is orthogonal.
    """
    n = model.n
    if not 0 <= i < n:
        raise DomainError(f"index {i} out of range for n={n}")
    u = jacobi_matrix(n)
    x = np.asarray(x, dtype=float)
    value = 0.0
    grad = np.zeros(n)
    for j in range(n):
        if u[i, j] == 0.0:
            continue
        j1 = apply_annihilator(model, j, f, x)
        value += u[i, j] * j1.value
        grad += u[i, j] * j1.gradient
    return Jet1(float(value), grad)


def jacobi_creator(model: NBodyModel, i: int, f: TestFunction, x) -> Jet1:
    """(B+_i f)(x): the adjoint recombination, as a first application."""
    n = model.n
    if not 0 <= i < n:
        raise DomainError(f"index {i} out of range for n={n}")
    u = jacobi_matrix(n)
    value = 0.0
    grad = np.zeros(n)
    for j in range(n):
        if u[i, j] == 0.0:
            continue
        j1 = apply_creator(model, j, f, x)
        value += u[i, j] * j1.value
        grad += u[i, j] * j1.gradient
    return Jet1(float(value), grad)


def jacobi_to_jet1(model: NBodyModel, kind: str, i: int, j1: Jet1, x) -> float:
    """Apply B_i (kind 'a') or B+_i (kind 'adag') to a Jet1; exhausts it."""
    u = jacobi_matrix(model.n)
    return float(sum(u[i, j] * apply_to_jet1(model, kind, j, j1, x)
                     for j in range(model.n) if u[i, j] != 0.0))


def residual_scale(model: NBodyModel, f: TestFunction, x) -> float:
    """max(1, |f|, |grad f|, |hess f|, |V(x)|): the relative-residual scale."""
    x = np.asarray(x, dtype=float)
    jet = f.jet(x)
    return float(max(1.0, abs(jet.v), np.max(np.abs(jet.g)),
                     np.max(np.abs(jet.h)), abs(model.potential(x))))
