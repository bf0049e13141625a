"""Exact-derivative test functions (2-jets) and the pointwise action of the
ladder operators, Hamiltonians, total momentum and the orthogonal recombined
basis on them.

A Jet2 carries (value, gradient, hessian) at a single configuration; jets
propagate through arithmetic, exp, sin/cos and |u|^p exactly, so operator
identities can be checked to roundoff without any differencing error.

A Jet2 may also carry a leading batch axis: one test function, built from
every trial's parameters stacked into arrays, evaluated once at the stacked
configurations (T, n).  Each row equals the jet of that trial's own test
function bit for bit.  That holds because every operation is elementwise and
every power goes through np.float_power: on arrays `**` may differ from
Python's float ** int in the last bit, while exp, sin and cos match.

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
    "Jet1", "Jet2", "TestFunction", "constant", "draw_test_parameters",
    "build_test_function", "random_test_function", "jastrow_function",
    "apply_annihilator", "apply_creator", "apply_to_jet1", "apply_product",
    "commutator_value", "apply_hamiltonian_direct",
    "apply_hamiltonian_factorized", "apply_partner", "total_momentum",
    "jacobi_matrix", "jacobi_action", "jacobi_creator", "jacobi_to_jet1",
    "residual_scale",
]


def _vec(c):
    """A scalar or per-trial (T,) factor, shaped to scale gradients (T, n)."""
    return c[..., None] if np.ndim(c) else c


def _mat(c):
    """A scalar or per-trial (T,) factor, shaped to scale hessians (T, n, n)."""
    return c[..., None, None] if np.ndim(c) else c


def _outer(a, b):
    """np.outer over the last axis, per trial."""
    return a[..., :, None] * b[..., None, :]


class Jet2:
    """Second-order jet: value v, gradient g (n,), hessian h (n, n).

    An optional leading batch axis stacks T independent jets: v (T,),
    g (T, n), h (T, n, n).  Constants combined with a stacked jet may be
    scalars or per-trial arrays (T,).
    """

    __slots__ = ("v", "g", "h")
    __array_ufunc__ = None  # ndarray * jet defers to __rmul__

    def __init__(self, v, g, h):
        self.v = v if np.ndim(v) else float(v)
        self.g = g
        self.h = h

    @property
    def n(self):
        return self.g.shape[-1]

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
            cross = _outer(self.g, other.g)
            return Jet2(self.v * other.v,
                        _vec(self.v) * other.g + _vec(other.v) * self.g,
                        _mat(self.v) * other.h + _mat(other.v) * self.h
                        + cross + cross.swapaxes(-1, -2))
        return Jet2(self.v * other, self.g * _vec(other), self.h * _mat(other))

    __rmul__ = __mul__

    # -- library functions ----------------------------------------------------
    # Every power goes through np.float_power: on arrays, `**` may differ from
    # Python's float ** int in the last bit, and a stacked jet must equal the
    # per-trial ones bit for bit.
    def _chain(self, f, d1, d2):
        """f(u) with f' = d1 and f'' = d2 at u = v."""
        return Jet2(f, _vec(d1) * self.g,
                    _mat(d1) * self.h + _mat(d2) * _outer(self.g, self.g))

    def exp(self):
        e = np.exp(self.v)
        return Jet2(e, _vec(e) * self.g, _mat(e) * (self.h + _outer(self.g, self.g)))

    def sin(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(c, -s, -c)

    def pow_int(self, k: int):
        if k < 0 or k != int(k):
            raise DomainError("pow_int takes a non-negative integer exponent")
        u = self.v
        if k == 0:
            return Jet2(np.ones_like(u), np.zeros_like(self.g), np.zeros_like(self.h))
        d1 = k * np.float_power(u, k - 1)
        d2 = k * (k - 1) * np.float_power(u, k - 2) if k >= 2 else 0.0
        return self._chain(np.float_power(u, k), d1, d2)

    def abs_pow(self, p: float):
        """|u|^p for u != 0 (chain rule with d|u|^p = p |u|^p / u)."""
        u = self.v
        if np.any(u == 0.0):
            raise DomainError("abs_pow evaluated at a zero of its argument")
        a = np.float_power(np.abs(u), p)
        return self._chain(a, p * a / u,
                           p * (p - 1) * np.float_power(np.abs(u), p - 2))


@dataclass
class Jet1:
    """First-order jet: what remains after one ladder application."""
    value: float
    gradient: np.ndarray


class TestFunction:
    """A point-evaluable scalar field returning exact 2-jets.

    `fn` maps the coordinate jets x_1 ... x_n to the field's Jet2 by plain
    Jet2 arithmetic.  `jet` takes one configuration (n,) or a stack of T
    configurations (T, n); constants in `fn` may then be per-trial arrays
    (T,).
    """

    def __init__(self, n: int, fn):
        self.n = n
        self._fn = fn
        self._last = None  # identity checks hit the same point repeatedly

    def jet(self, x) -> Jet2:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise DomainError(f"expected a configuration of shape ({self.n},) "
                              f"or a stack of shape (T, {self.n})")
        key = (x.shape, x.tobytes())
        if self._last is None or self._last[0] != key:
            self._last = (key, self._fn(_coordinates(x)))
        return self._last[1]

    def __call__(self, x) -> float:
        return self.jet(x).v


def _coordinates(x) -> list:
    """The jets of the coordinates at x (n,) or (T, n).  They share one
    zero hessian: no Jet2 operation writes into its operands."""
    zero = np.zeros(x.shape + x.shape[-1:])
    coords = []
    for i in range(x.shape[-1]):
        g = np.zeros(x.shape)
        g[..., i] = 1.0
        coords.append(Jet2(x[..., i], g, zero))
    return coords


def _constant(c, x) -> Jet2:
    """The constant c, shaped like the coordinate jets x."""
    return Jet2(np.broadcast_to(c, np.shape(x[0].v)), np.zeros(x[0].g.shape),
                np.zeros(x[0].h.shape))


def constant(c, n: int) -> TestFunction:
    """The constant c: a scalar, or one value per trial (T,)."""
    return TestFunction(n, lambda x: _constant(c, x))


SIGMA_RANGE = (0.8, 2.0)   # the Gaussian envelope's width is drawn from it

# Each test-function family is a parameter draw and a build.  The draw
# consumes one trial's rng; the build takes one trial's parameters, or every
# trial's stacked along a leading axis (scalars to (T,), vectors to (T, ...)),
# and then its jet is evaluated at the stacked configurations (T, n).

def _gaussian_parameters(n: int, rng: np.random.Generator):
    mu = rng.uniform(-1.0, 1.0, size=n)
    sigma = rng.uniform(*SIGMA_RANGE)
    c0 = rng.uniform(0.5, 1.5)
    c1 = rng.uniform(-1.0, 1.0, size=n)
    c2 = rng.uniform(-0.5, 0.5, size=n)
    c3 = rng.uniform(-0.2, 0.2, size=n)
    return mu, sigma, c0, c1, c2, c3


def _gaussian(n: int, mu, sigma, c0, c1, c2, c3) -> TestFunction:
    """A degree-<=3 polynomial in x - mu times a Gaussian envelope."""
    def fn(x):
        poly = _constant(c0, x)
        quad = _constant(0.0, x)
        for i in range(n):
            u = x[i] - mu[..., i]
            u2 = u.pow_int(2)
            poly = (poly + c1[..., i] * u + c2[..., i] * u2
                    + c3[..., i] * u.pow_int(3))
            quad = quad + u2
        return poly * (quad * (-0.5 / np.float_power(sigma, 2))).exp()

    return TestFunction(n, fn)


def _periodic_parameters(n: int, rng: np.random.Generator):
    """a (2,), b (2, n), phi (2, n): a, b, phi drawn per factor in turn."""
    factors = [(rng.uniform(1.2, 2.0), rng.uniform(-1.0, 1.0, size=n),
                rng.uniform(0.0, 2 * np.pi, size=n)) for _ in range(2)]
    return tuple(np.array(p) for p in zip(*factors))


def _periodic(n: int, a, b, phi) -> TestFunction:
    """A product of two bounded trigonometric combinations."""
    def fn(x):
        f = _constant(1.0, x)
        for k in range(2):
            term = _constant(a[..., k], x)
            for i in range(n):
                term = term + b[..., k, i] * (x[i] + phi[..., k, i]).sin()
            f = f * term
        return f

    return TestFunction(n, fn)


_TEST_FUNCTIONS = {"gaussian": (_gaussian_parameters, _gaussian),
                   "periodic": (_periodic_parameters, _periodic)}


def _family(model: NBodyModel):
    """(parameter draw, build) of the test-function family its kind names."""
    return _TEST_FUNCTIONS[model.kind_row.test_functions]


def draw_test_parameters(model: NBodyModel, rng: np.random.Generator) -> tuple:
    """One trial's test-function parameters, drawn from rng."""
    return _family(model)[0](model.n, rng)


def build_test_function(model: NBodyModel, params) -> TestFunction:
    """The test function of one trial's parameters, or of every trial's
    stacked: then its jet takes the stacked configurations (T, n)."""
    return _family(model)[1](model.n, *params)


def random_test_function(model: NBodyModel, rng: np.random.Generator) -> TestFunction:
    return build_test_function(model, draw_test_parameters(model, rng))


def jastrow_function(model: NBodyModel) -> TestFunction:
    """Product ground state Phi0 as a TestFunction: the product of each
    orbit's closed-form factors (``Orbit.jastrow``) at alpha . x over its
    roots alpha, such as |sin(x_i - x_j)|^alpha for calogero_sutherland."""
    def fn(x):
        f = _constant(1.0, x)
        for orbit, roots, _ in model.orbits:
            for root in roots:
                y = sum(x[i] * c for i, c in enumerate(root) if c)
                for factor in orbit.jastrow(model, y):
                    f = f * factor
        return f

    return TestFunction(model.n, fn)


# ---------------------------------------------------------------------------
# Operator actions
# ---------------------------------------------------------------------------

def _model_data(model: NBodyModel, x):
    x = np.asarray(x, dtype=float)
    return (x, *model.prepotential_and_jacobian(x))


def _ladder(model: NBodyModel, sign: float, i: int, f: TestFunction, x) -> Jet1:
    """(sign d_i f + W_i f)(x) with its exact gradient: A_i at sign = +1,
    A+_i at sign = -1."""
    x, W, J = _model_data(model, x)
    jet = f.jet(x)
    value = sign * jet.g[i] + W[i] * jet.v
    grad = sign * jet.h[:, i] + J[:, i] * jet.v + W[i] * jet.g
    return Jet1(float(value), grad)


def apply_annihilator(model: NBodyModel, i: int, f: TestFunction, x) -> Jet1:
    """(A_i f)(x) = d_i f + W_i f, with its exact gradient."""
    return _ladder(model, 1.0, i, f, x)


def apply_creator(model: NBodyModel, i: int, f: TestFunction, x) -> Jet1:
    """(A+_i f)(x) = -d_i f + W_i f, with its exact gradient."""
    return _ladder(model, -1.0, i, f, x)


_SIGNS = {"a": 1.0, "adag": -1.0}


def apply_to_jet1(model: NBodyModel, kind: str, i: int, j1: Jet1, x) -> float:
    """Apply one more ladder operator to a Jet1; exhausts the jet.

    kind is 'a' (annihilator) or 'adag' (creator).  The result is a bare
    value: a third application would need a gradient that no longer exists.
    """
    if not isinstance(j1, Jet1):
        raise JetOrderError("second application requires a Jet1; "
                            "jets deeper than two operators are not supported")
    if kind not in _SIGNS:
        raise DomainError(f"operator kind must be 'a' or 'adag', got {kind!r}")
    W = model.prepotential(np.asarray(x, dtype=float))
    return float(_SIGNS[kind] * j1.gradient[i] + W[i] * j1.value)


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


def _ladder_sum(model: NBodyModel, sign: float, f: TestFunction, x) -> float:
    """sum_i (L-_i L_i f)(x), where L_i = sign d_i + W_i is applied first and
    L-_i = -sign d_i + W_i second, assembled operator by operator."""
    x, W, J = _model_data(model, x)
    jet = f.jet(x)
    # values_i = (L_i f), diag_grad_i = d_i (L_i f); then contract with L-_i
    values = sign * jet.g + W * jet.v
    diag_grad = sign * np.diag(jet.h) + np.diag(J) * jet.v + W * jet.g
    return float(np.sum(-sign * diag_grad + W * values))


def apply_hamiltonian_factorized(model: NBodyModel, f: TestFunction, x) -> float:
    """sum_i (A+_i A_i f)(x), assembled operator by operator."""
    return _ladder_sum(model, 1.0, f, x)


def apply_partner(model: NBodyModel, f: TestFunction, x) -> float:
    """sum_i (A_i A+_i f)(x), the partner assembled operator by operator."""
    return _ladder_sum(model, -1.0, f, x)


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


def _jacobi(model: NBodyModel, sign: float, i: int, f: TestFunction, x) -> Jet1:
    """Row i of the orthogonal recombination of the A_j (sign = +1) or of
    the A+_j (sign = -1), as a first application."""
    n = model.n
    if not 0 <= i < n:
        raise DomainError(f"index {i} out of range for n={n}")
    u = jacobi_matrix(n)
    first = apply_annihilator if sign > 0 else apply_creator
    value = 0.0
    grad = np.zeros(n)
    for j in range(n):
        if u[i, j] == 0.0:
            continue
        j1 = first(model, j, f, x)
        value += u[i, j] * j1.value
        grad += u[i, j] * j1.gradient
    return Jet1(float(value), grad)


def jacobi_action(model: NBodyModel, i: int, f: TestFunction, x) -> Jet1:
    """(B_i f)(x): row i (0-based) of the orthogonal recombination of the A_j.

    B_{N-1} is proportional to the total momentum; sum_i B+_i B_i equals
    sum_i A+_i A_i because the recombination matrix is orthogonal.
    """
    return _jacobi(model, 1.0, i, f, x)


def jacobi_creator(model: NBodyModel, i: int, f: TestFunction, x) -> Jet1:
    """(B+_i f)(x): the adjoint recombination, as a first application."""
    return _jacobi(model, -1.0, i, f, x)


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
