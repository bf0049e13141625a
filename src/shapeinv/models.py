"""Model definitions: 1-D shape-invariant prepotential families, N-body
pair-interaction models with their ladder prepotentials W_i, and the pair
rows entering the cross-term balance condition.

Conventions used across the whole package (units hbar = 1, 2m = 1):

    A = d/dx + W,   A+ = -d/dx + W,
    H = A+ A = -d2/dx2 + (W^2 - W'),   partner = A A+ = -d2/dx2 + (W^2 + W').

Ground states therefore satisfy psi0 ~ exp(-int W).  All prepotentials here
are odd, W(-x) = -W(x), which is what makes the N-body cross terms reducible
to pair terms (see ``balance_gap``).

Each family formula is written once, in ``FAMILIES``, and only
``Prepotential1D`` evaluates it: every 1-D W is one ``Prepotential1D``,
whether it is a family of its own or the W of a pair row
(``PairPrepotential.prep``), which the N-body pair term w(x_i - x_j) and the
N = 2 relative problem share.  Everything the rest of the package knows
about an N-body kind is its ``Kind`` row in ``KINDS``: the pair row of its
pair prepotential, with that row's parameters, and the closed forms that the
identity checks compare against, written out apart from ``FAMILIES``.  The
pair row is the kind's one statement of the cross-term balance condition,
which `verify` checks as the three-body cancellation.  No other module names
a kind or a pair row, so a new kind is one row.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SingularConfigurationError


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One row of the shape-invariant superpotential table (Cooper, Khare &
    Sukhatme, Phys. Rep. 251, 267 (1995)): every formula of one 1-D family.

    The formulas take the parameters in the order `params` names them;
    `w`, `w_prime` and `log_psi0` take the point x first.
    """

    params: tuple            # parameter names, in order
    w: Callable
    w_prime: Callable
    log_psi0: Callable       # -int W, unnormalized
    next_params: Callable    # the parameter map f
    remainder_next: Callable  # R(f(params)), the energy shift of A A+
    domain: Callable         # natural cell on which W and V are smooth
    normalizable: Callable   # exp(-int W) square-integrable on that cell
    nonnegative: tuple = ()  # parameters that must be >= 0
    x_scale: str | None = None  # W depends on x only through x_scale * x
    aliases: tuple = ()
    w_prime_delta: Callable | None = None  # weight of delta(x) in W', where W jumps at 0


FAMILIES = {
    "rosen_morse_trig": Family(
        ("b", "a"),
        w=lambda x, b, a: -b / np.tan(a * x),
        w_prime=lambda x, b, a: a * b / np.sin(a * x) ** 2,
        log_psi0=lambda x, b, a: (b / a) * np.log(np.abs(np.sin(a * x))),
        next_params=lambda b, a: (b + a, a),
        remainder_next=lambda b, a: (b + a) ** 2 - b ** 2,
        domain=lambda b, a: (0.0, math.pi / a) if a > 0 else (0.0, math.inf),
        # boundary exponent b/a; both endpoint behaviors are integrable down
        # to b/a > -1/2, but below 1/2 the partner solution is also
        # normalizable and the ground state is not selected uniquely
        normalizable=lambda b, a: b / a > 0.5,
        nonnegative=("a", "b"), x_scale="a",
        aliases=("rosen-morse", "rosen_morse")),
    "rational_harmonic": Family(
        ("a", "b"),
        w=lambda x, a, b: a * x + b / x,
        w_prime=lambda x, a, b: a - b / x ** 2,
        log_psi0=lambda x, a, b: -0.5 * a * x ** 2 - b * np.log(np.abs(x)),
        next_params=lambda a, b: (a, b - 1.0),
        remainder_next=lambda a, b: 4.0 * a,
        domain=lambda a, b: (0.0, math.inf),
        normalizable=lambda a, b: a > 0 and b < 0.5,
        nonnegative=("a",), aliases=("rational",)),
    "sign": Family(
        ("a",),
        w=lambda x, a: a * np.sign(x),
        # W' off the origin; its spike 2a delta(x) is w_prime_delta, which
        # spectral.discretize puts on the grid node at x = 0
        w_prime=lambda x, a: np.zeros_like(x),
        log_psi0=lambda x, a: -a * np.abs(x),
        next_params=lambda a: (-a,),
        remainder_next=lambda a: 0.0,
        domain=lambda a: (-math.inf, math.inf),  # minus the origin
        normalizable=lambda a: a > 0,
        w_prime_delta=lambda a: 2.0 * a),
    "coth_hyperbolic": Family(
        ("a",),
        w=lambda x, a: a / np.tanh(x),
        w_prime=lambda x, a: -a / np.sinh(x) ** 2,
        log_psi0=lambda x, a: -a * np.log(np.abs(np.sinh(x))),
        next_params=lambda a: (a - 1.0,),
        remainder_next=lambda a: a ** 2 - (a - 1.0) ** 2,
        domain=lambda a: (0.0, math.inf),
        normalizable=lambda a: 0 < a < 0.5,
        aliases=("coth",)),
}
FAMILIES_1D = tuple(FAMILIES)


@dataclass(frozen=True)
class Kind:
    """One N-body kind: the pair row of its pair prepotential w(x_i - x_j)
    and the closed forms that the identity checks compare against, written
    out here and never read from ``FAMILIES``, so that no check compares the
    family table with itself.  Every callable takes the model.
    """

    pair: str                 # PAIR_ROWS row of w
    pair_params: Callable     # that row's parameters
    period: float | None      # singular period: pair terms in sin(x_i - x_j), not x_i - x_j
    confined: bool            # takes omega and beta: (N beta^2/2) (x_i - x_j)^2 pair term
    c: Callable               # additive constant of the standard potential
    remainder: Callable       # closed-form shift R(alpha + 1)
    normalizable: Callable    # product ground state square-integrable
    aliases: tuple = ()


KINDS = {
    "calogero": Kind(
        "rational_harmonic", lambda m: (0.0, -m.alpha), period=None, confined=False,
        c=lambda m: 0.0, remainder=lambda m: 0.0,
        normalizable=lambda m: False),  # no confinement: a formal zero mode only
    "harmonic_calogero": Kind(
        "rational_harmonic", lambda m: (m.beta, -m.alpha), period=None, confined=True,
        # sum W_i^2 - sum d_i W_i = N beta^2 sum_{i<j} x_ij^2 + g sum_{i<j} x_ij^-2 + c:
        # the three-body alpha beta terms sum to 3 per triple
        c=lambda m: -m.n * (m.n - 1) * m.beta * (m.alpha * m.n + 1),
        remainder=lambda m: m.n * (m.n - 1) * (m.n + 2) * m.beta,
        # pair Gaussians confine the relative coordinates, not the center of mass
        normalizable=lambda m: m.beta > 0 and m.alpha > -0.5),
    "calogero_sutherland": Kind(
        "cot", lambda m: (-m.alpha,), period=math.pi, confined=False,
        c=lambda m: -m.alpha ** 2 * m.n * (m.n ** 2 - 1) / 3.0,
        remainder=lambda m: ((m.alpha + 1.0) ** 2 - m.alpha ** 2) * m.n * (m.n ** 2 - 1) / 3.0,
        normalizable=lambda m: m.alpha > -0.5, aliases=("cs",)),
}
NBODY_KINDS = tuple(KINDS)
KIND_NAMES = {name: kind for kind, row in KINDS.items()
              for name in (kind, *row.aliases)}
FAMILY_NAMES = {name: family for family, row in FAMILIES.items()
                for name in (family, *row.aliases)}


@dataclass(frozen=True)
class PairRow:
    """One pair row of the cross-term balance condition: the 1-D family of
    its W and the closed forms that the checks compare against, written out
    here and never read from ``FAMILIES``.  The closed forms take x, then
    the row's parameters.
    """

    family: str               # 1-D family of W
    params: Callable          # that family's parameters, from the row's
    names: tuple              # the row's parameter names, in order
    v0: Callable              # W^2 - W', valid for x != 0
    vtilde0: Callable         # the companion that balances the cross-pair products
    v0_delta_note: str | None = None  # distributional piece never evaluated numerically


PAIR_ROWS = {
    "rational_harmonic": PairRow(
        "rational_harmonic", lambda a, b: (a, b), ("a", "b"),
        v0=lambda x, a, b: a ** 2 * x ** 2 + 2 * a * b - a + b * (b + 1) / x ** 2,
        vtilde0=lambda x, a, b: a * b + 0.5 * a ** 2 * x ** 2),
    # the sign and coth rows balance with the opposite sign of the cot row:
    # their pair products sum to -a^2 rather than +a^2 on A + B + C = 0
    "sign": PairRow(
        "sign", lambda a: (a,), ("a",),
        v0=lambda x, a: np.full_like(x, a ** 2),
        vtilde0=lambda x, a: np.full_like(x, a ** 2 / 3.0),
        v0_delta_note="v0 carries -2*a*delta(x) at the origin; numeric v0 is valid for x != 0"),
    "cot": PairRow(
        "rosen_morse_trig", lambda a: (-a, 1.0), ("a",),
        v0=lambda x, a: a * (a + 1) / np.sin(x) ** 2 - a ** 2,
        vtilde0=lambda x, a: np.full_like(x, -a ** 2 / 3.0)),
    "coth": PairRow(
        "coth_hyperbolic", lambda a: (a,), ("a",),
        v0=lambda x, a: a * (a + 1) / np.sinh(x) ** 2 + a ** 2,
        vtilde0=lambda x, a: np.full_like(x, a ** 2 / 3.0)),
}
PAIR_FAMILIES = tuple(PAIR_ROWS)


# ---------------------------------------------------------------------------
# 1-D shape-invariant families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prepotential1D:
    """A 1-D prepotential W(x; params) with its partner parameter map.

    family      one of ``FAMILIES_1D``
    params      in the order ``FAMILIES[family].params`` names them: (b, a)
                for rosen_morse_trig, (a, b) for rational_harmonic, (a,) for
                sign and coth_hyperbolic
    """

    family: str
    params: tuple

    def _evaluable(self) -> Family:
        """The family's table row; DomainError when W cannot be evaluated."""
        row = FAMILIES[self.family]
        if row.x_scale is not None and self.params[row.params.index(row.x_scale)] == 0.0:
            raise DomainError(f"{self.family} with {row.x_scale} = 0 has no evaluable W")
        return row

    # -- pointwise data ----------------------------------------------------
    def w(self, x):
        return self._evaluable().w(np.asarray(x, dtype=float), *self.params)

    def w_prime(self, x):
        return self._evaluable().w_prime(np.asarray(x, dtype=float), *self.params)

    def w_prime_delta(self) -> float:
        """Weight of the delta(x) spike in W' (0 where W has no jump)."""
        row = FAMILIES[self.family]
        return 0.0 if row.w_prime_delta is None else row.w_prime_delta(*self.params)

    def potential(self, x):
        """V(x) = W^2 - W', the potential factorized by A+ A, off any spike
        of W' (see ``w_prime_delta``)."""
        return self.w(x) ** 2 - self.w_prime(x)

    def partner_potential(self, x):
        """W^2 + W', the potential of the partner A A+."""
        return self.w(x) ** 2 + self.w_prime(x)

    def log_ground_state(self, x):
        """log psi0 = -int W, in closed form per family (unnormalized)."""
        return self._evaluable().log_psi0(np.asarray(x, dtype=float), *self.params)

    def ground_state_normalizable(self) -> bool:
        """Square-integrability of exp(-int W) on the family's natural cell."""
        return self._evaluable().normalizable(*self.params)

    def domain(self):
        """Natural cell on which W and the potential are smooth."""
        return FAMILIES[self.family].domain(*self.params)

    # -- parameter map -----------------------------------------------------
    def next_params(self) -> tuple:
        return FAMILIES[self.family].next_params(*self.params)

    def step(self) -> "Prepotential1D":
        """The partner-parameter model; the family tag never changes."""
        return make_prepotential_1d(self.family, self.next_params())

    def remainder_next(self) -> float:
        """R evaluated at the mapped parameters (the energy shift of AA+)."""
        return FAMILIES[self.family].remainder_next(*self.params)


def make_prepotential_1d(family: str, params) -> Prepotential1D:
    """Construct a validated 1-D prepotential.

    Raises DomainError for a parameter that is not finite, or negative
    where the family requires it nonnegative.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown 1-D family {family!r}; expected one of {FAMILIES_1D}")
    row = FAMILIES[family]
    params = tuple(float(p) for p in np.atleast_1d(params))
    if len(params) != len(row.params):
        raise DomainError(f"{family} takes {len(row.params)} parameter(s), got {params}")
    named = dict(zip(row.params, params))
    for name, value in named.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    for name in row.nonnegative:
        if named[name] < 0:
            raise DomainError(f"{family} requires {name} >= 0, got {name}={named[name]}")
    return Prepotential1D(family, params)


# ---------------------------------------------------------------------------
# N-body models
# ---------------------------------------------------------------------------

def _set_diagonal(a: np.ndarray, value):
    """Write `value` onto the diagonal of every trailing (N, N) block of a."""
    np.einsum("...ii->...i", a)[...] = value


@dataclass(frozen=True)
class NBodyModel:
    """An N-body model with pairwise prepotential W_i = sum_j' w(x_i - x_j).

    w is the W of the 1-D family that the kind's row of ``KINDS`` names.
    The coupling is g = 2 alpha (alpha - 1).  For the harmonic kind, `beta`
    scales the linear pair term in w and every closed form is written in it;
    omega only sets its default, omega / (2 sqrt N).  At beta = omega / sqrt(2N)
    the pair potential is the textbook (omega^2/4) sum_{i != j} (x_i - x_j)^2.
    """

    kind: str
    n: int
    alpha: float
    omega: float | None = None
    beta: float | None = None
    eps_sing: float = 1e-6

    @property
    def g(self) -> float:
        return 2.0 * self.alpha * (self.alpha - 1.0)

    @property
    def c(self) -> float:
        """Additive constant of the model's standard potential form: 0 for
        calogero, -alpha^2 N (N^2-1)/3 for calogero_sutherland and
        -N (N-1) beta (alpha N + 1) for harmonic_calogero."""
        return self.kind_row.c(self)

    @property
    def kind_row(self) -> Kind:
        return KINDS[self.kind]

    # -- pair functions ----------------------------------------------------
    @functools.cached_property
    def pair(self) -> "PairPrepotential":
        """The kind's pair row at this model's parameters."""
        return PairPrepotential(self.kind_row.pair, self.kind_row.pair_params(self))

    def pair_w(self, r):
        return self.pair.prep.w(r)

    def pair_w_prime(self, r):
        return self.pair.prep.w_prime(r)

    def pair_log_jastrow(self, r):
        """log of the pair factor of the product ground state."""
        return self.pair.prep.log_ground_state(r)

    # -- configuration-level evaluation -------------------------------------
    # Each method takes one configuration (N,) or a batch (M, N) of them;
    # a batch gives one value (or one row) per configuration.
    def separation_margin(self, x):
        """Distance of the closest pair to its nearest singular hyperplane."""
        x = np.asarray(x, dtype=float)
        d = x[..., :, None] - x[..., None, :]
        period = self.kind_row.period
        if period:
            # singular whenever x_i - x_j is a multiple of the period
            d = d - period * np.round(d / period)
        d = np.abs(d)
        _set_diagonal(d, math.inf)
        return d.min(axis=(-2, -1))

    def check_configuration(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,) or x.ndim > 2:
            raise DomainError(f"configuration must have shape ({self.n},) or "
                              f"(M, {self.n}), got {x.shape}")
        margin = self.separation_margin(x).min(initial=math.inf)
        if margin < self.eps_sing:
            raise SingularConfigurationError(
                f"configuration within {margin:.3e} of a singular hyperplane "
                f"(eps_sing={self.eps_sing:.1e})")
        return x

    def _diff(self, x):
        d = x[..., :, None] - x[..., None, :]
        _set_diagonal(d, 1.0)  # dummy, masked out by callers
        return d

    def _w_from_diff(self, d) -> np.ndarray:
        w = self.pair_w(d)
        _set_diagonal(w, 0.0)
        return w.sum(axis=-1)

    def _jacobian_from_diff(self, d) -> np.ndarray:
        wp = self.pair_w_prime(d)
        _set_diagonal(wp, 0.0)
        jac = -wp
        _set_diagonal(jac, wp.sum(axis=-1))
        return jac

    def prepotential(self, x) -> np.ndarray:
        """W_i(x) for i = 1..N.  Sums to zero at every configuration."""
        return self._w_from_diff(self._diff(self.check_configuration(x)))

    def prepotential_jacobian(self, x) -> np.ndarray:
        """Matrix J[i, j] = d W_j / d x_i (symmetric: the field is curl-free)."""
        return self._jacobian_from_diff(self._diff(self.check_configuration(x)))

    def prepotential_and_jacobian(self, x):
        """(prepotential(x), prepotential_jacobian(x)) from one singularity
        check and one difference array."""
        d = self._diff(self.check_configuration(x))
        return self._w_from_diff(d), self._jacobian_from_diff(d)

    def pair_potential(self, x):
        """The standard pair interaction, without the additive constant.

        Written out here rather than from the family table, so that the
        factorization checks compare the ladder products against it."""
        x = self.check_configuration(x)
        d = self._diff(x)
        inv_sq = 1.0 / (np.sin(d) if self.kind_row.period else d) ** 2
        _set_diagonal(inv_sq, 0.0)
        v = (self.g / 2.0) * inv_sq.sum(axis=(-2, -1))
        if self.kind_row.confined:
            sq = d ** 2
            _set_diagonal(sq, 0.0)
            v = v + 0.5 * self.n * self.beta ** 2 * sq.sum(axis=(-2, -1))
        return v

    def potential(self, x):
        return self.pair_potential(x) + self.c

    def ladder_potential(self, x, partner: bool = False):
        """sum_i W_i^2 -/+ sum_i d_i W_i, the potential assembled by the
        ladder products (partner=True flips the derivative sign)."""
        x = self.check_configuration(x)
        d = self._diff(x)
        w = self.pair_w(d)
        _set_diagonal(w, 0.0)
        wp = self.pair_w_prime(d)
        _set_diagonal(wp, 0.0)
        wsq = np.sum(w.sum(axis=-1) ** 2, axis=-1)
        trace = wp.sum(axis=(-2, -1))
        return wsq + trace if partner else wsq - trace

    def shifted(self, dalpha: float = 1.0) -> "NBodyModel":
        """Same model at coupling alpha + dalpha (beta and omega unchanged)."""
        return NBodyModel(self.kind, self.n, self.alpha + dalpha,
                          self.omega, self.beta, self.eps_sing)

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "n": self.n, "alpha": self.alpha}
        if self.kind_row.confined:
            d["omega"] = self.omega
            d["beta"] = self.beta
        return d


def make_nbody_model(kind: str, n: int, alpha: float, omega: float | None = None,
                     beta: float | None = None, eps_sing: float = 1e-6) -> NBodyModel:
    """Construct a validated N-body model.

    n must be an integer (a bool or a float is rejected, not truncated).
    omega is required by the confined kind (harmonic_calogero) and rejected
    by the others, and so is an explicit beta; beta defaults to
    omega / (2 sqrt N) and may be overridden.  Every parameter given must
    be finite.
    """
    if kind not in NBODY_KINDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {NBODY_KINDS}")
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise DomainError(f"particle count must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise DomainError(f"need at least 2 particles, got n={n}")
    for name, value in (("alpha", alpha), ("omega", omega), ("beta", beta),
                        ("eps_sing", eps_sing)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if KINDS[kind].confined:
        if omega is None:
            raise DomainError(f"{kind} requires omega")
        if beta is None:
            beta = omega / (2.0 * math.sqrt(n))
    elif omega is not None:
        raise DomainError(f"{kind} does not take omega")
    elif beta is not None:
        raise DomainError(f"{kind} does not take beta")
    if eps_sing <= 0:
        raise DomainError("eps_sing must be positive")
    return NBodyModel(kind, n, float(alpha), omega, beta, float(eps_sing))


def remainder_shift(model: NBodyModel) -> float:
    """R(alpha+1): the constant by which the partner sum A A+ exceeds the
    ladder sum A+ A at shifted coupling, in closed form: 0 for calogero,
    ((alpha+1)^2 - alpha^2) N (N^2-1)/3 for calogero_sutherland and
    N (N-1) (N+2) beta for harmonic_calogero."""
    return model.kind_row.remainder(model)


# ---------------------------------------------------------------------------
# Pair rows of the cross-term balance condition
# ---------------------------------------------------------------------------

def balance_gap(w, vtilde, A, B, C):
    """The cross-term balance condition at A + B + C = 0,

        -[w(A)w(B) + w(B)w(C) + w(C)w(A)] = vtilde(A) + vtilde(B) + vtilde(C),

    as (lhs - rhs, the pair products w(A)w(B), w(B)w(C), w(C)w(A) stacked on
    a last axis of 3).  It holds for every pair row, and then sum_i W_i^2 of
    W_i = sum_j' w(x_i - x_j) has no three-body term."""
    wa, wb, wc = w(A), w(B), w(C)
    # rows of a C-contiguous (..., 3) array sum in the order of a 3-vector
    products = np.stack([wa * wb, wb * wc, wc * wa], axis=-1)
    return -products.sum(axis=-1) - (vtilde(A) + vtilde(B) + vtilde(C)), products


@dataclass(frozen=True)
class PairPrepotential:
    """A 2-body prepotential row: its W as the 1-D prepotential `prep`, with
    companions v0 and vtilde0.

    v0 = W^2 - W' pointwise; vtilde0 balances the cross-pair products
    (``balance_gap``).  prep's ground state exp(-int W) is the pair factor
    of the product ground state.
    """

    family: str
    params: tuple

    @property
    def row(self) -> PairRow:
        return PAIR_ROWS[self.family]

    @functools.cached_property
    def prep(self) -> Prepotential1D:
        """The row's W as a 1-D prepotential of its family.  Not validated:
        the N-body pair term takes parameters (CS at -1/2 < alpha < 0) that
        the 1-D problem rejects."""
        return Prepotential1D(self.row.family, self.row.params(*self.params))

    def v0(self, x):
        """Closed-form W^2 - W' (valid for x != 0; see the row's v0_delta_note),
        from the pair row rather than the family table, so that it checks
        the table's W and W'."""
        return self.row.v0(np.asarray(x, dtype=float), *self.params)

    def vtilde0(self, x):
        return self.row.vtilde0(np.asarray(x, dtype=float), *self.params)

    def condition_residual(self, A, B):
        """|lhs - rhs| of the balance condition at C = -A - B."""
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        return np.abs(balance_gap(self.prep.w, self.vtilde0, A, B, -A - B)[0])


def make_pair_prepotential(family: str, *params) -> PairPrepotential:
    """Construct a pair row.  Raises DomainError for a parameter that is
    not finite."""
    if family not in PAIR_FAMILIES:
        raise DomainError(f"unknown pair family {family!r}; expected one of {PAIR_FAMILIES}")
    row = PAIR_ROWS[family]
    params = tuple(float(p) for p in params)
    if len(params) != len(row.names):
        raise DomainError(f"{family} takes {len(row.names)} parameter(s), got {params}")
    for name, value in zip(row.names, params):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    return PairPrepotential(family, params)
