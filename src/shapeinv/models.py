"""Model definitions: 1-D shape-invariant prepotential families, N-body
pair-interaction models with their ladder prepotentials W_i, and the pair
rows entering the cross-term balance condition.

Conventions used across the whole package (units hbar = 1, 2m = 1):

    A = d/dx + W,   A+ = -d/dx + W,
    H = A+ A = -d2/dx2 + (W^2 - W'),   partner = A A+ = -d2/dx2 + (W^2 + W').

Ground states therefore satisfy psi0 ~ exp(-int W).  All prepotentials here
are odd, W(-x) = -W(x), which is what makes the N-body cross terms reducible
to pair terms (see ``PairPrepotential.condition_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularConfigurationError

FAMILIES_1D = ("rosen_morse_trig", "rational_harmonic", "sign", "coth_hyperbolic")
NBODY_KINDS = ("calogero", "harmonic_calogero", "calogero_sutherland")
PAIR_FAMILIES = ("rational_harmonic", "sign", "cot", "coth")


# ---------------------------------------------------------------------------
# 1-D shape-invariant families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prepotential1D:
    """A 1-D prepotential W(x; params) with its partner parameter map.

    family      one of ``FAMILIES_1D``
    params      (b, a) for rosen_morse_trig, (a, b) for rational_harmonic,
                (a,) for sign and coth_hyperbolic
    degenerate  True when the parameter map produces no energy shift
                (e.g. rosen_morse_trig with a = 0)
    """

    family: str
    params: tuple
    degenerate: bool = False

    # -- pointwise data ----------------------------------------------------
    def w(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "rosen_morse_trig":
            b, a = self.params
            if a == 0.0:
                raise DomainError("rosen_morse_trig with a = 0 has no evaluable W")
            return -b / np.tan(a * x)
        if self.family == "rational_harmonic":
            a, b = self.params
            return a * x + b / x
        if self.family == "sign":
            (a,) = self.params
            return a * np.sign(x)
        if self.family == "coth_hyperbolic":
            (a,) = self.params
            return a / np.tanh(x)
        raise DomainError(f"unknown family {self.family!r}")

    def w_prime(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "rosen_morse_trig":
            b, a = self.params
            if a == 0.0:
                raise DomainError("rosen_morse_trig with a = 0 has no evaluable W")
            return a * b / np.sin(a * x) ** 2
        if self.family == "rational_harmonic":
            a, b = self.params
            return a - b / x ** 2
        if self.family == "sign":
            # the delta spike at x = 0 is never evaluated numerically
            return np.zeros_like(x)
        if self.family == "coth_hyperbolic":
            (a,) = self.params
            return -a / np.sinh(x) ** 2
        raise DomainError(f"unknown family {self.family!r}")

    def potential(self, x):
        """V(x) = W^2 - W', the potential factorized by A+ A."""
        return self.w(x) ** 2 - self.w_prime(x)

    def partner_potential(self, x):
        """W^2 + W', the potential of the partner A A+."""
        return self.w(x) ** 2 + self.w_prime(x)

    def log_ground_state(self, x):
        """log psi0 = -int W, in closed form per family (unnormalized)."""
        x = np.asarray(x, dtype=float)
        if self.family == "rosen_morse_trig":
            b, a = self.params
            if a == 0.0:
                raise DomainError("rosen_morse_trig with a = 0 has no evaluable W")
            return (b / a) * np.log(np.abs(np.sin(a * x)))
        if self.family == "rational_harmonic":
            a, b = self.params
            return -0.5 * a * x ** 2 - b * np.log(np.abs(x))
        if self.family == "sign":
            (a,) = self.params
            return -a * np.abs(x)
        if self.family == "coth_hyperbolic":
            (a,) = self.params
            return -a * np.log(np.abs(np.sinh(x)))
        raise DomainError(f"unknown family {self.family!r}")

    def ground_state_normalizable(self) -> bool:
        """Square-integrability of exp(-int W) on the family's natural cell."""
        if self.family == "rosen_morse_trig":
            b, a = self.params
            # boundary exponent b/a; both endpoint behaviors are integrable
            # down to b/a > -1/2, but below 1/2 the partner solution is also
            # normalizable and the ground state is not selected uniquely
            return b / a > 0.5
        if self.family == "rational_harmonic":
            a, b = self.params
            return a > 0 and b < 0.5
        if self.family == "sign":
            (a,) = self.params
            return a > 0
        if self.family == "coth_hyperbolic":
            (a,) = self.params
            return 0 < a < 0.5
        return False

    def domain(self):
        """Natural cell on which W and the potential are smooth."""
        if self.family == "rosen_morse_trig":
            b, a = self.params
            return (0.0, math.pi / a) if a > 0 else (0.0, math.inf)
        if self.family in ("rational_harmonic", "coth_hyperbolic"):
            return (0.0, math.inf)
        return (-math.inf, math.inf)  # sign family, minus the origin

    # -- parameter map -----------------------------------------------------
    def next_params(self) -> tuple:
        if self.family == "rosen_morse_trig":
            b, a = self.params
            return (b + a, a)
        if self.family == "rational_harmonic":
            a, b = self.params
            return (a, b - 1.0)
        if self.family == "sign":
            (a,) = self.params
            return (-a,)
        if self.family == "coth_hyperbolic":
            (a,) = self.params
            return (a - 1.0,)
        raise DomainError(f"unknown family {self.family!r}")

    def step(self) -> "Prepotential1D":
        """The partner-parameter model; the family tag never changes."""
        return make_prepotential_1d(self.family, self.next_params())

    def remainder_next(self) -> float:
        """R evaluated at the mapped parameters (the energy shift of AA+)."""
        if self.family == "rosen_morse_trig":
            b, a = self.params
            return (b + a) ** 2 - b ** 2
        if self.family == "rational_harmonic":
            a, b = self.params
            return 4.0 * a
        if self.family == "sign":
            return 0.0
        if self.family == "coth_hyperbolic":
            (a,) = self.params
            return a ** 2 - (a - 1.0) ** 2
        raise DomainError(f"unknown family {self.family!r}")


def make_prepotential_1d(family: str, params) -> Prepotential1D:
    """Construct a validated 1-D prepotential.

    Raises DomainError for parameters outside the admissible set (for
    rosen_morse_trig: a < 0 is rejected, a = 0 is allowed but flagged
    degenerate since the parameter map produces no shift).
    """
    if family not in FAMILIES_1D:
        raise DomainError(f"unknown 1-D family {family!r}; expected one of {FAMILIES_1D}")
    params = tuple(float(p) for p in np.atleast_1d(params))
    expected_len = {"rosen_morse_trig": 2, "rational_harmonic": 2,
                    "sign": 1, "coth_hyperbolic": 1}[family]
    if len(params) != expected_len:
        raise DomainError(f"{family} takes {expected_len} parameter(s), got {params}")
    degenerate = False
    if family == "rosen_morse_trig":
        b, a = params
        if a < 0:
            raise DomainError(f"rosen_morse_trig requires a >= 0, got a={a}")
        if b < 0:
            raise DomainError(f"rosen_morse_trig requires b >= 0, got b={b}")
        degenerate = (a == 0.0)
    elif family == "rational_harmonic":
        a, b = params
        if a < 0:
            raise DomainError(f"rational_harmonic requires a >= 0, got a={a}")
        degenerate = (a == 0.0)
    elif family == "sign":
        degenerate = (params[0] == 0.0)
    return Prepotential1D(family, params, degenerate)


def remainder_1d(prep: Prepotential1D, params_next) -> float:
    """Energy shift R(params_next) with params_next = f(params) enforced."""
    params_next = tuple(float(p) for p in np.atleast_1d(params_next))
    expected = prep.next_params()
    if len(params_next) != len(expected) or not np.allclose(
            params_next, expected, rtol=1e-12, atol=1e-12):
        raise DomainError(
            f"params_next {params_next} is not the parameter map image {expected}")
    return prep.remainder_next()


# ---------------------------------------------------------------------------
# N-body models
# ---------------------------------------------------------------------------

def _set_diagonal(a: np.ndarray, value):
    """Write `value` onto the diagonal of every trailing (N, N) block of a."""
    np.einsum("...ii->...i", a)[...] = value


@dataclass(frozen=True)
class NBodyModel:
    """An N-body model with pairwise prepotential W_i = sum_j' w(x_i - x_j).

    The coupling is g = 2 alpha (alpha - 1).  For the harmonic kind, `beta`
    scales the linear pair term in w; it defaults to omega / (2 sqrt N) and is
    deliberately overridable because the additive constant and the quadratic
    coefficient of the assembled potential are measured, not assumed (see
    verify.constant_fit_diagnostic).
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
        """Additive constant of the model's standard potential form.

        For calogero_sutherland this is -alpha^2 N (N^2-1)/3 and is exact;
        for harmonic_calogero it is the nominal closed form tied to the
        default normalization and is checked by fit, never trusted blindly.
        """
        if self.kind == "calogero":
            return 0.0
        if self.kind == "calogero_sutherland":
            n = self.n
            return -self.alpha ** 2 * n * (n * n - 1) / 3.0
        n = self.n
        return -(self.omega / math.sqrt(2.0)) * math.sqrt(n) * (n - 1) * (self.alpha * n + 1)

    # -- pair functions ----------------------------------------------------
    def pair_w(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "calogero":
            return -self.alpha / r
        if self.kind == "calogero_sutherland":
            return -self.alpha / np.tan(r)
        return -self.alpha / r + self.beta * r

    def pair_w_prime(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "calogero":
            return self.alpha / r ** 2
        if self.kind == "calogero_sutherland":
            return self.alpha / np.sin(r) ** 2
        return self.alpha / r ** 2 + self.beta

    def pair_log_jastrow(self, r):
        """log of the pair factor of the product ground state."""
        r = np.asarray(r, dtype=float)
        if self.kind == "calogero":
            return self.alpha * np.log(np.abs(r))
        if self.kind == "calogero_sutherland":
            return self.alpha * np.log(np.abs(np.sin(r)))
        return self.alpha * np.log(np.abs(r)) - 0.5 * self.beta * r ** 2

    # -- configuration-level evaluation -------------------------------------
    # Each method takes one configuration (N,) or a batch (M, N) of them;
    # a batch gives one value (or one row) per configuration.
    def separation_margin(self, x):
        """Distance of the closest pair to its nearest singular hyperplane."""
        x = np.asarray(x, dtype=float)
        d = x[..., :, None] - x[..., None, :]
        if self.kind == "calogero_sutherland":
            # singular whenever x_i - x_j is a multiple of pi
            d = d - math.pi * np.round(d / math.pi)
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
        """The standard pair interaction, without the additive constant."""
        x = self.check_configuration(x)
        d = self._diff(x)
        inv_sq = 1.0 / (np.sin(d) if self.kind == "calogero_sutherland" else d) ** 2
        _set_diagonal(inv_sq, 0.0)
        v = (self.g / 2.0) * inv_sq.sum(axis=(-2, -1))
        if self.kind == "harmonic_calogero":
            sq = d ** 2
            _set_diagonal(sq, 0.0)
            v = v + 0.25 * self.omega ** 2 * sq.sum(axis=(-2, -1))
        return v

    def potential(self, x):
        return self.pair_potential(x) + self.c

    def ladder_potential(self, x, partner: bool = False) -> float:
        """sum_i W_i^2 -/+ sum_i d_i W_i, the potential assembled by the
        ladder products (partner=True flips the derivative sign)."""
        x = self.check_configuration(x)
        d = self._diff(x)
        w = self.pair_w(d)
        _set_diagonal(w, 0.0)
        wp = self.pair_w_prime(d)
        _set_diagonal(wp, 0.0)
        wsq = float(np.sum(w.sum(axis=1) ** 2))
        trace = float(wp.sum())
        return wsq + trace if partner else wsq - trace

    def shifted(self, dalpha: float = 1.0) -> "NBodyModel":
        """Same model at coupling alpha + dalpha (beta and omega unchanged)."""
        return NBodyModel(self.kind, self.n, self.alpha + dalpha,
                          self.omega, self.beta, self.eps_sing)

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "n": self.n, "alpha": self.alpha}
        if self.kind == "harmonic_calogero":
            d["omega"] = self.omega
            d["beta"] = self.beta
        return d


def make_nbody_model(kind: str, n: int, alpha: float, omega: float | None = None,
                     beta: float | None = None, eps_sing: float = 1e-6) -> NBodyModel:
    """Construct a validated N-body model.

    omega is required iff kind = harmonic_calogero; beta defaults to
    omega / (2 sqrt N) and may be overridden.
    """
    if kind not in NBODY_KINDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {NBODY_KINDS}")
    n = int(n)
    if n < 2:
        raise DomainError(f"need at least 2 particles, got n={n}")
    if kind == "harmonic_calogero":
        if omega is None:
            raise DomainError("harmonic_calogero requires omega")
        if beta is None:
            beta = omega / (2.0 * math.sqrt(n))
    else:
        if omega is not None:
            raise DomainError(f"{kind} does not take omega")
        beta = None
    if eps_sing <= 0:
        raise DomainError("eps_sing must be positive")
    return NBodyModel(kind, n, float(alpha), omega, beta, float(eps_sing))


def remainder_shift(model: NBodyModel) -> float:
    """R(alpha+1): the constant by which the partner sum A A+ exceeds the
    ladder sum A+ A at shifted coupling.

    Exact closed forms for calogero (0) and calogero_sutherland; for the
    harmonic kind the shift is measured on probe configurations (it is a
    constant; the probe asserts that) because the textbook normalization is
    under test elsewhere.
    """
    if model.kind == "calogero":
        return 0.0
    if model.kind == "calogero_sutherland":
        a0, a1, n = model.alpha, model.alpha + 1.0, model.n
        return (a1 ** 2 - a0 ** 2) * n * (n * n - 1) / 3.0
    up = model.shifted(1.0)
    values = []
    for s, t in ((0.83, 0.11), (1.31, -0.07), (0.57, 0.19)):
        x = s * np.arange(model.n, dtype=float) + t * np.arange(model.n) ** 2
        values.append(model.ladder_potential(x, partner=True)
                      - up.ladder_potential(x))
    values = np.asarray(values)
    spread = values.max() - values.min()
    if spread > 1e-8 * max(1.0, abs(values.mean())):
        raise DomainError(f"harmonic remainder probe is not constant (spread {spread:.2e})")
    return float(values.mean())


def remainder_nominal(model: NBodyModel) -> float:
    """Closed-form candidate for the shift under the default normalization.

    Identical to remainder_shift for calogero and calogero_sutherland; for
    the harmonic kind this is the nominal (omega/sqrt 2) sqrt(N) (N-1) N and
    is recorded side by side with the measured value in reports.
    """
    if model.kind == "harmonic_calogero":
        n = model.n
        return (model.omega / math.sqrt(2.0)) * math.sqrt(n) * (n - 1) * n
    return remainder_shift(model)


# ---------------------------------------------------------------------------
# Pair rows of the cross-term balance condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairPrepotential:
    """A 2-body prepotential row with companions v0, vtilde0, psi0.

    v0 = W^2 - W' pointwise; vtilde0 balances the cross-pair products:
    for any A + B + C = 0,

        -W(A)W(C) - W(A)W(B) - W(C)W(B) = vtilde0(A) + vtilde0(B) + vtilde0(C).

    psi0 = exp(-int W) is the pair factor of the product ground state.
    """

    family: str
    params: tuple
    # symbolic note for distributional pieces never evaluated numerically
    v0_delta_note: str | None = None

    def w(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "rational_harmonic":
            a, b = self.params
            return a * x + b / x
        if self.family == "sign":
            (a,) = self.params
            return a * np.sign(x)
        if self.family == "cot":
            (a,) = self.params
            return a / np.tan(x)
        (a,) = self.params
        return a / np.tanh(x)

    def w_prime(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "rational_harmonic":
            a, b = self.params
            return a - b / x ** 2
        if self.family == "sign":
            return np.zeros_like(x)  # away from the origin
        if self.family == "cot":
            (a,) = self.params
            return -a / np.sin(x) ** 2
        (a,) = self.params
        return -a / np.sinh(x) ** 2

    def v0(self, x):
        """Closed-form W^2 - W' (valid for x != 0; see v0_delta_note)."""
        x = np.asarray(x, dtype=float)
        if self.family == "rational_harmonic":
            a, b = self.params
            return a ** 2 * x ** 2 + 2 * a * b - a + b * (b + 1) / x ** 2
        if self.family == "sign":
            (a,) = self.params
            return np.full_like(x, a ** 2)
        if self.family == "cot":
            (a,) = self.params
            return a * (a + 1) / np.sin(x) ** 2 - a ** 2
        (a,) = self.params
        return a * (a + 1) / np.sinh(x) ** 2 + a ** 2

    def vtilde0(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "rational_harmonic":
            a, b = self.params
            return a * b + 0.5 * a ** 2 * x ** 2
        (a,) = self.params
        if self.family == "cot":
            return np.full_like(x, -a ** 2 / 3.0)
        # sign and coth rows balance with the opposite sign of the cot row:
        # their pair products sum to -a^2 rather than +a^2 on A+B+C=0
        return np.full_like(x, a ** 2 / 3.0)

    def log_psi0(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "rational_harmonic":
            a, b = self.params
            return -0.5 * a * x ** 2 - b * np.log(np.abs(x))
        if self.family == "sign":
            (a,) = self.params
            return -a * np.abs(x)
        if self.family == "cot":
            (a,) = self.params
            return -a * np.log(np.abs(np.sin(x)))
        (a,) = self.params
        return -a * np.log(np.abs(np.sinh(x)))

    def singular_period(self) -> float | None:
        """Spacing of singular points of W (None if only the origin)."""
        return math.pi if self.family == "cot" else None

    def condition_residual(self, A, B, vtilde_override=None):
        """|lhs - rhs| of the balance condition at C = -A - B.

        vtilde_override replaces vtilde0 (used to demonstrate that a wrong
        companion is detected, e.g. vtilde_override=lambda x: 0*x).
        """
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        C = -A - B
        vt = vtilde_override if vtilde_override is not None else self.vtilde0
        lhs = -(self.w(A) * self.w(C) + self.w(A) * self.w(B) + self.w(C) * self.w(B))
        rhs = vt(A) + vt(B) + vt(C)
        return np.abs(lhs - rhs)


def make_pair_prepotential(family: str, *params) -> PairPrepotential:
    if family not in PAIR_FAMILIES:
        raise DomainError(f"unknown pair family {family!r}; expected one of {PAIR_FAMILIES}")
    params = tuple(float(p) for p in params)
    expected_len = 2 if family == "rational_harmonic" else 1
    if len(params) != expected_len:
        raise DomainError(f"{family} takes {expected_len} parameter(s), got {params}")
    note = None
    if family == "sign":
        note = "v0 carries -2*a*delta(x) at the origin; numeric v0 is valid for x != 0"
    return PairPrepotential(family, params, note)


@dataclass(frozen=True)
class PairConditionStats:
    family: str
    params: tuple
    samples: int
    seed: int
    max_residual: float
    mean_residual: float


def check_pair_condition(pair: PairPrepotential, samples: int, seed: int,
                         eps_sing: float = 1e-3) -> PairConditionStats:
    """Sample the balance condition at random (A, B) with C = -A - B.

    Draws avoid singular arguments by resampling; the cot row additionally
    keeps |A + B| below the singular period.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    half = 1.4 if pair.family == "cot" else 2.0
    residuals = np.empty(samples)
    filled = 0
    while filled < samples:
        a = rng.uniform(-half, half, size=samples - filled)
        b = rng.uniform(-half, half, size=samples - filled)
        c = -a - b
        ok = (np.abs(a) > eps_sing) & (np.abs(b) > eps_sing) & (np.abs(c) > eps_sing)
        if pair.singular_period() is not None:
            ok &= np.abs(c) < math.pi - eps_sing
        a, b = a[ok], b[ok]
        if a.size:
            residuals[filled:filled + a.size] = pair.condition_residual(a, b)
            filled += a.size
    return PairConditionStats(pair.family, pair.params, samples, seed,
                              float(residuals.max()), float(residuals.mean()))


# ---------------------------------------------------------------------------
# Plain-text model configs
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"kind": str, "n": int, "alpha": float, "omega": float,
                "beta_override": float, "epsilon_sing": float}


def parse_key_values(text: str, types: dict, source: str = "config") -> dict:
    """Parse flat ``key = value`` lines ('#' starts a comment) into values
    of the types given per key; unknown keys and bad values are rejected
    with their line number."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise DomainError(f"{source}:{lineno}: unknown key {key!r}")
        caster = types[key]
        if caster is bool:
            if val.lower() not in ("true", "false", "0", "1"):
                raise DomainError(f"{source}:{lineno}: boolean key {key!r} got {val!r}")
            values[key] = val.lower() in ("true", "1")
        else:
            try:
                values[key] = caster(val)
            except ValueError as exc:
                raise DomainError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def model_to_config(model: NBodyModel) -> str:
    """Serialize to the flat key = value format consumed by the CLI."""
    lines = [f"kind = {model.kind}", f"n = {model.n}", f"alpha = {model.alpha!r}"]
    if model.omega is not None:
        lines.append(f"omega = {model.omega!r}")
        lines.append(f"beta_override = {model.beta!r}")
    lines.append(f"epsilon_sing = {model.eps_sing!r}")
    return "\n".join(lines) + "\n"


def model_from_config(text: str) -> NBodyModel:
    """Parse the flat key = value format; unknown keys are rejected."""
    values = parse_key_values(text, _CONFIG_KEYS)
    if "kind" not in values or "n" not in values or "alpha" not in values:
        raise DomainError("config must set kind, n and alpha")
    return make_nbody_model(values["kind"], values["n"], values["alpha"],
                            omega=values.get("omega"), beta=values.get("beta_override"),
                            eps_sing=values.get("epsilon_sing", 1e-6))
