"""1-D shape-invariance engine: algebraic spectra from remainder chains,
ground states from the prepotential, and creation-operator wavefunction
chains on grids.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .models import Prepotential1D
from .spectral import GridSpec

MAX_CHAIN = 6
MIN_CHAIN_CELLS = 511  # 512 samples with both walls


def _samples(grid: GridSpec) -> np.ndarray:
    """The m + 1 samples of a one-axis Dirichlet grid of m cells: both walls
    and the grid's interior nodes."""
    if grid.dim != 1 or grid.bc != "dirichlet":
        raise DomainError("1-D grid functions need a one-axis Dirichlet grid, "
                          f"got {grid.dim} axis(es) with {grid.bc!r} conditions")
    lo, hi, _ = grid.axes[0]
    return np.r_[lo, grid.axis_nodes(0), hi]


@dataclass
class GridFunction1D:
    """Values at the samples of a one-axis Dirichlet GridSpec, walls
    included."""
    grid: GridSpec
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def x(self) -> np.ndarray:
        return _samples(self.grid)

    @property
    def h(self) -> float:
        return self.grid.axis_h(0)

    def norm(self) -> float:
        return float(np.sqrt(np.trapezoid(self.values ** 2, dx=self.h)))

    def normalized(self) -> "GridFunction1D":
        nrm = self.norm()
        if nrm == 0.0:
            raise DomainError("cannot normalize the zero function")
        return GridFunction1D(self.grid, self.values / nrm, dict(self.meta))

    def inner(self, other: "GridFunction1D") -> float:
        if other.grid != self.grid:
            raise DomainError("grid mismatch")
        return float(np.trapezoid(self.values * other.values, dx=self.h))

    def sign_changes(self) -> int:
        """Strict sign changes in the grid interior (node count)."""
        v = self.values[1:-1]
        v = v[np.abs(v) > 1e-9 * np.max(np.abs(v))]
        return int(np.sum(np.sign(v[1:]) != np.sign(v[:-1])))

    def to_text_rows(self):
        for xi, vi in zip(self.x, self.values):
            yield f"{float(xi)!r} {float(vi)!r}"


@dataclass(frozen=True)
class SpectrumChain:
    """Parameter chain alpha_0 -> alpha_1 -> ... with cumulative remainders,
    one member per bound level."""
    family: str
    params_chain: tuple
    remainders: tuple   # R(alpha_1) ... R(alpha_n)
    energies: tuple     # E_0 = 0, E_k = sum_{j<=k} R(alpha_j)
    members: int        # members with a normalizable ground state, <= n_max + 1


def algebraic_spectrum(prep: Prepotential1D, n_max: int) -> SpectrumChain:
    """Exact energies E_k = sum_{j<=k} R(alpha_j), E_0 = 0, for k <= n_max.

    E_k is a bound level only while psi0(alpha_k) is normalizable, so the
    chain stops at the last such member: `members` may fall short of
    n_max + 1 (coth with 0 < a < 1/2 and sign each hold one member), and is
    0 when psi0(alpha_0) itself is not normalizable.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    members, current = [], prep
    while len(members) <= n_max and current.ground_state_normalizable():
        members.append(current)
        current = current.step()
    remainders = tuple(m.remainder_next() for m in members[:-1])
    energies = tuple(itertools.accumulate(remainders, initial=0.0))[:len(members)]
    return SpectrumChain(prep.family, tuple(m.params for m in members),
                         remainders, energies, len(members))


def ground_state_1d(prep: Prepotential1D, grid: GridSpec) -> GridFunction1D:
    """psi0 ~ exp(-int W) on the grid, zero on its walls, unit discrete L2
    norm.

    Non-normalizable parameter ranges are flagged (meta['normalizable'])
    and warned about, but the state is still returned.
    """
    x = _samples(grid)
    vals = np.zeros_like(x)
    with np.errstate(divide="ignore"):
        logpsi = prep.log_ground_state(x[1:-1])
    vals[1:-1] = np.where(np.isfinite(logpsi), np.exp(logpsi), 0.0)
    gf = GridFunction1D(grid, vals, {"normalizable": prep.ground_state_normalizable(),
                                     "family": prep.family, "params": prep.params})
    if not gf.meta["normalizable"]:
        warnings.warn(f"ground state of {prep.family}{prep.params} is not "
                      "normalizable; returning the formal solution", stacklevel=2)
    return gf.normalized()


def _d1_order4(v: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative: central stencil inside, one-sided at the
    two cells adjacent to each boundary."""
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    return d


def wavefunction_chain(prep: Prepotential1D, n: int, grid: GridSpec) -> GridFunction1D:
    """psi_n = A+(alpha_0) ... A+(alpha_{n-1}) psi_0(alpha_n) on the samples
    of a one-axis Dirichlet grid of at least MIN_CHAIN_CELLS cells.

    Each creation step applies -d/dx + W(alpha_j) with 4th-order stencils
    and renormalizes; meta['boundary_margin_cells'] records the interior
    margin trusted after repeated one-sided differentiation.
    """
    if n < 0 or n > MAX_CHAIN:
        raise DomainError(f"chain length {n} outside [0, {MAX_CHAIN}]")
    x = _samples(grid)
    if len(x) - 1 < MIN_CHAIN_CELLS:
        raise DomainError(f"chain grids need at least {MIN_CHAIN_CELLS} cells")
    chain = [prep]
    for _ in range(n):
        chain.append(chain[-1].step())
    psi = ground_state_1d(chain[-1], grid)
    h = grid.axis_h(0)
    values = psi.values.copy()
    for j in range(n - 1, -1, -1):
        w = np.zeros_like(x)
        w[1:-1] = chain[j].w(x[1:-1])  # endpoints may sit on poles of W
        values = -_d1_order4(values, h) + w * values
        values[0] = values[-1] = 0.0
        values /= np.sqrt(np.trapezoid(values ** 2, dx=h))
    meta = {"levels": n, "boundary_margin_cells": 2 * n,
            "params_chain": tuple(p.params for p in chain)}
    return GridFunction1D(grid, values, meta)


def rayleigh_quotient(prep: Prepotential1D, gf: GridFunction1D) -> float:
    """<psi, H psi> / <psi, psi> with H = -d2/dx2 + (W^2 - W').

    Evaluated on the central interior (two cells trimmed at each end), which
    is where chain states are trusted; the trimmed tails vanish at the walls.
    """
    x, h, v = gf.x, gf.h, gf.values
    d2 = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h * h)
    inner = slice(2, -2)
    hv = -d2 + prep.potential(x[inner]) * v[inner]
    return float(np.sum(v[inner] * hv) / np.sum(v[inner] ** 2))
