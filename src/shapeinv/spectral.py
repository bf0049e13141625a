"""Sparse grid discretizations and desk-scale eigensolvers.

Singular pair potentials are handled on the ordered sector x_1 < x_2 < ...
with Dirichlet walls on the coincidence hyperplanes (valid for alpha >= 1,
where the wavefunction vanishes there); grids never place nodes on a
singularity.  All spectra include the model's additive constant so grid and
algebraic numbers compare directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DimensionCapError, DomainError
from .models import (NBodyModel, Prepotential1D, make_prepotential_1d,
                     remainder_shift)
from . import shape1d

DENSE_CUTOFF = 4000
RESIDUAL_CONTRACT = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Structured grid: per-axis (min, max, m) with m grid cells.

    Dirichlet axes carry m - 1 interior nodes (walls excluded from the
    matrix); periodic axes carry m nodes.  sector='ordered' restricts a
    multi-axis grid to strictly increasing coordinates, which puts Dirichlet
    walls on every coincidence hyperplane; it requires identical axes and
    Dirichlet conditions.
    """
    axes: tuple
    bc: str = "dirichlet"
    sector: str = "full"

    def __post_init__(self):
        if self.bc not in ("dirichlet", "periodic"):
            raise DomainError(f"unknown boundary condition {self.bc!r}")
        if self.sector not in ("full", "ordered"):
            raise DomainError(f"unknown sector {self.sector!r}")
        for lo, hi, m in self.axes:
            if m < 8:
                raise DomainError("grids need at least 8 cells per axis")
            if hi <= lo:
                raise DomainError("empty axis")
        if self.sector == "ordered":
            if self.bc != "dirichlet":
                raise DomainError("ordered sector requires dirichlet conditions")
            if len(set(self.axes)) != 1:
                raise DomainError("ordered sector requires identical axes")

    @staticmethod
    def line(lo: float, hi: float, m: int, bc: str = "dirichlet") -> "GridSpec":
        return GridSpec(((float(lo), float(hi), int(m)),), bc)

    @staticmethod
    def box(lo: float, hi: float, m: int, dim: int, bc: str = "dirichlet",
            sector: str = "full") -> "GridSpec":
        return GridSpec(tuple((float(lo), float(hi), int(m)) for _ in range(dim)),
                        bc, sector)

    @property
    def dim(self) -> int:
        return len(self.axes)

    def axis_nodes(self, k: int) -> np.ndarray:
        lo, hi, m = self.axes[k]
        h = (hi - lo) / m
        if self.bc == "dirichlet":
            return lo + h * np.arange(1, m)
        return lo + h * np.arange(m)

    def axis_h(self, k: int) -> float:
        lo, hi, m = self.axes[k]
        return (hi - lo) / m


@dataclass
class SparseHamiltonian:
    """Discretized -laplacian (times kinetic_scale) + V on grid nodes."""
    matrix: sp.csr_matrix
    nodes: np.ndarray            # (n_nodes, dim)
    grid: GridSpec
    stencil_order: int
    info: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm_est(self) -> float:
        """Infinity norm; equals the 1-norm for symmetric matrices and
        bounds the spectral norm."""
        return float(np.max(np.abs(self.matrix).sum(axis=1)))

    def symmetry_defect(self) -> float:
        d = self.matrix - self.matrix.T
        top = np.max(np.abs(d.data)) if d.nnz else 0.0
        return float(top / max(1.0, np.max(np.abs(self.matrix.data))))


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray     # columns
    residual_norms: np.ndarray
    solver: str
    norm_est: float

    def max_relative_residual(self) -> float:
        return float(np.max(self.residual_norms) / max(self.norm_est, 1e-300))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def _lap_coeffs(order: int, h: float):
    """Offsets and coefficients of the negative second derivative."""
    if order == 2:
        return ((0, 2.0 / h ** 2), (1, -1.0 / h ** 2), (-1, -1.0 / h ** 2))
    if order == 4:
        c = 1.0 / (12 * h ** 2)
        return ((0, 30 * c), (1, -16 * c), (-1, -16 * c), (2, c), (-2, c))
    raise DomainError("stencil_order must be 2 or 4")


def _deriv_coeffs(order: int, h: float):
    """Offsets and coefficients of the centered first derivative."""
    if order == 2:
        return ((1, 0.5 / h), (-1, -0.5 / h))
    if order == 4:
        return ((1, 8 / 12 / h), (-1, -8 / 12 / h), (2, -1 / 12 / h), (-2, 1 / 12 / h))
    raise DomainError("stencil_order must be 2 or 4")


def _sector_nodes(grid: GridSpec):
    """Multi-indices (M, dim) and coordinates (M, dim) of the grid's
    computational nodes, in row-major order (axis 0 slowest)."""
    sizes = [len(grid.axis_nodes(k)) for k in range(grid.dim)]
    if grid.sector == "ordered":
        flat = itertools.chain.from_iterable(
            itertools.combinations(range(sizes[0]), grid.dim))
        idx = np.fromiter(flat, dtype=np.intp).reshape(-1, grid.dim)
    else:
        idx = np.indices(sizes).reshape(grid.dim, -1).T
    nodes = np.column_stack([grid.axis_nodes(k)[idx[:, k]] for k in range(grid.dim)])
    return idx, nodes


def _axis_operators(grid: GridSpec, idx: np.ndarray, coeffs, order: int) -> list:
    """One sparse matrix per axis: the 1-D stencil `coeffs(order, h)` along
    that axis, restricted to the sector nodes `idx`.

    This is P L P^T, with P selecting the sector from the full grid and L
    the stencil acting on one axis.  Periodic axes wrap; Dirichlet axes
    zero-extend beyond domain and coincidence walls, except that a 1-D grid
    maps the ghost two cells beyond a wall onto the first interior node by
    odd reflection through the wall (the neighbour on the wall is 0).
    """
    sizes = np.array([len(grid.axis_nodes(k)) for k in range(grid.dim)])
    strides = np.cumprod(np.r_[1, sizes[:0:-1]])[::-1]
    codes = idx @ strides  # row-major flat codes: sorted by construction
    n_nodes = len(idx)
    ops = []
    for k in range(grid.dim):
        rows, cols, vals = [], [], []
        for off, coef in coeffs(order, grid.axis_h(k)):
            tk = idx[:, k] + off
            if grid.bc == "periodic":
                tk %= sizes[k]
            sign = np.where((tk < -1) | (tk > sizes[k]), -1.0, 1.0)
            if grid.dim == 1:
                tk = np.where(tk < -1, -2 - tk, np.where(tk > sizes[k], 2 * sizes[k] - tk, tk))
            row = np.flatnonzero((tk >= 0) & (tk < sizes[k]))
            nb = codes[row] + (tk[row] - idx[row, k]) * strides[k]
            pos = np.minimum(np.searchsorted(codes, nb), n_nodes - 1)
            found = codes[pos] == nb
            rows.append(row[found])
            cols.append(pos[found])
            vals.append(coef * sign[row[found]])
        ops.append(sp.csr_matrix((np.concatenate(vals),
                                  (np.concatenate(rows), np.concatenate(cols))),
                                 shape=(n_nodes, n_nodes)))
    return ops


def discretize(operator, grid: GridSpec, stencil_order: int = 4,
               kinetic_scale: float = 1.0) -> SparseHamiltonian:
    """Discretize -kinetic_scale * laplacian + V.

    `operator` is an NBodyModel (grid.dim must equal its particle count, and
    singular kinds require the ordered sector), a Prepotential1D (1-D grid),
    or a bare potential callable.  A callable gets the node vector (M,) on a
    1-D grid and the node array (M, dim) otherwise, and returns one value
    per node.  Construction fails if any node sits on a singularity of V.
    """
    info = {}
    if isinstance(operator, NBodyModel):
        model = operator
        if grid.dim != model.n:
            raise DomainError(f"grid dimension {grid.dim} != particle count {model.n}")
        if model.g != 0.0 and grid.sector != "ordered":
            raise DomainError("singular pair potentials need the ordered sector")
        vfun = model.potential
        info["model"] = model.descriptor()
    elif isinstance(operator, Prepotential1D):
        if grid.dim != 1:
            raise DomainError("a 1-D prepotential needs a 1-D grid")
        vfun = operator.potential
        info["family"] = operator.family
        info["params"] = operator.params
    elif callable(operator):
        vfun = operator
    else:
        raise DomainError(f"cannot discretize {type(operator).__name__}")

    idx, nodes = _sector_nodes(grid)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.asarray(vfun(nodes[:, 0] if grid.dim == 1 else nodes), dtype=float)
    except Exception as exc:
        raise DomainError(f"potential evaluation failed on the grid: {exc}") from exc
    if v.shape != (len(idx),):
        raise DomainError(f"potential returned shape {v.shape} for {len(idx)} nodes")
    if not np.all(np.isfinite(v)):
        raise DomainError("potential is singular on a grid node; offset the grid")

    kin = sum(_axis_operators(grid, idx, _lap_coeffs, stencil_order))
    mat = kinetic_scale * kin + sp.diags(v)
    ham = SparseHamiltonian(sp.csr_matrix(mat), nodes, grid, stencil_order, info)
    if ham.symmetry_defect() > 1e-12:
        raise DomainError("assembled operator is not symmetric")
    return ham


# ---------------------------------------------------------------------------
# eigensolvers
# ---------------------------------------------------------------------------

def _bandwidth(mat: sp.csr_matrix) -> int:
    coo = mat.tocoo()
    return int(np.max(np.abs(coo.row - coo.col))) if coo.nnz else 0


def eigen(ham: SparseHamiltonian, k: int, seed: int = 0,
          method: str = "auto") -> SpectrumResult:
    """k lowest eigenpairs.

    method 'auto' picks a banded solver for 1-D operators, a dense subset
    solver below DENSE_CUTOFF, and Lanczos (deterministic seeded start
    vector) above; 'dense' and 'iterative' force a path.  Every returned
    eigenpair is held to ||Hv - lambda v|| <= 1e-8 ||H||_est.
    """
    n = ham.dim
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < dim, got k={k}, dim={n}")
    mat = ham.matrix
    solver = method
    if method == "auto":
        bw = _bandwidth(mat)
        if bw <= 8 and n > 64:
            solver = "banded"
        elif n <= DENSE_CUTOFF:
            solver = "dense"
        else:
            solver = "iterative"

    if solver == "banded":
        bw = _bandwidth(mat)
        band = np.zeros((bw + 1, n))
        coo = mat.tocoo()
        for i, j, val in zip(coo.row, coo.col, coo.data):
            if i <= j:
                band[j - i, i] += val
        w, v = scipy.linalg.eig_banded(band, lower=True, select="i",
                                       select_range=(0, k - 1))
    elif solver == "dense":
        if n > 2 * DENSE_CUTOFF:
            raise DimensionCapError(f"dense path capped at {2 * DENSE_CUTOFF}, dim={n}")
        w, v = scipy.linalg.eigh(mat.toarray(), subset_by_index=[0, k - 1])
    elif solver == "iterative":
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        try:
            w, v = spla.eigsh(mat, k=k, which="SA", v0=v0, maxiter=max(5000, 50 * k),
                              tol=0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError("Lanczos failed to converge",
                                   residuals=getattr(exc, "eigenvalues", None)) from exc
        order = np.argsort(w)
        w, v = w[order], v[:, order]
    else:
        raise DomainError(f"unknown method {method!r}")

    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    residuals = np.array([np.linalg.norm(mat @ v[:, i] - w[i] * v[:, i])
                          for i in range(v.shape[1])])
    norm_est = ham.norm_est()
    if np.max(residuals) > RESIDUAL_CONTRACT * norm_est:
        raise ConvergenceError(
            f"eigen-residual contract violated: {np.max(residuals):.2e} > "
            f"{RESIDUAL_CONTRACT:.0e} * {norm_est:.2e}", residuals=residuals)
    return SpectrumResult(w, v, residuals, solver, norm_est)


# ---------------------------------------------------------------------------
# product ground states
# ---------------------------------------------------------------------------

@dataclass
class GridFunctionND:
    nodes: np.ndarray
    values: np.ndarray
    grid: GridSpec
    meta: dict = field(default_factory=dict)


def _interior_mask(ham: SparseHamiltonian, margin_frac: float = 0.05) -> np.ndarray:
    """Nodes at a fixed physical distance from walls and coincidence planes.

    The margin must be physical (a fraction of the span), not a cell count:
    pointwise residual ratios at a fixed number of cells from a wall do not
    shrink with refinement."""
    grid = ham.grid
    mask = np.ones(ham.dim, dtype=bool)
    for k in range(grid.dim):
        lo, hi, m = grid.axes[k]
        margin = max(margin_frac * (hi - lo), 3 * grid.axis_h(k))
        xk = ham.nodes[:, k]
        if grid.bc == "dirichlet":
            mask &= (xk - lo >= margin) & (hi - xk >= margin)
    if grid.dim > 1 and grid.sector == "ordered":
        lo, hi, m = grid.axes[0]
        margin = max(margin_frac * (hi - lo), 3 * grid.axis_h(0))
        for a in range(grid.dim - 1):
            mask &= (ham.nodes[:, a + 1] - ham.nodes[:, a]) >= margin
    return mask


def _reduced_hamiltonian(model: NBodyModel, grid: GridSpec,
                         stencil_order: int, partner: bool = False) -> SparseHamiltonian:
    red = two_body_reduction(model)
    pot = red.partner_operator_potential if partner else red.operator_potential
    return discretize(pot, grid, stencil_order, kinetic_scale=red.kinetic_factor)


def jastrow_ground_state(model: NBodyModel, grid: GridSpec,
                         stencil_order: int = 4):
    """Product ground state on the grid with its discrete residual.

    For grid.dim == model.n the state is evaluated on the (ordered) N-body
    grid; for N = 2 a 1-D grid means the relative problem at zero total
    momentum.  The residual is max over interior nodes of |(H psi)/psi|,
    which converges at the stencil order.  Non-normalizable regimes are
    flagged in meta, not rejected.
    """
    if grid.dim == 1 and model.n == 2:
        ham = _reduced_hamiltonian(model, grid, stencil_order)
        r = ham.nodes[:, 0]
        logv = model.pair_log_jastrow(r)
    elif grid.dim == model.n:
        if model.g != 0.0 and grid.sector != "ordered":
            raise DomainError("singular kinds need the ordered sector")
        ham = discretize(model, grid, stencil_order)
        logv = np.zeros(ham.dim)
        for i in range(model.n):
            for j in range(i + 1, model.n):
                logv += model.pair_log_jastrow(ham.nodes[:, i] - ham.nodes[:, j])
    else:
        raise DomainError("grid dimension must equal the particle count "
                          "(or 1 for the N = 2 relative problem)")
    logv -= logv.max()
    values = np.exp(logv)
    values /= np.linalg.norm(values)
    mask = _interior_mask(ham)
    mask &= values > 1e-8 * values.max()
    if not np.any(mask):
        raise DomainError("grid too coarse: no trusted interior nodes")
    hv = ham.matrix @ values
    residual = float(np.max(np.abs(hv[mask] / values[mask])))
    normalizable = _jastrow_normalizable(model)
    gf = GridFunctionND(ham.nodes, values, grid,
                        {"normalizable": normalizable,
                         "model": model.descriptor()})
    return gf, residual


def _jastrow_normalizable(model: NBodyModel) -> bool:
    if model.kind == "calogero":
        return False  # no confinement: a formal zero mode only
    if model.kind == "calogero_sutherland":
        return model.alpha > -0.5
    # pair Gaussians confine relative coordinates; the free center of mass
    # is excluded from the normalizability statement
    return model.beta > 0 and model.alpha > -0.5


def boundary_ambiguous(model: NBodyModel) -> bool:
    """True in the 0 < alpha < 1 window where both coincidence behaviors
    are square-integrable and the grid walls do not select one; spectral
    targets exclude this regime."""
    return 0.0 < model.alpha < 1.0


@dataclass
class PartnerGroundState:
    energy: float
    shifted_model: NBodyModel
    state: GridFunctionND | None
    normalizable: bool


def partner_ground_state(model: NBodyModel, grid: GridSpec | None = None,
                         stencil_order: int = 4) -> PartnerGroundState:
    """Ground state of the partner sum A A+: the product state at shifted
    coupling, with energy equal to the remainder shift."""
    shifted = model.shifted(1.0)
    energy = remainder_shift(model)
    state = None
    if grid is not None:
        state, _ = jastrow_ground_state(shifted, grid, stencil_order)
    return PartnerGroundState(energy, shifted, state, _jastrow_normalizable(shifted))


# ---------------------------------------------------------------------------
# two-body reduction
# ---------------------------------------------------------------------------

@dataclass
class TwoBodyReduction:
    """The N = 2 Hamiltonian split into center of mass and relative parts.

    With r = x2 - x1 the Hamiltonian is P_tot^2 / 2 + (B+ B)/2 where
    B = A2 - A1; the relative factor (B+ B)/2 equals
    kinetic_factor * (-d2/dr2 + W^2 - W') for the 1-D prepotential below.
    """
    prep: Prepotential1D
    kinetic_factor: float
    domain: tuple
    report: dict

    def operator_potential(self, r):
        return self.kinetic_factor * self.prep.potential(r)

    def partner_operator_potential(self, r):
        return self.kinetic_factor * self.prep.partner_potential(r)

    def algebraic_energies(self, n_max: int) -> np.ndarray:
        chain = shape1d.algebraic_spectrum(self.prep, n_max)
        return self.kinetic_factor * np.asarray(chain.energies)


def two_body_reduction(model: NBodyModel) -> TwoBodyReduction:
    """Map an N = 2 model onto its relative 1-D shape-invariant problem."""
    if model.n != 2:
        raise DomainError("reduction applies to two-body models only")
    if model.kind == "calogero_sutherland":
        prep = make_prepotential_1d("rosen_morse_trig", (model.alpha, 1.0))
        domain = (0.0, math.pi)
        note = "relative problem on (0, pi); ground state |sin r|^alpha"
    elif model.kind == "calogero":
        prep = make_prepotential_1d("rational_harmonic", (0.0, -model.alpha))
        domain = (0.0, math.inf)
        note = "free relative dilation family: continuum, no bound chain"
    else:
        prep = make_prepotential_1d("rational_harmonic", (model.beta, -model.alpha))
        domain = (0.0, math.inf)
        note = "relative radial-oscillator family"
    report = {
        "kind": model.kind,
        "relative_coordinate": "r = x2 - x1 on the ordered sector",
        "kinetic_factor": 2.0,
        "center_of_mass": "free plane waves, energy k^2/2",
        "family": prep.family,
        "params": prep.params,
        "note": note,
    }
    return TwoBodyReduction(prep, 2.0, domain, report)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def spectrum_table(result: SpectrumResult):
    """Header and rows for the eigenvalue CSV: index, lambda, residual."""
    header = ("index", "lambda", "residual")
    rows = [(i, float(result.eigenvalues[i]), float(result.residual_norms[i]))
            for i in range(len(result.eigenvalues))]
    return header, rows


def dump_grid_function(gf: GridFunctionND) -> str:
    """Self-describing text dump: axes, ordering, then one value per line.

    The header records the dimension, each axis as (min, max, m), the
    boundary condition and sector, and that node ordering is row-major over
    the sector enumeration (axis 0 slowest)."""
    lines = [f"# dimension {gf.grid.dim}"]
    for lo, hi, m in gf.grid.axes:
        lines.append(f"# axis {lo!r} {hi!r} {m}")
    lines.append(f"# bc {gf.grid.bc}")
    lines.append(f"# sector {gf.grid.sector}")
    lines.append("# ordering row-major")
    lines.append(f"# nodes {gf.values.shape[0]}")
    for row, v in zip(gf.nodes, gf.values):
        coords = " ".join(repr(float(c)) for c in row)
        lines.append(f"{coords} {float(v)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# isospectrality
# ---------------------------------------------------------------------------

def isospectrality_check(operator, grid: GridSpec, k: int,
                         stencil_order: int = 4, seed: int = 0) -> dict:
    """Compare the partner spectrum against the shifted-parameter spectrum.

    For a 1-D prepotential: eig(A A+) vs eig(H(f(params))) + R.
    For an N = 2 model: the reduced relative operators at zero momentum.
    Returns the two eigenvalue lists and their maximum relative deviation.
    """
    if isinstance(operator, Prepotential1D):
        prep = operator
        left = discretize(prep.partner_potential, grid, stencil_order)
        right = discretize(prep.step(), grid, stencil_order)
        shift = prep.remainder_next()
    elif isinstance(operator, NBodyModel):
        model = operator
        if model.n != 2:
            raise DomainError("isospectrality check supports 1-D and N = 2 inputs")
        left = _reduced_hamiltonian(model, grid, stencil_order, partner=True)
        right = _reduced_hamiltonian(model.shifted(1.0), grid, stencil_order)
        shift = remainder_shift(model)
    else:
        raise DomainError("need a Prepotential1D or an N = 2 NBodyModel")
    lam_left = eigen(left, k, seed).eigenvalues
    lam_right = eigen(right, k, seed).eigenvalues + shift
    rel = np.abs(lam_left - lam_right) / np.maximum(1.0, np.abs(lam_right))
    return {
        "partner_eigenvalues": [float(x) for x in lam_left],
        "shifted_eigenvalues_plus_R": [float(x) for x in lam_right],
        "remainder": float(shift),
        "max_relative_deviation": float(rel.max()),
    }
