"""Sparse grid discretizations and desk-scale eigensolvers.

Singular pair potentials are handled on the ordered sector x_1 < x_2 < ...
with Dirichlet walls on the coincidence hyperplanes (valid for alpha >= 1,
where the wavefunction vanishes there); grids never place nodes on a
singularity.  All spectra include the model's additive constant so grid and
algebraic numbers compare directly.

scipy is imported inside the functions that call it, so importing this
module costs numpy alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionCapError, DomainError
from .models import (NBodyModel, Prepotential1D, make_prepotential_1d,
                     remainder_shift)

# 'auto' solves N-D operators densely up to DENSE_CUTOFF nodes.  On N = 3
# grids (CS and calogero, k = 4 and 10, one BLAS thread) dense eigh and
# Lanczos tie near 286 nodes; Lanczos wins from 364 nodes up, 3.7 against
# 9.2 ms at 455 and 7 against 71 ms at 969 (CS, k = 4).
# DENSE_CAP bounds the forced dense path, and DENSE_CAP^2 the entries of the
# shift-invert band.
DENSE_CUTOFF = 400
DENSE_CAP = 8000
RESIDUAL_CONTRACT = 1e-8
# residual checks skip nodes within this fraction of an axis span of a wall
INTERIOR_MARGIN_FRAC = 0.05


@dataclass(frozen=True)
class GridSpec:
    """Structured grid: one or more axes (min, max, m), each with an
    integer m >= 8 of grid cells.

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
        if not self.axes:
            raise DomainError("a grid needs at least one axis")
        for lo, hi, m in self.axes:
            if not isinstance(m, numbers.Integral) or isinstance(m, bool):
                raise DomainError(f"cell count must be an integer, got {m!r}")
            if m < 8:
                raise DomainError("grids need at least 8 cells per axis")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DomainError(f"grid endpoints must be finite, got [{lo}, {hi}]")
            if hi <= lo:
                raise DomainError("empty axis")
        if self.sector == "ordered":
            if self.bc != "dirichlet":
                raise DomainError("ordered sector requires dirichlet conditions")
            if len(set(self.axes)) != 1:
                raise DomainError("ordered sector requires identical axes")

    @staticmethod
    def line(lo: float, hi: float, m: int, bc: str = "dirichlet") -> "GridSpec":
        return GridSpec(((float(lo), float(hi), m),), bc)

    @staticmethod
    def box(lo: float, hi: float, m: int, dim: int, bc: str = "dirichlet",
            sector: str = "full") -> "GridSpec":
        if not isinstance(dim, numbers.Integral) or isinstance(dim, bool):
            raise DomainError(f"dimension must be an integer, got {dim!r}")
        return GridSpec(((float(lo), float(hi), m),) * dim, bc, sector)

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
    matrix: object               # scipy.sparse CSR matrix
    nodes: np.ndarray            # (n_nodes, dim)
    grid: GridSpec
    stencil_order: int
    potential_floor: float       # min of V over the nodes; shift-invert's shift sits 1 below

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm_est(self) -> float:
        """Infinity norm; equals the 1-norm for symmetric matrices and
        bounds the spectral norm.  Row sums come from the CSR arrays; an
        empty row is left out, since reduceat reads one entry for it."""
        m = self.matrix
        rows = np.flatnonzero(np.diff(m.indptr))
        return float(np.add.reduceat(np.abs(m.data), m.indptr[rows]).max(initial=0.0))

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
    nnz: int                     # stored entries of H
    shift: float | None          # sigma of the shift-invert path, else None
    matvecs: int | None          # Lanczos operator applications, None if dense

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
        # one axis at a time, each row repeated over its larger successors:
        # the lexicographic order of itertools.combinations
        idx = np.arange(sizes[0])[:, None]
        for _ in range(1, grid.dim):
            last = idx[:, -1]
            count = sizes[0] - 1 - last
            first = np.cumsum(count) - count
            idx = np.column_stack([np.repeat(idx, count, axis=0),
                                   np.arange(count.sum()) + np.repeat(last + 1 - first, count)])
    else:
        idx = np.indices(sizes).reshape(grid.dim, -1).T
    nodes = np.column_stack([grid.axis_nodes(k)[idx[:, k]] for k in range(grid.dim)])
    return idx, nodes


def _check_model_grid(model: NBodyModel, grid: GridSpec):
    """An N-body grid has one axis per particle, and a singular kind lives
    on the ordered sector; DomainError otherwise."""
    if grid.dim != model.n:
        raise DomainError(f"grid dimension {grid.dim} != particle count {model.n}")
    if model.g != 0.0 and grid.sector != "ordered":
        raise DomainError("singular pair potentials need the ordered sector")


def _code_rows(sizes: np.ndarray, idx: np.ndarray) -> tuple:
    """(strides, box): the row-major strides of a full box of these axis
    sizes, and a table mapping each box code to its row among the nodes
    idx, -1 off them."""
    strides = np.cumprod([1, *sizes[:0:-1]])[::-1]
    box = np.full(int(np.prod(sizes)), -1)
    box[idx @ strides] = np.arange(len(idx))
    return strides, box


def _stencil_table(grid: GridSpec, idx: np.ndarray, coeffs, order: int):
    """Every node's stencil neighbours under the 1-D stencil `coeffs(order,
    h)` along each axis, restricted to the sector nodes `idx`: (rows, vals),
    both (dim, n_offsets, n_nodes), with the offsets ascending.

    rows[k, j, p] is the row of node p moved by the j-th offset along axis
    k, or -1 where the stencil zero-extends beyond a domain or coincidence
    wall; vals holds its coefficient.  Periodic axes wrap.  A 1-D grid maps
    the ghost two cells beyond a wall onto the first interior node by odd
    reflection through the wall (the neighbour on the wall is 0).

    Rows come by one gather from a full-box table that maps each row-major
    code to its sector row, -1 off the sector, so the coincidence walls
    need no test of their own.
    """
    n_nodes, dim = idx.shape
    sizes = np.array([len(grid.axis_nodes(k)) for k in range(dim)])
    stencils = [sorted(coeffs(order, grid.axis_h(k))) for k in range(dim)]
    offsets = np.array([off for off, _ in stencils[0]])[:, None]
    coefs = np.array([[coef for _, coef in st] for st in stencils])
    c = np.ascontiguousarray(idx.T)[:, None, :]
    t = c + offsets
    vals = np.broadcast_to(coefs[:, :, None], t.shape)
    size = sizes[:, None, None]
    if grid.bc == "periodic":
        t %= size
    elif dim == 1:
        beyond = (t < -1) | (t > size)
        vals = np.where(beyond, -vals, vals)
        t = np.where(t < -1, -2 - t, np.where(beyond, 2 * size - t, t))
    inside = (t >= 0) & (t < size)
    strides, box = _code_rows(sizes, idx)
    code = idx @ strides
    rows = box[np.where(inside, code + (t - c) * strides[:, None, None], 0)]
    return np.where(inside, rows, -1), vals


def _assemble(rows: np.ndarray, vals: np.ndarray, scale: float, v: np.ndarray,
              wraps: bool):
    """CSR of scale * (the stencil table's operator) + diag(v), exact zeros
    dropped, for a stencil with offsets -r..r.

    Each diagonal entry sums its terms axis by axis, is scaled, then gets v,
    as adding per-axis matrices and diag(v) would.  A node's other entries
    ascend as the negative offsets axis by axis, then the positive ones from
    the last axis back; only a grid whose axes wrap needs a sort."""
    import scipy.sparse as sp

    dim, n_off, n_nodes = rows.shape
    here = np.arange(n_nodes)
    on_diag = rows == here
    # at most two terms of an axis land on the diagonal, so their sum is
    # exact in any order; cumsum then adds the axes in order
    diag = np.where(on_diag, vals, 0.0).sum(axis=1).cumsum(axis=0)[-1]
    r = n_off // 2

    def ascending(table, middle):
        return np.concatenate([table[:, :r].reshape(-1, n_nodes), middle[None],
                               table[::-1, -r:].reshape(-1, n_nodes)])

    cols = ascending(np.where(on_diag | (rows < 0), n_nodes, rows), here)
    data = ascending(scale * vals, scale * diag + v)
    if wraps:
        order = np.argsort(cols, axis=0, kind="stable")
        cols, data = (np.take_along_axis(a, order, axis=0) for a in (cols, data))
    keep = (cols < n_nodes) & (data != 0)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=0))])
    keep = keep.T
    return sp.csr_matrix((data.T[keep], cols.T[keep], indptr), shape=(n_nodes, n_nodes))


def discretize(operator, grid: GridSpec, stencil_order: int = 4,
               kinetic_scale: float = 1.0) -> SparseHamiltonian:
    """Discretize -kinetic_scale * laplacian + V.

    `operator` is an NBodyModel (grid.dim must equal its particle count, and
    singular kinds require the ordered sector), a Prepotential1D (1-D grid),
    or a bare potential callable.  A callable gets the node vector (M,) on a
    1-D grid and the node array (M, dim) otherwise, and returns one value
    per node.  Construction fails if any node sits on a singularity of V,
    or if kinetic_scale is not a finite positive number.

    A prepotential whose W jumps at the origin (the sign family) has
    W' = w_prime_delta * delta(x) there.  Its grid needs an interior node at
    x = 0; that node sits on the jump, so its W^2 - W' is the mean of its two
    neighbours', and the spike adds -w_prime_delta / h to it.
    """
    if not (isinstance(kinetic_scale, numbers.Real) and math.isfinite(kinetic_scale)
            and kinetic_scale > 0):
        raise DomainError(f"kinetic_scale must be a finite positive number, "
                          f"got {kinetic_scale!r}")
    delta = 0.0
    if isinstance(operator, NBodyModel):
        _check_model_grid(operator, grid)
        vfun = operator.potential
    elif isinstance(operator, Prepotential1D):
        if grid.dim != 1:
            raise DomainError("a 1-D prepotential needs a 1-D grid")
        vfun = operator.potential
        delta = operator.w_prime_delta()
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
    if delta:
        h = grid.axis_h(0)
        j = int(np.argmin(np.abs(nodes[:, 0])))
        if abs(nodes[j, 0]) > 1e-9 * h or not 0 < j < len(v) - 1:
            raise DomainError(f"{operator.family} puts a delta spike at x = 0: the grid "
                              "needs an interior node there, as an even m on a "
                              "symmetric domain gives")
        v[j] = 0.5 * (v[j - 1] + v[j + 1]) - delta / h

    rows, vals = _stencil_table(grid, idx, _lap_coeffs, stencil_order)
    mat = _assemble(rows, vals, kinetic_scale, v, wraps=grid.bc == "periodic")
    ham = SparseHamiltonian(mat, nodes, grid, stencil_order, float(v.min()))
    if not ham.symmetry_defect() <= 1e-12:   # NaN fails too
        raise DomainError("assembled operator is not symmetric")
    return ham


# ---------------------------------------------------------------------------
# eigensolvers
# ---------------------------------------------------------------------------

def _residual_norms(mat, w, v) -> np.ndarray:
    """||H v_i - w_i v_i|| for every column of v."""
    return np.linalg.norm(mat @ v - v * w, axis=0)


def _counted(n: int, apply):
    """A LinearOperator that applies `apply`, and a one-item list counting
    its calls.  The operator holds no reference to itself, so the matrix or
    factorization that `apply` is bound to is freed with it, not by a later
    garbage collection."""
    import scipy.sparse.linalg as spla

    calls = [0]

    def matvec(x):
        calls[0] += 1
        return apply(x)

    return spla.LinearOperator((n, n), matvec=matvec, dtype=float), calls


def _shift_invert(ham: SparseHamiltonian, k: int, v0: np.ndarray, maxiter: int,
                  norm_est: float):
    """Lanczos on (H - sigma)^-1 with sigma one below the potential floor.

    The kinetic term is positive semi-definite, so sigma lies below the
    spectrum.  The one banded Cholesky factorization of P (H - sigma) P^T
    (LAPACK pbtrf) serves as the inverse and proves that: it exists exactly
    when H - sigma is positive definite, that is when sigma lies below every
    eigenvalue.  The bandwidth b is read from the matrix.  P is the identity
    except on a periodic 1-D ring, where the zig-zag order 0, n-1, 1, n-2,
    ... turns the wrap-around entries of a stencil of reach r into a band of
    width 2r.  The band storage, (b + 1) n entries, is capped at
    DENSE_CAP^2, as a dense matrix is.
    Returns the eigenpairs, sigma and the number of band solves."""
    import scipy.linalg.lapack as lapack
    import scipy.sparse.linalg as spla

    n = ham.dim
    sigma = ham.potential_floor - 1.0
    order = np.arange(n)
    if ham.grid.dim == 1 and ham.grid.bc == "periodic":
        order = np.stack([order, order[::-1]], axis=1).ravel()[:n]
    rank = np.argsort(order)
    mat = ham.matrix
    col = rank[mat.indices]
    step = np.repeat(rank, np.diff(mat.indptr)) - col
    b = int(step.max())
    if (b + 1) * n > DENSE_CAP ** 2:
        raise DimensionCapError(f"band storage {b + 1} x {n} exceeds the dense "
                                f"cap of {DENSE_CAP}^2 entries")
    # LAPACK's lower band storage: entry (i, j), i >= j, at [i - j, j]
    lower = step >= 0
    band = np.zeros((b + 1) * n)
    band[(step * n + col)[lower]] = mat.data[lower]
    band = band.reshape(b + 1, n)
    band[0] -= sigma
    chol, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    if info:
        raise ConvergenceError(f"shift {sigma:.6g} is not below the spectrum: "
                               "H - shift is not positive definite")

    def solve(x):
        out = np.empty(n)
        out[order] = lapack.dpbtrs(chol, x[order], lower=1)[0]
        return out

    opinv, solves = _counted(n, solve)
    # ARPACK accepts (H - sigma)^-1 v = theta v + r at ||r|| <= tol |theta|;
    # times H - sigma that is ||Hv - lambda v|| <= (||H|| + |sigma|) tol
    tol = RESIDUAL_CONTRACT * norm_est / (norm_est + abs(sigma))
    w, v = spla.eigsh(mat, k=k, sigma=sigma, which="LM", v0=v0,
                      OPinv=opinv, maxiter=maxiter, tol=tol)
    return w, v, sigma, solves[0]


def sa_ncv(n: int, k: int) -> int:
    """Lanczos basis size of the 'SA' path on an N-D operator: ARPACK's
    default min(n, max(2k + 1, 20)), capped at 3k and never below 14.

    Step j of a restart reorthogonalizes against j basis vectors, about 4j
    flops per row, while a product with an order-4 N = 3 grid operator
    costs about 22 (11 stored entries per row).  For k <= 6 the default's
    floor of 20 costs more in reorthogonalization than the few products it
    saves; a floor of 12 took 25-37 % more products at k = 1 and 2 on
    9139 nodes and up to 16 % more time.  From k = 7 on the rule is the
    default.  A larger basis from k = 7 on, 3k up to 2k + 10 (30 at
    k = 10), took 3-27 % fewer products at k = 10 but up to 1.08 times the
    time on 455 nodes, and 1.14 times at k = 16 on 9139 (tools/ncv_sweep.py,
    README "Numerical notes"), so it was not kept.  1-D operators keep the default on both Lanczos paths: below
    it, shift-invert solve counts move both ways, and the forced 'SA' solve
    on the m = 2000 Rosen-Morse operator stops converging at k = 5."""
    return min(n, max(2 * k + 1, 20), max(14, 3 * k))


def eigen(ham: SparseHamiltonian, k: int, seed: int = 0,
          method: str = "auto") -> SpectrumResult:
    """k lowest eigenpairs.

    method 'auto' picks shift-invert Lanczos for 1-D operators, a dense
    subset solver for other operators up to DENSE_CUTOFF nodes, and Lanczos
    on the smallest algebraic eigenvalues above; 'shift_invert', 'dense' and
    'iterative' force a path.  Both Lanczos paths start from a vector seeded
    by `seed`.  Shift-invert puts its shift one below the potential floor
    that `discretize` records in `ham.potential_floor` and applies
    (H - shift)^-1 by a banded Cholesky factorization, which exists only
    when the shift is below the spectrum; otherwise it fails loudly.  Every returned eigenpair is
    held to ||Hv - lambda v|| <= 1e-8 ||H||_est (RESIDUAL_CONTRACT).

    The N-D 'SA' path and the shift-invert path stop at that contract, not
    at machine precision.  ARPACK accepts a Ritz pair (theta, v) of its
    operator at ||r|| <= tol |theta|.  On an N-D operator 'SA' runs on
    H + sI with s = ||H||_est, and s is subtracted from the returned
    values; the shift leaves r = Hv - lambda v as it is.  Every eigenvalue
    of H lies in [-s, s] (||H||_2 <= ||H||_est), so theta lies in [0, 2s],
    and tol = 1e-8 / 2 makes ARPACK's test the contract itself.  On the
    shift-invert path tol = 1e-8 ||H||_est / (||H||_est + |sigma|), and
    ||Hv - lambda v|| <= ||H - sigma|| ||r|| / |theta| <= (||H||_est +
    |sigma|) tol.  So every accepted pair meets the contract a priori; the
    check after the solve still gates it.  The eigenvalue error is second
    order in the residual, at most ||r||^2 / gap for a symmetric H: on CS
    N = 3 grids up to m = 31 the 'SA' levels were within 9.4e-12 of dense.

    A forced 'SA' solve on a 1-D operator runs on H itself at tol = 1e-8,
    so it stops at 1e-8 |lambda|, well inside the contract.  A 1-D
    ||H||_est grows as 1/h^2 (5.9e5 at m = 1001) while the low levels stay
    O(1), and a stop at the contract left them 1.1e-8 from dense there.

    On an N-D operator the 'SA' path runs on sa_ncv(n, k) basis vectors,
    fewer than ARPACK's default for k <= 6 (see sa_ncv for why).

    The result records the path, the nnz of H, the shift (None off the
    shift-invert path) and the number of Lanczos operator applications:
    products with H on 'SA', band solves on shift-invert, None when dense.
    """
    n = ham.dim
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        raise DomainError(f"k must be an integer, got {k!r}")
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < dim, got k={k}, dim={n}")
    mat = ham.matrix
    norm_est = ham.norm_est()
    solver = method
    shift = matvecs = None
    if method == "auto":
        if ham.grid.dim == 1:
            solver = "shift_invert"
        elif n <= DENSE_CUTOFF:
            solver = "dense"
        else:
            solver = "iterative"

    if solver == "dense":
        if n > DENSE_CAP:
            raise DimensionCapError(f"dense path capped at {DENSE_CAP}, dim={n}")
        import scipy.linalg

        w, v = scipy.linalg.eigh(mat.toarray(), subset_by_index=[0, k - 1])
    elif solver in ("iterative", "shift_invert"):
        import scipy.sparse.linalg as spla

        v0 = np.random.default_rng(seed).standard_normal(n)
        maxiter = max(5000, 50 * k)
        # N-D 'SA' runs on H + sI, s = ||H||_est, whose Ritz values lie in
        # [0, 2s]: at tol = 1e-8 / 2 ARPACK stops at the contract (docstring)
        nd_sa = solver == "iterative" and ham.grid.dim > 1
        s = norm_est if nd_sa else 0.0
        try:
            if solver == "iterative":
                op, products = _counted(n, (lambda x: mat @ x + s * x) if nd_sa else mat.dot)
                w, v = spla.eigsh(op, k=k, which="SA", v0=v0, maxiter=maxiter,
                                  tol=RESIDUAL_CONTRACT / (2 if nd_sa else 1),
                                  ncv=sa_ncv(n, k) if nd_sa else None)
                matvecs = products[0]
            else:
                w, v, shift, matvecs = _shift_invert(ham, k, v0, maxiter, norm_est)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"{solver} Lanczos failed to converge",
                residuals=_residual_norms(mat, exc.eigenvalues - s,
                                          exc.eigenvectors)) from exc
        order = np.argsort(w)
        w, v = w[order] - s, v[:, order]
    else:
        raise DomainError(f"unknown method {method!r}")

    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    residuals = _residual_norms(mat, w, v)
    if np.max(residuals) > RESIDUAL_CONTRACT * norm_est:
        raise ConvergenceError(
            f"eigen-residual contract violated: {np.max(residuals):.2e} > "
            f"{RESIDUAL_CONTRACT:.0e} * {norm_est:.2e}", residuals=residuals)
    return SpectrumResult(w, v, residuals, solver, norm_est, mat.nnz, shift,
                          matvecs)


# ---------------------------------------------------------------------------
# product ground states
# ---------------------------------------------------------------------------

@dataclass
class GridFunctionND:
    nodes: np.ndarray
    values: np.ndarray
    grid: GridSpec
    meta: dict = field(default_factory=dict)


def _interior_mask(ham: SparseHamiltonian) -> np.ndarray:
    """Nodes at a fixed physical distance from walls and coincidence planes.

    The margin must be physical (a fraction of the span), not a cell count:
    pointwise residual ratios at a fixed number of cells from a wall do not
    shrink with refinement."""
    grid = ham.grid
    mask = np.ones(ham.dim, dtype=bool)
    for k in range(grid.dim):
        lo, hi, m = grid.axes[k]
        margin = max(INTERIOR_MARGIN_FRAC * (hi - lo), 3 * grid.axis_h(k))
        xk = ham.nodes[:, k]
        if grid.bc == "dirichlet":
            mask &= (xk - lo >= margin) & (hi - xk >= margin)
    if grid.dim > 1 and grid.sector == "ordered":
        lo, hi, m = grid.axes[0]
        margin = max(INTERIOR_MARGIN_FRAC * (hi - lo), 3 * grid.axis_h(0))
        for a in range(grid.dim - 1):
            mask &= (ham.nodes[:, a + 1] - ham.nodes[:, a]) >= margin
    return mask


def reduced_hamiltonian(model: NBodyModel, grid: GridSpec,
                        stencil_order: int, partner: bool = False) -> SparseHamiltonian:
    """The relative operator (B+ B)/2 of an N = 2 model on a 1-D grid (see
    RELATIVE_KINETIC), or its partner (B B+)/2 when partner is True."""
    prep = relative_prepotential(model)
    pot = prep.partner_potential if partner else prep.potential
    return discretize(lambda r: RELATIVE_KINETIC * pot(r), grid, stencil_order,
                      kinetic_scale=RELATIVE_KINETIC)


def jastrow_ground_state(model: NBodyModel, grid: GridSpec,
                         stencil_order: int = 4):
    """Product ground state on the grid with its discrete residual.

    For N = 2 a 1-D grid means the relative problem at zero total momentum;
    any other grid is the N-body grid of `discretize`, which checks it.
    The residual is max over interior nodes of |(H psi)/psi|, which
    converges at the stencil order.  Non-normalizable regimes are flagged
    in meta, not rejected.
    """
    if grid.dim == 1 and model.n == 2:
        ham = reduced_hamiltonian(model, grid, stencil_order)
        logv = model.pair_log_jastrow(ham.nodes[:, 0])
    else:
        ham = discretize(model, grid, stencil_order)
        logv = np.zeros(ham.dim)
        for i in range(model.n):
            for j in range(i + 1, model.n):
                logv += model.pair_log_jastrow(ham.nodes[:, i] - ham.nodes[:, j])
    logv -= logv.max()
    values = np.exp(logv)
    values /= np.linalg.norm(values)
    mask = _interior_mask(ham)
    mask &= values > 1e-8 * values.max()
    if not np.any(mask):
        raise DomainError("grid too coarse: no trusted interior nodes")
    hv = ham.matrix @ values
    residual = float(np.max(np.abs(hv[mask] / values[mask])))
    normalizable = model.kind_row.normalizable(model)
    gf = GridFunctionND(ham.nodes, values, grid,
                        {"normalizable": normalizable,
                         "model": model.descriptor()})
    return gf, residual


def boundary_ambiguous(model: NBodyModel) -> bool:
    """True in the 0 < alpha < 1 window where both coincidence behaviors
    are square-integrable and the grid walls do not select one; spectral
    targets exclude this regime."""
    return 0.0 < model.alpha < 1.0


# ---------------------------------------------------------------------------
# two-body reduction
# ---------------------------------------------------------------------------

# With r = x2 - x1 the N = 2 Hamiltonian is P_tot^2 / 2 + (B+ B)/2, where
# B = A2 - A1 and (B+ B)/2 = RELATIVE_KINETIC * (-d2/dr2 + W^2 - W') for the
# pair's W as a 1-D prepotential.
RELATIVE_KINETIC = 2.0


def relative_prepotential(model: NBodyModel) -> Prepotential1D:
    """The relative 1-D shape-invariant problem of an N = 2 model: its pair
    W, validated as a 1-D prepotential of the pair row's family."""
    if model.n != 2:
        raise DomainError("reduction applies to two-body models only")
    prep = model.pair.prep
    return make_prepotential_1d(prep.family, prep.params)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

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
        if prep.w_prime_delta():
            # a bare callable cannot carry the partner's +w_prime_delta spike
            raise DomainError(f"{prep.family}: the partner's delta spike at x = 0 "
                              "is not discretized")
        left = discretize(prep.partner_potential, grid, stencil_order)
        right = discretize(prep.step(), grid, stencil_order)
        shift = prep.remainder_next()
    elif isinstance(operator, NBodyModel):
        left = reduced_hamiltonian(operator, grid, stencil_order, partner=True)
        right = reduced_hamiltonian(operator.shifted(1.0), grid, stencil_order)
        shift = remainder_shift(operator)
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
