"""Supersymmetric extension at desk scale: fermionic Fock space, sparse
supercharges Q = sum_i A_i psi_i, the Hamiltonian H = Q+Q + QQ+, the
fermion-number sector structure with its exact pairing, and the two
inequivalent extensions sharing a bosonic sector.

Two-body systems are built on a staggered relative grid.  The point of the
staggering is spectral honesty: a square discrete ladder matrix X forces
spec(X X+) = spec(X+ X), which would hand the bosonic sector a spurious
zero mode.  Making X map midpoint values to node values (one column more
than rows) reproduces the continuum structure exactly: the top sector gets
a one-dimensional exact kernel (the product ground state), the bosonic
sector stays strictly positive, and Q remains exactly nilpotent, center-of-
mass modes included, because the momentum term is a scalar on each mode.
The Fock states carrying the symmetric mode get the phase i, a diagonal
unitary gauge that makes the center-of-mass coefficient real; every
system is then real, and spectra and kernel tags come from real eigh.

Full N-body grids (N >= 3) use square D_i + W_i ladders with skew D_i;
there the commutators [A_i, A_j] survive at stencil order, so ||Q^2|| is
reported as a diagnostic rather than guaranteed to vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DimensionCapError, DomainError
from .models import NBodyModel
from .spectral import GridSpec, _axis_operators, _deriv_coeffs, _sector_nodes

SPARSE_CAP = 200_000
DENSE_SECTOR_CAP = 5000
VARIANTS = ("s1", "s2")


def cm_momenta(count: int) -> tuple:
    """The first `count` center-of-mass momenta in the order 0, 1, -1, 2, -2, ..."""
    if count < 1:
        raise DomainError(f"need at least one center-of-mass momentum mode, got {count}")
    return tuple((j + 1) // 2 * (1 if j % 2 else -1) for j in range(count))


DEFAULT_CM_MOMENTA = cm_momenta(8)


# ---------------------------------------------------------------------------
# fermionic Fock space
# ---------------------------------------------------------------------------

@dataclass
class FockBasis:
    """2^N occupation states; mode i is bit i of the basis index.

    Annihilators carry the ordered-string parity sign (-1)^(number of
    occupied modes below i), realizing the canonical anticommutators
    exactly on integer matrices.
    """
    n_modes: int
    annihilators: list = field(default_factory=list)
    creators: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    def fermion_number(self, index: int) -> int:
        return int(index).bit_count()

    def sector_indices(self, f: int) -> np.ndarray:
        return np.array([s for s in range(self.dim)
                         if self.fermion_number(s) == f], dtype=int)

    def anticommutator_defect(self) -> float:
        """max |{psi_i, psi_j+} - delta_ij| + |{psi_i, psi_j}| over pairs."""
        worst = 0.0
        eye = sp.identity(self.dim, format="csr")
        for i in range(self.n_modes):
            ai = self.annihilators[i]
            for j in range(self.n_modes):
                aj, cj = self.annihilators[j], self.creators[j]
                anti = ai @ cj + cj @ ai - (eye if i == j else 0 * eye)
                worst = max(worst, _spmax(anti))
                worst = max(worst, _spmax(ai @ aj + aj @ ai))
        return worst


def _spmax(mat) -> float:
    mat = sp.csr_matrix(mat)
    return float(np.max(np.abs(mat.data))) if mat.nnz else 0.0


def make_fock_basis(n_modes: int) -> FockBasis:
    if n_modes < 1:
        raise DomainError("need at least one fermionic mode")
    dim = 1 << n_modes
    basis = FockBasis(n_modes)
    for i in range(n_modes):
        rows, cols, vals = [], [], []
        bit = 1 << i
        low_mask = bit - 1
        for s in range(dim):
            if s & bit:
                sign = -1.0 if (s & low_mask).bit_count() % 2 else 1.0
                rows.append(s ^ bit)
                cols.append(s)
                vals.append(sign)
        op = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)))
        basis.annihilators.append(op)
        basis.creators.append(sp.csr_matrix(op.T))
    return basis


# ---------------------------------------------------------------------------
# staggered relative ladders (two-body systems)
# ---------------------------------------------------------------------------

def _staggered_ladder(m_cells: int, length: float, w_fun, derivative_sign: int,
                      to_nodes: bool) -> sp.csr_matrix:
    """4th-order discretization of (sign * d/dr + w) between staggered grids.

    to_nodes: midpoint values -> node values, shape (m-1, m); otherwise node
    values -> midpoint values, shape (m, m-1).  Dirichlet walls sit on the
    (excluded) boundary nodes; values beyond them are zero-extended, which
    is where the one-column surplus of the wide direction comes from.
    """
    h = length / m_cells
    u = m_cells - 1
    if to_nodes:
        r_eval = h * np.arange(1, m_cells)
        shape = (u, m_cells)
        # column j holds midpoint (j + 1/2) h; node row j sits at (j + 1) h
        offsets = ((0, -27.0, 9.0), (1, 27.0, 9.0), (-1, 1.0, -1.0), (2, -1.0, -1.0))
    else:
        r_eval = h * (np.arange(m_cells) + 0.5)
        shape = (m_cells, u)
        # column j holds node (j + 1) h; midpoint row i sits at (i + 1/2) h
        offsets = ((-1, -27.0, 9.0), (0, 27.0, 9.0), (-2, 1.0, -1.0), (1, -1.0, -1.0))
    w = np.asarray(w_fun(r_eval), dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError("staggered grid point on a singularity")
    rows, cols, vals = [], [], []
    for off, cd, ca in offsets:
        row = np.arange(max(0, -off), min(shape[0], shape[1] - off))
        rows.append(row)
        cols.append(row + off)
        vals.append(derivative_sign * cd / (24.0 * h) + w[row] * ca / 16.0)
    return sp.csr_matrix(sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape))


# ---------------------------------------------------------------------------
# system container
# ---------------------------------------------------------------------------

@dataclass
class SusySystem:
    model: NBodyModel
    grid: GridSpec
    variant: str
    fock: FockBasis
    cm_momenta: tuple | None
    blocks: list                  # (cm_index, fock_state, offset, size)
    fermion_of: np.ndarray        # fermion number per degree of freedom
    Q: sp.csr_matrix
    Qdag: sp.csr_matrix
    H: sp.csr_matrix
    relative_ops: dict = field(default_factory=dict)
    a_space: list | None = None   # square ladders (N >= 3 grids only)
    space_nodes: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    _sector_eig: dict = field(default_factory=dict, repr=False)
    _charges: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def sector_indices(self, f: int) -> np.ndarray:
        return np.where(self.fermion_of == f)[0]

    def sector_matrix(self, f: int) -> sp.csr_matrix:
        """The sector-f diagonal block of H, sparse."""
        ix = self.sector_indices(f)
        return self.H[ix][:, ix]

    def offblock_leak(self) -> float:
        """Largest |H| entry connecting different fermion numbers (exact 0)."""
        coo = self.H.tocoo()
        cross = coo.data[self.fermion_of[coo.row] != self.fermion_of[coo.col]]
        return float(np.max(np.abs(cross))) if cross.size else 0.0

    def sector_blocks(self, f: int):
        """(cm_index, fock_state, offset, size) entries of sector f."""
        return [b for b in self.blocks
                if self.fock.fermion_number(b[1]) == f]


def _finish(sys: SusySystem):
    q, ham = sys.Q, sys.H
    q2 = q @ q
    sys.diagnostics["q_squared_fro"] = float(
        np.sqrt(np.sum(np.abs(q2.data) ** 2)) if q2.nnz else 0.0)
    sys.diagnostics["hermiticity_defect"] = _spmax(ham - ham.T)
    sys.diagnostics["offblock_leak"] = sys.offblock_leak()
    hq = ham @ q - q @ ham
    scale = max(1.0, _spmax(ham)) * max(1.0, _spmax(q))
    sys.diagnostics["h_q_commutator"] = _spmax(hq) / scale
    return sys


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_two_body(model: NBodyModel, grid: GridSpec, variant: str,
                    cm_momenta, stencil_order: int) -> SusySystem:
    """Graded staggered assembly for N = 2.

    In the rotated fermion basis (mode 0 = symmetric, mode 1 = difference)
    the supercharge is Q = sqrt(2) [c psi_sum + X psi_diff] with c = i k / 2
    per center-of-mass mode and X the wide staggered ladder of the relative
    coordinate; for variant s2, c -> conj(c) and X -> transpose of the
    node-to-midpoint ladder at shifted coupling.  Fermion-number sectors:
    0-fermion and the symmetric half of the 1-fermion sector live on nodes;
    the difference half and the 2-fermion sector live on midpoints.

    The Fock states |s> and |sd> carry the phase i.  This diagonal unitary
    gauge leaves spectra, |Q v|, |Q+ v| and every diagnostic unchanged and
    turns c into the real -k/2 (s1) or +k/2 (s2), so Q, Q+ and H are real.
    Each momentum block of Q is c times a fixed center-of-mass layout plus
    a fixed relative layout, and Q is their Kronecker products with the
    momentum space.
    """
    if grid.dim != 1:
        raise DomainError("two-body systems take a 1-D relative grid")
    if stencil_order != 4:
        raise DomainError("staggered ladders are built at stencil order 4")
    lo, hi, m_cells = grid.axes[0]
    length = hi - lo
    if lo != 0.0:
        raise DomainError("relative grids start at the coincidence wall r = 0")
    u = m_cells - 1
    if variant == "s1":
        x_op = _staggered_ladder(m_cells, length, model.pair_w, +1, to_nodes=True)
        c_over_k = -0.5
    else:
        up = model.shifted(1.0)
        node_to_mid = _staggered_ladder(m_cells, length, up.pair_w, +1, to_nodes=False)
        x_op = sp.csr_matrix(node_to_mid.T)     # wide, ~ (-d/dr + w(alpha+1))
        c_over_k = 0.5
    kvals = np.asarray(cm_momenta, dtype=float)
    if kvals.size == 0:
        raise DomainError("need at least one center-of-mass momentum mode")
    fock = make_fock_basis(2)
    sizes = (u, u, m_cells, m_cells)
    dim = len(kvals) * sum(sizes)
    if dim > SPARSE_CAP:
        raise DimensionCapError(f"total dimension {dim} exceeds cap {SPARSE_CAP}")
    starts = (0, u, 2 * u, 2 * u + m_cells, 2 * u + 2 * m_cells)
    blocks = [(ik, f, ik * starts[4] + starts[f], sizes[f])
              for ik in range(len(kvals)) for f in range(4)]
    fermion_of = np.tile(np.repeat([fock.fermion_number(f) for f in range(4)], sizes),
                         len(kvals))

    def fock_layout(entries):
        # zero diagonal blocks fix every block row and column size
        return sp.bmat([[entries.get((r, col), sp.csr_matrix((sizes[r], sizes[col]))
                                     if r == col else None)
                         for col in range(4)] for r in range(4)])

    root2 = math.sqrt(2.0)
    # psi_sum moves |s> -> |0> and |sd> -> |d> with sign +1
    cm_block = fock_layout({(0, 1): root2 * sp.identity(u),
                            (2, 3): root2 * sp.identity(m_cells)})
    # psi_diff moves |d> -> |0> (+1) and |sd> -> |s> (-1)
    x_block = fock_layout({(0, 2): root2 * x_op, (1, 3): -root2 * x_op})
    k_ix = np.arange(len(kvals))
    cm_part = sp.kron(sp.coo_matrix((c_over_k * kvals, (k_ix, k_ix))), cm_block, format="coo")
    x_part = sp.kron(sp.identity(len(kvals)), x_block, format="coo")
    # concatenated, not summed: a sum drops the k = 0 entries, and the
    # pattern of Q (and the summation order of H) would depend on the momenta
    q = sp.csr_matrix(sp.coo_matrix(
        (np.r_[cm_part.data, x_part.data],
         (np.r_[cm_part.row, x_part.row], np.r_[cm_part.col, x_part.col])), shape=(dim, dim)))
    qdag = sp.csr_matrix(q.T)
    ham = (qdag @ q + q @ qdag).tocsr()
    h = length / m_cells
    nodes = h * np.arange(1, m_cells)
    sys = SusySystem(model=model, grid=grid, variant=variant, fock=fock,
                     cm_momenta=tuple(cm_momenta), blocks=blocks,
                     fermion_of=fermion_of, Q=q, Qdag=qdag, H=ham,
                     relative_ops={"x": x_op, "nodes": nodes,
                                   "mids": h * (np.arange(m_cells) + 0.5)},
                     space_nodes=None)
    return _finish(sys)


def _build_grid(model: NBodyModel, grid: GridSpec, variant: str,
                stencil_order: int) -> SusySystem:
    """Square-ladder assembly on an (ordered) N-body grid."""
    if grid.dim != model.n:
        raise DomainError("grid dimension must match the particle count")
    if model.g != 0.0 and grid.sector != "ordered":
        raise DomainError("singular kinds need the ordered sector")
    base = model if variant == "s1" else model.shifted(1.0)
    idx, nodes = _sector_nodes(grid)
    n_nodes = len(idx)
    w_all = base.prepotential(nodes)
    ladders = [(d + sp.diags(w_all[:, axis])).tocsr() for axis, d in
               enumerate(_axis_operators(grid, idx, _deriv_coeffs, stencil_order))]

    fock = make_fock_basis(model.n)
    total = n_nodes * fock.dim
    if total > SPARSE_CAP:
        raise DimensionCapError(f"total dimension {total} exceeds cap {SPARSE_CAP}")
    q = sp.csr_matrix((total, total))
    for i in range(model.n):
        lowering = ladders[i] if variant == "s1" else sp.csr_matrix(ladders[i].T)
        q = q + sp.kron(lowering, fock.annihilators[i], format="csr")
    qdag = sp.csr_matrix(q.T)
    ham = (qdag @ q + q @ qdag).tocsr()
    fermion_of = np.tile([fock.fermion_number(f) for f in range(fock.dim)], n_nodes)
    sys = SusySystem(model=model, grid=grid, variant=variant, fock=fock,
                     cm_momenta=None, blocks=[], fermion_of=fermion_of,
                     Q=q, Qdag=qdag, H=ham, a_space=ladders, space_nodes=nodes)
    return _finish(sys)


def build_susy(model: NBodyModel, grid: GridSpec, variant: str = "s1",
               cm_momenta=DEFAULT_CM_MOMENTA, stencil_order: int = 4) -> SusySystem:
    """Assemble Q, Q+ and H = Q+Q + QQ+ on (space) x (Fock).

    variant 's1' uses A_i(alpha) with psi_i; 's2' uses A+_i(alpha+1) with
    psi_i.  N = 2 with a 1-D grid selects the staggered relative
    representation (exactly nilpotent Q); matching N-dimensional grids
    select the square-ladder representation with its reported defects.
    """
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}")
    if model.n == 2 and grid.dim == 1:
        return _build_two_body(model, grid, variant, cm_momenta, stencil_order)
    return _build_grid(model, grid, variant, stencil_order)


# ---------------------------------------------------------------------------
# sector analysis
# ---------------------------------------------------------------------------

def _sector_eigh(sys: SusySystem, f: int):
    """Eigenpairs (vals, vecs, ix) of sector f, cached on the system.

    The sector matrix splits exactly into the connected components of its
    sparsity graph: on two-body systems one per center-of-mass momentum,
    and one per momentum and Fock state in the 1-fermion sector; a single
    one on N >= 3 grids.  Each block is solved by a dense real eigh; the
    eigenvalues are merged by a stable sort, and vecs holds every
    eigenvector on the sector's indices ix.
    """
    if f not in sys._sector_eig:
        ix = sys.sector_indices(f)
        if len(ix) > DENSE_SECTOR_CAP:
            raise DimensionCapError(
                f"sector {f} dimension {len(ix)} exceeds dense cap {DENSE_SECTOR_CAP}")
        mat = sys.sector_matrix(f)
        # != 0 drops stored zeros (the 1-fermion cross terms cancel exactly)
        n_blocks, labels = connected_components(mat != 0, directed=False)
        members = [np.flatnonzero(labels == b) for b in range(n_blocks)]
        dense = mat.toarray()
        solved = [np.linalg.eigh(dense[np.ix_(rows, rows)]) for rows in members]
        del dense  # before vecs, so the two never coexist
        all_vals = np.concatenate([bvals for bvals, _ in solved])
        order = np.argsort(all_vals, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(len(order))
        vecs = np.zeros((len(ix), len(ix)))
        first = 0
        for rows, (_, bvecs) in zip(members, solved):
            vecs[np.ix_(rows, column[first:first + len(rows)])] = bvecs
            first += len(rows)
        sys._sector_eig[f] = (all_vals[order], vecs, ix)
    return sys._sector_eig[f]


def sector_spectra(sys: SusySystem, k: int | None = None) -> dict:
    """Eigenvalues per fermion-number sector (all of them when k is None)."""
    out = {}
    for f in range(sys.model.n + 1):
        vals, _, _ = _sector_eigh(sys, f)
        out[f] = vals if k is None else vals[:k]
    return out


def _cluster_slices(vals: np.ndarray, rel: float = 1e-8):
    slices, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or abs(vals[i] - vals[start]) > rel * max(1.0, abs(vals[start])):
            slices.append(slice(start, i))
            start = i
    return slices


def _charge_product(op: sp.csr_matrix, ix: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """op applied to the sector eigenvectors, on the rows op can reach only."""
    cols = op[:, ix]
    return cols[cols.getnnz(axis=1) > 0] @ vecs


def _sector_charges(sys: SusySystem, f: int):
    """(lam, rotated, qn, qdn) of sector f, computed once and cached.

    Each degenerate cluster of eigenvectors is rotated to diagonalize Q+Q
    on it, by the eigh of the cluster's Gram matrix of Q v columns; the
    superalgebra then puts each rotated state in ker Q or in ker Q+.  lam
    is the cluster mean per state, qn and qdn are |Q v| and |Q+ v| of the
    rotated states.  None of it depends on a tolerance.
    """
    if f not in sys._charges:
        vals, vecs, ix = _sector_eigh(sys, f)
        qv = _charge_product(sys.Q, ix, vecs)
        qdv = _charge_product(sys.Qdag, ix, vecs)
        rotated = vecs.copy()
        starts = np.array([sl.start for sl in _cluster_slices(vals)])
        sizes = np.diff(starts, append=len(vals))
        lam = np.repeat(np.add.reduceat(vals, starts) / sizes, sizes)
        for size in np.unique(sizes[sizes > 1]):
            # every cluster of one size at once: cols[c] are cluster c's columns,
            # and arr.T[cols] stacks their column vectors as rows
            cols = starts[sizes == size][:, None] + np.arange(size)
            stacked = qv.T[cols]
            _, rot = np.linalg.eigh(stacked @ stacked.transpose(0, 2, 1))
            rot_t = np.ascontiguousarray(rot.transpose(0, 2, 1))
            for arr in (rotated, qv, qdv):
                arr.T[cols] = rot_t @ arr.T[cols]
        sys._charges[f] = (lam, rotated, np.linalg.norm(qv, axis=0),
                           np.linalg.norm(qdv, axis=0))
    return sys._charges[f]


def kernel_classify(sys: SusySystem, zero_tol: float = 1e-2,
                    split_tol: float = 1e-6) -> dict:
    """Tag every sector eigenstate by the supercharge that annihilates it.

    Degenerate clusters are rotated to diagonalize Q+Q on the cluster; the
    superalgebra then puts each state in ker Q (all its energy from QQ+) or
    in ker Q+ (all of it from Q+Q).  States whose cluster has mean
    lambda < zero_tol count as zero modes.  Returns per-sector counts, tags
    and the charge norms of the rotated states, whose vectors
    `_sector_charges` holds.
    """
    report = {"sectors": {}, "unsplit": 0}
    for f in range(sys.model.n + 1):
        vals, _, _ = _sector_eigh(sys, f)
        lam, _, qn, qdn = _sector_charges(sys, f)
        zero = lam < zero_tol
        bound = split_tol * np.sqrt(np.where(zero, 0.0, lam))
        in_ker_q, in_ker_qdag = qn <= bound, qdn <= bound
        tags = np.where(zero, "zero", np.where(
            in_ker_q == in_ker_qdag, "unsplit",
            np.where(in_ker_q, "ker_q", "ker_qdag"))).tolist()
        report["unsplit"] += tags.count("unsplit")
        counts = {tag: tags.count(tag) for tag in ("ker_q", "ker_qdag", "zero")}
        report["sectors"][f] = {"counts": counts, "tags": tags,
                                "eigenvalues": vals.tolist(),
                                "q_norms": qn.tolist(),
                                "qdag_norms": qdn.tolist()}
    return report


def pairing_check(sys: SusySystem, tol: float = 1e-6,
                  zero_tol: float = 1e-2) -> dict:
    """Nonzero eigenvalues of sector F in ker Q reappear in sector F+1 in
    ker Q+ (the partner state is Q+ applied to the original)."""
    classify = kernel_classify(sys, zero_tol=zero_tol)
    worst = 0.0
    detail = {}
    for f in range(sys.model.n):
        lo = classify["sectors"][f]
        hi = classify["sectors"][f + 1]
        left = sorted(v for v, t in zip(lo["eigenvalues"], lo["tags"])
                      if t == "ker_q" and v > zero_tol)
        right = sorted(v for v, t in zip(hi["eigenvalues"], hi["tags"])
                       if t == "ker_qdag" and v > zero_tol)
        if len(left) != len(right):
            detail[f] = {"count_low": len(left), "count_high": len(right)}
            worst = math.inf
            continue
        gap = max((abs(a - b) / max(1.0, abs(a))
                   for a, b in zip(left, right)), default=0.0)
        detail[f] = {"pairs": len(left), "max_gap": gap}
        worst = max(worst, gap)
    return {"max_relative_gap": worst, "per_boundary": detail,
            "passed": worst <= tol}


# ---------------------------------------------------------------------------
# component-sum structure
# ---------------------------------------------------------------------------

def sector_sum_check(sys: SusySystem, k: int = 6, tol: float = 1e-6,
                     zero_tol: float = 1e-2, split_tol: float = 1e-6) -> dict:
    """Component sums of near-boundary sector states.

    1-fermion eigenstates in ker Q: the particle-mode component sum is
    proportional to the symmetric-mode part; it either vanishes or solves
    the 0-fermion block at the same eigenvalue.  (N-1)-fermion states in
    ker Q+: the dual sum (difference-mode part for N = 2, string-signed
    components in general) does the same against the N-fermion block.
    Each inspected state is classified; for N = 3 the cross relation
    phi_i ~ sum_jk eps_ijk A_j chi_k is evaluated and its alignment
    residual reported.
    """
    n = sys.model.n
    classify = kernel_classify(sys, zero_tol=zero_tol, split_tol=split_tol)
    report = {"one_fermion": [], "n_minus_one": [], "epsilon_relation": None}

    if n == 2 and sys.cm_momenta is not None:
        _sum_check_staggered(sys, classify, report, k, tol, zero_tol)
    else:
        _sum_check_grid(sys, classify, report, k, tol, zero_tol)
    if n == 3 and sys.a_space is not None:
        report["epsilon_relation"] = _epsilon_relation(sys, k, zero_tol)
    return report


def _collect(sys: SusySystem, sector_blocks, vec, want_fock):
    """Concatenate the pieces of a sector eigenvector lying in fock state
    want_fock, ordered by center-of-mass block."""
    pieces = []
    pos = 0
    for _, f, _, size in sector_blocks:
        if f == want_fock:
            pieces.append(vec[pos:pos + size])
        pos += size
    return np.concatenate(pieces)


def _sum_check_staggered(sys, classify, report, k, tol, zero_tol):
    h0 = sys.sector_matrix(0)
    h2 = sys.sector_matrix(2)
    vals1, _, _ = _sector_eigh(sys, 1)
    _, vecs1, _, _ = _sector_charges(sys, 1)   # the states the tags describe
    tags1 = classify["sectors"][1]["tags"]
    sector1 = sys.sector_blocks(1)
    checked_q = checked_qd = 0
    for t in range(len(vals1)):
        if checked_q >= k and checked_qd >= k:
            break
        lam = vals1[t]
        if lam <= zero_tol:
            continue
        vec = vecs1[:, t]
        if tags1[t] == "ker_q" and checked_q < k:
            checked_q += 1
            # particle-mode sum phi_1 + phi_2 = sqrt(2) * symmetric part
            phi = _collect(sys, sector1, vec, want_fock=1)
            report["one_fermion"].append(
                _classify_sum(h0, phi, lam, tol))
        elif tags1[t] == "ker_qdag" and checked_qd < k:
            checked_qd += 1
            # dual sum chi_1 + chi_2 = sqrt(2) * difference part
            chi = _collect(sys, sector1, vec, want_fock=2)
            report["n_minus_one"].append(
                _classify_sum(h2, chi, lam, tol))


def _classify_sum(block, summed, lam, tol):
    norm = float(np.linalg.norm(summed))
    if norm < tol:
        return {"lambda": float(lam), "class": "vanishing", "residual": norm}
    resid = float(np.linalg.norm(block @ summed - lam * summed)
                  / (norm * max(1.0, abs(lam))))
    cls = "degenerate" if resid < tol else "unexplained"
    return {"lambda": float(lam), "class": cls, "residual": resid}


def _grid_components(sys: SusySystem, block_vec: np.ndarray, fock_ix: np.ndarray):
    mat = block_vec.reshape(-1, len(fock_ix))
    return mat.T.copy()


def _sum_check_grid(sys, classify, report, k, tol, zero_tol):
    n = sys.model.n
    h0 = sys.sector_matrix(0)
    hn = sys.sector_matrix(n)
    vals1, _, _ = _sector_eigh(sys, 1)
    _, vecs1, _, _ = _sector_charges(sys, 1)   # the states the tags describe
    tags1 = classify["sectors"][1]["tags"]
    fk1 = sys.fock.sector_indices(1)
    checked = 0
    for t in range(len(vals1)):
        if checked >= k:
            break
        if tags1[t] != "ker_q" or vals1[t] <= zero_tol:
            continue
        checked += 1
        comp = _grid_components(sys, vecs1[:, t], fk1)
        report["one_fermion"].append(
            _classify_sum(h0, comp.sum(axis=0), vals1[t], tol))

    valsm, _, _ = _sector_eigh(sys, n - 1)
    _, vecsm, _, _ = _sector_charges(sys, n - 1)
    tagsm = classify["sectors"][n - 1]["tags"]
    fkm = sys.fock.sector_indices(n - 1)
    full_state = (1 << n) - 1
    checked = 0
    for t in range(len(valsm)):
        if checked >= k:
            break
        if tagsm[t] != "ker_qdag" or valsm[t] <= zero_tol:
            continue
        checked += 1
        raw = _grid_components(sys, vecsm[:, t], fkm)
        chi_sum = np.zeros(raw.shape[1])
        for pos, s in enumerate(fkm):
            i = int(full_state ^ int(s)).bit_length() - 1  # the empty mode
            sign = -1.0 if (int(s) & ((1 << i) - 1)).bit_count() % 2 else 1.0
            chi_sum += sign * raw[pos]
        report["n_minus_one"].append(
            _classify_sum(hn, chi_sum, valsm[t], tol))


def _epsilon_relation(sys: SusySystem, k: int, zero_tol: float) -> dict:
    """N = 3 cross relation between 2-fermion states and their 1-fermion
    partners: phi_i ~ sum_jk eps_ijk A_j chi_k.

    The relation is the component form of applying the supercharge, so its
    alignment with Q v validates the index structure exactly; how
    good an eigenvector that partner is (its eigen-residual in the 1-fermion
    block) measures the grid-limited degeneracy claim, reported separately.
    """
    eps = np.zeros((3, 3, 3))
    for i, j, kk in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, kk] = 1.0
        eps[i, kk, j] = -1.0
    vals2, vecs2, ix2 = _sector_eigh(sys, 2)
    q21 = sys.Q[sys.sector_indices(1)][:, ix2]
    h1 = sys.sector_matrix(1)
    fk2 = sys.fock.sector_indices(2)
    results = []
    for t2 in range(len(vals2)):
        lam = float(vals2[t2])
        if lam <= zero_tol:
            continue
        u = q21 @ vecs2[:, t2]
        u_norm = np.linalg.norm(u)
        if u_norm ** 2 < 0.5 * lam:
            continue  # dominantly annihilated by Q: the relation is 0 = 0
        raw2 = _grid_components(sys, vecs2[:, t2], fk2)
        chi = np.zeros((3, raw2.shape[1]))
        for pos, s in enumerate(fk2):
            empty = int(7 ^ int(s)).bit_length() - 1
            sign = -1.0 if (int(s) & ((1 << empty) - 1)).bit_count() % 2 else 1.0
            chi[empty] = sign * raw2[pos]
        phi_pred = np.zeros((raw2.shape[1], 3))
        for i in range(3):
            for j in range(3):
                for kk in range(3):
                    if eps[i, j, kk]:
                        phi_pred[:, i] += eps[i, j, kk] * (sys.a_space[j] @ chi[kk])
        pred = phi_pred.reshape(-1)  # space-major, matching the sector layout
        nrm = np.linalg.norm(pred)
        if nrm == 0.0:
            continue
        overlap = abs(np.vdot(u, pred)) / (u_norm * nrm)
        eig_res = float(np.linalg.norm(h1 @ u - lam * u) / (u_norm * max(1.0, lam)))
        results.append({"lambda": lam,
                        "alignment_residual": float(1.0 - overlap),
                        "partner_eigen_residual": eig_res})
        if len(results) >= k:
            break
    return {"checked": len(results), "cases": results}


# ---------------------------------------------------------------------------
# variant comparison
# ---------------------------------------------------------------------------

def variant_comparison(model: NBodyModel, grid: GridSpec,
                       cm_momenta=DEFAULT_CM_MOMENTA, stencil_order: int = 4,
                       levels: int = 6) -> dict:
    """Build both extensions and compare their sector spectra.

    The 0-fermion spectra must agree up to one additive constant (the shape
    invariance shift); the 1-fermion spectra must not be related by any
    constant shift.  Spectra are the right comparison object here: the two
    variants carry their staggered blocks on different grids, so matrix
    entries are not directly comparable even though the physics is.
    """
    s1 = build_susy(model, grid, "s1", cm_momenta, stencil_order)
    s2 = build_susy(model, grid, "s2", cm_momenta, stencil_order)
    out = {"variants": ("s1", "s2"), "model": model.descriptor(), "sectors": {}}
    for f in range(model.n + 1):
        e1 = sector_spectra(s1, levels)[f]
        e2 = sector_spectra(s2, levels)[f]
        L = min(len(e1), len(e2), levels)
        shift = float(np.mean(e1[:L] - e2[:L]))
        dev = float(np.max(np.abs(e1[:L] - e2[:L] - shift))
                    / max(1.0, np.max(np.abs(e1[:L]))))
        out["sectors"][f] = {"constant_shift": shift,
                             "relative_deviation_after_shift": dev}
    return out
