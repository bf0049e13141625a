"""Supersymmetric extension at desk scale: fermionic Fock space,
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

A two-body system is a direct sum over center-of-mass momenta, and each
momentum holds four Fock blocks built from one dense relative ladder.  It
is built and analyzed on numpy alone, the sector-sum check included: its
sector blocks, charge products and diagnostics are plain numpy products
of Q's Fock blocks.  Each diagonal Fock block of H is G + c_k^2 I or
G2 + c_k^2 I, with G = xs xs^T and G2 = xs^T xs shared by all momenta, so
one eigh of G and one of G2 serve every sector and momentum.  They are
solved apart, so the pairing of their nonzero eigenvalues stays a
measurement.  Q, Q+ and H keep the momentum, so the sector analysis runs
one momentum at a time, and no sector-wide eigenvector or charge matrix is
formed.  An N >= 3 grid sector is the one-momentum case, its own relative
matrix with shift 0.  A two-body system has no sparse Q; its sparse H is
assembled from the declared blocks, with scipy.sparse, when first read.
N >= 3 grids form their sparse Q, Q+ and H at build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionCapError, DomainError
from .models import NBodyModel, remainder_shift
from .spectral import (RESIDUAL_CONTRACT, GridSpec, _axis_operators, _deriv_coeffs,
                       _sector_nodes)

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
    exactly on integer matrices.  They are sparse and built on first read:
    two-body systems use the basis for its sector structure alone.
    """
    n_modes: int

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    def fermion_number(self, index: int) -> int:
        return int(index).bit_count()

    def sector_indices(self, f: int) -> np.ndarray:
        return np.array([s for s in range(self.dim)
                         if self.fermion_number(s) == f], dtype=int)

    @cached_property
    def annihilators(self) -> list:
        import scipy.sparse as sp

        ops = []
        for i in range(self.n_modes):
            rows, cols, vals = [], [], []
            bit = 1 << i
            for s in range(self.dim):
                if s & bit:
                    rows.append(s ^ bit)
                    cols.append(s)
                    vals.append(_string_sign(s, i))
            ops.append(sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)),
                                                   shape=(self.dim, self.dim))))
        return ops

    @cached_property
    def creators(self) -> list:
        import scipy.sparse as sp

        return [sp.csr_matrix(op.T) for op in self.annihilators]


def _string_sign(state: int, mode: int) -> float:
    """The ordered-string sign of `mode` in a Fock state: (-1)^(number of
    occupied modes below it)."""
    return -1.0 if (int(state) & ((1 << mode) - 1)).bit_count() % 2 else 1.0


def _holes(fock: FockBasis) -> list:
    """(empty mode, its string sign) of each (N-1)-fermion Fock state, in
    ascending state order."""
    states = [int(s) for s in fock.sector_indices(fock.n_modes - 1)]
    modes = [((fock.dim - 1) ^ s).bit_length() - 1 for s in states]
    return [(mode, _string_sign(s, mode)) for s, mode in zip(states, modes)]


def _spmax(mat) -> float:
    mat = mat.tocsr()
    return float(np.max(np.abs(mat.data))) if mat.nnz else 0.0


def _absmax(arrays) -> float:
    """Largest |entry| over dense arrays, 0.0 when they hold none."""
    return max((float(np.max(np.abs(a))) for a in arrays if a.size), default=0.0)


def make_fock_basis(n_modes: int) -> FockBasis:
    if n_modes < 1:
        raise DomainError("need at least one fermionic mode")
    return FockBasis(n_modes)


# ---------------------------------------------------------------------------
# staggered relative ladders (two-body systems)
# ---------------------------------------------------------------------------

def _staggered_ladder(m_cells: int, length: float, w_fun, derivative_sign: int,
                      to_nodes: bool) -> np.ndarray:
    """4th-order discretization of (sign * d/dr + w) between staggered grids,
    as a dense banded matrix.

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
    ladder = np.zeros(shape)
    for off, cd, ca in offsets:
        row = np.arange(max(0, -off), min(shape[0], shape[1] - off))
        ladder[row, row + off] = derivative_sign * cd / (24.0 * h) + w[row] * ca / 16.0
    return ladder


# ---------------------------------------------------------------------------
# system container
# ---------------------------------------------------------------------------

@dataclass
class SusySystem:
    """H = Q+Q + QQ+ on (space) x (Fock), with the analysis cached on first
    read: `diagnostics` when read, the block eigensolve of a sector
    (`_sector_eig`) when its spectrum is asked for, and the cluster
    rotations and charge norms (`_charges`) when it is classified.

    A two-body system is a direct sum over center-of-mass momenta.  It
    keeps Q as its Fock blocks, c_k I per momentum (`cm_coeff`) and the
    relative ladder xs = sqrt(2) X (`relative_ops["xs"]`), H as its
    per-momentum Fock blocks (`h_blocks`), and the two k-independent
    relative matrices G = xs xs^T and G2 = xs^T xs that each diagonal block
    is c_k^2 I away from (`h_relative`).  The analysis reads these; Q and
    Q+ are fields of N >= 3 grids alone, and the sparse H is assembled from
    the declared blocks on first read.
    """
    model: NBodyModel
    grid: GridSpec
    variant: str
    fock: FockBasis
    cm_momenta: tuple | None
    blocks: list                  # (cm_index, fock_state, offset, size)
    fermion_of: np.ndarray        # fermion number per degree of freedom
    relative_ops: dict = field(default_factory=dict)
    a_space: list | None = None   # square ladders (N >= 3 grids only)
    Q: object = field(default=None, repr=False)      # sparse Q (N >= 3 grids only)
    Qdag: object = field(default=None, repr=False)   # sparse Q+ (N >= 3 grids only)
    space_nodes: np.ndarray | None = None
    cm_coeff: np.ndarray | None = None  # c_k per momentum (two-body only)
    h_blocks: dict | None = field(default=None, repr=False)  # two-body only:
    # {(state, state'): (n_k, size, size')}, H's Fock blocks per momentum
    h_relative: dict | None = field(default=None, repr=False)  # two-body only:
    # {"G": G, "G2": G2}; H's (s, s) blocks are h_relative[_RELATIVE_OF[s]] + c_k^2 I
    _relative_eig: dict = field(default_factory=dict, repr=False)
    _sector_eig: dict = field(default_factory=dict, repr=False)
    _charges: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return len(self.fermion_of)

    @cached_property
    def H(self):
        """H, sparse: a grid system's Q+Q + QQ+, formed at build, and a
        two-body system's declared blocks on the diagonal, zeros
        eliminated, assembled on first read."""
        if self.Q is not None:
            return (self.Qdag @ self.Q + self.Q @ self.Qdag).tocsr()
        import scipy.sparse as sp

        ham = sp.block_diag([self.h_blocks[s, s][ik] for ik, s, _, _ in self.blocks],
                            format="csr")
        ham.eliminate_zeros()
        return ham

    @cached_property
    def diagnostics(self) -> dict:
        """||Q^2||_F, max |H - H^T|, the off-block leak and the scaled
        max |[H, Q]|, computed on first read."""
        if self.h_blocks is not None:
            return _two_body_diagnostics(self)
        q, ham = self.Q, self.H
        q2 = q @ q
        hq = ham @ q - q @ ham
        scale = max(1.0, _spmax(ham)) * max(1.0, _spmax(q))
        return {"q_squared_fro": float(np.sqrt(np.sum(np.abs(q2.data) ** 2))
                                       if q2.nnz else 0.0),
                "hermiticity_defect": _spmax(ham - ham.T),
                "offblock_leak": self.offblock_leak(),
                "h_q_commutator": _spmax(hq) / scale}

    def sector_indices(self, f: int) -> np.ndarray:
        return np.where(self.fermion_of == f)[0]

    def sector_matrix(self, f: int):
        """The sector-f diagonal block of H, sparse."""
        ix = self.sector_indices(f)
        return self.H[ix][:, ix]

    def offblock_leak(self) -> float:
        """Largest |H| entry connecting different fermion numbers (exact 0)."""
        if self.h_blocks is not None:
            number = self.fock.fermion_number
            return _absmax(blk for (a, b), blk in self.h_blocks.items()
                           if number(a) != number(b))
        coo = self.H.tocoo()
        cross = coo.data[self.fermion_of[coo.row] != self.fermion_of[coo.col]]
        return float(np.max(np.abs(cross))) if cross.size else 0.0

    def sector_blocks(self, f: int):
        """(cm_index, fock_state, offset, size) entries of sector f."""
        return [b for b in self.blocks
                if self.fock.fermion_number(b[1]) == f]


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
    Per momentum, Q has four Fock blocks: psi_sum puts c_k = -+(k/2) sqrt(2)
    on the diagonals of (|0>, |s>) and (|d>, |sd>), psi_diff puts
    xs = sqrt(2) X in (|0>, |d>) and -xs in (|s>, |sd>).  The builder keeps
    these, H's Fock blocks and their k-independent parts G and G2
    (`_two_body_h_blocks`), and declares one block per momentum and Fock
    state.  The momenta must be a nonempty 1-D sequence of distinct finite
    numbers, else DomainError.
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
    try:
        kvals = np.asarray(cm_momenta, dtype=float)
    except (TypeError, ValueError):
        kvals = None
    if (kvals is None or kvals.ndim != 1 or kvals.size == 0
            or not np.isfinite(kvals).all() or len(np.unique(kvals)) != kvals.size):
        raise DomainError("center-of-mass momenta must be a nonempty 1-D sequence of "
                          f"distinct finite numbers, got {cm_momenta!r}")
    n_k = len(kvals)
    # the Fock blocks are dense, so every sector must fit the dense cap
    for f, size in enumerate((u, u + m_cells, m_cells)):
        _check_dense_cap(f, n_k * size)
    if variant == "s1":
        x_op = _staggered_ladder(m_cells, length, model.pair_w, +1, to_nodes=True)
        c_over_k = -0.5
    else:
        up = model.shifted(1.0)
        node_to_mid = _staggered_ladder(m_cells, length, up.pair_w, +1, to_nodes=False)
        x_op = np.ascontiguousarray(node_to_mid.T)   # wide, ~ (-d/dr + w(alpha+1))
        c_over_k = 0.5
    fock = make_fock_basis(2)
    sizes = (u, u, m_cells, m_cells)
    starts = np.cumsum((0, *sizes))
    blocks = [(ik, f, ik * starts[4] + starts[f], sizes[f])
              for ik in range(n_k) for f in range(4)]
    fermion_of = np.tile(np.repeat([fock.fermion_number(f) for f in range(4)], sizes), n_k)
    root2 = math.sqrt(2.0)
    xs = root2 * x_op
    c = c_over_k * kvals * root2
    h_blocks, h_relative = _two_body_h_blocks(xs, c)
    return SusySystem(model=model, grid=grid, variant=variant, fock=fock,
                      cm_momenta=tuple(cm_momenta), blocks=blocks,
                      fermion_of=fermion_of,
                      relative_ops={"x": x_op, "xs": xs,
                                    "mids": length / m_cells * (np.arange(m_cells) + 0.5)},
                      cm_coeff=c, h_blocks=h_blocks, h_relative=h_relative)


# the k-independent relative matrix of each Fock state |0>, |s>, |d>, |sd>
_RELATIVE_OF = ("G", "G", "G2", "G2")


def _two_body_h_blocks(xs: np.ndarray, c: np.ndarray) -> tuple:
    """(H's Fock blocks, {"G": G, "G2": G2}): H = Q+Q + QQ+ per Fock state,
    stacked over the momenta, and the relative matrices they share:
      |0>, |s>:   G + c_k^2 I,  G = xs xs^T;
      |d>, |sd>:  G2 + c_k^2 I, G2 = xs^T xs.
    numpy forms a product with its own transpose as a symmetric one, so G
    and G2 are exactly symmetric.  The |s>-|d> terms c xs - xs c cancel
    exactly, so H holds no other block.
    """
    c2 = (c * c)[:, None, None]
    g, g2 = xs @ xs.T, xs.T @ xs
    h_top, h_mid = g + c2 * np.eye(len(g)), g2 + c2 * np.eye(len(g2))
    return ({(0, 0): h_top, (1, 1): h_top, (2, 2): h_mid, (3, 3): h_mid},
            {"G": g, "G2": g2})


def _two_body_diagnostics(sys: SusySystem) -> dict:
    """The diagnostics of `SusySystem.diagnostics`, from Q's Fock blocks
    (c I, xs, -xs, c I) and H's.

    Q^2 lives in the (|0>, |sd>) block alone, as c (-xs) + xs c; [H, Q]
    lives in Q's four blocks, h_a Q_ab - Q_ab h_b for each.
    """
    xs, c = sys.relative_ops["xs"], sys.cm_coeff[:, None, None]
    hb = sys.h_blocks
    h0, h1, h2, h3 = (hb[s, s] for s in range(4))
    commutator = (h0 * c - c * h1, h0 @ xs - xs @ h2, xs @ h3 - h1 @ xs, h2 * c - c * h3)
    scale = max(1.0, _absmax(hb.values())) * max(1.0, _absmax((c, xs)))
    return {"q_squared_fro": float(np.linalg.norm(c * -xs + xs * c)),
            "hermiticity_defect": _absmax(
                blk - hb[b, a].swapaxes(1, 2) if (b, a) in hb else blk
                for (a, b), blk in hb.items()),
            "offblock_leak": sys.offblock_leak(),
            "h_q_commutator": _absmax(commutator) / scale}


def _build_grid(model: NBodyModel, grid: GridSpec, variant: str,
                stencil_order: int) -> SusySystem:
    """Square-ladder assembly on an (ordered) N-body grid."""
    import scipy.sparse as sp

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
    fermion_of = np.tile([fock.fermion_number(f) for f in range(fock.dim)], n_nodes)
    system = SusySystem(model=model, grid=grid, variant=variant, fock=fock,
                        cm_momenta=None, blocks=[], fermion_of=fermion_of,
                        a_space=ladders, space_nodes=nodes, Q=q, Qdag=sp.csr_matrix(q.T))
    _ = system.H   # grid systems assemble H at build
    return system


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

@dataclass
class _SectorEigen:
    """Eigenvalues of one sector, with the eigenvectors of its parts.

    The sector's blocks are those of its parts (`_sector_parts`), one per
    momentum and Fock state; part b holds its blocks' rows within the
    sector, rows[b], and one eigenvector matrix part_vecs[b] that all its
    momenta share.  The block eigenpairs, concatenated momentum-major and
    then part by part, are indexed by `order`: vals[p] is the eigenvalue of
    concatenated eigenpair order[p].  No sector-wide eigenvector matrix is
    formed.
    """
    vals: np.ndarray      # ascending
    ix: np.ndarray        # the sector's indices into the system
    order: np.ndarray
    rows: list            # (n_k, size) per part
    part_vecs: list       # (size, size) per part


class _SectorPart(NamedTuple):
    """One Fock state's blocks of a sector, stacked over the momenta:
    blocks[i] = relative + shifts[i] I, up to roundoff, on the sector rows
    rows[i].  Parts with one key share their relative matrix."""
    rows: np.ndarray        # (n_k, size)
    blocks: np.ndarray      # (n_k, size, size), H's blocks as declared
    key: object
    relative: np.ndarray    # (size, size)
    shifts: np.ndarray      # (n_k,)


def _check_dense_cap(f: int, size: int):
    if size > DENSE_SECTOR_CAP:
        raise DimensionCapError(
            f"sector {f} dimension {size} exceeds dense cap {DENSE_SECTOR_CAP}")


def _sector_parts(sys: SusySystem, f: int) -> list:
    """The blocks of sector f as its builder declares them, one
    `_SectorPart` per Fock state in ascending state order.

    Two-body systems declare one block per center-of-mass momentum and
    Fock state (`SusySystem.blocks`), read from `h_blocks`: H couples no
    two of them.  Each is its Fock state's relative matrix G or G2
    (`h_relative`) plus c_k^2 I.  An N >= 3 grid sector is one block, its
    own relative matrix with shift 0.
    """
    if sys.h_blocks is None:
        block = sys.sector_matrix(f).toarray()
        return [_SectorPart(np.arange(len(block))[None], block[None], f, block,
                            np.zeros(1))]
    rows, first = {}, 0
    for _, state, _, size in sys.sector_blocks(f):
        rows.setdefault(state, []).append(np.arange(first, first + size))
        first += size
    c2 = sys.cm_coeff * sys.cm_coeff
    return [_SectorPart(np.stack(state_rows), sys.h_blocks[state, state], _RELATIVE_OF[state],
                        sys.h_relative[_RELATIVE_OF[state]], c2)
            for state, state_rows in rows.items()]


def _sector_solve(sys: SusySystem, f: int) -> _SectorEigen:
    """The block-wise eigensolve of sector f, cached on the system.

    The blocks are those the builder declares (`_sector_parts`), not
    searched for.  Each relative matrix is solved once per system by a
    dense real eigh (two-body: G for |0> and |s>, G2 for |d> and |sd>),
    and each block's eigenvalues are its relative eigenvalues plus its
    shift c_k^2; all momenta share the eigenvectors.  A residual gate holds
    the eigenpairs to the declared blocks, batched over the momenta:
    ||H_k v - lambda v|| <= RESIDUAL_CONTRACT ||H_k||_inf for every pair,
    else ConvergenceError carries the residuals.  The eigenvalues are
    merged by a stable sort.
    """
    if f not in sys._sector_eig:
        ix = sys.sector_indices(f)
        _check_dense_cap(f, len(ix))
        parts = _sector_parts(sys, f)
        block_vals, part_vecs = [], []
        for part in parts:
            if part.key not in sys._relative_eig:
                sys._relative_eig[part.key] = np.linalg.eigh(part.relative)
            rel_vals, vecs = sys._relative_eig[part.key]
            vals = rel_vals + part.shifts[:, None]
            resid = np.matmul(part.blocks, vecs)
            resid -= vecs * vals[:, None, :]
            resid = np.linalg.norm(resid, axis=1)
            bound = RESIDUAL_CONTRACT * np.abs(part.blocks).sum(axis=2).max(axis=1)
            if np.any(resid > bound[:, None]):
                raise ConvergenceError(
                    f"sector {f} eigenpairs miss their blocks: residual {np.max(resid):.2e}"
                    f" > {RESIDUAL_CONTRACT:.0e} * ||H_k||_inf", residuals=resid)
            block_vals.append(vals)
            part_vecs.append(vecs)
        all_vals = np.concatenate(block_vals, axis=1).ravel()
        order = np.argsort(all_vals, kind="stable")
        sys._sector_eig[f] = _SectorEigen(all_vals[order], ix, order,
                                          [part.rows for part in parts], part_vecs)
    return sys._sector_eig[f]


def sector_spectra(sys: SusySystem, k: int | None = None) -> dict:
    """Eigenvalues per fermion-number sector (all of them when k is None)."""
    out = {}
    for f in range(sys.model.n + 1):
        vals = _sector_solve(sys, f).vals
        out[f] = vals if k is None else vals[:k]
    return out


def _cluster_starts(vals: np.ndarray, rel: float = 1e-8) -> np.ndarray:
    """Index of the first value of each cluster of the ascending vals.  A
    cluster runs while a value stays within rel * max(1, |first|) of its
    first value.  The loop runs over Python floats, which round exactly like
    the float64 entries."""
    starts, bound = [], None
    for i, x in enumerate(vals.tolist()):
        if bound is None or abs(x - first) > bound:
            starts.append(i)
            first, bound = x, rel * max(1.0, abs(x))
    return np.array(starts, dtype=int)


def _charge_products(sys: SusySystem, f: int, eig: _SectorEigen) -> tuple:
    """(Q v, Q+ v) for the sector-f block eigenvectors, one momentum at a
    time: arrays (n_k, rows, cols) whose rows are those each operator
    reaches from one momentum's rows of the sector, in ascending order, and
    whose cols are that momentum's block eigenvectors in concatenated block
    order.  Q and Q+ keep the momentum, so no other entry is nonzero.  An
    N >= 3 grid sector is one block, and n_k = 1.

    Two-body products come from Q's Fock blocks.  The sector's rows are
    (|0>), (|s>, |d>) or (|sd>) per momentum, and the 1-fermion
    eigenvectors live on |s> or on |d> alone.  All momenta share a Fock
    state's eigenvectors (`_sector_solve`), so a product with xs is formed
    once per Fock state and broadcast over them.
    """
    if sys.h_blocks is None:
        [vecs] = eig.part_vecs
        return tuple((ops[ops.getnnz(axis=1) > 0] @ vecs)[None]
                     for ops in (sys.Q[:, eig.ix], sys.Qdag[:, eig.ix]))
    xs, c = sys.relative_ops["xs"], sys.cm_coeff[:, None, None]

    def per_k(a):
        return np.broadcast_to(a, (len(c), *a.shape))

    if f == 1:      # Q reaches |0> (c, xs), Q+ reaches |sd> (-xs^T, c)
        vs, vd = eig.part_vecs
        return (np.concatenate((c * vs, per_k(xs @ vd)), axis=2),
                np.concatenate((per_k(-xs.T @ vs), c * vd), axis=2))
    [v] = eig.part_vecs
    empty = np.zeros((len(c), 0, v.shape[1]))
    if f == 0:      # Q+ reaches |s> (c) and |d> (xs^T)
        return empty, np.concatenate((c * v, per_k(xs.T @ v)), axis=1)
    # Q reaches |s> (-xs) and |d> (c)
    return np.concatenate((per_k(-xs @ v), c * v), axis=1), empty


def _sector_charges(sys: SusySystem, f: int):
    """(lam, qn, qdn, (basis, weights)) of sector f, computed once and cached.

    Each degenerate cluster of eigenvectors is rotated to diagonalize Q+Q
    on it; the superalgebra then puts each rotated state in ker Q or in
    ker Q+.  Q keeps the momentum, so the cluster's Gram matrix of Q v
    columns is block-diagonal by momentum: each momentum's run of the
    cluster is rotated by the eigh of its own Gram, all runs of one size in
    one batched call.  Each cluster's states are then ordered by ascending
    |Q v|^2, the Gram eigenvalue, which is the order the eigh of the whole
    Gram returns.  lam is the cluster mean per state, qn and qdn are |Q v|
    and |Q+ v| of the rotated states, and state p is the sum over b of
    weights[p, b] times concatenated block eigenvector basis[p, b], from
    which `_rotated_states` builds it.  None of it depends on a tolerance.
    """
    if f not in sys._charges:
        eig = _sector_solve(sys, f)
        vals, order = eig.vals, eig.order
        qv, qdv = _charge_products(sys, f, eig)
        n_groups, n_cols = qv.shape[0], qv.shape[2]
        starts = _cluster_starts(vals)
        sizes = np.diff(starts, append=len(vals))
        lam = np.repeat(np.add.reduceat(vals, starts) / sizes, sizes)
        cluster = np.repeat(np.arange(len(starts)), sizes)
        # a run is the positions of one cluster on one momentum, ascending
        run_key = cluster * n_groups + order // n_cols
        pos = np.argsort(run_key, kind="stable")
        first = np.flatnonzero(np.diff(run_key[pos], prepend=-1))
        length = np.diff(first, append=len(pos))
        # an unrotated state is its own eigenpair, with |Q v|^2 as its Gram
        # eigenvalue; the runs overwrite what they rotate
        basis = np.repeat(np.arange(len(vals))[:, None], length.max(initial=1), axis=1)
        weights = np.zeros(basis.shape)
        weights[:, 0] = 1.0
        qn, qdn = (np.linalg.norm(arr, axis=1).ravel() for arr in (qv, qdv))
        gram_vals = qn * qn
        for size in np.unique(length[length > 1]):
            conc = order[pos[first[length == size][:, None] + np.arange(size)]]
            g, j = np.divmod(conc, n_cols)
            stacked = qv[g, :, j]
            gram_vals[conc], rot = np.linalg.eigh(stacked @ stacked.transpose(0, 2, 1))
            rot_t = rot.transpose(0, 2, 1)
            for arr, norms in ((qv, qn), (qdv, qdn)):
                norms[conc] = np.linalg.norm(rot_t @ arr[g, :, j], axis=2)
            basis[conc.ravel(), :size] = np.repeat(conc, size, axis=0)
            weights[conc.ravel(), :size] = rot_t.reshape(-1, size)
        state = order[np.lexsort((gram_vals[order], cluster))]
        sys._charges[f] = (lam, qn[state], qdn[state], (basis[state], weights[state]))
    return sys._charges[f]


def _rotated_states(sys: SusySystem, f: int, positions) -> np.ndarray:
    """The sector-f states at `positions` of the classification order, as
    sector-wide columns: the cluster-rotated states the kernel tags
    describe, combined from the block eigenvectors as `_sector_charges`
    records.  Only these columns are built, and they are not cached."""
    eig = _sector_solve(sys, f)
    basis, weights = _sector_charges(sys, f)[3]
    firsts = np.cumsum([0, *(len(vecs) for vecs in eig.part_vecs)])
    out = np.zeros((len(eig.ix), len(positions)))
    for col, p in enumerate(positions):
        for i, w in zip(basis[p], weights[p]):
            ik, j = divmod(i, firsts[-1])
            b = np.searchsorted(firsts, j, side="right") - 1
            out[eig.rows[b][ik], col] += w * eig.part_vecs[b][:, j - firsts[b]]
    return out


def kernel_classify(sys: SusySystem, zero_tol: float = 1e-2,
                    split_tol: float = 1e-6) -> dict:
    """Tag every sector eigenstate by the supercharge that annihilates it.

    Degenerate clusters are rotated to diagonalize Q+Q on the cluster; the
    superalgebra then puts each state in ker Q (all its energy from QQ+) or
    in ker Q+ (all of it from Q+Q).  States whose cluster has mean
    lambda < zero_tol count as zero modes.  Returns per-sector counts, tags
    and the charge norms of the rotated states, whose vectors
    `_rotated_states` builds.
    """
    report = {"sectors": {}, "unsplit": 0}
    for f in range(sys.model.n + 1):
        vals = _sector_solve(sys, f).vals
        lam, qn, qdn, _ = _sector_charges(sys, f)
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
    residual reported.  Only the sums depend on the builder
    (`_component_sums`), and a two-body check runs on numpy alone.
    """
    n = sys.model.n
    classify = kernel_classify(sys, zero_tol=zero_tol, split_tol=split_tol)
    particle, dual = _component_sums(sys)
    return {"one_fermion": _sum_check(sys, classify, 1, "ker_q", 0, particle,
                                      k, tol, zero_tol),
            "n_minus_one": _sum_check(sys, classify, n - 1, "ker_qdag", n, dual,
                                      k, tol, zero_tol),
            "epsilon_relation": (_epsilon_relation(sys, k, zero_tol)
                                 if n == 3 and sys.a_space is not None else None)}


def _component_sums(sys: SusySystem) -> tuple:
    """(particle, dual): the maps of a sector eigenvector to its particle-
    mode component sum (sector 1 -> sector 0) and its dual sum (sector
    N-1 -> sector N).

    A two-body 1-fermion vector holds, per momentum, its |s> part then its
    |d> part.  The sums phi_1 + phi_2 and chi_1 + chi_2 are sqrt(2) times
    these parts, which are taken as they are, in block order.  A grid
    vector holds each node's Fock components in ascending Fock state; the
    dual sum signs each by the string sign of its empty mode.
    """
    if sys.h_blocks is not None:
        u, n_k = sys.relative_ops["xs"].shape[0], len(sys.cm_coeff)
        return (lambda v: v.reshape(n_k, -1)[:, :u].ravel(),
                lambda v: v.reshape(n_k, -1)[:, u:].ravel())
    n = sys.model.n
    signs = np.array([sign for _, sign in _holes(sys.fock)])
    return (lambda v: v.reshape(-1, n).sum(axis=1),
            lambda v: (v.reshape(-1, n) * signs).sum(axis=1))


def _sum_check(sys: SusySystem, classify: dict, f: int, tag: str, target: int,
               summed, k: int, tol: float, zero_tol: float) -> list:
    """Classify the component sums of the first k sector-f states that
    carry `tag` and lie above zero_tol: a sum either vanishes or solves the
    sector-`target` block of H at the state's eigenvalue ("degenerate"),
    else it is "unexplained".  Only these k states are built
    (`_rotated_states`), and H_target is applied by the blocks its builder
    declares (`_sector_parts`)."""
    vals = _sector_solve(sys, f).vals.tolist()
    picked = [t for t, state_tag in enumerate(classify["sectors"][f]["tags"])
              if state_tag == tag and vals[t] > zero_tol][:k]
    blocks = [(rows, block) for part in _sector_parts(sys, target)
              for rows, block in zip(part.rows, part.blocks)]
    cases = []
    for t, state in zip(picked, _rotated_states(sys, f, picked).T):
        lam = vals[t]
        phi = summed(state)
        norm = float(np.linalg.norm(phi))
        if norm < tol:
            cases.append({"lambda": lam, "class": "vanishing", "residual": norm})
            continue
        h_phi = np.empty_like(phi)
        for rows, block in blocks:
            h_phi[rows] = block @ phi[rows]
        resid = float(np.linalg.norm(h_phi - lam * phi) / (norm * max(1.0, abs(lam))))
        cases.append({"lambda": lam, "class": "degenerate" if resid < tol else "unexplained",
                      "residual": resid})
    return cases


def _epsilon_relation(sys: SusySystem, k: int, zero_tol: float) -> dict:
    """N = 3 cross relation between 2-fermion states and their 1-fermion
    partners: phi_i ~ sum_jk eps_ijk A_j chi_k, the three cyclic terms
    A_j chi_k - A_k chi_j.

    The relation is the component form of applying the supercharge, so its
    alignment with Q v validates the index structure exactly; how
    good an eigenvector that partner is (its eigen-residual in the 1-fermion
    block) measures the grid-limited degeneracy claim, reported separately.
    """
    eig2 = _sector_solve(sys, 2)
    vals2, ix2 = eig2.vals, eig2.ix
    vecs2 = eig2.part_vecs[0][:, eig2.order]   # a grid sector is one block
    q21 = sys.Q[sys.sector_indices(1)][:, ix2]
    h1 = sys.sector_matrix(1)
    holes = _holes(sys.fock)
    a = sys.a_space
    results = []
    for t2 in range(len(vals2)):
        lam = float(vals2[t2])
        if lam <= zero_tol:
            continue
        u = q21 @ vecs2[:, t2]
        u_norm = np.linalg.norm(u)
        if u_norm ** 2 < 0.5 * lam:
            continue  # dominantly annihilated by Q: the relation is 0 = 0
        comps = vecs2[:, t2].reshape(-1, 3)   # each node's 2-fermion components
        chi = [None] * 3
        for pos, (mode, sign) in enumerate(holes):
            chi[mode] = sign * comps[:, pos]
        # phi_i per node, space-major, matching the sector layout
        pred = np.stack([a[j] @ chi[kk] - a[kk] @ chi[j]
                         for j, kk in ((1, 2), (2, 0), (0, 1))], axis=1).reshape(-1)
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
                       cm_momenta=DEFAULT_CM_MOMENTA, levels: int = 6) -> dict:
    """Build both extensions and compare their sector spectra.

    The 0-fermion spectra must agree up to one additive constant (the shape
    invariance shift).  After the best such shift the 1-fermion spectra
    can still differ only where the remainder R (recorded as "remainder")
    is nonzero: the two-body 1-fermion sector holds two copies of the
    bosonic spectrum and a tower both variants share, and s2's copies sit
    R below s1's.  Spectra are the right comparison object here: the two
    variants carry their staggered blocks on different grids, so matrix
    entries are not directly comparable even though the physics is.
    """
    s1 = build_susy(model, grid, "s1", cm_momenta)
    s2 = build_susy(model, grid, "s2", cm_momenta)
    out = {"variants": ("s1", "s2"), "model": model.descriptor(),
           "remainder": remainder_shift(model), "sectors": {}}
    spectra1, spectra2 = sector_spectra(s1, levels), sector_spectra(s2, levels)
    for f in range(model.n + 1):
        e1, e2 = spectra1[f], spectra2[f]
        L = min(len(e1), len(e2), levels)
        shift = float(np.mean(e1[:L] - e2[:L]))
        dev = float(np.max(np.abs(e1[:L] - e2[:L] - shift))
                    / max(1.0, np.max(np.abs(e1[:L]))))
        out["sectors"][f] = {"constant_shift": shift,
                             "relative_deviation_after_shift": dev}
    return out
