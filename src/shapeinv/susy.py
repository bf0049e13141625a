"""Supersymmetric extension at desk scale: fermionic Fock space,
supercharges Q = sum_i A_i psi_i, the Hamiltonian H = Q+Q + QQ+, the
fermion-number sector structure with its exact pairing, and the two
inequivalent extensions sharing a bosonic sector.

Every system declares one block size per Fock state and Q and H as Fock
blocks stacked over the center-of-mass momenta (a grid has one momentum).
The layout follows from the sizes, and every product of Fock blocks is
formed by `_block_products`.  The whole sector analysis, the diagnostics
included, reads only these blocks, with plain numpy products.

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
Built and analyzed on numpy alone, a two-body system needs one eigh of
G = xs xs^T and one of G2 = xs^T xs for every sector and momentum; they
are solved apart, so the pairing of their nonzero eigenvalues stays a
measurement.

Full N-body grids (N >= 3) use dense square ladders D_i + W_i with skew
D_i; there the commutators [A_i, A_j] survive at stencil order, so
||Q^2|| is reported as a diagnostic rather than guaranteed to vanish.

A grid of identical Dirichlet axes is symmetric under its mirror: x_i ->
lo + hi - x_(N-1-i), the reflection of the box with the particle order
reversed.  Every kind's W_i is a sum of pair terms w(x_i - x_j) with w odd,
so the mirror takes L_i to -L_(N-1-i).  With each Fock state's modes
bit-reversed it takes Q to itself up to a sign fixed by the sector Q acts
on, and so commutes with H on every sector: node idx -> (sizes - 1) -
idx[::-1], state s -> its bit reversal.  The builder declares this row
permutation for each sector (`SusySystem.mirrors`), and each relative
matrix is solved as its even and odd parity blocks (`_parity_eigh`), two
eigh of about half its size; the residual gate holds the result to the
declared blocks, so a wrong mirror raises ConvergenceError.  Two-body
systems, periodic grids and unequal axes declare the identity, whose even
block is the whole matrix.  A kind with a one-body term must state its own
parity before the builder declares a mirror for it: the BC_N kind of the
roadmap (item 1a), whose one-body W is -kappa cot x + lambda tan x, is
even only at kappa = lambda.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionCapError, DomainError
from .models import NBodyModel, remainder_shift
from .spectral import (RESIDUAL_CONTRACT, GridSpec, _check_model_grid, _code_rows,
                       _deriv_coeffs, _sector_nodes, _stencil_table)

DENSE_SECTOR_CAP = 5000
VARIANTS = ("s1", "s2")
ZERO_TOL = 1e-2   # a cluster of mean eigenvalue below it is a zero mode
SUM_TOL = 1e-6    # a component sum vanishes, or solves its block, within it


def cm_momenta(count: int) -> tuple:
    """The first `count` center-of-mass momenta in the order 0, 1, -1, 2, -2, ..."""
    if count < 1:
        raise DomainError(f"need at least one center-of-mass momentum mode, got {count}")
    return tuple((j + 1) // 2 * (1 if j % 2 else -1) for j in range(count))


DEFAULT_CM_MOMENTA = cm_momenta(8)


# ---------------------------------------------------------------------------
# fermionic Fock space
# ---------------------------------------------------------------------------

# The 2^N occupation states of N modes are the integers below 2^N, mode i
# being bit i, and a state's fermion number is its bit count.  psi_i carries
# the ordered-string parity sign (`_string_sign`), which realizes the
# canonical anticommutators exactly.

def _sector_states(n: int, f: int) -> list:
    """The Fock states of n modes holding f fermions, ascending."""
    return [s for s in range(1 << n) if s.bit_count() == f]


def _string_sign(state: int, mode: int) -> float:
    """The ordered-string sign of `mode` in a Fock state: (-1)^(number of
    occupied modes below it)."""
    return -1.0 if (int(state) & ((1 << mode) - 1)).bit_count() % 2 else 1.0


def _empty_mode(n: int, state: int) -> int:
    """The empty mode of an (n-1)-fermion Fock state of n modes."""
    return ((1 << n) - 1 ^ state).bit_length() - 1


def _absmax(arrays) -> float:
    """Largest |entry| over dense arrays, 0.0 when they hold none."""
    return max((float(np.max(np.abs(a))) for a in arrays if a.size), default=0.0)


def _block_products(left: dict, right: dict, upper: bool = False) -> dict:
    """{(a, b): sum over c of left[a, c] @ right[c, b]}, the terms added in
    the order of `left`; with upper, only the blocks with a <= b, the rest of
    a symmetric product being their mirrors.  Keys are (row, column) pairs
    of any labels: a Fock state, or an inner or column key such as a group
    of vectors."""
    by_row = {}
    for (c, b), rblk in right.items():
        by_row.setdefault(c, []).append((b, rblk))
    out = {}
    for (a, c), lblk in left.items():
        for b, rblk in by_row.get(c, ()):
            if not (upper and a > b):
                out[a, b] = out[a, b] + lblk @ rblk if (a, b) in out else lblk @ rblk
    return out


def _adjoint(blocks: dict) -> dict:
    """The blocks transposed, stacked over the momenta: (b, a) holds (a, b)^T."""
    return {(b, a): blk.swapaxes(1, 2) for (a, b), blk in blocks.items()}


# ---------------------------------------------------------------------------
# staggered relative ladders (two-body systems)
# ---------------------------------------------------------------------------

def _staggered_ladder(m_cells: int, length: float, w_fun, to_nodes: bool) -> np.ndarray:
    """4th-order discretization of (d/dr + w) between staggered grids,
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
        ladder[row, row + off] = cd / (24.0 * h) + w[row] * ca / 16.0
    return ladder


# ---------------------------------------------------------------------------
# system container
# ---------------------------------------------------------------------------

@dataclass
class SusySystem:
    """H = Q+Q + QQ+ on (space) x (Fock), declared as Fock blocks, with the
    analysis cached on first read: `diagnostics` when read, the block
    eigensolve of a sector (`_sector_eig`) when its spectrum is asked for,
    and the cluster rotations and charge norms (`_charges`) when it is
    classified.

    The degrees of freedom run momentum by momentum, then Fock state by
    Fock state, and sizes[s] is the number of rows of state s at every
    momentum; the dimension, the fermion numbers, the sectors and each
    state's rows follow from it.  `q_blocks[a, b]` is Q's block from Fock
    state b to a, which is b with one fermion removed; `h_blocks` holds H's
    nonzero blocks, each off-diagonal one formed once and its mirror held as
    its transpose.  Both are stacked over the momenta; a grid has one, with
    c_k = 0.  `parts` groups the Fock states that H couples, each group
    with the key of its k-independent relative matrix in `h_relative`: a
    two-body system's diagonal blocks are c_k^2 I away from G = xs xs^T or
    G2 = xs^T xs, and a group whose key `h_relative` lacks is its own
    relative matrix.  `mirrors[key]` is a row permutation, an involution,
    that commutes with the relative matrix `key` (the identity where the
    builder knows no symmetry), by which its eigensolve splits into parity
    blocks.  The sparse H is assembled from the blocks on first read; the
    analysis never reads it.
    """
    model: NBodyModel
    grid: GridSpec
    variant: str
    cm_momenta: tuple | None
    sizes: tuple                  # rows per Fock state, at every momentum
    q_blocks: dict = field(repr=False)   # {(a, b): (n_k, size_a, size_b)}
    h_blocks: dict = field(repr=False)   # {(a, b): (n_k, size_a, size_b)}
    cm_coeff: np.ndarray = field(repr=False)
    sum_weights: tuple = field(repr=False)  # ({state: w} of sector 1, of sector N-1)
    parts: dict = field(repr=False)         # {(Fock state, ...): relative key}
    mirrors: dict = field(repr=False)       # {relative key: row permutation}
    h_relative: dict = field(default_factory=dict, repr=False)  # {key: matrix}
    _relative_eig: dict = field(default_factory=dict, repr=False)
    _sector_eig: dict = field(default_factory=dict, repr=False)
    _charges: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return len(self.cm_coeff) * sum(self.sizes)

    @cached_property
    def fermion_of(self) -> np.ndarray:
        """The fermion number of each degree of freedom."""
        numbers = [s.bit_count() for s in range(len(self.sizes))]
        return np.tile(np.repeat(numbers, self.sizes), len(self.cm_coeff))

    @cached_property
    def H(self):
        """H, sparse: the declared blocks placed at their offsets, zeros
        eliminated, assembled on first read."""
        import scipy.sparse as sp

        starts = np.cumsum((0, *self.sizes))
        entries = []
        for (a, b), stack in self.h_blocks.items():
            k, r, c = np.nonzero(stack)
            first = k * starts[-1]
            entries.append((stack[k, r, c], r + first + starts[a], c + first + starts[b]))
        vals, rows, cols = (np.concatenate(x) for x in zip(*entries))
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))

    @cached_property
    def diagnostics(self) -> dict:
        """||Q^2||_F, max |H - H^T|, the off-block leak and the scaled
        max |[H, Q]|, computed on first read from the declared blocks:
        (Q^2)_ab sums Q_ac Q_cb, and [H, Q]_ab sums H_ac Q_cb - Q_ac H_cb.
        A block whose mirror H lacks counts whole in max |H - H^T|."""
        q, h = self.q_blocks, self.h_blocks
        q2_fro = math.hypot(*(np.linalg.norm(blk) for blk in _block_products(q, q).values()))
        hq, qh = _block_products(h, q), _block_products(q, h)
        commutator = (hq.get(key, 0.0) - qh.get(key, 0.0) for key in {**hq, **qh})
        scale = max(1.0, _absmax(h.values())) * max(1.0, _absmax(q.values()))
        return {"q_squared_fro": q2_fro,
                "hermiticity_defect": _absmax(
                    blk - h[b, a].swapaxes(1, 2) if (b, a) in h else blk
                    for (a, b), blk in h.items()),
                "offblock_leak": self.offblock_leak(),
                "h_q_commutator": _absmax(commutator) / scale}

    def sector_indices(self, f: int) -> np.ndarray:
        return np.where(self.fermion_of == f)[0]

    def offblock_leak(self) -> float:
        """Largest |H| entry connecting different fermion numbers (exact 0)."""
        return _absmax(blk for (a, b), blk in self.h_blocks.items()
                       if a.bit_count() != b.bit_count())


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
    xs = sqrt(2) X in (|0>, |d>) and -xs in (|s>, |sd>).  The builder
    declares these, H's Fock blocks and their k-independent parts G and G2
    (`_two_body_h_blocks`), and the sizes u, u, m, m of |0>, |s>, |d>, |sd>
    (u = m - 1 nodes, m midpoints).  The momenta must be a nonempty 1-D
    sequence of distinct finite numbers, else DomainError.
    """
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
    sizes = (u, u, m_cells, m_cells)
    _check_dense_cap(sizes, n_k)
    if variant == "s1":
        x_op = _staggered_ladder(m_cells, length, model.pair_w, to_nodes=True)
        c_over_k = -0.5
    else:
        up = model.shifted(1.0)
        node_to_mid = _staggered_ladder(m_cells, length, up.pair_w, to_nodes=False)
        x_op = np.ascontiguousarray(node_to_mid.T)   # wide, ~ (-d/dr + w(alpha+1))
        c_over_k = 0.5
    root2 = math.sqrt(2.0)
    xs = root2 * x_op
    c = c_over_k * kvals * root2
    q_blocks = {(0, 1): _scaled_identity(c, u), (0, 2): np.broadcast_to(xs, (n_k, u, m_cells)),
                (1, 3): np.broadcast_to(-xs, (n_k, u, m_cells)),
                (2, 3): _scaled_identity(c, m_cells)}
    h_blocks, h_relative = _two_body_h_blocks(xs, c)
    return SusySystem(model=model, grid=grid, variant=variant,
                      cm_momenta=tuple(cm_momenta), sizes=sizes, q_blocks=q_blocks,
                      h_blocks=h_blocks, cm_coeff=c, sum_weights=({1: 1.0}, {2: 1.0}),
                      parts={(0,): "G", (1,): "G", (2,): "G2", (3,): "G2"},
                      mirrors={"G": np.arange(u), "G2": np.arange(m_cells)},
                      h_relative=h_relative)


def _scaled_identity(c: np.ndarray, size: int) -> np.ndarray:
    """c_k I of the given size for each momentum, stacked."""
    out = np.zeros((len(c), size, size))
    out.reshape(len(c), -1)[:, ::size + 1] = c[:, None]
    return out


def _two_body_h_blocks(xs: np.ndarray, c: np.ndarray) -> tuple:
    """(H's Fock blocks, {"G": G, "G2": G2}): H = Q+Q + QQ+ per Fock state,
    stacked over the momenta, and the relative matrices they share:
      |0>, |s>:   G + c_k^2 I,  G = xs xs^T;
      |d>, |sd>:  G2 + c_k^2 I, G2 = xs^T xs.
    numpy forms a product with its own transpose as a symmetric one, so G
    and G2 are exactly symmetric.  The |s>-|d> terms c xs - xs c cancel
    exactly, so H holds no other block.
    """
    g, g2 = xs @ xs.T, xs.T @ xs
    h_top, h_mid = g + _scaled_identity(c * c, len(g)), g2 + _scaled_identity(c * c, len(g2))
    return ({(0, 0): h_top, (1, 1): h_top, (2, 2): h_mid, (3, 3): h_mid},
            {"G": g, "G2": g2})


def _build_grid(model: NBodyModel, grid: GridSpec, variant: str,
                stencil_order: int) -> SusySystem:
    """Square-ladder assembly on an (ordered) N-body grid, as Fock blocks.

    Each ladder L_i = D_i + W_i is a dense matrix over the grid nodes,
    filled from the grid's stencil table (`spectral._stencil_table`).  The
    operator paired with psi_i is L_i (s1) or L_i^T (s2), and Q's block
    (s ^ bit i, s) is it times the string sign `_string_sign(s, i)`.  Every
    Fock state holds one block of all the nodes, and every sector must fit
    the dense cap, checked before any block is formed.
    """
    _check_model_grid(model, grid)
    idx, nodes = _sector_nodes(grid)
    n_nodes, n_states = len(idx), 1 << model.n
    sizes = (n_nodes,) * n_states
    _check_dense_cap(sizes, 1)
    base = model if variant == "s1" else model.shifted(1.0)
    w_all = base.prepotential(nodes)
    rows, vals = _stencil_table(grid, idx, _deriv_coeffs, stencil_order)
    axis, term, node = np.nonzero(rows >= 0)
    ladders = np.zeros((model.n, n_nodes, n_nodes))
    ladders[axis, node, rows[axis, term, node]] = vals[axis, term, node]
    ladders.reshape(model.n, -1)[:, ::n_nodes + 1] += w_all.T
    lowering = ladders if variant == "s1" else ladders.transpose(0, 2, 1)
    q_blocks = {(s ^ 1 << i, s): _string_sign(s, i) * lowering[i:i + 1]
                for s in range(n_states) for i in range(model.n) if s >> i & 1}
    # H = Q+Q + QQ+ is one product, (Q+ beside Q) times (Q above Q+), whose
    # inner key is the intermediate Fock state and the charge the right
    # factor took to reach it (0: Q, 1: Q+).  Only blocks with a <= b are
    # formed; a diagonal block sums products of a block with its own
    # transpose, which numpy forms as symmetric ones, so it is exactly
    # symmetric.
    q_dag = _adjoint(q_blocks)
    left = {(a, (c, op)): blk for op, blocks in enumerate((q_dag, q_blocks))
            for (a, c), blk in blocks.items()}
    right = {((c, op), b): blk for op, blocks in enumerate((q_blocks, q_dag))
             for (c, b), blk in blocks.items()}
    h_blocks = _block_products(left, right, upper=True)
    h_blocks.update({(b, a): blk.swapaxes(1, 2) for (a, b), blk in h_blocks.items() if a != b})
    # H couples the Fock states of a sector, so each sector is one part
    sectors = [tuple(_sector_states(model.n, f)) for f in range(model.n + 1)]
    return SusySystem(model=model, grid=grid, variant=variant, cm_momenta=None,
                      sizes=sizes, q_blocks=q_blocks, h_blocks=dict(sorted(h_blocks.items())),
                      cm_coeff=np.zeros(1),
                      sum_weights=({1 << i: 1.0 for i in range(model.n)},
                                   {s: _string_sign(s, _empty_mode(model.n, s))
                                    for s in sectors[model.n - 1]}),
                      parts={states: states for states in sectors},
                      mirrors=_grid_mirrors(grid, idx, sectors))


def _bit_reversal(n: int, state: int) -> int:
    """The Fock state of n modes with mode i moved to mode n - 1 - i."""
    return sum(1 << n - 1 - i for i in range(n) if state >> i & 1)


def _grid_mirrors(grid: GridSpec, idx: np.ndarray, sectors: list) -> dict:
    """{sector states: the sector's mirror}, as a permutation of its rows.

    On a grid of identical Dirichlet axes the mirror is x_i -> lo + hi -
    x_(N-1-i) (module docstring): row (state s, node p) goes to (the bit
    reversal of s, the node of (sizes - 1) - idx[p][::-1]), whose row comes
    from the row-major code table of the stencils (`spectral._code_rows`).
    A periodic grid or one of unequal axes declares the identity.
    """
    n_nodes = len(idx)
    if grid.bc != "dirichlet" or len(set(grid.axes)) != 1:
        return {states: np.arange(len(states) * n_nodes) for states in sectors}
    sizes = np.full(grid.dim, len(grid.axis_nodes(0)))
    strides, box = _code_rows(sizes, idx)
    node_mirror = box[(sizes - 1 - idx[:, ::-1]) @ strides]
    mirrors = {}
    for states in sectors:
        at = {s: j * n_nodes for j, s in enumerate(states)}
        mirrors[states] = np.concatenate([at[_bit_reversal(grid.dim, s)] + node_mirror
                                          for s in states])
    return mirrors


def build_susy(model: NBodyModel, grid: GridSpec, variant: str = "s1",
               cm_momenta=DEFAULT_CM_MOMENTA, stencil_order: int = 4) -> SusySystem:
    """Declare Q and H = Q+Q + QQ+ on (space) x (Fock) as Fock blocks.

    variant 's1' uses A_i(alpha) with psi_i; 's2' uses A+_i(alpha+1) with
    psi_i.  N = 2 with a 1-D grid selects the staggered relative
    representation (exactly nilpotent Q); matching N-dimensional grids
    select the square-ladder representation with its reported defects.
    Both check every sector against the dense cap before forming a block,
    else DimensionCapError.
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

    The sector's blocks are those of the parts it solved (`_sector_parts`),
    one per momentum and group of coupled Fock states, and all momenta of
    part b share one eigenvector matrix part_vecs[b].  The block
    eigenpairs, concatenated momentum-major and then part by part, are
    indexed by `order`: vals[p] is the eigenvalue of concatenated eigenpair
    order[p].  No sector-wide eigenvector matrix is formed.
    """
    vals: np.ndarray      # ascending
    ix: np.ndarray        # the sector's indices into the system
    order: np.ndarray
    parts: list           # the `_SectorPart`s, as solved
    part_vecs: list       # (size, size) per part


class _SectorPart(NamedTuple):
    """A group of coupled Fock states of a sector, whose blocks, stacked
    over the momenta, are relative + shifts[i] I, up to roundoff, on the
    sector rows rows[i], which hold the states one after another in
    ascending order.  Parts with one key share their relative matrix.  The
    blocks are read from H's declared ones when needed (`_part_blocks`)."""
    states: tuple
    rows: np.ndarray        # (n_k, size)
    key: object
    shifts: np.ndarray      # (n_k,)


def _check_dense_cap(sizes: tuple, n_k: int):
    """Every sector of these Fock state sizes and n_k momenta fits the dense
    cap, else DimensionCapError; the Fock blocks are dense."""
    n = len(sizes).bit_length() - 1
    for f in range(n + 1):
        size = n_k * sum(sizes[s] for s in _sector_states(n, f))
        if size > DENSE_SECTOR_CAP:
            raise DimensionCapError(
                f"sector {f} dimension {size} exceeds dense cap {DENSE_SECTOR_CAP}")


def _sector_parts(sys: SusySystem, f: int) -> list:
    """The parts of sector f as its builder declares them, one
    `_SectorPart` per declared part (`SusySystem.parts`) of the sector.

    H couples no two Fock states of a two-body system, so each of its parts
    is one state, whose blocks are its relative matrix G or G2
    (`h_relative`) plus c_k^2 I.  A grid couples the states of a sector, so
    each grid sector is one part, at its one momentum with c = 0: its block
    is its own relative matrix.
    """
    n_k, c2, size = len(sys.cm_coeff), sys.cm_coeff * sys.cm_coeff, sys.sizes
    # every momentum holds the sector's states in ascending order
    in_sector = _sector_states(sys.model.n, f)
    first = dict(zip(in_sector, itertools.accumulate((size[s] for s in in_sector), initial=0)))
    per_k = np.arange(n_k)[:, None] * sum(size[s] for s in in_sector)
    parts = []
    for states, key in sys.parts.items():
        if states[0] not in first:     # a part of another sector
            continue
        rows = per_k + np.concatenate([first[s] + np.arange(size[s]) for s in states])
        parts.append(_SectorPart(states, rows, key, c2))
    return parts


def _part_blocks(sys: SusySystem, part: _SectorPart) -> tuple:
    """(blocks, relative): H's declared blocks between the part's states,
    (n_k, size, size), and its relative matrix.  One state's blocks are
    read as held; a group's are placed side by side, a copy that lives only
    as long as its caller holds it.  A part whose key `h_relative` lacks is
    its own relative matrix."""
    h, n_k, first = sys.h_blocks, len(sys.cm_coeff), part.states[0]
    blocks = (h[first, first] if len(part.states) == 1 else
              np.block([[h[a, b] if (a, b) in h else np.zeros((n_k, sys.sizes[a], sys.sizes[b]))
                         for b in part.states] for a in part.states]))
    return blocks, sys.h_relative.get(part.key, blocks[0])


def _parity_eigh(mat: np.ndarray, mirror: np.ndarray) -> tuple:
    """np.linalg.eigh of a symmetric matrix that commutes with the row
    permutation `mirror`, an involution R, solved as its parity blocks.

    The even block is spanned by the fixed rows e_p and by (e_p + e_Rp) /
    sqrt(2) over the pairs p < Rp, the odd block by (e_p - e_Rp) / sqrt(2).
    With M = mat[P, P] + mat[RP, RP] and X = mat[P, RP] + mat[RP, P] over
    the pairs P, their pair entries are (M + X) / 2 and (M - X) / 2, both
    exactly symmetric.  Each block gets one eigh, and the
    eigenvectors are scattered back onto mat's rows, even ones first, the
    eigenvalues left unsorted across the blocks.  Under the identity, the
    mirror of every two-body relative matrix, the even block is mat itself,
    and mat goes to eigh as it is: at two-body sizes (31 and 32 rows at
    m = 32) the gathers and scatters would add about 40 % to eigh's time.
    """
    n = len(mirror)
    rows = np.arange(n)
    fixed, low = rows[mirror == rows], rows[mirror > rows]
    if not low.size:    # the identity: the even block is mat itself
        return np.linalg.eigh(mat)
    high, half, n_fixed = mirror[low], math.sqrt(0.5), len(fixed)
    at_fixed, at_low, at_high = mat[fixed], mat[low], mat[high]   # rows first: gathers faster
    same = at_low[:, low] + at_high[:, high]
    swap = at_low[:, high] + at_high[:, low]
    even = np.empty((n_fixed + len(low),) * 2)
    even[:n_fixed, :n_fixed] = at_fixed[:, fixed]
    even[:n_fixed, n_fixed:] = half * (at_fixed[:, low] + at_fixed[:, high])
    even[n_fixed:, :n_fixed] = even[:n_fixed, n_fixed:].T
    even[n_fixed:, n_fixed:] = 0.5 * (same + swap)
    (even_vals, even_vecs), (odd_vals, odd_vecs) = (np.linalg.eigh(b)
                                                    for b in (even, 0.5 * (same - swap)))
    n_even = len(even)
    vecs = np.zeros((n, n))
    vecs[fixed, :n_even] = even_vecs[:n_fixed]
    vecs[low, :n_even] = half * even_vecs[n_fixed:]
    vecs[high, :n_even] = vecs[low, :n_even]
    vecs[low, n_even:] = half * odd_vecs
    vecs[high, n_even:] = -vecs[low, n_even:]
    return np.concatenate((even_vals, odd_vals)), vecs


def _by_state(sys: SusySystem, part: _SectorPart, arr: np.ndarray) -> dict:
    """{Fock state: its rows of arr}, for an array whose rows run over the
    part's states one after another, as the part's rows do."""
    ends = itertools.accumulate(sys.sizes[s] for s in part.states)
    return {s: arr[end - sys.sizes[s]:end] for s, end in zip(part.states, ends)}


def _sector_solve(sys: SusySystem, f: int) -> _SectorEigen:
    """The block-wise eigensolve of sector f, cached on the system.

    The blocks are those the builder declares (`_sector_parts`), not
    searched for.  Each relative matrix is solved once per system by dense
    real eigh of its parity blocks under its declared mirror
    (`_parity_eigh`; two-body: G for |0> and |s>, G2 for |d> and |sd>,
    each whole; a grid: the sector, split in two), and each block's
    eigenvalues are its relative eigenvalues plus its shift c_k^2; all
    momenta share the eigenvectors.  A residual gate holds the eigenpairs
    to the declared blocks, batched over the momenta: ||H_k v - lambda v||
    <= RESIDUAL_CONTRACT ||H_k||_inf for every pair, else ConvergenceError
    carries the residuals.  The eigenvalues are merged by a stable sort.
    """
    if f not in sys._sector_eig:
        parts = _sector_parts(sys, f)
        block_vals, part_vecs = [], []
        for part in parts:
            blocks, relative = _part_blocks(sys, part)
            if part.key not in sys._relative_eig:
                sys._relative_eig[part.key] = _parity_eigh(relative, sys.mirrors[part.key])
            rel_vals, vecs = sys._relative_eig[part.key]
            vals = rel_vals + part.shifts[:, None]
            resid = np.matmul(blocks, vecs)
            resid -= vecs * vals[:, None, :]
            resid = np.linalg.norm(resid, axis=1)
            bound = RESIDUAL_CONTRACT * np.abs(blocks).sum(axis=2).max(axis=1)
            if np.any(resid > bound[:, None]):
                raise ConvergenceError(
                    f"sector {f} eigenpairs miss their blocks: residual {np.max(resid):.2e}"
                    f" > {RESIDUAL_CONTRACT:.0e} * ||H_k||_inf", residuals=resid)
            block_vals.append(vals)
            part_vecs.append(vecs)
        all_vals = np.concatenate(block_vals, axis=1).ravel()
        order = np.argsort(all_vals, kind="stable")
        sys._sector_eig[f] = _SectorEigen(all_vals[order], sys.sector_indices(f), order,
                                          parts, part_vecs)
    return sys._sector_eig[f]


def sector_spectra(sys: SusySystem, k: int | None = None) -> dict:
    """Eigenvalues per fermion-number sector (all of them when k is None)."""
    return {f: _sector_solve(sys, f).vals[:k] for f in range(sys.model.n + 1)}


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
    time: arrays (n_k, rows, cols) whose rows are those of the Fock states
    each operator reaches from the sector, in ascending state order, and
    whose cols are one momentum's block eigenvectors in concatenated block
    order.  Q and Q+ keep the momentum, so no other entry is nonzero.

    The products are those of Q's Fock blocks, and of their transposes for
    Q+, with each part's eigenvectors split by its Fock states (column key
    the part).  All momenta share a part's eigenvectors (`_sector_solve`).
    """
    pieces = {}
    for p, (part, vecs) in enumerate(zip(eig.parts, eig.part_vecs)):
        pieces.update({(s, p): v for s, v in _by_state(sys, part, vecs).items()})
    n_cols = sum(len(vecs) for vecs in eig.part_vecs)

    def stacked(products, target):
        # every part reaches every Fock state of the neighbouring sectors
        rows = [np.zeros((len(sys.cm_coeff), 0, n_cols))]
        for a in _sector_states(sys.model.n, target):
            rows.append(np.concatenate([products[a, p] for p in range(len(eig.parts))], axis=2))
        return np.concatenate(rows, axis=1)

    # Q+'s blocks sorted, so that its sums run over ascending Fock states, as Q's do
    q_dag = dict(sorted(_adjoint(sys.q_blocks).items()))
    return (stacked(_block_products(sys.q_blocks, pieces), f - 1),
            stacked(_block_products(q_dag, pieces), f + 1))


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
            out[eig.parts[b].rows[ik], col] += w * eig.part_vecs[b][:, j - firsts[b]]
    return out


def kernel_classify(sys: SusySystem, split_tol: float = 1e-6) -> dict:
    """Tag every sector eigenstate by the supercharge that annihilates it.

    Degenerate clusters are rotated to diagonalize Q+Q on the cluster; the
    superalgebra then puts each state in ker Q (all its energy from QQ+) or
    in ker Q+ (all of it from Q+Q).  States whose cluster has mean
    lambda < ZERO_TOL count as zero modes.  Returns per-sector counts, tags
    and the charge norms of the rotated states, whose vectors
    `_rotated_states` builds.
    """
    report = {"sectors": {}, "unsplit": 0}
    for f in range(sys.model.n + 1):
        vals = _sector_solve(sys, f).vals
        lam, qn, qdn, _ = _sector_charges(sys, f)
        zero = lam < ZERO_TOL
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


def pairing_check(sys: SusySystem, tol: float = 1e-6) -> dict:
    """Nonzero eigenvalues of sector F in ker Q reappear in sector F+1 in
    ker Q+ (the partner state is Q+ applied to the original)."""
    classify = kernel_classify(sys)
    worst = 0.0
    detail = {}
    for f in range(sys.model.n):
        lo = classify["sectors"][f]
        hi = classify["sectors"][f + 1]
        left = sorted(v for v, t in zip(lo["eigenvalues"], lo["tags"])
                      if t == "ker_q" and v > ZERO_TOL)
        right = sorted(v for v, t in zip(hi["eigenvalues"], hi["tags"])
                       if t == "ker_qdag" and v > ZERO_TOL)
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

def sector_sum_check(sys: SusySystem, k: int = 6, split_tol: float = 1e-6) -> dict:
    """Component sums of near-boundary sector states.

    1-fermion eigenstates in ker Q: the particle-mode component sum is
    proportional to the symmetric-mode part; it either vanishes or solves
    the 0-fermion block at the same eigenvalue.  (N-1)-fermion states in
    ker Q+: the dual sum (difference-mode part for N = 2, string-signed
    components in general) does the same against the N-fermion block.
    Each inspected state is classified; for N = 3 the cross relation
    phi_i ~ sum_jk eps_ijk A_j chi_k is evaluated and its alignment
    residual reported.  The sums weigh each Fock state as its builder
    declares (`SusySystem.sum_weights`), and a two-body check runs on
    numpy alone.
    """
    n = sys.model.n
    classify = kernel_classify(sys, split_tol=split_tol)
    particle, dual = sys.sum_weights
    return {"one_fermion": _sum_check(sys, classify, 1, "ker_q", 0, particle, k),
            "n_minus_one": _sum_check(sys, classify, n - 1, "ker_qdag", n, dual, k),
            "epsilon_relation": _epsilon_relation(sys, k) if n == 3 else None}


def _component_sum(sys: SusySystem, f: int, weights: dict, vec: np.ndarray) -> np.ndarray:
    """Per momentum, the sum over Fock states s of weights[s] times the
    part of the sector-f vector on s.  A two-body system weighs |s> or |d>
    alone (phi_1 + phi_2 and chi_1 + chi_2 are sqrt(2) times these parts);
    a grid weighs each state by 1, or by the string sign of its empty mode
    in the dual sum."""
    pieces = {}
    for part in _sector_solve(sys, f).parts:
        pieces.update(_by_state(sys, part, vec[part.rows].T))
    return sum(w * pieces[s] for s, w in weights.items()).T.ravel()


def _apply_sector(sys: SusySystem, parts: list, vec: np.ndarray) -> np.ndarray:
    """A sector's block of H applied to a sector vector through H's
    declared Fock blocks between the states of each of its parts
    (`_SectorEigen.parts`), one momentum at a time."""
    out = np.zeros_like(vec)
    for part in parts:
        rows = _by_state(sys, part, part.rows.T)    # {state: (size, n_k)}
        for a, b in itertools.product(part.states, repeat=2):
            for rows_a, rows_b, block in zip(rows[a].T, rows[b].T, sys.h_blocks.get((a, b), ())):
                out[rows_a] += block @ vec[rows_b]
    return out


def _sum_check(sys: SusySystem, classify: dict, f: int, tag: str, target: int,
               weights: dict, k: int) -> list:
    """Classify the component sums of the first k sector-f states that
    carry `tag` and lie above ZERO_TOL: a sum either vanishes or solves the
    sector-`target` block of H at the state's eigenvalue ("degenerate"),
    else it is "unexplained", each within SUM_TOL.  Only these k states are
    built (`_rotated_states`), and H_target is applied by the parts its
    eigensolve holds."""
    vals = _sector_solve(sys, f).vals.tolist()
    picked = [t for t, state_tag in enumerate(classify["sectors"][f]["tags"])
              if state_tag == tag and vals[t] > ZERO_TOL][:k]
    parts = _sector_solve(sys, target).parts
    cases = []
    for t, state in zip(picked, _rotated_states(sys, f, picked).T):
        lam = vals[t]
        phi = _component_sum(sys, f, weights, state)
        norm = float(np.linalg.norm(phi))
        if norm < SUM_TOL:
            cases.append({"lambda": lam, "class": "vanishing", "residual": norm})
            continue
        resid = float(np.linalg.norm(_apply_sector(sys, parts, phi) - lam * phi)
                      / (norm * max(1.0, abs(lam))))
        cases.append({"lambda": lam, "class": "degenerate" if resid < SUM_TOL else "unexplained",
                      "residual": resid})
    return cases


def _epsilon_relation(sys: SusySystem, k: int) -> dict:
    """N = 3 cross relation between 2-fermion states and their 1-fermion
    partners: phi_i ~ sum_jk eps_ijk A_j chi_k, the three cyclic terms
    A_j chi_k - A_k chi_j, with A_j the operator Q pairs with psi_j: its
    block from the state holding mode j alone to the empty state.

    The relation is the component form of applying the supercharge, so its
    alignment with Q v validates the index structure exactly; how
    good an eigenvector that partner is (its eigen-residual in the 1-fermion
    block) measures the grid-limited degeneracy claim, reported separately.
    """
    eig2 = _sector_solve(sys, 2)
    [part2], [vecs2] = eig2.parts, eig2.part_vecs   # a grid sector is one part
    parts1 = _sector_solve(sys, 1).parts
    q = {key: blk[0] for key, blk in sys.q_blocks.items()}
    a = [q[0, 1 << j] for j in range(3)]
    results = []
    for lam, col in zip(eig2.vals.tolist(), eig2.order):
        if lam <= ZERO_TOL:
            continue
        comps = _by_state(sys, part2, vecs2[:, col])   # the states' node vectors
        qv = _block_products(q, {(s, 0): v for s, v in comps.items()})
        u = np.concatenate([qv[b, 0] for b in _sector_states(3, 1)])
        u_norm = np.linalg.norm(u)
        if u_norm ** 2 < 0.5 * lam:
            continue  # dominantly annihilated by Q: the relation is 0 = 0
        chi = [None] * 3   # by empty mode, signed as in the dual sum
        for state, sign in sys.sum_weights[1].items():
            chi[_empty_mode(3, state)] = sign * comps[state]
        # phi_i on the state holding mode i alone, in ascending state order
        pred = np.concatenate([a[j] @ chi[kk] - a[kk] @ chi[j]
                               for j, kk in ((1, 2), (2, 0), (0, 1))])
        nrm = np.linalg.norm(pred)
        if nrm == 0.0:
            continue
        overlap = abs(np.vdot(u, pred)) / (u_norm * nrm)
        eig_res = float(np.linalg.norm(_apply_sector(sys, parts1, u) - lam * u)
                        / (u_norm * max(1.0, lam)))
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
