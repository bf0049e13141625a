import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from shapeinv import shape1d, spectral, susy
from shapeinv.errors import ConvergenceError, DimensionCapError, DomainError
from shapeinv.models import make_nbody_model, make_prepotential_1d, remainder_shift
from shapeinv.spectral import GridSpec


def _rm(b=2.0, a=1.0):
    return make_prepotential_1d("rosen_morse_trig", (b, a))


# ---------------------------------------------------------------------------
# grids and assembly
# ---------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec.line(0.0, 1.0, 4)  # too few cells
    with pytest.raises(DomainError):
        GridSpec.box(0.0, 1.0, 16, 2, bc="periodic", sector="ordered")
    with pytest.raises(DomainError):
        GridSpec((  (0.0, 1.0, 16), (0.0, 2.0, 16)), sector="ordered")
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(DomainError, match="finite"):
            GridSpec.box(lo, hi, 16, 2)
    # non-integer cell counts (8.5 would place 8 nodes at h = 1 / 8.5) and
    # dimensions, and boxes without axes
    for make in (lambda: GridSpec(((0.0, 1.0, 8.5),)), lambda: GridSpec.line(0.0, 1.0, 16.5),
                 lambda: GridSpec.line(0.0, 1.0, 16.0), lambda: GridSpec.box(0.0, 1.0, 16.5, 2),
                 lambda: GridSpec.box(0.0, 1.0, 16, 0), lambda: GridSpec.box(0.0, 1.0, 16, 2.5)):
        with pytest.raises(DomainError, match="integer|axis"):
            make()
    # numpy integers are integers
    assert GridSpec.box(0.0, 1.0, np.int64(16), np.int64(2)).axes == ((0.0, 1.0, 16),) * 2


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_discretize_rejects_a_bad_kinetic_scale(scale):
    with pytest.raises(DomainError, match="kinetic_scale"):
        spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 64), 4, kinetic_scale=scale)


def test_symmetry_guard_rejects_nan():
    # a finite kinetic_scale so large that the entries overflow to +-inf:
    # H - H^T is NaN there, and the guard must not read that as symmetric
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="not symmetric"):
        spectral.discretize(lambda x: 0.0 * x, GridSpec.line(0.0, math.pi, 64), 4,
                            kinetic_scale=1e308)


def test_discretize_symmetric_and_metadata():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 64), 4)
    assert ham.symmetry_defect() <= 1e-12
    assert ham.dim == 63
    assert ham.stencil_order == 4
    assert ham.potential_floor == float(np.min(_rm().potential(ham.nodes[:, 0])))


def test_norm_est_equals_the_sparse_abs_row_sums():
    hams = [spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 1000), 4),
            spectral.discretize(make_nbody_model("calogero_sutherland", 3, 1.0),
                                GridSpec.box(0.0, math.pi, 31, 3, sector="ordered"), 4),
            _ring(800, 4)]
    # empty first, middle and last rows, which reduceat would misread
    dense = np.array([[0, 0, 0, 0, 0], [0, -3.0, 1.5, 0, 0], [0, 0, 0, 0, 0],
                      [0, 2.0, 0, -0.25, 7.5], [0, 0, 0, 0, 0]])
    for matrix in (dense, dense[1:4], dense[:, [0, 2, 1, 3, 4]], np.zeros((3, 3))):
        hams.append(spectral.SparseHamiltonian(sp.csr_matrix(matrix), hams[0].nodes,
                                               hams[0].grid, 4, 0.0))
    for ham in hams:
        assert ham.norm_est() == float(np.max(np.abs(ham.matrix).sum(axis=1)))
    assert [ham.norm_est() for ham in hams[3:]] == [9.75, 9.75, 9.75, 0.0]


def test_discretize_sign_puts_delta_on_origin_node():
    # W = a sign(x): W' = 2a delta(x), so V = a^2 - 2a delta(x); the node at
    # x = 0 sits on the jump of W and carries a^2 - 2a / h
    prep = make_prepotential_1d("sign", (1.5,))
    grid = GridSpec.line(-4.0, 4.0, 64)
    ham = spectral.discretize(prep, grid, 2)
    diag = ham.matrix.diagonal() - 2.0 / grid.axis_h(0) ** 2
    origin = np.flatnonzero(ham.nodes[:, 0] == 0.0)
    assert origin.tolist() == [31]
    assert diag[31] == pytest.approx(1.5 ** 2 - 2 * 1.5 / grid.axis_h(0), rel=1e-12)
    assert np.allclose(np.delete(diag, 31), 1.5 ** 2, rtol=0, atol=1e-9)
    assert ham.potential_floor == pytest.approx(diag[31], rel=1e-12)


@pytest.mark.parametrize("lo,hi,m", [(-4.0, 4.0, 63), (-4.0, 4.5, 64)],
                         ids=["odd_m", "asymmetric"])
def test_discretize_sign_needs_node_at_origin(lo, hi, m):
    with pytest.raises(DomainError, match="delta spike at x = 0"):
        spectral.discretize(make_prepotential_1d("sign", (1.0,)), GridSpec.line(lo, hi, m), 2)


def test_isospectrality_rejects_partner_delta_spike():
    with pytest.raises(DomainError, match="partner's delta spike"):
        spectral.isospectrality_check(make_prepotential_1d("sign", (1.0,)),
                                      GridSpec.line(-4.0, 4.0, 64), 2)


def test_discretize_rejects_singular_node():
    # a potential with an exact pole on the midpoint node
    def pole(x):
        return 1.0 / (x - math.pi / 2)

    with pytest.raises(DomainError):
        spectral.discretize(pole, GridSpec.line(0.0, math.pi, 64), 2)


def test_discretize_full_sector_needs_regular_potential():
    m = make_nbody_model("calogero", 2, 2.0)
    with pytest.raises(DomainError):
        spectral.discretize(m, GridSpec.box(-2.0, 2.0, 16, 2), 2)


# Reference assembly: dense Kronecker sums of 1-D stencil matrices,
# restricted to the sector by its selection matrix P.  Coefficients are
# per offset, before division by h^2 (Laplacian) or h (first derivative).
NEG_SECOND = {2: {0: 2.0, 1: -1.0, -1: -1.0},
              4: {0: 30 / 12, 1: -16 / 12, -1: -16 / 12, 2: 1 / 12, -2: 1 / 12}}
FIRST = {2: {1: 0.5, -1: -0.5},
         4: {1: 8 / 12, -1: -8 / 12, 2: -1 / 12, -2: 1 / 12}}


def _stencil_matrix(coeffs, n, h, power, bc, reflect):
    """Dense 1-D stencil on n nodes.  Dirichlet walls zero-extend; with
    reflect, the ghost two cells beyond a wall is minus the first interior
    node (odd reflection through the wall)."""
    mat = np.zeros((n, n))
    for off, c in coeffs.items():
        c = c / h ** power
        if bc == "periodic":
            mat += c * np.roll(np.eye(n), off, axis=1)
            continue
        mat += c * np.eye(n, k=off)
        if reflect and abs(off) == 2:
            end = 0 if off < 0 else n - 1
            mat[end, end] -= c
    return mat


def _restricted_axis_operators(grid, coeffs, power):
    """P L_k P^T for every axis k, dense, and the sector node coordinates.
    The Kronecker products are sparse and P keeps the sector's rows and
    columns by index, so only the restricted operators are dense."""
    sizes = [len(grid.axis_nodes(k)) for k in range(grid.dim)]
    full = np.indices(sizes).reshape(grid.dim, -1).T  # row-major
    keep = np.ones(len(full), dtype=bool)
    if grid.sector == "ordered":
        keep = np.all(np.diff(full, axis=1) > 0, axis=1)
    kept = np.flatnonzero(keep)
    ops = []
    for k in range(grid.dim):
        factors = [sp.identity(s, format="csr") for s in sizes]
        factors[k] = sp.csr_matrix(_stencil_matrix(coeffs, sizes[k], grid.axis_h(k), power,
                                                   grid.bc, reflect=grid.dim == 1))
        lk = factors[0]
        for f in factors[1:]:
            lk = sp.kron(lk, f, format="csr")
        ops.append(lk[kept][:, kept].toarray())
    nodes = np.column_stack([grid.axis_nodes(k)[full[keep, k]] for k in range(grid.dim)])
    return ops, nodes


def _assert_entrywise(got, want):
    assert np.max(np.abs(got.toarray() - want)) <= 1e-15 * np.max(np.abs(want))


def _smooth(x):
    return np.cos(x) if x.ndim == 1 else np.cos(x).sum(axis=1)


AXES = ((-1.0, 2.0, 12), (-0.5, 1.5, 11), (0.0, 2.5, 10))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dim,sector,bc", [
    (1, "full", "dirichlet"), (1, "full", "periodic"),
    (2, "ordered", "dirichlet"), (2, "full", "dirichlet"), (2, "full", "periodic"),
    (3, "ordered", "dirichlet"), (3, "full", "dirichlet"), (3, "full", "periodic"),
    (4, "ordered", "dirichlet"),
])
def test_discretize_matches_restricted_kronecker_sum(dim, sector, bc, order):
    if sector == "ordered":
        # m = 8 keeps the dense 4-D reference at 7^4 full-grid nodes
        model = make_nbody_model("calogero_sutherland", dim, 2.0)
        grid = GridSpec.box(0.0, math.pi, {2: 12, 3: 10, 4: 8}[dim], dim, sector=sector)
        ham = spectral.discretize(model, grid, order)
    else:
        grid = GridSpec(AXES[:dim] if dim > 1 else ((0.0, 2 * math.pi, 12),), bc)
        ham = spectral.discretize(_smooth, grid, order)
    ops, nodes = _restricted_axis_operators(grid, NEG_SECOND[order], 2)
    assert np.array_equal(ham.nodes, nodes)
    if sector == "ordered":
        v = np.array([model.potential(p) for p in nodes])
    else:
        v = _smooth(nodes[:, 0] if dim == 1 else nodes)
    _assert_entrywise(ham.matrix - sp.diags(v), sum(ops))


@pytest.mark.parametrize("variant", ["s1", "s2"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_susy_ladders_match_restricted_stencil(n, order, variant):
    model = make_nbody_model("calogero_sutherland", n, 2.0)
    grid = GridSpec.box(0.0, math.pi, 8 if n == 4 else 10, n, sector="ordered")
    system = susy.build_susy(model, grid, variant, stencil_order=order)
    ops, nodes = _restricted_axis_operators(grid, FIRST[order], 1)
    assert system.sizes == (len(nodes),) * (1 << n)
    base = model if variant == "s1" else model.shifted(1.0)
    w = np.array([base.prepotential(p) for p in nodes])
    for i in range(n):
        # Q pairs psi_i with the ladder D_i + W_i (s1) or its transpose (s2);
        # its block from the state holding mode i alone to |0> carries sign +1
        lowering = system.q_blocks[0, 1 << i][0]
        ladder = lowering if variant == "s1" else lowering.T
        _assert_entrywise(sp.csr_matrix(ladder - np.diag(w[:, i])), ops[i])


# ---------------------------------------------------------------------------
# eigensolver contracts
# ---------------------------------------------------------------------------

def test_harmonic_oscillator_levels():
    # V = x^2 on a large box: levels 1, 3, 5, 7 in these units
    ham = spectral.discretize(lambda x: x ** 2, GridSpec.line(-10, 10, 2000), 4)
    res = spectral.eigen(ham, 4)
    assert np.allclose(res.eigenvalues, [1, 3, 5, 7], rtol=1e-3)


def test_box_levels():
    # free particle on (0, pi): 1, 4, 9, 16
    ham = spectral.discretize(lambda x: 0.0 * x, GridSpec.line(0.0, math.pi, 1500), 4)
    res = spectral.eigen(ham, 4)
    assert np.allclose(res.eigenvalues, [1, 4, 9, 16], rtol=1e-4)


def test_rosen_morse_grid_levels():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 2000), 4)
    res = spectral.eigen(ham, 5)
    expected = np.array([0.0, 5.0, 12.0, 21.0, 32.0])
    assert np.max(np.abs(res.eigenvalues - expected)
                  / np.maximum(1.0, expected)) < 1e-3


def test_eigen_residual_contract():
    # a 1-D operator (shift-invert) and an N-D one (SA Lanczos)
    cs3 = make_nbody_model("calogero_sutherland", 3, 1.0)
    for ham in (spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 500), 4),
                spectral.discretize(cs3, GridSpec.box(0.0, math.pi, 16, 3,
                                                      sector="ordered"), 4)):
        res = spectral.eigen(ham, 6)
        assert res.solver in ("shift_invert", "iterative")
        assert np.all(res.residual_norms <= 1e-8 * res.norm_est)
        assert np.all(np.diff(res.eigenvalues) >= 0)


def test_dense_iterative_agreement():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 1001), 4)
    dense = spectral.eigen(ham, 4, method="dense")
    iterative = spectral.eigen(ham, 4, method="iterative", seed=1)
    assert np.max(np.abs(dense.eigenvalues - iterative.eigenvalues)) < 1e-9


@pytest.mark.parametrize("method", ["dense", "iterative", "shift_invert"])
def test_eigen_records_nnz_and_shift(method):
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 200), 4)
    res = spectral.eigen(ham, 3, method=method)
    assert res.solver == method
    assert res.nnz == ham.matrix.nnz == 199 + 2 * 198 + 2 * 197  # five diagonals
    if method == "shift_invert":
        assert res.shift == ham.potential_floor - 1.0
    else:
        assert res.shift is None
    if method == "dense":
        assert res.matvecs is None
    else:
        assert res.matvecs > 0


HARMONIC2 = make_nbody_model("harmonic_calogero", 2, 2.0, omega=1.0)


@pytest.mark.parametrize("make,k", [
    (lambda: spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 601), 2), 5),
    (lambda: spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 601), 4), 5),
    # free ring: degenerate pairs 1, 1, 4, 4
    (lambda: spectral.discretize(lambda x: 0.0 * x, GridSpec.line(
        0.0, 2 * math.pi, 800, bc="periodic"), 4), 5),
    # reduced relative operator, kinetic_scale = 2
    (lambda: spectral.reduced_hamiltonian(HARMONIC2, GridSpec.line(0.0, 12.0, 600), 4), 4),
    (lambda: spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 8), 4), 6),
], ids=["rosen_morse_o2", "rosen_morse_o4", "periodic_ring", "reduced_harmonic", "m8_k6"])
def test_auto_shift_invert_matches_dense(make, k):
    ham = make()
    auto = spectral.eigen(ham, k, seed=3)
    dense = spectral.eigen(ham, k, method="dense")
    assert auto.solver == "shift_invert"
    assert np.max(np.abs(auto.eigenvalues - dense.eigenvalues)) < 1e-9


def _bc3_alcove(x):
    # BC_3 Sutherland at a = kappa = lambda = 2 on 0 < x_1 < x_2 < x_3 < pi/2:
    # 2a(a - 1) [csc^2(x_i - x_j) + csc^2(x_i + x_j)] per pair and
    # kappa(kappa - 1) csc^2 x_i + lambda(lambda - 1) sec^2 x_i per particle
    pairs = sum(4.0 / np.sin(x[:, i] - x[:, j]) ** 2 + 4.0 / np.sin(x[:, i] + x[:, j]) ** 2
                for i, j in ((0, 1), (0, 2), (1, 2)))
    return pairs + np.sum(2.0 / np.sin(x) ** 2 + 2.0 / np.cos(x) ** 2, axis=1)


@pytest.mark.parametrize("operator,alpha,lo,hi,m,k", [
    ("calogero_sutherland", 1.0, 0.0, math.pi, 18, 1),    # 680 nodes
    ("calogero_sutherland", 1.0, 0.0, math.pi, 18, 4),
    ("calogero_sutherland", 1.0, 0.0, math.pi, 18, 6),
    ("calogero", 2.0, -3.0, 3.0, 20, 10),                 # 969 nodes
    pytest.param(_bc3_alcove, None, 0.0, math.pi / 2, 24, 10, id="bc3_alcove"),  # 1771
])
def test_auto_takes_lanczos_above_the_dense_cutoff(operator, alpha, lo, hi, m, k):
    if isinstance(operator, str):
        operator = make_nbody_model(operator, 3, alpha)
    ham = spectral.discretize(operator, GridSpec.box(lo, hi, m, 3, sector="ordered"), 4)
    assert spectral.DENSE_CUTOFF < 500 < ham.dim < 4000
    auto = spectral.eigen(ham, k, seed=3)
    dense = spectral.eigen(ham, k, method="dense")
    assert (auto.solver, dense.solver) == ("iterative", "dense")
    assert np.max(np.abs(auto.eigenvalues - dense.eigenvalues)) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lanczos_keeps_exact_degeneracies_of_the_free_box(seed):
    # the free 2-D box has the levels p^2 + q^2 of its 1-D stencil, each
    # p != q twice (5.064, 10.123, 13.16, 17.192 among the lowest ten).
    # Single-vector SA Lanczos keeps both copies at these k, with the
    # default basis and with the smaller N-D one alike; at k = 3, 4 and 5 it
    # drops a copy of 5.064 for every seed (a known defect, ROADMAP aim 3)
    ham = spectral.discretize(lambda x: np.zeros(len(x)), GridSpec.box(
        0.0, math.pi, 24, 2), 4)
    assert ham.dim == 529 > spectral.DENSE_CUTOFF
    for k, pairs in ((6, 2), (8, 3), (10, 4)):
        auto = spectral.eigen(ham, k, seed=seed)
        dense = spectral.eigen(ham, k, method="dense")
        assert (auto.solver, dense.solver) == ("iterative", "dense")
        levels = dense.eigenvalues
        assert np.sum(np.abs(np.diff(levels)) < 1e-9) == pairs
        assert np.max(np.abs(auto.eigenvalues - levels)) < 1e-9


_CS3 = make_nbody_model("calogero_sutherland", 3, 1.0)


@pytest.mark.parametrize("make,solver", [
    (lambda: spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 200), 4),
     "shift_invert"),
    (lambda: spectral.discretize(_CS3, GridSpec.box(0.0, math.pi, 12, 3,
                                                    sector="ordered"), 4), "dense"),
    (lambda: spectral.discretize(_CS3, GridSpec.box(0.0, math.pi, 16, 3,
                                                    sector="ordered"), 4), "iterative"),
], ids=["1d_shift_invert", "nd_dense", "nd_lanczos"])
def test_eigen_takes_an_integer_k_only(make, solver):
    ham = make()
    for k in (4.0, 4.5, True, np.float64(4.0)):
        with pytest.raises(DomainError, match="k must be an integer"):
            spectral.eigen(ham, k)
    res = spectral.eigen(ham, np.int64(4))
    assert res.solver == solver and len(res.eigenvalues) == 4


def test_sa_lanczos_basis_is_set_on_nd_operators_only(monkeypatch):
    # each eigsh call's basis size, tol and one product with its operator
    calls = []
    eigsh = spla.eigsh

    def recording(op, **kwargs):
        x = np.linspace(-1.0, 1.0, op.shape[0])
        calls.append((kwargs.get("ncv"), kwargs.get("tol"), op @ x))
        return eigsh(op, **kwargs)

    def called_with(ham, ncv, tol, shift):
        x = np.linspace(-1.0, 1.0, ham.dim)
        return (calls[-1][:2] == (ncv, tol)
                and np.array_equal(calls[-1][2], ham.matrix @ x + shift * x))

    monkeypatch.setattr(spla, "eigsh", recording)
    half = spectral.RESIDUAL_CONTRACT / 2
    ham = spectral.discretize(_CS3, GridSpec.box(0.0, math.pi, 16, 3, sector="ordered"), 4)
    assert ham.dim == 455 > spectral.DENSE_CUTOFF
    # max(14, 3k) below ARPACK's default min(n, max(2k + 1, 20)), the
    # default itself from k = 7 on; N-D runs on H + ||H||_est I
    for k, ncv in ((1, 14), (4, 14), (6, 18), (7, 20), (10, 21)):
        assert spectral.eigen(ham, k).solver == "iterative"
        assert called_with(ham, ncv, half, ham.norm_est())
    small = spectral.discretize(_CS3, GridSpec.box(0.0, math.pi, 8, 3, sector="ordered"), 4)
    assert small.dim == 35
    res = spectral.eigen(small, 20, method="iterative")
    assert called_with(small, 35, half, small.norm_est())
    dense = spectral.eigen(small, 20, method="dense")
    assert np.max(np.abs(res.eigenvalues - dense.eigenvalues)) < 1e-9
    # the forced 1-D 'SA' solve: ARPACK's default basis and tol on H itself
    line = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 200), 4)
    assert spectral.eigen(line, 4, method="iterative").solver == "iterative"
    assert called_with(line, None, spectral.RESIDUAL_CONTRACT, 0.0)
    assert spectral.eigen(line, 4, method="shift_invert").solver == "shift_invert"
    assert calls[-1][0] is None
    assert len(calls) == 8


def test_shift_invert_rejects_shift_inside_spectrum():
    # a recorded floor above the lowest level puts the shift inside the
    # spectrum; the factorization's pivots must expose it
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 200), 4)
    lowest = spectral.eigen(ham, 1).eigenvalues[0]
    bad = spectral.SparseHamiltonian(ham.matrix, ham.nodes, ham.grid, 4, lowest + 2.0)
    with pytest.raises(ConvergenceError, match="not below the spectrum"):
        spectral.eigen(bad, 3)


def _ring(m, order):
    return spectral.discretize(lambda x: np.cos(x) + 0.3 * np.sin(2 * x),
                               GridSpec.line(0.0, 2 * math.pi, m, bc="periodic"), order)


@pytest.mark.parametrize("m", [200, 201])
@pytest.mark.parametrize("order", [2, 4])
def test_periodic_ring_band_matches_dense(m, order):
    # the zig-zag order 0, n-1, 1, n-2, ... ends on a different node for
    # odd and even rings
    ham = _ring(m, order)
    auto = spectral.eigen(ham, 6, seed=2)
    dense = spectral.eigen(ham, 6, method="dense")
    assert auto.solver == "shift_invert"
    assert np.max(np.abs(auto.eigenvalues - dense.eigenvalues)) < 1e-9


@pytest.mark.parametrize("make", [
    lambda: spectral.discretize(make_nbody_model("calogero_sutherland", 3, 1.0),
                                GridSpec.box(0.0, math.pi, 12, 3, sector="ordered"), 4),
    lambda: spectral.discretize(lambda x: np.cos(x[:, 0]) + np.cos(x[:, 0] - x[:, 1]),
                                GridSpec.box(0.0, 2 * math.pi, 12, 2, bc="periodic"), 4),
], ids=["cs3_ordered_m12", "periodic_box_2d"])
def test_forced_shift_invert_on_nd_operators_matches_dense(make):
    ham = make()
    forced = spectral.eigen(ham, 5, seed=1, method="shift_invert")
    dense = spectral.eigen(ham, 5, method="dense")
    assert forced.solver == "shift_invert"
    assert forced.shift == ham.potential_floor - 1.0
    assert np.max(np.abs(forced.eigenvalues - dense.eigenvalues)) < 1e-9


def test_auto_1d_path_needs_no_sparse_lu(monkeypatch):
    def no_lu(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(spla, "splu", no_lu)
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 300), 4)
    assert spectral.eigen(ham, 4).solver == "shift_invert"
    assert spectral.eigen(_ring(300, 4), 4).solver == "shift_invert"


def test_band_storage_is_capped(monkeypatch):
    # a 100^2 cap admits the 800-node ring, whose zig-zag band has width 4,
    # but not the 144-node periodic box, whose wrap-around spans its order
    monkeypatch.setattr(spectral, "DENSE_CAP", 100)
    assert spectral.eigen(_ring(800, 4), 3).solver == "shift_invert"
    box = spectral.discretize(lambda x: np.cos(x[:, 0]),
                              GridSpec.box(0.0, 2 * math.pi, 12, 2, bc="periodic"), 4)
    assert box.dim == 144
    with pytest.raises(DimensionCapError, match="band storage"):
        spectral.eigen(box, 3, method="shift_invert")


@pytest.mark.parametrize("method", ["iterative", "shift_invert"])
def test_lanczos_failure_carries_partial_residuals(monkeypatch, method):
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 32), 4)
    dense = spectral.eigen(ham, 2, method="dense")
    # two partial pairs: one exact, one with its eigenvalue off by 0.5
    partial_w = dense.eigenvalues + np.array([0.0, 0.5])

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", partial_w, dense.eigenvectors)

    # spectral imports the same module object when eigen runs
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError) as err:
        spectral.eigen(ham, 4, method=method)
    assert np.allclose(err.value.residuals, [0.0, 0.5], rtol=0, atol=1e-9)


def test_nd_lanczos_failure_shifts_partial_ritz_values_back(monkeypatch):
    # N-D 'SA' runs on H + ||H||_est I, so its partial Ritz values carry the
    # shift; the residuals are those of H with the shift taken off
    ham = spectral.discretize(_CS3, GridSpec.box(0.0, math.pi, 16, 3, sector="ordered"), 4)
    dense = spectral.eigen(ham, 2, method="dense")
    partial_w = dense.eigenvalues + ham.norm_est() + np.array([0.0, 0.5])

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", partial_w, dense.eigenvectors)

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError) as err:
        spectral.eigen(ham, 4)
    assert np.allclose(err.value.residuals, [0.0, 0.5], rtol=0, atol=1e-9)


def test_eigen_k_one_is_minimum():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 300), 2)
    res = spectral.eigen(ham, 1)
    full = spectral.eigen(ham, 5)
    assert res.eigenvalues[0] == pytest.approx(full.eigenvalues[0], rel=1e-12)


def test_eigenvalue_convergence_order():
    # order-2 stencils converge at h^2; order-4 shows its full rate on the
    # box potential (smooth odd continuation at the walls) and at least
    # order 2.9 on the singular-wall family, where the wall rows limit it
    cases = ((2, _rm(), 5.0, 1.9),
             (4, _rm(1.0, 1.0), 3.0, 3.9),
             (4, _rm(), 5.0, 2.9))
    for order, prep, level1, target in cases:
        errs = []
        for m in (250, 500, 1000):
            ham = spectral.discretize(prep, GridSpec.line(0.0, math.pi, m), order)
            errs.append(abs(spectral.eigen(ham, 2).eigenvalues[1] - level1))
        slope = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert slope > target


def test_periodic_free_spectrum():
    # free particle on a periodic ring of circumference 2 pi: 0, 1, 1, 4, 4
    ham = spectral.discretize(lambda x: 0.0 * x,
                              GridSpec.line(0.0, 2 * math.pi, 800, bc="periodic"), 4)
    res = spectral.eigen(ham, 5)
    assert np.allclose(res.eigenvalues, [0, 1, 1, 4, 4], atol=1e-4)


def test_positivity_of_ladder_form():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 800), 4)
    res = spectral.eigen(ham, 3)
    assert res.eigenvalues[0] >= -1e-6


# ---------------------------------------------------------------------------
# product ground states
# ---------------------------------------------------------------------------

def test_jastrow_reduced_cs():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    gf, resid = spectral.jastrow_ground_state(m, GridSpec.line(0.0, math.pi, 400))
    assert resid < 1e-4
    assert gf.meta["normalizable"]
    r = gf.nodes[:, 0]
    ref = np.abs(np.sin(r))
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(gf.values - ref)) < 1e-10


def test_jastrow_grid_residual_converges():
    m = make_nbody_model("calogero_sutherland", 2, 2.0)
    errs = []
    for cells in (200, 400, 800):
        _, resid = spectral.jastrow_ground_state(
            m, GridSpec.line(0.0, math.pi, cells), stencil_order=2)
        errs.append(resid)
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert order > 1.9


@pytest.mark.parametrize("build", [
    lambda m, g: spectral.discretize(m, g, 4),
    lambda m, g: susy.build_susy(m, g, "s1"),
    lambda m, g: spectral.jastrow_ground_state(m, g, 4),
], ids=["discretize", "build_susy", "jastrow_ground_state"])
@pytest.mark.parametrize("grid,message", [
    (GridSpec.box(0.0, math.pi, 8, 2, sector="ordered"), "grid dimension 2 != particle count 3"),
    (GridSpec.box(0.0, math.pi, 8, 3), "singular pair potentials need the ordered sector"),
], ids=["two_axes", "full_sector"])
def test_model_grid_contract_is_one_check(build, grid, message):
    with pytest.raises(DomainError, match=message):
        build(make_nbody_model("calogero_sutherland", 3, 2.0), grid)


def test_jastrow_full_grid_calogero_n3():
    m = make_nbody_model("calogero", 3, 2.0)
    grid = GridSpec.box(-3.0, 3.0, 20, 3, sector="ordered")
    gf, resid = spectral.jastrow_ground_state(m, grid, stencil_order=4)
    assert gf.nodes.shape[1] == 3
    assert resid < 1e-2
    assert gf.meta["normalizable"] is False  # no confinement


def test_partner_ground_state_energy():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    assert remainder_shift(m) == pytest.approx(6.0)
    assert m.shifted(1.0).alpha == 2.0
    m3 = make_nbody_model("calogero_sutherland", 3, 1.0)
    assert remainder_shift(m3) == pytest.approx(24.0)


def test_partner_energy_confirmed_by_grid():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    ham = spectral.reduced_hamiltonian(m, GridSpec.line(0.0, math.pi, 1000), 4, partner=True)
    lam0 = spectral.eigen(ham, 1).eigenvalues[0]
    assert lam0 == pytest.approx(6.0, abs=1e-3)


def test_partner_calogero_zero_shift():
    m = make_nbody_model("calogero", 3, 1.5)
    shifted = m.shifted(1.0)
    assert remainder_shift(m) == 0.0
    assert shifted.kind_row.normalizable(shifted) is False


# ---------------------------------------------------------------------------
# two-body reduction
# ---------------------------------------------------------------------------

def test_reduction_cs_mapping():
    m = make_nbody_model("calogero_sutherland", 2, 2.0)
    prep = spectral.relative_prepotential(m)
    assert prep.family == "rosen_morse_trig"
    assert prep.params == (2.0, 1.0)
    assert spectral.RELATIVE_KINETIC == 2.0
    # reduced potential is 2 (alpha(alpha-1)/sin^2 r - alpha^2)
    r = 0.9
    assert spectral.RELATIVE_KINETIC * prep.potential(r) == pytest.approx(
        2 * (2.0 / math.sin(r) ** 2 - 4.0))


def test_reduction_free_limit():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    prep = spectral.relative_prepotential(m)
    assert spectral.RELATIVE_KINETIC * prep.potential(0.7) == pytest.approx(-2.0)  # constant


def test_reduction_requires_two_bodies():
    with pytest.raises(DomainError):
        spectral.relative_prepotential(make_nbody_model("calogero", 3, 1.0))


def test_reduction_grid_vs_chain():
    m = make_nbody_model("calogero_sutherland", 2, 2.0)
    chain = shape1d.algebraic_spectrum(spectral.relative_prepotential(m), 3)
    alg = spectral.RELATIVE_KINETIC * np.asarray(chain.energies)
    assert np.allclose(alg, [0.0, 10.0, 24.0, 42.0])
    ham = spectral.reduced_hamiltonian(m, GridSpec.line(0.0, math.pi, 2000), 4)
    grid_levels = spectral.eigen(ham, 4).eigenvalues
    rel = np.abs(grid_levels - alg) / np.maximum(1.0, np.abs(alg))
    assert np.max(rel) < 1e-3


def test_reduced_ground_state_nodeless_and_even():
    m = make_nbody_model("calogero_sutherland", 2, 2.0)
    ham = spectral.reduced_hamiltonian(m, GridSpec.line(0.0, math.pi, 801), 4)
    vec = spectral.eigen(ham, 1).eigenvectors[:, 0]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    interior = vec[np.abs(vec) > 1e-9 * np.max(np.abs(vec))]
    assert np.sum(np.sign(interior[1:]) != np.sign(interior[:-1])) == 0
    assert np.max(np.abs(vec - vec[::-1])) < 1e-6  # even about r = pi/2


def test_reduction_harmonic_family():
    m = make_nbody_model("harmonic_calogero", 2, 1.0, omega=1.0)
    prep = spectral.relative_prepotential(m)
    assert prep.family == "rational_harmonic"
    assert prep.params == (m.beta, -1.0)


# ---------------------------------------------------------------------------
# isospectrality
# ---------------------------------------------------------------------------

def test_isospectrality_1d():
    rep = spectral.isospectrality_check(_rm(), GridSpec.line(0.0, math.pi, 900), 4)
    assert rep["remainder"] == pytest.approx(5.0)
    assert rep["max_relative_deviation"] < 1e-3


def test_isospectrality_reduced_cs():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    rep = spectral.isospectrality_check(m, GridSpec.line(0.0, math.pi, 800), 4)
    assert rep["remainder"] == pytest.approx(6.0)
    assert rep["max_relative_deviation"] < 1e-3


def test_isospectrality_free_exact():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    # alpha = 1 makes the direct coupling vanish; agreement is then exact
    rep = spectral.isospectrality_check(_rm(1.0, 1.0),
                                        GridSpec.line(0.0, math.pi, 600), 3)
    assert rep["max_relative_deviation"] < 1e-9


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _spectrum_table(result):
    """Header and rows for an eigenvalue CSV: index, lambda, residual."""
    header = ("index", "lambda", "residual")
    rows = [(i, float(result.eigenvalues[i]), float(result.residual_norms[i]))
            for i in range(len(result.eigenvalues))]
    return header, rows


def test_spectrum_table_schema():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 300), 4)
    res = spectral.eigen(ham, 3)
    header, rows = _spectrum_table(res)
    assert header == ("index", "lambda", "residual")
    assert [r[0] for r in rows] == [0, 1, 2]
    assert all(r[2] <= 1e-8 * res.norm_est for r in rows)


def test_grid_dump_round_trip():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    gf, _ = spectral.jastrow_ground_state(m, GridSpec.line(0.0, math.pi, 64))
    text = spectral.dump_grid_function(gf)
    lines = text.splitlines()
    assert lines[0] == "# dimension 1"
    assert lines[1].startswith("# axis")
    assert "# ordering row-major" in lines
    data = [ln.split() for ln in lines if not ln.startswith("#")]
    assert len(data) == gf.values.shape[0]
    values = np.array([float(d[-1]) for d in data])
    assert np.allclose(values, gf.values)  # repr round-trips exactly
    nodes = np.array([float(d[0]) for d in data])
    assert np.allclose(nodes, gf.nodes[:, 0])
