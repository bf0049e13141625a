import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from shapeinv import susy
from shapeinv.errors import DimensionCapError, DomainError
from shapeinv.models import make_nbody_model
from shapeinv.spectral import GridSpec


@pytest.fixture(scope="module")
def cs_system():
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    grid = GridSpec.line(0.0, math.pi, 64)
    return susy.build_susy(model, grid, "s1")


# ---------------------------------------------------------------------------
# Fock space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_anticommutators_exact(n):
    basis = susy.make_fock_basis(n)
    assert basis.anticommutator_defect() == 0.0


def test_fock_sector_sizes():
    basis = susy.make_fock_basis(3)
    assert [len(basis.sector_indices(f)) for f in range(4)] == [1, 3, 3, 1]


def test_jordan_wigner_signs():
    basis = susy.make_fock_basis(3)
    # psi_1 acting on |bits 0,1> = |3>: one occupied mode below -> sign -1
    a1 = basis.annihilators[1].toarray()
    assert a1[1, 3] == -1.0
    # psi_0 on |3>: nothing below mode 0 -> +1
    a0 = basis.annihilators[0].toarray()
    assert a0[2, 3] == 1.0


# ---------------------------------------------------------------------------
# two-body staggered system
# ---------------------------------------------------------------------------

def test_superalgebra_exact(cs_system):
    d = cs_system.diagnostics
    assert d["q_squared_fro"] < 1e-12
    assert d["hermiticity_defect"] == 0.0
    assert d["offblock_leak"] == 0.0
    assert d["h_q_commutator"] < 1e-10


def test_h_equals_anticommutator(cs_system):
    sys_ = cs_system
    rebuilt = sys_.Qdag @ sys_.Q + sys_.Q @ sys_.Qdag
    diff = rebuilt - sys_.H
    assert (np.max(np.abs(diff.data)) if diff.nnz else 0.0) == 0.0


def test_sector_minima(cs_system):
    spectra = susy.sector_spectra(cs_system, 1)
    assert spectra[0][0] == pytest.approx(6.0, abs=1e-2)   # bosonic floor = R
    assert abs(spectra[2][0]) < 1e-10                      # exact zero mode


def test_sector_dimensions(cs_system):
    # per momentum mode: nodes, nodes + midpoints, midpoints
    n_modes = len(cs_system.cm_momenta)
    assert len(cs_system.sector_indices(0)) == 63 * n_modes
    assert len(cs_system.sector_indices(1)) == (63 + 64) * n_modes
    assert len(cs_system.sector_indices(2)) == 64 * n_modes


def test_positive_semidefinite(cs_system):
    spectra = susy.sector_spectra(cs_system)
    for vals in spectra.values():
        assert vals[0] >= -1e-10


def test_pairing(cs_system):
    rep = susy.pairing_check(cs_system, tol=1e-6)
    assert rep["passed"]
    assert rep["max_relative_gap"] < 1e-6


def test_kernel_classification(cs_system):
    rep = susy.kernel_classify(cs_system)
    assert rep["unsplit"] == 0
    sec0 = rep["sectors"][0]["counts"]
    assert sec0["ker_qdag"] == 0 and sec0["zero"] == 0
    sec2 = rep["sectors"][2]["counts"]
    assert sec2["ker_q"] == 0
    # the zero-energy state is annihilated by both supercharges exactly
    tags2 = rep["sectors"][2]["tags"]
    z = tags2.index("zero")
    assert rep["sectors"][2]["q_norms"][z] < 1e-8
    assert rep["sectors"][2]["qdag_norms"][z] < 1e-8


def test_no_zero_mode_in_bosonic_sector(cs_system):
    rep = susy.kernel_classify(cs_system)
    assert rep["sectors"][0]["counts"]["zero"] == 0


def test_zero_mode_is_jastrow(cs_system):
    # the exact kernel vector at k = 0 reproduces |sin r|^alpha on midpoints
    vals, vecs, ix = susy._sector_eigh(cs_system, 2)
    mids = cs_system.relative_ops["mids"]
    k0_zero = np.argmin(np.abs(vals))
    assert abs(vals[k0_zero]) < 1e-10
    vec = vecs[:, k0_zero]
    blocks = cs_system.sector_blocks(2)
    k_index = list(cs_system.cm_momenta).index(0)
    pos = 0
    chunk = None
    for ik, f, off, size in blocks:
        if ik == k_index:
            chunk = vec[pos:pos + size]
        pos += size
    chunk = np.real(chunk)
    chunk /= np.linalg.norm(chunk)
    # exact kernel of the discrete ladder ...
    assert np.linalg.norm(cs_system.relative_ops["x"] @ chunk) < 1e-10
    # ... approximating the continuum pair state at stencil order
    ref = np.abs(np.sin(mids))
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(np.abs(chunk) - ref)) < 1e-3


def test_sector_sum_classification(cs_system):
    rep = susy.sector_sum_check(cs_system, k=6)
    assert len(rep["one_fermion"]) > 0
    for case in rep["one_fermion"]:
        assert case["class"] in ("vanishing", "degenerate")
        assert case["residual"] < 1e-6
    assert len(rep["n_minus_one"]) > 0
    seen = {case["class"] for case in rep["n_minus_one"]}
    assert seen <= {"vanishing", "degenerate"}


def test_sum_check_inspects_the_tagged_states(cs_system):
    # the sum checks read the cluster-rotated states the tags describe
    rep = susy.kernel_classify(cs_system)
    vals, _, ix = susy._sector_eigh(cs_system, 1)
    _, rotated, _, _ = susy._sector_charges(cs_system, 1)
    qn = np.linalg.norm(cs_system.Q[:, ix] @ rotated, axis=0)
    qdn = np.linalg.norm(cs_system.Qdag[:, ix] @ rotated, axis=0)
    for t, tag in enumerate(rep["sectors"][1]["tags"]):
        if tag == "ker_q":
            assert qn[t] <= 1e-6 * math.sqrt(vals[t])
        elif tag == "ker_qdag":
            assert qdn[t] <= 1e-6 * math.sqrt(vals[t])
    cases = susy.sector_sum_check(cs_system, k=6)["n_minus_one"]
    assert [case["class"] for case in cases] == ["degenerate"] * 6


def test_variant_comparison():
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    grid = GridSpec.line(0.0, math.pi, 64)
    rep = susy.variant_comparison(model, grid)
    # bosonic sector shared up to one constant close to the remainder R = 6
    assert rep["sectors"][0]["relative_deviation_after_shift"] < 1e-4
    assert rep["sectors"][0]["constant_shift"] == pytest.approx(6.0, abs=1e-2)
    # the 1-fermion sector is not related by any constant shift
    assert rep["sectors"][1]["relative_deviation_after_shift"] > 0.1


def test_variant_s2_nilpotent():
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    grid = GridSpec.line(0.0, math.pi, 32)
    s2 = susy.build_susy(model, grid, "s2")
    assert s2.diagnostics["q_squared_fro"] < 1e-12
    assert s2.diagnostics["offblock_leak"] == 0.0


def test_calogero_two_body_builds():
    model = make_nbody_model("calogero", 2, 1.5)
    grid = GridSpec.line(0.0, 8.0, 32)
    s = susy.build_susy(model, grid, "s1", cm_momenta=(0,))
    assert s.diagnostics["q_squared_fro"] < 1e-12
    rep = susy.pairing_check(s, tol=1e-6)
    assert rep["passed"]


def test_build_validation():
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    grid = GridSpec.line(0.0, math.pi, 64)
    with pytest.raises(DomainError):
        susy.build_susy(model, grid, "s3")
    with pytest.raises(DimensionCapError):
        susy.build_susy(model, GridSpec.line(0.0, math.pi, 40000), "s1")


# ---------------------------------------------------------------------------
# N = 3 grid system (approximate algebra, reported)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cs3_system():
    model = make_nbody_model("calogero_sutherland", 3, 1.0)
    grid = GridSpec.box(0.0, math.pi, 12, 3, sector="ordered")
    return susy.build_susy(model, grid, "s1", stencil_order=4)


def test_grid_system_structure(cs3_system):
    d = cs3_system.diagnostics
    assert d["hermiticity_defect"] == 0.0
    assert d["offblock_leak"] == 0.0
    assert d["q_squared_fro"] > 0.0  # finite-difference defect, reported


def test_grid_system_positive(cs3_system):
    spectra = susy.sector_spectra(cs3_system, 2)
    for vals in spectra.values():
        assert vals[0] >= -1e-10


def test_epsilon_relation_reported(cs3_system):
    rep = susy.sector_sum_check(cs3_system, k=3, split_tol=0.45)
    eps = rep["epsilon_relation"]
    assert eps["checked"] > 0
    for case in eps["cases"]:
        # the index structure of the relation is exact; the degeneracy
        # residual is grid-limited and merely reported
        assert case["alignment_residual"] < 1e-10
        assert math.isfinite(case["partner_eigen_residual"])


# ---------------------------------------------------------------------------
# block-wise sector solve
# ---------------------------------------------------------------------------

def test_cm_momenta_order_and_blocks():
    assert susy.cm_momenta(1) == (0,)
    assert susy.cm_momenta(8) == susy.DEFAULT_CM_MOMENTA
    assert susy.cm_momenta(12)[8:] == (-4, 5, -5, 6)
    for bad in (0, -1):
        with pytest.raises(DomainError):
            susy.cm_momenta(bad)
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    s = susy.build_susy(model, GridSpec.line(0.0, math.pi, 16), "s1",
                        susy.cm_momenta(12))
    # one bosonic block per center-of-mass momentum
    assert connected_components(s.sector_matrix(0) != 0, directed=False)[0] == 12


def _reference_classify(sys_, zero_tol=1e-2, split_tol=1e-6, ops=None):
    """Dense per-cluster tagging on the embedded sector eigenvectors, kept as
    the reference for the cached block-wise classification.  ops = (Q, Q+, H)
    stands in for the system's matrices; each sector of that H is then
    solved whole.  Returns per sector (tags, counts, eigenvalues, |Q v|,
    |Q+ v|), norms NaN on zero modes, and the unsplit count."""
    q, qdag, ham = ops or (sys_.Q, sys_.Qdag, sys_.H)
    sectors, unsplit = {}, 0
    for f in range(sys_.model.n + 1):
        if ops is None:
            vals, vecs, ix = susy._sector_eigh(sys_, f)
        else:
            ix = sys_.sector_indices(f)
            vals, vecs = np.linalg.eigh(ham[ix][:, ix].toarray())
        full = np.zeros((sys_.dim, len(vals)), dtype=vecs.dtype)
        full[ix, :] = vecs
        tags = [None] * len(vals)
        qn, qdn = np.full(len(vals), np.nan), np.full(len(vals), np.nan)
        counts = {"ker_q": 0, "ker_qdag": 0, "zero": 0}
        for sl in susy._cluster_slices(vals):
            lam = float(vals[sl].mean())
            if lam < zero_tol:
                for t in range(sl.start, sl.stop):
                    tags[t] = "zero"
                    counts["zero"] += 1
                continue
            block = full[:, sl]
            gram = (q @ block).conj().T @ (q @ block)
            _, rot = np.linalg.eigh(gram)
            rotated = block @ rot
            rqn = qn[sl] = np.linalg.norm(q @ rotated, axis=0)
            rqdn = qdn[sl] = np.linalg.norm(qdag @ rotated, axis=0)
            for t in range(rotated.shape[1]):
                in_ker_q = rqn[t] <= split_tol * math.sqrt(lam)
                in_ker_qdag = rqdn[t] <= split_tol * math.sqrt(lam)
                if in_ker_q == in_ker_qdag:
                    unsplit += 1
                    tags[sl.start + t] = "unsplit"
                elif in_ker_q:
                    counts["ker_q"] += 1
                    tags[sl.start + t] = "ker_q"
                else:
                    counts["ker_qdag"] += 1
                    tags[sl.start + t] = "ker_qdag"
        sectors[f] = (tags, counts, vals, qn, qdn)
    return sectors, unsplit


_CS2 = ("calogero_sutherland", 1.0, math.pi)


@pytest.mark.parametrize("case", [
    (_CS2, "s1", (0,)), (_CS2, "s2", (0,)),
    (_CS2, "s1", (0, 1, -1)), (_CS2, "s2", (0, 1, -1)),
    (_CS2, "s1", susy.DEFAULT_CM_MOMENTA), (_CS2, "s2", susy.DEFAULT_CM_MOMENTA),
    (("calogero", 1.5, 8.0), "s1", susy.DEFAULT_CM_MOMENTA),
    "cs3_grid",
], ids=lambda c: c if isinstance(c, str) else f"{c[0][0]}-{c[1]}-{len(c[2])}cm")
def test_block_eigh_matches_dense(case):
    if case == "cs3_grid":
        model = make_nbody_model("calogero_sutherland", 3, 1.0)
        sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 8, 3, sector="ordered"),
                               "s1")
        expect_blocks = [1, 1, 1, 1]
    else:
        (kind, alpha, hi), variant, cm = case
        model = make_nbody_model(kind, 2, alpha)
        sys_ = susy.build_susy(model, GridSpec.line(0.0, hi, 32), variant, cm)
        # one block per momentum; the 1-fermion one splits by Fock state
        expect_blocks = [len(cm), 2 * len(cm), len(cm)]
    for f in range(model.n + 1):
        mat = sys_.sector_matrix(f)
        assert connected_components(mat != 0, directed=False)[0] == expect_blocks[f]
        vals, vecs, ix = susy._sector_eigh(sys_, f)
        assert np.array_equal(ix, sys_.sector_indices(f))
        dense = np.linalg.eigvalsh(mat.toarray())
        assert np.all(np.diff(vals) >= 0.0)
        assert np.max(np.abs(vals - dense) / np.maximum(1.0, np.abs(dense))) <= 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(vals)))) <= 1e-10
        assert np.max(np.linalg.norm(mat @ vecs - vecs * vals, axis=0)) <= 1e-10
    report = susy.kernel_classify(sys_)
    sectors, unsplit = _reference_classify(sys_)
    assert report["unsplit"] == unsplit
    for f, (tags, counts, _, _, _) in sectors.items():
        assert report["sectors"][f]["tags"] == tags
        assert report["sectors"][f]["counts"] == counts


# ---------------------------------------------------------------------------
# real arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", susy.VARIANTS)
@pytest.mark.parametrize("builder", ["two_body", "grid"])
def test_susy_systems_are_real(builder, variant):
    if builder == "two_body":
        model = make_nbody_model("calogero_sutherland", 2, 1.0)
        sys_ = susy.build_susy(model, GridSpec.line(0.0, math.pi, 16), variant, (0, 1, -1))
    else:
        model = make_nbody_model("calogero_sutherland", 3, 1.0)
        sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 8, 3, sector="ordered"),
                               variant)
    for mat in (sys_.Q, sys_.Qdag, sys_.H):
        assert mat.dtype == np.float64
    susy.kernel_classify(sys_)
    for f in range(model.n + 1):
        assert susy._sector_eigh(sys_, f)[1].dtype == np.float64
        assert susy._sector_charges(sys_, f)[1].dtype == np.float64


@pytest.mark.parametrize("case", [
    (_CS2, "s1", susy.DEFAULT_CM_MOMENTA), (_CS2, "s2", susy.DEFAULT_CM_MOMENTA),
    (("calogero", 1.5, 8.0), "s2", (0, 1, -1)),
], ids=lambda c: f"{c[0][0]}-{c[1]}-{len(c[2])}cm")
def test_real_gauge_matches_complex_reference(case):
    (kind, alpha, hi), variant, cm = case
    model = make_nbody_model(kind, 2, alpha)
    sys_ = susy.build_susy(model, GridSpec.line(0.0, hi, 32), variant, cm)
    # undo the gauge: U = diag(1, i, 1, i) over (|0>, |s>, |d>, |sd>) per momentum
    fock_state = np.concatenate([np.full(size, f) for _, f, _, size in sys_.blocks])
    u_gauge = sp.diags(np.where(np.isin(fock_state, (1, 3)), 1j, 1.0))
    q_c = (u_gauge @ sys_.Q @ u_gauge.conj().T).tocsr()
    qdag_c = q_c.conj().T.tocsr()
    h_c = (qdag_c @ q_c + q_c @ qdag_c).tocsr()
    # ... which restores the complex center-of-mass coefficient c = +-i k / 2
    c_sign = 1.0 if variant == "s1" else -1.0
    for ik, f, off, size in sys_.blocks:
        if f == 0:
            coeff = q_c[off:off + size, off + size:off + 2 * size].diagonal()
            assert np.array_equal(coeff, np.full(size, math.sqrt(2.0) * c_sign * 0.5j * cm[ik]))
    spectra = susy.sector_spectra(sys_)
    report = susy.kernel_classify(sys_)
    sectors, unsplit = _reference_classify(sys_, ops=(q_c, qdag_c, h_c))
    assert report["unsplit"] == unsplit
    for f, (tags, counts, vals, qn, qdn) in sectors.items():
        assert np.max(np.abs(spectra[f] - vals) / np.maximum(1.0, np.abs(vals))) <= 1e-10
        assert report["sectors"][f]["tags"] == tags
        assert report["sectors"][f]["counts"] == counts
        nonzero = ~np.isnan(qn)
        scale = np.sqrt(np.maximum(1.0, vals[nonzero]))
        for norms, ref in (("q_norms", qn), ("qdag_norms", qdn)):
            got = np.array(report["sectors"][f][norms])[nonzero]
            assert np.max(np.abs(got - ref[nonzero]) / scale) <= 1e-10


def test_staggered_ladder_matches_loop_stencil():
    # the per-row loop the vectorized stencil replaced, kept as its reference
    def loop_ladder(m_cells, length, w_fun, sign, to_nodes):
        h = length / m_cells
        if to_nodes:
            r_eval, shape = h * np.arange(1, m_cells), (m_cells - 1, m_cells)
            offsets = ((0, -27.0, 9.0), (1, 27.0, 9.0), (-1, 1.0, -1.0), (2, -1.0, -1.0))
        else:
            r_eval, shape = h * (np.arange(m_cells) + 0.5), (m_cells, m_cells - 1)
            offsets = ((-1, -27.0, 9.0), (0, 27.0, 9.0), (-2, 1.0, -1.0), (1, -1.0, -1.0))
        w = w_fun(r_eval)
        dense = np.zeros(shape)
        for row in range(shape[0]):
            for off, cd, ca in offsets:
                if 0 <= row + off < shape[1]:
                    dense[row, row + off] = sign * cd / (24.0 * h) + w[row] * ca / 16.0
        return dense

    for kind, alpha, hi in (_CS2, ("calogero", 1.5, 8.0)):
        model = make_nbody_model(kind, 2, alpha)
        for m_cells in (3, 4, 32):
            for sign in (1, -1):
                for to_nodes in (True, False):
                    got = susy._staggered_ladder(m_cells, hi, model.pair_w, sign, to_nodes)
                    ref = loop_ladder(m_cells, hi, model.pair_w, sign, to_nodes)
                    assert np.array_equal(got.toarray(), ref)


def test_offblock_leak_reports_a_cross_sector_entry():
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    sys_ = susy.build_susy(model, GridSpec.line(0.0, math.pi, 16), "s1", (0, 1))
    i, j = sys_.sector_indices(0)[3], sys_.sector_indices(1)[5]
    leak = sp.csr_matrix(([2.5e-9, -3.5e-9], ([i, j], [j, i])), shape=sys_.H.shape)
    sys_.H = sys_.H + leak
    assert sys_.offblock_leak() == 3.5e-9
