import math

import numpy as np
import pytest
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


def _reference_classify(sys_, zero_tol=1e-2, split_tol=1e-6):
    """Dense per-cluster tagging on the embedded sector eigenvectors, kept as
    the reference for the cached block-wise classification."""
    sectors, unsplit = {}, 0
    for f in range(sys_.model.n + 1):
        vals, vecs, ix = susy._sector_eigh(sys_, f)
        full = np.zeros((sys_.dim, len(vals)), dtype=complex)
        full[ix, :] = vecs
        tags = [None] * len(vals)
        counts = {"ker_q": 0, "ker_qdag": 0, "zero": 0}
        for sl in susy._cluster_slices(vals):
            lam = float(vals[sl].mean())
            if lam < zero_tol:
                for t in range(sl.start, sl.stop):
                    tags[t] = "zero"
                    counts["zero"] += 1
                continue
            block = full[:, sl]
            gram = (sys_.Q @ block).conj().T @ (sys_.Q @ block)
            _, rot = np.linalg.eigh(gram)
            rotated = block @ rot
            rqn = np.linalg.norm(sys_.Q @ rotated, axis=0)
            rqdn = np.linalg.norm(sys_.Qdag @ rotated, axis=0)
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
        sectors[f] = (tags, counts)
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
    for f, (tags, counts) in sectors.items():
        assert report["sectors"][f]["tags"] == tags
        assert report["sectors"][f]["counts"] == counts
