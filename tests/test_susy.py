import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from shapeinv import susy
from shapeinv.errors import ConvergenceError, DimensionCapError, DomainError
from shapeinv.models import make_nbody_model
from shapeinv.spectral import GridSpec
from test_spectral import FIRST, _restricted_axis_operators


@pytest.fixture(scope="module")
def cs_system():
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    grid = GridSpec.line(0.0, math.pi, 64)
    return susy.build_susy(model, grid, "s1")


def _sector_eigh(sys_, f):
    """(vals, vecs, ix) of sector f, with vecs the sector-wide eigenvector
    matrix in the order of vals, zero-padded from the block eigenpairs: the
    matrix the analysis never forms, assembled here as the reference."""
    eig = susy._sector_solve(sys_, f)
    vecs, first = np.zeros((len(eig.ix), len(eig.ix))), 0
    # momentum-major, then part by part
    for block_rows in zip(*(part.rows for part in eig.parts)):
        for rows, bvecs in zip(block_rows, eig.part_vecs):
            vecs[np.ix_(rows, np.arange(first, first + len(rows)))] = bvecs
            first += len(rows)
    return eig.vals, vecs[:, eig.order], eig.ix


# ---------------------------------------------------------------------------
# Fock space
# ---------------------------------------------------------------------------

def _spmax(mat) -> float:
    mat = mat.tocsr()
    return float(np.max(np.abs(mat.data))) if mat.nnz else 0.0


def _fock_annihilators(n_modes):
    """psi_i as sparse 2^N x 2^N matrices: bit i of the basis index is mode
    i, and psi_i carries the sign (-1)^(number of occupied modes below i)."""
    dim, ops = 1 << n_modes, []
    for i in range(n_modes):
        bit = 1 << i
        states = [s for s in range(dim) if s & bit]
        signs = [-1.0 if bin(s & (bit - 1)).count("1") % 2 else 1.0 for s in states]
        ops.append(sp.csr_matrix((signs, ([s ^ bit for s in states], states)),
                                 shape=(dim, dim)))
    return ops


def _anticommutator_defect(n_modes):
    """max |{psi_i, psi_j+} - delta_ij| + |{psi_i, psi_j}| over pairs."""
    worst = 0.0
    ops = _fock_annihilators(n_modes)
    eye = sp.identity(1 << n_modes, format="csr")
    for i, ai in enumerate(ops):
        for j, aj in enumerate(ops):
            cj = sp.csr_matrix(aj.T)
            anti = ai @ cj + cj @ ai - (eye if i == j else 0 * eye)
            worst = max(worst, _spmax(anti))
            worst = max(worst, _spmax(ai @ aj + aj @ ai))
    return worst


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_anticommutators_exact(n):
    assert _anticommutator_defect(n) == 0.0
    # the builders' string signs are those of the reference psi_i
    for i, op in enumerate(_fock_annihilators(n)):
        coo = op.tocoo()
        assert [susy._string_sign(s, i) for s in coo.col] == coo.data.tolist()


def test_fock_sector_sizes():
    assert [len(susy._sector_states(3, f)) for f in range(4)] == [1, 3, 3, 1]


def test_jordan_wigner_signs():
    a0, a1, _ = (op.toarray() for op in _fock_annihilators(3))
    # psi_1 acting on |bits 0,1> = |3>: one occupied mode below -> sign -1
    assert a1[1, 3] == -1.0
    # psi_0 on |3>: nothing below mode 0 -> +1
    assert a0[2, 3] == 1.0
    # ... and a grid system's Q blocks from |3> carry the same signs
    model = make_nbody_model("calogero_sutherland", 3, 1.0)
    sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 8, 3, sector="ordered"))
    q = sys_.q_blocks
    assert np.array_equal(q[1, 3], -q[0, 2]) and np.array_equal(q[2, 3], q[0, 1])


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
    _assert_h_is_the_reference_anticommutator(cs_system)


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
    vals, vecs, ix = _sector_eigh(cs_system, 2)
    _, hi, m_cells = cs_system.grid.axes[0]
    mids = hi / m_cells * (np.arange(m_cells) + 0.5)
    k0_zero = np.argmin(np.abs(vals))
    assert abs(vals[k0_zero]) < 1e-10
    vec = vecs[:, k0_zero]
    # sector 2 holds the one Fock state |sd> per momentum
    size = cs_system.sizes[3]
    k_index = list(cs_system.cm_momenta).index(0)
    chunk = np.real(vec[k_index * size:(k_index + 1) * size])
    chunk /= np.linalg.norm(chunk)
    # exact kernel of the discrete ladder (Q's |0>-|d> block, sqrt(2) X) ...
    assert np.linalg.norm(cs_system.q_blocks[0, 2][k_index] @ chunk) < 1e-10
    # ... approximating the continuum pair state at stencil order
    ref = np.abs(np.sin(mids))
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(np.abs(chunk) - ref)) < 1e-3


def _expected_sums(sys_, f, target, states):
    """Component sums of the sector-f columns of `states`, written out apart
    from `susy._component_sum`: the |s> (target 0) or |d> pieces of a
    two-body vector in block order, and <target| sum_i psi_i (or psi_i+)
    per node on a grid, from the reference Fock operators."""
    if sys_.cm_momenta is not None:
        # per momentum, sector 1 holds |s> then |d>
        u, _, m_cells, _ = sys_.sizes
        per_k = states.reshape(len(sys_.cm_momenta), u + m_cells, -1)
        return (per_k[:, :u] if target == 0 else per_k[:, u:]).reshape(-1, states.shape[1])
    ops = _fock_annihilators(sys_.model.n)
    if target > f:
        ops = [op.T for op in ops]
    full = np.zeros((sys_.dim, states.shape[1]))
    full[sys_.sector_indices(f)] = states
    # the grid layout is Fock state-major: psi_i acts as psi_i (x) 1
    summed = sp.kron(sum(ops), sp.identity(sys_.sizes[0])) @ full
    return summed[sys_.sector_indices(target)]


@pytest.mark.parametrize("case", ["cs-s1", "cs-s2", "calogero-s1", "cs3_grid-s1"])
def test_sector_sum_classification(case):
    kind, variant = case.split("-")
    kw = {}
    if kind == "cs3_grid":
        model = make_nbody_model("calogero_sutherland", 3, 1.0)
        sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 8, 3, sector="ordered"),
                               variant)
        kw = {"k": 3, "split_tol": 0.45}
    elif kind == "cs":
        sys_ = _two_body(*_CS2, variant, susy.DEFAULT_CM_MOMENTA, m=64)
    else:
        sys_ = _two_body("calogero", 1.5, 8.0, variant, (0, 1, -1))
    rep = susy.sector_sum_check(sys_, **kw)
    tags = susy.kernel_classify(sys_, split_tol=kw.get("split_tol", 1e-6))["sectors"]
    n = sys_.model.n
    for key, f, tag, target in (("one_fermion", 1, "ker_q", 0),
                                ("n_minus_one", n - 1, "ker_qdag", n)):
        vals = susy._sector_solve(sys_, f).vals
        picked = [t for t, tg in enumerate(tags[f]["tags"])
                  if tg == tag and vals[t] > 1e-2][:kw.get("k", 6)]
        cases = rep[key]
        assert len(cases) == len(picked) > 0
        summed = _expected_sums(sys_, f, target, susy._rotated_states(sys_, f, picked))
        h_target = _reference_sector(sys_, target)
        for case_, t, phi in zip(cases, picked, summed.T):
            lam = vals[t]
            assert case_["lambda"] == lam
            norm = np.linalg.norm(phi)
            if norm < 1e-6:
                assert case_["class"] == "vanishing"
                assert abs(case_["residual"] - norm) <= 1e-12
                continue
            resid = np.linalg.norm(h_target @ phi - lam * phi) / (norm * max(1.0, lam))
            assert abs(case_["residual"] - resid) <= 1e-12
            assert case_["class"] == ("degenerate" if resid < 1e-6 else "unexplained")
        if kind != "cs3_grid":
            # two-body sums vanish or solve the target block
            assert {c["class"] for c in cases} <= {"vanishing", "degenerate"}


def test_sum_checks_run_on_numpy_alone():
    # a fresh interpreter: the checks apply H's declared blocks, never the
    # sparse H, and an N = 3 grid fills its ladders from the stencil table
    script = """
import math, sys
from shapeinv import susy
from shapeinv.models import make_nbody_model
from shapeinv.spectral import GridSpec

two_body = susy.build_susy(make_nbody_model("calogero_sutherland", 2, 1.0),
                           GridSpec.line(0.0, math.pi, 32), "s1", susy.cm_momenta(3))
grid = susy.build_susy(make_nbody_model("calogero_sutherland", 3, 1.0),
                       GridSpec.box(0.0, math.pi, 10, 3, sector="ordered"), "s1")
rep = susy.sector_sum_check(two_body, k=3)
assert rep["one_fermion"] and rep["n_minus_one"]
rep = susy.sector_sum_check(grid, k=3, split_tol=0.45)
assert rep["epsilon_relation"]["checked"] > 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = str(Path(susy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_sum_check_inspects_the_tagged_states(cs_system):
    # the sum checks read the cluster-rotated states the tags describe
    rep = susy.kernel_classify(cs_system)
    vals, _, ix = _sector_eigh(cs_system, 1)
    rotated = susy._rotated_states(cs_system, 1, np.arange(len(vals)))
    q, qdag, _ = _reference_ops(cs_system)
    qn = np.linalg.norm(q[:, ix] @ rotated, axis=0)
    qdn = np.linalg.norm(qdag[:, ix] @ rotated, axis=0)
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
    # two-body momenta are a nonempty 1-D sequence of distinct finite numbers
    for cm in ((0, 0), (0, 1, -1, 1), None, 3, (), [[0, 1]], ("a",), (0, math.nan)):
        with pytest.raises(DomainError, match="distinct"):
            susy.build_susy(model, GridSpec.line(0.0, math.pi, 16), "s1", cm)


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


def test_epsilon_relation_aligns_for_s2():
    # s2 pairs psi_j with the transposed ladder, and so does its relation
    model = make_nbody_model("calogero_sutherland", 3, 1.0)
    sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 10, 3, sector="ordered"), "s2")
    eps = susy.sector_sum_check(sys_, k=3, split_tol=0.45)["epsilon_relation"]
    assert eps["checked"] > 0
    assert max(case["alignment_residual"] for case in eps["cases"]) < 1e-10


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
    assert connected_components(_reference_sector(s, 0) != 0, directed=False)[0] == 12


def _reference_cluster_slices(vals, rel=1e-8):
    """The start-anchored cluster rule as a loop over float64 entries, kept as
    the reference for `susy._cluster_starts`."""
    slices, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or abs(vals[i] - vals[start]) > rel * max(1.0, abs(vals[start])):
            slices.append(slice(start, i))
            start = i
    return slices


def test_cluster_starts_match_reference_rule():
    # clustered ascending values whose in-cluster spreads straddle the
    # threshold rel * max(1, |first|), on both sides of |first| = 1
    rng = np.random.default_rng(7)
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-3, 3)
        levels = np.sort(rng.uniform(-1, 1, rng.integers(1, 12)) * scale)
        size = rng.integers(1, 5, len(levels))
        spread = rng.uniform(0.0, 2.0, size.sum()) * 1e-8 * np.maximum(
            1.0, np.abs(np.repeat(levels, size)))
        vals = np.sort(np.repeat(levels, size) + spread)
        expected = [sl.start for sl in _reference_cluster_slices(vals)]
        assert susy._cluster_starts(vals).tolist() == expected
    assert susy._cluster_starts(np.array([])).tolist() == []


def _reference_classify(sys_, zero_tol=1e-2, split_tol=1e-6, ops=None):
    """Dense per-cluster tagging on the embedded sector eigenvectors, kept as
    the reference for the cached block-wise classification.  ops = (Q, Q+, H)
    stands in for the system's matrices; each sector of that H is then
    solved whole.  Returns per sector (tags, counts, eigenvalues, |Q v|,
    |Q+ v|), norms NaN on zero modes, and the unsplit count."""
    q, qdag, ham = ops or _reference_ops(sys_)
    sectors, unsplit = {}, 0
    for f in range(sys_.model.n + 1):
        if ops is None:
            vals, vecs, ix = _sector_eigh(sys_, f)
        else:
            ix = sys_.sector_indices(f)
            vals, vecs = np.linalg.eigh(ham[ix][:, ix].toarray())
        full = np.zeros((sys_.dim, len(vals)), dtype=vecs.dtype)
        full[ix, :] = vecs
        tags = [None] * len(vals)
        qn, qdn = np.full(len(vals), np.nan), np.full(len(vals), np.nan)
        counts = {"ker_q": 0, "ker_qdag": 0, "zero": 0}
        for sl in _reference_cluster_slices(vals):
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
        mat = _reference_sector(sys_, f)
        assert connected_components(mat != 0, directed=False)[0] == expect_blocks[f]
        vals, vecs, ix = _sector_eigh(sys_, f)
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
    held = [sys_.cm_coeff, sys_.H, *sys_.q_blocks.values(), *sys_.h_blocks.values(),
            *sys_.h_relative.values()]
    for mat in held:
        assert mat.dtype == np.float64
    susy.kernel_classify(sys_)
    for f in range(model.n + 1):
        vals, vecs, _ = _sector_eigh(sys_, f)
        assert vecs.dtype == np.float64
        assert susy._rotated_states(sys_, f, np.arange(len(vals))).dtype == np.float64


@pytest.mark.parametrize("case", [
    (_CS2, "s1", susy.DEFAULT_CM_MOMENTA), (_CS2, "s2", susy.DEFAULT_CM_MOMENTA),
    (("calogero", 1.5, 8.0), "s2", (0, 1, -1)),
], ids=lambda c: f"{c[0][0]}-{c[1]}-{len(c[2])}cm")
def test_real_gauge_matches_complex_reference(case):
    (kind, alpha, hi), variant, cm = case
    model = make_nbody_model(kind, 2, alpha)
    sys_ = susy.build_susy(model, GridSpec.line(0.0, hi, 32), variant, cm)
    # undo the gauge: U = diag(1, i, 1, i) over (|0>, |s>, |d>, |sd>) per momentum
    fock_state = np.tile(np.repeat(np.arange(4), sys_.sizes), len(cm))
    u_gauge = sp.diags(np.where(np.isin(fock_state, (1, 3)), 1j, 1.0))
    q_c = (u_gauge @ _kron_two_body_q(sys_) @ u_gauge.conj().T).tocsr()
    qdag_c = q_c.conj().T.tocsr()
    h_c = (qdag_c @ q_c + q_c @ qdag_c).tocsr()
    # ... which restores the complex center-of-mass coefficient c = +-i k / 2
    c_sign = 1.0 if variant == "s1" else -1.0
    size = sys_.sizes[0]
    for ik in range(len(cm)):
        off = ik * sum(sys_.sizes)
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
    def loop_ladder(m_cells, length, w_fun, to_nodes):
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
                    dense[row, row + off] = cd / (24.0 * h) + w[row] * ca / 16.0
        return dense

    for kind, alpha, hi in (_CS2, ("calogero", 1.5, 8.0)):
        model = make_nbody_model(kind, 2, alpha)
        for m_cells in (3, 4, 32):
            for to_nodes in (True, False):
                got = susy._staggered_ladder(m_cells, hi, model.pair_w, to_nodes)
                ref = loop_ladder(m_cells, hi, model.pair_w, to_nodes)
                assert np.array_equal(got, ref)


def test_offblock_leak_reports_a_cross_sector_entry():
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    sys_ = susy.build_susy(model, GridSpec.line(0.0, math.pi, 16), "s1", (0, 1))
    # the analysis reads H's Fock blocks: entries (3, 5) and (5, 3) of the
    # (|0>, |s>) and (|s>, |0>) blocks at the first momentum, which join
    # entry 3 of sector 0 and entry 5 of sector 1
    u = sys_.sizes[0]
    to_s, to_0 = np.zeros((2, u, u)), np.zeros((2, u, u))
    to_s[0, 3, 5], to_0[0, 5, 3] = 2.5e-9, -3.5e-9
    sys_.h_blocks[0, 1], sys_.h_blocks[1, 0] = to_s, to_0
    assert sys_.offblock_leak() == 3.5e-9


def test_grid_cap_is_checked_at_build():
    # the 1-fermion sector of CS N = 3 at m = 24 holds 3 * 1771 = 5313 states,
    # above the dense cap, so no block is formed
    model = make_nbody_model("calogero_sutherland", 3, 1.0)
    with pytest.raises(DimensionCapError, match="sector 1 dimension 5313"):
        susy.build_susy(model, GridSpec.box(0.0, math.pi, 24, 3, sector="ordered"))


def test_offblock_leak_reports_a_cross_sector_entry_on_a_grid():
    model = make_nbody_model("calogero_sutherland", 3, 1.0)
    sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 8, 3, sector="ordered"))
    assert sys_.offblock_leak() == 0.0
    # the analysis reads H's Fock blocks: entries (3, 5) and (5, 3) of the
    # (|0>, |1>) and (|1>, |0>) blocks, which join node 3 of sector 0 and
    # node 5 of the state holding mode 0 alone
    n_nodes = sys_.sizes[0]
    to_1, to_0 = np.zeros((1, n_nodes, n_nodes)), np.zeros((1, n_nodes, n_nodes))
    to_1[0, 3, 5], to_0[0, 5, 3] = 2.5e-9, -3.5e-9
    sys_.h_blocks[0, 1], sys_.h_blocks[1, 0] = to_1, to_0
    assert sys_.offblock_leak() == 3.5e-9


# ---------------------------------------------------------------------------
# the sparse two-body reference and work on first read
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _kron_two_body_q(sys_):
    """The sparse two-body Q, the reference for every test that reads one:
    fixed center-of-mass and relative Fock layouts, their Kronecker
    products with the momentum space, concatenated, not summed.  The k = 0
    entries of c are stored zeros."""
    xs = sys_.q_blocks[0, 2][0]
    u, m_cells = xs.shape
    kvals = np.asarray(sys_.cm_momenta, dtype=float)
    c_over_k = -0.5 if sys_.variant == "s1" else 0.5
    sizes = (u, u, m_cells, m_cells)
    dim = len(kvals) * sum(sizes)

    def fock_layout(entries):
        # zero diagonal blocks fix every block row and column size
        return sp.bmat([[entries.get((r, col), sp.csr_matrix((sizes[r], sizes[col]))
                                     if r == col else None)
                         for col in range(4)] for r in range(4)])

    root2 = math.sqrt(2.0)
    cm_block = fock_layout({(0, 1): root2 * sp.identity(u),
                            (2, 3): root2 * sp.identity(m_cells)})
    x_block = fock_layout({(0, 2): xs, (1, 3): -xs})
    k_ix = np.arange(len(kvals))
    cm_part = sp.kron(sp.coo_matrix((c_over_k * kvals, (k_ix, k_ix))), cm_block, format="coo")
    x_part = sp.kron(sp.identity(len(kvals)), x_block, format="coo")
    return sp.csr_matrix(sp.coo_matrix(
        (np.r_[cm_part.data, x_part.data],
         (np.r_[cm_part.row, x_part.row], np.r_[cm_part.col, x_part.col])), shape=(dim, dim)))


def _kron_grid_q(sys_, stencil_order=4):
    """The sparse grid Q, the reference for every grid test that reads one:
    the square ladders D_i + W_i from the dense Kronecker stencils that
    test_spectral restricts to the sector, and Q = sum_i psi_i (x) A_i with
    A_i the ladder (s1) or its transpose (s2), in the Fock state-major
    layout the builder declares."""
    model, grid = sys_.model, sys_.grid
    base = model if sys_.variant == "s1" else model.shifted(1.0)
    ops, nodes = _restricted_axis_operators(grid, FIRST[stencil_order], 1)
    w_all = base.prepotential(nodes)
    ladders = [sp.csr_matrix(d + np.diag(w_all[:, axis])) for axis, d in enumerate(ops)]
    q = sp.csr_matrix((sys_.dim, sys_.dim))
    for ladder, psi in zip(ladders, _fock_annihilators(model.n)):
        lowering = ladder if sys_.variant == "s1" else sp.csr_matrix(ladder.T)
        q = q + sp.kron(psi, lowering, format="csr")
    return q


def _reference_ops(sys_):
    """(Q, Q+, H), sparse: those of the kron reference of the system's
    builder, with H = Q+Q + QQ+."""
    q = _kron_two_body_q(sys_) if sys_.cm_momenta is not None else _kron_grid_q(sys_)
    qdag = sp.csr_matrix(q.T)
    return q, qdag, (qdag @ q + q @ qdag).tocsr()


def _reference_sector(sys_, f):
    """The sector-f diagonal block of the reference H, sparse."""
    ix = sys_.sector_indices(f)
    return _reference_ops(sys_)[2][ix][:, ix]


def _assert_h_is_the_reference_anticommutator(sys_):
    """The system's sparse H against the reference Q+Q + QQ+: the same
    pattern, and every entry within 4 ulp of max |H|."""
    ham, ref = sys_.H.sorted_indices(), _reference_ops(sys_)[2].sorted_indices()
    assert ham.shape == ref.shape
    assert np.array_equal(ham.indptr, ref.indptr)
    assert np.array_equal(ham.indices, ref.indices)
    assert np.max(np.abs(ham.data - ref.data)) <= 4 * EPS * np.max(np.abs(ref.data))


_HARMONIC2 = ("harmonic_calogero", 1.0, 8.0)


@pytest.mark.parametrize("variant", susy.VARIANTS)
@pytest.mark.parametrize("n,m", [(2, 10), (3, 8), (3, 12)], ids=lambda v: str(v))
def test_grid_blocks_match_kron_assembly(n, m, variant):
    # Q's declared blocks placed at their offsets are the kron reference Q
    # exactly, H is its Q+Q + QQ+ to 4 ulp, and the sector spectra are the
    # reference's to 1e-12 relative
    model = make_nbody_model("calogero_sutherland", n, 1.0)
    sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, m, n, sector="ordered"), variant)
    ref = _kron_grid_q(sys_).toarray()
    q = np.zeros((sys_.dim, sys_.dim))
    starts = np.cumsum((0, *sys_.sizes))
    for (a, b), blk in sys_.q_blocks.items():
        q[starts[a]:starts[a + 1], starts[b]:starts[b + 1]] = blk[0]
    assert np.array_equal(q, ref)
    _assert_h_is_the_reference_anticommutator(sys_)
    for f, vals in susy.sector_spectra(sys_).items():
        dense = np.linalg.eigvalsh(_reference_sector(sys_, f).toarray())
        assert np.max(np.abs(vals - dense) / np.maximum(1.0, np.abs(dense))) <= 1e-12


def _two_body(kind, alpha, hi, variant, cm, m=32):
    omega = 1.0 if kind == "harmonic_calogero" else None
    model = make_nbody_model(kind, 2, alpha, omega=omega)
    return susy.build_susy(model, GridSpec.line(0.0, hi, m), variant, cm)


@pytest.mark.parametrize("cm", [(0,), (0, 1, -1), susy.DEFAULT_CM_MOMENTA],
                         ids=lambda cm: f"{len(cm)}cm")
@pytest.mark.parametrize("variant", susy.VARIANTS)
@pytest.mark.parametrize("kind", [_CS2, ("calogero", 1.5, 8.0), _HARMONIC2],
                         ids=lambda kind: kind[0])
def test_index_built_q_matches_kron_assembly(kind, variant, cm):
    # the index layout the builder declares carries the kron reference: its
    # Q lowers the fermion number by one, and the H placed from the
    # declared blocks at their offsets is its Q+Q + QQ+
    sys_ = _two_body(*kind, variant, cm)
    q = _kron_two_body_q(sys_).tocoo()
    assert np.array_equal(sys_.fermion_of[q.col] - sys_.fermion_of[q.row], np.ones(q.nnz))
    _assert_h_is_the_reference_anticommutator(sys_)


@pytest.mark.parametrize("case", [
    *((kind, variant, cm) for kind in (_CS2, ("calogero", 1.5, 8.0), _HARMONIC2)
      for variant in susy.VARIANTS
      for cm in ((0,), (0, 1, -1), susy.DEFAULT_CM_MOMENTA)),
    *(("cs3_grid", variant, None) for variant in susy.VARIANTS),
], ids=lambda c: f"cs3_grid-{c[1]}" if c[0] == "cs3_grid" else f"{c[0][0]}-{c[1]}-{len(c[2])}cm")
def test_declared_blocks_are_the_connected_components(case):
    kind, variant, cm = case
    if kind == "cs3_grid":
        model = make_nbody_model("calogero_sutherland", 3, 1.0)
        sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 8, 3, sector="ordered"),
                               variant)
    else:
        sys_ = _two_body(*kind, variant, cm)
    for f in range(sys_.model.n + 1):
        mat = _reference_sector(sys_, f)
        n_blocks, labels = connected_components(mat != 0, directed=False)
        parts = [(part, *susy._part_blocks(sys_, part)) for part in susy._sector_parts(sys_, f)]
        blocks = sorted(((rows, block) for part, part_blocks, _ in parts
                         for rows, block in zip(part.rows, part_blocks)),
                        key=lambda entry: entry[0][0])
        assert len(blocks) == n_blocks
        dense = mat.toarray()
        for b, (rows, block) in enumerate(blocks):
            assert np.array_equal(rows, np.flatnonzero(labels == b))
            # ... holding the entries of the reference H, to roundoff
            gap = np.max(np.abs(block - dense[np.ix_(rows, rows)]))
            assert gap <= 4 * EPS * np.max(np.abs(block))
        # each block is its part's relative matrix plus its shift, to roundoff
        for part, part_blocks, relative in parts:
            eye = np.eye(len(relative))
            for block, shift in zip(part_blocks, part.shifts):
                gap = np.max(np.abs(block - (relative + shift * eye)))
                assert gap <= 4 * EPS * np.max(np.abs(block))


@pytest.mark.parametrize("variant", susy.VARIANTS)
def test_sector_eigh_solves_each_distinct_block_once(monkeypatch, variant):
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    for cm in ((0,), (0, 1, -1), susy.DEFAULT_CM_MOMENTA, (2, -3)):
        sys_ = _two_body(*_CS2, variant, cm)
        u, _, m_cells, _ = sys_.sizes
        # every block is G + c_k^2 I or G2 + c_k^2 I: one eigh of each
        # serves all three sectors and every momentum
        calls.clear()
        spectra = [_sector_eigh(sys_, f) for f in range(3)]
        assert calls == [(u, u), (m_cells, m_cells)]
        for f, (vals, vecs, ix) in enumerate(spectra):
            # ... with the eigenvalues of solving every block, to roundoff
            mat = _reference_sector(sys_, f)
            labels = connected_components(mat != 0, directed=False)[1]
            dense = mat.toarray()
            every = np.sort(np.concatenate([
                eigh(dense[np.ix_(rows, rows)])[0]
                for rows in (np.flatnonzero(labels == b) for b in range(labels.max() + 1))]))
            assert np.all(np.diff(vals) >= 0.0)
            assert np.max(np.abs(vals - every) / np.maximum(1.0, np.abs(every))) <= 1e-12
            assert np.max(np.linalg.norm(mat @ vecs - vecs * vals, axis=0)) <= 1e-10


def test_sector_solve_checks_the_declared_blocks():
    sys_ = _two_body(*_CS2, "s1", (0, 1, -1))
    # the |d> block of momentum 1 leaves G2 + c_k^2 I by 1e-6 per entry
    bumped = sys_.h_blocks[2, 2].copy()
    bumped[1] += 1e-6
    sys_.h_blocks[2, 2] = bumped
    susy._sector_solve(sys_, 0)    # sector 0 holds no |d> block
    with pytest.raises(ConvergenceError) as err:
        susy.sector_spectra(sys_)
    resid = err.value.residuals
    norms = np.abs(bumped).sum(axis=2).max(axis=1)
    assert resid.shape == (3, bumped.shape[1])
    assert np.max(resid[1]) > susy.RESIDUAL_CONTRACT * norms[1]
    assert np.max(resid[[0, 2]]) <= 1e-12 * np.max(norms)


# ---------------------------------------------------------------------------
# mirror-parity sector solve
# ---------------------------------------------------------------------------

# ((kind, alpha, box), N, m) of the ordered grids the mirror tests run; at
# even m each axis has a middle node (m - 1 interior nodes)
_MIRROR_GRIDS = [((kind, alpha, box), n, m)
                 for kind, alpha, box, n in (("calogero_sutherland", 1.0, (0.0, math.pi), 3),
                                             ("calogero", 2.0, (-3.0, 3.0), 3),
                                             ("harmonic_calogero", 2.0, (-3.0, 3.0), 3),
                                             ("calogero_sutherland", 1.0, (0.0, math.pi), 4))
                 for m in (8, 9)]


def _mirror_grid(case, variant):
    (kind, alpha, (lo, hi)), n, m = case
    omega = 1.0 if kind == "harmonic_calogero" else None
    model = make_nbody_model(kind, n, alpha, omega=omega)
    return susy.build_susy(model, GridSpec.box(lo, hi, m, n, sector="ordered"), variant)


def _mirror_id(case):
    return f"{case[0][0]}-n{case[1]}-m{case[2]}"


@pytest.mark.parametrize("variant", susy.VARIANTS)
@pytest.mark.parametrize("case", _MIRROR_GRIDS, ids=_mirror_id)
def test_mirror_split_matches_whole_sector_eigh(case, variant):
    # the parity blocks give the whole sector's eigenvalues, and the
    # classification of solving every sector whole
    sys_ = _mirror_grid(case, variant)
    spectra = susy.sector_spectra(sys_)
    for f, vals in spectra.items():
        [part] = susy._sector_parts(sys_, f)
        whole = np.linalg.eigvalsh(susy._part_blocks(sys_, part)[1])
        assert np.max(np.abs(vals - whole) / np.maximum(1.0, np.abs(whole))) <= 1e-12
    report = susy.kernel_classify(sys_)
    sectors, unsplit = _reference_classify(sys_, ops=_reference_ops(sys_))
    assert report["unsplit"] == unsplit
    for f, (tags, counts, vals, qn, qdn) in sectors.items():
        assert report["sectors"][f]["tags"] == tags
        assert report["sectors"][f]["counts"] == counts
        nonzero = ~np.isnan(qn)
        scale = np.sqrt(np.maximum(1.0, vals[nonzero]))
        for norms, ref in (("q_norms", qn), ("qdag_norms", qdn)):
            got = np.array(report["sectors"][f][norms])[nonzero]
            assert np.max(np.abs(got - ref[nonzero]) / scale, initial=0.0) <= 1e-10


@pytest.mark.parametrize("variant", susy.VARIANTS)
@pytest.mark.parametrize("case", _MIRROR_GRIDS, ids=_mirror_id)
def test_declared_mirror_is_a_symmetry_of_every_grid_sector(case, variant):
    sys_ = _mirror_grid(case, variant)
    for f in range(sys_.model.n + 1):
        [part] = susy._sector_parts(sys_, f)
        mirror, (blocks, _) = sys_.mirrors[part.key], susy._part_blocks(sys_, part)
        assert np.array_equal(mirror[mirror], np.arange(len(mirror)))
        for block in blocks:
            gap = np.max(np.abs(block[mirror][:, mirror] - block))
            assert gap <= 1e-14 * np.max(np.abs(block))
    if sys_.model.n == 3:
        # sector 0 holds the empty state alone, so its mirror is the nodes';
        # the middle particle is fixed only on a middle node
        node_mirror = sys_.mirrors[susy._sector_parts(sys_, 0)[0].key]
        assert (node_mirror == np.arange(len(node_mirror))).any() == (case[2] % 2 == 0)
    # a wrong mirror, still an involution, fails the residual gate: it
    # pairs rows the symmetry pairs with others
    key = susy._sector_parts(sys_, 1)[0].key
    wrong = sys_.mirrors[key].copy()
    a, b = np.flatnonzero(wrong > np.arange(len(wrong)))[:2]
    wrong[[a, b, wrong[a], wrong[b]]] = [b, a, wrong[b], wrong[a]]
    assert np.array_equal(wrong[wrong], np.arange(len(wrong)))
    sys_.mirrors[key] = wrong
    with pytest.raises(ConvergenceError):
        susy._sector_solve(sys_, 1)


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_grids_of_unequal_axes_declare_the_identity(bc):
    # alpha = 1 (g = 0) takes the full box, and disjoint axes keep every
    # node off the coincidence walls
    model = make_nbody_model("calogero", 2, 1.0)
    sys_ = susy.build_susy(model, GridSpec(((0.0, 1.0, 8), (2.0, 3.0, 9)), bc), "s1")
    for f in range(3):
        [part] = susy._sector_parts(sys_, f)
        assert np.array_equal(sys_.mirrors[part.key], np.arange(len(part.rows[0])))
        vals = susy._sector_solve(sys_, f).vals
        whole = np.linalg.eigvalsh(susy._part_blocks(sys_, part)[1])
        assert np.max(np.abs(vals - whole) / np.maximum(1.0, np.abs(whole))) <= 1e-12


@pytest.mark.parametrize("variant", susy.VARIANTS)
@pytest.mark.parametrize("kind", [_CS2, ("calogero", 1.5, 8.0), _HARMONIC2],
                         ids=lambda kind: kind[0])
def test_two_body_relative_eig_is_eigh_bit_for_bit(kind, variant):
    # a two-body system declares the identity, whose even block is the
    # whole relative matrix
    sys_ = _two_body(*kind, variant, susy.DEFAULT_CM_MOMENTA)
    susy.sector_spectra(sys_)
    assert sorted(sys_._relative_eig) == ["G", "G2"]
    for key, (vals, vecs) in sys_._relative_eig.items():
        ref_vals, ref_vecs = np.linalg.eigh(sys_.h_relative[key])
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)


def test_grid_analysis_keeps_no_copy_of_the_blocks():
    model = make_nbody_model("calogero_sutherland", 3, 1.0)
    sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 10, 3, sector="ordered"), "s1")
    susy.kernel_classify(sys_)
    susy.sector_sum_check(sys_, k=3, split_tol=0.45)
    assert sorted(sys_._sector_eig) == [0, 1, 2, 3]
    for eig in sys_._sector_eig.values():
        # beside the eigenvectors, nothing it keeps is sector-wide squared
        held = [eig.vals, eig.order, eig.ix,
                *(field for part in eig.parts for field in part if isinstance(field, np.ndarray))]
        assert max(a.size for a in held) == len(eig.ix)


@pytest.mark.parametrize("cm", [(0,), (0, 1, -1), susy.DEFAULT_CM_MOMENTA],
                         ids=lambda cm: f"{len(cm)}cm")
@pytest.mark.parametrize("variant", susy.VARIANTS)
@pytest.mark.parametrize("kind", [_CS2, ("calogero", 1.5, 8.0), _HARMONIC2],
                         ids=lambda kind: kind[0])
def test_charge_products_once_equal_the_stacked_products(kind, variant, cm):
    # the products formed once and broadcast over the momenta, against the
    # reference Q v and Q+ v of each momentum's block eigenvectors
    sys_ = _two_body(*kind, variant, cm)
    q, qdag, _ = _reference_ops(sys_)
    for f in range(3):
        eig = susy._sector_solve(sys_, f)
        got = susy._charge_products(sys_, f, eig)
        for ik in range(len(cm)):
            rows = np.concatenate([part.rows[ik] for part in eig.parts])
            vecs = np.zeros((len(rows), len(rows)))
            first = 0
            for bvecs in eig.part_vecs:
                vecs[first:first + len(bvecs), first:first + len(bvecs)] = bvecs
                first += len(bvecs)
            for arr, op in zip(got, (q, qdag)):
                cols = op[:, eig.ix[rows]]
                ref = cols[np.flatnonzero(cols.getnnz(axis=1))] @ vecs
                assert arr[ik].shape == ref.shape
                scale = max(1.0, np.max(np.abs(ref), initial=0.0))
                assert np.max(np.abs(arr[ik] - ref), initial=0.0) <= 4 * EPS * scale


def _reference_diagnostics(sys_):
    """The formulas of the diagnostics on the sparse Q and H of
    `_reference_ops`."""
    q, _, ham = _reference_ops(sys_)
    q2 = q @ q
    coo = ham.tocoo()
    cross = coo.data[sys_.fermion_of[coo.row] != sys_.fermion_of[coo.col]]
    out = {"q_squared_fro": float(np.sqrt(np.sum(np.abs(q2.data) ** 2)) if q2.nnz else 0.0),
           "hermiticity_defect": _spmax(ham - ham.T),
           "offblock_leak": float(np.max(np.abs(cross))) if cross.size else 0.0}
    hq = ham @ q - q @ ham
    scale = max(1.0, _spmax(ham)) * max(1.0, _spmax(q))
    out["h_q_commutator"] = _spmax(hq) / scale
    return out


def _assert_diagnostics_match_reference(sys_):
    """The diagnostics, from the declared blocks, equal the formulas on the
    reference: exactly in the hermiticity defect and the off-block leak, up
    to 1e-15 in [H, Q], and up to 1e-12 relative in ||Q^2|| (exactly 0 on
    a two-body system)."""
    got, want = sys_.diagnostics, _reference_diagnostics(sys_)
    assert list(got) == list(want)
    for key in ("hermiticity_defect", "offblock_leak"):
        assert got[key] == want[key]
    assert abs(got["q_squared_fro"] - want["q_squared_fro"]) <= 1e-12 * want["q_squared_fro"]
    assert abs(got["h_q_commutator"] - want["h_q_commutator"]) <= 1e-15


def test_variant_comparison_reads_eigenvalues_only(monkeypatch):
    built = []
    build = susy.build_susy

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def no_rotation(sys_, f, positions):
        raise AssertionError("rotated states built")

    monkeypatch.setattr(susy, "build_susy", recording_build)
    monkeypatch.setattr(susy, "_rotated_states", no_rotation)
    model = make_nbody_model("calogero_sutherland", 2, 1.0)
    susy.variant_comparison(model, GridSpec.line(0.0, math.pi, 32))
    assert [s.variant for s in built] == ["s1", "s2"]
    for sys_ in built:
        assert "diagnostics" not in vars(sys_)
        assert sys_._charges == {}
        assert sorted(sys_._sector_eig) == [0, 1, 2]
        for eig in sys_._sector_eig.values():
            assert "vecs" not in vars(eig) and eig.part_vecs
        # read later, the diagnostics are those of the reference operators
        _assert_diagnostics_match_reference(sys_)


@pytest.mark.parametrize("builder", ["two_body", "grid"])
def test_diagnostics_on_first_read_equal_eager(monkeypatch, builder):
    if builder == "two_body":
        sys_ = _two_body(*_HARMONIC2, "s2", (0, 1, -1))
    else:
        model = make_nbody_model("calogero_sutherland", 3, 1.0)
        sys_ = susy.build_susy(model, GridSpec.box(0.0, math.pi, 8, 3, sector="ordered"))
    rotations = []
    rotated_states = susy._rotated_states
    monkeypatch.setattr(susy, "_rotated_states",
                        lambda s, f, t: rotations.append(f) or rotated_states(s, f, t))
    susy.pairing_check(sys_)
    # tags and pairing read charge norms, never the rotated states
    assert rotations == [] and "diagnostics" not in vars(sys_)
    assert all("vecs" not in vars(eig) for eig in sys_._sector_eig.values())
    _assert_diagnostics_match_reference(sys_)
    susy.sector_sum_check(sys_, k=2)
    assert rotations
    # the analysis and the diagnostics read the declared blocks, never H
    assert "H" not in vars(sys_)


# ---------------------------------------------------------------------------
# per-momentum classification against the sector-wide rotation
# ---------------------------------------------------------------------------

def _sector_wide_charges(sys_, f):
    """The sector-wide classification the per-momentum one replaced, kept as
    its reference: Q v and Q+ v of the sector-wide eigenvector matrix, zero
    rows included, and each degenerate cluster rotated by the eigh of its
    whole Gram matrix, all clusters of one size in one batched call.
    Returns (lam, |Q v|, |Q+ v|, the rotated states)."""
    vals, vecs, ix = _sector_eigh(sys_, f)
    q, qdag, _ = _reference_ops(sys_)
    qv, qdv = q[:, ix] @ vecs, qdag[:, ix] @ vecs
    starts = np.array([sl.start for sl in _reference_cluster_slices(vals)], dtype=int)
    sizes = np.diff(starts, append=len(vals))
    lam = np.repeat(np.add.reduceat(vals, starts) / sizes, sizes)
    for size in np.unique(sizes[sizes > 1]):
        cols = starts[sizes == size][:, None] + np.arange(size)
        stacked = qv.T[cols]
        _, rot = np.linalg.eigh(stacked @ stacked.transpose(0, 2, 1))
        rot_t = rot.transpose(0, 2, 1)
        for arr in (qv, qdv, vecs):
            arr.T[cols] = rot_t @ arr.T[cols]
    return lam, np.linalg.norm(qv, axis=0), np.linalg.norm(qdv, axis=0), vecs


@pytest.mark.parametrize("cm", [(0,), (0, 1, -1), susy.DEFAULT_CM_MOMENTA],
                         ids=lambda cm: f"{len(cm)}cm")
@pytest.mark.parametrize("variant", susy.VARIANTS)
@pytest.mark.parametrize("kind", [_CS2, ("calogero_sutherland", 2.0, math.pi),
                                  ("calogero", 1.5, 8.0), ("harmonic_calogero", 2.0, 8.0)],
                         ids=lambda kind: f"{kind[0]}-{kind[1]}")
def test_per_momentum_classification_matches_sector_wide(monkeypatch, kind, variant, cm):
    sys_ = _two_body(*kind, variant, cm)
    report, sums = susy.kernel_classify(sys_), susy.sector_sum_check(sys_)
    # the same tagging and sum check, on the sector-wide rotation
    ref = {f: _sector_wide_charges(sys_, f) for f in range(3)}
    monkeypatch.setattr(susy, "_sector_charges", lambda s, f: ref[f])
    monkeypatch.setattr(susy, "_rotated_states", lambda s, f, t: ref[f][3][:, t])
    ref_report, ref_sums = susy.kernel_classify(sys_), susy.sector_sum_check(sys_)
    assert report["unsplit"] == ref_report["unsplit"]
    for f, got in report["sectors"].items():
        want = ref_report["sectors"][f]
        assert got["tags"] == want["tags"]
        assert got["counts"] == want["counts"]
        scale = np.sqrt(np.maximum(1.0, np.array(want["eigenvalues"])))
        for norms in ("q_norms", "qdag_norms"):
            assert np.max(np.abs(np.subtract(got[norms], want[norms])) / scale) <= 1e-12
    for key in ("one_fermion", "n_minus_one"):
        assert len(sums[key]) == len(ref_sums[key]) > 0
        for got, want in zip(sums[key], ref_sums[key]):
            assert (got["lambda"], got["class"]) == (want["lambda"], want["class"])
            assert abs(got["residual"] - want["residual"]) <= 1e-12


def test_two_body_analysis_forms_no_sector_wide_matrix():
    sys_ = _two_body(*_CS2, "s1", susy.DEFAULT_CM_MOMENTA)
    susy.kernel_classify(sys_)
    susy.pairing_check(sys_)
    susy.sector_sum_check(sys_)
    n_k = len(sys_.cm_momenta)
    for f, eig in sys_._sector_eig.items():
        assert "vecs" not in vars(eig)
        # nothing cached holds more than one momentum's share of a
        # sector-wide matrix
        lam, qn, qdn, (basis, weights) = sys_._charges[f]
        held = [eig.vals, eig.order, lam, qn, qdn, basis, weights,
                *(part.rows for part in eig.parts), *eig.part_vecs]
        assert max(a.size for a in held) <= len(eig.ix) ** 2 // n_k
