import math

import numpy as np
import pytest
import scipy.sparse as sp

from shapeinv import spectral, susy
from shapeinv.errors import DomainError
from shapeinv.models import make_nbody_model, make_prepotential_1d
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


def test_discretize_symmetric_and_metadata():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 64), 4)
    assert ham.symmetry_defect() <= 1e-12
    assert ham.dim == 63
    assert ham.stencil_order == 4
    assert ham.info["family"] == "rosen_morse_trig"


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
    """P L_k P^T for every axis k, and the sector node coordinates."""
    sizes = [len(grid.axis_nodes(k)) for k in range(grid.dim)]
    full = np.indices(sizes).reshape(grid.dim, -1).T  # row-major
    keep = np.ones(len(full), dtype=bool)
    if grid.sector == "ordered":
        keep = np.all(np.diff(full, axis=1) > 0, axis=1)
    sel = np.eye(len(full))[keep]
    ops = []
    for k in range(grid.dim):
        factors = [np.eye(s) for s in sizes]
        factors[k] = _stencil_matrix(coeffs, sizes[k], grid.axis_h(k), power,
                                     grid.bc, reflect=grid.dim == 1)
        lk = factors[0]
        for f in factors[1:]:
            lk = np.kron(lk, f)
        ops.append(sel @ lk @ sel.T)
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
])
def test_discretize_matches_restricted_kronecker_sum(dim, sector, bc, order):
    if sector == "ordered":
        model = make_nbody_model("calogero_sutherland", dim, 2.0)
        grid = GridSpec.box(0.0, math.pi, 10 if dim == 3 else 12, dim, sector=sector)
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
@pytest.mark.parametrize("n", [2, 3])
def test_susy_ladders_match_restricted_stencil(n, order, variant):
    model = make_nbody_model("calogero_sutherland", n, 2.0)
    grid = GridSpec.box(0.0, math.pi, 10, n, sector="ordered")
    system = susy.build_susy(model, grid, variant, stencil_order=order)
    ops, nodes = _restricted_axis_operators(grid, FIRST[order], 1)
    assert np.array_equal(system.space_nodes, nodes)
    base = model if variant == "s1" else model.shifted(1.0)
    w = np.array([base.prepotential(p) for p in nodes])
    for i in range(n):
        _assert_entrywise(system.a_space[i] - sp.diags(w[:, i]), ops[i])


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
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 500), 4)
    res = spectral.eigen(ham, 6)
    assert np.all(res.residual_norms <= 1e-8 * res.norm_est)
    assert np.all(np.diff(res.eigenvalues) >= 0)


def test_dense_iterative_agreement():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 1001), 4)
    dense = spectral.eigen(ham, 4, method="dense")
    iterative = spectral.eigen(ham, 4, method="iterative", seed=1)
    assert np.max(np.abs(dense.eigenvalues - iterative.eigenvalues)) < 1e-9


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


def test_jastrow_full_grid_calogero_n3():
    m = make_nbody_model("calogero", 3, 2.0)
    grid = GridSpec.box(-3.0, 3.0, 20, 3, sector="ordered")
    gf, resid = spectral.jastrow_ground_state(m, grid, stencil_order=4)
    assert gf.nodes.shape[1] == 3
    assert resid < 1e-2
    assert gf.meta["normalizable"] is False  # no confinement


def test_partner_ground_state_energy():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    pg = spectral.partner_ground_state(m)
    assert pg.energy == pytest.approx(6.0)
    assert pg.shifted_model.alpha == 2.0
    m3 = make_nbody_model("calogero_sutherland", 3, 1.0)
    assert spectral.partner_ground_state(m3).energy == pytest.approx(24.0)


def test_partner_energy_confirmed_by_grid():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    red = spectral.two_body_reduction(m)
    ham = spectral.discretize(red.partner_operator_potential,
                              GridSpec.line(0.0, math.pi, 1000), 4,
                              kinetic_scale=red.kinetic_factor)
    lam0 = spectral.eigen(ham, 1).eigenvalues[0]
    assert lam0 == pytest.approx(6.0, abs=1e-3)


def test_partner_calogero_zero_shift():
    m = make_nbody_model("calogero", 3, 1.5)
    pg = spectral.partner_ground_state(m)
    assert pg.energy == 0.0
    assert pg.normalizable is False


# ---------------------------------------------------------------------------
# two-body reduction
# ---------------------------------------------------------------------------

def test_reduction_cs_mapping():
    m = make_nbody_model("calogero_sutherland", 2, 2.0)
    red = spectral.two_body_reduction(m)
    assert red.prep.family == "rosen_morse_trig"
    assert red.prep.params == (2.0, 1.0)
    assert red.kinetic_factor == 2.0
    # reduced potential is 2 (alpha(alpha-1)/sin^2 r - alpha^2)
    r = 0.9
    assert red.operator_potential(r) == pytest.approx(
        2 * (2.0 / math.sin(r) ** 2 - 4.0))


def test_reduction_free_limit():
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    red = spectral.two_body_reduction(m)
    assert red.operator_potential(0.7) == pytest.approx(-2.0)  # constant


def test_reduction_requires_two_bodies():
    with pytest.raises(DomainError):
        spectral.two_body_reduction(make_nbody_model("calogero", 3, 1.0))


def test_reduction_grid_vs_chain():
    m = make_nbody_model("calogero_sutherland", 2, 2.0)
    red = spectral.two_body_reduction(m)
    alg = red.algebraic_energies(3)
    assert np.allclose(alg, [0.0, 10.0, 24.0, 42.0])
    ham = spectral.discretize(red.operator_potential,
                              GridSpec.line(0.0, math.pi, 2000), 4,
                              kinetic_scale=red.kinetic_factor)
    grid_levels = spectral.eigen(ham, 4).eigenvalues
    rel = np.abs(grid_levels - alg) / np.maximum(1.0, np.abs(alg))
    assert np.max(rel) < 1e-3


def test_reduced_ground_state_nodeless_and_even():
    m = make_nbody_model("calogero_sutherland", 2, 2.0)
    red = spectral.two_body_reduction(m)
    ham = spectral.discretize(red.operator_potential,
                              GridSpec.line(0.0, math.pi, 801), 4,
                              kinetic_scale=red.kinetic_factor)
    vec = spectral.eigen(ham, 1).eigenvectors[:, 0]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    interior = vec[np.abs(vec) > 1e-9 * np.max(np.abs(vec))]
    assert np.sum(np.sign(interior[1:]) != np.sign(interior[:-1])) == 0
    assert np.max(np.abs(vec - vec[::-1])) < 1e-6  # even about r = pi/2


def test_reduction_harmonic_family():
    m = make_nbody_model("harmonic_calogero", 2, 1.0, omega=1.0)
    red = spectral.two_body_reduction(m)
    assert red.prep.family == "rational_harmonic"
    assert red.prep.params == (m.beta, -1.0)


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

def test_spectrum_table_schema():
    ham = spectral.discretize(_rm(), GridSpec.line(0.0, math.pi, 300), 4)
    res = spectral.eigen(ham, 3)
    header, rows = spectral.spectrum_table(res)
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
