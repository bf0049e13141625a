import math

import numpy as np
import pytest

from shapeinv import shape1d
from shapeinv.errors import DomainError
from shapeinv.models import make_prepotential_1d
from shapeinv.spectral import GridSpec


@pytest.mark.parametrize("lo,hi,m", [(0.0, math.pi, 1023), (0.0, math.pi, 2048),
                                     (-1.3, 2.7, 777), (0.1, 12.0, 8)])
def test_samples_are_walls_plus_nodes(lo, hi, m):
    # the walls and GridSpec's interior nodes are linspace's m + 1 samples
    # bit for bit, so a chain at m cells matches one built on linspace
    grid = GridSpec.line(lo, hi, m)
    samples = np.r_[lo, grid.axis_nodes(0), hi]
    assert np.array_equal(samples, np.linspace(lo, hi, m + 1))
    assert grid.axis_h(0) == (hi - lo) / m
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    assert np.array_equal(shape1d.ground_state_1d(prep, grid).x, samples)


@pytest.mark.parametrize("grid", [GridSpec.line(0.0, math.pi, 1024, bc="periodic"),
                                  GridSpec.box(0.0, math.pi, 1024, 2)])
def test_chain_rejects_periodic_and_multi_axis_grids(grid):
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    with pytest.raises(DomainError, match="one-axis Dirichlet"):
        shape1d.ground_state_1d(prep, grid)
    with pytest.raises(DomainError, match="one-axis Dirichlet"):
        shape1d.wavefunction_chain(prep, 1, grid)


def test_spectrum_closed_form():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    chain = shape1d.algebraic_spectrum(prep, 3)
    assert chain.energies == (0.0, 5.0, 12.0, 21.0)


def test_spectrum_box_limit():
    prep = make_prepotential_1d("rosen_morse_trig", (1.0, 1.0))
    chain = shape1d.algebraic_spectrum(prep, 3)
    assert chain.energies == (0.0, 3.0, 8.0, 15.0)


def test_spectrum_trivial():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    assert shape1d.algebraic_spectrum(prep, 0).energies == (0.0,)


@pytest.mark.parametrize("family,params,n_max,members,energies", [
    ("coth_hyperbolic", (0.3,), 2, 1, (0.0,)),      # a -> a - 1 leaves 0 < a < 1/2
    ("sign", (1.0,), 3, 1, (0.0,)),                 # a -> -a
    ("rosen_morse_trig", (0.3, 1.0), 2, 0, ()),     # b/a <= 1/2 from the start
    ("rosen_morse_trig", (2.0, 1.0), 3, 4, (0.0, 5.0, 12.0, 21.0)),
    ("rational_harmonic", (1.0, -1.0), 2, 3, (0.0, 4.0, 8.0)),
])
def test_spectrum_stops_at_last_normalizable_member(family, params, n_max,
                                                    members, energies):
    chain = shape1d.algebraic_spectrum(make_prepotential_1d(family, params), n_max)
    assert chain.members == members
    assert chain.energies == energies
    assert len(chain.params_chain) == members
    assert len(chain.remainders) == max(members - 1, 0)


@pytest.mark.parametrize("b,a", [(2.0, 1.0), (1.0, 1.0), (2.5, 0.7), (3.0, 2.0)])
def test_spectrum_matches_closed_form_generic(b, a):
    prep = make_prepotential_1d("rosen_morse_trig", (b, a))
    chain = shape1d.algebraic_spectrum(prep, 10)
    for k, e in enumerate(chain.energies):
        assert abs(e - ((b + k * a) ** 2 - b ** 2)) <= 1e-12 * max(1.0, abs(e))
    assert np.all(np.diff(chain.energies) > 0)


def test_ground_state_closed_form():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    grid = GridSpec.line(0.0, math.pi, 1023)
    gf = shape1d.ground_state_1d(prep, grid)
    ref = np.sin(gf.x) ** 2
    ref /= np.sqrt(np.trapezoid(ref ** 2, dx=gf.h))
    assert np.max(np.abs(gf.values - ref)) < 1e-12


def test_ground_state_box():
    prep = make_prepotential_1d("rosen_morse_trig", (1.0, 1.0))
    grid = GridSpec.line(0.0, math.pi, 1023)
    gf = shape1d.ground_state_1d(prep, grid)
    ref = np.sin(gf.x)
    ref /= np.sqrt(np.trapezoid(ref ** 2, dx=gf.h))
    assert np.max(np.abs(gf.values - ref)) < 1e-12


def test_ground_state_symmetry():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    grid = GridSpec.line(0.0, math.pi, 1000)
    vals = shape1d.ground_state_1d(prep, grid).values
    assert np.max(np.abs(vals - vals[::-1])) < 1e-12


def test_ground_state_non_normalizable_flagged():
    prep = make_prepotential_1d("rosen_morse_trig", (0.4, 1.0))
    grid = GridSpec.line(0.0, math.pi, 599)
    with pytest.warns(UserWarning):
        gf = shape1d.ground_state_1d(prep, grid)
    assert gf.meta["normalizable"] is False
    assert np.all(np.isfinite(gf.values))


def test_chain_level_zero_is_ground_state():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    grid = GridSpec.line(0.0, math.pi, 699)
    g0 = shape1d.ground_state_1d(prep, grid)
    c0 = shape1d.wavefunction_chain(prep, 0, grid)
    assert np.max(np.abs(np.abs(c0.values) - np.abs(g0.values))) < 1e-12


def test_chain_rayleigh_quotients():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    grid = GridSpec.line(0.0, math.pi, 2047)
    chain = shape1d.algebraic_spectrum(prep, 3)
    for n in range(4):
        gf = shape1d.wavefunction_chain(prep, n, grid)
        rq = shape1d.rayleigh_quotient(prep, gf)
        assert rq == pytest.approx(chain.energies[n], abs=1e-3)
        assert gf.sign_changes() == n  # node count


def test_chain_orthogonality():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    grid = GridSpec.line(0.0, math.pi, 2047)
    g0 = shape1d.wavefunction_chain(prep, 0, grid)
    g1 = shape1d.wavefunction_chain(prep, 1, grid)
    assert abs(g0.inner(g1)) < 1e-6


def test_chain_convergence_order():
    # Rayleigh quotient error must shrink at measured order >= 1.9
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    errs = []
    for m in (512, 1024, 2048):
        gf = shape1d.wavefunction_chain(prep, 2, GridSpec.line(0.0, math.pi, m - 1))
        errs.append(abs(shape1d.rayleigh_quotient(prep, gf) - 12.0))
    order1 = math.log(errs[0] / errs[1]) / math.log(2.0)
    order2 = math.log(errs[1] / errs[2]) / math.log(2.0)
    assert order1 > 1.9 or order2 > 1.9


def test_chain_preconditions():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    with pytest.raises(DomainError):
        shape1d.wavefunction_chain(prep, 7, GridSpec.line(0.0, math.pi, 1023))
    with pytest.raises(DomainError):
        shape1d.wavefunction_chain(prep, 1, GridSpec.line(0.0, math.pi, 127))
    with pytest.raises(DomainError, match="511 cells"):
        shape1d.wavefunction_chain(prep, 1, GridSpec.line(0.0, math.pi, 510))
    gf = shape1d.wavefunction_chain(prep, 1, GridSpec.line(0.0, math.pi, 511))
    assert len(gf.x) == 512


def test_chain_boundary_margin_recorded():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    gf = shape1d.wavefunction_chain(prep, 2, GridSpec.line(0.0, math.pi, 599))
    assert gf.meta["boundary_margin_cells"] == 4
    assert len(gf.meta["params_chain"]) == 3


def _hierarchy(prep, n):
    """The tower H(k) = H(0) at alpha_k plus accumulated remainders.

    Returns a list of (potential_k, E0_k): potential_k is a callable
    evaluating W^2 - W' at alpha_k shifted by E0_k = sum_{j<=k} R(alpha_j),
    which is the ground energy of the k-th member in the original reference.
    """
    chain = shape1d.algebraic_spectrum(prep, n)
    out = []
    for params, e0 in zip(chain.params_chain, chain.energies):
        pk = make_prepotential_1d(prep.family, params)
        out.append((lambda x, _p=pk, _e=e0: _p.potential(x) + _e, e0))
    return out


def test_hierarchy_energies():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    tower = _hierarchy(prep, 2)
    assert tower[0][1] == 0.0
    assert tower[2][1] == pytest.approx(12.0)


def test_hierarchy_potential_difference():
    # at the domain midpoint the 1/sin^2 coefficient difference is
    # b1(b1 - a) - b(b - a) = 4 for (b, a) = (2, 1)
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    tower = _hierarchy(prep, 1)
    v0, v1 = tower[0][0], tower[1][0]
    assert v1(math.pi / 2) - v0(math.pi / 2) == pytest.approx(4.0)


def test_grid_function_export():
    prep = make_prepotential_1d("rosen_morse_trig", (2.0, 1.0))
    gf = shape1d.ground_state_1d(prep, GridSpec.line(0.0, math.pi, 31))
    rows = list(gf.to_text_rows())
    assert len(rows) == 32
    x0, v0 = rows[0].split()
    assert float(x0) == 0.0 and float(v0) == 0.0
