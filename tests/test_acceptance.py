"""Acceptance gate: one test per criterion, each printing a pass/fail line
with the measured figure and runtime (run with -s to see them)."""

import math
import time

import numpy as np
import pytest

from shapeinv import calculus as calc
from shapeinv import shape1d, spectral, susy, verify
from shapeinv.models import (make_nbody_model, make_pair_prepotential,
                             make_prepotential_1d, remainder_shift)
from shapeinv.spectral import GridSpec
from test_models import sample_pair_condition


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({elapsed:.3f}s, budget {budget}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_algebraic_spectrum():
    cases = [(2.0, 1.0), (1.0, 1.0), (2.5, 0.7), (3.0, 2.0)]
    preps = [make_prepotential_1d("rosen_morse_trig", p) for p in cases]
    shape1d.algebraic_spectrum(preps[0], 10)  # warm-up outside the clock
    t0 = time.perf_counter()
    worst = 0.0
    for (b, a), prep in zip(cases, preps):
        chain = shape1d.algebraic_spectrum(prep, 10)
        for k, e in enumerate(chain.energies):
            exact = (b + k * a) ** 2 - b ** 2
            worst = max(worst, abs(e - exact) / max(1.0, abs(exact)))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12, f"closed-form deviation {worst:.2e}", elapsed, 1e-3)


def test_criterion_02_grid_validation():
    # the bound applies at m = 2000; the refinements around it report the
    # observed order log2(err(m) / err(2m)) of the largest level error
    t0 = time.perf_counter()
    sizes = (500, 1000, 2000, 4000)
    worst = 0.0
    orders = []
    for b, a in ((2.0, 1.0), (1.0, 1.0)):  # second case: particle in a box
        prep = make_prepotential_1d("rosen_morse_trig", (b, a))
        expected = np.array([(b + k * a) ** 2 - b ** 2 for k in range(5)])
        errs = []
        for m in sizes:
            grid = GridSpec.line(0.0, math.pi, m)
            got = spectral.eigen(spectral.discretize(prep, grid, 4), 5).eigenvalues
            errs.append(float(np.max(np.abs(got - expected))))
            if m == 2000:
                worst = max(worst, float(np.max(np.abs(got - expected)
                                                / np.maximum(1.0, expected))))
        steps = " ".join(f"{math.log2(e0 / e1):.2f}" for e0, e1 in zip(errs, errs[1:]))
        orders.append(f"({b:g}, {a:g}) {steps} [error {errs[-1]:.1e} at m = {sizes[-1]}]")
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-3, f"grid spectrum deviation {worst:.2e}; observed order "
            f"over m = {sizes}: " + ", ".join(orders), elapsed, 10)


def test_criterion_03_factorization_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in ("calogero", "calogero_sutherland"):
        for n in range(2, 7):
            for alpha in (1.0, 1.5, 2.0, 3.0):
                rep = verify.factorization_residual(
                    make_nbody_model(kind, n, alpha), 100, seed=300 + n)
                worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 1e-8, f"max residual {worst:.2e} over 40 models x 100 samples",
            elapsed, 5)


def test_criterion_04_shape_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    shifts = {}
    for kind in ("calogero", "calogero_sutherland"):
        for n, alpha in ((2, 1.0), (3, 1.0), (4, 2.0)):
            rep = verify.shape_invariance_residual(
                make_nbody_model(kind, n, alpha), 100, seed=400 + n)
            worst = max(worst, rep.max_residual)
            shifts[(kind, n, alpha)] = rep.extra["remainder_used"]
    ok = (worst <= 1e-8
          and shifts[("calogero_sutherland", 3, 1.0)] == pytest.approx(24.0)
          and shifts[("calogero_sutherland", 2, 1.0)] == pytest.approx(6.0)
          and shifts[("calogero", 3, 1.0)] == 0.0)
    elapsed = time.perf_counter() - t0
    _report(4, ok, f"max residual {worst:.2e}, R(CS,3,1) = "
            f"{shifts[('calogero_sutherland', 3, 1.0)]}", elapsed, 5)


def test_criterion_05_structural_identities():
    t0 = time.perf_counter()
    worst_cancel = 0.0
    for kind in ("calogero", "calogero_sutherland", "harmonic_calogero"):
        omega = 1.0 if kind == "harmonic_calogero" else None
        rep = verify.three_body_report(make_nbody_model(kind, 3, 1.0, omega=omega),
                                       1000, seed=505)
        worst_cancel = max(worst_cancel, rep.max_residual)
    worst_struct = 0.0
    for kind in ("calogero", "calogero_sutherland", "harmonic_calogero"):
        omega = 1.0 if kind == "harmonic_calogero" else None
        for n in (2, 4, 6):
            rep = verify.prepotential_structure_report(
                make_nbody_model(kind, n, 1.5, omega=omega), 50, seed=500 + n)
            worst_struct = max(worst_struct, rep.max_residual)
    ok = worst_cancel <= 1e-12 and worst_struct <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(5, ok, f"cancellation {worst_cancel:.2e}, prepotential structure "
            f"{worst_struct:.2e}", elapsed, 10)


def test_criterion_06_constant_diagnostics():
    t0 = time.perf_counter()
    ok = True
    details = []
    for kind, n, alpha, omega in (("calogero", 3, 1.5, None),
                                  ("calogero_sutherland", 2, 1.0, None),
                                  ("calogero_sutherland", 3, 1.0, None),
                                  ("harmonic_calogero", 2, 1.0, 1.0),
                                  ("harmonic_calogero", 3, 1.5, 1.0)):
        m = make_nbody_model(kind, n, alpha, omega=omega)
        fit = verify.constant_fit_diagnostic(m, 150, seed=600 + n)
        ok &= fit.residual_std <= 1e-8 * fit.scale
        if kind == "calogero_sutherland":
            expected = -alpha ** 2 * n * (n * n - 1) / 3.0
            ok &= abs(fit.fitted_constant - expected) <= 1e-8
            details.append(f"CS N={n}: c = {fit.fitted_constant:.9f}")
        elif kind == "harmonic_calogero":
            expected = -n * (n - 1) * m.beta * (alpha * n + 1)
            ok &= abs(fit.fitted_constant - expected) <= 1e-8 * abs(expected)
            details.append(f"harmonic N={n}: c = {fit.fitted_constant:.9f}")
    elapsed = time.perf_counter() - t0
    _report(6, ok, "; ".join(details), elapsed, 10)


def test_criterion_07_ground_states():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in ("calogero", "calogero_sutherland"):
        for n in (2, 3, 4):
            for alpha in (1.0, 2.0):
                m = make_nbody_model(kind, n, alpha)
                phi = calc.jastrow_function(m)
                for child in np.random.SeedSequence(700 + n).spawn(25):
                    rng = np.random.default_rng(child)
                    x = verify.draw_configuration(m, rng)
                    hval = calc.apply_hamiltonian_direct(m, phi, x)
                    scale = max(1.0, abs(m.potential(x))) * max(abs(phi(x)), 1e-300)
                    worst = max(worst, abs(hval) / scale)
    jet_ok = worst <= 1e-8
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    energy = remainder_shift(m)
    ham = spectral.reduced_hamiltonian(m, GridSpec.line(0.0, math.pi, 1000), 4, partner=True)
    lam0 = spectral.eigen(ham, 1).eigenvalues[0]
    grid_ok = (energy == 6.0) and abs(lam0 - energy) / energy <= 1e-3
    elapsed = time.perf_counter() - t0
    _report(7, jet_ok and grid_ok,
            f"jet residual {worst:.2e}; partner energy {energy} vs grid {lam0:.6f}",
            elapsed, 30)


def test_criterion_08_two_body_reduction():
    t0 = time.perf_counter()
    m = make_nbody_model("calogero_sutherland", 2, 2.0)
    chain = shape1d.algebraic_spectrum(spectral.relative_prepotential(m), 3)
    alg = spectral.RELATIVE_KINETIC * np.asarray(chain.energies)
    ham = spectral.reduced_hamiltonian(m, GridSpec.line(0.0, math.pi, 2000), 4)
    got = spectral.eigen(ham, 4).eigenvalues
    rel = float(np.max(np.abs(got - alg) / np.maximum(1.0, np.abs(alg))))
    elapsed = time.perf_counter() - t0
    _report(8, rel <= 1e-3,
            f"reduced levels {np.round(got, 4).tolist()} vs {alg.tolist()}, "
            f"deviation {rel:.2e}", elapsed, 20)


def test_criterion_09_susy_suite():
    t0 = time.perf_counter()
    m = make_nbody_model("calogero_sutherland", 2, 1.0)
    grid = GridSpec.line(0.0, math.pi, 64)
    sys_ = susy.build_susy(m, grid, "s1")
    d = sys_.diagnostics
    spectra = susy.sector_spectra(sys_, 1)
    pairing = susy.pairing_check(sys_, tol=1e-6)
    cmp = susy.variant_comparison(m, grid)
    checks = {
        "Q^2": d["q_squared_fro"] < 1e-12,
        "blocks": d["offblock_leak"] == 0.0,
        "pairing": pairing["passed"],
        "bosonic floor": abs(spectra[0][0] - 6.0) <= 1e-2,
        "top zero": abs(spectra[2][0]) <= 1e-2,
        "shared 0-block": cmp["sectors"][0]["relative_deviation_after_shift"] <= 1e-2,
        "distinct 1-block": cmp["sectors"][1]["relative_deviation_after_shift"] > 0.1,
    }
    elapsed = time.perf_counter() - t0
    detail = (f"|Q^2| = {d['q_squared_fro']:.1e}, floor {spectra[0][0]:.4f}, "
              f"top {spectra[2][0]:.2e}, pairing gap "
              f"{pairing['max_relative_gap']:.1e}, variant shift "
              f"{cmp['sectors'][0]['constant_shift']:.4f}")
    failed = [k for k, v in checks.items() if not v]
    _report(9, not failed, detail + (f"; failed: {failed}" if failed else ""),
            elapsed, 60)


def test_criterion_10_functional_equation():
    rows = [("rational_harmonic", (1.0, 2.0)), ("sign", (0.8,)),
            ("cot", (0.9,)), ("coth", (1.2,))]
    t0 = time.perf_counter()
    worst = 0.0
    for family, params in rows:
        row_worst, _ = sample_pair_condition(make_pair_prepotential(family, *params),
                                             samples=1000, seed=1010)
        worst = max(worst, row_worst)
    elapsed = time.perf_counter() - t0
    _report(10, worst <= 1e-10, f"max residual {worst:.2e} over 4 rows x 1000",
            elapsed, 1)
