"""The benchmark's four closed-loop workloads.

A workload is a fixed list of jobs that one client runs back to back; one
run of the list is a pass.  Every job is a user-level computation that checks
its own result with the tolerances the repository's own checks use, and
raises `CheckFailed` (or whatever the program raised) when a check misses.
Jobs call the program through module attributes (`cli.main`,
`spectral.discretize`, ...) so that the tracer in `tracing.py` sees them.

The job sizes are scaled down from the shapes named in the benchmark's
README so that one run holds enough passes for a tail percentile; each
workload keeps the layer that dominates its time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from shapeinv import cli, spectral, susy
from shapeinv.models import make_nbody_model
from shapeinv.spectral import GridSpec

# Gates, copied from the repository's own checks so that a change to the
# program cannot loosen them.
RESIDUAL_CONTRACT = 1e-8        # spectral eigen-residual contract
JASTROW_GRID_BOUND = 1e-2       # N = 3 grid Jastrow residual, tests/test_spectral.py
EPSILON_ALIGNMENT_BOUND = 1e-10 # N = 3 epsilon relation, tests/test_susy.py
POSITIVITY_FLOOR = -1e-10       # sector spectra, tests/test_susy.py

# Closed-form references.
CS2_REMAINDER = 6.0             # R = ((a+1)^2 - a^2) N (N^2 - 1) / 3 at N = 2, a = 1


class CheckFailed(Exception):
    """A job's result missed one of its checks."""


def _check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Job:
    name: str
    run: Callable[[], float | None]   # returns the job's reference error, if any


@dataclass
class PassOutcome:
    attempted: int
    failed: int
    ref_err: float | None
    errors: list


class Workload:
    """A job list.  `kernel_power` says how far the pass's dominant work
    speeds up and slows down with the host the way the reference kernel does
    (see reference.py): times are multiplied by (NOMINAL_S / kernel) to this
    power, 1 for work that follows the kernel fully, 0 for raw wall time."""

    def __init__(self, jobs: list, kernel_power: float = 1.0):
        self.jobs = jobs
        self.kernel_power = kernel_power

    def run_pass(self) -> PassOutcome:
        failed, refs, errors = 0, [], []
        for job in self.jobs:
            try:
                ref = job.run()
            except Exception as exc:  # a failing job is counted, never retried
                failed += 1
                errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
                continue
            if ref is not None:
                refs.append(ref)
        return PassOutcome(len(self.jobs), failed, max(refs) if refs else None, errors)


# ---------------------------------------------------------------------------
# job helpers
# ---------------------------------------------------------------------------

def _max_rel_error(path: Path) -> float:
    with open(path, newline="") as fh:
        return max(float(row["rel_error"]) for row in csv.DictReader(fh))


def _cli_job(name: str, argv: list, outdir: Path, reference=None) -> Job:
    """`shapeinv <argv> --outdir <outdir>` in-process; exit code 0 required.

    `reference(outdir)` reads the job's reference error from its output files.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    argv = [str(a) for a in argv] + ["--outdir", str(outdir)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        _check(code == 0, f"exit code {code}")
        return reference(outdir) if reference else None

    return Job(name, run)


def _csv_reference(filename: str):
    return lambda outdir: _max_rel_error(outdir / filename)


def _susy_floor_reference(outdir: Path) -> float:
    report = json.loads((outdir / "susy_report.json").read_text())
    return abs(report["sector_minima"]["0"] - CS2_REMAINDER) / CS2_REMAINDER


def _eigen_job(name: str, model, m: int, k: int, seed: int) -> Job:
    grid = GridSpec.box(0.0, math.pi, m, model.n, sector="ordered")

    def run():
        ham = spectral.discretize(model, grid, 4)
        res = spectral.eigen(ham, k, seed)
        vals = res.eigenvalues
        _check(len(vals) == k and all(map(math.isfinite, vals)), "eigenvalues")
        _check(all(a <= b for a, b in zip(vals, vals[1:])), "eigenvalue order")
        _check(res.max_relative_residual() <= RESIDUAL_CONTRACT,
               f"residual {res.max_relative_residual():.2e}")
        return None

    return Job(name, run)


def _jastrow_job(name: str, model, grid: GridSpec, normalizable: bool) -> Job:
    def run():
        gf, residual = spectral.jastrow_ground_state(model, grid, 4)
        _check(residual < JASTROW_GRID_BOUND, f"Jastrow residual {residual:.2e}")
        _check(gf.meta["normalizable"] is normalizable, "normalizability flag")
        return residual

    return Job(name, run)


def _susy_grid_job(name: str, model, m: int) -> Job:
    grid = GridSpec.box(0.0, math.pi, m, model.n, sector="ordered")

    def run():
        system = susy.build_susy(model, grid, "s1", stencil_order=4)
        diag = system.diagnostics
        _check(diag["hermiticity_defect"] == 0.0, "hermiticity defect")
        _check(diag["offblock_leak"] == 0.0, "off-block leak")
        spectra = susy.sector_spectra(system, 2)
        _check(all(vals[0] >= POSITIVITY_FLOOR for vals in spectra.values()),
               "negative sector eigenvalue")
        eps = susy.sector_sum_check(system, k=3, split_tol=0.45)["epsilon_relation"]
        _check(eps["checked"] > 0, "epsilon relation checked no state")
        worst = max(case["alignment_residual"] for case in eps["cases"])
        _check(worst < EPSILON_ALIGNMENT_BOUND, f"epsilon alignment {worst:.2e}")
        return None

    return Job(name, run)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def identities(seed: int, tmp: Path) -> Workload:
    """Identity checks on exact 2-jets, through `shapeinv verify`.

    The harmonic job passes beta = omega / sqrt(2N), the normalization the
    README names as reproducing the standard pair potential; with the
    default beta the factorization check fails by O(1).  The chain job is
    the workload's only discretization-limited figure and supplies ref_err;
    it touches no sparse or eigen code.
    """
    harmonic_beta = 1.0 / math.sqrt(2 * 4)
    verify = [
        ("verify_cs_n3", ["--kind", "cs", "--n", 3, "--alpha", 1, "--trials", 20]),
        ("verify_calogero_n4", ["--kind", "calogero", "--n", 4, "--alpha", 1.5,
                                "--trials", 10]),
        ("verify_harmonic_n4", ["--kind", "harmonic_calogero", "--n", 4, "--alpha", 1.5,
                                "--omega", 1, "--beta-override", repr(harmonic_beta),
                                "--trials", 10]),
        ("verify_cs_n6", ["--kind", "cs", "--n", 6, "--alpha", 1, "--trials", 10]),
    ]
    jobs = [_cli_job(name, ["verify", *argv, "--seed", seed], tmp / name)
            for name, argv in verify]
    jobs.append(_cli_job("chain_control",
                         ["chain", "--family", "rosen-morse", "--b", 3, "--a", 2,
                          "--levels", 2, "--grid-m", 1024, "--seed", seed],
                         tmp / "chain_control", _csv_reference("chain.csv")))
    return Workload(jobs)


def spectra_1d(seed: int, tmp: Path) -> Workload:
    """1-D grid spectra against the algebraic remainder chain.

    The banded eigensolve that dominates the pass is partly bound by memory,
    so it follows the reference kernel only in part: when the kernel slowed
    by 1.6x, the pass slowed by about 1.4x.  Over six sets of ten runs the
    spread of pass_s was 0.04-0.13 raw and 0.06-0.22 fully rescaled, but
    0.01-0.05 with the square root of the kernel's speed ratio."""
    jobs = [
        _cli_job("spectrum_rosen_morse",
                 ["spectrum", "--family", "rosen-morse", "--b", 2, "--a", 1,
                  "--nmax", 5, "--grid-m", 1000, "--seed", seed],
                 tmp / "spectrum_rosen_morse", _csv_reference("spectrum.csv")),
        _cli_job("spectrum_harmonic_reduced",
                 ["spectrum", "--kind", "harmonic_calogero", "--n", 2, "--alpha", 2,
                  "--omega", 1, "--reduce", "--nmax", 3, "--grid-m", 1000,
                  "--seed", seed],
                 tmp / "spectrum_harmonic_reduced", _csv_reference("spectrum.csv")),
        _cli_job("chain_rosen_morse",
                 ["chain", "--family", "rosen-morse", "--b", 2, "--a", 1,
                  "--levels", 3, "--seed", seed],
                 tmp / "chain_rosen_morse", _csv_reference("chain.csv")),
    ]
    return Workload(jobs, kernel_power=0.5)


def nbody_grid(seed: int, tmp: Path) -> Workload:
    """Ordered-sector N = 3 grids through library calls (no CLI subcommand
    covers N >= 3 grids).  m = 31 is the smallest CS grid above the 4000-node
    dense cutoff, so it takes the Lanczos path; m = 16 takes the dense path."""
    cs3 = make_nbody_model("calogero_sutherland", 3, 1.0)
    cal3 = make_nbody_model("calogero", 3, 2.0)
    jobs = [
        _eigen_job("eigen_cs3_m31", cs3, 31, 4, seed),
        _eigen_job("eigen_cs3_m16", cs3, 16, 4, seed),
        _jastrow_job("jastrow_cs3_m24", cs3,
                     GridSpec.box(0.0, math.pi, 24, 3, sector="ordered"), True),
        _jastrow_job("jastrow_calogero3_m20", cal3,
                     GridSpec.box(-3.0, 3.0, 20, 3, sector="ordered"), False),
        _susy_grid_job("susy_cs3_m10", cs3, 10),
    ]
    return Workload(jobs)


def susy_pairs(seed: int, tmp: Path) -> Workload:
    """Two-body supersymmetric sector analysis through `shapeinv susy`."""
    base = ["susy", "--kind", "cs", "--n", 2, "--alpha", 1, "--grid-m", 32,
            "--seed", seed]
    jobs = [
        _cli_job("susy_s1", [*base, "--variant", "s1"], tmp / "susy_s1",
                 _susy_floor_reference),
        _cli_job("susy_both", [*base, "--variant", "both"], tmp / "susy_both"),
    ]
    return Workload(jobs)


WORKLOADS = {w.__name__: w for w in (identities, spectra_1d, nbody_grid, susy_pairs)}
