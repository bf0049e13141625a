"""Command-line driver.

Subcommands: verify, spectrum, susy, groundstate, chain.  Options may come
from a flat ``key = value`` config file (--config); command-line flags win.
Exit codes: 0 all checks passed, 1 a scientific check failed, 2 usage or
configuration error.  Outputs are byte-for-byte deterministic for a given
config and seed; every report embeds the resolved config and its sha256.

Config keys (also the long flag names): kind, n, alpha, omega,
beta_override, epsilon_sing, family, b, a, nmax, levels, grid_m, domain_min,
domain_max, stencil_order, trials, seed, tol, variant, cm_modes, reduce,
dump, outdir.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import models, shape1d, spectral, susy, verify
from .errors import DomainError, ShapeInvError
from .models import make_nbody_model, make_prepotential_1d, parse_key_values
from .spectral import GridSpec

_CONFIG_KEYS = {
    **models._CONFIG_KEYS,
    "family": str, "b": float, "a": float, "nmax": int, "levels": int,
    "grid_m": int, "domain_min": float, "domain_max": float,
    "stencil_order": int, "trials": int, "seed": int, "tol": float,
    "variant": str, "cm_modes": int, "reduce": bool, "dump": bool, "outdir": str,
}


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, then the config file, then every flag given on the command
    line (argparse leaves flags that were not given at None); kind and
    family aliases then resolve to their names in the model tables."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        cfg.update(parse_key_values(Path(args.config).read_text(), _CONFIG_KEYS,
                                    args.config))
    for key in defaults:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    for key, names in (("kind", models.KIND_NAMES), ("family", models.FAMILY_NAMES)):
        if cfg.get(key):
            if cfg[key] not in names:
                raise DomainError(f"unknown {key} {cfg[key]!r}; "
                                  f"expected one of {tuple(names)}")
            cfg[key] = names[cfg[key]]
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k} = {cfg[k]!r}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path: Path, payload: dict, cfg: dict):
    # outdir is not a scientific input: reports are byte-identical wherever
    # they are written
    cfg = {k: v for k, v in sorted(cfg.items()) if k != "outdir"}
    payload = dict(payload)
    payload["config"] = cfg
    payload["config_sha256"] = _config_hash(cfg)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(c) if isinstance(c, float) else str(c)
                              for c in row) + "\n")


def _model_from_cfg(cfg: dict):
    return make_nbody_model(cfg["kind"], cfg["n"], cfg["alpha"],
                            omega=cfg.get("omega"),
                            beta=cfg.get("beta_override"),
                            eps_sing=cfg.get("epsilon_sing", 1e-6))


def _prepotential_from_cfg(cfg: dict):
    family = cfg["family"]
    return make_prepotential_1d(family, [cfg[p] for p in models.FAMILIES[family].params])


def _outdir(cfg: dict) -> Path:
    out = Path(cfg.get("outdir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    defaults = {"kind": "calogero_sutherland", "n": 3, "alpha": 1.0,
                "omega": None, "beta_override": None, "epsilon_sing": 1e-6,
                "trials": 200, "seed": 7, "tol": None, "outdir": "."}
    cfg = _merge(args, defaults)
    model = _model_from_cfg(cfg)
    reports = verify.run_all(model, cfg["trials"], cfg["seed"], cfg["tol"])
    out = _outdir(cfg)
    all_pass = True
    for name, rep in reports.items():
        _write_json(out / f"{name}.json", rep.to_dict(), cfg)
        all_pass &= rep.to_dict()["pass"]
        print(f"{'PASS' if rep.to_dict()['pass'] else 'FAIL'}  {name}: "
              f"max residual {_residual_of(rep):.3e}")
    return 0 if all_pass else 1


def _residual_of(rep) -> float:
    d = rep.to_dict()
    return d.get("max_residual", d.get("residual_std", math.nan))


def _bound_levels(prep, n_max: int) -> tuple:
    """The algebraic levels E_0 .. E_n_max; DomainError when the chain holds
    fewer bound members."""
    chain = shape1d.algebraic_spectrum(prep, n_max)
    if chain.members <= n_max:
        raise DomainError(
            f"{prep.family}{prep.params} holds {chain.members} bound level(s): "
            f"chain member {chain.members} has no normalizable ground state, "
            f"so levels 0..{n_max} cannot be compared")
    return chain.energies


def cmd_spectrum(args) -> int:
    defaults = {"kind": None, "n": 2, "alpha": 1.0, "omega": None,
                "beta_override": None, "epsilon_sing": 1e-6,
                "family": None, "b": 2.0, "a": 1.0, "nmax": 5,
                "grid_m": 2000, "stencil_order": 4, "domain_min": None,
                "domain_max": None, "tol": 1e-3, "seed": 0,
                "reduce": False, "outdir": ".", "dump": False}
    cfg = _merge(args, defaults)
    out = _outdir(cfg)
    if cfg["family"]:
        prep = _prepotential_from_cfg(cfg)
        lo, hi = prep.domain()
        lo = cfg["domain_min"] if cfg["domain_min"] is not None else lo
        hi = cfg["domain_max"] if cfg["domain_max"] is not None else hi
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("unbounded domain: set domain_min/domain_max")
        levels = _bound_levels(prep, cfg["nmax"])
        grid = GridSpec.line(lo, hi, cfg["grid_m"])
        ham = spectral.discretize(prep, grid, cfg["stencil_order"])
        res = spectral.eigen(ham, cfg["nmax"] + 1, cfg["seed"])
        rows, worst = [], 0.0
        for k, (ea, eg) in enumerate(zip(levels, res.eigenvalues)):
            rel = abs(eg - ea) / max(1.0, abs(ea))
            worst = max(worst, rel)
            rows.append((k, float(ea), float(eg), float(rel)))
        _write_csv(out / "spectrum.csv",
                   ("level", "algebraic", "grid", "rel_error"), rows)
        if cfg["dump"]:
            for k in range(res.eigenvectors.shape[1]):
                vec = res.eigenvectors[:, k]
                lines = [f"{float(x)!r} {float(v)!r}"
                         for x, v in zip(ham.nodes[:, 0], vec)]
                (out / f"state_{k}.txt").write_text("\n".join(lines) + "\n")
        print(f"{'PASS' if worst <= cfg['tol'] else 'FAIL'}  spectrum: "
              f"max rel error {worst:.3e} (tol {cfg['tol']:.0e})")
        return 0 if worst <= cfg["tol"] else 1
    if not cfg["kind"]:
        raise DomainError("spectrum needs either --family or --kind")
    model = _model_from_cfg(cfg)
    if not cfg["reduce"]:
        raise DomainError("N-body spectra are supported through --reduce "
                          "(two-body relative problem)")
    red = spectral.two_body_reduction(model)
    _bound_levels(red.prep, cfg["nmax"])
    lo, hi = red.domain
    if not math.isfinite(hi):
        hi = cfg["domain_max"] if cfg["domain_max"] is not None else 12.0
    grid = GridSpec.line(lo, hi, cfg["grid_m"])
    ham = spectral.discretize(red.operator_potential, grid,
                              cfg["stencil_order"], kinetic_scale=red.kinetic_factor)
    res = spectral.eigen(ham, cfg["nmax"] + 1, cfg["seed"])
    alg = red.algebraic_energies(cfg["nmax"])
    rows, worst = [], 0.0
    for k in range(cfg["nmax"] + 1):
        rel = abs(res.eigenvalues[k] - alg[k]) / max(1.0, abs(alg[k]))
        worst = max(worst, rel)
        rows.append((k, float(alg[k]), float(res.eigenvalues[k]), float(rel)))
    _write_csv(out / "spectrum.csv",
               ("level", "algebraic", "grid", "rel_error"), rows)
    print(f"{'PASS' if worst <= cfg['tol'] else 'FAIL'}  reduced spectrum: "
          f"max rel error {worst:.3e}")
    return 0 if worst <= cfg["tol"] else 1


def cmd_susy(args) -> int:
    defaults = {"kind": "calogero_sutherland", "n": 2, "alpha": 1.0,
                "omega": None, "beta_override": None, "epsilon_sing": 1e-6,
                "variant": "s1", "grid_m": 64, "cm_modes": 8, "levels": 6,
                "stencil_order": 4, "tol": 1e-6, "outdir": "."}
    cfg = _merge(args, defaults)
    if cfg["variant"] not in ("s1", "s2", "both"):
        raise DomainError(f"variant must be s1, s2 or both, got {cfg['variant']!r}")
    model = _model_from_cfg(cfg)
    if model.n != 2:
        raise DomainError("the CLI susy command builds two-body systems")
    domain_hi = math.pi if model.kind == "calogero_sutherland" else 8.0
    grid = GridSpec.line(0.0, domain_hi, cfg["grid_m"])
    cm = susy.cm_momenta(cfg["cm_modes"])
    out = _outdir(cfg)
    ok = True
    if cfg["variant"] == "both":
        cmp = susy.variant_comparison(model, grid, cm, cfg["stencil_order"])
        _write_json(out / "variant_comparison.json", cmp, cfg)
        shared = cmp["sectors"][0]["relative_deviation_after_shift"] <= 1e-4
        distinct = cmp["sectors"][1]["relative_deviation_after_shift"] > 0.1
        ok = shared and distinct
        print(f"{'PASS' if ok else 'FAIL'}  variants: bosonic deviation "
              f"{cmp['sectors'][0]['relative_deviation_after_shift']:.2e}, "
              f"1-fermion deviation "
              f"{cmp['sectors'][1]['relative_deviation_after_shift']:.3f}")
        return 0 if ok else 1
    sys_ = susy.build_susy(model, grid, cfg["variant"], cm, cfg["stencil_order"])
    spectra = susy.sector_spectra(sys_, cfg["levels"])
    classify = susy.kernel_classify(sys_)
    pairing = susy.pairing_check(sys_, tol=cfg["tol"])
    rows = []
    for f, vals in spectra.items():
        tags = classify["sectors"][f]["tags"]
        for idx, lam in enumerate(vals):
            rows.append((f, idx, float(lam), tags[idx]))
    _write_csv(out / "sector_spectra.csv", ("sector", "index", "lambda", "ker_tag"), rows)
    payload = {
        "cm_momenta": list(sys_.cm_momenta),
        "diagnostics": sys_.diagnostics,
        "pairing": pairing,
        "kernel_counts": {str(f): classify["sectors"][f]["counts"]
                          for f in classify["sectors"]},
        "sector_minima": {str(f): float(spectra[f][0]) for f in spectra},
    }
    _write_json(out / "susy_report.json", payload, cfg)
    ok = (sys_.diagnostics["q_squared_fro"] < 1e-12
          and sys_.diagnostics["offblock_leak"] == 0.0
          and pairing["passed"])
    print(f"{'PASS' if ok else 'FAIL'}  susy {cfg['variant']}: |Q^2| = "
          f"{sys_.diagnostics['q_squared_fro']:.1e}, pairing gap "
          f"{pairing['max_relative_gap']:.2e}")
    return 0 if ok else 1


def cmd_groundstate(args) -> int:
    defaults = {"kind": "calogero_sutherland", "n": 2, "alpha": 1.0,
                "omega": None, "beta_override": None, "epsilon_sing": 1e-6,
                "grid_m": 500, "stencil_order": 4, "seed": 3, "trials": 25,
                "tol": 1e-8, "dump": False, "outdir": "."}
    cfg = _merge(args, defaults)
    model = _model_from_cfg(cfg)
    out = _outdir(cfg)
    from . import calculus as calc
    phi = calc.jastrow_function(model)
    rng_children = np.random.SeedSequence(cfg["seed"]).spawn(cfg["trials"])
    worst = 0.0
    for child in rng_children:
        rng = np.random.default_rng(child)
        x = verify.draw_configuration(model, rng)
        hval = calc.apply_hamiltonian_factorized(model, phi, x)
        scale = max(1.0, abs(model.potential(x))) * max(abs(phi(x)), 1e-300)
        worst = max(worst, abs(hval) / scale)
    energy = spectral.partner_ground_state(model).energy
    state_info = {"jet_residual": worst, "partner_energy": energy,
                  "normalizable": spectral._jastrow_normalizable(model),
                  "boundary_ambiguous": spectral.boundary_ambiguous(model)}
    if model.n == 2:
        domain_hi = math.pi if model.kind == "calogero_sutherland" else 8.0
        grid = GridSpec.line(0.0, domain_hi, cfg["grid_m"])
        gf, grid_resid = spectral.jastrow_ground_state(model, grid,
                                                       cfg["stencil_order"])
        state_info["grid_residual"] = grid_resid
        if cfg["dump"]:
            (out / "groundstate_state.txt").write_text(
                spectral.dump_grid_function(gf))
    _write_json(out / "groundstate.json", state_info, cfg)
    if not state_info["normalizable"]:
        print(f"WARN  ground state not normalizable for {model.kind} "
              f"alpha={model.alpha}")
    elif state_info["boundary_ambiguous"]:
        print(f"WARN  alpha={model.alpha} is in the ambiguous coincidence-"
              "boundary window (0, 1); grid spectra are not trusted there")
    ok = worst <= cfg["tol"]
    print(f"{'PASS' if ok else 'FAIL'}  groundstate: jet residual {worst:.3e}, "
          f"partner energy {energy!r}")
    return 0 if ok else 1


def cmd_chain(args) -> int:
    defaults = {"family": "rosen-morse", "b": 2.0, "a": 1.0, "levels": 3,
                "grid_m": 2048, "tol": 1e-2, "outdir": ".", "dump": False}
    cfg = _merge(args, defaults)
    if cfg["family"] != "rosen_morse_trig":
        raise DomainError("chain currently drives the trigonometric family")
    prep = _prepotential_from_cfg(cfg)
    lo, hi = prep.domain()
    grid = shape1d.Grid1D(lo, hi, cfg["grid_m"])
    levels = _bound_levels(prep, cfg["levels"])
    out = _outdir(cfg)
    rows, worst = [], 0.0
    for nlev in range(cfg["levels"] + 1):
        gf = shape1d.wavefunction_chain(prep, nlev, grid)
        rq = shape1d.rayleigh_quotient(prep, gf)
        expected = levels[nlev]
        rel = abs(rq - expected) / max(1.0, abs(expected))
        worst = max(worst, rel)
        rows.append((nlev, float(expected), float(rq), float(rel),
                     gf.sign_changes()))
        if cfg["dump"]:
            (out / f"chain_state_{nlev}.txt").write_text(
                "\n".join(gf.to_text_rows()) + "\n")
    _write_csv(out / "chain.csv",
               ("level", "algebraic", "rayleigh", "rel_error", "nodes"), rows)
    ok = worst <= cfg["tol"]
    print(f"{'PASS' if ok else 'FAIL'}  chain: max Rayleigh deviation {worst:.3e}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--kind", choices=tuple(models.KIND_NAMES))
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--beta-override", dest="beta_override", type=float)
    p.add_argument("--epsilon-sing", dest="epsilon_sing", type=float)


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--outdir")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shapeinv",
                                 description="shape-invariance verification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all identity checks for one model")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--trials", type=int)

    p = sub.add_parser("spectrum", help="algebraic vs grid spectra")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--family")
    p.add_argument("--b", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--nmax", type=int)
    p.add_argument("--grid-m", dest="grid_m", type=int)
    p.add_argument("--stencil-order", dest="stencil_order", type=int, choices=(2, 4))
    p.add_argument("--domain-min", dest="domain_min", type=float)
    p.add_argument("--domain-max", dest="domain_max", type=float)
    p.add_argument("--reduce", action="store_const", const=True)
    p.add_argument("--dump", action="store_const", const=True)

    p = sub.add_parser("susy", help="supersymmetric sector analysis")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--variant", choices=("s1", "s2", "both"))
    p.add_argument("--grid-m", dest="grid_m", type=int)
    p.add_argument("--cm-modes", dest="cm_modes", type=int,
                   help="center-of-mass momenta 0, 1, -1, 2, -2, ... to keep")
    p.add_argument("--levels", type=int)
    p.add_argument("--stencil-order", dest="stencil_order", type=int, choices=(2, 4))

    p = sub.add_parser("groundstate", help="product ground state residuals")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--grid-m", dest="grid_m", type=int)
    p.add_argument("--stencil-order", dest="stencil_order", type=int, choices=(2, 4))
    p.add_argument("--dump", action="store_const", const=True)

    p = sub.add_parser("chain", help="creation-operator wavefunction chains")
    _add_common(p)
    p.add_argument("--family")
    p.add_argument("--b", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--levels", type=int)
    p.add_argument("--grid-m", dest="grid_m", type=int)
    p.add_argument("--dump", action="store_const", const=True)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up at call time, so wrappers installed on cmd_* take effect
        return globals()[f"cmd_{args.command}"](args)
    except ShapeInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
