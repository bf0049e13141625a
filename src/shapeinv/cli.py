"""Command-line driver.

Subcommands: verify, spectrum, susy, groundstate, chain.  Options may come
from a flat ``key = value`` config file (--config), which this module alone
reads; command-line flags win.
Exit codes: 0 all checks passed, 1 a scientific check failed, 2 usage or
configuration error.  Outputs are byte-for-byte deterministic for a given
config and seed; every report embeds the resolved config and its sha256.

Each subcommand is one entry of COMMANDS: its help line and its defaults.
Each key of the defaults is a config key of _CONFIG_KEYS and also its long
flag, with dashes for underscores (grid_m is --grid-m).  --config,
--outdir, --seed and --tol are accepted by every subcommand, but a command
reads only the keys its entry lists.  Allowed values are checked once, in
_merge, for flags and config files alike.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

from . import models, shape1d, spectral, susy, verify
from .errors import DomainError, ShapeInvError
from .models import make_nbody_model, make_prepotential_1d
from .spectral import GridSpec

_CONFIG_KEYS = {
    "kind": str, "n": int, "alpha": float, "omega": float, "beta_override": float,
    "epsilon_sing": float, "family": str, "b": float, "a": float, "nmax": int,
    "levels": int, "grid_m": int, "domain_min": float, "domain_max": float,
    "stencil_order": int, "trials": int, "seed": int, "tol": float,
    "variant": str, "cm_modes": int, "reduce": bool, "dump": bool, "outdir": str,
}

_MODEL = {"omega": None, "beta_override": None, "epsilon_sing": 1e-6}

# name: (help, defaults); each key of the defaults is also a long flag
COMMANDS = {
    "verify": ("run all identity checks for one model",
               {"kind": "calogero_sutherland", "n": 3, "alpha": 1.0, **_MODEL,
                "trials": 200, "seed": 7, "tol": None, "outdir": "."}),
    "spectrum": ("algebraic vs grid spectra",
                 {"kind": None, "n": 2, "alpha": 1.0, **_MODEL,
                  "family": None, "b": 2.0, "a": 1.0, "nmax": 5,
                  "grid_m": 2000, "stencil_order": 4, "domain_min": None,
                  "domain_max": None, "tol": 1e-3, "seed": 0,
                  "reduce": False, "outdir": ".", "dump": False}),
    "susy": ("supersymmetric sector analysis",
             {"kind": "calogero_sutherland", "n": 2, "alpha": 1.0, **_MODEL,
              "variant": "s1", "grid_m": 64, "cm_modes": 8, "levels": 6,
              "tol": 1e-6, "outdir": "."}),
    "groundstate": ("product ground state residuals",
                    {"kind": "calogero_sutherland", "n": 2, "alpha": 1.0, **_MODEL,
                     "grid_m": 500, "stencil_order": 4, "seed": 3, "trials": 25,
                     "tol": 1e-8, "dump": False, "outdir": "."}),
    "chain": ("creation-operator wavefunction chains",
              {"family": "rosen-morse", "b": 2.0, "a": 1.0, "levels": 3,
               "grid_m": 2048, "tol": 1e-2, "outdir": ".", "dump": False}),
}

_CHOICES = {"stencil_order": (2, 4), "variant": ("s1", "s2", "both")}

_HELP = {"cm_modes": "center-of-mass momenta 0, 1, -1, 2, -2, ... to keep"}


def parse_key_values(text: str, types: dict, source: str = "config") -> dict:
    """Parse flat ``key = value`` lines ('#' starts a comment) into values
    of the types given per key; unknown keys and bad values are rejected
    with their line number."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise DomainError(f"{source}:{lineno}: unknown key {key!r}")
        caster = types[key]
        if caster is bool:
            if val.lower() not in ("true", "false", "0", "1"):
                raise DomainError(f"{source}:{lineno}: boolean key {key!r} got {val!r}")
            values[key] = val.lower() in ("true", "1")
        else:
            try:
                values[key] = caster(val)
            except ValueError as exc:
                raise DomainError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, then the config file, then every flag given on the command
    line (argparse leaves flags that were not given at None), each for the
    keys of defaults alone; kind and family aliases then resolve to their
    names in the model tables, keys with a fixed set of values are checked
    against it, tol must be None or finite and nonnegative, a seed, given or
    merged, must be nonnegative, and trials must be at least 1."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        given = parse_key_values(Path(args.config).read_text(), _CONFIG_KEYS, args.config)
        cfg.update((key, val) for key, val in given.items() if key in defaults)
    for key in defaults:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    for key, names in (("kind", models.KIND_NAMES), ("family", models.FAMILY_NAMES)):
        if cfg.get(key):
            if cfg[key] not in names:
                raise DomainError(f"unknown {key} {cfg[key]!r}; "
                                  f"expected one of {tuple(names)}")
            cfg[key] = names[cfg[key]]
    for key, allowed in _CHOICES.items():
        if key in cfg and cfg[key] not in allowed:
            raise DomainError(f"{key} must be one of {allowed}, got {cfg[key]!r}")
    if cfg.get("tol") is not None and not 0 <= cfg["tol"] < math.inf:
        raise DomainError(f"tol must be finite and nonnegative, got {cfg['tol']}")
    seed = cfg.get("seed", getattr(args, "seed", None))
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if cfg.get("trials", 1) < 1:
        raise DomainError(f"trials must be >= 1, got {cfg['trials']}")
    return cfg


def _write_text(path: Path, text: str):
    """Write text to path with "\\n" line ends, overwriting an existing file
    in place and cutting it to the new length.  Opening with truncation to
    zero would make ext4 (auto_da_alloc) start a disk write when the file
    closes, and the next rewrite of the file would wait for it: a
    millisecond or more per report, far more on a busy disk."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="\n") as fh:
        fh.write(text)
        fh.truncate()


def _stamp(cfg: dict) -> dict:
    """The resolved config and its sha256, as every report of a command
    embeds them."""
    # outdir is not a scientific input: reports are byte-identical wherever
    # they are written
    cfg = {k: v for k, v in sorted(cfg.items()) if k != "outdir"}
    canon = "\n".join(f"{k} = {v!r}" for k, v in cfg.items())
    return {"config": cfg, "config_sha256": hashlib.sha256(canon.encode()).hexdigest()}


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _finish(cfg: dict, ok: bool, lines, files: dict,
            dump_pattern: str | None = None, dumps: dict | None = None) -> int:
    """Write a command's outputs, print its lines and return the exit code
    of the verdict ok.  Every command calls this last, once its work is
    done, so a run that fails writes nothing, not even its outdir.  files
    and dumps map names to texts; a dict in files is a report, written as
    sorted JSON with the command's stamp.  Files in the outdir that match
    dump_pattern (a regex) and that this run did not write are deleted, so
    a rerun leaves no dump of an earlier run behind, also without --dump."""
    out = Path(cfg["outdir"])
    out.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(cfg)
    dumps = dumps or {}
    for name, body in {**files, **dumps}.items():
        if isinstance(body, dict):
            body = json.dumps({**body, **stamp}, sort_keys=True, indent=2) + "\n"
        _write_text(out / name, body)
    if dump_pattern:
        for path in out.iterdir():
            if path.name not in dumps and re.fullmatch(dump_pattern, path.name):
                path.unlink()
    for line in lines:
        print(line)
    return 0 if ok else 1


def _model_from_cfg(cfg: dict):
    return make_nbody_model(cfg["kind"], cfg["n"], cfg["alpha"],
                            omega=cfg.get("omega"),
                            beta=cfg.get("beta_override"),
                            eps_sing=cfg.get("epsilon_sing", 1e-6))


def _prepotential_from_cfg(cfg: dict):
    family = cfg["family"]
    return make_prepotential_1d(family, [cfg[p] for p in models.FAMILIES[family].params])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _merge(args, COMMANDS["verify"][1])
    model = _model_from_cfg(cfg)
    reports = verify.run_all(model, cfg["trials"], cfg["seed"], cfg["tol"])
    files, lines = {}, []
    for name, rep in reports.items():
        d = files[f"{name}.json"] = rep.to_dict()
        residual = d.get("max_residual", d.get("residual_std", math.nan))
        lines.append(f"{'PASS' if d['pass'] else 'FAIL'}  {name}: "
                     f"max residual {residual:.3e}")
    return _finish(cfg, all(d["pass"] for d in files.values()), lines, files)


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
    cfg = _merge(args, COMMANDS["spectrum"][1])
    if cfg["family"]:
        prep = _prepotential_from_cfg(cfg)
        lo, hi = prep.domain()
        lo = cfg["domain_min"] if cfg["domain_min"] is not None else lo
        hi = cfg["domain_max"] if cfg["domain_max"] is not None else hi
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("unbounded domain: set domain_min/domain_max")
        levels = _bound_levels(prep, cfg["nmax"])
        ham = spectral.discretize(prep, GridSpec.line(lo, hi, cfg["grid_m"]),
                                  cfg["stencil_order"])
        label = "spectrum"
    else:
        if not cfg["kind"]:
            raise DomainError("spectrum needs either --family or --kind")
        model = _model_from_cfg(cfg)
        if not cfg["reduce"]:
            raise DomainError("N-body spectra are supported through --reduce "
                              "(two-body relative problem)")
        prep = spectral.relative_prepotential(model)
        levels = [spectral.RELATIVE_KINETIC * e for e in _bound_levels(prep, cfg["nmax"])]
        lo, hi = prep.domain()
        if cfg["domain_min"] is not None:
            raise DomainError(f"the relative grid starts at the wall r = {lo!r}, "
                              "so domain_min does not apply under reduce")
        if not math.isfinite(hi):
            hi = cfg["domain_max"] if cfg["domain_max"] is not None else 12.0
        elif cfg["domain_max"] is not None:
            raise DomainError(f"the relative grid ends at the wall r = {hi!r}, "
                              "so domain_max does not apply to this kind")
        ham = spectral.reduced_hamiltonian(model, GridSpec.line(lo, hi, cfg["grid_m"]),
                                           cfg["stencil_order"])
        label = "reduced spectrum"
    res = spectral.eigen(ham, cfg["nmax"] + 1, cfg["seed"])
    rows, worst = [], 0.0
    for k, (ea, eg) in enumerate(zip(levels, res.eigenvalues)):
        rel = abs(eg - ea) / max(1.0, abs(ea))
        worst = max(worst, rel)
        rows.append((k, float(ea), float(eg), float(rel)))
    dumps = {}
    if cfg["dump"]:
        for k in range(res.eigenvectors.shape[1]):
            lines = [f"{float(x)!r} {float(v)!r}"
                     for x, v in zip(ham.nodes[:, 0], res.eigenvectors[:, k])]
            dumps[f"state_{k}.txt"] = "\n".join(lines) + "\n"
    ok = worst <= cfg["tol"]
    return _finish(cfg, ok, [f"{'PASS' if ok else 'FAIL'}  {label}: max rel error "
                             f"{worst:.3e} (tol {cfg['tol']:.0e})"],
                   {"spectrum.csv": _csv_text(("level", "algebraic", "grid", "rel_error"),
                                              rows)},
                   r"state_\d+\.txt", dumps)


def cmd_susy(args) -> int:
    cfg = _merge(args, COMMANDS["susy"][1])
    if cfg["levels"] < 1:
        raise DomainError(f"levels must be at least 1, got {cfg['levels']}")
    model = _model_from_cfg(cfg)
    if model.n != 2:
        raise DomainError("the CLI susy command builds two-body systems")
    grid = GridSpec.line(0.0, min(model.pair.prep.domain()[1], 8.0), cfg["grid_m"])
    cm = susy.cm_momenta(cfg["cm_modes"])
    if cfg["variant"] == "both":
        cmp = susy.variant_comparison(model, grid, cm, levels=cfg["levels"])
        bosonic, fermionic = (cmp["sectors"][f]["relative_deviation_after_shift"]
                              for f in (0, 1))
        # the 1-fermion spectra can differ after the shift only where R != 0
        compared = cmp["remainder"] != 0.0
        ok = bosonic <= 1e-4 and (fermionic > 0.1 or not compared)
        return _finish(cfg, ok, [f"{'PASS' if ok else 'FAIL'}  variants: bosonic "
                                 f"deviation {bosonic:.2e}, 1-fermion deviation "
                                 + (f"{fermionic:.3f}" if compared
                                    else "(R = 0: not compared)")],
                       {"variant_comparison.json": cmp})
    sys_ = susy.build_susy(model, grid, cfg["variant"], cm)
    spectra = susy.sector_spectra(sys_, cfg["levels"])
    classify = susy.kernel_classify(sys_)
    pairing = susy.pairing_check(sys_, tol=cfg["tol"])
    rows = []
    for f, vals in spectra.items():
        tags = classify["sectors"][f]["tags"]
        for idx, lam in enumerate(vals):
            rows.append((f, idx, float(lam), tags[idx]))
    payload = {
        "cm_momenta": list(sys_.cm_momenta),
        "diagnostics": sys_.diagnostics,
        "pairing": pairing,
        "kernel_counts": {str(f): classify["sectors"][f]["counts"]
                          for f in classify["sectors"]},
        "sector_minima": {str(f): float(spectra[f][0]) for f in spectra},
    }
    ok = (sys_.diagnostics["q_squared_fro"] < 1e-12
          and sys_.diagnostics["offblock_leak"] == 0.0
          and pairing["passed"])
    return _finish(cfg, ok, [f"{'PASS' if ok else 'FAIL'}  susy {cfg['variant']}: "
                             f"|Q^2| = {sys_.diagnostics['q_squared_fro']:.1e}, "
                             f"pairing gap {pairing['max_relative_gap']:.2e}"],
                   {"sector_spectra.csv": _csv_text(("sector", "index", "lambda",
                                                     "ker_tag"), rows),
                    "susy_report.json": payload})


def cmd_groundstate(args) -> int:
    cfg = _merge(args, COMMANDS["groundstate"][1])
    model = _model_from_cfg(cfg)
    state_info, dumps = {}, {}
    if model.n == 2:
        # the relative grid validates the pair's family before the jet draws
        grid = GridSpec.line(0.0, min(model.pair.prep.domain()[1], 8.0), cfg["grid_m"])
        gf, state_info["grid_residual"] = spectral.jastrow_ground_state(
            model, grid, cfg["stencil_order"])
        if cfg["dump"]:
            dumps["groundstate_state.txt"] = spectral.dump_grid_function(gf)
    worst = verify.jastrow_residual(model, cfg["trials"], cfg["seed"])
    energy = models.remainder_shift(model)
    state_info.update(jet_residual=worst, partner_energy=energy,
                      normalizable=model.kind_row.normalizable(model),
                      boundary_ambiguous=spectral.boundary_ambiguous(model))
    lines = []
    if not state_info["normalizable"]:
        lines.append(f"WARN  ground state not normalizable for {model.kind} "
                     f"alpha={model.alpha}")
    elif state_info["boundary_ambiguous"]:
        lines.append(f"WARN  alpha={model.alpha} is in the ambiguous coincidence-"
                     "boundary window (0, 1); grid spectra are not trusted there")
    ok = worst <= cfg["tol"]
    lines.append(f"{'PASS' if ok else 'FAIL'}  groundstate: jet residual {worst:.3e}, "
                 f"partner energy {energy!r}")
    return _finish(cfg, ok, lines, {"groundstate.json": state_info},
                   r"groundstate_state\.txt", dumps)


def cmd_chain(args) -> int:
    cfg = _merge(args, COMMANDS["chain"][1])
    if cfg["family"] != "rosen_morse_trig":
        raise DomainError("chain currently drives the trigonometric family")
    prep = _prepotential_from_cfg(cfg)
    lo, hi = prep.domain()
    grid = GridSpec.line(lo, hi, cfg["grid_m"])
    levels = _bound_levels(prep, cfg["levels"])
    rows, worst, dumps = [], 0.0, {}
    for nlev in range(cfg["levels"] + 1):
        gf = shape1d.wavefunction_chain(prep, nlev, grid)
        rq = shape1d.rayleigh_quotient(prep, gf)
        expected = levels[nlev]
        rel = abs(rq - expected) / max(1.0, abs(expected))
        worst = max(worst, rel)
        rows.append((nlev, float(expected), float(rq), float(rel),
                     gf.sign_changes()))
        if cfg["dump"]:
            dumps[f"chain_state_{nlev}.txt"] = "\n".join(gf.to_text_rows()) + "\n"
    ok = worst <= cfg["tol"]
    return _finish(cfg, ok, [f"{'PASS' if ok else 'FAIL'}  chain: max Rayleigh "
                             f"deviation {worst:.3e}"],
                   {"chain.csv": _csv_text(("level", "algebraic", "rayleigh",
                                            "rel_error", "nodes"), rows)},
                   r"chain_state_\d+\.txt", dumps)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shapeinv",
                                 description="shape-invariance verification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="flat key = value config file")
        for key in dict.fromkeys([*defaults, "outdir", "seed", "tol"]):
            flag = "--" + key.replace("_", "-")  # argparse maps it back to dest=key
            if _CONFIG_KEYS[key] is bool:
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=_CONFIG_KEYS[key], help=_HELP.get(key))
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
    except (ShapeInvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
