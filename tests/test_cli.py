import argparse
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import pytest

from shapeinv import cli, models


def run(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_writes_six_reports(tmp_path):
    code = run(["verify", "--kind", "cs", "--n", "3", "--alpha", "1",
                "--trials", "40", "--seed", "7", "--outdir", str(tmp_path)])
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("*.json"))
    assert len(files) == 6
    payload = json.loads((tmp_path / "factorization.json").read_text())
    assert payload["pass"] is True
    assert payload["seed"] == 7
    assert "config_sha256" in payload and "config" in payload


def test_verify_bad_particle_count(tmp_path):
    code = run(["verify", "--kind", "calogero", "--n", "1",
                "--outdir", str(tmp_path)])
    assert code == 2


def test_verify_unreachable_tolerance(tmp_path):
    code = run(["verify", "--kind", "cs", "--n", "2", "--alpha", "1",
                "--trials", "20", "--tol", "1e-20", "--outdir", str(tmp_path)])
    assert code == 1
    payload = json.loads((tmp_path / "three_body_cancellation.json").read_text())
    assert payload["max_residual"] > 0.0  # actual residuals still recorded


def test_verify_harmonic_reads_its_pair_row(tmp_path, monkeypatch):
    # without the alpha beta term of vtilde0 the beta cross products of
    # sum W_i^2 no longer balance, and the three-body check must say so
    flags = ["verify", "--kind", "harmonic_calogero", "--n", "4", "--alpha", "1.5",
             "--omega", "1"]
    assert run([*flags, "--outdir", str(tmp_path / "row")]) == 0
    row = models.PAIR_ROWS["rational_harmonic"]
    monkeypatch.setitem(models.PAIR_ROWS, "rational_harmonic", dataclasses.replace(
        row, vtilde0=lambda x, a, b: 0.5 * a ** 2 * x ** 2))
    assert run([*flags, "--outdir", str(tmp_path / "mutated")]) == 1
    for name in ("row", "mutated"):
        reports = {p.name: json.loads(p.read_text()) for p in (tmp_path / name).glob("*.json")}
        failed = sorted(k for k, v in reports.items() if not v["pass"])
        assert failed == ([] if name == "row" else ["three_body_cancellation.json"])


@pytest.mark.parametrize("flags, message", [
    (["--kind", "calogero", "--beta-override", "0.3"], "calogero does not take beta"),
    (["--kind", "cs", "--beta-override", "0.3"], "calogero_sutherland does not take beta"),
    (["--kind", "cs", "--alpha", "nan"], "alpha must be finite"),
    (["--kind", "harmonic_calogero", "--omega", "inf"], "omega must be finite"),
    (["--kind", "harmonic_calogero", "--omega", "1", "--beta-override=-inf"],
     "beta must be finite"),
    (["--kind", "cs", "--epsilon-sing", "nan"], "eps_sing must be finite"),
])
def test_verify_rejects_bad_model_parameters(tmp_path, capsys, flags, message):
    code = run(["verify", "--n", "3", "--trials", "4", *flags, "--outdir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no report records the rejected input


def test_verify_unknown_flag():
    assert run(["verify", "--nonsense", "3"]) == 2


def test_missing_subcommand():
    assert run([]) == 2


def test_parser_built_once_and_command_resolved_per_call(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.n) or 0)
    assert run(["verify", "--n", "3"]) == 0
    assert run(["verify", "--n", "4"]) == 0
    assert seen == [3, 4]
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_rosen_morse(tmp_path):
    code = run(["spectrum", "--family", "rosen-morse", "--b", "2", "--a", "1",
                "--nmax", "5", "--grid-m", "2000", "--outdir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "level,algebraic,grid,rel_error"
    assert len(rows) == 7
    level0 = rows[1].split(",")
    assert float(level0[1]) == 0.0
    assert all(float(r.split(",")[3]) <= 1e-3 for r in rows[1:])


@pytest.mark.parametrize("flags,members", [
    (["--family", "coth", "--a", "0.3", "--nmax", "2", "--domain-max", "10"], 1),
    (["--family", "sign", "--a", "1", "--nmax", "1",
      "--domain-min", "-10", "--domain-max", "10"], 1),
    (["--kind", "calogero", "--n", "2", "--alpha", "2", "--reduce", "--nmax", "2"], 0),
])
def test_spectrum_nmax_beyond_bound_levels(tmp_path, capsys, flags, members):
    code = run(["spectrum", *flags, "--grid-m", "200", "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"holds {members} bound level(s)" in err
    assert "no normalizable ground state" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_dump_states(tmp_path):
    code = run(["spectrum", "--family", "rosen-morse", "--b", "2", "--a", "1",
                "--nmax", "1", "--grid-m", "600", "--dump",
                "--outdir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "state_0.txt").read_text().splitlines()
    assert len(lines) == 599  # interior nodes
    x0, v0 = lines[0].split()
    assert 0.0 < float(x0) < 0.01


def test_spectrum_box_case(tmp_path):
    code = run(["spectrum", "--family", "rosen-morse", "--b", "1", "--a", "1",
                "--nmax", "3", "--grid-m", "1200", "--outdir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    algebraic = [float(r.split(",")[1]) for r in rows]
    assert algebraic == [0.0, 3.0, 8.0, 15.0]


def test_spectrum_reduced(tmp_path):
    code = run(["spectrum", "--kind", "cs", "--n", "2", "--alpha", "2",
                "--reduce", "--nmax", "3", "--grid-m", "1500",
                "--outdir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    algebraic = [float(r.split(",")[1]) for r in rows]
    assert algebraic == [0.0, 10.0, 24.0, 42.0]


def test_spectrum_reduced_dump_states(tmp_path):
    code = run(["spectrum", "--kind", "cs", "--n", "2", "--alpha", "2", "--reduce",
                "--nmax", "2", "--grid-m", "800", "--dump", "--outdir", str(tmp_path)])
    assert code == 0
    for k in range(3):
        lines = (tmp_path / f"state_{k}.txt").read_text().splitlines()
        assert len(lines) == 799  # interior nodes of the relative grid
    r0, _ = lines[0].split()
    assert 0.0 < float(r0) < 0.01


@pytest.mark.parametrize("flags,message", [
    (["--kind", "cs", "--domain-min", "0.5"], "starts at the wall r = 0.0"),
    (["--kind", "cs", "--domain-max", "2"], "ends at the wall r = 3.14"),
    (["--kind", "harmonic_calogero", "--omega", "1", "--domain-min", "0.5",
      "--domain-max", "10"], "starts at the wall r = 0.0"),
])
def test_spectrum_reduced_rejects_domain_overrides(tmp_path, capsys, flags, message):
    code = run(["spectrum", *flags, "--n", "2", "--alpha", "2", "--reduce",
                "--nmax", "2", "--grid-m", "800", "--dump", "--outdir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


CS_NEGATIVE = ["--kind", "cs", "--alpha", "-0.3"]


@pytest.mark.parametrize("argv", [
    ["spectrum", *CS_NEGATIVE, "--n", "2", "--reduce", "--nmax", "1", "--grid-m", "200"],
    ["groundstate", *CS_NEGATIVE, "--n", "2", "--trials", "5"],
], ids=["spectrum_reduce", "groundstate"])
def test_negative_cs_relative_problem_is_rejected(tmp_path, capsys, argv):
    # the N = 2 relative problem is a validated 1-D prepotential: the
    # rosen_morse_trig family takes b = alpha >= 0 only
    out = tmp_path / "out"
    assert run([*argv, "--outdir", str(out)]) == 2
    assert "rosen_morse_trig requires b >= 0" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["chain", "--levels", "1", "--grid-m", "256"], "chain grids need at least 511 cells"),
    (["susy", "--kind", "cs", "--n", "2", "--grid-m", "700"],
     "sector 0 dimension 5592 exceeds dense cap 5000"),
], ids=["chain_grid_m_256", "susy_grid_m_700"])
def test_exit_2_mid_command_creates_no_outdir(tmp_path, capsys, argv, message):
    # these fail only inside the command's work, after its config resolved
    out = tmp_path / "out"
    assert run([*argv, "--outdir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_groundstate_validates_before_jet_draws(tmp_path, capsys, monkeypatch):
    calls = []
    jastrow_residual = cli.verify.jastrow_residual
    monkeypatch.setattr(cli.verify, "jastrow_residual",
                        lambda *a: calls.append(a) or jastrow_residual(*a))
    assert run(["groundstate", *CS_NEGATIVE, "--n", "2", "--outdir", str(tmp_path)]) == 2
    assert "rosen_morse_trig requires b >= 0" in capsys.readouterr().err
    assert calls == []


def test_groundstate_rejects_zero_trials_before_the_grid(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.spectral, "jastrow_ground_state",
                        lambda *a: calls.append(a))
    out = tmp_path / "out"
    assert run(["groundstate", "--kind", "cs", "--n", "2", "--trials", "0",
                "--outdir", str(out)]) == 2
    assert "trials must be >= 1, got 0" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", *CS_NEGATIVE, "--n", "3", "--trials", "20"],
    ["susy", *CS_NEGATIVE, "--n", "2", "--grid-m", "32", "--variant", "s1"],
], ids=["verify_n3", "susy_n2"])
def test_negative_cs_pair_term_is_not_validated(tmp_path, argv):
    # the N-body pair term takes -1/2 < alpha < 0, which the 1-D family rejects
    assert run([*argv, "--outdir", str(tmp_path)]) == 0


SIGN_SPECTRUM =["spectrum", "--family", "sign", "--a", "1", "--nmax", "0",
                 "--domain-min", "-10", "--domain-max", "10"]


def test_spectrum_sign_delta_bound_state(tmp_path):
    # the -2a delta spike binds exp(-a|x|) at E0 = 0; the kink of that state
    # leaves the order-4 stencil first order, so the check runs at order 2
    code = run([*SIGN_SPECTRUM, "--grid-m", "2000", "--stencil-order", "2",
                "--outdir", str(tmp_path)])
    assert code == 0
    level0 = (tmp_path / "spectrum.csv").read_text().splitlines()[1].split(",")
    assert float(level0[1]) == 0.0
    assert 0.0 < float(level0[2]) < 1e-4


def test_spectrum_sign_needs_node_at_origin(tmp_path, capsys):
    code = run([*SIGN_SPECTRUM, "--grid-m", "2001", "--stencil-order", "2",
                "--outdir", str(tmp_path)])
    assert code == 2
    assert "delta spike at x = 0" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_needs_family_or_kind(tmp_path):
    assert run(["spectrum", "--outdir", str(tmp_path), "--nmax", "2",
                "--family", "unknown-family"]) == 2


# ---------------------------------------------------------------------------
# susy
# ---------------------------------------------------------------------------

def test_susy_s1(tmp_path):
    code = run(["susy", "--kind", "cs", "--n", "2", "--alpha", "1",
                "--variant", "s1", "--grid-m", "48", "--outdir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "susy_report.json").read_text())
    assert payload["diagnostics"]["q_squared_fro"] < 1e-12
    assert payload["sector_minima"]["0"] == pytest.approx(6.0, abs=1e-2)
    assert abs(payload["sector_minima"]["2"]) < 1e-8
    rows = (tmp_path / "sector_spectra.csv").read_text().splitlines()
    assert rows[0] == "sector,index,lambda,ker_tag"


def test_susy_variant_both(tmp_path):
    code = run(["susy", "--kind", "cs", "--n", "2", "--alpha", "1",
                "--variant", "both", "--grid-m", "48", "--outdir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "variant_comparison.json").read_text())
    assert payload["sectors"]["1"]["relative_deviation_after_shift"] > 0.1


def test_susy_variant_both_reads_levels(tmp_path):
    # the shift is fitted to the lowest `levels` levels of each sector: one
    # level always fits it exactly, so the 1-fermion spectra cannot differ
    deviations = {}
    for levels, expected_code in ((1, 1), (6, 0)):
        out = tmp_path / str(levels)
        code = run(["susy", "--kind", "cs", "--n", "2", "--alpha", "1", "--variant", "both",
                    "--grid-m", "32", "--levels", str(levels),
                    "--outdir", str(out)])
        assert code == expected_code
        payload = json.loads((out / "variant_comparison.json").read_text())
        deviations[levels] = [payload["sectors"][f]["relative_deviation_after_shift"]
                              for f in "012"]
    assert deviations[1] == [0.0, 0.0, 0.0]
    assert deviations[6][1] > 0.1


@pytest.mark.parametrize("levels", [0, -1])
def test_susy_levels_below_one_rejected(tmp_path, capsys, levels):
    for variant in ("s1", "both"):
        code = run(["susy", "--grid-m", "16", "--variant", variant, "--levels", str(levels),
                    "--outdir", str(tmp_path)])
        assert code == 2
        assert "levels must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_susy_invalid_variant(tmp_path):
    assert run(["susy", "--variant", "s9", "--outdir", str(tmp_path)]) == 2


def test_susy_variant_both_calogero_remainder_zero(tmp_path, capsys):
    # calogero has R = 0, so its two variants' 1-fermion spectra coincide
    # after the shift; the comparison says so instead of failing
    code = run(["susy", "--kind", "calogero", "--n", "2", "--alpha", "2", "--variant", "both",
                "--grid-m", "48", "--outdir", str(tmp_path)])
    assert code == 0
    assert "(R = 0: not compared)" in capsys.readouterr().out
    payload = json.loads((tmp_path / "variant_comparison.json").read_text())
    assert payload["remainder"] == 0.0
    assert payload["sectors"]["0"]["relative_deviation_after_shift"] <= 1e-4


@pytest.mark.parametrize("modes", [1, 3, 12])
def test_susy_cm_modes_count(tmp_path, modes):
    code = run(["susy", "--kind", "cs", "--n", "2", "--alpha", "1", "--grid-m", "16",
                "--cm-modes", str(modes), "--outdir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "susy_report.json").read_text())
    assert payload["cm_momenta"] == [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6][:modes]


@pytest.mark.parametrize("modes", [0, -1])
def test_susy_cm_modes_below_one_rejected(tmp_path, capsys, modes):
    code = run(["susy", "--grid-m", "16", "--cm-modes", str(modes),
                "--outdir", str(tmp_path)])
    assert code == 2
    assert "center-of-mass momentum" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# groundstate
# ---------------------------------------------------------------------------

def test_groundstate_cs(tmp_path):
    code = run(["groundstate", "--kind", "cs", "--n", "2", "--alpha", "1",
                "--grid-m", "400", "--dump", "--outdir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "groundstate.json").read_text())
    assert payload["partner_energy"] == pytest.approx(6.0)
    assert payload["jet_residual"] < 1e-8
    assert payload["normalizable"] is True
    dump = (tmp_path / "groundstate_state.txt").read_text()
    assert dump.startswith("# dimension 1")


def test_groundstate_jet_residual_n3(tmp_path):
    code = run(["groundstate", "--kind", "calogero", "--n", "3", "--alpha", "2",
                "--trials", "15", "--outdir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "groundstate.json").read_text())
    assert payload["jet_residual"] < 1e-8


def test_groundstate_boundary_window_warns(tmp_path, capsys):
    # alpha = 0.4 sits in the window where both coincidence behaviors are
    # square-integrable; the run must carry a warning flag
    code = run(["groundstate", "--kind", "cs", "--n", "2", "--alpha", "0.4",
                "--grid-m", "300", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "WARN" in out
    payload = json.loads((tmp_path / "groundstate.json").read_text())
    assert payload["boundary_ambiguous"] is True


def test_groundstate_non_normalizable_warns(tmp_path, capsys):
    code = run(["groundstate", "--kind", "calogero", "--n", "2", "--alpha", "2",
                "--grid-m", "300", "--trials", "10", "--outdir", str(tmp_path)])
    assert code == 0
    assert "WARN" in capsys.readouterr().out
    payload = json.loads((tmp_path / "groundstate.json").read_text())
    assert payload["normalizable"] is False


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def test_chain_levels(tmp_path):
    code = run(["chain", "--family", "rosen-morse", "--b", "2", "--a", "1",
                "--levels", "2", "--grid-m", "1024", "--dump",
                "--outdir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "chain.csv").read_text().splitlines()
    assert rows[0] == "level,algebraic,rayleigh,rel_error,nodes"
    nodes = [int(r.split(",")[4]) for r in rows[1:]]
    assert nodes == [0, 1, 2]
    assert (tmp_path / "chain_state_1.txt").exists()


def test_rerun_into_same_outdir_rewrites_reports_whole(tmp_path):
    """Reports are overwritten in place; a shorter rerun leaves no old tail."""
    def chain(levels, outdir):
        assert run(["chain", "--family", "rosen-morse", "--b", "2", "--a", "1",
                    "--levels", str(levels), "--grid-m", "1024",
                    "--outdir", str(outdir)]) == 0
        return (outdir / "chain.csv").read_bytes()

    fresh = chain(1, tmp_path / "fresh")
    chain(3, tmp_path / "rerun")
    assert chain(1, tmp_path / "rerun") == fresh
    assert len(fresh.splitlines()) == 3


@pytest.mark.parametrize("argv,count_flag,pattern", [
    (["spectrum", "--family", "rosen-morse", "--b", "2", "--a", "1", "--grid-m", "600"],
     "--nmax", "state_*.txt"),
    (["chain", "--family", "rosen-morse", "--b", "2", "--a", "1", "--grid-m", "512"],
     "--levels", "chain_state_*.txt"),
])
def test_rerun_into_same_outdir_leaves_no_stale_dumps(tmp_path, argv, count_flag, pattern):
    """A rerun's dump files are those its own config writes, and no more."""
    (tmp_path / "state_notes.txt").write_text("not a dump\n")

    def dumped(count, *dump):
        assert run([*argv, count_flag, str(count), *dump, "--outdir", str(tmp_path)]) == 0
        return sorted(p.name for p in tmp_path.glob(pattern) if p.name != "state_notes.txt")

    prefix = pattern.split("*")[0]
    assert dumped(3, "--dump") == [f"{prefix}{k}.txt" for k in range(4)]
    assert dumped(1, "--dump") == [f"{prefix}0.txt", f"{prefix}1.txt"]
    assert dumped(1) == []
    assert (tmp_path / "state_notes.txt").read_text() == "not a dump\n"


def test_groundstate_rerun_without_dump_removes_its_dump(tmp_path):
    argv = ["groundstate", "--kind", "cs", "--n", "2", "--alpha", "2", "--trials", "5",
            "--grid-m", "200", "--outdir", str(tmp_path)]
    assert run([*argv, "--dump"]) == 0
    assert (tmp_path / "groundstate_state.txt").exists()
    assert run(argv) == 0
    assert not (tmp_path / "groundstate_state.txt").exists()


@pytest.mark.parametrize("flags,message", [
    (["--a", "0"], "grid endpoints must be finite"),
    (["--family", "nope"], "unknown family 'nope'"),
    (["--b", "nan"], "b must be finite, got nan"),
])
def test_chain_rejects_bad_input_cleanly(tmp_path, capsys, flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["chain", *flags, "--outdir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files and determinism
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cases = [
        # (file, flags, expected n, trials, seed)
        ("kind = calogero_sutherland\nn = 2\nalpha = 1\ntrials = 25\nseed = 3\n",
         ["--seed", "9"], 2, 25, 9),
        # a flag wins even when its value equals the subcommand default
        ("kind = calogero\nn = 4\nalpha = 1.5\n", ["--n", "3", "--trials", "2"],
         3, 2, 7),
    ]
    for case, (text, flags, n, trials, seed) in enumerate(cases):
        cfg = tmp_path / f"run{case}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"out{case}"
        code = run(["verify", "--config", str(cfg), *flags, "--outdir", str(out)])
        assert code == 0
        payload = json.loads((out / "factorization.json").read_text())
        assert payload["model"]["n"] == n
        assert payload["trials"] == trials
        assert payload["seed"] == seed


def test_config_file_resolves_kind_alias(tmp_path):
    # the config file and the flags resolve aliases through the same table
    cfg = tmp_path / "cs.cfg"
    cfg.write_text("kind = cs\nn = 3\nalpha = 1\ntrials = 12\n")
    by_file, by_flags = tmp_path / "file", tmp_path / "flags"
    assert run(["verify", "--config", str(cfg), "--outdir", str(by_file)]) == 0
    assert run(["verify", "--kind", "cs", "--n", "3", "--alpha", "1", "--trials", "12",
                "--outdir", str(by_flags)]) == 0
    names = sorted(p.name for p in by_flags.iterdir())
    assert sorted(p.name for p in by_file.iterdir()) == names and len(names) == 6
    for name in names:
        assert (by_file / name).read_bytes() == (by_flags / name).read_bytes()


_MODEL_FLAGS = ["--alpha", "--beta-override", "--epsilon-sing", "--kind", "--n", "--omega"]
_COMMON_FLAGS = ["--config", "--help", "--outdir", "--seed", "--tol"]


@pytest.mark.parametrize("command,flags", [
    ("verify", [*_MODEL_FLAGS, "--trials"]),
    ("spectrum", [*_MODEL_FLAGS, "--a", "--b", "--domain-max", "--domain-min", "--dump",
                  "--family", "--grid-m", "--nmax", "--reduce", "--stencil-order"]),
    ("susy", [*_MODEL_FLAGS, "--cm-modes", "--grid-m", "--levels", "--variant"]),
    ("groundstate", [*_MODEL_FLAGS, "--dump", "--grid-m", "--stencil-order", "--trials"]),
    ("chain", ["--a", "--b", "--dump", "--family", "--grid-m", "--levels"]),
])
def test_subcommand_long_options(command, flags):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [o for a in sub.choices[command]._actions for o in a.option_strings
               if o.startswith("--")]
    assert sorted(options) == sorted([*flags, *_COMMON_FLAGS])


def test_command_keys_are_config_keys():
    for _, defaults in cli.COMMANDS.values():
        assert set(defaults) <= set(cli._CONFIG_KEYS)


def test_config_value_checked_like_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stencil_order = 3\n")
    out = tmp_path / "out"
    code = run(["groundstate", "--kind", "cs", "--n", "3", "--trials", "5",
                "--config", str(cfg), "--outdir", str(out)])
    assert code == 2
    assert "stencil_order must be one of (2, 4), got 3" in capsys.readouterr().err
    assert not (out / "groundstate.json").exists()


def test_config_keys_a_command_does_not_list_are_ignored(tmp_path):
    # susy builds at stencil order 4 alone, so its reports must not record
    # another order from a config file shared with other commands
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stencil_order = 2\ntrials = 5\n")
    by_file, by_flags = tmp_path / "file", tmp_path / "flags"
    argv = ["susy", "--kind", "cs", "--n", "2", "--grid-m", "16"]
    assert run([*argv, "--config", str(cfg), "--outdir", str(by_file)]) == 0
    assert run([*argv, "--outdir", str(by_flags)]) == 0
    for name in ("susy_report.json", "sector_spectra.csv"):
        assert (by_file / name).read_bytes() == (by_flags / name).read_bytes()


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--family", "rosen-morse", "--stencil-order", "3"],
     "stencil_order must be one of (2, 4), got 3"),
    (["susy", "--variant", "s9"], "variant must be one of ('s1', 's2', 'both'), got 's9'"),
    # a NaN or negative tol fails every check and an infinite one passes
    # every check, whatever the residuals
    (["verify", "--kind", "cs", "--n", "3", "--trials", "5", "--tol", "nan"],
     "tol must be finite and nonnegative, got nan"),
    (["verify", "--kind", "cs", "--n", "3", "--trials", "5", "--tol", "inf"],
     "tol must be finite and nonnegative, got inf"),
    (["spectrum", "--family", "rosen-morse", "--nmax", "1", "--grid-m", "200", "--tol", "-1"],
     "tol must be finite and nonnegative, got -1.0"),
    (["groundstate", "--kind", "cs", "--n", "3", "--trials", "5", "--tol=-1e-9"],
     "tol must be finite and nonnegative, got -1e-09"),
    # numpy's generators take no negative seed; every command accepts --seed
    (["verify", "--kind", "cs", "--n", "3", "--trials", "5", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    (["spectrum", "--family", "rosen-morse", "--nmax", "1", "--grid-m", "200", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    (["groundstate", "--kind", "cs", "--n", "3", "--trials", "5", "--seed", "-7"],
     "seed must be nonnegative, got -7"),
    (["chain", "--levels", "1", "--grid-m", "256", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    # the constant fit needs two trials; verify rejects one before drawing
    (["verify", "--kind", "cs", "--n", "3", "--trials", "1"],
     "trials must be >= 2 for a fit"),
])
def test_flag_value_outside_its_choices(tmp_path, capsys, argv, message):
    assert run([*argv, "--outdir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = calogero\nwhatever = 2\n")
    assert run(["verify", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2


@pytest.mark.parametrize("text,message", [
    ("kind = calogero\nn = 3\nalpha = 1.5\nbeta_override = 0.3\n",
     "calogero does not take beta"),
    ("kind = cs\nn = 3\nalpha = 1.5\nbeta_override = 0.3\n",
     "calogero_sutherland does not take beta"),
    ("kind = nope\nn = 3\nalpha = 1.5\n", "unknown kind 'nope'"),
    ("kind = cs\nn = 3\ntol = nan\n", "tol must be finite and nonnegative, got nan"),
    ("kind = cs\nn = 3\ntol = -1\n", "tol must be finite and nonnegative, got -1.0"),
    ("kind = cs\nn = 3\nseed = -2\n", "seed must be nonnegative, got -2"),
])
def test_config_file_value_rejected(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["verify", "--config", str(cfg), "--trials", "4", "--outdir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_outputs_byte_for_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["verify", "--kind", "cs", "--n", "2", "--alpha", "1.5",
                    "--trials", "30", "--seed", "11", "--outdir", str(out)]) == 0
    for name in ("factorization.json", "constant_fit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("variant, names", [
    ("s1", ("susy_report.json", "sector_spectra.csv")),
    ("both", ("variant_comparison.json",)),
])
def test_susy_outputs_byte_for_byte_deterministic(tmp_path, variant, names):
    # two-body products go through BLAS; their results must not vary by run
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["susy", "--kind", "cs", "--n", "2", "--alpha", "1", "--grid-m", "32",
                    "--variant", variant, "--outdir", str(out)]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_module_entry_point(tmp_path):
    # the child imports the same package as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "shapeinv.cli", "verify", "--kind", "cs",
         "--n", "2", "--alpha", "1", "--trials", "10", "--seed", "1",
         "--outdir", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_numpy_only_commands_never_load_scipy(tmp_path):
    # a fresh interpreter: the jet checks, the 1-D chain, the N = 3 ground
    # state and two-body SUSY run on numpy alone; a grid spectrum loads the
    # solvers
    script = f"""
import sys
import shapeinv, shapeinv.cli, shapeinv.spectral, shapeinv.susy
from shapeinv import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = {str(tmp_path)!r}
assert cli.main(["verify", "--kind", "cs", "--n", "3", "--trials", "5",
                 "--outdir", out + "/verify"]) == 0
assert cli.main(["chain", "--levels", "1", "--grid-m", "512",
                 "--outdir", out + "/chain"]) == 0
assert cli.main(["groundstate", "--kind", "cs", "--n", "3", "--trials", "5",
                 "--outdir", out + "/groundstate"]) == 0
for variant in ("s1", "both"):
    assert cli.main(["susy", "--kind", "cs", "--n", "2", "--alpha", "1", "--grid-m", "32",
                     "--variant", variant, "--outdir", out + "/susy_" + variant]) == 0
assert not scipy_modules(), scipy_modules()
assert cli.main(["spectrum", "--family", "rosen-morse", "--nmax", "1",
                 "--grid-m", "600", "--outdir", out + "/spectrum"]) == 0
assert "scipy.sparse.linalg" in sys.modules
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation in its module, so a
    # name bound only for type checkers, or never bound, raises NameError
    import shapeinv

    checked = 0
    for info in pkgutil.iter_modules(shapeinv.__path__):
        module = importlib.import_module(f"shapeinv.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [obj, *(m for m in vars(obj).values() if inspect.isfunction(m))]
            elif inspect.isfunction(obj):
                members = [obj]
            else:
                continue
            for member in members:
                typing.get_type_hints(member)
                checked += 1
    assert checked > 100
