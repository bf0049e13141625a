import json
import os
import subprocess
import sys
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


def test_susy_invalid_variant(tmp_path):
    assert run(["susy", "--variant", "s9", "--outdir", str(tmp_path)]) == 2


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


@pytest.mark.parametrize("flags,message", [
    (["--a", "0"], "grid endpoints must be finite"),
    (["--family", "nope"], "unknown family 'nope'"),
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


def test_config_keys_share_model_types():
    shared = {key: cli._CONFIG_KEYS[key] for key in models._CONFIG_KEYS}
    assert shared == models._CONFIG_KEYS


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = calogero\nwhatever = 2\n")
    assert run(["verify", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2


def test_outputs_byte_for_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["verify", "--kind", "cs", "--n", "2", "--alpha", "1.5",
                    "--trials", "30", "--seed", "11", "--outdir", str(out)]) == 0
    for name in ("factorization.json", "constant_fit.json"):
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
