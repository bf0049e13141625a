"""A fixed list of `shapeinv` command-line runs, each recorded for comparison
between two checkouts.

Each run executes `python -m shapeinv.cli` as a subprocess on the package
under --src, in its own directory DIR/<name>/ with `--outdir out`, so no
absolute path enters its outputs.  The directory then holds the command's
files under out/ (absent when the run writes nothing), its stdout.txt and
stderr.txt, and exit_code.txt.  Two checkouts compare with one diff:

    python tools/cli_runs.py --src parent/src --out runs_parent
    python tools/cli_runs.py --src src --out runs_change
    diff -r runs_parent runs_change
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

RUNS = (
    # verify
    ("verify_cs_n3", "verify --kind cs --n 3 --trials 200"),
    ("verify_cs_n6", "verify --kind cs --n 6 --trials 200"),
    ("verify_cs_negative", "verify --kind cs --n 3 --alpha -0.3 --trials 50"),
    ("verify_calogero_n4", "verify --kind calogero --n 4 --alpha 1.5 --trials 200"),
    ("verify_harmonic_n4",
     "verify --kind harmonic_calogero --n 4 --alpha 1.5 --omega 1 --trials 200"),
    ("verify_harmonic_n3_beta",
     "verify --kind harmonic_calogero --n 3 --alpha 1.5 --omega 2 --beta-override 0.4 "
     "--epsilon-sing 1e-5 --trials 12 --seed 4"),
    ("verify_cs_n2", "verify --kind cs --n 2 --alpha 1.5 --trials 100"),
    ("verify_cs_n5", "verify --kind cs --n 5 --alpha 2 --trials 100"),
    ("verify_calogero_n2", "verify --kind calogero --n 2 --alpha 1.5 --trials 100"),
    ("verify_calogero_n5", "verify --kind calogero --n 5 --alpha 2 --trials 100"),
    ("verify_harmonic_n2",
     "verify --kind harmonic_calogero --n 2 --alpha 1.5 --omega 1 --trials 100"),
    ("verify_harmonic_n5",
     "verify --kind harmonic_calogero --n 5 --alpha 2 --omega 1.3 --trials 100"),
    # configurations kept at least --epsilon-sing from every singular hyperplane
    ("verify_calogero_n4_eps", "verify --kind calogero --n 4 --alpha 1.5 --trials 20 "
                               "--epsilon-sing 0.3"),
    ("groundstate_cs_n3_eps", "groundstate --kind cs --n 3 --trials 20 --epsilon-sing 0.5"),
    ("verify_cs_n6_eps", "verify --kind cs --n 6 --trials 20 --epsilon-sing 0.3"),
    # spectrum
    ("spectrum_rosen_morse", "spectrum --family rosen-morse --b 2 --a 1 --nmax 5 "
                             "--grid-m 1000 --dump"),
    ("spectrum_sign", "spectrum --family sign --a 1 --nmax 0 --grid-m 1000 "
                      "--domain-min -12 --domain-max 12 --dump"),
    ("spectrum_harmonic_reduced", "spectrum --kind harmonic_calogero --n 2 --alpha 2 "
                                  "--omega 1 --reduce --nmax 3 --grid-m 1000"),
    ("spectrum_cs_reduced", "spectrum --kind cs --n 2 --alpha 2 --reduce --nmax 2 "
                            "--grid-m 800 --dump"),
    ("spectrum_calogero_reduced", "spectrum --kind calogero --n 2 --alpha 2 --reduce "
                                  "--nmax 2 --grid-m 800"),
    ("spectrum_cs_negative", "spectrum --kind cs --n 2 --alpha -0.3 --reduce"),
    # groundstate
    ("groundstate_cs_n2", "groundstate --kind cs --n 2 --alpha 2 --dump"),
    ("groundstate_harmonic_n2",
     "groundstate --kind harmonic_calogero --n 2 --alpha 2 --omega 1 --dump"),
    ("groundstate_calogero_n2", "groundstate --kind calogero --n 2 --alpha 2 --dump"),
    ("groundstate_cs_n3", "groundstate --kind cs --n 3 --trials 25"),
    ("groundstate_cs_negative", "groundstate --kind cs --n 2 --alpha -0.3"),
    # chain
    ("chain", "chain --levels 1 --grid-m 512 --dump"),
    ("chain_coarse", "chain --levels 1 --grid-m 256"),
    # susy
    ("susy_s1", "susy --kind cs --n 2 --alpha 1 --grid-m 32 --variant s1"),
    ("susy_s2", "susy --kind cs --n 2 --alpha 1 --grid-m 32 --variant s2"),
    ("susy_both", "susy --kind cs --n 2 --alpha 1 --grid-m 32 --variant both"),
    ("susy_calogero_both", "susy --kind calogero --n 2 --alpha 2 --grid-m 48 --variant both"),
    ("susy_harmonic_s1", "susy --kind harmonic_calogero --n 2 --alpha 2 --omega 1 "
                         "--grid-m 48 --variant s1"),
    ("susy_cs_negative", "susy --kind cs --n 2 --alpha -0.3 --grid-m 32 --variant s1"),
    ("susy_n3", "susy --kind cs --n 3 --grid-m 10"),
    ("susy_over_cap", "susy --kind cs --n 2 --grid-m 700"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src/ directory of a checkout")
    parser.add_argument("--out", required=True, help="directory for the runs' records")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               PYTHONDONTWRITEBYTECODE="1")
    for name, command in RUNS:
        rundir = Path(args.out) / name
        rundir.mkdir(parents=True, exist_ok=False)
        done = subprocess.run([sys.executable, "-m", "shapeinv.cli", *command.split(),
                               "--outdir", "out"], cwd=rundir, env=env,
                              capture_output=True, text=True)
        (rundir / "stdout.txt").write_text(done.stdout)
        (rundir / "stderr.txt").write_text(done.stderr)
        (rundir / "exit_code.txt").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
