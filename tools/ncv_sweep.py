"""Sweep of the 'SA' Lanczos basis size on N-D grid operators: the rule of
`spectral.sa_ncv` against a candidate rule, min(n, max(2k + 10, 20),
max(14, 3k)), which differs from it at k >= 7.

For each operator and k, `spectral.eigen(method="iterative")` runs once
with each basis size from the same seeded start vector, alternating which
goes first, `--reps` times each on one BLAS thread.  One table row per
(operator, k): nodes, each side's ncv, products with H, median time of the
call, the time ratio candidate / rule, and the largest level difference
between the two sides and, up to DENSE_MAX nodes, against the dense path.

    PYTHONPATH=src python tools/ncv_sweep.py [--reps 9] [--seed 0]
        [--only cs3_m31 ...] [--json sweep.json]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads

import argparse
import json
import math
import statistics
import time

import numpy as np

from shapeinv import spectral
from shapeinv.models import make_nbody_model
from shapeinv.spectral import GridSpec

KS = (1, 2, 3, 4, 5, 6, 8, 10, 16)
# (name, kind, N, alpha, lo, hi, m), each on its ordered sector
OPERATORS = (
    ("cs3_m16", "calogero_sutherland", 3, 1.0, 0.0, math.pi, 16),
    ("cs3_m24", "calogero_sutherland", 3, 1.0, 0.0, math.pi, 24),
    ("cs3_m31", "calogero_sutherland", 3, 1.0, 0.0, math.pi, 31),
    ("cs3_m40", "calogero_sutherland", 3, 1.0, 0.0, math.pi, 40),
    ("calogero3_m36", "calogero", 3, 2.0, -3.0, 3.0, 36),
    ("cs4_m16", "calogero_sutherland", 4, 1.0, 0.0, math.pi, 16),
    ("cs4_m20", "calogero_sutherland", 4, 1.0, 0.0, math.pi, 20),
)
# largest operator that dense eigh also solves, for the levels
DENSE_MAX = 4100
RULE = spectral.sa_ncv


def candidate(n: int, k: int) -> int:
    """The rule's basis for k <= 6; from k = 7 on 3k up to 2k + 10 instead
    of ARPACK's default 2k + 1."""
    return min(n, max(2 * k + 10, 20), max(14, 3 * k))


def solve(ham, k: int, basis, seed: int):
    """`spectral.eigen` on the 'SA' path with its basis size from
    basis(n, k): levels, products with H and seconds."""
    spectral.sa_ncv = basis
    try:
        start = time.perf_counter()
        res = spectral.eigen(ham, k, seed, method="iterative")
        return res.eigenvalues, res.matvecs, time.perf_counter() - start
    finally:
        spectral.sa_ncv = RULE


def sweep_operator(name, kind, n_body, alpha, lo, hi, m, reps, seed):
    model = make_nbody_model(kind, n_body, alpha)
    ham = spectral.discretize(model, GridSpec.box(lo, hi, m, n_body, sector="ordered"), 4)
    n = ham.dim
    dense = None
    if n <= DENSE_MAX:
        dense = spectral.eigen(ham, max(KS), method="dense").eigenvalues
    bases = {"rule": RULE, "candidate": candidate}
    rows = []
    for k in KS:
        times = {side: [] for side in bases}
        result = {}
        for rep in range(reps):
            for side in (("rule", "candidate") if rep % 2 == 0 else ("candidate", "rule")):
                w, products, seconds = solve(ham, k, bases[side], seed)
                times[side].append(seconds)
                result[side] = (w, products)
        median = {side: statistics.median(t) for side, t in times.items()}
        row = {
            "operator": name, "nodes": n, "k": k,
            "ncv_rule": RULE(n, k), "ncv_candidate": candidate(n, k),
            "products_rule": result["rule"][1], "products_candidate": result["candidate"][1],
            "ms_rule": 1e3 * median["rule"], "ms_candidate": 1e3 * median["candidate"],
            "ratio": median["candidate"] / median["rule"],
            "candidate_vs_rule": float(np.max(np.abs(result["candidate"][0]
                                                     - result["rule"][0]))),
            "candidate_vs_dense": (None if dense is None else
                                   float(np.max(np.abs(result["candidate"][0] - dense[:k])))),
        }
        rows.append(row)
        print(_format(row), flush=True)
    return rows


def _format(row) -> str:
    dense = "-" if row["candidate_vs_dense"] is None else f"{row['candidate_vs_dense']:.1e}"
    return (f"| {row['operator']} | {row['nodes']} | {row['k']} | "
            f"{row['ncv_rule']} / {row['ncv_candidate']} | "
            f"{row['products_rule']} / {row['products_candidate']} | "
            f"{row['ms_rule']:.2f} / {row['ms_candidate']:.2f} | {row['ratio']:.2f} | "
            f"{row['candidate_vs_rule']:.1e} | {dense} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", nargs="*", help="operator names to run")
    parser.add_argument("--json", help="also write the rows to this file")
    args = parser.parse_args(argv)
    print("| operator | nodes | k | ncv rule / candidate | products | median ms | ratio "
          "| candidate - rule | candidate - dense |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    rows = []
    for spec in OPERATORS:
        if args.only and spec[0] not in args.only:
            continue
        rows += sweep_operator(*spec, reps=args.reps, seed=args.seed)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
