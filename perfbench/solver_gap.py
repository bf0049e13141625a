"""How far apart two eigensolver paths are on the benchmark's eigen calls.

    python3 perfbench/solver_gap.py

Runs one pass of every workload with `spectral.eigen` wrapped, so the
matrices are exactly the ones the jobs build.  Each matrix is solved again
with method="dense", and the largest eigenvalue gap (relative, as the CLI
measures rel_error) is printed next to the job's reference error and the
workload's ref_err.  A gap far below ref_err shows that ref_err is set by
the discretization, so swapping the solver cannot move it through roundoff
alone.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from shapeinv import spectral  # noqa: E402

import workloads  # noqa: E402  (needs src on the path)

SEED = 1


def eigen_calls(workload: workloads.Workload) -> tuple:
    """One pass with every eigen call recorded: ([(job, hamiltonian, k, args,
    kwargs, result)], {job: reference error}, the workload's ref_err)."""
    original, calls, job_name = spectral.eigen, [], None

    def recording(ham, k, *args, **kwargs):
        result = original(ham, k, *args, **kwargs)
        calls.append((job_name, ham, k, args, kwargs, result))
        return result

    refs = {}
    spectral.eigen = recording
    try:
        for job in workload.jobs:
            job_name = job.name
            refs[job.name] = job.run()
    finally:
        spectral.eigen = original
    known = [r for r in refs.values() if r is not None]
    return calls, refs, max(known) if known else None


def main():
    for name, make in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            calls, refs, ref_err = eigen_calls(make(SEED, Path(tmp)))
        for job, ham, k, args, kwargs, default in calls:
            dense = spectral.eigen(ham, k, *args, **{**kwargs, "method": "dense"})
            scale = np.maximum(1.0, np.abs(dense.eigenvalues))
            gap = float(np.max(np.abs(default.eigenvalues - dense.eigenvalues) / scale))
            row = {"workload": name, "job": job, "dim": ham.dim,
                   "default_path": default.solver, "max_rel_gap": gap,
                   "job_ref_err": refs[job], "workload_ref_err": ref_err}
            if ref_err:
                row["gap_share_of_ref_err"] = gap / ref_err
            print(json.dumps(row))


if __name__ == "__main__":
    main()
