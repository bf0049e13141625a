"""shapeinv benchmark: closed-loop workloads timed to a verified result.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client in this process runs the
workload's job list back to back; one run of the list is a pass, and every
job checks its own result.  After set-up (imports, input generation and
one warm-up pass) the run measures passes for --seconds seconds.

End-to-end times are rescaled to one machine speed with the reference
kernel in reference.py, run right before and after every pass, as far as
the workload's work follows the kernel (Workload.kernel_power); raw wall
times are printed on the info line.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes, prints the per-layer metrics with the tracing overhead,
and writes every span to .bench_out/.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The timed passes run in this one process with BLAS held to one thread.
After them the run starts three set-up probes, one at a time, each a fresh
process that stops after its warm-up pass.  A probe is timed from its spawn
to the end of its warm-up pass on the system-wide monotonic clock, so
interpreter start-up counts; setup_s is the median of the three.
"""

import os

BLAS_THREADS = 1  # fixed before numpy loads; at most nproc on any host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
TAIL_BEYOND = 10    # passes that must lie beyond the reported tail percentile
KERNEL_WINDOW = 5   # passes in the rolling median of the reference kernel

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "pass_tail_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "1", "ref_err": "1"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="stop after set-up and print the time it ended")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "threads": threading.active_count()}


def tail(times: list) -> tuple:
    """Highest percentile of pass time with at least TAIL_BEYOND passes beyond
    it, as (value, percentile).  Short runs fall back to the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def monotonic_ns() -> int:
    """A clock that all processes on the host share."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def setup_probes(args) -> tuple:
    """(rescaled, wall) set-up seconds of fresh processes, each timed from its
    spawn to the end of its warm-up pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    rescaled, wall = [], []
    for _ in range(SETUP_PROBES):
        spawned = monotonic_ns()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        wall.append((probe["setup_end_ns"] - spawned) / 1e9)
        rescaled.append(wall[-1] * probe["speed"])
    return rescaled, wall


@dataclass
class Samples:
    """What the timed passes of one run produced, in pass order."""
    traced: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    kernels: list = field(default_factory=list)   # mean of the two around a pass
    outcomes: list = field(default_factory=list)

    def rescaled(self, power: float) -> list:
        """Wall times rescaled by a rolling median of the kernel: the host's
        speed changes over seconds, the kernel's own noise from call to call."""
        half = KERNEL_WINDOW // 2
        out = []
        for i, wall in enumerate(self.wall_times):
            kernel = statistics.median(self.kernels[max(0, i - half):i + half + 1])
            out.append(wall * (reference.NOMINAL_S / kernel) ** power)
        return out

    def split(self, values) -> tuple:
        """(untraced, traced) values."""
        return ([v for v, t in zip(values, self.traced) if not t],
                [v for v, t in zip(values, self.traced) if t])


def measure(args, workload, tracer) -> Samples:
    """Timed passes for args.seconds, each bracketed by the reference kernel;
    with a tracer, every second pass is traced."""
    samples = Samples()
    start = time.perf_counter()
    least = 1 if tracer is None else 2   # a traced run needs both kinds of pass
    index = 0
    while index < least or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        before = reference.kernel_s()
        if traced:
            tracer.begin_pass(index)
            tracer.install()
        t0 = time.perf_counter()
        samples.outcomes.append(workload.run_pass())
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.end_pass()
        samples.kernels.append((before + reference.kernel_s()) / 2)
        samples.wall_times.append(elapsed)
        samples.traced.append(traced)
        index += 1
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shapeinv" / "__init__.py").is_file():
        print(f"error: no shapeinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shapeinv
    if Path(shapeinv.__file__).resolve().parent != SRC / "shapeinv":
        print(f"error: imported shapeinv from {shapeinv.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        warmup = workload.run_pass()
        if args.setup_probe:
            setup_end_ns = monotonic_ns()
            kernel = statistics.median([reference.kernel_s() for _ in range(3)])
            speed = (reference.NOMINAL_S / kernel) ** workload.kernel_power
            print(json.dumps({"setup_end_ns": setup_end_ns, "speed": speed}))
            return 0
        return report(args, workload, warmup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(args, workload, warmup) -> int:
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    samples = measure(args, workload, tracer)
    times, traced_times = samples.split(samples.rescaled(workload.kernel_power))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment()

    outcomes = [warmup, *samples.outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = sorted({e for o in outcomes for e in o.errors})
    refs = [o.ref_err for o in outcomes if o.ref_err is not None]
    # a run whose reference job never succeeded reports total relative error
    ref_err = max(refs) if refs else 1.0
    info = {"workload": args.workload, "seed": args.seed, "env": env,
            "passes": len(times), "traced_passes": len(traced_times),
            "pass_wall_s": statistics.median(samples.split(samples.wall_times)[0]),
            "kernel_s": statistics.median(samples.kernels), "errors": errors}

    if tracer is None:
        setup_samples, setup_wall = setup_probes(args)
        tail_s, tail_pct = tail(times)
        values = {"setup_s": statistics.median(setup_samples),
                  "pass_s": statistics.median(times), "pass_tail_s": tail_s,
                  "peak_rss_mb": peak_rss_mb, "ok_ratio": 1.0 - failed / attempted,
                  "ref_err": ref_err}
        units = END_TO_END_UNITS
        info.update({"setup_samples_s": setup_samples,
                     "setup_wall_s": setup_wall,
                     "tail_percentile": tail_pct, "ref_errs_distinct": len(set(refs))})
    else:
        problems = tracing.check_spans(tracer.spans)
        if problems:
            print("error: inconsistent spans:\n" + "\n".join(problems[:20]),
                  file=sys.stderr)
            return 1
        overhead = statistics.median(traced_times) - statistics.median(times)
        values, unsteady = tracer.summary(overhead)
        units = tracing.UNITS
        info["unsteady_counts"] = unsteady
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "info": info, "ref_err": ref_err, "pass_times_s": times,
            "traced_pass_times_s": traced_times, "per_pass": tracer.passes,
            "spans": [dict(zip(("name", "start_ns", "end_ns", "parent", "pass"), s))
                      for s in tracer.spans]}) + "\n")
        info.update({"trace_file": str(path.relative_to(ROOT)), "ref_err": ref_err})

    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
