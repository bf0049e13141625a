"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly at two seeds, untraced and traced, and checks:

- the last output line is the result object, every job passed, and every
  metric named in BENCHMARK.json is emitted with its unit (end-to-end
  metrics positive and finite);
- for the same seed, ref_err repeats exactly across runs and the traced
  counts repeat exactly across runs and across passes;
- spans in the trace file nest: each child lies inside its parent and
  every self time is >= 0, and trace.overhead_s is reported;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits non-zero without printing a result.

Exits 1 and lists the failures if any check misses.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (needs src on the path)

SEEDS = (11, 12)
SECONDS = 2.0  # measured seconds per run
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root: Path, workload: str, seed: int, trace: int, seconds: float):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def parse(done):
    """(info, result) from a run's standard output."""
    lines = done.stdout.strip().splitlines()
    info = next(json.loads(ln[5:]) for ln in lines if ln.startswith("info "))
    return info, json.loads(lines[-1])


def check_result(label, result, expected_units, positive, failures):
    if set(result) != RESULT_KEYS:
        failures.append(f"{label}: result keys {sorted(result)}")
        return
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        failures.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_units:
        failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(expected_units))}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            failures.append(f"{label}: {name} = {value!r}")
        elif positive and value <= 0:
            failures.append(f"{label}: {name} = {value} is not positive")


def check_trace(label, path: Path, failures):
    trace = json.loads(path.read_text())
    spans = [[s["name"], s["start_ns"], s["end_ns"], s["parent"], s["pass"]]
             for s in trace["spans"]]
    for problem in tracing.check_spans(spans):
        failures.append(f"{label}: {problem}")
    if trace["info"]["unsteady_counts"]:
        failures.append(f"{label}: counts differ between passes: "
                        f"{trace['info']['unsteady_counts']}")


def run_workload(name, spec, failures):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    first_seed = {}
    for seed in SEEDS:
        runs = [(0, "untraced"), (1, "traced"), (1, "traced again")]
        for trace, kind in runs if seed == SEEDS[0] else runs[:2]:
            label = f"{name} seed {seed} {kind}"
            done = bench(ROOT, name, seed, trace, SECONDS)
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            info, result = parse(done)
            units = per_layer if trace else end_to_end
            check_result(label, result, units, positive=not trace, failures=failures)
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            ref_err = info["ref_err"] if trace else metrics["ref_err"]
            counts = {k: metrics[k] for k in tracing.EXACT if k in metrics}
            if trace:
                check_trace(label, ROOT / info["trace_file"], failures)
                print(f"{label}: trace.overhead_s = {metrics['trace.overhead_s']:.4f}")
            if seed != SEEDS[0]:
                continue
            if "ref_err" in first_seed and ref_err != first_seed["ref_err"]:
                failures.append(f"{label}: ref_err {ref_err!r} != {first_seed['ref_err']!r}")
            first_seed.setdefault("ref_err", ref_err)
            if trace and "counts" in first_seed and counts != first_seed["counts"]:
                diff = {k for k in counts if counts[k] != first_seed["counts"].get(k)}
                failures.append(f"{label}: counts differ for the same seed: {sorted(diff)}")
            if trace:
                first_seed.setdefault("counts", counts)


def run_bare(failures):
    """The benchmark alone, without the program, must fail without a result."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "identities", SEEDS[0], 0, 1)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        if done.returncode == 0 or last[0].startswith("{"):
            failures.append(f"bare directory: exit {done.returncode}, output {last[0]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        run_workload(workload["name"], spec, failures)
    run_bare(failures)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
