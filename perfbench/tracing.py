"""Per-layer tracing installed from outside the program.

`Tracer.install()` replaces public functions of the shapeinv modules with
wrappers and `uninstall()` puts the originals back; no file under `src/`
changes.  Layer boundaries (`cli`, `verify`, `spectral`, `shape1d`, `susy`)
record spans: name, start, end and parent, in integer nanoseconds, kept in
memory and written out at the end of the run.  Hot inner functions get
counters only: the `calculus` ladder actions, `TestFunction.jet` and the
pointwise `NBodyModel` methods.  `models.eval_s` times only the outermost
model-evaluation call, so nested model calls are not counted twice.

Calls inside a module go through its globals, which are the patched module
attributes, so nested calls (`pairing_check` -> `kernel_classify`,
`jastrow_ground_state` -> `discretize`) are traced too.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter_ns

from shapeinv import calculus, cli, models, shape1d, spectral, susy, verify

# Spanned public functions per layer module.
SPANNED = {
    cli: ("main", "cmd_verify", "cmd_spectrum", "cmd_susy", "cmd_chain"),
    verify: ("run_all", "factorization_residual", "shape_invariance_residual",
             "commutator_check", "momentum_commutation", "three_body_report",
             "constant_fit_diagnostic"),
    spectral: ("discretize", "eigen", "jastrow_ground_state"),
    shape1d: ("algebraic_spectrum", "wavefunction_chain", "rayleigh_quotient"),
    susy: ("build_susy", "sector_spectra", "kernel_classify", "pairing_check",
           "sector_sum_check", "variant_comparison"),
}
LADDER_ACTIONS = ("apply_annihilator", "apply_creator", "apply_to_jet1",
                  "apply_product", "commutator_value", "apply_hamiltonian_direct",
                  "apply_hamiltonian_factorized", "apply_partner", "total_momentum",
                  "jacobi_action", "jacobi_creator", "jacobi_to_jet1")
POINTWISE_METHODS = ("separation_margin", "check_configuration", "prepotential",
                     "prepotential_jacobian", "pair_potential", "potential",
                     "ladder_potential")
VECTOR_METHODS = {models.NBodyModel: ("pair_w", "pair_w_prime", "pair_log_jastrow"),
                  models.Prepotential1D: ("w", "w_prime", "potential",
                                          "partner_potential", "log_ground_state")}

# Inclusive span time per pass, reported in seconds: metric -> span names.
SPAN_TIMES = {
    "cli.verify_s": ("cli.cmd_verify",),
    "cli.spectrum_s": ("cli.cmd_spectrum",),
    "cli.chain_s": ("cli.cmd_chain",),
    "cli.susy_s": ("cli.cmd_susy",),
    "verify.factorization_s": ("verify.factorization_residual",),
    "verify.shape_invariance_s": ("verify.shape_invariance_residual",),
    "verify.commutators_s": ("verify.commutator_check",),
    "verify.momentum_commutation_s": ("verify.momentum_commutation",),
    "verify.three_body_s": ("verify.three_body_report",),
    "verify.constant_fit_s": ("verify.constant_fit_diagnostic",),
    "spectral.discretize_s": ("spectral.discretize",),
    "spectral.eigen_s": ("spectral.eigen",),
    "spectral.jastrow_s": ("spectral.jastrow_ground_state",),
    "shape1d.algebraic_s": ("shape1d.algebraic_spectrum",),
    "shape1d.chain_s": ("shape1d.wavefunction_chain", "shape1d.rayleigh_quotient"),
    "susy.build_s": ("susy.build_susy",),
    "susy.sector_spectra_s": ("susy.sector_spectra",),
    "susy.kernel_classify_s": ("susy.kernel_classify",),
    "susy.pairing_s": ("susy.pairing_check",),
    "susy.variant_comparison_s": ("susy.variant_comparison",),
    "susy.sum_check_s": ("susy.sector_sum_check",),
}
# Self time per pass of every span in a layer, in seconds.
SELF_TIMES = {"cli.self_s": "cli", "verify.self_s": "verify",
              "spectral.self_s": "spectral", "susy.self_s": "susy"}
EIGEN_PATHS = {"banded": "spectral.eigen_banded_s", "dense": "spectral.eigen_dense_s",
               "iterative": "spectral.eigen_lanczos_s"}
COMMUTATOR_SIZES = (3, 4, 6)

# Every per-layer metric with its unit; a traced run reports all of them.
UNITS = {name: "s" for name in (*SPAN_TIMES, *SELF_TIMES, *EIGEN_PATHS.values())}
UNITS.update({
    "spectral.eigen_other_s": "s",
    "models.eval_s": "s",
    "trace.overhead_s": "s",
    "verify.trials": "count",
    "calculus.ladder_calls": "count",
    "calculus.jet_calls": "count",
    "models.pointwise_calls": "count",
    "spectral.nodes": "count",
    "spectral.nnz": "count",
    "spectral.matrix_mb": "MB",
    "spectral.eigen_calls": "count",
    "spectral.eigen_failures": "count",
    "spectral.eigen_max_rel_residual": "1",
    "susy.dim": "count",
    "susy.nnz": "count",
    "susy.sector_dim_max": "count",
    "susy.dense_mb": "MB",
    "susy.kernel_classify_calls": "count",
    "susy.classify_useful_ratio": "1",
})
UNITS.update({f"verify.commutators_ms_per_trial.n{n}": "ms" for n in COMMUTATOR_SIZES})
EXACT = tuple(name for name, unit in UNITS.items() if unit == "count")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start_ns, end_ns, parent, pass]
        self.passes = []       # per traced pass: {metric: value}
        self._stack = []
        self._acc = None
        self._classified = None
        self._model_depth = 0
        self._pass = -1
        self._originals = []

    # -- installation ---------------------------------------------------------
    def install(self):
        for module, names in SPANNED.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                after = getattr(self, f"_after_{layer}_{name}", None)
                failed = getattr(self, f"_failed_{layer}_{name}", None)
                self._patch(module, name,
                            lambda fn, s=f"{layer}.{name}", a=after, f=failed:
                            self._span(s, fn, a, f))
        for name in LADDER_ACTIONS:
            self._patch(calculus, name, lambda fn: self._counter(fn, "ladder_calls"))
        self._patch(calculus.TestFunction, "jet",
                    lambda fn: self._counter(fn, "jet_calls"))
        for name in POINTWISE_METHODS:
            self._patch(models.NBodyModel, name, lambda fn: self._model(fn, True))
        for cls, names in VECTOR_METHODS.items():
            for name in names:
                self._patch(cls, name, lambda fn: self._model(fn, False))

    def uninstall(self):
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, make):
        original = owner.__dict__[name]
        self._originals.append((owner, name, original))
        setattr(owner, name, make(original))

    # -- wrappers ---------------------------------------------------------------
    def _span(self, name, fn, after, failed):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = len(self.spans)
            record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                      self._pass]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if failed:
                    failed()
                raise
            finally:
                record[2] = perf_counter_ns()
                self._stack.pop()
            if after:
                after(args, kwargs, result, record[2] - record[1])
            return result
        return wrapped

    def _counter(self, fn, key):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._acc[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _model(self, fn, pointwise):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if pointwise:
                self._acc["pointwise_calls"] += 1
            if self._model_depth:
                self._model_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._model_depth -= 1
            self._model_depth = 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._acc["model_eval_ns"] += perf_counter_ns() - start
                self._model_depth = 0
        return wrapped

    # -- per-call measurements ----------------------------------------------------
    def _trials(self, args, kwargs):
        return kwargs["trials"] if "trials" in kwargs else args[1]

    def _count_verify_trials(self, args, kwargs, result, ns):
        self._acc["trials"] += self._trials(args, kwargs)

    def _after_verify_commutator_check(self, args, kwargs, result, ns):
        n = args[0].n
        self._acc[f"comm_ns.n{n}"] += ns
        self._acc[f"comm_trials.n{n}"] += self._trials(args, kwargs)
        self._count_verify_trials(args, kwargs, result, ns)

    _after_verify_factorization_residual = _count_verify_trials
    _after_verify_shape_invariance_residual = _count_verify_trials
    _after_verify_momentum_commutation = _count_verify_trials
    _after_verify_three_body_report = _count_verify_trials
    _after_verify_constant_fit_diagnostic = _count_verify_trials

    def _after_spectral_discretize(self, args, kwargs, ham, ns):
        mat = ham.matrix
        self._acc["nodes"] += ham.dim
        self._acc["nnz"] += mat.nnz
        self._acc["matrix_bytes"] += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes

    def _after_spectral_eigen(self, args, kwargs, res, ns):
        self._acc["eigen_calls"] += 1
        self._acc[f"eigen_ns.{res.solver}"] += ns
        self._acc["eigen_max_rel_residual"] = max(self._acc["eigen_max_rel_residual"],
                                                  res.max_relative_residual())

    def _failed_spectral_eigen(self):
        self._acc["eigen_calls"] += 1
        self._acc["eigen_failures"] += 1

    def _after_susy_build_susy(self, args, kwargs, system, ns):
        self._acc["susy_dim"] += system.dim
        self._acc["susy_nnz"] += system.H.nnz

    def _after_susy_sector_spectra(self, args, kwargs, spectra, ns):
        system = args[0]
        for f in spectra:
            dim = len(system.sector_indices(f))
            self._acc["sector_dim_max"] = max(self._acc["sector_dim_max"], dim)
        # dense complex sector matrix plus its eigenvectors, 16 bytes an entry;
        # counted once per system because the eigenpairs are cached on it
        if id(system) not in self._acc["dense_systems"]:
            self._acc["dense_systems"][id(system)] = system
            self._acc["dense_bytes"] += sum(
                2 * 16 * len(system.sector_indices(f)) ** 2 for f in spectra)

    def _after_susy_kernel_classify(self, args, kwargs, report, ns):
        self._acc["classify_calls"] += 1
        self._classified[id(args[0])] = args[0]

    # -- passes -------------------------------------------------------------------
    def begin_pass(self, index: int):
        self._pass = index
        self._acc = defaultdict(float)
        self._acc["dense_systems"] = {}
        self._classified = {}
        self._pass_first_span = len(self.spans)

    def end_pass(self):
        acc, spans = self._acc, self.spans[self._pass_first_span:]
        selfs = self_times(self.spans, self._pass_first_span)
        out = {name: 0.0 for name in UNITS}
        for metric, names in SPAN_TIMES.items():
            out[metric] = sum(s[2] - s[1] for s in spans if s[0] in names) / 1e9
        for metric, layer in SELF_TIMES.items():
            out[metric] = sum(t for s, t in zip(spans, selfs)
                              if s[0].split(".", 1)[0] == layer) / 1e9
        for solver_key in [k for k in acc if k.startswith("eigen_ns.")]:
            solver = solver_key.split(".", 1)[1]
            metric = EIGEN_PATHS.get(solver, "spectral.eigen_other_s")
            out[metric] += acc[solver_key] / 1e9
        for n in COMMUTATOR_SIZES:
            trials = acc[f"comm_trials.n{n}"]
            out[f"verify.commutators_ms_per_trial.n{n}"] = (
                acc[f"comm_ns.n{n}"] / 1e6 / trials if trials else 0.0)
        calls = acc["classify_calls"]
        out.update({
            "verify.trials": acc["trials"],
            "calculus.ladder_calls": acc["ladder_calls"],
            "calculus.jet_calls": acc["jet_calls"],
            "models.pointwise_calls": acc["pointwise_calls"],
            "models.eval_s": acc["model_eval_ns"] / 1e9,
            "spectral.nodes": acc["nodes"],
            "spectral.nnz": acc["nnz"],
            "spectral.matrix_mb": acc["matrix_bytes"] / 1e6,
            "spectral.eigen_calls": acc["eigen_calls"],
            "spectral.eigen_failures": acc["eigen_failures"],
            "spectral.eigen_max_rel_residual": acc["eigen_max_rel_residual"],
            "susy.dim": acc["susy_dim"],
            "susy.nnz": acc["susy_nnz"],
            "susy.sector_dim_max": acc["sector_dim_max"],
            "susy.dense_mb": acc["dense_bytes"] / 1e6,
            "susy.kernel_classify_calls": calls,
            "susy.classify_useful_ratio": len(self._classified) / calls if calls else 0.0,
        })
        del out["trace.overhead_s"]
        self.passes.append(out)
        self._acc = self._classified = None

    def summary(self, overhead_s: float) -> tuple:
        """Mean over traced passes, and the counts that differ between passes
        (counts repeat exactly for the same inputs)."""
        out = {name: statistics.fmean(p[name] for p in self.passes)
               for name in self.passes[0]}
        out["trace.overhead_s"] = overhead_s
        unsteady = [name for name in EXACT if len({p[name] for p in self.passes}) > 1]
        return out, unsteady


def self_times(spans, first: int = 0) -> list:
    """Self time (ns) of spans[first:]: duration minus the direct children's."""
    own = [s[2] - s[1] for s in spans[first:]]
    for s in spans[first:]:
        if s[3] >= first:
            own[s[3] - first] -= s[2] - s[1]
    return own


def check_spans(spans) -> list:
    """Nesting violations: a child outside its parent or a negative self time."""
    problems = []
    for i, s in enumerate(spans):
        if s[2] < s[1]:
            problems.append(f"span {i} {s[0]} ends before it starts")
        if s[3] >= 0:
            p = spans[s[3]]
            if not (p[1] <= s[1] and s[2] <= p[2]):
                problems.append(f"span {i} {s[0]} lies outside its parent {p[0]}")
    for i, t in enumerate(self_times(spans)):
        if t < 0:
            problems.append(f"span {i} {spans[i][0]} has self time {t} ns")
    return problems
