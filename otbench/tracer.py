"""Spans around otkit's public functions, recorded from the benchmark's side.

A Tracer replaces module attributes (the names callers look up at call time)
with wrappers that record one span per call: name, start, end, parent span
and the id of the trial the call serves.  Spans live in compact arrays in
memory and are written out once, at the end of the run.  Nothing inside
`otkit` changes; `restore` puts every original attribute back.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
from array import array
from time import perf_counter

import otkit
import otkit.algorithms
import otkit.bench
import otkit.bounds
import otkit.cli
import otkit.core
import otkit.selftest
import otkit.subproblems


def _run_note(args, kwargs, result):
    return (result.iterations, result.inner_flags, result.stop_reason)


def _solve_note(args, kwargs, result):
    return bool(result[1])  # converged


def _ric_note(args, kwargs, result):
    A, order = args[0], args[1] if len(args) > 1 else kwargs["order"]
    return math.comb(A.shape[1], order)


def _written_bytes(args, kwargs, result):
    return args[0].tell()  # each CSV writer fills a freshly opened file


# (module, attribute, span name, note).  A note maps (args, kwargs, result)
# to a per-call value kept beside the span.
PATCHES = (
    (otkit.bench, "run_trial", "bench.run_trial", None),
    (otkit.bench, "generate_instance", "bench.generate_instance", None),
    (otkit.bench, "run", "algorithms.run", _run_note),
    (otkit, "run", "algorithms.run", _run_note),
    (otkit.algorithms, "solve_relaxed_ot", "subproblems.solve_relaxed_ot", _solve_note),
    (otkit.algorithms, "solve_binary_ot", "subproblems.solve_binary_ot", None),
    (otkit.algorithms, "least_squares_on_support",
     "subproblems.least_squares_on_support", None),
    (otkit.algorithms, "hard_threshold", "core.hard_threshold", None),
    (otkit.algorithms, "top_k_indices", "core.top_k_indices", None),
    (otkit.core, "top_k_indices", "core.top_k_indices", None),
    (otkit.subproblems, "project_capped_simplex",
     "subproblems.project_capped_simplex", None),
    # selftest imports these by name, so its calls are wrapped where it looks them up
    (otkit.selftest, "solve_relaxed_ot", "subproblems.solve_relaxed_ot", _solve_note),
    (otkit.selftest, "solve_binary_ot", "subproblems.solve_binary_ot", None),
    (otkit.selftest, "least_squares_on_support", "subproblems.least_squares_on_support", None),
    (otkit.selftest, "project_capped_simplex", "subproblems.project_capped_simplex", None),
    (otkit.selftest, "hard_threshold", "core.hard_threshold", None),
    (otkit.selftest, "top_k_indices", "core.top_k_indices", None),
    (otkit.bounds, "ric_exact", "bounds.ric_exact", _ric_note),
    (otkit.bounds, "parameter_window", "bounds.parameter_window", None),
    (otkit.bounds, "convergence_envelope", "bounds.convergence_envelope", None),
    (otkit.selftest, "run_all", "selftest.run_all", None),
    (otkit.cli, "main", "cli.main", None),
    (otkit.cli, "success_grid", "bench.success_grid", None),
    (otkit.cli, "write_trials_csv", "cli.write_csv", _written_bytes),
    (otkit.cli, "write_transition_csv", "cli.write_csv", _written_bytes),
)


class Tracer:
    """In-memory span recorder; use as a context manager so patches are undone."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial_of = array("q")
        self.trials = [None]  # trial ids; index 0 means "no trial"
        self.notes = {}
        self._stack = []
        self._trial = 0
        self._patched = []

    def set_trial(self, trial_id):
        """Label the spans that follow with trial_id (a trial's spec.seed)."""
        self.trials.append(trial_id)
        self._trial = len(self.trials) - 1

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, note=None):
        name_id = self._name_id(name)
        labels_trial = name == "bench.run_trial"

        def traced(*args, **kwargs):
            if labels_trial:
                self.set_trial(args[0].seed)
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.trial_of.append(self._trial)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            if note is not None:
                self.notes[index] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, note in PATCHES:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, note))
        return self

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def __len__(self):
        return len(self.start)

    def write(self, path):
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "span": i, "name": self.names[self.name_of[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "trial": self.trials[self.trial_of[i]],
                    "note": self.notes.get(i),
                }) + "\n")

    def layer_metrics(self, scale=lambda t: 1.0):
        """Per-layer counters and self times from the recorded spans.

        A span's self time is its duration minus the durations of its direct
        children; calls nest on one thread, so children never overlap.  Each
        self time is multiplied by scale(span start), which converts wall
        seconds to the caller's unit (reference seconds in run.py).
        """
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = {}
        self_s = {}
        for i in range(count):
            name = self.names[self.name_of[i]]
            calls[name] = calls.get(name, 0) + 1
            own = (self.end[i] - self.start[i] - child[i]) * scale(self.start[i])
            self_s[name] = self_s.get(name, 0.0) + own

        def ids(name):
            nid = self._name_ids.get(name)
            return [i for i in range(count) if self.name_of[i] == nid]

        def noted(name):  # notes of the calls that returned (a raise leaves none)
            return [self.notes[i] for i in ids(name) if i in self.notes]

        converged = noted("subproblems.solve_relaxed_ot")
        per_solve = {i: 0 for i in ids("subproblems.solve_relaxed_ot")}
        for i in ids("subproblems.project_capped_simplex"):
            if self.parent[i] in per_solve:
                per_solve[self.parent[i]] += 1
        runs = noted("algorithms.run")
        stops = [reason for _, _, reason in runs]
        supports = sum(noted("bounds.ric_exact"))

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return self_s.get(name, 0.0)

        proj_calls = c("subproblems.project_capped_simplex")
        proj_self = s("subproblems.project_capped_simplex")
        ric_self = s("bounds.ric_exact")

        return {
            "subproblems.project_capped_simplex.calls": (proj_calls, "count"),
            "subproblems.project_capped_simplex.self_s": (proj_self, "s"),
            "subproblems.project_capped_simplex.us_per_call":
                (1e6 * proj_self / proj_calls if proj_calls else 0.0, "us"),
            "subproblems.projections_per_solve.median":
                (statistics.median(per_solve.values()) if per_solve else 0, "count"),
            "subproblems.projections_per_solve.max":
                (max(per_solve.values()) if per_solve else 0, "count"),
            "subproblems.solve_relaxed_ot.calls": (c("subproblems.solve_relaxed_ot"), "count"),
            "subproblems.solve_relaxed_ot.self_s": (s("subproblems.solve_relaxed_ot"), "s"),
            "subproblems.solve_relaxed_ot.cap_hit_share":
                (converged.count(False) / len(converged) if converged else 0.0, "ratio"),
            "subproblems.least_squares_on_support.calls":
                (c("subproblems.least_squares_on_support"), "count"),
            "subproblems.least_squares_on_support.self_s":
                (s("subproblems.least_squares_on_support"), "s"),
            "subproblems.solve_binary_ot.calls": (c("subproblems.solve_binary_ot"), "count"),
            "subproblems.solve_binary_ot.self_s": (s("subproblems.solve_binary_ot"), "s"),
            "algorithms.run.calls": (c("algorithms.run"), "count"),
            "algorithms.run.self_s": (s("algorithms.run"), "s"),
            "algorithms.outer_iters": (sum(r[0] for r in runs), "count"),
            "algorithms.inner_flags": (sum(r[1] for r in runs), "count"),
            "algorithms.stop.residual_tol": (stops.count("residual_tol"), "count"),
            "algorithms.stop.stagnation": (stops.count("stagnation"), "count"),
            "algorithms.stop.max_iter": (stops.count("max_iter"), "count"),
            "core.hard_threshold.self_s": (s("core.hard_threshold"), "s"),
            "core.top_k_indices.self_s": (s("core.top_k_indices"), "s"),
            "bench.generate_instance.self_s": (s("bench.generate_instance"), "s"),
            "bench.run_trial.self_s": (s("bench.run_trial"), "s"),
            "bounds.ric_exact.calls": (c("bounds.ric_exact"), "count"),
            "bounds.ric_exact.self_s": (ric_self, "s"),
            "bounds.ric_exact.supports": (supports, "count"),
            "bounds.ric_exact.supports_per_s": (supports / ric_self if ric_self else 0.0, "1/s"),
            "bounds.parameter_window.self_s": (s("bounds.parameter_window"), "s"),
            "bounds.convergence_envelope.self_s": (s("bounds.convergence_envelope"), "s"),
            "selftest.run_all.self_s": (s("selftest.run_all"), "s"),
            "cli.main.self_s": (s("cli.main"), "s"),
            "cli.write_csv.self_s": (s("cli.write_csv"), "s"),
            "cli.write_csv.bytes": (sum(noted("cli.write_csv")), "bytes"),
        }
