"""The four benchmark workloads, each driving otkit's public API in one process.

A workload builds its inputs from the seed in its constructor (the set-up),
then runs numbered passes.  Pass p is a pure function of (seed, p) and
returns a PassResult: the latency and outcome of every recovery it made, the
number of operations it attempted, and a line for every operation that
raised, was refused, or failed a correctness check.  Between the parts of a
long pass a workload calls self.pace(), where the runner puts its
calibration (see calibrate.py).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import otkit
import otkit.bench
import otkit.bounds
import otkit.cli
import otkit.selftest
from otkit.algorithms import config_for
from otkit.bench import SUCCESS_REL_TOL, EnsembleSpec, trial_seed
from otkit.core import ProblemInstance

STOP_REASONS = ("residual_tol", "stagnation", "max_iter")


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)   # seconds, one per recovery
    stamps: list = field(default_factory=list)      # perf_counter() when each was recorded
    successes: list = field(default_factory=list)   # recovered within SUCCESS_REL_TOL
    trial_ids: list = field(default_factory=list)
    operations: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def check(self, ok, what):
        """Count one correctness check; remember it when it fails."""
        self.operations += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def raised(self, what):
        self.operations += 1
        self.failures.append(f"{what}: {traceback.format_exc(limit=3).strip()}")

    def recovery(self, trial_id, latency, success):
        self.operations += 1
        self.trial_ids.append(trial_id)
        self.latencies.append(latency)
        self.stamps.append(perf_counter())
        self.successes.append(bool(success))


def rel_error(x, truth):
    return float(np.linalg.norm(x - truth) / np.linalg.norm(truth))


def check_run_result(res, result, problem, max_iter, label):
    """Shape, finiteness, sparsity and stop reason of one RunResult."""
    x = result.x_final
    res.check(x.shape == (problem.n,) and np.all(np.isfinite(x)),
              f"{label}: x_final not a finite length-{problem.n} vector")
    res.check(np.count_nonzero(x) <= problem.k,
              f"{label}: {np.count_nonzero(x)} nonzeros > k={problem.k}")
    res.check(result.stop_reason in STOP_REASONS and 0 <= result.iterations <= max_iter,
              f"{label}: stop {result.stop_reason!r} after {result.iterations} iterations")


class Workload:
    name = ""
    default_seed = 0
    tail_percentile = 90.0  # trial_tail_s is read at this fixed percentile
    trace_passes = 2        # a traced run times this many passes

    def __init__(self, seed, seconds, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.on_trial = lambda trial_id: None  # a Tracer labels spans through this
        self.pace = lambda: None               # the runner's calibration goes here

    def warm_up(self):
        """Untimed calls that let lazy imports and first-use set-up finish."""

    def run_pass(self, p):
        raise NotImplementedError


class OperatingPoint(Workload):
    """Serial otkit.run at n=256, kappa=0.5, rho=0.15 with hbrotp's default
    config, on instances generated in set-up; a pass is four recoveries,
    each bracketed by calibrations."""

    name = "operating-point"
    default_seed = 2024
    per_pass = 4
    tail_percentile = 75.0  # a 30 s run makes about 50 recoveries
    trace_passes = 3

    def __init__(self, seed, seconds, out_dir):
        super().__init__(seed, seconds, out_dir)
        self.config = otkit.bench.default_config("hbrotp")
        count = self.per_pass * (math.ceil(seconds) + 2)  # enough for 0.25 s trials
        self.instances = []
        for t in range(count):
            spec = EnsembleSpec(n=256, kappa=0.5, rho=0.15,
                                seed=trial_seed(seed, "hbrotp", 0, 0, t))
            self.instances.append((spec, otkit.bench.generate_instance(spec)))

    def warm_up(self):
        otkit.run(self.instances[0][1], self.config)

    def run_pass(self, p):
        res = PassResult()
        for j in range(self.per_pass):
            spec, problem = self.instances[(self.per_pass * p + j) % len(self.instances)]
            self.on_trial(spec.seed)
            start = perf_counter()
            try:
                result = otkit.run(problem, self.config)
            except Exception:
                res.raised(f"otkit.run seed={spec.seed}")
                continue
            latency = perf_counter() - start
            check_run_result(res, result, problem, self.config.max_iter, f"seed={spec.seed}")
            res.recovery(spec.seed, latency,
                         rel_error(result.x_final, problem.truth) <= SUCCESS_REL_TOL)
            if j + 1 < self.per_pass:
                self.pace()
        return res


class GridWorkload(Workload):
    """A success grid run through cli.main (`otkit grid` or `otkit ptc`) once
    per noise level; pass p uses base seed seed+p.  Every row of the trials
    CSV is checked against the grid it should hold, and its latency is the
    trial's own wall_time_s (from --timing, measured inside bench.run_trial)."""

    command = "grid"
    algorithms = ()
    kappa_range = rho_range = ()  # (min, max, step) as passed to the CLI
    kappas = rhos = ()
    noise = (("clean", "0"),)
    trials_per_cell = 1
    threads = 1

    def argv(self, base_seed, eps, stem):
        argv = [self.command, "--n", "256",
                "--kappa-min", self.kappa_range[0], "--kappa-max", self.kappa_range[1],
                "--kappa-step", self.kappa_range[2],
                "--rho-min", self.rho_range[0], "--rho-max", self.rho_range[1],
                "--rho-step", self.rho_range[2],
                "--trials", str(self.trials_per_cell), "--algos", ",".join(self.algorithms),
                "--eps", eps, "--seed", str(base_seed), "--threads", str(self.threads),
                "--timing", "--out", f"{stem}_trials.csv"]
        if self.command == "ptc":
            argv += ["--transitions-out", f"{stem}_transitions.csv"]
        return argv

    def warm_up(self):
        # One trial per cell: the first least-squares solve of each size is
        # several times slower than later ones, and would land in pass 0.
        for algo in self.algorithms:
            for ki, kappa in enumerate(self.kappas):
                for ri, rho in enumerate(self.rhos):
                    spec = EnsembleSpec(n=256, kappa=kappa, rho=rho,
                                        seed=trial_seed(self.seed, "warm-up", ki, ri, 0))
                    otkit.bench.run_trial(spec, algo)

    def run_pass(self, p):
        res = PassResult()
        base = self.seed + p
        for i, (label, eps) in enumerate(self.noise):
            if i:
                self.pace()
            stem = os.path.join(self.out_dir, label)
            with open(f"{stem}.log", "w") as log, contextlib.redirect_stdout(log):
                try:
                    code = otkit.cli.main(self.argv(base, eps, stem))
                except Exception:
                    res.raised(f"cli.main {self.command} {label}")
                    continue
            if not res.check(code == 0, f"cli.main {self.command} {label} exited {code}"):
                continue
            rates = self._check_trials(res, f"{stem}_trials.csv", base, float(eps), label)
            if rates is not None and self.command == "ptc":
                self._check_transitions(res, f"{stem}_transitions.csv", rates, label)
        return res

    def _expected_rows(self, base, eps):
        """(algorithm, kappa_index, rho_index, trial, spec) in the CSV's row order."""
        T = self.trials_per_cell
        return [(algo, ki, ri, ti,
                 EnsembleSpec(n=256, kappa=kappa, rho=rho, noise_eps=eps,
                              seed=trial_seed(base, algo, ki, ri, ti)))
                for algo in sorted(self.algorithms)
                for ki, kappa in enumerate(self.kappas)
                for ri, rho in enumerate(self.rhos)
                for ti in range(T)]

    def _check_trials(self, res, path, base, eps, label):
        """Parse the trials CSV row by row against the grid it should hold.
        Returns {(algorithm, kappa_index): per-rho success rates}, or None
        when the file is malformed."""
        try:
            with open(path) as fh:
                header = fh.readline()
                rows = list(csv.reader(fh))
        except OSError:
            res.raised(f"read {path}")
            return None
        expected = self._expected_rows(base, eps)
        problems = []
        if header != f"# generator=pcg64, base_seed={base}, n=256\n":
            problems.append(f"meta line {header.strip()!r}")
        if len(rows) != len(expected):
            problems.append(f"{len(rows)} rows, expected {len(expected)}")
        wins = {}
        zeroed = [header]
        for row, (algo, ki, ri, ti, spec) in zip(rows, expected):
            try:
                (r_algo, kappa, rho, m, k, trial, seed, success,
                 iters, rel, wall) = row
                rel_err, latency = float(rel), float(wall)
                limit = spec.k if algo == "omp" else otkit.bench.default_config(algo).max_iter
                ok = (r_algo == algo and float(kappa) == spec.kappa
                      and float(rho) == spec.rho and int(m) == spec.m
                      and int(k) == spec.k and int(trial) == ti and int(seed) == spec.seed
                      and success == ("1" if rel_err <= SUCCESS_REL_TOL else "0")
                      and 0 <= int(iters) <= limit and latency > 0)
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"row {','.join(row)} for {algo} seed={spec.seed}")
                continue
            zeroed.append(",".join(row[:-1] + ["0"]) + "\n")
            if not res.check(math.isfinite(rel_err),
                             f"{label} {algo} seed={spec.seed} refused or raised"):
                continue
            res.recovery(f"{label}:{algo}:{spec.seed}", latency, success == "1")
            cell = wins.setdefault((algo, ki), [0] * len(self.rhos))
            cell[ri] += success == "1"
        res.check(not problems, f"{label} trials CSV: " + "; ".join(problems[:5]))
        if problems:
            return None
        # With wall_time_s zeroed the rows are byte-identical to the default
        # (no --timing) output, which is what the determinism contract pins.
        res.info[f"{label}_trials_sha256"] = hashlib.sha256(
            "".join(zeroed).encode()).hexdigest()
        return {cell: [w / self.trials_per_cell for w in counts]
                for cell, counts in wins.items()}

    def _check_transitions(self, res, path, rates, label):
        """The transitions CSV holds transition_point of each recomputed curve."""
        expected = []
        for algo in self.algorithms:
            for ki, kappa in enumerate(self.kappas):
                rho50, _ = otkit.bench.transition_point(
                    list(zip(self.rhos, rates[(algo, ki)])))
                expected.append([algo, repr(kappa), repr(rho50)])
        try:
            with open(path) as fh:
                fh.readline()
                rows = list(csv.reader(fh))
        except OSError:
            res.raised(f"read {path}")
            return
        res.check(rows == expected, f"{label} transitions CSV {rows} != {expected}")
        res.info[f"rho50_{label}"] = [float(r[2]) for r in expected]


class GreedySweep(GridWorkload):
    """Single-process iht/htp/omp grid at n=256, kappa 0.3..0.7, rho 0.1..0.4,
    one trial per cell, clean."""

    name = "greedy-sweep"
    default_seed = 11
    tail_percentile = 99.0  # a 30 s run makes thousands of trials
    trace_passes = 10
    algorithms = ("iht", "htp", "omp")
    kappa_range, kappas = ("0.3", "0.7", "0.1"), (0.3, 0.4, 0.5, 0.6, 0.7)
    rho_range, rhos = ("0.1", "0.4", "0.1"), (0.1, 0.2, 0.3, 0.4)


class RelaxedTransition(GridWorkload):
    """`otkit ptc` on the criterion-8 geometry: n=256, kappa=0.5, rho
    0.30..0.55, hbrotp, clean and eps=5e-3, on the CLI's default pool of
    nproc workers (traced runs use one trial per cell).  Not in
    BENCHMARK.json: at 4 trials per cell (one pass of about 50 s on 2 cores)
    its throughput spread across seeds exceeds every bound the benchmark may
    set; run it by hand for a transition record (rho50, success bits, CSV
    hashes)."""

    name = "relaxed-transition"
    default_seed = 88
    command = "ptc"
    algorithms = ("hbrotp",)
    kappa_range, kappas = ("0.5", "0.5", "0.05"), (0.5,)
    rho_range, rhos = ("0.30", "0.55", "0.05"), (0.3, 0.35, 0.4, 0.45, 0.5, 0.55)
    noise = (("clean", "0"), ("noisy", "5e-3"))
    trials_per_cell = 4
    threads = os.cpu_count() or 1
    trace_passes = 1


class DeskCertify(Workload):
    """Certification at n=16..20: exact RIC profiles of equiangular frames
    (closed-form constants) and of a Gaussian 12x20 matrix, parameter
    windows, bound constants, and exact-selection recoveries checked against
    their certified envelope (criterion 6), then the selftest.  Per pass: two
    hbotp recoveries at k=2 on every frame and two hbot at k=3 on n=20, so
    the median latency lies among the hbotp ones and the 90th percentile
    among the hbot ones (2 of 12), never between the two kinds."""

    name = "desk-certify"
    default_seed = 66
    frame_sizes = (16, 17, 18, 19, 20)

    def __init__(self, seed, seconds, out_dir):
        super().__init__(seed, seconds, out_dir)
        self.inputs = [self.build(p) for p in range(math.ceil(seconds / 2) + 2)]

    def build(self, p):
        rng = np.random.default_rng([self.seed, p])
        frames = []
        for n in self.frame_sizes:
            A = otkit.bench.equiangular_frame(n, rng)
            plan = [("hbotp", 2)] * 2 + ([("hbot", 3)] * 2 if n == 20 else [])
            runs = []
            for variant, k in plan:
                truth = np.zeros(n)
                truth[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
                runs.append((variant, k, truth))
            frames.append((n, A, runs))
        gaussian = otkit.bench.generate_instance(EnsembleSpec(
            n=20, kappa=0.6, rho=0.25, seed=trial_seed(self.seed, "desk", p, 0, 0)))
        return frames, gaussian.A, int(rng.integers(2**31))

    def warm_up(self):
        frames, _, _ = self.inputs[0]
        n, A, runs = frames[0]
        otkit.bounds.ric_profile(A, 2)
        variant, k, truth = runs[0]
        otkit.run(ProblemInstance(A=A, y=A @ truth, k=k, truth=truth), config_for(variant))

    def run_pass(self, p):
        res = PassResult()
        frames, gaussian, selftest_seed = self.inputs[p % len(self.inputs)]
        for n, A, runs in frames:
            try:
                self._certify_frame(res, p, n, A, runs)
            except Exception:
                res.raised(f"certify frame n={n}")
            self.pace()
        try:
            prof = otkit.bounds.ric_profile(gaussian, 2)
        except Exception:
            res.raised("gaussian ric_profile")
        else:
            res.check(0.0 <= prof.delta_k <= prof.delta_kp1 <= prof.delta_2k <= prof.delta_3k,
                      f"gaussian profile not monotone in the order: {prof}")
        self.pace()
        try:
            results = otkit.selftest.run_all(selftest_seed)
        except Exception:
            res.raised("selftest.run_all")
        else:
            for r in results:
                res.check(r.passed, f"selftest {r.name} failed: {r.detail}")
        return res

    def _certify_frame(self, res, p, n, A, runs):
        bounds = otkit.bounds
        orders = (1, 2, 3) if n == 20 else (1, 2)
        profiles = {k: bounds.ric_profile(A, k) for k in orders}
        for k, prof in profiles.items():
            for t, value in ((k, prof.delta_k), (2 * k, prof.delta_2k),
                             (3 * k, prof.delta_3k), (k + 1, prof.delta_kp1)):
                expected = (min(t, n) - 1) / (n - 1)
                res.check(abs(value - expected) <= 1e-12,
                          f"frame n={n}: delta_{t}={value!r}, expected {expected!r}")

        # relaxed pursuit window at k=1 (constants only; no relaxed solve here)
        beta_max1, _ = bounds.parameter_window(profiles[1], omega=1, variant="hbrotp", n=n)
        beta1 = min(0.03, 0.5 * beta_max1)
        bc1 = bounds.hbrot_constants(profiles[1], 1.0 + beta1, beta1, omega=1, n=n,
                                     variant="hbrotp")
        res.check(bc1.theta2 < 1.0, f"frame n={n}: hbrotp theta2={bc1.theta2}")

        # exact selection: window, constants and envelope dominance (criterion 6)
        certified = {}
        for j, (variant, k, truth) in enumerate(runs):
            self.pace()
            if k not in certified:
                beta_max, interval = bounds.parameter_window(profiles[k], variant="hbotp")
                beta = min(0.1, 0.5 * beta_max)
                alpha = 1.0 + beta
                lo, hi = interval(beta)
                res.check(lo < alpha < hi,
                          f"frame n={n} k={k}: alpha={alpha} outside ({lo}, {hi})")
                bc = bounds.hbot_constants(profiles[k], alpha, beta)
                res.check(bc.theta < 1.0, f"frame n={n} k={k}: theta={bc.theta}")
                certified[k] = (alpha, beta, bc)
            alpha, beta, bc = certified[k]
            trial_id = f"{p}:frame{n}:{j}:{variant}"
            problem = ProblemInstance(A=A, y=A @ truth, k=k, truth=truth)
            cfg = config_for(variant, alpha=alpha, beta=beta, max_iter=50, residual_tol=0.0)
            self.on_trial(trial_id)
            start = perf_counter()
            result = otkit.run(problem, cfg)
            latency = perf_counter() - start
            check_run_result(res, result, problem, cfg.max_iter, trial_id)
            res.recovery(trial_id, latency, rel_error(result.x_final, truth) <= SUCCESS_REL_TOL)
            errors = np.asarray(result.trace.errors_to_truth)
            ps = np.arange(2, min(errors.size - 1, 50) + 1)
            env = bounds.convergence_envelope(bc, errors[0], errors[1], 0.0, ps)
            res.check(np.all(errors[ps] <= env + 1e-12 * (1 + np.abs(env))),
                      f"{trial_id}: error trajectory above its certified envelope")


WORKLOADS = {cls.name: cls for cls in (OperatingPoint, RelaxedTransition,
                                       GreedySweep, DeskCertify)}
