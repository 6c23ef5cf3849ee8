"""Phase-transition benchmark harness: seeded Gaussian ensembles, success-rate
grids over (sampling rate, sparsity ratio), 50% transition estimation, and
deterministic CSV output.

Reproducibility contract: every trial derives its own 64-bit seed from
(base seed, algorithm, grid indices, trial index) through BLAKE2b, and all
randomness flows through a named generator (PCG64), so a grid is a pure
function of its arguments.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .algorithms import ALL_VARIANTS, config_for, run
from .core import ProblemInstance, check_count, check_real

GENERATOR_NAME = "pcg64"
SUCCESS_REL_TOL = 1e-3  # a trial succeeds iff ||x - truth|| / ||truth|| <= this


@dataclass(frozen=True)
class EnsembleSpec:
    """One cell of the random ensemble: dimension n, sampling rate kappa = m/n,
    sparsity ratio rho = k/m, noise level, and the trial seed.

    m = ceil(kappa n) and k = floor(rho m + 1/2), each at least 1, round
    each product to 9 decimals first, as the CLI rounds its grid: a float
    product misses an exact decimal in its last bit, so 0.55 * 100 =
    55.00000000000001 would add a row and 0.29 * 50 = 14.499999999999998
    would round a half down.  The floor of 1 keeps a kappa n that rounds to
    0 (kappa=1e-11 at n=10) from leaving A without rows."""

    n: int
    kappa: float
    rho: float
    noise_eps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_count(self.n, "n")
        check_real(self.kappa, "kappa", positive=True, at_most=1)
        check_real(self.rho, "rho", positive=True, at_most=1)
        check_real(self.noise_eps, "noise_eps")

    @property
    def m(self):
        return max(1, math.ceil(round(self.kappa * self.n, 9)))

    @property
    def k(self):
        return max(1, math.floor(round(self.rho * self.m, 9) + 0.5))


def generate_instance(spec):
    """Draw the instance the spec describes, fully determined by spec.seed.

    A is m x n i.i.d. standard normal with every column scaled to unit norm;
    the truth is k-sparse with a uniform random support and standard normal
    nonzeros; y is A @ truth plus, when noise_eps > 0, noise_eps times a
    unit-norm Gaussian direction, so ||y - A @ truth|| is noise_eps up to
    round-off.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    m, n, k = spec.m, spec.n, spec.k
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    supp = np.sort(rng.choice(n, size=k, replace=False))
    truth = np.zeros(n)
    truth[supp] = rng.standard_normal(k)
    y = A @ truth
    if spec.noise_eps > 0:
        h = rng.standard_normal(m)
        h /= np.linalg.norm(h)
        y += spec.noise_eps * h
    return ProblemInstance(A=A, y=y, k=k, truth=truth)


def equiangular_frame(n, rng=None):
    """(n-1) x n matrix with unit columns and pairwise inner products -1/(n-1).

    Every t columns then have order-t isometry constant exactly (t-1)/(n-1),
    which makes this family handy for exercising the bound machinery against
    closed-form constants.  An optional rng applies a random row rotation
    (the column Gram, hence every constant, is unchanged).
    """
    check_count(n, "n", lo=2)
    M = np.eye(n) - np.ones((n, n)) / n
    vals, vecs = np.linalg.eigh(M)
    B = (vecs[:, 1:] * np.sqrt(vals[1:])).T  # (n-1) x n with Gram = M
    A = B / np.linalg.norm(B, axis=0)
    if rng is not None:
        Q, R = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
        Q *= np.sign(np.diag(R))  # fix signs so the rotation is Haar
        A = Q @ A
    return A


def trial_seed(base_seed, algorithm, kappa_index, rho_index, trial_index):
    """Stable 64-bit per-trial seed; BLAKE2b keeps it identical across platforms."""
    key = f"{base_seed}:{algorithm}:{kappa_index}:{rho_index}:{trial_index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@dataclass
class TrialRecord:
    """One benchmark run and its outcome."""

    spec: EnsembleSpec
    algorithm: str
    success: bool
    iterations: int
    wall_time: float
    rel_error: float
    stop_reason: str
    kappa_index: int = 0
    rho_index: int = 0
    trial_index: int = 0


# The operating point, under the name the benchmark scripts look up.
default_config = config_for


def run_trial(spec, algorithm):
    """Generate the instance, run config_for(algorithm) on it, score the recovery.

    Every exception propagates, guard refusals included.  Under noise the
    residual tolerance is raised to the noise level, since no iterate can be
    expected to fit y closer than ||noise||.
    """
    cfg = config_for(algorithm)
    if spec.noise_eps > 0 and cfg.residual_tol < spec.noise_eps:
        cfg = replace(cfg, residual_tol=spec.noise_eps)
    start = time.perf_counter()
    problem = generate_instance(spec)
    result = run(problem, cfg)
    truth_norm = float(np.linalg.norm(problem.truth))
    rel = float(np.linalg.norm(result.x_final - problem.truth)) / truth_norm
    return TrialRecord(spec=spec, algorithm=algorithm, success=rel <= SUCCESS_REL_TOL,
                       iterations=result.iterations,
                       wall_time=time.perf_counter() - start,
                       rel_error=rel, stop_reason=result.stop_reason)


@dataclass
class GridResult:
    """All trial records of a success-rate grid plus the grid geometry."""

    n: int
    base_seed: int
    kappa_list: list
    rho_list: list
    algorithms: list
    records: list

    def rates(self, algorithm):
        """Success-rate matrix indexed [kappa_index][rho_index], counted in one
        pass over the records.  An algorithm the grid did not run is refused."""
        if algorithm not in self.algorithms:
            raise ValueError(f"algorithm {algorithm!r} not in this grid's {self.algorithms}")
        successes = [[0] * len(self.rho_list) for _ in self.kappa_list]
        trials = [[0] * len(self.rho_list) for _ in self.kappa_list]
        for r in self.records:
            if r.algorithm == algorithm:
                successes[r.kappa_index][r.rho_index] += r.success
                trials[r.kappa_index][r.rho_index] += 1
        return [[s / t for s, t in zip(s_row, t_row)]
                for s_row, t_row in zip(successes, trials)]


def _grid_task(args):
    spec, algorithm, ki, ri, ti = args
    record = run_trial(spec, algorithm)
    record.kappa_index, record.rho_index, record.trial_index = ki, ri, ti
    return record


def success_grid(n, kappa_list, rho_list, trials_per_cell, algorithms,
                 base_seed=0, noise_eps=0.0, workers=1):
    """Success rates per (algorithm, kappa, rho) cell, every trial run by
    run_trial.  Trials are independent, so workers > 1 distributes them over a
    process pool.  Records come back in task order, which is (algorithm name,
    kappa index, rho index, trial index) whatever the worker count; they are
    not sorted afterwards.  GridResult.algorithms keeps the caller's order.
    The pool has at most one worker per task.

    The whole request is checked before any trial runs: a ValueError names an
    empty axis, the first algorithm not in ALL_VARIANTS or repeated, or a
    trial or worker count that is not a positive integer.  A trial's
    exception ends the grid; hbot and hbotp sort first, so their guard
    refusal comes at the first task.
    """
    kappa_list = list(kappa_list)
    rho_list = list(rho_list)
    algorithms = list(algorithms)
    if not kappa_list or not rho_list or not algorithms:
        raise ValueError("kappa_list, rho_list, and algorithms must be nonempty")
    for algorithm in algorithms:
        if algorithm not in ALL_VARIANTS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if algorithms.count(algorithm) > 1:
            raise ValueError(f"algorithm {algorithm!r} repeated")
    check_count(trials_per_cell, "trials_per_cell")
    check_count(workers, "workers")

    tasks = []
    for algorithm in sorted(algorithms):
        for ki, kappa in enumerate(kappa_list):
            for ri, rho in enumerate(rho_list):
                for ti in range(trials_per_cell):
                    spec = EnsembleSpec(n=n, kappa=kappa, rho=rho, noise_eps=noise_eps,
                                        seed=trial_seed(base_seed, algorithm, ki, ri, ti))
                    tasks.append((spec, algorithm, ki, ri, ti))

    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_grid_task, tasks, chunksize=4))
    else:
        records = [_grid_task(t) for t in tasks]
    return GridResult(n=n, base_seed=base_seed, kappa_list=kappa_list,
                      rho_list=rho_list, algorithms=algorithms, records=records)


def transition_point(points):
    """rho at which a success curve first crosses 50% from above.

    points is a sequence of (rho, rate) sorted by rho, each rho in (0, 1] and
    each rate in [0, 1] (NaN refused); piecewise-linear interpolation locates
    the crossing.  Without a crossing, a curve whose
    last rate is exactly 50% returns its last rho with extrapolated=False;
    otherwise the nearest boundary is returned with extrapolated=True.

    Returns (rho_50, extrapolated).
    """
    pts = [(float(r), float(s)) for r, s in points]
    if len(pts) < 2:
        raise ValueError("need at least two (rho, rate) points")
    if any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
        raise ValueError("points must be strictly increasing in rho")
    for rho, rate in pts:
        check_real(rho, "rho", positive=True, at_most=1)
        check_real(rate, "rate", at_most=1)
    for (r0, s0), (r1, s1) in zip(pts, pts[1:]):
        if s0 >= 0.5 > s1:
            return r0 + (r1 - r0) * (s0 - 0.5) / (s0 - s1), False
    if pts[-1][1] == 0.5:
        return pts[-1][0], False
    if all(s < 0.5 for _, s in pts):
        return pts[0][0], True
    return pts[-1][0], True


def transition_curve(grid, algorithm):
    """Per-kappa transition estimates: list of (kappa, rho_50, extrapolated)."""
    out = []
    for kappa, row in zip(grid.kappa_list, grid.rates(algorithm)):
        rho50, flag = transition_point(list(zip(grid.rho_list, row)))
        out.append((kappa, rho50, flag))
    return out


# --- CSV output ---------------------------------------------------------------
#
# Trials CSV: one meta line `# generator=<name>, base_seed=<u64>, n=<int>`,
# then rows algorithm,kappa,rho,m,k,trial,seed,success,iters,rel_error,wall_time_s.
# Transition CSV: rows algorithm,kappa,rho_50.


def write_trials_csv(fh, grid, include_timing=False):
    """Write the trial rows.  Timing is written as 0 unless include_timing is
    set, keeping the default output byte-reproducible run to run.  A timed row
    writes its seconds as d.dddddde±XX (7 significant digits), so the file's
    length does not vary with the measured times."""
    fh.write(f"# generator={GENERATOR_NAME}, base_seed={grid.base_seed}, n={grid.n}\n")
    for r in grid.records:
        wall = f"{r.wall_time:.6e}" if include_timing else "0"
        fh.write(",".join([
            r.algorithm,
            repr(float(r.spec.kappa)),
            repr(float(r.spec.rho)),
            str(r.spec.m),
            str(r.spec.k),
            str(r.trial_index),
            str(r.spec.seed),
            "1" if r.success else "0",
            str(r.iterations),
            repr(float(r.rel_error)),
            wall,
        ]) + "\n")


def write_transition_csv(fh, grid):
    fh.write(f"# generator={GENERATOR_NAME}, base_seed={grid.base_seed}, n={grid.n}\n")
    for algorithm in grid.algorithms:
        for kappa, rho50, _ in transition_curve(grid, algorithm):
            fh.write(f"{algorithm},{repr(float(kappa))},{repr(float(rho50))}\n")
