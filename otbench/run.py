"""otkit benchmark: one command, four workloads, end-to-end or traced.

    python3 otbench/run.py --workload greedy-sweep --seed 11 --seconds 30 --trace 0

Run from anywhere; the program is imported from the `src/` directory beside
this one.  --trace 0 measures the end-to-end metrics untraced; --trace 1
runs each pass untraced and traced in one process and reports the per-layer
metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; a fuller record (run
environment, tail percentile, per-trial success bits, failures, spans) is
written under otbench/out/.  Exit code 0 when every check passed, 1 when
one failed, 2 when the program cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, Pacer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="greedy-sweep, desk-certify, operating-point or relaxed-transition")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the measured loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """HEAD's sha, or 'unavailable' when the checkout is not a git repository
    (a parent directory's repository is not asked)."""
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def run_environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def run_passes(workload, pacer, seconds=0.0, count=None, first=0):
    """Closed loop of passes first, first+1, ...: exactly `count` of them, or else
    as many as fit in `seconds` judging by the median pass so far (at least
    one).  The pacer calibrates before and after each pass and between its
    parts.  Returns (passes, wall seconds of each pass, reference seconds of
    each pass), leaving the calibrations' own time out of both."""
    passes, walls, ref_walls = [], [], []
    begin = perf_counter()
    workload.pace = pacer
    pacer()
    while True:
        t0 = pacer.ends[-1]
        passes.append(workload.run_pass(first + len(passes)))
        pacer()
        wall, ref = pacer.busy(t0, pacer.starts[-1])
        walls.append(wall)
        ref_walls.append(ref)
        if count is not None:
            if len(passes) >= count:
                break
        elif perf_counter() - begin + statistics.median(walls) > seconds:
            break
    workload.pace = lambda: None
    return passes, walls, ref_walls


def percentile(xs, q):
    """Nearest-rank q-th percentile of xs, and how many samples lie beyond it."""
    xs = sorted(xs)
    i = max(math.ceil(q / 100.0 * len(xs)) - 1, 0)
    return xs[i], len(xs) - 1 - i


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(workload, seed, seconds, out_dir):
    """Median of SETUP_REPEATS fresh set-ups, each in a new interpreter and
    each converted to reference seconds by the calibrations that follow it
    in the same interpreter."""
    samples, ref_samples = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(seconds), str(out_dir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, calibration = map(float, proc.stdout.split()[-2:])
        samples.append(setup)
        ref_samples.append(setup * REFERENCE_S / calibration)
    return statistics.median(ref_samples), samples, ref_samples


def tally(passes):
    attempted = sum(p.operations for p in passes)
    failures = [f for p in passes for f in p.failures]
    return attempted, failures


def success_bits(passes):
    return [[str(tid), int(ok)] for p in passes for tid, ok in zip(p.trial_ids, p.successes)]


def reference_comparison(workload, seed, first_pass):
    """Compare pass 0 with the stored reference run, if there is one for this
    workload and seed.  A difference is reported, never failed."""
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    ref = json.loads(path.read_text()).get(workload)
    if not ref or ref["seed"] != seed:
        return None
    bits = dict(success_bits([first_pass]))
    flipped = sorted(tid for tid, bit in ref["success_bits"].items() if bits.get(tid) != bit)
    return {
        "sha256_match": all(first_pass.info.get(k) == v for k, v in ref["sha256"].items()),
        "flipped_trials": flipped,
    }


def end_to_end(workload, args, out_dir):
    setup_start = perf_counter()
    wl = workload(args.seed, args.seconds, str(out_dir))
    inprocess_setup = perf_counter() - setup_start
    wl.warm_up()
    pacer = Pacer()
    passes, walls, ref_walls = run_passes(wl, pacer, args.seconds)
    rss = peak_rss_mb()  # before the set-up probes add their own children
    setup_s, setup_samples, setup_ref_samples = setup_seconds(
        args.workload, args.seed, args.seconds, out_dir)

    raw = [x for p in passes for x in p.latencies]
    latencies = [x * pacer.factor(t) for p in passes for x, t in zip(p.latencies, p.stamps)]
    successes = [x for p in passes for x in p.successes]
    if not latencies:
        passes[-1].check(False, "no recovery completed; nothing to measure")
        return passes, {}, {}, []
    tail, beyond = percentile(latencies, wl.tail_percentile)
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (len(latencies) / sum(ref_walls), "1/s"),
        "trial_p50_s": (statistics.median(latencies), "s"),
        "trial_tail_s": (tail, "s"),
        "recovered_share": (sum(successes) / len(successes), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    wall = {
        "setup_s": statistics.median(setup_samples),
        "trials_per_s": len(raw) / sum(walls),
        "trial_p50_s": statistics.median(raw),
        "trial_tail_s": percentile(raw, wl.tail_percentile)[0],
    }
    calibrations = pacer.durations()
    record = {
        "trials": len(latencies),
        "passes": len(passes),
        "wall_clock_metrics": wall,
        "pass_walls_s": walls,
        "pass_reference_s": ref_walls,
        "calibration_s": calibrations,
        "trial_tail_percentile": wl.tail_percentile,
        "trial_tail_samples_beyond": beyond,
        "setup_samples_s": setup_samples,
        "setup_reference_samples_s": setup_ref_samples,
        "inprocess_setup_s": inprocess_setup,
        "pass_info": [p.info for p in passes],
        "reference": reference_comparison(args.workload, args.seed, passes[0]),
        "success_bits": success_bits(passes),
    }
    notes = [f"times are reference seconds (calibrate.py): {len(calibrations)} calibrations, "
             f"median {statistics.median(calibrations):.5f} s vs {REFERENCE_S} s reference",
             "wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()),
             f"trial_tail_s is p{wl.tail_percentile:g} of {len(latencies)} trials "
             f"({beyond} beyond it)",
             f"median pass: {statistics.median(ref_walls):.4f} s over {len(passes)} passes"]
    notes += [f"pass {i} {key} = {value}" for i, p in enumerate(passes)
              for key, value in p.info.items() if key.startswith("rho50")]
    return passes, metrics, record, notes


def traced(workload, args, out_dir):
    from tracer import Tracer
    from workloads import GridWorkload

    wl = workload(args.seed, args.seconds, str(out_dir))
    wl.warm_up()
    grid = isinstance(wl, GridWorkload)
    if grid:
        # Traced passes stay in one process so no span crosses a process
        # boundary; the pool runs the same passes untraced for the speedup.
        wl.trials_per_cell = 1
        wl.threads = 1
    # A fixed number of passes, so every counter is a total over the same
    # work whatever the machine's or the program's speed.  Each pass runs
    # once untraced and once traced, in alternating order, so drift in
    # machine speed and any second-run advantage fall on both sides of the
    # overhead ratio alike.
    tracer = Tracer()
    pacer = Pacer()
    untraced_passes, traced_passes, untraced_ref, traced_ref = [], [], [], []

    def untraced_run(p):
        passes, _, ref = run_passes(wl, pacer, count=1, first=p)
        untraced_passes.append(passes[0])
        untraced_ref.append(ref[0])

    def traced_run(p):
        wl.on_trial = tracer.set_trial
        with tracer:
            passes, _, ref = run_passes(wl, pacer, count=1, first=p)
        wl.on_trial = lambda trial_id: None
        traced_passes.append(passes[0])
        traced_ref.append(ref[0])

    for p in range(wl.trace_passes):
        for run in ((untraced_run, traced_run) if p % 2 == 0 else (traced_run, untraced_run)):
            run(p)
    untraced_wall, traced_wall = sum(untraced_ref), sum(traced_ref)
    passes, record = untraced_passes + traced_passes, {}
    pool_speedup = 0.0
    if grid:
        wl.threads = os.cpu_count() or 1
        pool_passes, _, pool_ref = run_passes(wl, pacer, count=wl.trace_passes)
        pool_wall = sum(pool_ref)
        pool_speedup = untraced_wall / pool_wall
        passes += pool_passes
        record.update(pool_reference_s=pool_wall, pool_workers=wl.threads)

        # a grid CSV must not depend on the worker count or on tracing
        for i, (single, pooled, traced_pass) in enumerate(
                zip(untraced_passes, pool_passes, traced_passes)):
            for key in (k for k in single.info if k.endswith("_sha256")):
                hashes = {single.info[key], pooled.info.get(key), traced_pass.info.get(key)}
                traced_pass.check(len(hashes) == 1,
                                  f"pass {i} {key} differs across worker counts: {hashes}")

    metrics = tracer.layer_metrics(scale=pacer.factor)
    metrics.update({
        "bench.pool_speedup": (pool_speedup, "ratio"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
        "trace.spans": (len(tracer), "count"),
    })
    tracer.write(out_dir / "spans.jsonl.gz")
    record.update({
        "untraced_reference_s": untraced_wall,
        "traced_reference_s": traced_wall,
        "untraced_pass_reference_s": untraced_ref,
        "traced_pass_reference_s": traced_ref,
        "traced_passes": len(traced_passes),
        "calibration_s": pacer.durations(),
        "pass_info": [p.info for p in passes],
        "success_bits": success_bits(traced_passes),
    })
    notes = [f"times are reference seconds (calibrate.py), over {len(traced_passes)} "
             f"traced pass(es)",
             f"tracing overhead: {traced_wall:.3f} s traced vs {untraced_wall:.3f} s "
             f"untraced single-process"]
    if pool_speedup:
        notes.append(f"pool of {record['pool_workers']} workers: {pool_wall:.3f} s "
                     f"for the same passes, speedup {pool_speedup:.3f} "
                     f"(ideal {record['pool_workers']})")
    return passes, metrics, record, notes


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "otkit" / "__init__.py").is_file():
        print(f"error: otkit sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    measure = traced if args.trace else end_to_end
    passes, metrics, record, notes = measure(workload, args, out_dir)
    attempted, failures = tally(passes)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": run_environment(),
              "attempted": attempted, "failed": len(failures),
              "error_share": len(failures) / attempted,
              "failures": failures[:100],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **record}
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes + [f"error_share = {record['error_share']:.6g} "
                         f"({len(failures)} of {attempted} operations)"]:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(f"record: {out_dir / 'record.json'}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
