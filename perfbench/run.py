"""Benchmark entry point: one workload, one process, one job at a time.

    python3 perfbench/run.py --workload desk-dropout --seed 1 \\
        --seconds 55 --trace 0

Run from the repository root. The corpus is synthesized from --seed.
With --trace 0 the jobs run untraced and the end-to-end metrics are
reported; with --trace 1 untraced and traced jobs alternate, and the
per-layer metrics of the first traced set-up and job are reported
together with the tracing overhead. See perfbench/README.md.
Human-readable report lines come first; the last line of standard
output is the JSON result. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))

# name -> (unit, which direction is better)
END_TO_END = {
    "setup_s": ("s", "lower"), "job_s": ("s", "lower"),
    "epoch_s.sgd": ("s/epoch", "lower"), "epoch_s.rprop": ("s/epoch", "lower"),
    "epoch_s.mod-rprop": ("s/epoch", "lower"),
    "member_epoch_s": ("s/epoch", "lower"),
    "stacker_epoch_s": ("s/epoch", "lower"),
    "eval_examples_per_s": ("examples/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "best_val_err.sgd": ("fraction", "lower"),
    "best_val_err.rprop": ("fraction", "lower"),
    "best_val_err.mod-rprop": ("fraction", "lower"),
    "test_err.bagging": ("fraction", "lower"),
    "test_err.stacking": ("fraction", "lower"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke shrinks every size for the benchmark's tests")
    return ap.parse_args(argv)


def percentile_summary(values) -> str:
    """Median, the highest of p99/p90 with at least 10 samples beyond
    it, and the sample count."""
    n = len(values)
    parts = [f"median {statistics.median(values):.6g}"]
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            parts.append(f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}")
            break
    parts.append(f"n={n}")
    return ", ".join(parts)


def environment(seed: int, workload: str) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": platform.python_version()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when numpy loads, so pin it first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "resprop" / "__init__.py").is_file():
        print(f"error: no resprop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]

    print("# env " + json.dumps(environment(args.seed, wl.name)))
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench",
                                     prefix=".work-") as tmp:
        result = measure(args, wl, scale, Path(tmp))
    for line in result.pop("report"):
        print("# " + line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, wl, scale, work: Path) -> dict:
    import layers
    import workloads
    from spans import Tracer, wrapper_cost_s

    report, problems = [], []
    setup_s, digests = [], set()
    start = time.perf_counter()
    for i in range(scale.setups):
        corpus = work / f"corpus{i}"
        t0 = time.perf_counter()
        splits = workloads.setup(args.seed, corpus, scale)
        setup_s.append(time.perf_counter() - t0)
        digests.add(workloads.splits_digest(splits))
    if len(digests) != 1:
        problems.append("set-up is not deterministic in the seed")

    jobs, traces, traced_setup_s = [], [], []

    def iteration(traced: bool) -> None:
        """One job, traced or not, in a fresh directory. A traced job is
        preceded by a set-up traced on the set-up layers only, so that
        set-up and job layers are measured apart."""
        here = work / f"job{len(jobs)}"
        if traced:
            setup_tracer, job_tracer = Tracer(), Tracer()
            with setup_tracer.installed(layers.SETUP_TARGETS, "resprop"):
                t0 = time.perf_counter()
                workloads.setup(args.seed, here / "corpus", scale)
                traced_setup_s.append(time.perf_counter() - t0)
            with job_tracer.installed(layers.JOB_TARGETS, "resprop"):
                outcome = workloads.run_job(wl, scale, splits, corpus,
                                            here / "out")
            traces.append((setup_tracer.spans, job_tracer.spans))
        else:
            outcome = workloads.run_job(wl, scale, splits, corpus, here / "out")
        jobs.append((traced, outcome))
        shutil.rmtree(here)

    # Iterations repeat until the next one would overrun --seconds,
    # set-ups included. A traced run alternates untraced and traced
    # iterations in pairs (U T T U ...), so drift in machine speed does
    # not bias the overhead estimate, and stops only after whole pairs.
    while True:
        iteration(bool(args.trace) and len(jobs) % 4 in (1, 2))
        elapsed = time.perf_counter() - start
        per_job = (elapsed - sum(setup_s)) / len(jobs)
        if (elapsed + per_job > args.seconds
                and not (args.trace and len(jobs) % 2)):
            break

    attempted = sum(o.attempted for _, o in jobs)
    failed = sum(o.failed for _, o in jobs) + len(problems)
    problems += [p for _, o in jobs for p in o.problems]
    errors = jobs[0][1].errors
    for traced, o in jobs[1:]:
        if o.errors != errors:
            failed += 1
            problems.append(("traced" if traced else "repeated")
                            + f" job errors {o.errors} differ from {errors}")

    untraced = [o for traced, o in jobs if not traced]
    if not args.trace:
        samples = {
            "setup_s": setup_s,
            "job_s": [o.job_s for o in untraced],
            **{f"epoch_s.{opt}": [x for o in untraced for x in o.epoch_s[opt]]
               for opt in workloads.OPTIMIZERS},
            "member_epoch_s": [x for o in untraced for x in o.member_epoch_s],
            "stacker_epoch_s": [x for o in untraced for x in o.stacker_epoch_s],
            "eval_examples_per_s": [x for o in untraced
                                    for x in o.eval_examples_per_s],
        }
        metrics = {}
        for name, values in samples.items():
            if values:
                metrics[name] = statistics.median(values)
                report.append(f"{name} [{END_TO_END[name][0]}] "
                              + percentile_summary(values))
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics.update(errors)
        report += [f"{k} [{END_TO_END[k][0]}] {metrics[k]!r}"
                   for k in ("peak_rss_mib", *sorted(errors))]
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    else:
        traced_s = [o.job_s for t, o in jobs if t]
        plain_s = [o.job_s for t, o in jobs if not t]
        overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
        setup_overhead = (statistics.median(traced_setup_s)
                          / statistics.median(setup_s) - 1)
        setup_spans, job_spans = traces[0]
        computed = len(job_spans) * wrapper_cost_s() / traced_s[0]
        report.append(f"trace overhead: job_s traced {percentile_summary(traced_s)}"
                      f" vs untraced {percentile_summary(plain_s)}"
                      f" -> {100 * overhead:+.2f}% measured; "
                      f"{len(job_spans)} spans per job x wrapper cost -> "
                      f"{100 * computed:.2f}% computed; set-up traced "
                      f"{percentile_summary(traced_setup_s)} vs untraced "
                      f"{percentile_summary(setup_s)} -> "
                      f"{100 * setup_overhead:+.2f}%")
        layer = layers.layer_metrics(setup_spans, job_spans)
        metrics = {name: value for name, (value, _) in layer.items()}
        units = {name: unit for name, (_, unit) in layer.items()}
        design = design_problems(wl, metrics, args.scale == "full")
        failed += len(design)
        problems += design
        report += [f"{name} [{units[name]}] {value!r}"
                   for name, value in metrics.items()]

    missing = sorted(set(units) - set(metrics))
    if missing:
        failed += 1
        problems.append(f"metrics not produced: {missing}")
    report += [f"PROBLEM {p}" for p in problems]
    return {
        "report": report,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def design_problems(wl, m: dict, full_scale: bool) -> list[str]:
    """The workload-design facts a traced run must show, as problems.

    In the single-model runs, mod-rprop sees live weights below 1 under
    dropout and exactly 1 without; the stacker, trained without dropout,
    always sees exactly 1. At full scale the optimizer kernels take
    longer than forward plus backward in the minibatch dropout regime,
    and the reverse holds in the full-batch regime (small sizes shift
    that balance, so the smoke scale skips it).
    """
    problems = []
    live = m["harness.run_experiment.live_frac"]
    if not (live < 1.0 if wl.dropout_hidden > 0 else live == 1.0):
        problems.append(f"single-model live_frac {live!r} with hidden "
                        f"dropout {wl.dropout_hidden}")
    stacker = m["ensemble.train_ensemble.stacker_live_frac"]
    if stacker != 1.0:
        problems.append(f"stacker live_frac {stacker!r}, expected 1.0")
    kernel = m["harness.run_experiment.optimizer_frac"]
    net = m["harness.run_experiment.network_frac"]
    if full_scale and (kernel > net) == wl.full_batch:
        problems.append(f"single-model runs spend {kernel:.3f} in optimizer "
                        f"kernels and {net:.3f} in forward/backward/loss; "
                        f"the {wl.name} design expects the "
                        f"{'reverse' if wl.full_batch else 'kernels to lead'}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
