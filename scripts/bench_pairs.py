"""Paired benchmark comparison of a base commit and the working tree.

Extracts the base commit's files (`git archive`) into a temporary
directory, then on each workload runs alternating base/change pairs of
`perfbench/run.py --trace 0`, one pair per seed, the first side of each
pair alternating too. Then it makes one full-scale `--trace 1` run per
side per workload. It prints, per workload and end-to-end metric, each
side's median and quartiles, the change of the median, the base's
interquartile range, how many pairs the change won (ties count for
neither side) and how many were equal; for the traced runs, both `harness.run_experiment`
fractions and the optimizer kernels' call counts; and every run that
exited nonzero, with its PROBLEM lines.

    python3 scripts/bench_pairs.py --base HEAD --seeds 601-610
    python3 scripts/bench_pairs.py --base HEAD~1 --seeds 601-610 \\
        --workloads desk-dropout --trace-seed 611 --out pairs.json

Run it from anywhere inside the repository, on an otherwise idle
machine: the runs are sequential and each takes `--seconds` plus its
set-up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_KEYS = ("harness.run_experiment.optimizer_frac",
              "harness.run_experiment.network_frac",
              "optimizers.sgd_step.calls", "optimizers.rprop_step.calls",
              "optimizers.dropout_rprop_step.calls")


def parse_seeds(text: str) -> list[int]:
    """'601-603,610' -> [601, 602, 603, 610]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def extract(ref: str, dest: Path) -> None:
    """The files of commit `ref`, written under `dest`."""
    archive = dest / "base.tar"
    with open(archive, "wb") as f:
        subprocess.run(["git", "-C", str(ROOT), "archive", ref], stdout=f,
                       check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def bench(tree: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """One `perfbench/run.py` run: exit code, PROBLEM lines, metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"metrics": {}}
    return {"exit": proc.returncode,
            "problems": [ln[len("# PROBLEM "):] for ln in lines
                         if ln.startswith("# PROBLEM ")]
            + ([proc.stderr.strip()] if proc.returncode and proc.stderr else []),
            "attempted": result.get("attempted"),
            "failed": result.get("failed"),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report_pairs(workload: str, pairs: list[tuple[dict, dict]],
                 better: dict) -> list[str]:
    out = [f"== {workload}: {len(pairs)} pairs (median [q1, q3])"]
    for name, direction in better.items():
        rows = [(b["metrics"][name], c["metrics"][name]) for b, c in pairs
                if name in b["metrics"] and name in c["metrics"]]
        if not rows:
            continue
        base = [b for b, _ in rows]
        change = [c for _, c in rows]
        sign = -1 if direction == "lower" else 1
        wins = sum(sign * (c - b) > 0 for b, c in rows)
        equal = sum(c == b for b, c in rows)
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        rel = f"{100 * (cm / bm - 1):+.1f}%" if bm else "n/a"
        out.append(f"{name}: base {bm:.6g} [{b1:.6g}, {b3:.6g}] -> change "
                   f"{cm:.6g} [{c1:.6g}, {c3:.6g}] ({rel}; base IQR "
                   f"{b3 - b1:.4g}; change better in {wins}/{len(rows)}, "
                   f"equal in {equal})")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True,
                    help="commit to compare the working tree against")
    ap.add_argument("--seeds", required=True,
                    help="one seed per pair, e.g. 601-610")
    ap.add_argument("--workloads", default="desk-dropout,fullbatch-nodrop")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace-seed", type=int,
                    help="seed of the traced runs (default: last seed + 1)")
    ap.add_argument("--out", help="also write every run's result as JSON")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    trace_seed = args.trace_seed if args.trace_seed is not None else seeds[-1] + 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        extract(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "change": ROOT}
        for workload in workloads:
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    run = bench(trees[side], workload, seed, args.seconds, 0)
                    runs.append({"side": side, "workload": workload,
                                 "seed": seed, "trace": 0, **run})
                    print(f"# {workload} seed {seed} {side}: exit {run['exit']}",
                          file=sys.stderr, flush=True)
            for side in ("base", "change"):
                run = bench(trees[side], workload, trace_seed, args.seconds, 1)
                runs.append({"side": side, "workload": workload,
                             "seed": trace_seed, "trace": 1, **run})
                print(f"# {workload} traced {side}: exit {run['exit']}",
                      file=sys.stderr, flush=True)

    lines = []
    for workload in workloads:
        untraced = {side: [r for r in runs if r["workload"] == workload
                           and r["side"] == side and not r["trace"]]
                    for side in ("base", "change")}
        lines += report_pairs(workload, list(zip(untraced["base"],
                                                 untraced["change"])), better)
        for r in runs:
            if r["workload"] == workload and r["trace"]:
                fracs = ", ".join(f"{k} {r['metrics'].get(k, float('nan')):.4g}"
                                  for k in TRACE_KEYS)
                lines.append(f"traced {r['side']} (seed {r['seed']}, exit "
                             f"{r['exit']}): {fracs}")
    failed = [r for r in runs if r["exit"]]
    for r in failed:
        lines.append(f"NONZERO EXIT {r['exit']}: {r['side']} {r['workload']} "
                     f"seed {r['seed']} trace {r['trace']}")
        lines += [f"  PROBLEM {p}" for p in r["problems"]]
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
