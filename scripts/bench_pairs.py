"""Paired benchmark comparison of a base commit and the working tree.

Extracts the base commit's files (`git archive`) into a temporary
directory, then on each workload runs alternating base/change pairs of
`perfbench/run.py --trace 0`, one pair per seed, the first side of each
pair alternating too. Then it makes one full-scale `--trace 1` run per
side per workload. It prints, per workload and end-to-end metric, each
side's median and quartiles, the change of the median, the base's
interquartile range, how many pairs the change won (ties count for
neither side) and how many were equal; for the traced runs, both
`harness.run_experiment` fractions and the call counts of the optimizer
kernels and of `ensemble.bootstrap_resample`; and every run that
exited nonzero, with its PROBLEM lines.

Verdicts: a BOUND EXCEEDED line names each workload and end-to-end
metric whose change median is worse than the base median by more than
the metric's relative `bound` in BENCHMARK.json. `--claim
METRIC@WORKLOAD` also prints whether that claim holds: the change won
at least 9 of every 10 pairs (ties count for neither side) and its
median beats the base median by more than the base IQR. The script
exits 1 if a run exited nonzero, a bound was exceeded or the claim was
not met.

    python3 scripts/bench_pairs.py --base HEAD --seeds 601-610
    python3 scripts/bench_pairs.py --base HEAD~1 --seeds 601-610 \\
        --workloads desk-dropout --trace-seed 611 --out pairs.json \\
        --claim peak_rss_mib@desk-dropout

Run it from anywhere inside the repository, on an otherwise idle
machine: the runs are sequential and each takes `--seconds` plus its
set-up.

`--artifacts` instead checks that a change leaves every corpus and
artifact byte for byte as it was. The base tree and the working tree
each write a small synthetic corpus with their own `resprop synth`
(CORPUS_ARGS), and the two corpora's IDX files are compared. Then each
tree runs its own `scripts/reproduce.py` on its own corpus (784-8-10,
one epoch, seeds 1-2, ensembles of 2, `clock = counter`), twice: at
hidden dropout 0.5 and batch 100, then with no dropout and the single
models at full batch (see ARTIFACT_RUNS). It names every file whose
bytes differ or that only one side wrote, and exits 1 if there is any.
The output root, which config.txt and spec.txt record, is masked before
the comparison.

    python3 scripts/bench_pairs.py --base HEAD --artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_ARGS = ("--train", "300", "--test", "100", "--seed", "5")
ARTIFACT_CFG = ("arch = 784-8-10\ntrain_size = 200\nval_size = 100\n"
                "clock = counter\n")
# Per artifact run: its experiment file's and its ensemble file's own
# lines. The second run trains every network unmasked, the single models
# full batch.
ARTIFACT_RUNS = {
    "dropout": ("batch_size = 100\n", "batch_size = 100\n"),
    "nodrop-fullbatch": ("batch_size = 200\ndropout_hidden = 0\n",
                         "batch_size = 100\ndropout_hidden = 0\n"),
}
TRACE_KEYS = ("harness.run_experiment.optimizer_frac",
              "harness.run_experiment.network_frac",
              "optimizers.sgd_step.calls", "optimizers.rprop_step.calls",
              "optimizers.dropout_rprop_step.calls",
              "ensemble.bootstrap_resample.calls")


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


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under `root`, by relative path, with its bytes; in
    config.txt and spec.txt, which record out_dir, `root` reads <out>."""
    files = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            if p.name in ("config.txt", "spec.txt"):
                data = data.replace(str(root).encode(), b"<out>")
            files[str(p.relative_to(root))] = data
    return files


def differing_files(a: Path, b: Path) -> list[str]:
    """The relative paths whose bytes differ between the trees `a` and
    `b`, or that only one of them holds (masked as in `tree_bytes`)."""
    ta, tb = tree_bytes(a), tree_bytes(b)
    return sorted(n for n in ta.keys() | tb.keys() if ta.get(n) != tb.get(n))


def artifact_files(name: str) -> tuple[str, str]:
    """The experiment and ensemble file texts of artifact run `name`."""
    exp, ens = ARTIFACT_RUNS[name]
    return (ARTIFACT_CFG + exp + "epochs = 1\nseeds = 1,2\n",
            ARTIFACT_CFG + ens + "size = 2\nmember_epochs = 1\n"
            "stacker_epochs = 1\n")


def report_differences(label: str, a: Path, b: Path, what: str) -> int:
    """Prints each file that differs between the trees `a` and `b` and
    their count; returns 1 if any differs, else 0."""
    differ = differing_files(a, b)
    for path in differ:
        print(f"DIFFERS: {label}/{path}")
    print(f"{label}: {len(differ)} of {len(tree_bytes(b))} {what} differ")
    return int(bool(differ))


def write_corpora(trees: dict[str, Path], tmp: Path) -> dict | None:
    """Each tree's own `resprop synth` writes the artifact corpus; returns
    each side's corpus directory, or None, after printing why, if a run
    failed."""
    corpora = {side: tmp / side / "digits" for side in trees}
    for side, tree in trees.items():
        proc = subprocess.run(
            [sys.executable, "-m", "resprop", "synth",
             "--out", str(corpora[side]), *CORPUS_ARGS],
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True, text=True)
        if proc.returncode:
            print(f"NONZERO EXIT {proc.returncode}: resprop synth of {side}"
                  f"\n{proc.stderr.strip()}")
            return None
    return corpora


def compare_artifacts(trees: dict[str, Path], tmp: Path) -> int:
    """Compares the corpora each tree writes (`write_corpora`), then runs
    `scripts/reproduce.py` of each tree on its own corpus, once per
    ARTIFACT_RUNS entry, prints every artifact that differs, and returns
    the exit code: 1 if a run failed, or a corpus file or an artifact
    differs, else 0."""
    corpora = write_corpora(trees, tmp)
    if corpora is None:
        return 1
    code = report_differences("corpus", corpora["base"], corpora["change"],
                              "files")
    for name in ARTIFACT_RUNS:
        exp, ens = artifact_files(name)
        (tmp / f"{name}.cfg").write_text(exp)
        (tmp / f"{name}-ens.cfg").write_text(ens)
        outs = {side: tmp / f"out-{name}-{side}" for side in trees}
        for side, tree in trees.items():
            # a relative --data, so config.txt and spec.txt read the same
            proc = subprocess.run(
                [sys.executable, str(tree / "scripts" / "reproduce.py"),
                 "--config", str(tmp / f"{name}.cfg"),
                 "--spec", str(tmp / f"{name}-ens.cfg"),
                 "--data", corpora[side].name, "--out", str(outs[side])],
                cwd=corpora[side].parent, capture_output=True, text=True)
            if proc.returncode:
                print(f"NONZERO EXIT {proc.returncode}: reproduce.py of "
                      f"{side}, {name} run\n{proc.stderr.strip()}")
                return 1
        code |= report_differences(name, outs["base"], outs["change"],
                                   "artifacts")
    return code


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(rows: list[tuple[float, float]], better: str) -> dict:
    """Quartiles of each side over (base, change) pairs, and how many
    pairs the change won (strictly better; ties count for neither side)
    and tied."""
    sign = -1 if better == "lower" else 1
    return {"n": len(rows),
            "wins": sum(sign * (c - b) > 0 for b, c in rows),
            "equal": sum(c == b for b, c in rows),
            "base": quartiles([b for b, _ in rows]),
            "change": quartiles([c for _, c in rows])}


def worse_by(summary: dict, better: str) -> float:
    """How much worse the change median is than the base median, as a
    fraction of the base median (negative when it is better)."""
    bm, cm = summary["base"][1], summary["change"][1]
    worse = cm - bm if better == "lower" else bm - cm
    return worse / abs(bm) if bm else (0.0 if worse <= 0 else float("inf"))


def bound_violations(summaries: dict, metrics: list[dict]) -> list[tuple]:
    """Every (workload, metric, worse_by) whose change median is worse
    than its base median by more than the metric's relative `bound`;
    `summaries` maps (workload, metric) to `summarize` output and
    `metrics` is BENCHMARK.json's `end_to_end` list."""
    spec = {m["name"]: m for m in metrics}
    out = []
    for (workload, name), summary in summaries.items():
        worse = worse_by(summary, spec[name]["better"])
        if worse > spec[name]["bound"]:
            out.append((workload, name, worse))
    return out


def claim_met(summary: dict, better: str) -> bool:
    """The claim rule: the change won at least 9 of every 10 pairs, and
    its median beats the base median by more than the base IQR."""
    b1, bm, b3 = summary["base"]
    cm = summary["change"][1]
    gain = bm - cm if better == "lower" else cm - bm
    return (summary["n"] > 0 and 10 * summary["wins"] >= 9 * summary["n"]
            and gain > b3 - b1)


def report_pairs(workload: str, pairs: list[tuple[dict, dict]],
                 better: dict) -> tuple[list[str], dict]:
    """Report lines for one workload and its per-metric summaries."""
    out = [f"== {workload}: {len(pairs)} pairs (median [q1, q3])"]
    summaries = {}
    for name, direction in better.items():
        rows = [(b["metrics"][name], c["metrics"][name]) for b, c in pairs
                if name in b["metrics"] and name in c["metrics"]]
        if not rows:
            continue
        s = summaries[(workload, name)] = summarize(rows, direction)
        b1, bm, b3 = s["base"]
        c1, cm, c3 = s["change"]
        rel = f"{100 * (cm / bm - 1):+.1f}%" if bm else "n/a"
        out.append(f"{name}: base {bm:.6g} [{b1:.6g}, {b3:.6g}] -> change "
                   f"{cm:.6g} [{c1:.6g}, {c3:.6g}] ({rel}; base IQR "
                   f"{b3 - b1:.4g}; change better in {s['wins']}/{s['n']}, "
                   f"equal in {s['equal']})")
    return out, summaries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True,
                    help="commit to compare the working tree against")
    ap.add_argument("--seeds", help="one seed per pair, e.g. 601-610")
    ap.add_argument("--workloads", default="desk-dropout,fullbatch-nodrop")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace-seed", type=int,
                    help="seed of the traced runs (default: last seed + 1)")
    ap.add_argument("--out", help="also write, as JSON, each end-to-end "
                    "metric's `summarize` output and every run's result")
    ap.add_argument("--claim", metavar="METRIC@WORKLOAD",
                    help="also check the claim rule for this metric")
    ap.add_argument("--artifacts", action="store_true",
                    help="instead compare the artifacts of a small "
                    "scripts/reproduce.py run byte for byte")
    args = ap.parse_args(argv)
    if args.artifacts:
        with tempfile.TemporaryDirectory(prefix="bench-artifacts-") as tmp:
            extract(args.base, Path(tmp))
            return compare_artifacts(
                {"base": Path(tmp) / "tree", "change": ROOT}, Path(tmp))
    if not args.seeds:
        ap.error("--seeds is required unless --artifacts is given")
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    trace_seed = args.trace_seed if args.trace_seed is not None else seeds[-1] + 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    claim = None
    if args.claim:
        metric, _, workload = args.claim.rpartition("@")
        claim = (workload, metric)
        if metric not in better or workload not in workloads:
            ap.error(f"--claim {args.claim}: expected METRIC@WORKLOAD with an "
                     f"end-to-end metric and one of {workloads}")

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
    summaries = {}
    for workload in workloads:
        untraced = {side: [r for r in runs if r["workload"] == workload
                           and r["side"] == side and not r["trace"]]
                    for side in ("base", "change")}
        report, found = report_pairs(
            workload, list(zip(untraced["base"], untraced["change"])), better)
        lines += report
        summaries.update(found)
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
    violations = bound_violations(summaries, spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, name, worse in violations:
        lines.append(f"BOUND EXCEEDED: {name} on {workload} is "
                     f"{100 * worse:.1f}% worse (bound {100 * bounds[name]:g}%)")
    claim_ok = True
    if claim:
        cs = summaries.get(claim)
        claim_ok = cs is not None and claim_met(cs, better[claim[1]])
        detail = ("no pairs" if cs is None else
                  f"won {cs['wins']}/{cs['n']}, median {cs['base'][1]:.6g} "
                  f"-> {cs['change'][1]:.6g}, base IQR "
                  f"{cs['base'][2] - cs['base'][0]:.4g}")
        lines.append(f"CLAIM {args.claim}: "
                     f"{'MET' if claim_ok else 'NOT MET'} ({detail})")
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "summaries": [{"workload": w, "metric": name, **s}
                          for (w, name), s in summaries.items()],
            "runs": runs}, indent=1) + "\n")
    return 1 if failed or violations or not claim_ok else 0


if __name__ == "__main__":
    sys.exit(main())
