"""Reproduce the paper's single-model and ensemble comparisons.

Trains sgd, rprop and mod-rprop on the seeds of an experiment config,
then bagging and stacking ensembles of each size on the same seeds, and
prints per-seed results, the median table, the Wilcoxon verdict of
mod-rprop against rprop, member and ensemble medians and, for two
sizes, their Wilcoxon test; <out>/summary.txt keeps the report.

    python3 scripts/reproduce.py --data runs/digits --sizes 3,10

The two files (by default desk.cfg and desk-ensemble.cfg next to this
script) hold every setting. Per run the script sets only the config's
`optimizer` and `out_dir` and the spec's `kind`, `size`, `seed` and
`out_dir`; `--data` sets `data_dir` in both. Artifacts go to
<out>/<optimizer>/ and <out>/<kind>-<size>/seed<N>/. Bad input exits 2
with one `error:` line; a diverged run exits 1.
"""

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from resprop import harness  # noqa: E402
from resprop.serialization import write_atomic  # noqa: E402
from resprop.stats import wilcoxon_signed_rank  # noqa: E402
from resprop.training import DivergenceError  # noqa: E402

CONFIDENCE = 0.98


def reproduce(args) -> None:
    lines = []

    def say(text=""):
        print(text, flush=True)
        lines.append(text)

    cfg = replace(harness.read_config(args.config), data_dir=args.data)
    spec = replace(harness.read_ensemble_config(args.spec), data_dir=args.data)
    sizes = tuple(int(s) for s in (args.sizes or str(spec.size)).split(","))
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"--sizes {args.sizes} repeats a size")
    specs = {n: replace(spec, size=n) for n in sizes}  # checks every size
    if len(cfg.seeds) < 2:
        raise ValueError("the paired comparisons need at least 2 seeds")
    splits, ens_splits = cfg.splits_for(None), spec.splits_for(None)
    out = Path(args.out)

    results = {}
    for opt in ("sgd", "rprop", "mod-rprop"):
        say(f"training {opt} over seeds {cfg.seeds} ...")
        run = replace(cfg, optimizer=opt, out_dir=str(out / opt))
        results[opt] = harness.run_experiment(run, splits, label=opt)
        for rec in results[opt].records:
            say("  seed %d: 1st epoch %.4f, best %.4f @ epoch %d, test %.4f"
                % (rec.seed, rec.first_epoch_val_err, rec.best_val_err,
                   rec.best_epoch, rec.test_err_at_best))
    say()
    say(harness.format_summary_table(
        [(opt, res.summaries()) for opt, res in results.items()]))
    say(harness.format_comparison(harness.compare_runs(
        results["mod-rprop"].summaries(), results["rprop"].summaries(),
        CONFIDENCE, label_a="mod-rprop", label_b="rprop")))

    for kind in ("bagging", "stacking"):
        ens_errs = {}
        for n in sizes:
            ens_errs[n], member_medians = [], []
            for seed in cfg.seeds:
                build = replace(specs[n], kind=kind, seed=seed, out_dir=str(
                    out / f"{kind}-{n}" / f"seed{seed}"))
                output = harness.run_ensemble(build, ens_splits)
                errs = output.member_test_errs
                ens_errs[n].append(output.ensemble_test_err)
                member_medians.append(statistics.median(errs))
                say("  %s N=%d seed %d: members %s -> ensemble %.4f"
                    % (kind, n, seed, "/".join("%.4f" % e for e in errs),
                       output.ensemble_test_err))
            say("  %s N=%d medians: member %.4f, ensemble %.4f"
                % (kind, n, statistics.median(member_medians),
                   statistics.median(ens_errs[n])))
        if len(sizes) == 2:
            res = wilcoxon_signed_rank(*(ens_errs[n] for n in sizes))
            say("%s N=%d vs N=%d: W+ = %g, p = %.6g (%s at %g%% confidence)"
                % (kind, *sizes, res.statistic, res.p_value,
                   "significant" if res.significant(CONFIDENCE)
                   else "not significant", 100.0 * CONFIDENCE))
    write_atomic(out / "summary.txt", ("\n".join(lines) + "\n").encode())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(HERE / "desk.cfg"))
    ap.add_argument("--spec", default=str(HERE / "desk-ensemble.cfg"))
    ap.add_argument("--data", required=True, help="directory with IDX files")
    ap.add_argument("--out", default="runs/repro", help="artifact directory")
    ap.add_argument("--sizes", help="ensemble sizes, e.g. 3,10")
    args = ap.parse_args(argv)
    try:
        reproduce(args)
    except (ValueError, OSError, TypeError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DivergenceError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
