"""Command-line entry points.

    resprop train     --config PATH [--seed N] [--out DIR]
    resprop evaluate  --model PATH --data DIR [--test-size N]
    resprop ensemble  --spec PATH [--out DIR]
    resprop compare   --a DIR --b DIR [--confidence 0.98]
    resprop gradcheck --arch SPEC [--tol 1e-5] [--seed N] [--batch N]
    resprop synth     --out DIR [--train N] [--test N] [--seed N]

train runs every seed in the config (or just --seed) and writes metrics
CSVs, checkpoints, runs.csv and summary.txt into the output directory.
evaluate scores a saved checkpoint on a directory's test files. compare
reads two runs.csv files, pairs runs by seed and prints the Wilcoxon
verdict. gradcheck compares analytic with finite-difference
gradients on a random network and exits nonzero on failure. synth
writes a deterministic synthetic digit corpus in IDX format, for
running the toolkit where the real handwriting corpus is not on disk.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, synthetic
from .data import load_test_set
from .gradcheck import gradient_check
from .network import chain_specs, init_params, nll_loss
from .serialization import load_checkpoint
from .tensor import RngStream
from .training import DivergenceError, error_rate, predict_probabilities


def _cmd_train(args) -> int:
    cfg = harness.read_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    result = harness.run_experiment(cfg)
    out = Path(cfg.out_dir)
    for record in result.records:
        print("seed %d: best epoch %d, val err %.4f, test err %.4f"
              % (record.seed, record.best_epoch, record.best_val_err,
                 record.test_err_at_best))
    print(f"artifacts in {out}")
    return 0


def _cmd_evaluate(args) -> int:
    params, _, _ = load_checkpoint(args.model)
    test = load_test_set(args.data, args.test_size)
    probs = predict_probabilities(params, test)
    err = error_rate(probs.argmax(axis=1), test.labels)
    loss = nll_loss(probs, test.labels)
    print("test err %.4f (%.2f%%) on %d examples, mean loss %.6f"
          % (err, 100.0 * err, len(test), loss))
    return 0


def _cmd_ensemble(args) -> int:
    cfg = harness.read_ensemble_config(args.spec)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    output = harness.run_ensemble(cfg)
    for i, err in enumerate(output.member_test_errs):
        print("member %02d: test err %.4f" % (i, err))
    print("%s ensemble of %d: test err %.4f"
          % (cfg.kind, cfg.size, output.ensemble_test_err))
    print(f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_compare(args) -> int:
    runs_a = harness.parse_runs_csv((Path(args.a) / "runs.csv").read_text())
    runs_b = harness.parse_runs_csv((Path(args.b) / "runs.csv").read_text())
    result = harness.compare_runs(runs_a, runs_b, args.confidence,
                                  label_a=args.a, label_b=args.b)
    sys.stdout.write(harness.format_comparison(result))
    return 0


def _cmd_gradcheck(args) -> int:
    sizes = harness.parse_size_chain(args.arch)
    if args.batch < 1:
        raise ValueError(f"batch must be >= 1, got {args.batch}")
    rng = RngStream(args.seed, 0)
    params = init_params(chain_specs(sizes), rng)
    x = rng.uniform(0.0, 1.0, size=(args.batch, sizes[0]))
    labels = rng.integers(sizes[-1], size=args.batch)
    n_params = params.num_parameters()
    if n_params > 200000:
        raise ValueError(f"refusing to finite-difference {n_params} "
                         "parameters; use a smaller architecture")
    report = gradient_check(params, x, labels, h=args.h, tol=args.tol)
    ok = report.max_rel_err <= args.tol
    print("gradcheck %s: arch %s, %d coordinates, max rel err %.3g at %s, "
          "%.2f%% within %.0e"
          % ("PASS" if ok else "FAIL", args.arch, report.n_coordinates,
             report.max_rel_err, report.worst_location,
             100.0 * report.frac_within_tol, report.tol))
    return 0 if ok else 1


def _cmd_synth(args) -> int:
    out_dir = synthetic.write_corpus(args.out, n_train=args.train,
                                     n_test=args.test, seed=args.seed)
    print(f"wrote {args.train}+{args.test} examples to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resprop",
        description="Train and compare dropout networks with the rprop family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the seeded experiment in a config file")
    p.add_argument("--config", required=True, help="flat key-value config file")
    p.add_argument("--seed", type=int, default=None,
                   help="run only this seed (default: all seeds in the config)")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a test set")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="directory with the IDX files")
    p.add_argument("--test-size", type=int, default=None,
                   help="evaluate only the first N test examples")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ensemble", help="train a bagging or stacking ensemble")
    p.add_argument("--spec", required=True, help="flat key-value ensemble spec")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("compare", help="paired Wilcoxon comparison of two run dirs")
    p.add_argument("--a", required=True, help="first experiment directory")
    p.add_argument("--b", required=True, help="second experiment directory")
    p.add_argument("--confidence", type=float, default=0.98)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gradcheck",
                       help="compare analytic and finite-difference gradients")
    p.add_argument("--arch", required=True, help="size chain, e.g. 20-16-5")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="worst-coordinate relative error bound")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--h", type=float, default=1e-5, dest="h",
                   help="finite-difference step")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("synth", help="write a synthetic digit corpus (IDX files)")
    p.add_argument("--out", required=True, help="target directory")
    p.add_argument("--train", type=int, default=7000)
    p.add_argument("--test", type=int, default=1500)
    p.add_argument("--seed", type=int, default=901)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TypeError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DivergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
