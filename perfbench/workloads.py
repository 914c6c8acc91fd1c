"""The benchmark's workloads: set-up, one job, and its correctness checks.

Every workload runs the same job shape so that it reports every
metric: the three optimizers through `harness.run_experiment` on the
same seeds plus `compare_runs(mod-rprop, rprop)`, then a bagging and a
stacking ensemble of 3 through `harness.run_ensemble`, then every saved
model and ensemble reloaded and scored on the test split the way
`resprop evaluate` does. The workloads differ only in the regime of
the single-model runs:

* desk-dropout: batch 100 with hidden dropout 0.5, the paper's
  protocol. The elementwise optimizer kernel dominates.
* fullbatch-nodrop: no dropout and batch = the whole training split,
  classic full-batch Rprop. Forward and backward dominate; mod-rprop
  runs the all-ones-mask path.

The ensemble phase is the same in both: members 784-300-100-10 at
batch 100 with hidden dropout 0.5, the stacker 30-600-300-10 without
dropout.

Rprop hyperparameters are the acceptance suite's desk-scale ones, so
the error metrics sit well below chance after a few epochs.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from resprop import data, ensemble, harness, network, serialization, synthetic
from resprop import training

ARCH = (784, 300, 100, 10)
OPTIMIZERS = ("sgd", "rprop", "mod-rprop")
RUN_SEEDS = (1, 2)
ENSEMBLE_SEED = 1
ENSEMBLE_BATCH = 100
ENSEMBLE_DROPOUT = 0.5
RPROP_BOUNDS = dict(eta_minus=0.5, delta_max=5.0, delta_min=1e-3,
                    delta_init=3e-3)
# Per-variant growth factors; sgd ignores its entry.
ETA_PLUS = {"sgd": 1.2, "rprop": 1.3, "mod-rprop": 1.2}


@dataclass(frozen=True)
class Scale:
    """Sizes of one job; `FULL` is what the benchmark measures."""

    train: int
    val: int
    test: int
    single_epochs: dict
    member_epochs: int
    stacker_epochs: int
    eval_rounds: int
    setups: int


FULL = Scale(5000, 1000, 1000, {"desk-dropout": 2, "fullbatch-nodrop": 6},
             member_epochs=1, stacker_epochs=5, eval_rounds=8, setups=3)
SMOKE = Scale(200, 100, 100, {"desk-dropout": 1, "fullbatch-nodrop": 1},
              member_epochs=1, stacker_epochs=1, eval_rounds=1, setups=1)
SCALES = {"full": FULL, "smoke": SMOKE}


@dataclass(frozen=True)
class Workload:
    name: str
    dropout_hidden: float
    full_batch: bool

    def batch_size(self, scale: Scale) -> int:
        return scale.train if self.full_batch else 100


WORKLOADS = {
    "desk-dropout": Workload("desk-dropout", 0.5, full_batch=False),
    "fullbatch-nodrop": Workload("fullbatch-nodrop", 0.0, full_batch=True),
}


@dataclass
class Outcome:
    """What one job measured, plus its operation and check tallies."""

    job_s: float = 0.0
    epoch_s: dict = field(default_factory=lambda: {o: [] for o in OPTIMIZERS})
    member_epoch_s: list = field(default_factory=list)
    stacker_epoch_s: list = field(default_factory=list)
    eval_examples_per_s: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """A failed check is one failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(what)


def setup(seed: int, corpus_dir: Path, scale: Scale):
    """Synthesize the corpus from the workload seed and load its splits."""
    synthetic.write_corpus(corpus_dir, n_train=scale.train + scale.val,
                           n_test=scale.test, seed=seed)
    return data.load_splits_from_dir(corpus_dir, scale.train, scale.val,
                                     scale.test)


def splits_digest(splits) -> str:
    """Hash of every split's images and labels."""
    h = hashlib.sha256()
    for part in splits:
        h.update(part.images.tobytes())
        h.update(part.labels.tobytes())
    return h.hexdigest()


def epoch_deltas_s(rows) -> list[float]:
    """Per-epoch seconds from the cumulative `EpochRow.elapsed_ms`."""
    ms = [0.0] + [r.elapsed_ms for r in rows]
    return [(b - a) / 1000.0 for a, b in zip(ms, ms[1:])]


def _experiment_config(wl: Workload, scale: Scale, optimizer: str,
                       out_dir: Path) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        sizes=ARCH, optimizer=optimizer, eta_plus=ETA_PLUS[optimizer],
        epochs=scale.single_epochs[wl.name], batch_size=wl.batch_size(scale),
        seeds=RUN_SEEDS, dropout_hidden=wl.dropout_hidden,
        out_dir=str(out_dir), **RPROP_BOUNDS)


def _ensemble_config(kind: str, scale: Scale,
                     out_dir: Path) -> harness.EnsembleRunConfig:
    return harness.EnsembleRunConfig(
        kind=kind, size=3, member_sizes=ARCH,
        member_epochs=scale.member_epochs, aggregation="probability-average",
        stacker_epochs=scale.stacker_epochs, batch_size=ENSEMBLE_BATCH,
        seed=ENSEMBLE_SEED, dropout_hidden=ENSEMBLE_DROPOUT,
        eta_plus=ETA_PLUS["mod-rprop"], out_dir=str(out_dir), **RPROP_BOUNDS)


def _evaluate_model(path: Path, corpus_dir: Path, n_test: int) -> float:
    params, _, _ = serialization.load_checkpoint(path)
    test = data.load_test_set(corpus_dir, n_test)
    err = training.classification_error(params, test)
    network.nll_loss(training.predict_probabilities(params, test.images),
                     test.labels)
    return err


def _evaluate_ensemble(path: Path, corpus_dir: Path, n_test: int) -> float:
    model = ensemble.load_ensemble(path)
    test = data.load_test_set(corpus_dir, n_test)
    return model.classification_error(test)


def run_job(wl: Workload, scale: Scale, splits, corpus_dir: Path,
            out_root: Path) -> Outcome:
    """One whole workload job; artifacts go under `out_root`."""
    out = Outcome()
    t0 = time.perf_counter()
    artifacts = []  # (evaluator, path, in-memory test error, label)
    experiments = {}
    for opt in OPTIMIZERS:
        cfg = _experiment_config(wl, scale, opt, out_root / opt)
        out.attempted += len(cfg.seeds)
        try:
            exp = harness.run_experiment(cfg, splits, save=True, label=opt)
        except training.DivergenceError as exc:
            out.check(False, f"{opt}: {exc}")
            continue
        experiments[opt] = exp
        for rec in exp.records:
            out.epoch_s[opt].extend(epoch_deltas_s(rec.rows))
            artifacts.append((_evaluate_model,
                              out_root / opt / f"model-seed{rec.seed}.ckpt",
                              rec.test_err_at_best, f"{opt} seed {rec.seed}"))
        out.errors[f"best_val_err.{opt}"] = statistics.median(
            r.best_val_err for r in exp.records)

    if "mod-rprop" in experiments and "rprop" in experiments:
        cmp = harness.compare_runs(experiments["mod-rprop"].summaries(),
                                   experiments["rprop"].summaries(),
                                   label_a="mod-rprop", label_b="rprop")
        out.check(0.0 <= cmp.wilcoxon.p_value <= 1.0,
                  f"compare_runs p-value {cmp.wilcoxon.p_value}")

    for kind in ("bagging", "stacking"):
        cfg = _ensemble_config(kind, scale, out_root / kind)
        out.attempted += 1
        try:
            ens = harness.run_ensemble(cfg, splits, save=True)
        except training.DivergenceError as exc:
            out.check(False, f"{kind}: {exc}")
            continue
        for member in ens.training.member_results:
            out.member_epoch_s.extend(epoch_deltas_s(member.rows))
        if ens.training.stacker_result is not None:
            out.stacker_epoch_s.extend(
                epoch_deltas_s(ens.training.stacker_result.rows))
        out.errors[f"test_err.{kind}"] = ens.ensemble_test_err
        artifacts.append((_evaluate_ensemble, out_root / kind,
                          ens.ensemble_test_err, kind))

    for _ in range(scale.eval_rounds):
        r0 = time.perf_counter()
        for evaluate, path, expected, label in artifacts:
            out.attempted += 1
            got = evaluate(path, corpus_dir, scale.test)
            out.check(got == expected, f"reloaded {label} scores {got!r}, "
                                       f"in memory {expected!r}")
        if artifacts:
            out.eval_examples_per_s.append(
                len(artifacts) * scale.test / (time.perf_counter() - r0))
    out.job_s = time.perf_counter() - t0

    for name, value in out.errors.items():
        out.check(np.isfinite(value) and 0.0 <= value <= 1.0,
                  f"{name} = {value!r} is not a finite fraction")
    return out
