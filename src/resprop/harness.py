"""Experiment driver: seeded runs, metric export, and run comparison.

Configs are flat key-value text (`key = value`, `#` comments). Unknown
keys are rejected so typos cannot silently fall back to defaults. The
keys each kind accepts, with their defaults, are the fields of
`ExperimentConfig` and `EnsembleRunConfig` (the size-chain field is
keyed `arch`); the README's "Configuration keys" table documents them.

Per run the harness writes `metrics-seed<N>.csv` (header
`epoch,train_loss,val_err,elapsed_ms`), the selected model as
`model-seed<N>.ckpt`, and the final parameters plus optimizer state as
`final-seed<N>.ckpt`. Per experiment it writes `config.txt`, `runs.csv`
(one summary row per seed) and `summary.txt` (a fixed-width table of
per-seed medians). An ensemble run writes its spec as `spec.txt`.

CSV formatting is deterministic: epochs as integers, error fractions
with 4 decimals, elapsed milliseconds with 3, training loss with 17
significant digits so parsing the file back reproduces the float
exactly. Both CSVs share one row codec, derived from each table's
header and row format, and the reader rejects a non-finite value.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import Field, astuple, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import DataSplits, load_splits_from_dir
from .dropout import DropoutSpec
from .ensemble import (
    EnsembleSpec,
    EnsembleTraining,
    save_ensemble,
    stacker_chain,
    train_ensemble,
)
from .network import chain_specs, init_params, parse_init_rule
from .optimizers import RpropConfig, SgdConfig
from .serialization import save_checkpoint, write_atomic
from .stats import WilcoxonResult, wilcoxon_signed_rank
from .tensor import RngStream
from .training import (
    OPTIMIZER_NAMES,
    STREAM_INIT,
    EpochRow,
    RunFigures,
    TrainResult,
    classification_error,
    counter_clock,
    error_rate,
    train_model,
    wall_clock,
)

METRICS_HEADER = "epoch,train_loss,val_err,elapsed_ms"
RUNS_HEADER = ("seed,best_epoch,best_val_err,test_err,"
               "first_epoch_val_err,time_to_best_ms,total_ms")
# Each CSV table as (header, `%` format of one row): the one statement of
# its row format, from which `_to_csv` writes and `_from_csv` reads it.
_METRICS_CSV = (METRICS_HEADER, "%d,%.17g,%.4f,%.3f")
_RUNS_CSV = (RUNS_HEADER, "%d,%d,%.4f,%.4f,%.4f,%.3f,%.3f")

CLOCK_NAMES = ("wall", "counter")


def parse_size_chain(text: str, min_sizes: int = 2) -> tuple[int, ...]:
    """'784-300-100-10' -> (784, 300, 100, 10)."""
    try:
        sizes = tuple(int(p) for p in text.strip().split("-"))
    except ValueError:
        raise ValueError(f"bad size chain {text!r}; expected like 784-300-10")
    if len(sizes) < min_sizes:
        raise ValueError(f"size chain needs >= {min_sizes} sizes, got {text!r}")
    return sizes


def format_size_chain(sizes) -> str:
    return "-".join(str(s) for s in sizes)


@dataclass(frozen=True, kw_only=True)
class _RunSettings:
    """The settings experiment and ensemble configs share, with their
    check, clock, data loading and optimizer and dropout builders. Each
    kind extends it with its own fields; `_ARCH` names the kind's
    size-chain field, which config text keys `arch`. A field's type
    annotation picks the parser of its config value."""

    _ARCH = ""

    eta_plus: float = 1.2
    eta_minus: float = 0.5
    delta_max: float = 50.0
    delta_min: float = 1e-6
    delta_init: float = 0.1
    batch_size: int = 128
    dropout_input: float = 0.0
    dropout_hidden: float = 0.5
    data_dir: str = ""
    train_size: int = 5000
    val_size: int = 1000
    test_size: Optional[int] = None
    init_scale: str = "uniform-fan-in"
    clock: str = "wall"

    @classmethod
    def _fields(cls) -> dict[str, Field]:
        """Config key -> field, in field order."""
        return {"arch" if f.name == cls._ARCH else f.name: f
                for f in fields(cls)}

    @property
    def arch(self) -> tuple[int, ...]:
        return getattr(self, self._ARCH)

    def _check(self, counts: tuple[str, ...], rates: tuple[str, ...] = ()) -> None:
        """`batch_size` and the kind's `counts` >= 1, both dropout rates
        and the kind's `rates` in [0, 1), valid split sizes, clock, init
        rule and Rprop settings (whichever optimizer runs); called once
        from each config's __post_init__."""
        for name in counts + ("batch_size",):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("dropout_input", "dropout_hidden") + rates:
            r = getattr(self, name)
            if not 0.0 <= r < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {r}")
        if self.train_size < 1 or self.val_size < 1:
            raise ValueError(f"train_size and val_size must be >= 1, got "
                             f"{self.train_size} and {self.val_size}")
        if self.test_size is not None and self.test_size < 1:
            raise ValueError(f"test_size must be >= 1 when given, "
                             f"got {self.test_size}")
        if self.clock not in CLOCK_NAMES:
            raise ValueError(f"clock must be one of {CLOCK_NAMES}, "
                             f"got {self.clock!r}")
        parse_init_rule(self.init_scale)
        _RunSettings.optimizer_config(self)

    def clock_fn(self):
        return wall_clock if self.clock == "wall" else counter_clock()

    def load_data(self) -> DataSplits:
        if not self.data_dir:
            raise ValueError("config has no data_dir; cannot load data")
        return load_splits_from_dir(self.data_dir, self.train_size,
                                    self.val_size, self.test_size)

    def splits_for(self, splits: Optional[DataSplits]) -> DataSplits:
        """`splits` (or the configured data) checked against `arch`'s ends."""
        splits = self.load_data() if splits is None else splits
        width, have = self.arch[0], splits.train.pixels.shape[1]
        if have != width:
            raise ValueError(f"arch input width {width} does not match the "
                             f"data's {have} values per example")
        top = max(int(s.labels.max(initial=0)) for s in splits)
        if top >= self.arch[-1]:
            raise ValueError(f"arch output size {self.arch[-1]} does not "
                             f"exceed the data's largest label {top}")
        return splits

    def optimizer_config(self):
        return RpropConfig(self.eta_plus, self.eta_minus, self.delta_max,
                           self.delta_min, self.delta_init)

    def dropout_spec(self) -> DropoutSpec:
        """Dropout for the `arch` network, both rates 0 included."""
        return DropoutSpec.for_sizes(self.arch, self.dropout_hidden,
                                     self.dropout_input)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(_RunSettings):
    _ARCH = "sizes"

    sizes: tuple[int, ...] = (784, 300, 100, 10)
    activation: str = "rectifier"
    optimizer: str = "mod-rprop"
    learning_rate: float = 0.01
    epochs: int = 30
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    out_dir: str = "runs/out"

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        self.layer_specs()  # checks the sizes and the activation
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ValueError(
                f"optimizer must be one of {OPTIMIZER_NAMES}, got {self.optimizer!r}"
            )
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        self._check(("epochs",))
        SgdConfig(self.learning_rate)  # checked whichever optimizer runs

    def layer_specs(self):
        return chain_specs(self.sizes, self.activation)

    def optimizer_config(self):
        if self.optimizer == "sgd":
            return SgdConfig(self.learning_rate)
        return super().optimizer_config()


@dataclass(frozen=True, kw_only=True)
class EnsembleRunConfig(_RunSettings):
    """Flat-file configuration for one ensemble build."""

    _ARCH = "member_sizes"

    kind: str = "bagging"
    size: int = 3
    member_sizes: tuple[int, ...] = (784, 300, 100, 10)
    member_epochs: int = 10
    aggregation: str = "probability-average"
    stacker_epochs: int = 200
    stacker_hidden: Optional[tuple[int, ...]] = None
    seed: int = 1
    stacker_dropout_hidden: float = 0.0
    out_dir: str = "runs/ensemble"

    def __post_init__(self):
        object.__setattr__(self, "member_sizes",
                           tuple(int(s) for s in self.member_sizes))
        if self.stacker_hidden is not None:
            object.__setattr__(self, "stacker_hidden",
                               tuple(int(s) for s in self.stacker_hidden))
            if not self.stacker_hidden:
                raise ValueError("stacker_hidden needs a hidden size; leave "
                                 "it empty for the default stacker")
        self._check(("size", "member_epochs", "stacker_epochs"),
                    ("stacker_dropout_hidden",))
        self.ensemble_spec()  # checks kind and aggregation
        chain_specs(self.member_sizes)  # checks the member sizes
        if self.kind == "stacking":
            chain_specs(stacker_chain(self.size, self.member_sizes[-1],
                                      self.stacker_hidden))

    def ensemble_spec(self) -> EnsembleSpec:
        return EnsembleSpec(self.kind, self.size, self.member_sizes,
                            self.member_epochs, self.aggregation)


def _optional(parse):
    """`parse`, with an empty value meaning None."""
    return lambda s: parse(s) if s.strip() else None


# Field type annotation -> parser of its config text value; `seeds`,
# a comma list, is the one field parsed otherwise.
_TYPE_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "Optional[int]": _optional(int),
    "tuple[int, ...]": parse_size_chain,
    "Optional[tuple[int, ...]]": _optional(lambda s: parse_size_chain(s, 1)),
}


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_flat(text: str, cls, what: str):
    """A `cls` config from key-value text; errors name `what` and the line."""
    keys = cls._fields()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{what} line {lineno}: expected 'key = value', "
                             f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{what} line {lineno}: unknown key {key!r}")
        name = keys[key].name
        if name in values:
            raise ValueError(f"{what} line {lineno}: duplicate key {key!r}")
        parse = _parse_seeds if name == "seeds" else _TYPE_PARSERS[keys[key].type]
        try:
            values[name] = parse(value.strip())
        except ValueError as exc:
            raise ValueError(
                f"{what} line {lineno}: bad value for {key!r}: {exc}"
            ) from None
    return cls(**values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key-value config text; unknown keys are errors."""
    return _parse_flat(text, ExperimentConfig, "config")


def read_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def parse_ensemble_config(text: str) -> EnsembleRunConfig:
    return _parse_flat(text, EnsembleRunConfig, "ensemble spec")


def read_ensemble_config(path) -> EnsembleRunConfig:
    return parse_ensemble_config(Path(path).read_text())


def _format_value(key: str, value) -> str:
    if value is None:
        return ""
    if key == "seeds":
        return ",".join(str(s) for s in value)
    return format_size_chain(value) if isinstance(value, tuple) else str(value)


def config_to_text(cfg: _RunSettings) -> str:
    """Render either kind of config as parseable key-value text (inverse
    of parse)."""
    return "".join(f"{key} = {_format_value(key, getattr(cfg, f.name))}\n"
                   for key, f in cfg._fields().items())


@dataclass(frozen=True)
class RunSummary:
    """One row of runs.csv: the per-run numbers the comparisons use."""

    seed: int
    best_epoch: int
    best_val_err: float
    test_err_at_best: float
    first_epoch_val_err: float
    time_to_best_ms: float
    total_ms: float


@dataclass
class RunRecord(RunFigures):
    """One training run: its epoch rows, the epoch `train_model` selected
    and the selected model's test error; its other figures are read off
    the rows."""

    seed: int
    rows: list[EpochRow]
    best_epoch: int
    test_err_at_best: float

    def summary(self) -> RunSummary:
        return RunSummary(self.seed, self.best_epoch, self.best_val_err,
                          self.test_err_at_best, self.first_epoch_val_err,
                          self.time_to_best_ms, self.total_ms)


def train_run(cfg: ExperimentConfig, seed: int,
              splits: DataSplits) -> tuple[RunRecord, TrainResult]:
    """One seeded run: init, train, select, score on the test set."""
    # passed inline, so train_model's private copy is the only live model
    result = train_model(
        init_params(cfg.layer_specs(), RngStream(seed, STREAM_INIT),
                    cfg.init_scale),
        splits.train, splits.validation, cfg.optimizer,
        cfg.optimizer_config(), epoch_cap=cfg.epochs,
        batch_size=cfg.batch_size, seed=seed, dropout=cfg.dropout_spec(),
        clock=cfg.clock_fn(),
    )
    test_err = classification_error(result.best_params, splits.test)
    return RunRecord(seed, list(result.rows), result.best_epoch, test_err), result


def _to_csv(table, rows) -> str:
    """`table`'s header, then each dataclass row through its format."""
    header, row_format = table
    return "".join(f"{line}\n" for line in
                   [header] + [row_format % astuple(r) for r in rows])


def _from_csv(table, text: str, what: str, row_type) -> list:
    """Inverse of `_to_csv`: `%d` columns parse as int, others as float;
    a wrong-width row or a bad or non-finite value is rejected."""
    header, row_format = table
    parsers = [int if f == "%d" else float for f in row_format.split(",")]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise ValueError(f"{what} CSV must start with {header!r}")
    rows = []
    for ln in lines[1:]:
        try:
            values = [parse(p) for parse, p in
                      zip(parsers, ln.split(","), strict=True)]
        except ValueError:
            values = None
        if values is None or not all(map(math.isfinite, values)):
            raise ValueError(f"bad {what} row {ln!r}")
        rows.append(row_type(*values))
    return rows


def export_metrics(record: RunRecord) -> str:
    """Per-epoch CSV; see module docstring for the formatting contract."""
    return _to_csv(_METRICS_CSV, record.rows)


def parse_metrics(text: str) -> list[EpochRow]:
    """Inverse of export_metrics (modulo the stated decimal quantization)."""
    return _from_csv(_METRICS_CSV, text, "metrics", EpochRow)


def export_runs_csv(summaries: Sequence[RunSummary]) -> str:
    return _to_csv(_RUNS_CSV, summaries)


def parse_runs_csv(text: str) -> list[RunSummary]:
    return _from_csv(_RUNS_CSV, text, "runs", RunSummary)


_SUMMARY_COLUMNS = (
    ("min val err %", lambda s: 100.0 * s.best_val_err),
    ("epochs", lambda s: float(s.best_epoch)),
    ("time-to-best min", lambda s: s.time_to_best_ms / 60000.0),
    ("test err %", lambda s: 100.0 * s.test_err_at_best),
    ("1st epoch %", lambda s: 100.0 * s.first_epoch_val_err),
)


def format_summary_table(rows: Sequence[tuple[str, Sequence[RunSummary]]]) -> str:
    """Fixed-width table of per-seed medians, one line per labeled group."""
    headers = ["model"] + [name for name, _ in _SUMMARY_COLUMNS]
    table = [headers]
    for label, summaries in rows:
        if not summaries:
            raise ValueError(f"group {label!r} has no runs")
        table.append([label] + ["%.2f" % statistics.median(map(metric, summaries))
                                for _, metric in _SUMMARY_COLUMNS])
    widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                   + "\n" for r in table)


@dataclass
class ExperimentResult:
    records: list[RunRecord]

    def summaries(self) -> list[RunSummary]:
        return [r.summary() for r in self.records]


def run_experiment(cfg: ExperimentConfig, splits: Optional[DataSplits] = None,
                   save: bool = True, label: str = "model") -> ExperimentResult:
    """Run every seed in the config; optionally write the artifact set."""
    splits = cfg.splits_for(splits)
    out = Path(cfg.out_dir)
    if save:
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "config.txt", config_to_text(cfg).encode())
    rprop_cfg = None if cfg.optimizer == "sgd" else cfg.optimizer_config()
    records = []
    for seed in cfg.seeds:
        record, result = train_run(cfg, seed, splits)
        records.append(record)
        if save:
            write_atomic(out / f"metrics-seed{seed}.csv",
                         export_metrics(record).encode())
            save_checkpoint(out / f"model-seed{seed}.ckpt", result.best_params)
            save_checkpoint(out / f"final-seed{seed}.ckpt", result.final_params,
                            state=result.final_state, cfg=rprop_cfg)
        # the next seed trains without this one's models and Rprop state
        del result
    exp = ExperimentResult(records)
    if save:
        write_atomic(out / "runs.csv", export_runs_csv(exp.summaries()).encode())
        write_atomic(out / "summary.txt", format_summary_table(
            [(label, exp.summaries())]).encode())
    return exp


@dataclass
class GroupStats:
    """mean/min/max over runs for each reported metric."""

    label: str
    n: int
    metrics: dict

    @classmethod
    def over(cls, label: str, summaries: Sequence[RunSummary]) -> "GroupStats":
        metrics = {}
        for name, values in (
            ("test_err", [s.test_err_at_best for s in summaries]),
            ("best_val_err", [s.best_val_err for s in summaries]),
            ("best_epoch", [float(s.best_epoch) for s in summaries]),
            ("first_epoch_val_err", [s.first_epoch_val_err for s in summaries]),
            ("time_to_best_ms", [s.time_to_best_ms for s in summaries]),
        ):
            metrics[name] = {"mean": statistics.fmean(values),
                             "min": min(values), "max": max(values)}
        return cls(label, len(summaries), metrics)


@dataclass
class ComparisonResult:
    stats_a: GroupStats
    stats_b: GroupStats
    wilcoxon: WilcoxonResult
    confidence: float

    @property
    def significant(self) -> bool:
        return self.wilcoxon.significant(self.confidence)

    @property
    def better_label(self) -> Optional[str]:
        """Which group has lower mean paired test error, if significant."""
        if not self.significant:
            return None
        a = self.stats_a.metrics["test_err"]["mean"]
        b = self.stats_b.metrics["test_err"]["mean"]
        return self.stats_a.label if a <= b else self.stats_b.label


def compare_runs(summaries_a: Sequence[RunSummary],
                 summaries_b: Sequence[RunSummary],
                 confidence: float = 0.98,
                 label_a: str = "A", label_b: str = "B") -> ComparisonResult:
    """Paired comparison on test errors; runs are paired by seed."""
    if len(summaries_a) != len(summaries_b):
        raise ValueError(
            f"paired comparison needs equal run counts, got "
            f"{len(summaries_a)} and {len(summaries_b)}"
        )
    seeds, by_seed = [s.seed for s in summaries_a], {s.seed: s for s in summaries_b}
    if len(set(seeds)) != len(seeds) or set(seeds) != by_seed.keys():
        raise ValueError(f"paired comparison needs the same distinct seeds on "
                         f"both sides, got {seeds} and "
                         f"{[s.seed for s in summaries_b]}")
    summaries_b = [by_seed[seed] for seed in seeds]
    if len(summaries_a) < 2:
        raise ValueError("paired comparison needs at least 2 runs per side")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    err_a = np.array([s.test_err_at_best for s in summaries_a])
    err_b = np.array([s.test_err_at_best for s in summaries_b])
    wres = wilcoxon_signed_rank(err_a, err_b, alternative="two-sided")
    return ComparisonResult(GroupStats.over(label_a, summaries_a),
                            GroupStats.over(label_b, summaries_b),
                            wres, confidence)


@dataclass
class EnsembleRunOutput:
    training: EnsembleTraining
    member_test_errs: list[float]
    ensemble_test_err: float


def run_ensemble(cfg: EnsembleRunConfig, splits: Optional[DataSplits] = None,
                 save: bool = True) -> EnsembleRunOutput:
    """Train an ensemble per config, score it, optionally save artifacts."""
    splits = cfg.splits_for(splits)
    training = train_ensemble(
        cfg.ensemble_spec(), splits, cfg.optimizer_config(), seed=cfg.seed,
        batch_size=cfg.batch_size, member_dropout=cfg.dropout_spec(),
        stacker_hidden=cfg.stacker_hidden, stacker_epoch_cap=cfg.stacker_epochs,
        stacker_dropout_hidden=cfg.stacker_dropout_hidden,
        init_scale=cfg.init_scale, clock=cfg.clock_fn(),
    )
    model, test = training.model, splits.test
    probs = model.member_probabilities(test)  # scored once, for both errors
    member_errs = [error_rate(np.argmax(p, axis=1), test.labels) for p in probs]
    ens_err = error_rate(model.combine(probs), test.labels)
    out = EnsembleRunOutput(training, member_errs, ens_err)
    if save:
        out_dir = Path(cfg.out_dir)
        save_ensemble(out_dir, training, seed=cfg.seed)
        write_atomic(out_dir / "spec.txt", config_to_text(cfg).encode())
        lines = [f"kind {cfg.kind}  size {cfg.size}  "
                 f"aggregation {cfg.aggregation}"]
        for i, err in enumerate(member_errs):
            lines.append("member %02d  test err %.4f" % (i, err))
        lines.append("ensemble   test err %.4f" % ens_err)
        write_atomic(out_dir / "ensemble-summary.txt",
                     ("\n".join(lines) + "\n").encode())
    return out


def format_comparison(result: ComparisonResult) -> str:
    lines = []
    for stats in (result.stats_a, result.stats_b):
        lines.append(f"{stats.label} (n={stats.n}):")
        for name, agg in stats.metrics.items():
            lines.append("  %-20s mean %.4f  min %.4f  max %.4f"
                         % (name, agg["mean"], agg["min"], agg["max"]))
    w = result.wilcoxon
    lines.append(
        f"wilcoxon signed-rank on paired test errors: W+ = {w.statistic:g}, "
        f"p = {w.p_value:.6g} ({w.method}, n = {w.n_used})"
    )
    pct = 100.0 * result.confidence
    if result.significant:
        lines.append(f"significant at the {pct:g}% confidence level; "
                     f"better: {result.better_label}")
    else:
        lines.append(f"not significant at the {pct:g}% confidence level")
    return "\n".join(lines) + "\n"
