"""Experiment harness tests: configs, CSV contracts, runs, comparisons."""

import dataclasses
import statistics
from pathlib import Path

import numpy as np
import pytest

from resprop import harness
from resprop.data import Dataset, DataSplits
from resprop.ensemble import stacker_chain
from resprop.harness import (
    METRICS_HEADER,
    RUNS_HEADER,
    ComparisonResult,
    EnsembleRunConfig,
    ExperimentConfig,
    RunRecord,
    RunSummary,
    compare_runs,
    config_to_text,
    export_metrics,
    export_runs_csv,
    format_comparison,
    format_size_chain,
    format_summary_table,
    parse_config,
    parse_ensemble_config,
    parse_metrics,
    parse_runs_csv,
    parse_size_chain,
    run_ensemble,
    run_experiment,
    train_run,
)
from resprop.network import init_params
from resprop.optimizers import RpropConfig, SgdConfig
from resprop.serialization import load_checkpoint
from resprop.tensor import RngStream
from resprop.training import STREAM_INIT, EpochRow, train_model
from test_serialization import fail_mid_write, traced_peak


def toy_splits(n_train=48, n_val=24, n_test=24, seed=0):
    """Same easy 16-feature task the training tests use."""
    rng = np.random.default_rng(seed)
    parts = []
    for n in (n_train, n_val, n_test):
        images = rng.uniform(0.0, 0.3, size=(n, 16))
        labels = rng.integers(10, size=n)
        images[np.arange(n), labels] += 0.6
        parts.append(Dataset(images, labels))
    return DataSplits(*parts)


def toy_config(**overrides):
    base = dict(sizes=(16, 12, 10), optimizer="sgd", learning_rate=0.5,
                epochs=3, batch_size=8, seeds=(1, 2), dropout_hidden=0.0,
                clock="counter")
    base.update(overrides)
    return ExperimentConfig(**base)


def full_batch_splits():
    """500/100/100 uint8 examples at the desk model's input width."""
    rng = np.random.default_rng(0)
    return DataSplits(*(
        Dataset(rng.integers(0, 256, size=(n, 784), dtype=np.uint8),
                rng.integers(10, size=n)) for n in (500, 100, 100)))


def full_batch_config(out_dir, seeds):
    """Two full-batch rprop epochs of a 784-300-100-10 model on
    `full_batch_splits`."""
    return toy_config(sizes=(784, 300, 100, 10), optimizer="rprop", epochs=2,
                      batch_size=500, seeds=seeds, out_dir=str(out_dir))


class TestSizeChain:
    def test_parse(self):
        assert parse_size_chain("784-300-100-10") == (784, 300, 100, 10)

    def test_format_inverts_parse(self):
        assert format_size_chain(parse_size_chain(" 16-4 ")) == "16-4"

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="bad size chain"):
            parse_size_chain("784-three-10")

    def test_single_size_rejected(self):
        with pytest.raises(ValueError, match=">= 2 sizes"):
            parse_size_chain("784")


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.sizes == (784, 300, 100, 10)
        assert cfg.optimizer == "mod-rprop"
        assert cfg.seeds == (1, 2, 3, 4, 5)
        assert cfg.test_size is None

    def test_values_comments_and_blank_lines(self):
        text = """
        # experiment
        arch = 16-8-10   # trailing comment
        optimizer = rprop

        seeds = 7, 8,9
        test_size =
        delta_init = 0.003
        """
        cfg = parse_config(text)
        assert cfg.sizes == (16, 8, 10)
        assert cfg.optimizer == "rprop"
        assert cfg.seeds == (7, 8, 9)
        assert cfg.test_size is None
        assert cfg.delta_init == 0.003

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ValueError, match=r"config line 2: unknown key 'lr'"):
            parse_config("epochs = 3\nlr = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match=r"line 2: duplicate key 'epochs'"):
            parse_config("epochs = 3\nepochs = 4\n")

    def test_duplicate_arch_rejected(self):
        with pytest.raises(ValueError, match=r"line 2: duplicate key 'arch'"):
            parse_config("arch = 16-10\narch = 16-8-10\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValueError, match=r"expected 'key = value'"):
            parse_config("epochs 3\n")

    def test_bad_value_reports_key_and_line(self):
        with pytest.raises(ValueError, match=r"line 1: bad value for 'epochs'"):
            parse_config("epochs = many\n")

    def test_explicit_test_size(self):
        assert parse_config("test_size = 500\n").test_size == 500

    def test_round_trip_through_text(self):
        cfg = ExperimentConfig(sizes=(16, 8, 10), optimizer="sgd",
                               learning_rate=0.25, seeds=(3, 1),
                               test_size=200, clock="counter",
                               data_dir="/tmp/d", dropout_hidden=0.25)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_round_trip_preserves_none_test_size(self):
        cfg = ExperimentConfig()
        text = config_to_text(cfg)
        assert "test_size = \n" in text or "test_size =\n" in text
        assert parse_config(text) == cfg


class TestExperimentConfigValidation:
    def test_unknown_optimizer(self):
        with pytest.raises(ValueError, match="optimizer must be one of"):
            ExperimentConfig(optimizer="adam")

    def test_short_architecture(self):
        with pytest.raises(ValueError, match="at least input and output"):
            ExperimentConfig(sizes=(784,))

    def test_epoch_cap(self):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            ExperimentConfig(epochs=0)

    def test_batch_size(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            ExperimentConfig(batch_size=0)

    def test_empty_seeds(self):
        with pytest.raises(ValueError, match="seeds must be non-empty"):
            ExperimentConfig(seeds=())

    def test_repeated_seeds(self):
        with pytest.raises(ValueError,
                           match=r"seeds must be distinct, got \(1, 1\)"):
            parse_config("seeds = 1,1\n")

    def test_clock_name(self):
        with pytest.raises(ValueError, match="clock must be one of"):
            ExperimentConfig(clock="cpu")

    def test_dropout_range(self):
        with pytest.raises(ValueError, match=r"dropout_hidden must lie in \[0, 1\)"):
            ExperimentConfig(dropout_hidden=1.0)

    def test_split_sizes(self):
        with pytest.raises(ValueError, match="train_size and val_size"):
            ExperimentConfig(val_size=0)
        with pytest.raises(ValueError, match="test_size must be >= 1"):
            ExperimentConfig(test_size=0)

    def test_load_data_requires_data_dir(self):
        with pytest.raises(ValueError, match="no data_dir"):
            ExperimentConfig().load_data()

    def test_optimizer_config_selection(self):
        sgd = toy_config().optimizer_config()
        assert isinstance(sgd, SgdConfig)
        assert sgd.learning_rate == 0.5
        rp = toy_config(optimizer="rprop", delta_init=0.02).optimizer_config()
        assert isinstance(rp, RpropConfig)
        assert rp.delta_init == 0.02

    def test_dropout_spec_off_when_rates_zero(self):
        off = toy_config(dropout_hidden=0.0).dropout_spec()
        assert off.is_off and off.rates == (0.0, 0.0)
        spec = toy_config(dropout_hidden=0.5).dropout_spec()
        assert not spec.is_off and spec.rates == (0.0, 0.5)


def make_rows(val_errs, losses=None):
    losses = losses or [1.0 / (i + 1) for i in range(len(val_errs))]
    return [EpochRow(i + 1, losses[i], val_errs[i], 1000.0 * (i + 1))
            for i in range(len(val_errs))]


class TestRunRecord:
    def test_valid_record_and_derived_times(self):
        rec = RunRecord(seed=3, rows=make_rows([0.5, 0.2, 0.3]),
                        best_epoch=2, test_err_at_best=0.25)
        assert rec.best_val_err == 0.2
        assert rec.first_epoch_val_err == 0.5
        assert rec.time_to_best_ms == 2000.0
        assert rec.total_ms == 3000.0
        s = rec.summary()
        assert s == RunSummary(3, 2, 0.2, 0.25, 0.5, 2000.0, 3000.0)


class TestMetricsCsv:
    def test_exact_format(self):
        rec = RunRecord(1, [EpochRow(1, 0.5, 0.030303, 12.3456),
                            EpochRow(2, 0.25, 0.02, 100.0)], 2, 0.02)
        text = export_metrics(rec)
        assert text == ("epoch,train_loss,val_err,elapsed_ms\n"
                        "1,0.5,0.0303,12.346\n"
                        "2,0.25,0.0200,100.000\n")

    def test_loss_survives_round_trip_exactly(self):
        loss = 1.0 / 3.0
        rec = RunRecord(1, [EpochRow(1, loss, 0.1, 1.0)], 1, 0.1)
        back = parse_metrics(export_metrics(rec))
        assert back[0].train_loss == loss
        assert back[0].epoch == 1 and back[0].elapsed_ms == 1.0

    def test_single_epoch_gives_two_lines(self):
        rec = RunRecord(1, make_rows([0.5]), 1, 0.5)
        assert len(export_metrics(rec).splitlines()) == 2

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="must start with"):
            parse_metrics("epoch,loss\n1,0.5\n")

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError, match="bad metrics row"):
            parse_metrics(METRICS_HEADER + "\n1,0.5,0.1\n")

    @pytest.mark.parametrize("row", ["1,nan,0.1,1.0", "1,0.5,inf,1.0",
                                     "1,0.5,0.1,-inf", "1.5,0.5,0.1,1.0",
                                     "1,0.5,x,1.0"])
    def test_non_finite_or_malformed_value_rejected(self, row):
        with pytest.raises(ValueError, match="bad metrics row"):
            parse_metrics(METRICS_HEADER + "\n" + row + "\n")


class TestRunsCsv:
    def test_round_trip(self):
        rows = [RunSummary(1, 3, 0.02, 0.025, 0.4, 3000.0, 5000.0),
                RunSummary(2, 5, 0.0303, 0.0101, 0.39, 5000.5, 6000.125)]
        back = parse_runs_csv(export_runs_csv(rows))
        assert back == [
            RunSummary(1, 3, 0.02, 0.025, 0.4, 3000.0, 5000.0),
            RunSummary(2, 5, 0.0303, 0.0101, 0.39, 5000.5, 6000.125),
        ]

    def test_format(self):
        text = export_runs_csv([RunSummary(7, 2, 0.1, 0.2, 0.5, 2000.0, 4000.0)])
        assert text == (RUNS_HEADER + "\n"
                        "7,2,0.1000,0.2000,0.5000,2000.000,4000.000\n")

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="must start with"):
            parse_runs_csv("seed,best\n")

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError, match="bad runs row"):
            parse_runs_csv(RUNS_HEADER + "\n1,2,3\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_error_rejected(self, value):
        row = f"1,2,0.1000,{value},0.5000,2000.000,4000.000"
        with pytest.raises(ValueError, match="bad runs row"):
            parse_runs_csv(RUNS_HEADER + "\n" + row + "\n")


class TestSummaryTable:
    def test_medians_and_layout(self):
        sums = [RunSummary(1, 2, 0.02, 0.03, 0.40, 60000.0, 90000.0),
                RunSummary(2, 4, 0.04, 0.05, 0.50, 120000.0, 150000.0),
                RunSummary(3, 3, 0.03, 0.04, 0.45, 180000.0, 200000.0)]
        text = format_summary_table([("mod-rprop", sums)])
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["model", "min"]
        assert "min val err %" in lines[0]
        cells = lines[1].split()
        assert cells[0] == "mod-rprop"
        # medians: 3% err, epoch 3, 2 min to best, 4% test, 45% first epoch
        assert cells[1:] == ["3.00", "3.00", "2.00", "4.00", "45.00"]

    def test_median_is_across_seeds(self):
        sums = [RunSummary(s, 1, e, e, e, 1000.0, 1000.0)
                for s, e in ((1, 0.10), (2, 0.30), (3, 0.20))]
        text = format_summary_table([("m", sums)])
        assert "20.00" in text.splitlines()[1]

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="has no runs"):
            format_summary_table([("m", [])])


def summaries_from_errs(errs, base_seed=1):
    return [RunSummary(base_seed + i, 1, e, e, e, 1000.0, 1000.0)
            for i, e in enumerate(errs)]


class TestCompareRuns:
    def test_unequal_lengths_rejected(self):
        a = summaries_from_errs([0.1, 0.2])
        b = summaries_from_errs([0.1])
        with pytest.raises(ValueError, match="equal run counts"):
            compare_runs(a, b)

    def test_runs_are_paired_by_seed(self):
        a = summaries_from_errs([0.10, 0.30, 0.20, 0.50, 0.40, 0.60])
        b = summaries_from_errs([0.15, 0.33, 0.22, 0.56, 0.39, 0.70])
        ordered = compare_runs(a, b)
        shuffled = compare_runs(a, b[::-1])
        assert shuffled.wilcoxon == ordered.wilcoxon
        assert shuffled.stats_b == ordered.stats_b
        # only seed 5 has A worse: W+ is the rank of its |difference|, 1
        assert shuffled.wilcoxon.statistic == 1.0

    @pytest.mark.parametrize("seeds_b", [(1, 2, 4), (1, 2, 2)])
    def test_differing_seeds_rejected(self, seeds_b):
        a = summaries_from_errs([0.1, 0.2, 0.3])
        b = [dataclasses.replace(s, seed=seed)
             for s, seed in zip(a, seeds_b)]
        with pytest.raises(ValueError, match=r"same distinct seeds on both "
                           r"sides, got \[1, 2, 3\] and \[1, 2, "):
            compare_runs(a, b)

    def test_too_few_runs_rejected(self):
        a = summaries_from_errs([0.1])
        with pytest.raises(ValueError, match="at least 2 runs"):
            compare_runs(a, a)

    def test_confidence_validated(self):
        a = summaries_from_errs([0.1, 0.2])
        with pytest.raises(ValueError, match="confidence"):
            compare_runs(a, a, confidence=1.0)

    def test_identical_groups_not_significant(self):
        a = summaries_from_errs([0.1, 0.2, 0.3, 0.15])
        res = compare_runs(a, a, confidence=0.98)
        assert not res.significant
        assert res.better_label is None
        assert res.wilcoxon.p_value == 1.0

    def test_clear_difference_names_lower_error_group(self):
        # one-sided dominance across 8 pairs: p = 2 * 2^-8 = 0.0078125
        a = summaries_from_errs([0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17])
        b = summaries_from_errs([0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27])
        res = compare_runs(a, b, confidence=0.98, label_a="small", label_b="big")
        assert res.significant
        assert res.better_label == "small"
        assert res.wilcoxon.p_value == pytest.approx(2 / 256)
        swapped = compare_runs(b, a, confidence=0.98,
                               label_a="big", label_b="small")
        assert swapped.better_label == "small"

    def test_group_stats_cover_all_metrics(self):
        a = summaries_from_errs([0.1, 0.2, 0.3])
        res = compare_runs(a, a)
        for key in ("test_err", "best_val_err", "best_epoch",
                    "first_epoch_val_err", "time_to_best_ms"):
            agg = res.stats_a.metrics[key]
            assert agg["min"] <= agg["mean"] <= agg["max"]
        assert res.stats_a.metrics["test_err"]["mean"] == pytest.approx(0.2)

    def test_format_comparison_mentions_verdict(self):
        a = summaries_from_errs([0.1, 0.2, 0.3, 0.15])
        text = format_comparison(compare_runs(a, a, confidence=0.98))
        assert "wilcoxon signed-rank" in text
        assert "not significant at the 98% confidence level" in text
        b = summaries_from_errs([0.5, 0.6, 0.55, 0.65])
        c = summaries_from_errs([0.1, 0.2, 0.3, 0.15])
        res = compare_runs(c, b, confidence=0.80, label_a="low", label_b="high")
        if res.significant:
            assert "better: low" in format_comparison(res)


class TestTrainRun:
    def test_deterministic_across_calls(self):
        cfg = toy_config(seeds=(1,))
        splits = toy_splits()
        rec1, res1 = train_run(cfg, 1, splits)
        rec2, res2 = train_run(cfg, 1, splits)
        assert rec1 == rec2
        for a, b in zip(res1.best_params.weights, res2.best_params.weights):
            assert np.array_equal(a, b)

    def test_counter_clock_rows(self):
        rec, _ = train_run(toy_config(), 1, toy_splits())
        assert [r.elapsed_ms for r in rec.rows] == [1000.0, 2000.0, 3000.0]

    def test_record_matches_result(self):
        rec, res = train_run(toy_config(), 2, toy_splits())
        assert rec.seed == 2
        assert rec.best_epoch == res.best_epoch
        assert rec.best_val_err == res.best_val_err
        assert 0.0 <= rec.test_err_at_best <= 1.0


class TestRunExperiment:
    def test_artifact_set(self, tmp_path):
        cfg = toy_config(out_dir=str(tmp_path / "exp"))
        exp = run_experiment(cfg, toy_splits(), save=True, label="sgd")
        out = tmp_path / "exp"
        expected = {"config.txt", "runs.csv", "summary.txt"}
        for seed in (1, 2):
            expected |= {f"metrics-seed{seed}.csv", f"model-seed{seed}.ckpt",
                         f"final-seed{seed}.ckpt"}
        assert {p.name for p in out.iterdir()} == expected

        assert parse_config((out / "config.txt").read_text()) == cfg
        runs = parse_runs_csv((out / "runs.csv").read_text())
        assert [r.seed for r in runs] == [1, 2]
        rows = parse_metrics((out / "metrics-seed1.csv").read_text())
        assert len(rows) == cfg.epochs
        table = (out / "summary.txt").read_text()
        assert table.splitlines()[1].startswith("sgd")
        assert len(exp.records) == 2

    def test_sgd_final_checkpoint_has_no_state(self, tmp_path):
        cfg = toy_config(out_dir=str(tmp_path), seeds=(1,))
        run_experiment(cfg, toy_splits(), save=True)
        params, state, opt_cfg = load_checkpoint(tmp_path / "final-seed1.ckpt")
        assert state is None and opt_cfg is None
        assert [w.shape for w in params.weights] == [(16, 12), (12, 10)]

    def test_rprop_final_checkpoint_resumes(self, tmp_path):
        cfg = toy_config(optimizer="rprop", delta_init=0.01,
                         out_dir=str(tmp_path), seeds=(3,))
        run_experiment(cfg, toy_splits(), save=True)
        params, state, opt_cfg = load_checkpoint(tmp_path / "final-seed3.ckpt")
        assert state is not None
        assert opt_cfg == RpropConfig(1.2, 0.5, 50.0, 1e-6, 0.01)
        assert all(np.all(d >= opt_cfg.delta_min) for d in state.delta_w)

    def test_model_checkpoint_is_best_params(self, tmp_path):
        cfg = toy_config(out_dir=str(tmp_path), seeds=(1,))
        exp = run_experiment(cfg, toy_splits(), save=True)
        params, state, _ = load_checkpoint(tmp_path / "model-seed1.ckpt")
        assert state is None
        rec = exp.records[0]
        from resprop.training import classification_error
        err = classification_error(params, toy_splits().validation)
        assert err == pytest.approx(rec.best_val_err, abs=1e-12)

    @pytest.mark.parametrize("name", ["config.txt", "metrics-seed1.csv",
                                      "runs.csv", "summary.txt"])
    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch,
                                              name):
        fail_mid_write(monkeypatch, f"{name}.tmp")
        cfg = toy_config(out_dir=str(tmp_path), seeds=(1,))
        with pytest.raises(OSError, match="No space"):
            run_experiment(cfg, toy_splits(), save=True)
        names = {p.name for p in tmp_path.iterdir()}
        assert name not in names and f"{name}.tmp" not in names

    def test_save_false_writes_nothing(self, tmp_path):
        cfg = toy_config(out_dir=str(tmp_path / "never"), seeds=(1,))
        run_experiment(cfg, toy_splits(), save=False)
        assert not (tmp_path / "never").exists()

    def test_a_second_seed_adds_no_memory(self, tmp_path):
        # Full-batch rprop at 784-300-100-10 on 500 examples. Keeping the
        # previous seed's TrainResult while the next seed trains adds its
        # four 2.13 MB model buffers (best and final params, Rprop
        # delta and previous gradient) to the peak: 8.5 MB over the
        # 1 MB allowance.
        splits = full_batch_splits()
        peaks = [traced_peak(lambda: run_experiment(
            full_batch_config(tmp_path, seeds), splits, save=False))
            for seeds in ((1,), (1, 2))]
        assert peaks[1] <= peaks[0] + 1e6, peaks

    def test_a_run_adds_nothing_to_its_training(self, tmp_path):
        # train_model steps a private copy of the params it is given, so
        # holding the initial params through training adds one 2.13 MB
        # buffer to the run's peak.
        splits = full_batch_splits()
        cfg = full_batch_config(tmp_path, (1,))
        params = init_params(cfg.layer_specs(), RngStream(1, STREAM_INIT),
                             cfg.init_scale)
        train_peak = traced_peak(lambda: train_model(
            params, splits.train, splits.validation, cfg.optimizer,
            cfg.optimizer_config(), epoch_cap=cfg.epochs,
            batch_size=cfg.batch_size, seed=1, dropout=cfg.dropout_spec(),
            clock=cfg.clock_fn()))
        run_peak = traced_peak(lambda: run_experiment(cfg, splits, save=False))
        assert run_peak - train_peak < 1e6, (run_peak, train_peak)


class TestEnsembleConfig:
    def test_defaults(self):
        cfg = parse_ensemble_config("")
        assert cfg.kind == "bagging" and cfg.size == 3
        assert cfg.member_sizes == (784, 300, 100, 10)
        assert cfg.aggregation == "probability-average"

    def test_parse_and_specs(self, monkeypatch):
        cfg = parse_ensemble_config(
            "kind = stacking\nsize = 4\narch = 16-8-10\n"
            "stacker_epochs = 50\nmember_epochs = 2\n"
        )
        spec = cfg.ensemble_spec()
        assert spec.kind == "stacking" and spec.size == 4
        assert spec.member_sizes == (16, 8, 10)

        class Stop(Exception):
            pass

        def capture(*args, **kwargs):
            stacker.update(kwargs)
            raise Stop

        stacker = {}  # what run_ensemble hands train_ensemble
        monkeypatch.setattr(harness, "train_ensemble", capture)
        with pytest.raises(Stop):
            run_ensemble(cfg, toy_splits(), save=False)
        assert stacker["stacker_epoch_cap"] == 50
        assert stacker["stacker_hidden"] is None
        assert stacker["stacker_dropout_hidden"] == 0.0
        assert stacker["member_dropout"] == cfg.dropout_spec()

    def test_bagging_has_no_stacker(self):
        cfg = parse_ensemble_config("kind = bagging\nsize = 1\narch = 16-8-10\n"
                                    "member_epochs = 1\nbatch_size = 8\n")
        training = run_ensemble(cfg, toy_splits(), save=False).training
        assert training.stacker_result is None and training.model.stacker is None

    def test_stacker_hidden_override(self):
        cfg = parse_ensemble_config("kind = stacking\nstacker_hidden = 32-16\n")
        assert stacker_chain(cfg.size, 10, cfg.stacker_hidden) == (30, 32, 16, 10)

    def test_stacker_chain_checked_when_read(self):
        with pytest.raises(ValueError, match="got 20x0"):
            parse_ensemble_config("kind = stacking\nstacker_hidden = 20-0\n")

    def test_unknown_key_names_the_file_kind(self):
        with pytest.raises(ValueError, match="ensemble spec line 1"):
            parse_ensemble_config("members = 3\n")

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            parse_ensemble_config("kind = boosting\n")

    def test_aggregation_validated(self):
        with pytest.raises(ValueError, match="aggregation must be one of"):
            EnsembleRunConfig(aggregation="median")

    def test_member_dropout_off_when_rates_zero(self):
        cfg = parse_ensemble_config("dropout_hidden = 0\n")
        assert cfg.dropout_spec().is_off
        assert not parse_ensemble_config("").dropout_spec().is_off

    def test_optimizer_config_fields(self):
        cfg = parse_ensemble_config("delta_init = 0.003\ndelta_max = 5\n")
        opt = cfg.optimizer_config()
        assert opt.delta_init == 0.003 and opt.delta_max == 5.0

    def test_run_records_its_spec(self, tmp_path):
        cfg = EnsembleRunConfig(kind="stacking", size=2, member_sizes=(16, 12, 10),
                                member_epochs=1, stacker_epochs=2,
                                stacker_hidden=(8,), batch_size=8,
                                dropout_hidden=0.0, clock="counter",
                                out_dir=str(tmp_path / "ens"))
        run_ensemble(cfg, toy_splits(), save=True)
        spec = (tmp_path / "ens" / "spec.txt").read_text()
        assert parse_ensemble_config(spec) == cfg


EXPERIMENT_DEFAULT_TEXT = """\
eta_plus = 1.2
eta_minus = 0.5
delta_max = 50.0
delta_min = 1e-06
delta_init = 0.1
batch_size = 128
dropout_input = 0.0
dropout_hidden = 0.5
data_dir = 
train_size = 5000
val_size = 1000
test_size = 
init_scale = uniform-fan-in
clock = wall
arch = 784-300-100-10
activation = rectifier
optimizer = mod-rprop
learning_rate = 0.01
epochs = 30
seeds = 1,2,3,4,5
out_dir = runs/out
"""

ENSEMBLE_DEFAULT_TEXT = """\
eta_plus = 1.2
eta_minus = 0.5
delta_max = 50.0
delta_min = 1e-06
delta_init = 0.1
batch_size = 128
dropout_input = 0.0
dropout_hidden = 0.5
data_dir = 
train_size = 5000
val_size = 1000
test_size = 
init_scale = uniform-fan-in
clock = wall
kind = bagging
size = 3
arch = 784-300-100-10
member_epochs = 10
aggregation = probability-average
stacker_epochs = 200
stacker_hidden = 
seed = 1
stacker_dropout_hidden = 0.0
out_dir = runs/ensemble
"""


def text_settings(text):
    """key -> value text of rendered config text."""
    return dict(line.split(" = ", 1) for line in text.splitlines())


def readme_defaults():
    """key -> default text per column of the README's key table; a key
    marked with a dash is left out of that column."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    train, ensemble = {}, {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        key, train_cell, ensemble_cell = (
            c.strip() for c in line.strip("|").split("|")[:3])
        for column, cell in ((train, train_cell), (ensemble, ensemble_cell)):
            if cell != "\u2014":
                column[key.strip("`")] = cell.strip("`")
    return train, ensemble


class TestConfigSchema:
    def test_experiment_keys_and_defaults(self):
        assert config_to_text(ExperimentConfig()) == EXPERIMENT_DEFAULT_TEXT
        assert len(text_settings(EXPERIMENT_DEFAULT_TEXT)) == 21

    def test_ensemble_keys_and_defaults(self):
        assert config_to_text(EnsembleRunConfig()) == ENSEMBLE_DEFAULT_TEXT
        assert len(text_settings(ENSEMBLE_DEFAULT_TEXT)) == 24

    @pytest.mark.parametrize("cfg", [
        EnsembleRunConfig(),
        EnsembleRunConfig(kind="stacking", size=4, member_sizes=(16, 8, 10),
                          member_epochs=2,
                          aggregation="majority-vote", stacker_epochs=7,
                          stacker_hidden=(32, 16), eta_plus=1.1,
                          eta_minus=0.4, delta_max=5.0, delta_min=1e-7,
                          delta_init=0.003, batch_size=16, seed=9,
                          dropout_input=0.2, dropout_hidden=0.25,
                          stacker_dropout_hidden=0.1, data_dir="/tmp/d",
                          train_size=300, val_size=50, test_size=40,
                          out_dir="ens", init_scale="fixed-range:0.05",
                          clock="counter"),
    ])
    def test_ensemble_round_trip_through_text(self, cfg):
        assert parse_ensemble_config(config_to_text(cfg)) == cfg

    def test_each_kind_rejects_the_others_keys(self):
        with pytest.raises(ValueError, match="config line 1: unknown key 'kind'"):
            parse_config("kind = bagging\n")
        with pytest.raises(ValueError,
                           match="ensemble spec line 1: unknown key 'seeds'"):
            parse_ensemble_config("seeds = 1,2\n")

    def test_empty_stacker_hidden_rejected(self):
        # config text cannot say (): an empty value means the default
        with pytest.raises(ValueError, match="leave it empty for the "
                                             "default stacker"):
            EnsembleRunConfig(kind="stacking", stacker_hidden=())
        assert stacker_chain(3, 10, ()) == (30, 10)

    def test_readme_table_matches_defaults(self):
        train, ensemble = readme_defaults()
        assert train == text_settings(config_to_text(ExperimentConfig()))
        assert ensemble == text_settings(config_to_text(EnsembleRunConfig()))
