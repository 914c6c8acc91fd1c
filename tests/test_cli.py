"""End-to-end CLI tests driving main() with real files."""

import gzip

import numpy as np
import pytest

from resprop.cli import main
from resprop.data import load_test_set
from resprop.harness import RunSummary, export_runs_csv
from resprop.network import chain_specs, init_params, nll_loss
from resprop.optimizers import RpropConfig, init_rprop_state
from resprop.serialization import load_checkpoint, save_checkpoint
from resprop.synthetic import write_corpus
from resprop.tensor import RngStream
from resprop.training import classification_error, predict_probabilities


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(out, n_train=320, n_test=80, seed=17)
    return out


@pytest.fixture(scope="module")
def config_path(tmp_path_factory, corpus_dir):
    cfg = tmp_path_factory.mktemp("cfg") / "train.cfg"
    cfg.write_text(
        "arch = 784-16-10\n"
        "optimizer = sgd\n"
        "learning_rate = 0.1\n"
        "epochs = 2\n"
        "batch_size = 32\n"
        "seeds = 1,2\n"
        "dropout_hidden = 0\n"
        f"data_dir = {corpus_dir}\n"
        "train_size = 200\n"
        "val_size = 60\n"
        "test_size = 60\n"
        "clock = counter\n"
    )
    return cfg


class TestTrain:
    def test_runs_all_config_seeds(self, config_path, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["train", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "seed 1: best epoch" in stdout
        assert "seed 2: best epoch" in stdout
        for name in ("config.txt", "runs.csv", "summary.txt",
                     "metrics-seed1.csv", "model-seed1.ckpt",
                     "final-seed2.ckpt"):
            assert (out / name).exists()

    def test_seed_flag_restricts_to_one_run(self, config_path, tmp_path, capsys):
        out = tmp_path / "one"
        rc = main(["train", "--config", str(config_path),
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert "seed 5: best epoch" in capsys.readouterr().out
        assert (out / "metrics-seed5.csv").exists()
        assert not (out / "metrics-seed1.csv").exists()

    def test_missing_config_exits_2(self, capsys):
        rc = main(["train", "--config", "/nonexistent/x.cfg"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("val_size = 0", "train_size and val_size must be >= 1, got 200 and 0"),
        ("test_size = 0", "test_size must be >= 1 when given, got 0"),
        ("learning_rate = nan", "learning_rate must be > 0, got nan"),
        ("seeds = 1,1", "seeds must be distinct, got (1, 1)"),
        ("arch = 10-10", "arch input width 10 does not match the data's 784 "
                         "values per example"),
        ("activation = foo", "unknown activation 'foo'; expected one of "
                             "('rectifier', 'logistic', 'tanh', 'identity')"),
        ("init_scale = bogus", "unknown scale_rule 'bogus'; expected "
                               "'uniform-fan-in' or 'fixed-range:R'"),
        ("arch = 784-0-10", "layer dims must be >= 1, got 784x0"),
        ("arch = 784-20-9", "arch output size 9 does not exceed the data's "
                            "largest label 9"),
    ])
    def test_empty_split_exits_2_before_any_output(self, config_path, tmp_path,
                                                   capsys, line, message):
        key = line.split(" = ")[0]
        text = "".join(ln + "\n" for ln in config_path.read_text().splitlines()
                       if not ln.startswith(key + " "))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + line + "\n")
        out = tmp_path / "exp"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_empty_test_pair_exits_2_before_any_output(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--train", "60",
                     "--test", "0"]) == 0
        cfg = tmp_path / "empty-test.cfg"
        cfg.write_text("arch = 784-16-10\noptimizer = sgd\nepochs = 1\n"
                       f"data_dir = {data}\ntrain_size = 40\nval_size = 10\n")
        capsys.readouterr()
        out = tmp_path / "exp"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: test pair {data / 't10k-images-idx3-ubyte'} "
            "holds no examples\n")
        assert not out.exists()

    def test_divergence_exits_1_with_one_line(self, config_path, tmp_path,
                                              capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(config_path.read_text().replace(
            "learning_rate = 0.1", "learning_rate = 1e200"))
        # a rate this size overflows the logits on the next forward pass
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--config", str(cfg),
                       "--out", str(tmp_path / "exp")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: training diverged at epoch 1: loss nan\n")

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning_rat = 0.1\n")
        rc = main(["train", "--config", str(bad)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err


# train reads the config values; gradcheck takes its own flags
@pytest.mark.parametrize("args,message", [
    ("learning_rate = inf", "learning_rate must be finite, got inf"),
    ("init_scale = fixed-range:nan",
     "fixed-range needs a finite non-negative range, got nan"),
    ("init_scale = fixed-range:inf",
     "fixed-range needs a finite non-negative range, got inf"),
    ("optimizer = rprop\neta_minus = inf", "eta_minus must be finite, got inf"),
    ("optimizer = rprop\neta_plus = inf", "eta_plus must be finite, got inf"),
    # every optimizer value is checked, whichever optimizer runs
    ("eta_plus = inf", "eta_plus must be finite, got inf"),
    ("delta_min = 5", "need delta_min <= delta_init <= delta_max, got "
                      "5.0, 0.1, 50.0"),
    ("optimizer = rprop\nlearning_rate = inf",
     "learning_rate must be finite, got inf"),
    ("optimizer = rprop\nlearning_rate = -1",
     "learning_rate must be > 0, got -1.0"),
    ("gradcheck --h nan", "step h must be positive and finite, got nan"),
    ("gradcheck --tol nan", "tol must be >= 0, got nan"),
    ("gradcheck --batch 0", "batch must be >= 1, got 0"),
])
def test_non_finite_or_zero_value_exits_2(config_path, tmp_path,
                                          capsys, args, message):
    out = tmp_path / "exp"
    if args.startswith("gradcheck "):
        argv = ["gradcheck", "--arch", "12-8-5"] + args.split()[1:]
    else:
        settings = dict(ln.split(" = ", 1)
                        for ln in config_path.read_text().splitlines())
        settings.update(ln.split(" = ", 1) for ln in args.split("\n"))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        argv = ["train", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestEvaluate:
    def test_scores_saved_model(self, config_path, corpus_dir, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["train", "--config", str(config_path), "--seed", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--model", str(out / "model-seed1.ckpt"),
                   "--data", str(corpus_dir), "--test-size", "60"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "test err" in stdout and "on 60 examples" in stdout
        # reference: the error and the loss from two separate scoring passes
        params, _, _ = load_checkpoint(out / "model-seed1.ckpt")
        test = load_test_set(corpus_dir, 60)
        err = classification_error(params, test)
        loss = nll_loss(predict_probabilities(params, test.images),
                        test.labels)
        assert stdout == ("test err %.4f (%.2f%%) on %d examples, mean loss "
                          "%.6f\n" % (err, 100.0 * err, 60, loss))

    def test_missing_model_exits_2(self, corpus_dir, capsys):
        rc = main(["evaluate", "--model", "/nonexistent.ckpt",
                   "--data", str(corpus_dir)])
        assert rc == 2

    def test_model_directory_exits_2(self, corpus_dir, tmp_path, capsys):
        rc = main(["evaluate", "--model", str(tmp_path),
                   "--data", str(corpus_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_truncated_gzip_test_images_exit_2(self, config_path, corpus_dir,
                                               tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for f in corpus_dir.iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        packed = next(data.glob("t10k-images*"))
        packed = packed.rename(packed.with_name("t10k-images-idx3-ubyte.gz"))
        packed.write_bytes(gzip.compress(packed.read_bytes())[:-20])
        model = tmp_path / "m.ckpt"
        save_checkpoint(model, init_params(chain_specs((784, 10)),
                                           RngStream(1, 0)))
        rc = main(["evaluate", "--model", str(model), "--data", str(data)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: corrupt gzip file {packed}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cut, message", [
        (lambda raw: raw[:-10], "truncated IDX payload: data ends at offset "),
        (lambda raw: b"\x00\x00\x08\x00\x07",
         "IDX header declares 0 dimensions"),
    ], ids=["payload", "zero-dims"])
    def test_bad_plain_test_images_exit_2_naming_the_file(
            self, corpus_dir, tmp_path, capsys, cut, message):
        data = tmp_path / "data"
        data.mkdir()
        for f in corpus_dir.iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        bad = data / "t10k-images-idx3-ubyte"
        bad.write_bytes(cut(bad.read_bytes()))
        model = tmp_path / "m.ckpt"
        save_checkpoint(model, init_params(chain_specs((784, 10)),
                                           RngStream(1, 0)))
        rc = main(["evaluate", "--model", str(model), "--data", str(data)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}: {message}")
        assert err.count("\n") == 1

    def test_every_truncated_checkpoint_exits_2(self, corpus_dir, tmp_path,
                                                capsys):
        params = init_params(chain_specs((3, 4, 2)), RngStream(5, 0))
        cfg = RpropConfig()
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, params, init_rprop_state(params, cfg), cfg)
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            capsys.readouterr()
            rc = main(["evaluate", "--model", str(path),
                       "--data", str(corpus_dir)])
            err = capsys.readouterr().err
            assert rc == 2, n
            assert err.startswith("error: ") and "checkpoint" in err, (n, err)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_exits_2(self, corpus_dir, tmp_path, capsys,
                                       value):
        params = init_params(chain_specs((784, 8, 10)), RngStream(5, 0))
        params.weights[0][7, 3] = value
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, params)
        rc = main(["evaluate", "--model", str(path), "--data", str(corpus_dir),
                   "--test-size", "30"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("error: non-finite value in checkpoint section "
                                "'params' at layer 0 weights, index (7, 3)\n")
        assert captured.out == ""


class TestEnsemble:
    def test_trains_and_saves(self, corpus_dir, tmp_path, capsys):
        spec = tmp_path / "ens.cfg"
        spec.write_text(
            "kind = bagging\n"
            "size = 2\n"
            "arch = 784-16-10\n"
            "member_epochs = 1\n"
            "batch_size = 32\n"
            "seed = 3\n"
            "dropout_hidden = 0\n"
            f"data_dir = {corpus_dir}\n"
            "train_size = 200\n"
            "val_size = 60\n"
            "test_size = 60\n"
            "clock = counter\n"
        )
        out = tmp_path / "ens"
        rc = main(["ensemble", "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "member 00: test err" in stdout
        assert "bagging ensemble of 2: test err" in stdout
        for name in ("ensemble.json", "member-00.ckpt", "member-01.ckpt",
                     "ensemble-summary.txt"):
            assert (out / name).exists()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.cfg"
        spec.write_text("kind = boosting\n")
        assert main(["ensemble", "--spec", str(spec)]) == 2
        assert "kind must be one of" in capsys.readouterr().err

    def test_activation_is_not_an_ensemble_key(self, tmp_path, capsys):
        # members are always rectifier networks
        spec = tmp_path / "tanh.cfg"
        spec.write_text("activation = tanh\n")
        assert main(["ensemble", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "error: ensemble spec line 1: unknown key 'activation'\n")

    @pytest.mark.parametrize("line,message", [
        ("val_size = 0", "train_size and val_size must be >= 1, got 200 and 0"),
        ("train_size = 0", "train_size and val_size must be >= 1, got 0 and 60"),
        ("test_size = 0", "test_size must be >= 1 when given, got 0"),
        ("batch_size = 0", "batch_size must be >= 1, got 0"),
        ("size = 0", "size must be >= 1, got 0"),
        ("member_epochs = 0", "member_epochs must be >= 1, got 0"),
        ("stacker_epochs = 0", "stacker_epochs must be >= 1, got 0"),
        ("dropout_input = 1", "dropout_input must lie in [0, 1), got 1.0"),
        ("dropout_hidden = -0.1", "dropout_hidden must lie in [0, 1), got -0.1"),
        ("stacker_dropout_hidden = 1.5",
         "stacker_dropout_hidden must lie in [0, 1), got 1.5"),
        ("arch = 10-10", "arch input width 10 does not match the data's 784 "
                         "values per example"),
        ("init_scale = bogus", "unknown scale_rule 'bogus'; expected "
                               "'uniform-fan-in' or 'fixed-range:R'"),
        ("arch = 784-0-10", "layer dims must be >= 1, got 784x0"),
        ("kind = stacking\nstacker_hidden = 20-0",
         "layer dims must be >= 1, got 20x0"),
        ("arch = 784-16-9", "arch output size 9 does not exceed the data's "
                            "largest label 9"),
        ("kind = stacking\narch = 784-16-9",
         "arch output size 9 does not exceed the data's largest label 9"),
    ])
    def test_bad_setting_exits_2_before_any_output(self, corpus_dir, tmp_path,
                                                   capsys, line, message):
        settings = {"kind": "bagging", "size": "2", "arch": "784-16-10",
                    "member_epochs": "1", "batch_size": "32",
                    "data_dir": str(corpus_dir), "train_size": "200",
                    "val_size": "60", "test_size": "60"}
        for setting in line.split("\n"):
            key, _, value = setting.partition(" = ")
            settings[key] = value
        spec = tmp_path / "bad.cfg"
        spec.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        out = tmp_path / "ens"
        assert main(["ensemble", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def write_runs_dir(path, errs, seeds=None):
    path.mkdir(parents=True)
    seeds = range(1, len(errs) + 1) if seeds is None else seeds
    rows = [RunSummary(seed, 1, e, e, e, 1000.0, 1000.0)
            for seed, e in zip(seeds, errs, strict=True)]
    (path / "runs.csv").write_text(export_runs_csv(rows))


class TestCompare:
    def test_clear_difference_is_significant(self, tmp_path, capsys):
        write_runs_dir(tmp_path / "a",
                       [0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17])
        write_runs_dir(tmp_path / "b",
                       [0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27])
        rc = main(["compare", "--a", str(tmp_path / "a"),
                   "--b", str(tmp_path / "b")])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "wilcoxon signed-rank" in stdout
        assert "significant at the 98% confidence level" in stdout
        assert f"better: {tmp_path / 'a'}" in stdout

    def test_identical_runs_not_significant(self, tmp_path, capsys):
        write_runs_dir(tmp_path / "a", [0.1, 0.2, 0.3, 0.4])
        write_runs_dir(tmp_path / "b", [0.1, 0.2, 0.3, 0.4])
        rc = main(["compare", "--a", str(tmp_path / "a"),
                   "--b", str(tmp_path / "b")])
        assert rc == 0
        assert "not significant" in capsys.readouterr().out

    def test_runs_are_paired_by_seed(self, tmp_path, capsys):
        errs_a = [0.10, 0.30, 0.20, 0.50, 0.40, 0.60]
        errs_b = [0.15, 0.33, 0.22, 0.56, 0.39, 0.70]
        write_runs_dir(tmp_path / "a", errs_a)
        write_runs_dir(tmp_path / "b", errs_b)
        write_runs_dir(tmp_path / "rev", errs_b[::-1], seeds=range(6, 0, -1))
        verdicts = []
        for b in ("b", "rev"):
            assert main(["compare", "--a", str(tmp_path / "a"),
                         "--b", str(tmp_path / b)]) == 0
            out = capsys.readouterr().out
            verdicts.append([ln for ln in out.splitlines() if "W+" in ln])
        assert verdicts[0] == verdicts[1]
        assert "W+ = 1, p = 0.0625 (exact, n = 6)" in verdicts[0][0]

    def test_disjoint_seeds_exit_2(self, tmp_path, capsys):
        write_runs_dir(tmp_path / "a", [0.1, 0.2, 0.3])
        write_runs_dir(tmp_path / "b", [0.1, 0.2, 0.3], seeds=[4, 5, 6])
        rc = main(["compare", "--a", str(tmp_path / "a"),
                   "--b", str(tmp_path / "b")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: paired comparison needs the same distinct seeds on both "
            "sides, got [1, 2, 3] and [4, 5, 6]\n")

    def test_non_finite_errors_exit_2(self, tmp_path, capsys):
        write_runs_dir(tmp_path / "a", [0.1, 0.2, float("nan"), 0.3,
                                        float("inf"), 0.4])
        write_runs_dir(tmp_path / "b", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        rc = main(["compare", "--a", str(tmp_path / "a"),
                   "--b", str(tmp_path / "b")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: bad runs row '3,1,nan,nan,nan,1000.000,1000.000'\n")

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        write_runs_dir(tmp_path / "a", [0.1, 0.2])
        rc = main(["compare", "--a", str(tmp_path / "a"),
                   "--b", str(tmp_path / "missing")])
        assert rc == 2


class TestGradcheck:
    def test_pass(self, capsys):
        rc = main(["gradcheck", "--arch", "12-8-5", "--tol", "1e-4"])
        assert rc == 0
        assert "gradcheck PASS" in capsys.readouterr().out

    def test_unattainable_tolerance_fails(self, capsys):
        rc = main(["gradcheck", "--arch", "12-8-5", "--tol", "1e-14"])
        assert rc == 1
        assert "gradcheck FAIL" in capsys.readouterr().out

    def test_oversized_architecture_refused(self, capsys):
        rc = main(["gradcheck", "--arch", "784-300-100-10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "refusing" in err
        assert err.startswith("error: refusing")

    def test_bad_arch_exits_2(self, capsys):
        assert main(["gradcheck", "--arch", "784"]) == 2


class TestSynth:
    def test_writes_idx_corpus(self, tmp_path, capsys):
        out = tmp_path / "digits"
        rc = main(["synth", "--out", str(out), "--train", "50",
                   "--test", "20", "--seed", "5"])
        assert rc == 0
        assert "wrote 50+20 examples" in capsys.readouterr().out
        names = {p.name for p in out.iterdir()}
        assert "train-images-idx3-ubyte" in names
        assert "train-labels-idx1-ubyte" in names
        assert "t10k-images-idx3-ubyte" in names
        assert "t10k-labels-idx1-ubyte" in names


class TestParser:
    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])
