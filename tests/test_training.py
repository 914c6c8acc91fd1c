import math
import pickle
import tracemalloc

import numpy as np
import pytest

from resprop import training
from resprop.data import Dataset
from resprop.dropout import DropoutSpec
from resprop.network import (
    LayerSpec,
    NetworkParams,
    backward,
    chain_specs,
    forward,
    init_params,
)
from resprop.optimizers import RpropConfig, SgdConfig
from resprop.tensor import RngStream
from resprop.training import (
    DivergenceError,
    classification_error,
    counter_clock,
    predict_labels,
    predict_probabilities,
    train_model,
)

SIZES = (16, 12, 10)


def toy_data(n, seed, n_features=16, n_classes=10):
    """Nearly-separable toy task: a strong bump at the label's feature."""
    rng = RngStream(seed, 0)
    images = rng.uniform(0.0, 0.3, size=(n, n_features))
    labels = rng.integers(n_classes, size=n)
    images[np.arange(n), labels] += 0.6
    return Dataset(images, labels)


@pytest.fixture(scope="module")
def toy_splits():
    return toy_data(300, seed=100), toy_data(80, seed=101)


def fit(toy_splits, optimizer, cfg, *, seed=7, epochs=4, dropout=None,
        clock=None, batch=32):
    train, val = toy_splits
    params = init_params(chain_specs(SIZES), RngStream(seed, 0))
    return train_model(params, train, val, optimizer, cfg,
                       epoch_cap=epochs, batch_size=batch, seed=seed,
                       dropout=dropout, clock=clock)


class TestPrediction:
    def test_identity_net_predicts_feature_argmax(self):
        params = NetworkParams((LayerSpec(3, 3, "identity"),),
                               [np.eye(3) * 5.0], [np.zeros(3)])
        images = np.array([[0.1, 0.9, 0.2], [0.7, 0.1, 0.3]])
        probs = predict_probabilities(params, images)
        assert probs.shape == (2, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert predict_labels(params, images).tolist() == [1, 0]

    def test_classification_error_hand_value(self):
        params = NetworkParams((LayerSpec(3, 3, "identity"),),
                               [np.eye(3) * 5.0], [np.zeros(3)])
        data = Dataset(np.array([[0.9, 0.1, 0.1],
                                 [0.1, 0.9, 0.1],
                                 [0.1, 0.1, 0.9],
                                 [0.9, 0.1, 0.1]]),
                       np.array([0, 1, 2, 1]))
        assert classification_error(params, data) == 0.25

    def test_batched_eval_matches_single_shot(self, monkeypatch):
        params = init_params(chain_specs((16, 8, 10)), RngStream(1, 0))
        images = RngStream(2, 0).uniform(size=(50, 16))
        monkeypatch.setattr(training, "EVAL_BATCH", 7)
        a = predict_probabilities(params, images)
        monkeypatch.setattr(training, "EVAL_BATCH", 1000)
        b = predict_probabilities(params, images)
        # matmul blocking may differ across batch shapes; rows agree to
        # within an ulp-scale tolerance
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)

    def test_empty_dataset_rejected(self):
        params = init_params(chain_specs((3, 3)), RngStream(1, 0))
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            classification_error(params, empty)


class TestTrainLoop:
    def test_determinism(self, toy_splits):
        a = fit(toy_splits, "mod-rprop", RpropConfig(delta_init=0.01),
                dropout=DropoutSpec((0.0, 0.3)))
        b = fit(toy_splits, "mod-rprop", RpropConfig(delta_init=0.01),
                dropout=DropoutSpec((0.0, 0.3)))
        assert [(r.epoch, r.train_loss, r.val_err) for r in a.rows] == \
               [(r.epoch, r.train_loss, r.val_err) for r in b.rows]
        for x, y in zip(a.best_params.weights, b.best_params.weights):
            assert (x == y).all()

    def test_seeds_differ(self, toy_splits):
        a = fit(toy_splits, "sgd", SgdConfig(0.1), seed=1)
        b = fit(toy_splits, "sgd", SgdConfig(0.1), seed=2)
        assert [r.train_loss for r in a.rows] != [r.train_loss for r in b.rows]

    def test_progress_on_easy_task(self, toy_splits):
        res = fit(toy_splits, "sgd", SgdConfig(0.5), epochs=8)
        assert res.best_val_err < res.first_epoch_val_err
        assert res.best_val_err < 0.2

    def test_single_epoch_best_is_one(self, toy_splits):
        res = fit(toy_splits, "rprop", RpropConfig(delta_init=0.01), epochs=1)
        assert res.best_epoch == 1
        assert res.best_val_err == res.rows[0].val_err
        assert res.first_epoch_val_err == res.rows[0].val_err

    def test_best_is_min_and_earliest(self, toy_splits):
        res = fit(toy_splits, "mod-rprop", RpropConfig(delta_init=0.01),
                  epochs=6, dropout=DropoutSpec((0.0, 0.3)))
        errs = [r.val_err for r in res.rows]
        assert res.best_val_err == min(errs)
        assert res.best_epoch == errs.index(min(errs)) + 1

    def test_best_params_reproduce_best_err(self, toy_splits):
        _, val = toy_splits
        res = fit(toy_splits, "sgd", SgdConfig(0.5), epochs=6)
        assert classification_error(res.best_params, val) == res.best_val_err

    def test_final_differs_from_best_when_late_epochs_worse(self, toy_splits):
        res = fit(toy_splits, "sgd", SgdConfig(0.5), epochs=8)
        if res.best_epoch < len(res.rows):
            different = any(
                (a != b).any()
                for a, b in zip(res.best_params.weights,
                                res.final_params.weights)
            )
            assert different

    def test_counter_clock_rows(self, toy_splits):
        res = fit(toy_splits, "sgd", SgdConfig(0.1), epochs=3,
                  clock=counter_clock())
        assert [r.elapsed_ms for r in res.rows] == [1000.0, 2000.0, 3000.0]

    def test_wall_clock_monotone(self, toy_splits):
        res = fit(toy_splits, "sgd", SgdConfig(0.1), epochs=4)
        elapsed = [r.elapsed_ms for r in res.rows]
        assert all(b > a for a, b in zip(elapsed, elapsed[1:]))

    def test_divergence_raises_with_epoch(self, toy_splits):
        # a rate this size overflows the second-layer logits to inf on
        # the next forward pass, turning the epoch loss into nan
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch 1") as info:
                fit(toy_splits, "sgd", SgdConfig(1e200), epochs=3)
        assert info.value.epoch == 1

    def test_divergence_error_survives_pickling(self):
        # a worker process hands a diverged run back to its parent this way
        err = pickle.loads(pickle.dumps(DivergenceError(3, float("nan"))))
        assert type(err) is DivergenceError
        assert str(err) == "training diverged at epoch 3: loss nan"
        assert err.epoch == 3 and math.isnan(err.loss)

    def test_epochs_equal_rows(self, toy_splits):
        res = fit(toy_splits, "rprop", RpropConfig(delta_init=0.01), epochs=5)
        assert [r.epoch for r in res.rows] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("optimizer,cfg,dropout", [
        ("sgd", SgdConfig(0.1), None),
        ("rprop", RpropConfig(delta_init=0.01), None),
        ("mod-rprop", RpropConfig(delta_init=0.01), DropoutSpec((0.0, 0.5))),
    ])
    def test_inputs_left_untouched(self, toy_splits, optimizer, cfg, dropout):
        train, val = toy_splits
        params = init_params(chain_specs(SIZES), RngStream(7, 0))
        arrays = lambda: params.weights + params.biases
        before = [a.copy() for a in arrays()]
        res = train_model(params, train, val, optimizer, cfg, epoch_cap=2,
                          batch_size=32, seed=7, dropout=dropout)
        for a, b in zip(arrays(), before, strict=True):
            assert np.array_equal(a, b)
        assert any((a != b).any() for a, b in
                   zip(res.final_params.weights, params.weights))

    def test_sgd_has_no_state(self, toy_splits):
        res = fit(toy_splits, "sgd", SgdConfig(0.1), epochs=1)
        assert res.final_state is None


KERNELS = {"sgd": "sgd_step", "rprop": "rprop_step",
           "mod-rprop": "dropout_rprop_step"}


class TestKernelDispatch:
    @pytest.mark.parametrize("dropout", [None, DropoutSpec((0.0, 0.5)),
                                         DropoutSpec((0.0, 0.0))])
    @pytest.mark.parametrize("optimizer,cfg", [
        ("sgd", SgdConfig(0.1)),
        ("rprop", RpropConfig(delta_init=0.01)),
        ("mod-rprop", RpropConfig(delta_init=0.01)),
    ])
    def test_loop_reaches_its_kernel_by_name(self, toy_splits, monkeypatch,
                                             optimizer, cfg, dropout):
        # wrappers installed on the module globals see every step, as a
        # tracer that replaces those globals does
        calls = {name: [] for name in KERNELS.values()}
        for name, seen in calls.items():
            def counted(*args, _kernel=getattr(training, name), _seen=seen,
                        **kwargs):
                _seen.append(args)
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(training, name, counted)
        sampled, forwarded = [], []

        def recorded(*args, _sample=training.sample_masks):
            sampled.extend(masks := _sample(*args))
            return masks
        monkeypatch.setattr(training, "sample_masks", recorded)

        def fwd(params, x, mask, _forward=training.forward):
            forwarded.append(mask)
            return _forward(params, x, mask)
        monkeypatch.setattr(training, "forward", fwd)

        epochs, batch = 2, 32
        fit(toy_splits, optimizer, cfg, epochs=epochs, batch=batch,
            dropout=dropout)
        steps = epochs * math.ceil(len(toy_splits[0]) / batch)
        kernel = KERNELS[optimizer]
        assert {name: len(seen) for name, seen in calls.items()} == \
               {name: steps if name == kernel else 0 for name in calls}
        assert len(forwarded) == steps
        if dropout is None or dropout.is_off:
            # every step forwards one all-ones mask
            assert sampled == []
            assert all(m is forwarded[0] for m in forwarded)
            assert all(m.all() for m in forwarded[0].node_masks)
            assert forwarded[0].scales == [1.0] * len(forwarded[0].scales)
        else:
            assert len(sampled) == steps
            assert all(got is want for got, want in zip(forwarded, sampled))
        if optimizer == "mod-rprop":
            # the kernel gets the very mask its step forwarded
            assert all(args[4] is mask for args, mask
                       in zip(calls[kernel], forwarded))


class TestValidationOfArguments:
    def test_unknown_optimizer(self, toy_splits):
        with pytest.raises(ValueError, match="unknown optimizer 'adam'"):
            fit(toy_splits, "adam", SgdConfig(0.1))

    def test_config_type_mismatch(self, toy_splits):
        with pytest.raises(TypeError, match="needs a SgdConfig"):
            fit(toy_splits, "sgd", RpropConfig())
        with pytest.raises(TypeError, match="needs a RpropConfig"):
            fit(toy_splits, "rprop", SgdConfig(0.1))

    def test_epoch_cap_validated(self, toy_splits):
        with pytest.raises(ValueError, match="epoch_cap"):
            fit(toy_splits, "sgd", SgdConfig(0.1), epochs=0)

    def test_batch_size_validated(self, toy_splits):
        with pytest.raises(ValueError, match="batch_size"):
            fit(toy_splits, "sgd", SgdConfig(0.1), batch=0)

    def test_empty_training_set_rejected(self, toy_splits):
        _, val = toy_splits
        empty = Dataset(np.zeros((0, 16)), np.zeros(0, dtype=np.int64))
        params = init_params(chain_specs(SIZES), RngStream(1, 0))
        with pytest.raises(ValueError, match="training set is empty"):
            train_model(params, empty, val, "sgd", SgdConfig(0.1),
                        epoch_cap=1, seed=1)


def result_bytes(res):
    """Every array and row of a TrainResult, as bytes, for exact equality."""
    arrays = (res.best_params.weights + res.best_params.biases
              + res.final_params.weights + res.final_params.biases)
    if res.final_state is not None:
        s = res.final_state
        arrays += s.delta_w + s.delta_b + s.prev_w + s.prev_b
    return ([a.tobytes() for a in arrays], res.rows, res.best_epoch,
            res.best_val_err)


class TestTrainOnRows:
    """`rows=idx` must train exactly as the copied Dataset(images[idx],
    labels[idx]) does: the copy-based path is the reference."""

    @pytest.mark.parametrize("optimizer,cfg,dropout", [
        ("sgd", SgdConfig(0.1), None),
        ("rprop", RpropConfig(delta_init=0.01), DropoutSpec((0.0, 0.5))),
        ("mod-rprop", RpropConfig(delta_init=0.01), DropoutSpec((0.2, 0.5))),
    ])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_equal_to_copied_rows(self, toy_splits, optimizer, cfg,
                                      dropout, seed):
        train, val = toy_splits
        # 297 rows: not a multiple of the batch size, with repeats
        idx = RngStream(seed, 9).integers(len(train), size=297)
        assert len(np.unique(idx)) < len(idx)
        copied = Dataset(train.images[idx], train.labels[idx])
        params = init_params(chain_specs(SIZES), RngStream(seed, 0))
        kw = dict(epoch_cap=3, batch_size=32, seed=seed, dropout=dropout)
        ref = train_model(params, copied, val, optimizer, cfg,
                          clock=counter_clock(), **kw)
        got = train_model(params, train, val, optimizer, cfg,
                          clock=counter_clock(), rows=idx, **kw)
        assert result_bytes(got) == result_bytes(ref)

    def test_identity_rows_equal_no_rows(self, toy_splits):
        train, val = toy_splits
        params = init_params(chain_specs(SIZES), RngStream(4, 0))
        kw = dict(epoch_cap=2, batch_size=50, seed=4)
        ref = train_model(params, train, val, "rprop", RpropConfig(),
                          clock=counter_clock(), **kw)
        got = train_model(params, train, val, "rprop", RpropConfig(),
                          clock=counter_clock(), rows=np.arange(len(train)),
                          **kw)
        assert result_bytes(got) == result_bytes(ref)

    def test_single_repeated_row(self, toy_splits):
        train, val = toy_splits
        idx = np.full(5, 17)
        copied = Dataset(train.images[idx], train.labels[idx])
        params = init_params(chain_specs(SIZES), RngStream(5, 0))
        kw = dict(epoch_cap=2, batch_size=2, seed=5)
        ref = train_model(params, copied, val, "mod-rprop", RpropConfig(),
                          clock=counter_clock(), **kw)
        got = train_model(params, train, val, "mod-rprop", RpropConfig(),
                          clock=counter_clock(), rows=idx, **kw)
        assert result_bytes(got) == result_bytes(ref)

    @pytest.mark.parametrize("rows,match", [
        (np.zeros((2, 2), dtype=np.int64), "1-D integer"),
        (np.array([0.0, 1.0]), "1-D integer"),
        (np.array([True, False]), "1-D integer"),
        (np.zeros(0, dtype=np.int64), "rows is empty"),
        (np.array([0, -1]), r"lie in \[0, 300\)"),
        (np.array([0, 300]), r"lie in \[0, 300\)"),
    ])
    def test_malformed_rows_rejected(self, toy_splits, rows, match):
        train, val = toy_splits
        params = init_params(chain_specs(SIZES), RngStream(1, 0))
        with pytest.raises(ValueError, match=match):
            train_model(params, train, val, "sgd", SgdConfig(0.1),
                        epoch_cap=1, seed=1, rows=rows)


class TestDropoutIntegration:
    def test_mod_rprop_without_dropout_runs(self, toy_splits):
        res = fit(toy_splits, "mod-rprop", RpropConfig(delta_init=0.01),
                  epochs=2, dropout=None)
        assert len(res.rows) == 2

    def test_dropout_off_spec_equals_none(self, toy_splits):
        off = DropoutSpec((0.0, 0.0))
        a = fit(toy_splits, "rprop", RpropConfig(delta_init=0.01),
                epochs=3, dropout=off)
        b = fit(toy_splits, "rprop", RpropConfig(delta_init=0.01),
                epochs=3, dropout=None)
        assert [r.train_loss for r in a.rows] == [r.train_loss for r in b.rows]
        for x, y in zip(a.final_params.weights, b.final_params.weights):
            assert (x == y).all()

    def test_dropout_changes_trajectory(self, toy_splits):
        a = fit(toy_splits, "mod-rprop", RpropConfig(delta_init=0.01),
                epochs=2, dropout=DropoutSpec((0.0, 0.5)))
        b = fit(toy_splits, "mod-rprop", RpropConfig(delta_init=0.01),
                epochs=2, dropout=None)
        assert [r.train_loss for r in a.rows] != [r.train_loss for r in b.rows]


def pixel_data(n, seed, n_features=16):
    """Toy task as raw uint8 pixels, the way IDX files are loaded."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(10, size=n)
    pixels = rng.integers(0, 80, size=(n, n_features)).astype(np.uint8)
    pixels[np.arange(n), labels] += 150
    return Dataset(pixels, labels)


def as_float64(data):
    """The same examples stored as float64, scaled as loading once did."""
    images = data.pixels.astype(np.float64)
    images /= 255.0
    return Dataset(images, data.labels)


class TestUint8Pixels:
    """Training on uint8 pixels must match training on their float64
    conversion bit for bit."""

    @pytest.mark.parametrize("optimizer,cfg,dropout,with_rows", [
        ("sgd", SgdConfig(0.1), None, False),
        ("rprop", RpropConfig(delta_init=0.01), DropoutSpec((0.0, 0.5)), False),
        ("mod-rprop", RpropConfig(delta_init=0.01), DropoutSpec((0.2, 0.5)),
         True),
    ])
    def test_bit_equal_to_float64_dataset(self, optimizer, cfg, dropout,
                                          with_rows):
        train, val = pixel_data(300, seed=1), pixel_data(80, seed=2)
        rows = (RngStream(3, 9).integers(len(train), size=297)
                if with_rows else None)
        params = init_params(chain_specs(SIZES), RngStream(3, 0))
        kw = dict(epoch_cap=3, batch_size=32, seed=3, dropout=dropout,
                  rows=rows)
        got = train_model(params, train, val, optimizer, cfg,
                          clock=counter_clock(), **kw)
        ref = train_model(params, as_float64(train), as_float64(val),
                          optimizer, cfg, clock=counter_clock(), **kw)
        assert result_bytes(got) == result_bytes(ref)

    @staticmethod
    def full_batch_case():
        rng = np.random.default_rng(0)
        n = 3000
        train = Dataset(rng.integers(0, 256, size=(n, 784), dtype=np.uint8),
                        rng.integers(10, size=n))
        params = init_params(chain_specs((784, 300, 100, 10)), RngStream(1, 0))
        return train, params

    def test_full_batch_step_keeps_no_pre_activations(self):
        # A step that consumes its cache holds the gathered batch
        # (3000 x 784 x 8 B = 18.82 MB), the two hidden activations
        # (7.20 + 2.40 MB) with their bool derivative factors (0.90 +
        # 0.30 MB), the probabilities (0.24 MB) and the gradient buffer
        # (266,610 x 8 B = 2.13 MB): 31.99 MB, and the bound leaves 1 MB
        # for index vectors and small temporaries (measured 32.06 MB).
        # Fresh n x 300 and n x 100 deltas and a copy of the
        # probabilities peak at 41.6 MB; caching the float64
        # pre-activations as well, higher still. Both fail the bound.
        train, params = self.full_batch_case()
        tracemalloc.start()
        try:
            xb = train.batch(np.arange(len(train)))
            backward(params, forward(params, xb), train.labels)
            _, step = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert step <= 33e6, step

    def test_full_batch_peak_holds_one_step(self):
        # A full-batch step of 3000 x 784 pixels through 784-300-100-10
        # holds 32 MB (gather, forward caches, gradients), far above the
        # parameters and optimizer state. Keeping the previous step's
        # caches and gradients alive into the next step breaks the bound.
        train, params = self.full_batch_case()
        n = len(train)
        val = Dataset(train.pixels[:200].copy(), train.labels[:200].copy())
        tracemalloc.start()
        try:
            xb = train.batch(np.arange(n))
            grads = backward(params, forward(params, xb), train.labels)
            _, step = tracemalloc.get_traced_memory()
            del xb, grads
            tracemalloc.reset_peak()
            train_model(params, train, val, "rprop", RpropConfig(),
                        epoch_cap=3, batch_size=n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * step, (peak, step)
