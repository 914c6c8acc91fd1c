import numpy as np
import pytest

from resprop.data import Dataset
from resprop.dropout import DropoutSpec
from resprop.network import LayerSpec, NetworkParams, chain_specs, init_params
from resprop.optimizers import RpropConfig, SgdConfig, init_rprop_state
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
        clock=None, batch=32, state=None):
    train, val = toy_splits
    params = init_params(chain_specs(SIZES), RngStream(seed, 0))
    return train_model(params, train, val, optimizer, cfg,
                       epoch_cap=epochs, batch_size=batch, seed=seed,
                       dropout=dropout, clock=clock, state=state)


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

    def test_batched_eval_matches_single_shot(self):
        params = init_params(chain_specs((16, 8, 10)), RngStream(1, 0))
        images = RngStream(2, 0).uniform(size=(50, 16))
        a = predict_probabilities(params, images, batch_size=7)
        b = predict_probabilities(params, images, batch_size=1000)
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

    def test_epochs_equal_rows(self, toy_splits):
        res = fit(toy_splits, "rprop", RpropConfig(delta_init=0.01), epochs=5)
        assert [r.epoch for r in res.rows] == [1, 2, 3, 4, 5]
        assert res.optimizer == "rprop"

    def test_resume_from_state(self, toy_splits):
        cfg = RpropConfig(delta_init=0.01)
        full = fit(toy_splits, "rprop", cfg, epochs=2)
        assert full.final_state is not None
        resumed = fit(toy_splits, "rprop", cfg, epochs=1,
                      state=full.final_state)
        assert resumed.rows[0].val_err >= 0.0

    @pytest.mark.parametrize("optimizer,cfg,dropout", [
        ("sgd", SgdConfig(0.1), None),
        ("rprop", RpropConfig(delta_init=0.01), None),
        ("mod-rprop", RpropConfig(delta_init=0.01), DropoutSpec((0.0, 0.5))),
    ])
    def test_inputs_left_untouched(self, toy_splits, optimizer, cfg, dropout):
        train, val = toy_splits
        params = init_params(chain_specs(SIZES), RngStream(7, 0))
        state = None if optimizer == "sgd" else init_rprop_state(params, cfg)
        arrays = lambda: (params.weights + params.biases + (
            [] if state is None else
            state.delta_w + state.delta_b + state.prev_w + state.prev_b))
        before = [a.copy() for a in arrays()]
        res = train_model(params, train, val, optimizer, cfg, epoch_cap=2,
                          batch_size=32, seed=7, dropout=dropout, state=state)
        for a, b in zip(arrays(), before, strict=True):
            assert np.array_equal(a, b)
        assert any((a != b).any() for a, b in
                   zip(res.final_params.weights, params.weights))

    def test_sgd_has_no_state(self, toy_splits):
        res = fit(toy_splits, "sgd", SgdConfig(0.1), epochs=1)
        assert res.final_state is None


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
