"""Ensemble tests: resampling, aggregation, training, and persistence."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resprop import ensemble
from resprop.data import Dataset, DataSplits
from resprop.dropout import DropoutSpec
from resprop.ensemble import (
    MANIFEST_NAME,
    EnsembleModel,
    EnsembleSpec,
    aggregate,
    bootstrap_resample,
    load_ensemble,
    member_stream_base,
    save_ensemble,
    stack_features,
    stacker_chain,
    train_ensemble,
)
from resprop.network import chain_specs, init_params
from resprop.optimizers import RpropConfig
from resprop.serialization import save_checkpoint
from resprop.tensor import RngStream
from resprop.training import (
    MEMBER_STREAM_STRIDE,
    STREAM_INIT,
    STREAM_RESAMPLE,
    counter_clock,
    predict_probabilities,
    train_model,
)
from test_serialization import fail_mid_write, traced_peak


def tagged_dataset(n, seed=0):
    """Rows carry their own index in column 0 so resamples are traceable."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 0.3, size=(n, 16))
    labels = rng.integers(10, size=n)
    images[:, 0] = np.arange(n) / n
    images[:, 1] = labels / 10.0
    return Dataset(images, labels)


def toy_splits(n_train=48, n_val=24, n_test=24, seed=0):
    rng = np.random.default_rng(seed)
    parts = []
    for n in (n_train, n_val, n_test):
        images = rng.uniform(0.0, 0.3, size=(n, 16))
        labels = rng.integers(10, size=n)
        images[np.arange(n), labels] += 0.6
        parts.append(Dataset(images, labels))
    return DataSplits(*parts)


def bagging_spec(size=3, epochs=2, aggregation="probability-average"):
    return EnsembleSpec("bagging", size, (16, 8, 10), epochs, aggregation)


class TestEnsembleSpec:
    def test_fields(self):
        spec = bagging_spec()
        assert spec.num_classes == 10
        assert spec.member_sizes == (16, 8, 10)

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            EnsembleSpec("boosting", 3, (16, 8, 10), 2)

    def test_size_validated(self):
        with pytest.raises(ValueError, match="size must be >= 1"):
            EnsembleSpec("bagging", 0, (16, 8, 10), 2)

    def test_epoch_cap_validated(self):
        with pytest.raises(ValueError, match="epoch cap must be >= 1"):
            EnsembleSpec("bagging", 3, (16, 8, 10), 0)

    def test_aggregation_validated(self):
        with pytest.raises(ValueError, match="aggregation must be one of"):
            EnsembleSpec("bagging", 3, (16, 8, 10), 2, "mean-rank")


class TestStackerChain:
    def test_default_hidden_sizes_scale_with_members(self):
        assert stacker_chain(3, 10) == (30, 600, 300, 10)
        assert stacker_chain(10, 10)[1:-1] == (2000, 1000)

    def test_size_chain(self):
        assert stacker_chain(n_members=2, n_classes=10,
                             hidden=(8, 4)) == (20, 8, 4, 10)

    @pytest.fixture
    def no_training(self, monkeypatch):
        def train_model(*args, **kwargs):
            raise AssertionError("a network trained")

        monkeypatch.setattr(ensemble, "train_model", train_model)

    def test_epoch_cap_validated(self, no_training):
        spec = EnsembleSpec("stacking", 2, (16, 8, 10), 1)
        with pytest.raises(ValueError,
                           match="stacker epoch cap must be >= 1, got 0"):
            train_ensemble(spec, toy_splits(), RpropConfig(), seed=1,
                           batch_size=8, stacker_hidden=(8,),
                           stacker_epoch_cap=0)

    @pytest.mark.parametrize("settings,message", [
        ({"stacker_hidden": (8, 0)}, "layer dims must be >= 1, got 8x0"),
        ({"stacker_dropout_hidden": 1.0}, "dropout rate must lie in"),
    ])
    def test_bad_stacker_setting_raises_before_any_member_trains(
            self, no_training, settings, message):
        spec = EnsembleSpec("stacking", 2, (16, 8, 10), 1)
        with pytest.raises(ValueError, match=message):
            train_ensemble(spec, toy_splits(), RpropConfig(), seed=1,
                           batch_size=8, **settings)

    def test_bagging_ignores_stacker_settings(self):
        t = train_ensemble(bagging_spec(size=1, epochs=1), toy_splits(),
                           RpropConfig(), seed=1, batch_size=8,
                           stacker_epoch_cap=0)
        assert t.stacker_result is None and t.model.stacker is None


class TestBootstrapResample:
    """`bootstrap_resample(n, rng)` returns row indices; training gathers
    the resample from the shared arrays (see TestBaggingByIndex)."""

    def test_size_preserved(self):
        idx = bootstrap_resample(40, RngStream(1, 0))
        assert idx.shape == (40,) and idx.dtype == np.int64

    def test_pairing_preserved(self):
        data = tagged_dataset(60)
        idx = bootstrap_resample(len(data), RngStream(5, 0))
        images, labels = data.images[idx], data.labels[idx]
        assert np.array_equal(np.round(images[:, 1] * 10).astype(int), labels)

    def test_rows_come_from_source(self):
        idx = bootstrap_resample(30, RngStream(2, 0))
        assert idx.min() >= 0 and idx.max() < 30

    def test_deterministic_per_stream(self):
        a = bootstrap_resample(40, RngStream(7, 3))
        b = bootstrap_resample(40, RngStream(7, 3))
        assert np.array_equal(a, b)
        c = bootstrap_resample(40, RngStream(7, 4))
        assert not np.array_equal(a, c)

    def test_same_draws_as_integers(self):
        rng = RngStream(7, 3)
        idx = bootstrap_resample(40, rng)
        assert np.array_equal(idx, RngStream(7, 3).integers(40, size=40))
        assert rng.position == 40

    def test_unique_fraction_near_one_minus_inv_e(self):
        # E[unique/n] = 1 - (1 - 1/n)^n -> 0.632; mean over seeds tightens it
        n = 500
        fracs = [len(np.unique(bootstrap_resample(n, RngStream(seed, 0)))) / n
                 for seed in range(8)]
        assert abs(np.mean(fracs) - 0.632) < 0.03

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bootstrap_resample(0, RngStream(1, 0))


class TestAggregate:
    def test_probability_average_hand_case(self):
        a = np.array([[0.2, 0.8], [0.9, 0.1]])
        b = np.array([[0.7, 0.3], [0.8, 0.2]])
        # means: row0 (0.45, 0.55) -> 1, row1 (0.85, 0.15) -> 0
        assert aggregate([a, b], "probability-average").tolist() == [1, 0]

    def test_majority_vote_hand_case(self):
        def one_hot(k):
            v = np.zeros((1, 10))
            v[0, k] = 1.0
            return v

        votes = [one_hot(2), one_hot(2), one_hot(7)]
        assert aggregate(votes, "majority-vote").tolist() == [2]

    def test_vote_tie_goes_to_lowest_class(self):
        def one_hot(k):
            v = np.zeros((1, 10))
            v[0, k] = 1.0
            return v

        assert aggregate([one_hot(5), one_hot(3)], "majority-vote").tolist() == [3]

    def test_average_tie_goes_to_lowest_class(self):
        a = np.array([[0.5, 0.5, 0.0]])
        assert aggregate([a], "probability-average").tolist() == [0]

    def test_single_member_is_argmax(self):
        probs = np.array([[0.1, 0.7, 0.2], [0.6, 0.3, 0.1]])
        for mode in ("majority-vote", "probability-average"):
            assert aggregate([probs], mode).tolist() == [1, 0]

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="aggregation mode must be one of"):
            aggregate([np.ones((2, 3))], "median")

    def test_no_members(self):
        with pytest.raises(ValueError, match="at least one member"):
            aggregate([], "majority-vote")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="member 1 output shape"):
            aggregate([np.ones((2, 3)), np.ones((2, 4))], "majority-vote")

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            aggregate([np.ones(3)], "majority-vote")

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(2, 5))
    def test_single_member_modes_agree(self, seed, n, k):
        probs = np.random.default_rng(seed).uniform(size=(n, k))
        vote = aggregate([probs], "majority-vote")
        avg = aggregate([probs], "probability-average")
        assert np.array_equal(vote, avg)
        assert np.array_equal(avg, np.argmax(probs, axis=1))


class TestStackFeatures:
    def test_concatenation_order(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert stack_features([a, b]).tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_shape(self):
        outs = [np.zeros((5, 10))] * 3
        assert stack_features(outs).shape == (5, 30)


class TestEnsembleModel:
    def test_member_count_checked(self):
        spec = bagging_spec(size=3)
        with pytest.raises(ValueError, match="promises 3 members, got 1"):
            EnsembleModel(spec, members=[object()])

    def test_stacking_needs_stacker(self):
        spec = EnsembleSpec("stacking", 1, (16, 8, 10), 2)
        with pytest.raises(ValueError, match="needs a stacker"):
            EnsembleModel(spec, members=[object()], stacker=None)


class TestTrainEnsemble:
    def test_bagging_deterministic_and_members_distinct(self):
        splits = toy_splits()
        spec = bagging_spec(size=3, epochs=2)
        kw = dict(seed=11, batch_size=8)
        t1 = train_ensemble(spec, splits, RpropConfig(), **kw)
        t2 = train_ensemble(spec, splits, RpropConfig(), **kw)
        for m1, m2 in zip(t1.model.members, t2.model.members):
            for w1, w2 in zip(m1.weights, m2.weights):
                assert np.array_equal(w1, w2)
        w0 = t1.model.members[0].weights[0]
        w1 = t1.model.members[1].weights[0]
        assert not np.array_equal(w0, w1)
        assert len(t1.member_results) == 3
        assert t1.stacker_result is None

    def test_seed_changes_everything(self):
        splits = toy_splits()
        spec = bagging_spec(size=2, epochs=1)
        a = train_ensemble(spec, splits, RpropConfig(), seed=1, batch_size=8)
        b = train_ensemble(spec, splits, RpropConfig(), seed=2, batch_size=8)
        assert not np.array_equal(a.model.members[0].weights[0],
                                  b.model.members[0].weights[0])

    def test_bagging_predictions_match_manual_aggregation(self):
        splits = toy_splits()
        spec = bagging_spec(size=2, epochs=2, aggregation="majority-vote")
        t = train_ensemble(spec, splits, RpropConfig(), seed=3, batch_size=8)
        probs = [predict_probabilities(m, splits.test.images)
                 for m in t.model.members]
        want = aggregate(probs, "majority-vote")
        assert np.array_equal(t.model.predict(splits.test.images), want)
        err = t.model.classification_error(splits.test)
        assert 0.0 <= err <= 1.0

    def test_stacking_trains_second_space_net(self):
        splits = toy_splits()
        spec = EnsembleSpec("stacking", 2, (16, 8, 10), 2)
        t = train_ensemble(spec, splits, RpropConfig(), seed=5, batch_size=8,
                           stacker_hidden=(8,), stacker_epoch_cap=2)
        assert t.model.stacker is not None
        assert t.stacker_result.best_params is t.model.stacker
        # nothing reads a trained network's final model or Rprop state
        for r in t.member_results + [t.stacker_result]:
            assert r.final_params is None and r.final_state is None
        # 2 members x 10 classes in, one hidden layer of 8, 10 out
        assert [w.shape for w in t.model.stacker.weights] == [(20, 8), (8, 10)]
        preds = t.model.predict(splits.test.images)
        assert preds.shape == (len(splits.test),)
        assert preds.min() >= 0 and preds.max() <= 9

    def test_stacker_dropout_matches_hand_built_training(self, monkeypatch):
        splits = toy_splits()
        spec = EnsembleSpec("stacking", 2, (16, 8, 10), 2)
        cfg = RpropConfig(delta_init=0.01)

        def build(rate):
            return train_ensemble(spec, splits, cfg, seed=6, batch_size=8,
                                  stacker_hidden=(8,), stacker_epoch_cap=3,
                                  stacker_dropout_hidden=rate,
                                  clock=counter_clock())

        trained = keep_train_results(monkeypatch)
        got = build(0.5)
        stacker = trained[-1]
        base = member_stream_base(spec.size)
        params = init_params(chain_specs((20, 8, 10)),
                             RngStream(6, base + STREAM_INIT))
        features = stack_features(
            got.model.member_probabilities(splits.validation))
        stack_data = Dataset(features, splits.validation.labels)
        want = train_model(params, stack_data, stack_data, "mod-rprop", cfg,
                           epoch_cap=3, batch_size=8, seed=6, stream_base=base,
                           dropout=DropoutSpec.for_sizes((20, 8, 10), 0.5, 0.0),
                           clock=counter_clock())
        assert result_arrays(stacker) == result_arrays(want)
        assert got.stacker_result.rows == want.rows
        assert got.stacker_result.best_params is stacker.best_params
        # the rate reaches training: without it the stacker trains otherwise
        build(0.0)
        assert result_arrays(trained[-1]) != result_arrays(stacker)

    def test_member_stream_bases_disjoint(self):
        bases = [member_stream_base(i) for i in range(4)]
        assert bases == [MEMBER_STREAM_STRIDE * k for k in (1, 2, 3, 4)]
        assert len(set(bases)) == 4


def copy_based_members(spec, splits, cfg, *, seed, batch_size, dropout):
    """Bagging members trained the way the index-based path must match:
    each on its own copied bootstrap resample."""
    results = []
    n = len(splits.train)
    for i in range(spec.size):
        base = member_stream_base(i)
        params = init_params(chain_specs(spec.member_sizes),
                             RngStream(seed, base + STREAM_INIT))
        idx = RngStream(seed, base + STREAM_RESAMPLE).integers(n, size=n)
        copied = Dataset(splits.train.images[idx], splits.train.labels[idx])
        results.append(train_model(
            params, copied, splits.validation, "mod-rprop", cfg,
            epoch_cap=spec.member_epoch_cap, batch_size=batch_size,
            seed=seed, stream_base=base, dropout=dropout,
            clock=counter_clock()))
    return results


def keep_train_results(monkeypatch):
    """A list that collects every TrainResult `train_ensemble` gets from
    `train_model`, copied before the ensemble drops its final params and
    Rprop state."""
    kept = []

    def train_and_keep(*args, **kwargs):
        result = train_model(*args, **kwargs)
        kept.append(dataclasses.replace(result))
        return result

    monkeypatch.setattr(ensemble, "train_model", train_and_keep)
    return kept


def result_arrays(res):
    state = res.final_state
    return [a.tobytes() for a in (
        res.best_params.weights + res.best_params.biases
        + res.final_params.weights + res.final_params.biases
        + state.delta_w + state.delta_b + state.prev_w + state.prev_b)]


class TestBaggingByIndex:
    @pytest.mark.parametrize("seed,batch_size,dropout", [
        (11, 10, None),
        (12, 7, DropoutSpec((0.0, 0.5))),
        (13, 48, DropoutSpec((0.2, 0.5))),
    ])
    def test_members_bit_equal_to_copied_resamples(self, seed, batch_size,
                                                   dropout, monkeypatch):
        splits = toy_splits(n_train=50)
        spec = bagging_spec(size=3, epochs=3)
        cfg = RpropConfig(delta_init=0.01)
        trained = keep_train_results(monkeypatch)
        got = train_ensemble(spec, splits, cfg, seed=seed,
                             batch_size=batch_size, member_dropout=dropout,
                             clock=counter_clock())
        ref = copy_based_members(spec, splits, cfg, seed=seed,
                                 batch_size=batch_size, dropout=dropout)
        for g, t, r in zip(got.member_results, trained, ref, strict=True):
            assert result_arrays(t) == result_arrays(r)
            assert g.rows == r.rows and g.best_epoch == r.best_epoch
            assert g.best_params is t.best_params

    def test_peak_memory_is_far_below_a_resampled_copy(self):
        # A copied resample of this training set is 12.5 MB; the network
        # (784-20-10) and a minibatch are tiny next to it.
        rng = np.random.default_rng(0)
        train = Dataset(rng.uniform(size=(2000, 784)),
                        rng.integers(10, size=2000))
        val = Dataset(train.images[:100].copy(), train.labels[:100].copy())
        spec = EnsembleSpec("bagging", 3, (784, 20, 10), 1)
        tracemalloc.start()
        try:
            train_ensemble(spec, DataSplits(train, val, val), RpropConfig(),
                           seed=1, batch_size=100,
                           member_dropout=DropoutSpec((0.0, 0.5)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < train.images.nbytes / 2, (peak, train.images.nbytes)

    def test_finished_members_keep_only_their_best_params(self):
        # 784-300-100-10 members: one model buffer is 2.13 MB. While the
        # last member trains, each finished member may hold one buffer
        # (its best_params), plus 0.5 MB for everything else. Keeping a
        # finished member's final params and Rprop state adds three
        # buffers each, and holding a member's initial params while
        # train_model steps its copy adds one more.
        rng = np.random.default_rng(0)
        splits = DataSplits(*(
            Dataset(rng.integers(0, 256, size=(n, 784), dtype=np.uint8),
                    rng.integers(10, size=n)) for n in (200, 100, 100)))
        spec = EnsembleSpec("bagging", 3, (784, 300, 100, 10), 1)
        dropout = DropoutSpec.for_sizes(spec.member_sizes, 0.5, 0.0)
        kw = dict(seed=1, batch_size=100)
        last = member_stream_base(spec.size - 1)
        params = init_params(chain_specs(spec.member_sizes),
                             RngStream(1, last + STREAM_INIT))
        rows = bootstrap_resample(200, RngStream(1, last + STREAM_RESAMPLE))
        member_peak = traced_peak(lambda: train_model(
            params, splits.train, splits.validation, "mod-rprop",
            RpropConfig(), epoch_cap=1, stream_base=last, dropout=dropout,
            rows=rows, **kw))
        ensemble_peak = traced_peak(lambda: train_ensemble(
            spec, splits, RpropConfig(), member_dropout=dropout, **kw))
        allowed = member_peak + (spec.size - 1) * params.flat.nbytes + 0.5e6
        assert ensemble_peak <= allowed, (ensemble_peak, member_peak)


class TestSaveLoad:
    def test_bagging_round_trip(self, tmp_path):
        splits = toy_splits()
        spec = bagging_spec(size=2, epochs=2)
        t = train_ensemble(spec, splits, RpropConfig(), seed=9, batch_size=8)
        manifest_path = save_ensemble(tmp_path, t, seed=9)
        assert manifest_path.name == MANIFEST_NAME

        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "bagging"
        assert manifest["size"] == 2
        assert manifest["member_sizes"] == [16, 8, 10]
        assert manifest["seed"] == 9
        assert manifest["member_stream_bases"] == [16, 32]
        assert manifest["stacker_checkpoint"] is None
        for name in manifest["member_checkpoints"]:
            assert (tmp_path / name).exists()

        model = load_ensemble(tmp_path)
        assert model.spec == spec
        assert np.array_equal(model.predict(splits.test.images),
                              t.model.predict(splits.test.images))

    def test_stacking_round_trip(self, tmp_path):
        splits = toy_splits()
        spec = EnsembleSpec("stacking", 2, (16, 8, 10), 2)
        t = train_ensemble(spec, splits, RpropConfig(), seed=4, batch_size=8,
                           stacker_hidden=(8,), stacker_epoch_cap=2)
        save_ensemble(tmp_path, t, seed=4)
        model = load_ensemble(tmp_path)
        assert model.stacker is not None
        assert np.array_equal(model.predict(splits.test.images),
                              t.model.predict(splits.test.images))

    def test_interrupted_manifest_save_keeps_the_earlier_one(self, tmp_path,
                                                              monkeypatch):
        t = train_ensemble(bagging_spec(size=1, epochs=1), toy_splits(),
                           RpropConfig(), seed=3, batch_size=8)
        path = save_ensemble(tmp_path, t, seed=3)
        before = path.read_bytes()
        fail_mid_write(monkeypatch, MANIFEST_NAME + ".tmp")
        with pytest.raises(OSError, match="No space"):
            save_ensemble(tmp_path, t, seed=4)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            MANIFEST_NAME, "member-00.ckpt"]

    @pytest.mark.parametrize("key", ["kind", "size", "member_sizes",
                                     "member_epoch_cap", "aggregation",
                                     "member_checkpoints"])
    def test_missing_manifest_key_is_a_value_error(self, tmp_path, key):
        t = train_ensemble(bagging_spec(size=1, epochs=1), toy_splits(),
                           RpropConfig(), seed=3, batch_size=8)
        path = save_ensemble(tmp_path, t, seed=3)
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            load_ensemble(tmp_path)

    def test_member_with_a_nan_is_a_value_error(self, tmp_path):
        t = train_ensemble(bagging_spec(size=2, epochs=1), toy_splits(),
                           RpropConfig(), seed=3, batch_size=8)
        save_ensemble(tmp_path, t, seed=3)
        params = t.model.members[1]
        params.biases[0][2] = np.nan
        save_checkpoint(tmp_path / "member-01.ckpt", params)
        with pytest.raises(ValueError, match="non-finite value in checkpoint "
                           r"section 'params' at layer 0 biases, index \(2,\)"):
            load_ensemble(tmp_path)
