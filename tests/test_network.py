import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resprop.dropout import DropoutMask, all_ones_mask
from resprop.gradcheck import finite_difference_gradients, gradient_check
from resprop.network import (
    LayerSpec,
    NetworkParams,
    backward,
    chain_specs,
    forward,
    init_params,
    nll_loss,
    softmax,
)
from resprop.tensor import RngStream


def small_net(sizes=(3, 4, 2), seed=11, activation="logistic"):
    return init_params(chain_specs(sizes, activation), RngStream(seed, 0))


class TestLayerSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            LayerSpec(0, 3)
        with pytest.raises(ValueError):
            LayerSpec(3, -1)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            LayerSpec(2, 2, "softplus")

    def test_chain_specs_shapes_and_activations(self):
        specs = chain_specs((784, 300, 100, 10), "rectifier")
        assert [(s.fan_in, s.fan_out) for s in specs] == \
               [(784, 300), (300, 100), (100, 10)]
        assert [s.activation for s in specs] == \
               ["rectifier", "rectifier", "identity"]

    def test_chain_needs_two_sizes(self):
        with pytest.raises(ValueError):
            chain_specs((5,))

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            NetworkParams(
                (LayerSpec(2, 3), LayerSpec(4, 2)),
                [np.zeros((2, 3)), np.zeros((4, 2))],
                [np.zeros(3), np.zeros(2)],
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weight shape"):
            NetworkParams((LayerSpec(2, 3),), [np.zeros((3, 2))], [np.zeros(3)])

    def test_layout_errors_name_the_layer(self):
        specs = (LayerSpec(2, 3), LayerSpec(3, 2))
        with pytest.raises(ValueError, match="bias shape \\(2,\\) at layer 1"):
            NetworkParams(specs, [np.zeros((2, 3)), np.zeros((3, 2))],
                          [np.zeros(3), np.zeros(3)])
        with pytest.raises(ValueError, match="1/2 weight/bias arrays for a "
                                             "2-layer network"):
            NetworkParams(specs, [np.zeros((2, 3))], [np.zeros(3), np.zeros(2)])


class TestInitParams:
    def test_deterministic(self):
        a = small_net(seed=5)
        b = small_net(seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert (wa == wb).all()

    def test_fan_in_rule_bounds(self):
        params = init_params(chain_specs((100, 50, 10)), RngStream(1, 0))
        for spec, w in zip(params.specs, params.weights):
            bound = 1.0 / math.sqrt(spec.fan_in)
            assert np.abs(w).max() <= bound

    def test_biases_start_zero(self):
        params = small_net()
        for b in params.biases:
            assert (b == 0.0).all()

    def test_fixed_range_rule(self):
        params = init_params(chain_specs((4, 3)), RngStream(1, 0),
                             "fixed-range:0.25")
        assert np.abs(params.weights[0]).max() <= 0.25

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="scale_rule"):
            init_params(chain_specs((4, 3)), RngStream(1, 0), "glorot")

    def test_num_parameters(self):
        params = init_params(chain_specs((784, 300, 100, 10)), RngStream(1, 0))
        assert params.num_parameters() == \
            784 * 300 + 300 + 300 * 100 + 100 + 100 * 10 + 10


class TestSoftmax:
    def test_rows_normalized(self):
        rng = RngStream(3, 0)
        z = rng.uniform(-5, 5, size=(20, 7)).reshape(20, 7)
        p = softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(z), softmax(z + 100.0), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[1e4, -1e4, 0.0], [-1e308, 0.0, 1e3]])
        p = softmax(z)
        assert np.isfinite(p).all()
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_known_values(self):
        p = softmax(np.array([[math.log(1.0), math.log(3.0)]]))
        assert p[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert p[0, 1] == pytest.approx(0.75, abs=1e-12)


class TestLoss:
    def test_hand_value_single_example(self):
        # two-class logits (1, 2): p(class 0) = 1/(1+e), loss = -log p
        p = softmax(np.array([[1.0, 2.0]]))
        loss = nll_loss(p, np.array([0]))
        assert loss == pytest.approx(1.3132616875182228, abs=1e-12)

    def test_perfect_prediction_zero_loss(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nll_loss(probs, np.array([0, 1])) == 0.0

    def test_floor_keeps_loss_finite(self):
        probs = np.array([[1.0, 0.0]])
        loss = nll_loss(probs, np.array([1]))
        assert loss == pytest.approx(-math.log(1e-300))
        assert np.isfinite(loss)

    def test_mean_over_batch(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = -(math.log(0.5) + math.log(0.75)) / 2.0
        assert nll_loss(probs, np.array([0, 1])) == pytest.approx(expected)

    def test_rejects_label_out_of_range(self):
        probs = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="labels"):
            nll_loss(probs, np.array([2]))

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="normalized"):
            nll_loss(np.array([[0.9, 0.3]]), np.array([0]))


class TestForward:
    def test_output_shape_and_normalization(self):
        params = small_net((5, 6, 3))
        x = RngStream(2, 0).uniform(0, 1, size=(9, 5)).reshape(9, 5)
        out = forward(params, x)
        assert out.probabilities.shape == (9, 3)
        assert np.allclose(out.probabilities.sum(axis=1), 1.0)

    def test_rejects_wrong_width(self):
        params = small_net((5, 6, 3))
        with pytest.raises(ValueError, match="width"):
            forward(params, np.zeros((2, 4)))

    def test_single_linear_layer_matches_manual_computation(self):
        params = NetworkParams(
            (LayerSpec(2, 2, "identity"),),
            [np.array([[1.0, 0.0], [0.0, 1.0]])],
            [np.array([0.5, -0.5])],
        )
        x = np.array([[2.0, 1.0]])
        out = forward(params, x)
        assert np.allclose(out.probabilities, softmax(np.array([[2.5, 0.5]])))

    def test_rectifier_blocks_negative_preactivations(self):
        params = NetworkParams(
            (LayerSpec(1, 1, "rectifier"), LayerSpec(1, 2, "identity")),
            [np.array([[1.0]]), np.array([[3.0, -3.0]])],
            [np.array([0.0]), np.array([0.0, 0.0])],
        )
        out = forward(params, np.array([[-2.0]]))
        # hidden rectifier clamps to 0, so logits are the output biases
        assert np.allclose(out.probabilities, [[0.5, 0.5]])

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_finite_on_finite_inputs(self, seed):
        rng = RngStream(seed, 0)
        params = init_params(chain_specs((4, 5, 3), "tanh"), rng)
        x = rng.uniform(-100, 100, size=(6, 4)).reshape(6, 4)
        out = forward(params, x)
        assert np.isfinite(out.probabilities).all()

    def test_mask_scaling_matches_manual(self):
        params = NetworkParams(
            (LayerSpec(2, 1, "identity"),),
            [np.array([[1.0], [1.0]])],
            [np.array([0.0])],
        )
        mask = DropoutMask([np.array([1.0, 0.0]), np.array([1.0])],
                           scales=[2.0, 1.0])
        out = forward(params, np.array([[3.0, 5.0]]), mask)
        # input node 1 muted, node 0 scaled by 2; single class
        assert out.layer_inputs[0].tolist() == [[6.0, 0.0]]
        assert out.probabilities.tolist() == [[1.0]]


class TestBackward:
    def test_output_layer_gradient_hand_oracle(self):
        # identity single layer, x = (1, 2), label 0, weights = I, b = 0:
        # p = softmax((1, 2)), dW = x^T (p - onehot), db = p - onehot
        params = NetworkParams(
            (LayerSpec(2, 2, "identity"),),
            [np.eye(2)],
            [np.zeros(2)],
        )
        x = np.array([[1.0, 2.0]])
        cache = forward(params, x)
        grads = backward(params, cache, np.array([0]))
        e = math.exp(1.0)
        p0 = 1.0 / (1.0 + e)
        expected_row = np.array([p0 - 1.0, 1.0 - p0])
        assert np.allclose(grads.biases[0], expected_row, atol=1e-15)
        assert np.allclose(grads.weights[0][0], expected_row, atol=1e-15)
        assert np.allclose(grads.weights[0][1], 2.0 * expected_row, atol=1e-15)

    def test_small_net_matches_finite_differences(self):
        # 3-4-2 net, batch of 5
        params = small_net((3, 4, 2), seed=11)
        rng = RngStream(13, 0)
        x = rng.uniform(0, 1, size=(5, 3)).reshape(5, 3)
        labels = rng.integers(2, size=5)
        report = gradient_check(params, x, labels)
        assert report.max_rel_err < 1e-6

    def test_rectifier_net_matches_finite_differences(self):
        params = small_net((4, 6, 5, 3), seed=3, activation="rectifier")
        rng = RngStream(17, 0)
        x = rng.uniform(0, 1, size=(6, 4)).reshape(6, 4)
        labels = rng.integers(3, size=6)
        report = gradient_check(params, x, labels)
        assert report.max_rel_err < 1e-4
        assert report.frac_within_tol >= 0.99

    def test_masked_gradients_match_finite_differences(self):
        params = small_net((4, 5, 3), seed=8, activation="tanh")
        mask = DropoutMask(
            [np.array([1, 1, 0, 1]), np.array([1, 0, 1, 1, 0]),
             np.ones(3)],
            scales=[1.25, 2.0, 1.0],
        )
        rng = RngStream(19, 0)
        x = rng.uniform(0, 1, size=(5, 4)).reshape(5, 4)
        labels = rng.integers(3, size=5)
        report = gradient_check(params, x, labels, mask=mask)
        assert report.max_rel_err < 1e-6

    def test_muted_node_zeroes_incident_weight_gradients(self):
        params = small_net((3, 4, 2), seed=21)
        muted = 2
        hidden = np.ones(4)
        hidden[muted] = 0.0
        mask = DropoutMask([np.ones(3), hidden, np.ones(2)],
                           scales=[1.0, 2.0, 1.0])
        rng = RngStream(23, 0)
        x = rng.uniform(0, 1, size=(6, 3)).reshape(6, 3)
        labels = rng.integers(2, size=6)
        cache = forward(params, x, mask)
        grads = backward(params, cache, labels)
        assert (grads.weights[0][:, muted] == 0.0).all()
        assert grads.biases[0][muted] == 0.0
        assert (grads.weights[1][muted, :] == 0.0).all()
        # the other columns are generically nonzero
        live = [i for i in range(4) if i != muted]
        assert np.abs(grads.weights[0][:, live]).max() > 0

    def test_all_ones_mask_matches_no_mask(self):
        params = small_net((3, 4, 2), seed=2)
        x = RngStream(1, 0).uniform(0, 1, size=(5, 3)).reshape(5, 3)
        labels = np.array([0, 1, 0, 1, 1])
        plain_cache = forward(params, x)
        masked_cache = forward(params, x, all_ones_mask(params.specs))
        assert (plain_cache.probabilities == masked_cache.probabilities).all()
        g0 = backward(params, plain_cache, labels)
        g1 = backward(params, masked_cache, labels)
        for a, b in zip(g0.weights, g1.weights):
            assert (a == b).all()

    def test_stale_cache_rejected(self):
        params = small_net((3, 4, 2))
        other = small_net((3, 4, 2), seed=99)
        x = np.zeros((2, 3))
        cache = forward(params, x)
        with pytest.raises(ValueError, match="different parameters"):
            backward(other, cache, np.array([0, 1]))

    def test_gradient_scale_independent_of_batch_size(self):
        # duplicating the batch leaves mean gradients unchanged
        params = small_net((3, 4, 2), seed=4)
        x = RngStream(6, 0).uniform(0, 1, size=(3, 3)).reshape(3, 3)
        labels = np.array([0, 1, 1])
        g1 = backward(params, forward(params, x), labels)
        x2 = np.vstack([x, x])
        labels2 = np.concatenate([labels, labels])
        g2 = backward(params, forward(params, x2), labels2)
        for a, b in zip(g1.weights, g2.weights):
            assert np.allclose(a, b, atol=1e-15)


class TestFiniteDifferences:
    def test_rejects_nonpositive_step(self):
        params = small_net((2, 2))
        with pytest.raises(ValueError):
            finite_difference_gradients(params, np.zeros((1, 2)),
                                        np.array([0]), h=0.0)

    def test_gradcheck_flags_a_wrong_gradient(self):
        # corrupting the analytic gradient must blow up the report;
        # checked indirectly: FD of a linear one-layer net is exact
        params = NetworkParams(
            (LayerSpec(2, 2, "identity"),), [np.eye(2)], [np.zeros(2)])
        x = np.array([[1.0, 2.0]])
        labels = np.array([0])
        fd = finite_difference_gradients(params, x, labels)
        cache = forward(params, x)
        analytic = backward(params, cache, labels)
        wrong = analytic.weights[0] + 0.05
        rel = np.abs(wrong - fd.weights[0])
        assert rel.max() > 0.04
