"""The network passes and mask sampling against their loop references.

The reference functions below are the straightforward versions the
in-place passes, the cache-free `probabilities` and the block mask
draws replaced. The arithmetic order is unchanged, so every result must
match byte for byte, signed zeros included.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resprop import training
from resprop.data import Dataset
from resprop.dropout import DropoutMask, DropoutSpec, sample_mask, sample_masks
from resprop.network import (
    LayerSpec,
    NetworkParams,
    backward,
    forward,
    probabilities,
)
from resprop.optimizers import RpropConfig
from resprop.tensor import RngStream
from resprop.training import EVAL_BATCH, predict_probabilities


# ---- references ------------------------------------------------------

def _ref_logistic(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_logistic_deriv(z):
    s = _ref_logistic(z)
    return s * (1.0 - s)


REF_ACT = {
    "rectifier": (lambda z: np.maximum(z, 0.0),
                  lambda z: (z > 0.0).astype(np.float64)),
    "logistic": (_ref_logistic, _ref_logistic_deriv),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
}


class ReferencePass(NamedTuple):
    """What `reference_forward` computes, pre-activations included."""

    params: NetworkParams
    mask: object
    layer_inputs: list
    pre_activations: list
    probabilities: np.ndarray

    @property
    def batch_size(self):
        return self.probabilities.shape[0]


def reference_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_forward(params, x, mask=None):
    x = np.asarray(x, dtype=np.float64)
    if mask is not None:
        a = x * (mask.node_masks[0] * mask.scales[0])
    else:
        a = x
    layer_inputs = [a]
    pre_activations = []
    n_layers = params.num_layers
    for l in range(n_layers):
        z = a @ params.weights[l] + params.biases[l]
        pre_activations.append(z)
        act, _ = REF_ACT[params.specs[l].activation]
        h = act(z)
        if l < n_layers - 1:
            if mask is not None:
                h = h * (mask.node_masks[l + 1] * mask.scales[l + 1])
            a = h
            layer_inputs.append(a)
        else:
            probs = reference_softmax(h)
    return ReferencePass(params, mask, layer_inputs, pre_activations, probs)


def reference_backward(params, cache, labels):
    mask = cache.mask
    n = cache.batch_size
    d_out = cache.probabilities.copy()
    d_out[np.arange(n), labels] -= 1.0
    d_out /= n
    n_layers = params.num_layers
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    _, dact = REF_ACT[params.specs[-1].activation]
    dz = d_out * dact(cache.pre_activations[-1])
    for l in range(n_layers - 1, -1, -1):
        grads_w[l] = cache.layer_inputs[l].T @ dz
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            da = dz @ params.weights[l].T
            if mask is not None:
                da = da * (mask.node_masks[l] * mask.scales[l])
            _, dact = REF_ACT[params.specs[l - 1].activation]
            dz = da * dact(cache.pre_activations[l - 1])
    return NetworkParams(params.specs, grads_w, grads_b)


def reference_predict_probabilities(params, images, batch_size=EVAL_BATCH):
    images = np.asarray(images, dtype=np.float64)
    if len(images) == 0:
        return np.zeros((0, params.num_classes))
    outs = [reference_forward(params, images[lo:lo + batch_size]).probabilities
            for lo in range(0, len(images), batch_size)]
    return np.concatenate(outs, axis=0)


def reference_sample_mask(spec, specs, rng):
    sizes = [specs[0].fan_in] + [s.fan_out for s in specs]
    node_masks, scales = [], []
    for rate, n in zip(spec.rates, sizes[:-1]):
        u = rng.uniform(size=n)
        node_masks.append((u >= rate).astype(np.float64))
        scales.append(1.0 / (1.0 - rate))
    node_masks.append(np.ones(sizes[-1]))
    scales.append(1.0)
    return DropoutMask(node_masks, scales)


# ---- helpers ---------------------------------------------------------

def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert same_bytes(g, w)


def frozen(a):
    """A read-only copy: any write into it raises."""
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def with_exact_zeros(values, rng, frac=0.2):
    """`values` with a share of entries set to +0.0 or -0.0."""
    u = rng.uniform(size=values.size).reshape(values.shape)
    out = values.copy()
    out[u < frac / 2] = 0.0
    out[(u >= frac / 2) & (u < frac)] = -0.0
    return out


def random_net(rng, widths, activation):
    specs = [LayerSpec(a, b, activation if i < len(widths) - 2 else "identity")
             for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    weights = [with_exact_zeros(rng.uniform(-1.5, 1.5, size=(s.fan_in, s.fan_out)),
                                rng) for s in specs]
    biases = [with_exact_zeros(rng.uniform(-0.5, 0.5, size=s.fan_out), rng)
              for s in specs]
    return NetworkParams(tuple(specs), weights, biases)


def random_mask(rng, widths, kind):
    """None, a sampled-style mask, or a directly built one that may mute
    output nodes and scale the input."""
    if kind == "none":
        return None
    if kind == "all-live":
        return DropoutMask([np.ones(w) for w in widths])
    masks = [(rng.uniform(size=w) >= 0.4).astype(np.float64) for w in widths]
    if kind == "thin":  # every layer at scale 1, inputs and outputs muted too
        return DropoutMask(masks)
    if kind == "hidden":  # input all live at scale 1, outputs all live
        masks[0][:] = 1.0
        masks[-1][:] = 1.0
        scales = [1.0] + [2.0] * (len(widths) - 2) + [1.0]
    else:  # "direct": input dropout, muted outputs, assorted scales
        scales = [1.25] + [float(s) for s in rng.uniform(0.5, 3.0,
                                                         size=len(widths) - 1)]
    return DropoutMask(masks, scales)


def cache_arrays(cache):
    return cache.layer_inputs + [cache.probabilities]


def forward_arrays(cache):
    """Every array a `forward` result holds."""
    return cache_arrays(cache) + [d for d in cache.derivatives if d is not None]


def assert_same_derivatives(got, want):
    """Each cached factor is REF_ACT's derivative of the reference
    pre-activation: bool for the rectifier, absent for identity."""
    assert len(got.derivatives) == len(want.pre_activations)
    for spec, d, z in zip(got.params.specs, got.derivatives,
                          want.pre_activations):
        if spec.activation == "identity":
            assert d is None
            continue
        if spec.activation == "rectifier":
            assert d.dtype == np.bool_
            d = d.astype(np.float64)
        assert same_bytes(d, REF_ACT[spec.activation][1](z))


net_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "widths": st.lists(st.integers(1, 6), min_size=2, max_size=5),
    "activation": st.sampled_from(["rectifier", "logistic", "tanh"]),
    "batch": st.sampled_from([1, 7, 1024, 1025, 2500]),
    "mask": st.sampled_from(["none", "all-live", "thin", "hidden", "direct"]),
})


# ---- network passes --------------------------------------------------

class TestPassesMatchReference:
    @given(net_cases)
    @settings(max_examples=80, deadline=None)
    def test_forward_backward_and_probabilities_byte_equal(self, case):
        rng = RngStream(case["seed"], 0)
        widths = case["widths"]
        params = random_net(rng, widths, case["activation"])
        n = case["batch"]
        x = frozen(with_exact_zeros(
            rng.uniform(-2.0, 2.0, size=(n, widths[0])), rng))
        labels = rng.integers(widths[-1], size=n)
        mask = random_mask(rng, widths, case["mask"])

        want = reference_forward(params, x, mask)
        got = forward(params, x, mask)
        assert_same_arrays(cache_arrays(got), cache_arrays(want))
        assert_same_derivatives(got, want)

        want_g = reference_backward(params, want, labels)
        got_g = backward(params, got, labels)
        assert_same_arrays(got_g.weights, want_g.weights)
        assert_same_arrays(got_g.biases, want_g.biases)

        if mask is None:
            assert same_bytes(probabilities(params, x), want.probabilities)
        for batch_size in (EVAL_BATCH, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(training, "EVAL_BATCH", batch_size)
                assert same_bytes(predict_probabilities(params, x),
                                  reference_predict_probabilities(params, x,
                                                                  batch_size))

    @pytest.mark.parametrize("output", ["identity", "rectifier", "tanh"])
    def test_any_output_activation(self, output):
        rng = RngStream(5, 0)
        specs = (LayerSpec(4, 5, "logistic"), LayerSpec(5, 3, output))
        params = NetworkParams(specs, [rng.uniform(-2, 2, size=(4, 5)),
                                       rng.uniform(-2, 2, size=(5, 3))],
                               [rng.uniform(-1, 1, size=5),
                                rng.uniform(-1, 1, size=3)])
        x = frozen(rng.uniform(-3, 3, size=(9, 4)))
        labels = rng.integers(3, size=9)
        want = reference_forward(params, x)
        got = forward(params, x)
        assert_same_arrays(cache_arrays(got), cache_arrays(want))
        assert_same_derivatives(got, want)
        assert same_bytes(probabilities(params, x), want.probabilities)
        assert_same_arrays(backward(params, got, labels).weights,
                           reference_backward(params, want, labels).weights)

    def test_identity_hidden_layer_under_a_mask(self):
        rng = RngStream(8, 0)
        specs = (LayerSpec(3, 4, "identity"), LayerSpec(4, 2, "identity"))
        params = NetworkParams(specs, [rng.uniform(-1, 1, size=(3, 4)),
                                       rng.uniform(-1, 1, size=(4, 2))],
                               [np.zeros(4), np.zeros(2)])
        mask = DropoutMask([np.ones(3), np.array([1.0, 0.0, 1.0, 0.0]),
                            np.ones(2)], scales=[1.0, 2.0, 1.0])
        x = frozen(rng.uniform(size=(5, 3)))
        labels = rng.integers(2, size=5)
        want = reference_forward(params, x, mask)
        got = forward(params, x, mask)
        assert_same_arrays(cache_arrays(got), cache_arrays(want))
        assert got.derivatives == [None, None]
        got_g = backward(params, got, labels)
        want_g = reference_backward(params, want, labels)
        assert_same_arrays(got_g.weights + got_g.biases,
                           want_g.weights + want_g.biases)

    def test_rectifier_caches_a_bool_factor_and_no_pre_activation(self):
        rng = RngStream(9, 0)
        widths = [7, 6, 5, 3]
        params = random_net(rng, widths, "rectifier")
        x = frozen(rng.uniform(-2.0, 2.0, size=(11, 7)))
        got = forward(params, x, random_mask(rng, widths, "hidden"))
        assert [d.dtype for d in got.derivatives[:-1]] == [np.bool_] * 2
        for l, width in enumerate(widths[1:-1]):
            kept = [a for a in forward_arrays(got)
                    if a.dtype == np.float64 and a.shape == (11, width)]
            assert len(kept) == 1 and kept[0] is got.layer_inputs[l + 1]


class TestCachesAreNotReused:
    def test_forward_pass_unchanged_by_later_calls(self):
        rng = RngStream(3, 0)
        widths = [6, 5, 4, 3]
        params = random_net(rng, widths, "rectifier")
        x = frozen(rng.uniform(size=(11, 6)))
        labels = rng.integers(3, size=11)
        mask = random_mask(rng, widths, "hidden")
        first = forward(params, x, mask)
        grads = backward(params, first, labels)
        # taken after `backward`, which consumes its own cache on purpose
        snapshot = [a.copy() for a in forward_arrays(first)]
        grad_snapshot = [g.copy() for g in grads.weights + grads.biases]
        for later_mask in (None, mask, random_mask(rng, widths, "direct")):
            later = forward(params, x, later_mask)
            backward(params, later, labels)
        predict_probabilities(params, x)
        probabilities(params, x)
        assert_same_arrays(forward_arrays(first), snapshot)
        assert_same_arrays(grads.weights + grads.biases, grad_snapshot)

    @pytest.mark.parametrize("kind", ["none", "hidden", "direct"])
    def test_backward_consumes_its_cache(self, kind):
        # deltas overwrite the probabilities and hidden layer inputs;
        # the input and the derivative factors stay as forward left them
        rng = RngStream(5, 0)
        widths = [6, 5, 4, 3]
        params = random_net(rng, widths, "tanh")
        x = frozen(rng.uniform(size=(11, 6)))
        labels = rng.integers(3, size=11)
        cache = forward(params, x, random_mask(rng, widths, kind))
        written = cache.layer_inputs[1:] + [cache.probabilities]
        kept = [cache.layer_inputs[0]] + cache.derivatives[:-1]
        written_before = [a.copy() for a in written]
        kept_before = [a.copy() for a in kept]
        with pytest.raises(ValueError, match="does not match batch"):
            backward(params, cache, labels[:5])
        assert not cache.consumed  # a refused call writes nothing
        backward(params, cache, labels)
        assert cache.consumed and cache.batch_size == 11
        for a, before in zip(written, written_before):
            assert not same_bytes(a, before)
        assert_same_arrays(cache.layer_inputs[1:] + [cache.probabilities],
                           written)
        assert_same_arrays(kept, kept_before)
        with pytest.raises(ValueError, match="consumed"):
            backward(params, cache, labels)

    def test_input_is_never_written(self, monkeypatch):
        # read-only inputs raise on any write; the passes must not need one
        rng = RngStream(4, 0)
        params = random_net(rng, [5, 4, 3], "tanh")
        x = frozen(rng.uniform(size=(6, 5)))
        for mask in (None, random_mask(rng, [5, 4, 3], "hidden"),
                     random_mask(rng, [5, 4, 3], "direct")):
            backward(params, forward(params, x, mask), np.zeros(6, dtype=int))
        probabilities(params, x)
        monkeypatch.setattr(training, "EVAL_BATCH", 4)
        predict_probabilities(params, x)


# ---- mask sampling ---------------------------------------------------

SPECS = (LayerSpec(7, 5), LayerSpec(5, 4), LayerSpec(4, 3, "identity"))


def assert_same_mask(got, want):
    assert_same_arrays(got.node_masks, want.node_masks)
    assert got.scales == want.scales


class TestBlockMaskDraws:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40),
           st.sampled_from([(0.0, 0.5, 0.5), (0.2, 0.5, 0.25), (0.0, 0.0, 0.9)]))
    @settings(max_examples=40, deadline=None)
    def test_equal_to_successive_single_draws(self, seed, count, rates):
        spec = DropoutSpec(rates)
        got_rng, want_rng = RngStream(seed, 2), RngStream(seed, 2)
        got = sample_masks(spec, SPECS, got_rng, count)
        want = [reference_sample_mask(spec, SPECS, want_rng) for _ in range(count)]
        assert len(got) == count
        for g, w in zip(got, want):
            assert_same_mask(g, w)
        assert got_rng.position == want_rng.position
        assert got_rng.uniform() == want_rng.uniform()

    def test_sample_mask_is_the_count_one_case(self):
        spec = DropoutSpec((0.1, 0.5, 0.5))
        a, b = RngStream(9, 2), RngStream(9, 2)
        for _ in range(3):
            assert_same_mask(sample_mask(spec, SPECS, a),
                             reference_sample_mask(spec, SPECS, b))
        assert a.position == b.position == 3 * 16

    def test_sampled_masks_are_read_only(self):
        mask = sample_masks(DropoutSpec((0.0, 0.5, 0.5)), SPECS,
                            RngStream(1, 2), 2)[1]
        with pytest.raises(ValueError):
            mask.node_masks[1][0] = 0.5

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="count"):
            sample_masks(DropoutSpec((0.0, 0.5, 0.5)), SPECS, RngStream(1, 2), -1)

    @pytest.mark.parametrize("chunk_draws", [1, 16, 47, 48, 49, 10**6])
    def test_training_masks_across_chunk_boundaries(self, monkeypatch,
                                                    chunk_draws):
        # 16 maskable nodes: blocks of 1, 1, 2, 3, 3 and all 25 masks
        monkeypatch.setattr(training, "MASK_CHUNK_DRAWS", chunk_draws)
        spec = DropoutSpec((0.2, 0.5, 0.5))
        got_rng, want_rng = RngStream(21, 2), RngStream(21, 2)
        got = list(training._training_masks(spec, SPECS, got_rng, 25))
        assert len(got) == 25
        for g in got:
            assert_same_mask(g, reference_sample_mask(spec, SPECS, want_rng))
        assert got_rng.position == want_rng.position

    def test_training_is_independent_of_the_chunk_size(self, monkeypatch):
        rng = RngStream(30, 0)
        train_set = Dataset(rng.uniform(size=(90, 7)),
                                     rng.integers(3, size=90))
        val_set = Dataset(rng.uniform(size=(30, 7)),
                                   rng.integers(3, size=30))
        params = random_net(RngStream(31, 0), [7, 5, 4, 3], "rectifier")
        cfg = RpropConfig(delta_init=0.05)

        def run():
            return training.train_model(
                params, train_set, val_set, "mod-rprop", cfg, epoch_cap=3,
                batch_size=8, seed=2, dropout=DropoutSpec((0.2, 0.5, 0.5)),
                clock=training.counter_clock())

        default = run()
        monkeypatch.setattr(training, "MASK_CHUNK_DRAWS", 40)  # 2 per block
        chunked = run()
        assert default.rows == chunked.rows
        assert_same_arrays(chunked.final_params.weights,
                           default.final_params.weights)
        assert_same_arrays(chunked.final_state.delta_w,
                           default.final_state.delta_w)
