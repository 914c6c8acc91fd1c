import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resprop import optimizers
from resprop.dropout import DropoutMask, all_ones_mask
from resprop.network import Gradients, LayerSpec, NetworkParams, chain_specs, init_params
from resprop.optimizers import (
    RpropConfig,
    RpropState,
    SgdConfig,
    dropout_rprop_step,
    init_rprop_state,
    rprop_step,
    sgd_step,
)
from resprop.tensor import RngStream

CLASSIC = RpropConfig(eta_plus=1.2, eta_minus=0.5, delta_max=50.0,
                      delta_min=1e-6, delta_init=0.1)


def one_weight_net(w=0.0):
    return NetworkParams((LayerSpec(1, 1, "identity"),),
                         [np.array([[float(w)]])], [np.zeros(1)])


def one_weight_state(delta, prev):
    return RpropState([np.array([[float(delta)]])], [np.full(1, CLASSIC.delta_init)],
                      [np.array([[float(prev)]])], [np.zeros(1)])


def one_weight_grads(g):
    return Gradients([np.array([[float(g)]])], [np.zeros(1)])


def one_weight_mask(live: bool):
    # muting the input node kills the single weight but not the bias
    return DropoutMask([np.array([1.0 if live else 0.0]), np.ones(1)])


def w_of(params):
    return params.weights[0][0, 0]


class TestConfigs:
    def test_sgd_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.0)

    def test_rprop_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            RpropConfig(eta_plus=-1.0)
        with pytest.raises(ValueError):
            RpropConfig(delta_min=0.0)

    def test_rprop_rejects_bad_ordering(self):
        with pytest.raises(ValueError, match="delta_min <= delta_init"):
            RpropConfig(delta_init=100.0)
        with pytest.raises(ValueError, match="delta_min <= delta_init"):
            RpropConfig(delta_init=1e-9)

    def test_unconventional_multipliers_warn_but_pass(self, caplog):
        with caplog.at_level(logging.WARNING):
            cfg = RpropConfig(eta_plus=0.01, eta_minus=0.1, delta_max=5.0,
                              delta_min=1e-3, delta_init=1e-2)
        assert cfg.eta_plus == 0.01
        assert any("unconventional" in r.message for r in caplog.records)

    def test_classic_defaults(self):
        cfg = RpropConfig()
        assert (cfg.eta_plus, cfg.eta_minus, cfg.delta_max, cfg.delta_min) == \
               (1.2, 0.5, 50.0, 1e-6)


class TestInitState:
    def test_constant_fill(self):
        params = init_params(chain_specs((3, 4, 2)), RngStream(1, 0))
        state = init_rprop_state(params, RpropConfig(delta_init=0.01))
        for d in state.delta_w + state.delta_b:
            assert (d == 0.01).all()
        for p in state.prev_w + state.prev_b:
            assert (p == 0.0).all()

    def test_shapes_mirror_params(self):
        params = init_params(chain_specs((5, 4, 3, 2)), RngStream(1, 0))
        state = init_rprop_state(params, CLASSIC)
        for w, d, p in zip(params.weights, state.delta_w, state.prev_w):
            assert d.shape == w.shape == p.shape

    def test_first_step_moves_by_delta_init_or_zero(self):
        params = init_params(chain_specs((3, 4, 2)), RngStream(2, 0))
        cfg = RpropConfig(delta_init=0.05)
        state = init_rprop_state(params, cfg)
        rng = RngStream(3, 0)
        grads = Gradients(
            [rng.uniform(-1, 1, size=w.shape).reshape(w.shape)
             for w in params.weights],
            [rng.uniform(-1, 1, size=b.shape) for b in params.biases],
        )
        new_params, _ = rprop_step(params, grads, state, cfg)
        for w0, w1, g in zip(params.weights, new_params.weights, grads.weights):
            moves = np.abs(w1 - w0)
            near = np.abs(moves - 0.05) < 1e-12
            assert np.all(near | (moves == 0.0))
            assert np.all((moves == 0.0) == (g == 0.0))


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        params = init_params(chain_specs((3, 4, 2)), RngStream(1, 0))
        grads = Gradients([np.zeros_like(w) for w in params.weights],
                          [np.zeros_like(b) for b in params.biases])
        out = sgd_step(params, grads, SgdConfig(0.1))
        for a, b in zip(out.weights, params.weights):
            assert (a == b).all()

    def test_hand_arithmetic(self):
        params = one_weight_net(w=1.0)
        out = sgd_step(params, one_weight_grads(0.5), SgdConfig(0.1))
        assert w_of(out) == pytest.approx(0.95, abs=1e-15)

    def test_two_steps_equal_one_at_double_rate(self):
        params = one_weight_net(w=1.0)
        g = one_weight_grads(0.3)
        twice = sgd_step(sgd_step(params, g, SgdConfig(0.1)), g, SgdConfig(0.1))
        once = sgd_step(params, g, SgdConfig(0.2))
        assert w_of(twice) == pytest.approx(w_of(once), abs=1e-15)

    def test_rejects_nonfinite_gradient_with_location(self):
        params = init_params(chain_specs((2, 3)), RngStream(1, 0))
        gw = np.zeros((2, 3))
        gw[1, 2] = np.nan
        grads = Gradients([gw], [np.zeros(3)])
        with pytest.raises(ValueError, match=r"layer 0 weights, index \(1, 2\)"):
            sgd_step(params, grads, SgdConfig(0.1))

    def test_rejects_shape_mismatch(self):
        params = init_params(chain_specs((2, 3)), RngStream(1, 0))
        grads = Gradients([np.zeros((3, 2))], [np.zeros(3)])
        with pytest.raises(ValueError, match="do not match"):
            sgd_step(params, grads, SgdConfig(0.1))


class TestRpropStepTraces:
    """Hand-executed single-weight transitions, one per branch."""

    def test_same_sign_grows_step_and_moves(self):
        # prev 0.2, g 0.1, delta 0.5: delta' 0.6, move -0.6, store g
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.5, prev=0.2)
        new_params, new_state = rprop_step(params, one_weight_grads(0.1),
                                           state, CLASSIC)
        assert new_state.delta_w[0][0, 0] == pytest.approx(0.6, abs=1e-15)
        assert w_of(new_params) == pytest.approx(0.4, abs=1e-15)
        assert new_state.prev_w[0][0, 0] == 0.1

    def test_sign_change_shrinks_holds_and_clears(self):
        # prev 0.2, g -0.1, delta 0.5: delta' 0.25, w unchanged, prev 0
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.5, prev=0.2)
        new_params, new_state = rprop_step(params, one_weight_grads(-0.1),
                                           state, CLASSIC)
        assert new_state.delta_w[0][0, 0] == pytest.approx(0.25, abs=1e-15)
        assert w_of(new_params) == 1.0
        assert new_state.prev_w[0][0, 0] == 0.0

    def test_zero_product_moves_without_adapting(self):
        # prev 0, g -0.3, delta 0.25: move +0.25, delta unchanged
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.25, prev=0.0)
        new_params, new_state = rprop_step(params, one_weight_grads(-0.3),
                                           state, CLASSIC)
        assert w_of(new_params) == pytest.approx(1.25, abs=1e-15)
        assert new_state.delta_w[0][0, 0] == 0.25
        assert new_state.prev_w[0][0, 0] == -0.3

    def test_growth_clamps_at_delta_max(self):
        # delta 45 growing by 1.2 clamps at 50
        params = one_weight_net(w=0.0)
        state = one_weight_state(delta=45.0, prev=1.0)
        _, new_state = rprop_step(params, one_weight_grads(1.0), state, CLASSIC)
        assert new_state.delta_w[0][0, 0] == 50.0

    def test_shrink_clamps_at_delta_min(self):
        cfg = RpropConfig(delta_min=0.2, delta_init=0.3)
        params = one_weight_net(w=0.0)
        state = one_weight_state(delta=0.3, prev=1.0)
        _, new_state = rprop_step(params, one_weight_grads(-1.0), state, cfg)
        assert new_state.delta_w[0][0, 0] == 0.2

    def test_no_double_punishment_followup(self):
        # after a sign change the cleared prev forces the zero-product
        # path: the weight moves and delta stays put even though the
        # new gradient still opposes the pre-flip direction
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.5, prev=0.2)
        params, state = rprop_step(params, one_weight_grads(-0.1), state, CLASSIC)
        w_before = w_of(params)
        params, state = rprop_step(params, one_weight_grads(-0.1), state, CLASSIC)
        assert state.delta_w[0][0, 0] == pytest.approx(0.25, abs=1e-15)
        assert w_of(params) == pytest.approx(w_before + 0.25, abs=1e-15)

    def test_genuine_zero_gradient_keeps_weight_and_clears_prev(self):
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.5, prev=0.2)
        new_params, new_state = rprop_step(params, one_weight_grads(0.0),
                                           state, CLASSIC)
        assert w_of(new_params) == 1.0
        assert new_state.prev_w[0][0, 0] == 0.0
        assert new_state.delta_w[0][0, 0] == 0.5


class TestDropoutRpropTraces:
    def test_masked_weight_fully_frozen(self):
        # Dm = 0: weight, delta and stored gradient all untouched
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.3, prev=0.7)
        new_params, new_state = dropout_rprop_step(
            params, one_weight_grads(0.9), state, CLASSIC, one_weight_mask(False))
        assert w_of(new_params) == 1.0
        assert new_state.delta_w[0][0, 0] == 0.3
        assert new_state.prev_w[0][0, 0] == 0.7

    def test_live_zero_product_fresh_prev_moves(self):
        # Dm = 1, prev 0, g 0.4, delta 0.2: move -0.2, store 0.4
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.2, prev=0.0)
        new_params, new_state = dropout_rprop_step(
            params, one_weight_grads(0.4), state, CLASSIC, one_weight_mask(True))
        assert w_of(new_params) == pytest.approx(0.8, abs=1e-15)
        assert new_state.prev_w[0][0, 0] == 0.4

    def test_live_genuine_zero_holds_everything(self):
        # Dm = 1, prev 0.4, g = 0: no move, delta unchanged
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.2, prev=0.4)
        new_params, new_state = dropout_rprop_step(
            params, one_weight_grads(0.0), state, CLASSIC, one_weight_mask(True))
        assert w_of(new_params) == 1.0
        assert new_state.delta_w[0][0, 0] == 0.2
        assert new_state.prev_w[0][0, 0] == 0.4

    def test_live_same_sign_and_sign_change_match_classic(self):
        for g in (0.1, -0.1):
            params = one_weight_net(w=1.0)
            state = one_weight_state(delta=0.5, prev=0.2)
            classic_params, classic_state = rprop_step(
                params, one_weight_grads(g), state, CLASSIC)
            masked_params, masked_state = dropout_rprop_step(
                params, one_weight_grads(g), one_weight_state(0.5, 0.2),
                CLASSIC, one_weight_mask(True))
            assert w_of(masked_params) == w_of(classic_params)
            assert masked_state.delta_w[0][0, 0] == classic_state.delta_w[0][0, 0]
            assert masked_state.prev_w[0][0, 0] == classic_state.prev_w[0][0, 0]

    def test_missing_mask_rejected(self):
        params = one_weight_net(w=1.0)
        state = one_weight_state(delta=0.2, prev=0.0)
        with pytest.raises(ValueError, match="mask"):
            dropout_rprop_step(params, one_weight_grads(0.1), state,
                               CLASSIC, None)


class TestZeroGradientCauses:
    """The three distinct zero situations drive different transitions."""

    def test_backtracking_zero_then_move(self):
        # cause 1: the cleared prev after a flip is deliberate; the next
        # step moves without adapting, in both kernels
        for step in (rprop_step,
                     lambda p, g, s, c: dropout_rprop_step(
                         p, g, s, c, one_weight_mask(True))):
            params = one_weight_net(w=1.0)
            state = one_weight_state(delta=0.5, prev=0.2)
            params, state = step(params, one_weight_grads(-0.1), state, CLASSIC)
            assert state.prev_w[0][0, 0] == 0.0
            params, state = step(params, one_weight_grads(-0.2), state, CLASSIC)
            assert w_of(params) == pytest.approx(1.25, abs=1e-15)
            assert state.delta_w[0][0, 0] == 0.25

    def test_muted_weight_keeps_sign_memory_unlike_classic(self):
        # cause 2: a muted weight reports gradient 0; the classic kernel
        # wipes its sign memory, the dropout-aware kernel keeps it, so
        # after unmuting only the latter takes the same-sign growth path
        start_state = lambda: one_weight_state(delta=0.5, prev=0.2)
        params = one_weight_net(w=1.0)

        c_params, c_state = rprop_step(params, one_weight_grads(0.0),
                                       start_state(), CLASSIC)
        d_params, d_state = dropout_rprop_step(params, one_weight_grads(0.0),
                                               start_state(), CLASSIC,
                                               one_weight_mask(False))
        assert c_state.prev_w[0][0, 0] == 0.0   # memory lost
        assert d_state.prev_w[0][0, 0] == 0.2   # memory kept

        c_params, c_state = rprop_step(c_params, one_weight_grads(0.1),
                                       c_state, CLASSIC)
        d_params, d_state = dropout_rprop_step(d_params, one_weight_grads(0.1),
                                               d_state, CLASSIC,
                                               one_weight_mask(True))
        assert c_state.delta_w[0][0, 0] == 0.5   # zero-product path: no growth
        assert d_state.delta_w[0][0, 0] == pytest.approx(0.6)  # same-sign growth

    def test_genuine_zero_on_live_weight_diverges_from_classic(self):
        # cause 3: a real zero gradient on a live weight; classic clears
        # prev, the dropout-aware kernel holds it
        params = one_weight_net(w=1.0)
        _, c_state = rprop_step(params, one_weight_grads(0.0),
                                one_weight_state(0.5, 0.2), CLASSIC)
        _, d_state = dropout_rprop_step(params, one_weight_grads(0.0),
                                        one_weight_state(0.5, 0.2), CLASSIC,
                                        one_weight_mask(True))
        assert c_state.prev_w[0][0, 0] == 0.0
        assert d_state.prev_w[0][0, 0] == 0.2


def random_gradient_sequence(shape_params, seed, n_steps, allow_zero=False):
    rng = RngStream(seed, 0)
    seq = []
    for _ in range(n_steps):
        gw = [rng.uniform(-1, 1, size=w.shape).reshape(w.shape)
              for w in shape_params.weights]
        gb = [rng.uniform(-1, 1, size=b.shape) for b in shape_params.biases]
        if allow_zero:
            gw = [np.where(np.abs(g) < 0.2, 0.0, g) for g in gw]
            gb = [np.where(np.abs(g) < 0.2, 0.0, g) for g in gb]
        seq.append(Gradients(gw, gb))
    return seq


class TestProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_step_sizes_stay_bounded(self, seed):
        cfg = RpropConfig(delta_max=0.4, delta_min=0.05, delta_init=0.1)
        params = init_params(chain_specs((4, 5, 3)), RngStream(seed, 1))
        state = init_rprop_state(params, cfg)
        for grads in random_gradient_sequence(params, seed, 25, allow_zero=True):
            params, state = rprop_step(params, grads, state, cfg)
            for d in state.delta_w + state.delta_b:
                assert (d >= cfg.delta_min).all()
                assert (d <= cfg.delta_max).all()

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_moves_oppose_gradient_sign(self, seed):
        params = init_params(chain_specs((4, 5, 3)), RngStream(seed, 2))
        state = init_rprop_state(params, CLASSIC)
        for grads in random_gradient_sequence(params, seed, 15):
            new_params, new_state = rprop_step(params, grads, state, CLASSIC)
            for w0, w1, g in zip(params.weights, new_params.weights,
                                 grads.weights):
                dw = w1 - w0
                moved = dw != 0.0
                assert (np.sign(dw[moved]) == -np.sign(g[moved])).all()
            params, state = new_params, new_state

    def test_rprop_invariant_to_positive_loss_scaling(self):
        cfg = RpropConfig(delta_init=0.02)
        params0 = init_params(chain_specs((3, 4, 2)), RngStream(5, 0))
        seq = random_gradient_sequence(params0, 77, 20)

        def run(scale):
            params = params0.copy()
            state = init_rprop_state(params, cfg)
            for g in seq:
                scaled = Gradients([scale * a for a in g.weights],
                                   [scale * a for a in g.biases])
                params, state = rprop_step(params, scaled, state, cfg)
            return params

        a, b = run(1.0), run(7.3)
        for wa, wb in zip(a.weights, b.weights):
            assert (wa == wb).all()

    def test_sgd_scales_with_loss_scaling(self):
        params = one_weight_net(w=1.0)
        g = one_weight_grads(0.25)
        g2 = one_weight_grads(0.5)
        d1 = 1.0 - w_of(sgd_step(params, g, SgdConfig(0.1)))
        d2 = 1.0 - w_of(sgd_step(params, g2, SgdConfig(0.1)))
        assert d2 == pytest.approx(2.0 * d1, abs=1e-15)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_mask_freeze_invariant(self, seed):
        params = init_params(chain_specs((5, 6, 4)), RngStream(seed, 3))
        state = init_rprop_state(params, CLASSIC)
        rng = RngStream(seed, 4)
        for grads in random_gradient_sequence(params, seed, 10):
            sizes = [5, 6, 4]
            node_masks = [(rng.uniform(size=n) >= 0.4).astype(float)
                          for n in sizes]
            mask = DropoutMask(node_masks)
            wmasks = mask.weight_masks(params)
            bmasks = mask.bias_masks(params)
            new_params, new_state = dropout_rprop_step(params, grads, state,
                                                       CLASSIC, mask)
            for l in range(params.num_layers):
                dead = wmasks[l] == 0.0
                assert (new_params.weights[l][dead] == params.weights[l][dead]).all()
                assert (new_state.delta_w[l][dead] == state.delta_w[l][dead]).all()
                assert (new_state.prev_w[l][dead] == state.prev_w[l][dead]).all()
                bdead = bmasks[l] == 0.0
                assert (new_params.biases[l][bdead] == params.biases[l][bdead]).all()
            params, state = new_params, new_state

    def test_reduction_to_classic_with_all_ones_mask(self):
        # identical trajectories, bit for bit, over 100 steps without
        # genuine zero gradients
        params_a = init_params(chain_specs((6, 8, 3)), RngStream(9, 0))
        params_b = params_a.copy()
        cfg = RpropConfig(delta_init=0.05)
        state_a = init_rprop_state(params_a, cfg)
        state_b = init_rprop_state(params_b, cfg)
        ones = all_ones_mask(params_a.specs)
        for grads in random_gradient_sequence(params_a, 31, 100):
            params_a, state_a = rprop_step(params_a, grads, state_a, cfg)
            params_b, state_b = dropout_rprop_step(params_b, grads, state_b,
                                                   cfg, ones)
        for xa, xb in zip(
            params_a.weights + params_a.biases + state_a.delta_w +
            state_a.delta_b + state_a.prev_w + state_a.prev_b,
            params_b.weights + params_b.biases + state_b.delta_w +
            state_b.delta_b + state_b.prev_w + state_b.prev_b,
        ):
            assert (xa == xb).all()

    def test_kernels_leave_inputs_untouched(self):
        params = init_params(chain_specs((3, 4, 2)), RngStream(8, 0))
        state = init_rprop_state(params, CLASSIC)
        snap_w = [w.copy() for w in params.weights]
        snap_d = [d.copy() for d in state.delta_w]
        grads = random_gradient_sequence(params, 55, 1)[0]
        rprop_step(params, grads, state, CLASSIC)
        dropout_rprop_step(params, grads, state, CLASSIC,
                           all_ones_mask(params.specs))
        for a, b in zip(params.weights, snap_w):
            assert (a == b).all()
        for a, b in zip(state.delta_w, snap_d):
            assert (a == b).all()


class TestProductUnderflow:
    """prev * g underflows to 0 below about 1e-308 in magnitude; the
    branch is read from the factors' signs, so the pair still grows."""

    @pytest.mark.parametrize("step", [
        rprop_step,
        lambda p, g, s, c: dropout_rprop_step(p, g, s, c, one_weight_mask(True)),
    ], ids=["classic", "dropout"])
    def test_tiny_same_sign_pair_grows(self, step):
        assert 1e-200 * 1e-200 == 0.0
        params, state = step(one_weight_net(w=1.0), one_weight_grads(1e-200),
                             one_weight_state(delta=0.5, prev=1e-200), CLASSIC)
        assert state.delta_w[0][0, 0] == 0.5 * 1.2
        assert w_of(params) == 1.0 - 0.5 * 1.2
        assert state.prev_w[0][0, 0] == 1e-200


# Reference kernels: the straightforward np.where formulation of both
# transition rules, which the fused kernel must match bit for bit. They
# branch on the product prev * g, so they differ from the fused kernel
# only when that product underflows to zero (see TestProductUnderflow).

def _sgn(g):
    """Sign with sgn(+-0.0) = +0.0 exactly."""
    return np.where(g == 0.0, 0.0, np.sign(g))


def _rprop_arrays(w, g, delta, prev, cfg):
    """Classic kernel on one array; returns (w', delta', prev')."""
    prod = prev * g
    grow = prod > 0.0
    shrink = prod < 0.0
    delta_new = np.where(
        grow, np.minimum(delta * cfg.eta_plus, cfg.delta_max),
        np.where(shrink, np.maximum(delta * cfg.eta_minus, cfg.delta_min), delta),
    )
    w_new = np.where(shrink, w, w - _sgn(g) * delta_new)
    prev_new = np.where(shrink, 0.0, g)
    return w_new, delta_new, prev_new


def _dropout_rprop_arrays(w, g, delta, prev, live, cfg):
    """Mask-aware kernel on one array; `live` is a 0/1 mask."""
    live = live != 0.0
    prod = prev * g
    grow = live & (prod > 0.0)
    shrink = live & (prod < 0.0)
    zero_fresh = live & (prod == 0.0) & (prev == 0.0)
    delta_new = np.where(
        grow, np.minimum(delta * cfg.eta_plus, cfg.delta_max),
        np.where(shrink, np.maximum(delta * cfg.eta_minus, cfg.delta_min), delta),
    )
    move = grow | zero_fresh
    w_new = np.where(move, w - _sgn(g) * delta_new, w)
    prev_new = np.where(move, g, np.where(shrink, 0.0, prev))
    return w_new, delta_new, prev_new


def reference_step(params, grads, state, cfg, mask):
    """One whole-network transition by the reference kernels; classic
    when `mask` is None."""
    if mask is None:
        kernel = lambda w, g, d, p, live: _rprop_arrays(w, g, d, p, cfg)
        wmasks = bmasks = [None] * params.num_layers
    else:
        kernel = lambda w, g, d, p, live: _dropout_rprop_arrays(w, g, d, p, live, cfg)
        wmasks, bmasks = mask.weight_masks(params), mask.bias_masks(params)
    new = ([], [], [], [], [], [])
    for l in range(params.num_layers):
        w, dw, pw = kernel(params.weights[l], grads.weights[l], state.delta_w[l],
                           state.prev_w[l], wmasks[l])
        b, db, pb = kernel(params.biases[l], grads.biases[l], state.delta_b[l],
                           state.prev_b[l], bmasks[l])
        for lst, x in zip(new, (w, b, dw, db, pw, pb)):
            lst.append(x)
    return (NetworkParams(params.specs, new[0], new[1]),
            RpropState(new[2], new[3], new[4], new[5]))


def all_arrays(params, state):
    return (params.weights + params.biases + state.delta_w + state.delta_b
            + state.prev_w + state.prev_b)


def assert_bit_equal(got, want):
    for a, b in zip(all_arrays(*got), all_arrays(*want), strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), (a, b)


def signed_values(rng, shape, zero_frac):
    """Magnitudes in [1e-3, 1e3] (no product of two underflows), random
    signs, and a share of exact +0.0 and -0.0."""
    x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=shape))
    x *= rng.choice([-1.0, 1.0], size=shape)
    zeros = rng.random(shape) < zero_frac
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return x


def node_mask(rng, n):
    mode = rng.integers(4)
    if mode == 0:
        return np.ones(n)
    if mode == 1:
        return np.zeros(n)
    return (rng.random(n) < 0.5).astype(float)


class TestFusedKernelMatchesReference:
    """Multi-step random trajectories of the fused kernel against the
    reference kernels, with every out= form and several row-block
    sizes, compared bit for bit (signed zeros included)."""

    @given(seed=st.integers(0, 2**32 - 1),
           etas=st.sampled_from([(1.2, 0.5), (1.3, 0.5), (2.0, 0.1),
                                 (1.0, 1.0), (0.5, 2.0), (0.9, 1.5)]),
           dropout=st.booleans(),
           out_mode=st.sampled_from(["none", "alias", "separate"]),
           block=st.sampled_from([1, 7, 16384]),
           n_steps=st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_trajectories_bit_equal(self, seed, etas, dropout, out_mode, block,
                                    n_steps):
        rng = np.random.default_rng(seed)
        sizes = [int(n) for n in rng.integers(1, 9, size=rng.integers(2, 5))]
        cfg = RpropConfig(eta_plus=etas[0], eta_minus=etas[1], delta_max=2.0,
                          delta_min=0.01, delta_init=0.1)
        specs = chain_specs(sizes)
        params = NetworkParams(
            specs, [signed_values(rng, (s.fan_in, s.fan_out), 0.1) for s in specs],
            [signed_values(rng, (s.fan_out,), 0.1) for s in specs])
        state = init_rprop_state(params, cfg)
        for d in state.delta_w + state.delta_b:
            d[...] = rng.choice([cfg.delta_min, cfg.delta_max, 0.3, 0.05], size=d.shape)
        for pw, w in zip(state.prev_w + state.prev_b, params.weights + params.biases):
            pw[...] = signed_values(rng, w.shape, 0.4)
        ref = (params.copy(), state.copy())
        with mock.patch.object(optimizers, "_BLOCK_ELEMS", block):
            for _ in range(n_steps):
                grads = Gradients(
                    [signed_values(rng, w.shape, 0.3) for w in params.weights],
                    [signed_values(rng, b.shape, 0.3) for b in params.biases])
                mask = (DropoutMask([node_mask(rng, n) for n in sizes])
                        if dropout else None)
                ref = reference_step(ref[0], grads, ref[1], cfg, mask)
                args = (grads, state, cfg) + ((mask,) if dropout else ())
                step = dropout_rprop_step if dropout else rprop_step
                if out_mode == "none":
                    before = (params.copy(), state.copy())
                    new = step(params, *args)
                    assert_bit_equal((params, state), before)
                elif out_mode == "alias":
                    new = step(params, *args, out=(params, state))
                    assert new[0] is params and new[1] is state
                else:
                    buffers = (params.copy(), state.copy())
                    for a in all_arrays(*buffers):
                        a.fill(np.nan)
                    new = step(params, *args, out=buffers)
                    assert new[0] is buffers[0] and new[1] is buffers[1]
                params, state = new
                assert_bit_equal((params, state), ref)

    def test_sgd_out_forms_agree(self):
        params = init_params(chain_specs((5, 4, 3)), RngStream(4, 0))
        grads = random_gradient_sequence(params, 12, 1)[0]
        cfg = SgdConfig(0.3)
        want = [w - cfg.learning_rate * g for w, g in
                zip(params.weights + params.biases, grads.weights + grads.biases)]
        fresh = sgd_step(params, grads, cfg)
        separate = sgd_step(params, grads, cfg, out=params.copy())
        inplace = params.copy()
        assert sgd_step(inplace, grads, cfg, out=inplace) is inplace
        for out in (fresh, separate, inplace):
            for a, b in zip(out.weights + out.biases, want):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_rejects_misshapen_out(self):
        params = init_params(chain_specs((3, 4, 2)), RngStream(8, 0))
        state = init_rprop_state(params, CLASSIC)
        grads = random_gradient_sequence(params, 55, 1)[0]
        other = init_params(chain_specs((3, 5, 2)), RngStream(8, 0))
        with pytest.raises(ValueError, match="output shapes"):
            rprop_step(params, grads, state, CLASSIC,
                       out=(other, init_rprop_state(other, CLASSIC)))
        with pytest.raises(ValueError, match="output shapes"):
            sgd_step(params, grads, SgdConfig(0.1), out=other)

    def test_rejects_missing_layers(self):
        # a 3-3-3 net would otherwise broadcast a one-row gradient over
        # the second weight matrix
        params = init_params(chain_specs((3, 3, 3)), RngStream(8, 0))
        state = init_rprop_state(params, CLASSIC)
        short = Gradients(params.weights[:1], params.biases[:1])
        with pytest.raises(ValueError, match="2-layer network"):
            rprop_step(params, short, state, CLASSIC)
        with pytest.raises(ValueError, match="2-layer network"):
            sgd_step(params, short, SgdConfig(0.1))
        state.prev_b.pop()
        with pytest.raises(ValueError, match="2-layer network"):
            rprop_step(params, random_gradient_sequence(params, 1, 1)[0],
                       state, CLASSIC)

    def test_rejects_non_float64_arrays(self):
        params = init_params(chain_specs((3, 2)), RngStream(8, 0))
        state = init_rprop_state(params, CLASSIC)
        grads = Gradients([np.ones((3, 2), dtype=np.float32)], [np.ones(2)])
        with pytest.raises(ValueError, match="float64"):
            rprop_step(params, grads, state, CLASSIC)
