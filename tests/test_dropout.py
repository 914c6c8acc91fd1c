import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resprop.dropout import (
    DropoutMask,
    DropoutSpec,
    sample_mask,
)
from resprop.network import chain_specs, init_params
from resprop.tensor import RngStream


def make_params(sizes, seed=11):
    return init_params(chain_specs(sizes), RngStream(seed, 0))


class TestDropoutSpec:
    def test_rates_validated(self):
        DropoutSpec((0.0, 0.5, 0.999))
        with pytest.raises(ValueError):
            DropoutSpec((0.0, 1.0))
        with pytest.raises(ValueError):
            DropoutSpec((-0.1,))

    def test_is_off(self):
        assert DropoutSpec((0.0, 0.0)).is_off
        assert not DropoutSpec((0.0, 0.1)).is_off

    def test_for_sizes(self):
        spec = DropoutSpec.for_sizes((784, 300, 100, 10), hidden_rate=0.5,
                                     input_rate=0.2)
        assert spec.rates == (0.2, 0.5, 0.5)
        assert DropoutSpec.for_sizes((5, 3)).rates == (0.0,)


class TestMaskConstruction:
    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError, match="0 or 1"):
            DropoutMask([np.array([0.5, 1.0]), np.ones(2)])

    def test_rejects_matrix_masks(self):
        with pytest.raises(ValueError, match="vectors"):
            DropoutMask([np.ones((2, 2)), np.ones(2)])

    def test_rejects_single_layer(self):
        with pytest.raises(ValueError, match="at least"):
            DropoutMask([np.ones(3)])

    def test_rejects_scale_count_mismatch(self):
        with pytest.raises(ValueError, match="one scale per"):
            DropoutMask([np.ones(3), np.ones(2)], scales=[1.0])

    def test_congruence_rejected_with_sizes_in_message(self):
        params = make_params((3, 4, 2))
        mask = DropoutMask([np.ones(3), np.ones(5), np.ones(2)])
        with pytest.raises(ValueError, match=r"\[3, 5, 2\].*\[3, 4, 2\]"):
            mask.weight_masks(params)


class TestProductRule:
    def test_muted_node_zeroes_row_and_column(self):
        # muting hidden node 1 kills column 1 of the incoming weight
        # mask and row 1 of the outgoing one, plus its bias
        hidden = np.ones(4)
        hidden[1] = 0.0
        mask = DropoutMask([np.ones(3), hidden, np.ones(2)])
        params = make_params((3, 4, 2))
        wmasks = mask.weight_masks(params)
        assert (wmasks[0][:, 1] == 0.0).all()
        assert (wmasks[0][:, [0, 2, 3]] == 1.0).all()
        assert (wmasks[1][1, :] == 0.0).all()
        assert (wmasks[1][[0, 2, 3], :] == 1.0).all()
        bmasks = mask.bias_masks(params)
        assert bmasks[0][1] == 0.0
        assert bmasks[0].sum() == 3.0
        assert (bmasks[1] == 1.0).all()

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_weight_live_iff_both_endpoints_live(self, seed):
        sizes = (4, 5, 3)
        rng = RngStream(seed, 0)
        node_masks = [(rng.uniform(size=n) >= 0.5).astype(float) for n in sizes]
        mask = DropoutMask(node_masks)
        params = make_params(sizes)
        for l, wm in enumerate(mask.weight_masks(params)):
            for i in range(wm.shape[0]):
                for j in range(wm.shape[1]):
                    expect = node_masks[l][i] * node_masks[l + 1][j]
                    assert wm[i, j] == expect


class TestSampleMask:
    ARCH = chain_specs((20, 40, 10))

    def test_zero_rates_give_all_ones(self):
        spec = DropoutSpec((0.0, 0.0))
        mask = sample_mask(spec, self.ARCH, RngStream(3, 0))
        for m in mask.node_masks:
            assert (m == 1.0).all()
        assert mask.scales == [1.0, 1.0, 1.0]

    def test_output_layer_never_muted(self):
        spec = DropoutSpec((0.9, 0.9))
        for seed in range(20):
            mask = sample_mask(spec, self.ARCH, RngStream(seed, 0))
            assert (mask.node_masks[-1] == 1.0).all()
            assert mask.scales[-1] == 1.0

    def test_inverted_scales(self):
        spec = DropoutSpec((0.2, 0.5))
        mask = sample_mask(spec, self.ARCH, RngStream(3, 0))
        assert mask.scales[0] == pytest.approx(1.25)
        assert mask.scales[1] == pytest.approx(2.0)
        assert mask.scales[2] == 1.0

    def test_length_mismatch_rejected(self):
        spec = DropoutSpec((0.5,))
        with pytest.raises(ValueError, match="2 maskable node layers"):
            sample_mask(spec, self.ARCH, RngStream(3, 0))

    def test_deterministic_in_stream(self):
        spec = DropoutSpec((0.2, 0.5))
        a = sample_mask(spec, self.ARCH, RngStream(42, 5))
        b = sample_mask(spec, self.ARCH, RngStream(42, 5))
        for ma, mb in zip(a.node_masks, b.node_masks):
            assert (ma == mb).all()

    def test_consumes_one_draw_per_maskable_node(self):
        spec = DropoutSpec((0.2, 0.5))
        rng = RngStream(42, 5)
        sample_mask(spec, self.ARCH, rng)
        assert rng.position == 20 + 40

    def test_muted_fraction_binomial_bound(self):
        # 1000 nodes at rate 0.5: fraction within 0.5 +- 0.05 is a
        # 3.2 sigma event per seed, so over 200 seeds at most a couple
        # of excursions are plausible
        arch = chain_specs((5, 1000, 10))
        spec = DropoutSpec((0.0, 0.5))
        within = 0
        for seed in range(200):
            mask = sample_mask(spec, arch, RngStream(seed, 0))
            muted = 1.0 - mask.node_masks[1].mean()
            within += abs(muted - 0.5) <= 0.05
        assert within >= 198

    def test_live_weight_fraction_product_of_rates(self):
        arch = chain_specs((300, 400, 10))
        spec = DropoutSpec((0.2, 0.5))
        params = make_params((300, 400, 10))
        fractions = [
            sample_mask(spec, arch, RngStream(seed, 0))
            .weight_masks(params)[0].mean()
            for seed in range(10)
        ]
        # expected live fraction 0.8 * 0.5 = 0.4; per seed the realized
        # fraction is the product of two node-level fractions, so only
        # the mean over seeds concentrates tightly
        assert abs(np.mean(fractions) - 0.4) < 0.015
