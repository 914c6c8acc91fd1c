"""Where the step sizes go under dropout: the mechanism the paper argues.

Both Rprop rules train five epochs on the desk protocol (784-300-100-10,
hidden dropout 0.5, batch 100, the acceptance suite's per-rule
settings, delta_init 0.003) from 2500 examples of the seed-901 corpus.
Then each layer's final weight step sizes are read from the optimizer
state.

Measured with OpenBLAS, per layer (input to output):

* classic Rprop: medians 0.0013 / 0.0022 / 0.0013, with 36% / 24% / 45%
  of step sizes at delta_min;
* mod-rprop: medians 0.0012 / 0.0012 / 0.0010, with 47% / 43% / 54% at
  delta_min;
* neither rule has a step size at delta_max.

So classic Rprop's step sizes do not stall at their initial value: they
shrink, though less than the dropout-aware rule's, which drives more of
them to the floor on every layer. Float trajectories depend on the
BLAS, so the assertions are orderings with margins taken from these
numbers, not equalities.
"""

import numpy as np
import pytest

from resprop.data import Dataset
from resprop.network import chain_specs, init_params
from resprop.synthetic import generate_corpus
from resprop.tensor import RngStream
from resprop.training import train_model

from test_acceptance import DROPOUT, RPROP_CLASSIC, RPROP_MOD, SIZES

N_TRAIN = 2500
N_VAL = 500


@pytest.fixture(scope="module")
def final_deltas():
    images, labels = generate_corpus(N_TRAIN + N_VAL, RngStream(901, 0))
    flat = images.reshape(len(images), -1) / 255.0
    train = Dataset(flat[:N_TRAIN], labels[:N_TRAIN])
    val = Dataset(flat[N_TRAIN:], labels[N_TRAIN:])
    out = {}
    for optimizer, cfg in (("rprop", RPROP_CLASSIC), ("mod-rprop", RPROP_MOD)):
        params = init_params(chain_specs(SIZES), RngStream(1, 0))
        result = train_model(params, train, val, optimizer, cfg, epoch_cap=5,
                             batch_size=100, seed=1, dropout=DROPOUT)
        out[optimizer] = result.final_state.delta_w
    return out


def at_floor(deltas, cfg):
    return [float(np.mean(d <= cfg.delta_min)) for d in deltas]


def test_no_step_size_reaches_the_ceiling(final_deltas):
    for optimizer, cfg in (("rprop", RPROP_CLASSIC), ("mod-rprop", RPROP_MOD)):
        for d in final_deltas[optimizer]:
            assert np.mean(d >= cfg.delta_max) < 0.01


def test_classic_step_sizes_shrink_rather_than_stall(final_deltas):
    deltas = final_deltas["rprop"]
    for d in deltas:
        assert np.median(d) <= 0.85 * RPROP_CLASSIC.delta_init
    assert min(at_floor(deltas, RPROP_CLASSIC)) >= 0.15


def test_mod_rprop_drives_more_step_sizes_to_the_floor(final_deltas):
    classic = final_deltas["rprop"]
    mod = final_deltas["mod-rprop"]
    classic_floor = at_floor(classic, RPROP_CLASSIC)
    mod_floor = at_floor(mod, RPROP_MOD)
    for c, m in zip(classic_floor, mod_floor, strict=True):
        assert m >= 0.35
        assert m >= c + 0.05
    for c, m in zip(classic, mod, strict=True):
        assert np.median(m) <= np.median(c)
