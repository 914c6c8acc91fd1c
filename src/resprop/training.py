"""Minibatch training loop: per-epoch validation, timing, model selection.

One epoch is one pass over the shuffled training set in minibatches.
One optimizer invocation happens per minibatch; when dropout is active a
fresh mask is sampled for every minibatch and applied in both the
forward and backward passes. The mod-rprop optimizer additionally
receives the mask inside its update rule; sgd and classic rprop see
only the masked gradients.

The per-epoch training loss is the example-weighted mean of the
minibatch losses, i.e. the mean loss over every training example as it
was actually presented (mask included). Validation error is the argmax
mismatch fraction of the unmasked network, which is directly usable
because sampled masks carry inverted scaling.

RNG discipline: each consumer owns a private stream derived from
(seed, stream_base + offset), with the offsets below. Ensemble members
space their bases MEMBER_STREAM_STRIDE apart, so no two consumers in a
process share a stream.

Timing is injectable: `wall_clock` for real measurements, or
`counter_clock()` when byte-identical timing columns are needed across
process invocations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import Dataset
from .dropout import DropoutSpec, all_ones_mask, sample_mask
from .network import NetworkParams, backward, forward, nll_loss
from .optimizers import (
    RpropConfig,
    RpropState,
    SgdConfig,
    dropout_rprop_step,
    init_rprop_state,
    rprop_step,
    sgd_step,
)
from .tensor import RngStream

OPTIMIZER_NAMES = ("sgd", "rprop", "mod-rprop")

STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_DROPOUT = 2
STREAM_RESAMPLE = 3
MEMBER_STREAM_STRIDE = 16

EVAL_BATCH = 1024


class DivergenceError(RuntimeError):
    """Training loss stopped being finite; records the offending epoch."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss {loss!r}")
        self.epoch = epoch
        self.loss = loss


def wall_clock() -> float:
    return time.perf_counter()


def counter_clock(step_seconds: float = 1.0) -> Callable[[], float]:
    """Deterministic clock: each call advances by a fixed step.

    Substituting it for `wall_clock` makes elapsed-time columns
    reproducible across processes (epoch i reads i * step seconds).
    """
    state = {"t": 0.0}

    def tick() -> float:
        state["t"] += step_seconds
        return state["t"]

    return tick


@dataclass(frozen=True)
class EpochRow:
    """One epoch's metrics; elapsed_ms is cumulative from training start."""

    epoch: int
    train_loss: float
    val_err: float
    elapsed_ms: float


@dataclass
class TrainResult:
    """Everything `train_model` learned: history plus selected model."""

    rows: list[EpochRow]
    best_epoch: int
    best_val_err: float
    best_params: NetworkParams
    final_params: NetworkParams
    final_state: Optional[RpropState]
    optimizer: str

    @property
    def first_epoch_val_err(self) -> float:
        return self.rows[0].val_err


def predict_probabilities(params: NetworkParams, images: np.ndarray,
                          batch_size: int = EVAL_BATCH) -> np.ndarray:
    """Class probabilities for every row of `images`, batched for memory."""
    images = np.asarray(images, dtype=np.float64)
    if len(images) == 0:
        return np.zeros((0, params.num_classes))
    outs = [
        forward(params, images[lo:lo + batch_size]).probabilities
        for lo in range(0, len(images), batch_size)
    ]
    return np.concatenate(outs, axis=0)


def predict_labels(params: NetworkParams, images: np.ndarray,
                   batch_size: int = EVAL_BATCH) -> np.ndarray:
    return np.argmax(predict_probabilities(params, images, batch_size), axis=1)


def classification_error(params: NetworkParams, data: Dataset,
                         batch_size: int = EVAL_BATCH) -> float:
    """Fraction of examples whose argmax prediction misses the label."""
    if len(data) == 0:
        raise ValueError("cannot score an empty dataset")
    predicted = predict_labels(params, data.images, batch_size)
    return float(np.mean(predicted != data.labels))


def _optimizer_transition(optimizer, opt_cfg, ones_mask):
    """Returns step(params, grads, state, mask) -> (params, state), which
    steps params and state in place."""
    if optimizer == "sgd":
        return lambda p, g, s, m: (sgd_step(p, g, opt_cfg, out=p), None)
    if optimizer == "rprop":
        return lambda p, g, s, m: rprop_step(p, g, s, opt_cfg, out=(p, s))
    if optimizer == "mod-rprop":
        return lambda p, g, s, m: dropout_rprop_step(
            p, g, s, opt_cfg, m if m is not None else ones_mask, out=(p, s))
    raise ValueError(
        f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZER_NAMES}"
    )


def train_model(params: NetworkParams, train: Dataset, validation: Dataset,
                optimizer: str, opt_cfg, *, epoch_cap: int,
                batch_size: int = 128, seed: int, stream_base: int = 0,
                dropout: Optional[DropoutSpec] = None,
                state: Optional[RpropState] = None,
                clock: Optional[Callable[[], float]] = None) -> TrainResult:
    """Train for `epoch_cap` epochs, keeping the best-validation model.

    Best means lowest validation error; ties go to the earliest epoch.
    An existing `state` resumes rprop-family training; otherwise state
    is initialized from `opt_cfg`. Neither `params` nor `state` is
    modified: training steps private copies in place. Raises
    DivergenceError when the epoch training loss is not finite.
    """
    if epoch_cap < 1:
        raise ValueError(f"epoch_cap must be >= 1, got {epoch_cap}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(train) == 0:
        raise ValueError("training set is empty")
    if optimizer not in OPTIMIZER_NAMES:
        raise ValueError(
            f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZER_NAMES}"
        )
    expected_cfg = SgdConfig if optimizer == "sgd" else RpropConfig
    if not isinstance(opt_cfg, expected_cfg):
        raise TypeError(
            f"optimizer {optimizer!r} needs a {expected_cfg.__name__}, "
            f"got {type(opt_cfg).__name__}"
        )
    clock = clock if clock is not None else wall_clock

    drop_active = dropout is not None and not dropout.is_off
    shuffle_rng = RngStream(seed, stream_base + STREAM_SHUFFLE)
    mask_rng = RngStream(seed, stream_base + STREAM_DROPOUT)
    ones_mask = all_ones_mask(params.specs) if optimizer == "mod-rprop" else None
    params = params.copy()
    if optimizer != "sgd":
        state = (init_rprop_state(params, opt_cfg) if state is None
                 else state.copy())
    step = _optimizer_transition(optimizer, opt_cfg, ones_mask)

    n = len(train)
    rows: list[EpochRow] = []
    best_epoch = 0
    best_err = np.inf
    best_params = params.copy()
    t0 = clock()
    for epoch in range(1, epoch_cap + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            xb = train.images[idx]
            yb = train.labels[idx]
            mask = (sample_mask(dropout, params.specs, mask_rng)
                    if drop_active else None)
            cache = forward(params, xb, mask)
            batch_loss = nll_loss(cache.probabilities, yb)
            if not np.isfinite(batch_loss):
                raise DivergenceError(epoch, batch_loss)
            loss_sum += batch_loss * len(idx)
            grads = backward(params, cache, yb, mask)
            params, state = step(params, grads, state, mask)
        train_loss = loss_sum / n
        if not np.isfinite(train_loss):
            raise DivergenceError(epoch, train_loss)
        val_err = classification_error(params, validation)
        elapsed_ms = (clock() - t0) * 1000.0
        rows.append(EpochRow(epoch, float(train_loss), val_err, elapsed_ms))
        if val_err < best_err:
            best_err = val_err
            best_epoch = epoch
            best_params = params.copy()
    return TrainResult(rows, best_epoch, float(best_err), best_params,
                       params, state, optimizer)
