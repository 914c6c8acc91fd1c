"""Minibatch training loop: per-epoch validation, timing, model selection.

One epoch is one pass over the shuffled training set in minibatches:
the given rows of the dataset (every row by default; repeats allowed,
as in a bootstrap resample), gathered per minibatch from the shared
arrays, so no resampled copy is ever built. Every step takes the next
mask, runs forward and backward through it and invokes its optimizer
once. Under dropout each mask is freshly sampled; otherwise every step
gets one all-ones mask, which forward and backward skip exactly. The
mod-rprop optimizer additionally receives the mask inside its update
rule; sgd and classic rprop see only the masked gradients.

The per-epoch training loss is the example-weighted mean of the
minibatch losses, i.e. the mean loss over every training example as it
was actually presented (mask included). Validation error is the argmax
mismatch fraction of the unmasked network, which is directly usable
because sampled masks carry inverted scaling; it runs the cache-free
`network.probabilities` pass over slices of EVAL_BATCH rows, as does
every scoring function here.

RNG discipline: each consumer owns a private stream derived from
(seed, stream_base + offset), with the offsets below. Ensemble members
space their bases MEMBER_STREAM_STRIDE apart, so no two consumers in a
process share a stream. The mask stream is drawn in blocks of several
steps' masks (`sample_masks`), which gives the same masks as one
`sample_mask` call per step.

Timing is injectable: `wall_clock` for real measurements, or
`counter_clock()` when byte-identical timing columns are needed across
process invocations.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import Dataset
from .dropout import DropoutSpec, all_ones_mask, sample_masks
from .network import NetworkParams, backward, forward, nll_loss, probabilities
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
# Draws per block of training masks (512 KiB of float64). One block
# covers an epoch of the desk protocol (50 steps x 1184 nodes), and the
# bound keeps batch-1 training on 60k examples from drawing a whole
# epoch (570 MB) at once.
MASK_CHUNK_DRAWS = 1 << 16


class DivergenceError(RuntimeError):
    """Training loss stopped being finite; records the offending epoch."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss {loss!r}")
        self.epoch = epoch
        self.loss = loss

    def __reduce__(self):
        return type(self), (self.epoch, self.loss)


def wall_clock() -> float:
    return time.perf_counter()


def counter_clock() -> Callable[[], float]:
    """Deterministic clock: each call advances by one second.

    Substituting it for `wall_clock` makes elapsed-time columns
    reproducible across processes (epoch i reads i seconds).
    """
    return itertools.count(1.0).__next__


@dataclass(frozen=True)
class EpochRow:
    """One epoch's metrics; elapsed_ms is cumulative from training start."""

    epoch: int
    train_loss: float
    val_err: float
    elapsed_ms: float


class RunFigures:
    """A run's figures, read off its epoch `rows` and the `best_epoch`
    it selected: the only two things a run stores about its history."""

    def _best_row(self) -> EpochRow:
        return next(r for r in self.rows if r.epoch == self.best_epoch)

    @property
    def best_val_err(self) -> float:
        return self._best_row().val_err

    @property
    def first_epoch_val_err(self) -> float:
        return self.rows[0].val_err

    @property
    def time_to_best_ms(self) -> float:
        return self._best_row().elapsed_ms

    @property
    def total_ms(self) -> float:
        return self.rows[-1].elapsed_ms


@dataclass
class TrainResult(RunFigures):
    """Everything `train_model` learned: history plus selected model,
    and the model and Rprop state after the last epoch (`final_state` is
    None for sgd). An ensemble keeps only the rows, best epoch and best
    params of each network it trains: it sets `final_params` and
    `final_state` to None once the network has trained."""

    rows: list[EpochRow]
    best_epoch: int
    best_params: NetworkParams
    final_params: Optional[NetworkParams]
    final_state: Optional[RpropState]


def networks_probabilities(networks, images) -> list[np.ndarray]:
    """Each network's class probabilities for every row of an array or a
    Dataset, by slices of EVAL_BATCH rows; each slice is converted once
    for all networks."""
    rows = (images.batch if isinstance(images, Dataset)
            else np.asarray(images, dtype=np.float64).__getitem__)
    outs = [np.empty((len(images), p.num_classes)) for p in networks]
    for lo in range(0, len(images), EVAL_BATCH):
        x = rows(slice(lo, lo + EVAL_BATCH))
        for params, out in zip(networks, outs):
            out[lo:lo + EVAL_BATCH] = probabilities(params, x)
    return outs


def predict_probabilities(params: NetworkParams, images) -> np.ndarray:
    """Class probabilities for every row of an array or a Dataset, by slices."""
    return networks_probabilities([params], images)[0]


def predict_labels(params: NetworkParams, images) -> np.ndarray:
    return np.argmax(predict_probabilities(params, images), axis=1)


def error_rate(predicted: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of `predicted` labels that miss `labels`."""
    return float(np.mean(predicted != labels))


def classification_error(params: NetworkParams, data: Dataset) -> float:
    """Fraction of examples whose argmax prediction misses the label."""
    if len(data) == 0:
        raise ValueError("cannot score an empty dataset")
    return error_rate(predict_labels(params, data), data.labels)


def _training_masks(dropout: DropoutSpec, specs, rng: RngStream, steps: int):
    """The masks of `steps` successive training steps, drawn in blocks of
    at most MASK_CHUNK_DRAWS draws (at least one mask per block)."""
    per_block = max(1, MASK_CHUNK_DRAWS // sum(s.fan_in for s in specs))
    for lo in range(0, steps, per_block):
        yield from sample_masks(dropout, specs, rng, min(per_block, steps - lo))


def _check_rows(rows, n: int) -> np.ndarray:
    """`rows` as an integer index vector into a dataset of `n` examples."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"rows must be a 1-D integer array, got "
                         f"{rows.dtype} with shape {rows.shape}")
    if len(rows) == 0:
        raise ValueError("rows is empty")
    if rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"rows must lie in [0, {n}), got values from "
                         f"{rows.min()} to {rows.max()}")
    return rows


def train_model(params: NetworkParams, train: Dataset, validation: Dataset,
                optimizer: str, opt_cfg, *, epoch_cap: int,
                batch_size: int = 128, seed: int, stream_base: int = 0,
                dropout: Optional[DropoutSpec] = None,
                clock: Optional[Callable[[], float]] = None,
                rows=None) -> TrainResult:
    """Train for `epoch_cap` epochs, keeping the best-validation model.

    Minibatches are gathered by `train.batch` into one buffer per run,
    `backward` writes its deltas into the step's forward cache, and each
    step frees its other buffers before the next. Training runs on
    `rows` (1-D integer indices into `train`, repeats allowed; all rows
    when None) as on a `Dataset` of them, each epoch shuffling positions
    in `rows`. Only here is dropout decided: a `dropout` that is None or
    off gives every step one all-ones mask.

    Best means lowest validation error; ties go to the earliest epoch.
    Rprop-family state starts from `opt_cfg`. `params` is not modified:
    training steps a private copy in place. Raises DivergenceError when
    a minibatch loss is not finite.
    """
    if epoch_cap < 1:
        raise ValueError(f"epoch_cap must be >= 1, got {epoch_cap}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(train) == 0:
        raise ValueError("training set is empty")
    rows = (np.arange(len(train)) if rows is None
            else _check_rows(rows, len(train)))
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

    n = len(rows)
    shuffle_rng = RngStream(seed, stream_base + STREAM_SHUFFLE)
    params = params.copy()
    state = None if optimizer == "sgd" else init_rprop_state(params, opt_cfg)
    if dropout is None or dropout.is_off:
        masks = itertools.repeat(all_ones_mask(params.specs))
    else:
        masks = _training_masks(dropout, params.specs,
                                RngStream(seed, stream_base + STREAM_DROPOUT),
                                epoch_cap * -(-n // batch_size))
    history: list[EpochRow] = []
    best_epoch = 0
    best_err = np.inf
    best_params = params.copy()
    # one gather buffer per run: a fresh one per step costs page faults
    buf = np.empty((min(batch_size, n), train.pixels.shape[1]))
    t0 = clock()
    for epoch in range(1, epoch_cap + 1):
        order = rows[shuffle_rng.permutation(n)]
        loss_sum = 0.0
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            xb = train.batch(idx, out=buf[:len(idx)])
            yb = train.labels[idx]
            mask = next(masks)
            cache = forward(params, xb, mask)
            batch_loss = nll_loss(cache.probabilities, yb)
            if not np.isfinite(batch_loss):
                raise DivergenceError(epoch, batch_loss)
            loss_sum += batch_loss * len(idx)
            grads = backward(params, cache, yb)
            # each kernel steps params and state in place
            if optimizer == "sgd":
                sgd_step(params, grads, opt_cfg, out=params)
            elif optimizer == "rprop":
                rprop_step(params, grads, state, opt_cfg, out=(params, state))
            else:
                dropout_rprop_step(params, grads, state, opt_cfg, mask,
                                   out=(params, state))
            # free this step's buffers before the next step makes its own
            del xb, yb, mask, cache, grads
        train_loss = loss_sum / n
        val_err = classification_error(params, validation)
        elapsed_ms = (clock() - t0) * 1000.0
        history.append(EpochRow(epoch, float(train_loss), val_err, elapsed_ms))
        if val_err < best_err:
            best_err = val_err
            best_epoch = epoch
            np.copyto(best_params.flat, params.flat)
    return TrainResult(history, best_epoch, best_params, params, state)
