"""Bagging and stacking over independently trained network members.

Bagging trains each member on a bootstrap resample of the training set
and aggregates by majority vote or probability average. A resample is
an index vector into the shared training arrays (`train_model`'s
`rows`), not a copy of the data, so a member costs no more memory than
a single model however large the training set is. Stacking trains
members on the training set itself, then fits a second network on the
members' concatenated output probabilities. The stacker is fitted and
model-selected on the members' outputs over the validation split, always
(fitting it on member training outputs invites leakage). Its hidden
sizes default to (200 * N, 100 * N); they, its epoch cap and its hidden
dropout rate are `train_ensemble` arguments.

Members are independent: member i draws from RNG stream base
MEMBER_STREAM_STRIDE * (i + 1), the stacker from the base after the
last member, so trajectories never share a stream. Vote ties go to the
lowest class index.

Of each network it trains, an ensemble keeps only what its callers
read: the epoch rows, the best epoch and the best params. The final
params and Rprop state are dropped as soon as the network has trained,
so while member k trains the k finished members hold one model buffer
each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, DataSplits
from .dropout import DropoutSpec
from .network import NetworkParams, chain_specs, init_params, probabilities
from .optimizers import RpropConfig
from .tensor import RngStream
from .training import (
    MEMBER_STREAM_STRIDE,
    STREAM_INIT,
    STREAM_RESAMPLE,
    TrainResult,
    error_rate,
    networks_probabilities,
    train_model,
)
from . import serialization

ENSEMBLE_KINDS = ("bagging", "stacking")
AGGREGATION_MODES = ("majority-vote", "probability-average")

MANIFEST_NAME = "ensemble.json"


@dataclass(frozen=True)
class EnsembleSpec:
    """What to build: member count, member shape, and aggregation."""

    kind: str
    size: int
    member_sizes: tuple[int, ...]
    member_epoch_cap: int
    aggregation: str = "probability-average"

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(
                f"kind must be one of {ENSEMBLE_KINDS}, got {self.kind!r}"
            )
        if self.size < 1:
            raise ValueError(f"ensemble size must be >= 1, got {self.size}")
        if self.member_epoch_cap < 1:
            raise ValueError(
                f"member epoch cap must be >= 1, got {self.member_epoch_cap}"
            )
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, "
                f"got {self.aggregation!r}"
            )
        object.__setattr__(self, "member_sizes",
                           tuple(int(s) for s in self.member_sizes))

    @property
    def num_classes(self) -> int:
        return self.member_sizes[-1]


# EnsembleSpec's fields, in the order `ensemble.json` lists them.
_SPEC_KEYS = tuple(f.name for f in fields(EnsembleSpec))


def stacker_chain(n_members: int, n_classes: int,
                  hidden: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """The stacker's size chain: the members' concatenated outputs in,
    `hidden` (default (200 * n_members, 100 * n_members)), classes out."""
    if hidden is None:
        hidden = (200 * n_members, 100 * n_members)
    return (n_members * n_classes, *(int(s) for s in hidden), n_classes)


def bootstrap_resample(n: int, rng: RngStream) -> np.ndarray:
    """Indices of `n` examples drawn from range(n) with replacement."""
    if n < 1:
        raise ValueError(f"cannot resample an empty dataset (n = {n})")
    return rng.integers(n, size=n)


def _check_member_outputs(member_outputs) -> list[np.ndarray]:
    outs = [np.asarray(m, dtype=np.float64) for m in member_outputs]
    if not outs:
        raise ValueError("need at least one member output")
    shape = outs[0].shape
    if len(shape) != 2:
        raise ValueError(f"member outputs must be 2-D, got shape {shape}")
    for i, m in enumerate(outs):
        if m.shape != shape:
            raise ValueError(
                f"member {i} output shape {m.shape} differs from {shape}"
            )
    return outs


def aggregate(member_outputs, mode: str = "probability-average") -> np.ndarray:
    """Combine member probability matrices into predicted labels.

    majority-vote counts each member's argmax; probability-average
    takes the argmax of the mean matrix. Ties resolve to the lowest
    class index in both modes.
    """
    outs = _check_member_outputs(member_outputs)
    if mode == "probability-average":
        return np.argmax(np.mean(outs, axis=0), axis=1)
    if mode == "majority-vote":
        n, k = outs[0].shape
        counts = np.zeros((n, k), dtype=np.int64)
        rows = np.arange(n)
        for m in outs:
            counts[rows, np.argmax(m, axis=1)] += 1
        return np.argmax(counts, axis=1)
    raise ValueError(
        f"aggregation mode must be one of {AGGREGATION_MODES}, got {mode!r}"
    )


def stack_features(member_outputs) -> np.ndarray:
    """Concatenate member outputs horizontally, member order preserved."""
    outs = _check_member_outputs(member_outputs)
    return np.concatenate(outs, axis=1)


@dataclass
class EnsembleModel:
    """Trained members (selected checkpoints) plus optional stacker."""

    spec: EnsembleSpec
    members: list[NetworkParams]
    stacker: Optional[NetworkParams] = None

    def __post_init__(self):
        if len(self.members) != self.spec.size:
            raise ValueError(
                f"spec promises {self.spec.size} members, got {len(self.members)}"
            )
        if self.spec.kind == "stacking" and self.stacker is None:
            raise ValueError("stacking ensemble needs a stacker network")

    def member_probabilities(self, images) -> list[np.ndarray]:
        return networks_probabilities(self.members, images)

    def combine(self, member_probs) -> np.ndarray:
        """Predicted labels from the members' probability matrices."""
        if self.spec.kind == "bagging":
            return aggregate(member_probs, self.spec.aggregation)
        features = stack_features(member_probs)
        return np.argmax(probabilities(self.stacker, features), axis=1)

    def predict(self, images) -> np.ndarray:
        return self.combine(self.member_probabilities(images))

    def classification_error(self, data: Dataset) -> float:
        return error_rate(self.predict(data), data.labels)


@dataclass
class EnsembleTraining:
    """Training-time record: the model plus every member's history.

    Each `TrainResult` keeps its `rows`, `best_epoch` and `best_params`
    (the same objects as the model's members and stacker); its
    `final_params` and `final_state` are None.
    """

    model: EnsembleModel
    member_results: list[TrainResult]
    stacker_result: Optional[TrainResult] = None


def member_stream_base(index: int) -> int:
    return MEMBER_STREAM_STRIDE * (index + 1)


def train_ensemble(spec: EnsembleSpec, splits: DataSplits, opt_cfg: RpropConfig,
                   *, seed: int, batch_size: int = 128,
                   member_dropout: Optional[DropoutSpec] = None,
                   stacker_hidden: Optional[Sequence[int]] = None,
                   stacker_epoch_cap: int = 200,
                   stacker_dropout_hidden: float = 0.0,
                   init_scale: str = "uniform-fan-in",
                   clock=None) -> EnsembleTraining:
    """Train all members (and the stacker, for stacking ensembles).

    Members train with mod-rprop under `opt_cfg` and `member_dropout`,
    bagging members each on their own bootstrap resample (row indices
    into `splits.train`), stacking members on the training set itself;
    each is model-selected on the validation set. The stacker, chain
    `stacker_chain(spec.size, spec.num_classes, stacker_hidden)`, trains
    likewise for at most `stacker_epoch_cap` epochs at hidden dropout
    rate `stacker_dropout_hidden`, fitting member outputs on the
    validation set to its labels. A stacking spec's stacker settings are
    checked before any member trains; a bagging spec ignores them.
    """
    if spec.kind == "stacking":
        if stacker_epoch_cap < 1:
            raise ValueError(
                f"stacker epoch cap must be >= 1, got {stacker_epoch_cap}")
        chain = stacker_chain(spec.size, spec.num_classes, stacker_hidden)
        stacker_layers = chain_specs(chain)
        stacker_dropout = DropoutSpec.for_sizes(chain, stacker_dropout_hidden, 0.0)

    def train_net(i, layers, train, validation, epoch_cap, dropout, rows=None):
        """Network i (the stacker is i = spec.size) from its stream base,
        without its final params and Rprop state."""
        base = member_stream_base(i)
        # passed inline, so train_model's private copy is the only live model
        result = train_model(
            init_params(layers, RngStream(seed, base + STREAM_INIT), init_scale),
            train, validation, "mod-rprop", opt_cfg,
            epoch_cap=epoch_cap, batch_size=batch_size, seed=seed,
            stream_base=base, dropout=dropout, clock=clock, rows=rows,
        )
        result.final_params = result.final_state = None
        return result

    member_layers = chain_specs(spec.member_sizes)
    member_results: list[TrainResult] = []
    for i in range(spec.size):
        rows = None
        if spec.kind == "bagging":
            rows = bootstrap_resample(len(splits.train), RngStream(
                seed, member_stream_base(i) + STREAM_RESAMPLE))
        member_results.append(train_net(
            i, member_layers, splits.train, splits.validation,
            spec.member_epoch_cap, member_dropout, rows))

    members = [r.best_params for r in member_results]
    stacker_result = stacker = None
    if spec.kind == "stacking":
        probs = networks_probabilities(members, splits.validation)
        stack_data = Dataset(stack_features(probs), splits.validation.labels)
        stacker_result = train_net(spec.size, stacker_layers, stack_data,
                                   stack_data, stacker_epoch_cap, stacker_dropout)
        stacker = stacker_result.best_params

    model = EnsembleModel(spec, members, stacker)
    return EnsembleTraining(model, member_results, stacker_result)


def save_ensemble(out_dir, training: EnsembleTraining, *, seed: int) -> Path:
    """Write member/stacker checkpoints plus a JSON manifest; returns
    the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = training.model
    spec = model.spec
    member_files = [f"member-{i:02d}.ckpt" for i in range(spec.size)]
    stacker_file = None if model.stacker is None else "stacker.ckpt"
    for name, params in zip(member_files + [stacker_file],
                            model.members + [model.stacker]):
        if params is not None:
            serialization.save_checkpoint(out_dir / name, params)
    manifest = {
        **{key: getattr(spec, key) for key in _SPEC_KEYS},
        "seed": seed,
        "member_checkpoints": member_files,
        "member_stream_bases": [member_stream_base(i) for i in range(spec.size)],
        "resample_stream_offset": STREAM_RESAMPLE,
        "stacker_checkpoint": stacker_file,
    }
    path = out_dir / MANIFEST_NAME
    serialization.write_atomic(path, json.dumps(manifest, indent=2).encode() + b"\n")
    return path


def load_ensemble(ens_dir) -> EnsembleModel:
    """Rebuild an EnsembleModel from a directory written by save_ensemble."""
    ens_dir = Path(ens_dir)
    manifest = json.loads((ens_dir / MANIFEST_NAME).read_text())
    try:
        spec = EnsembleSpec(*(manifest[key] for key in _SPEC_KEYS))
        member_names = manifest["member_checkpoints"]
    except KeyError as exc:
        raise ValueError(f"ensemble manifest {ens_dir / MANIFEST_NAME} "
                         f"is missing key {exc}") from None
    members = [serialization.load_checkpoint(ens_dir / name)[0]
               for name in member_names]
    stacker = None
    if manifest.get("stacker_checkpoint"):
        stacker = serialization.load_checkpoint(
            ens_dir / manifest["stacker_checkpoint"])[0]
    return EnsembleModel(spec, members, stacker)
