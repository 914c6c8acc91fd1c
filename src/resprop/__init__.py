"""Feed-forward network training with the rprop family under dropout.

The package trains multilayer perceptrons three ways (sgd, classic
rprop, and a dropout-aware rprop whose update rule distinguishes muted
weights from genuine zero gradients), builds bagging and stacking
ensembles over them, reads and writes the IDX image format, and ships
an experiment harness with seeded deterministic runs, CSV metrics and
exact small-sample Wilcoxon comparisons.
"""

from .data import (
    DataSplits,
    Dataset,
    IdxFormatError,
    load_splits,
    load_splits_from_dir,
    load_test_set,
    parse_idx,
    read_idx,
    serialize_idx,
)
from .dropout import (DropoutMask, DropoutSpec, all_ones_mask, sample_mask,
                      sample_masks)
from .ensemble import (
    EnsembleModel,
    EnsembleSpec,
    StackerSpec,
    aggregate,
    bootstrap_resample,
    stack_features,
    train_ensemble,
)
from .gradcheck import finite_difference_gradients, gradient_check
from .harness import (
    ExperimentConfig,
    RunRecord,
    RunSummary,
    compare_runs,
    export_metrics,
    parse_config,
    parse_metrics,
    read_config,
    run_experiment,
    train_run,
)
from .network import (
    Gradients,
    LayerSpec,
    NetworkParams,
    backward,
    chain_specs,
    forward,
    init_params,
    nll_loss,
    probabilities,
    softmax,
)
from .optimizers import (
    RpropConfig,
    RpropState,
    SgdConfig,
    dropout_rprop_step,
    init_rprop_state,
    rprop_step,
    sgd_step,
)
from .serialization import load_checkpoint, save_checkpoint
from .stats import WilcoxonResult, wilcoxon_signed_rank
from .tensor import RngStream
from .training import (
    DivergenceError,
    EpochRow,
    TrainResult,
    classification_error,
    counter_clock,
    train_model,
    wall_clock,
)

__version__ = "0.1.0"

__all__ = [
    "DataSplits", "Dataset", "IdxFormatError", "load_splits",
    "load_splits_from_dir", "load_test_set", "parse_idx", "read_idx",
    "serialize_idx",
    "DropoutMask", "DropoutSpec", "all_ones_mask", "sample_mask",
    "sample_masks",
    "EnsembleModel", "EnsembleSpec", "StackerSpec", "aggregate",
    "bootstrap_resample", "stack_features", "train_ensemble",
    "finite_difference_gradients", "gradient_check",
    "ExperimentConfig", "RunRecord", "RunSummary", "compare_runs",
    "export_metrics", "parse_config", "parse_metrics", "read_config",
    "run_experiment", "train_run",
    "Gradients", "LayerSpec", "NetworkParams", "backward", "chain_specs",
    "forward", "init_params", "nll_loss", "probabilities", "softmax",
    "RpropConfig", "RpropState", "SgdConfig", "dropout_rprop_step",
    "init_rprop_state", "rprop_step", "sgd_step",
    "load_checkpoint", "save_checkpoint",
    "WilcoxonResult", "wilcoxon_signed_rank",
    "RngStream",
    "DivergenceError", "EpochRow", "TrainResult", "classification_error",
    "counter_clock", "train_model", "wall_clock",
    "__version__",
]
