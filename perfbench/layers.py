"""Which program callables the traced run wraps, and the per-layer
metrics computed from their spans.

Span names are `<module>.<callable>`. Computed rates use these
formulas (P = a network's parameter count, B = batch rows, and
fi x fo each weight matrix's shape):

* `optimizers.sgd_step.gb_s`: 3 float64 per parameter (read w and g,
  write w) -> 24 * P bytes per call.
* `optimizers.rprop_step.gb_s`: 7 float64 per parameter (read w, g,
  delta and stored gradient; write w, delta and stored gradient)
  -> 56 * P bytes per call.
* `optimizers.dropout_rprop_step.gb_s`: the same plus one read of the
  weight-space mask -> 64 * P bytes per call.
* `network.forward.gflop_s`: 2 * B * sum(fi * fo) flops per call.
* `network.backward.gflop_s`: 2 * B * (2 * sum(fi * fo) - fi0 * fo0)
  flops per call, a weight-gradient product per layer plus a
  delta product per layer above the first.
* `*.mb_s`: file bytes read or written over busy time (1 MB = 1e6 B).

Each rate is total work over total busy time, so it is a computed
figure, not a hardware counter. Temporaries the kernels build are not
counted.
"""

from __future__ import annotations

import os

from resprop import (data, dropout, ensemble, harness, network, optimizers,
                     serialization, stats, synthetic, tensor, training)

from spans import call_stats, self_times, under

OPTIMIZER_SPANS = ("optimizers.sgd_step", "optimizers.rprop_step",
                   "optimizers.dropout_rprop_step")
NETWORK_SPANS = ("network.forward", "network.backward", "network.nll_loss")
BYTES_PER_PARAM = {"optimizers.sgd_step": 24, "optimizers.rprop_step": 56,
                   "optimizers.dropout_rprop_step": 64}


def _matmul_sizes(params):
    sizes = [s.fan_in * s.fan_out for s in params.specs]
    return sum(sizes), sizes[0]


def _forward_attrs(args, kwargs, result):
    total, _ = _matmul_sizes(args[0])
    return {"flops": 2 * len(args[1]) * total}


def _backward_attrs(args, kwargs, result):
    total, first = _matmul_sizes(args[0])
    return {"flops": 2 * args[1].batch_size * (2 * total - first)}


def _kernel_attrs(name):
    def attrs(args, kwargs, result):
        return {"bytes": BYTES_PER_PARAM[name] * args[0].num_parameters()}
    return attrs


def _dropout_kernel_attrs(args, kwargs, result):
    params, mask = args[0], args[4]
    nodes = [float(m.sum()) for m in mask.node_masks]
    live = sum(a * b + b for a, b in zip(nodes, nodes[1:]))
    total = params.num_parameters()
    return {"bytes": BYTES_PER_PARAM["optimizers.dropout_rprop_step"] * total,
            "live": live, "weights": total}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _train_attrs(args, kwargs, result):
    return {"input_width": args[0].input_width}


def _corpus_attrs(args, kwargs, result):
    return {"examples": args[0]}


TARGETS = [
    ("optimizers.sgd_step", optimizers, "sgd_step",
     _kernel_attrs("optimizers.sgd_step")),
    ("optimizers.rprop_step", optimizers, "rprop_step",
     _kernel_attrs("optimizers.rprop_step")),
    ("optimizers.dropout_rprop_step", optimizers, "dropout_rprop_step",
     _dropout_kernel_attrs),
    ("dropout.sample_mask", dropout, "sample_mask", None),
    ("dropout.DropoutMask.weight_masks", dropout.DropoutMask, "weight_masks",
     None),
    ("network.forward", network, "forward", _forward_attrs),
    ("network.backward", network, "backward", _backward_attrs),
    ("network.nll_loss", network, "nll_loss", None),
    ("training.train_model", training, "train_model", _train_attrs),
    ("training.classification_error", training, "classification_error", None),
    ("tensor.RngStream.permutation", tensor.RngStream, "permutation", None),
    ("tensor.RngStream.uniform", tensor.RngStream, "uniform", None),
    ("synthetic.generate_corpus", synthetic, "generate_corpus",
     _corpus_attrs),
    ("synthetic.write_corpus", synthetic, "write_corpus", None),
    ("data.read_idx", data, "read_idx", _file_attrs),
    ("serialization.save_checkpoint", serialization, "save_checkpoint",
     _file_attrs),
    ("serialization.load_checkpoint", serialization, "load_checkpoint",
     _file_attrs),
    ("ensemble.train_ensemble", ensemble, "train_ensemble", None),
    ("ensemble.bootstrap_resample", ensemble, "bootstrap_resample", None),
    ("ensemble.aggregate", ensemble, "aggregate", None),
    ("ensemble.EnsembleModel.predict", ensemble.EnsembleModel, "predict", None),
    ("ensemble.save_ensemble", ensemble, "save_ensemble", None),
    ("ensemble.load_ensemble", ensemble, "load_ensemble", None),
    ("harness.run_experiment", harness, "run_experiment", None),
    ("harness.run_ensemble", harness, "run_ensemble", None),
    ("harness.compare_runs", harness, "compare_runs", None),
    ("stats.wilcoxon_signed_rank", stats, "wilcoxon_signed_rank", None),
]

# Set-up layers are traced during a set-up of their own and the rest
# during the job, so that wrappers of one phase do not inflate the other.
SETUP_SPANS = ("synthetic.generate_corpus", "synthetic.write_corpus",
               "data.read_idx")
SETUP_TARGETS = [t for t in TARGETS if t[0] in SETUP_SPANS]
JOB_TARGETS = [t for t in TARGETS if t[0] not in SETUP_SPANS]

STAT_UNITS = {"calls": "count", "busy_ms": "ms", "self_ms": "ms",
              "p50_ms": "ms", "gb_s": "GB/s", "gflop_s": "GFLOP/s",
              "mb_s": "MB/s", "examples_s": "examples/s",
              "live_frac": "fraction", "optimizer_frac": "fraction",
              "network_frac": "fraction", "stacker_live_frac": "fraction",
              "stacker_optimizer_frac": "fraction"}

TIMING = ("calls", "busy_ms", "self_ms", "p50_ms")
# rate stat -> (span attribute holding the work, units per reported unit)
RATES = {"gb_s": ("bytes", 1e9), "gflop_s": ("flops", 1e9),
         "mb_s": ("bytes", 1e6), "examples_s": ("examples", 1.0)}
PLAN = {
    "optimizers.sgd_step": TIMING + ("gb_s",),
    "optimizers.rprop_step": TIMING + ("gb_s",),
    "optimizers.dropout_rprop_step": TIMING + ("gb_s", "live_frac"),
    "dropout.sample_mask": TIMING,
    "dropout.DropoutMask.weight_masks": TIMING,
    "network.forward": ("calls", "busy_ms", "p50_ms", "gflop_s"),
    "network.backward": ("calls", "busy_ms", "p50_ms", "gflop_s"),
    "network.nll_loss": ("calls", "busy_ms", "p50_ms"),
    "training.train_model": ("busy_ms", "self_ms", "optimizer_frac",
                             "network_frac"),
    "training.classification_error": ("calls", "busy_ms", "p50_ms"),
    "tensor.RngStream.permutation": ("calls", "busy_ms", "p50_ms"),
    "tensor.RngStream.uniform": ("calls", "busy_ms", "p50_ms"),
    "synthetic.generate_corpus": ("busy_ms", "examples_s"),
    "synthetic.write_corpus": ("self_ms",),
    "data.read_idx": ("calls", "busy_ms", "mb_s"),
    "serialization.save_checkpoint": ("calls", "busy_ms", "mb_s"),
    "serialization.load_checkpoint": ("calls", "busy_ms", "mb_s"),
    "ensemble.train_ensemble": ("calls", "busy_ms", "self_ms",
                                "stacker_live_frac", "stacker_optimizer_frac"),
    "ensemble.bootstrap_resample": ("calls", "busy_ms", "self_ms"),
    "ensemble.aggregate": ("calls", "busy_ms", "self_ms"),
    "ensemble.EnsembleModel.predict": ("calls", "busy_ms", "self_ms"),
    "ensemble.save_ensemble": ("calls", "busy_ms", "self_ms"),
    "ensemble.load_ensemble": ("calls", "busy_ms", "self_ms"),
    "harness.run_experiment": ("self_ms", "optimizer_frac", "network_frac",
                               "live_frac"),
    "harness.run_ensemble": ("self_ms",),
    "harness.compare_runs": ("busy_ms",),
    "stats.wilcoxon_signed_rank": ("calls", "busy_ms"),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    return [(f"{span}.{stat}", STAT_UNITS[stat])
            for span, stat_list in PLAN.items() for stat in stat_list]


def _scope(spans, is_root) -> tuple[float, list[int]]:
    """Busy time of the spans `is_root` picks, and the indices of the
    spans nested under them."""
    busy = sum(s.duration for s in spans if is_root(s))
    return busy, [i for i in range(len(spans)) if under(spans, i, is_root)]


def _busy_frac(spans, scope, names) -> float:
    busy, inside = scope
    work = sum(spans[i].duration for i in inside if spans[i].name in names)
    return work / busy if busy else 0.0


def _live_frac(spans, indices) -> float:
    kernel = [spans[i].attrs for i in indices
              if spans[i].name == "optimizers.dropout_rprop_step"]
    weights = sum(a["weights"] for a in kernel)
    return sum(a["live"] for a in kernel) / weights if weights else 0.0


def layer_metrics(setup_spans, spans) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from one traced set-up and one traced job:
    set-up layers from `setup_spans`, all others from the job's `spans`."""
    phases = {False: (spans, self_times(spans)),
              True: (setup_spans, self_times(setup_spans))}
    out = {}

    def put(span, stat, value):
        out[f"{span}.{stat}"] = (value, STAT_UNITS[stat])

    for span, stat_list in PLAN.items():
        traced, selfs = phases[span in SETUP_SPANS]
        cs = call_stats(traced, span, selfs)
        for stat in set(stat_list) & set(TIMING):
            put(span, stat, cs.calls if stat == "calls" else
                1000.0 * {"busy_ms": cs.busy_s, "self_ms": cs.self_s,
                          "p50_ms": cs.p50_s}[stat])
        for stat in set(stat_list) & set(RATES):
            key, unit = RATES[stat]
            work = sum(s.attrs[key] for s in traced if s.name == span)
            put(span, stat, work / unit / cs.busy_s if cs.busy_s else 0.0)

    for root in ("training.train_model", "harness.run_experiment"):
        scope = _scope(spans, lambda s, r=root: s.name == r)
        put(root, "optimizer_frac", _busy_frac(spans, scope, OPTIMIZER_SPANS))
        put(root, "network_frac", _busy_frac(spans, scope, NETWORK_SPANS))
    put("harness.run_experiment", "live_frac", _live_frac(
        spans, _scope(spans, lambda s: s.name == "harness.run_experiment")[1]))
    put("optimizers.dropout_rprop_step", "live_frac",
        _live_frac(spans, range(len(spans))))
    member_width = next(s.attrs["input_width"] for s in spans
                        if s.name == "training.train_model")
    stacker = _scope(spans, lambda s: s.name == "training.train_model"
                     and s.attrs["input_width"] != member_width)
    put("ensemble.train_ensemble", "stacker_live_frac",
        _live_frac(spans, stacker[1]))
    put("ensemble.train_ensemble", "stacker_optimizer_frac",
        _busy_frac(spans, stacker, OPTIMIZER_SPANS))
    return {name: out[name] for name, _ in metric_names()}
