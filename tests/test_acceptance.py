"""Acceptance suite: the nine required behaviors at their stated bounds.

Each criterion is one test that prints a single `criterion N: PASS/FAIL`
line (visible with -s, on failure, or in captured output) and asserts
the bound. The desk-scale training criteria share one synthetic corpus
generated per session; criterion 8 additionally exercises the real
handwriting files when RESPROP_MNIST_DIR points at them.

Desk-scale model settings mirror the package defaults: 784-300-100-10,
dropout 0.5 on hidden layers, batch 100, seeds 1-5, SGD at rate 0.01,
step bounds [1e-3, 5] with initial step 3e-3. The two Rprop variants
run at their per-variant tuned growth factors (1.3 classic, 1.2
dropout-aware); every data-side setting is identical across models.
"""

import gzip
import os
import statistics
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from resprop.data import (
    find_standard_files,
    load_splits_from_dir,
    parse_idx,
    serialize_idx,
)
from resprop.dropout import DropoutMask, DropoutSpec, all_ones_mask, sample_mask
from resprop.ensemble import EnsembleSpec, train_ensemble
from resprop.gradcheck import gradient_check
from resprop.network import (
    LayerSpec,
    NetworkParams,
    chain_specs,
    init_params,
)
from resprop.optimizers import (
    RpropConfig,
    RpropState,
    SgdConfig,
    dropout_rprop_step,
    init_rprop_state,
    rprop_step,
)
from resprop.stats import wilcoxon_signed_rank
from resprop.synthetic import write_corpus
from resprop.tensor import RngStream
from resprop.training import classification_error, train_model

SIZES = (784, 300, 100, 10)
SEEDS = (1, 2, 3, 4, 5)
BATCH = 100
EPOCHS = 30
DROPOUT = DropoutSpec.for_sizes(SIZES, hidden_rate=0.5, input_rate=0.0)
SGD_CFG = SgdConfig(learning_rate=0.01)
RPROP_CLASSIC = RpropConfig(eta_plus=1.3, eta_minus=0.5, delta_max=5.0,
                            delta_min=1e-3, delta_init=3e-3)
RPROP_MOD = RpropConfig(eta_plus=1.2, eta_minus=0.5, delta_max=5.0,
                        delta_min=1e-3, delta_init=3e-3)


def report(n: int, ok: bool, detail: str) -> None:
    line = "criterion %d: %s - %s" % (n, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(out, n_train=7000, n_test=1500, seed=901)
    return out


@pytest.fixture(scope="module")
def splits(corpus_dir):
    return load_splits_from_dir(corpus_dir, 5000, 1000, 1000)


def kink_free(params, x, margin=2e-4):
    """True when no rectifier preactivation sits within `margin` of 0.

    Central differences are not a valid derivative oracle across the
    rectifier kink, so rectifier draws that graze it are redrawn.
    """
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w + b
        if np.abs(z).min() <= margin:
            return False
        a = np.maximum(z, 0.0)
    return True


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    activations = ("rectifier", "logistic", "tanh")
    worst = 0.0
    checked = 0
    for k in range(20):
        act = activations[k % 3]
        depth = int(rng.integers(2, 5))
        sizes = [int(s) for s in rng.integers(2, 13, size=depth + 1)]
        batch = int(rng.integers(2, 7))
        for attempt in range(50):
            s = RngStream(1000 + 97 * k, attempt)
            params = init_params(chain_specs(sizes, act), s)
            x = s.uniform(0.0, 1.0, size=(batch, sizes[0]))
            labels = s.integers(sizes[-1], size=batch)
            if act != "rectifier" or kink_free(params, x):
                break
        assert params.num_parameters() <= 1000
        rep = gradient_check(params, x, labels, h=1e-5, tol=1e-5)
        worst = max(worst, rep.max_rel_err)
        checked += rep.n_coordinates
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report(1, ok, "20 architectures, %d coordinates, worst rel err %.3g, "
                  "%.1fs" % (checked, worst, elapsed))


ONE_WEIGHT = (LayerSpec(1, 1, "identity"),)


def one_weight_net(w=0.0):
    return NetworkParams(ONE_WEIGHT, [np.array([[float(w)]])], [np.zeros(1)])


def one_weight_state(delta, prev):
    # flat buffers: the weight's entry, then the bias's
    return RpropState(ONE_WEIGHT, np.array([float(delta), 0.1]),
                      np.array([float(prev), 0.0]))


def one_weight_grads(g):
    return NetworkParams(ONE_WEIGHT, [np.array([[float(g)]])], [np.zeros(1)])


def one_weight_mask(live: bool):
    return DropoutMask([np.array([1.0 if live else 0.0]), np.ones(1)])


def test_criterion_2_kernel_oracle():
    cfg = RpropConfig(eta_plus=1.2, eta_minus=0.5, delta_max=50.0,
                      delta_min=1e-6, delta_init=0.1)
    checks = []

    def trace(step, w, delta, prev, g, want_w, want_delta, want_prev, **kw):
        p, s = step(one_weight_net(w), one_weight_grads(g),
                    one_weight_state(delta, prev), cfg, **kw)
        got = (p.weights[0][0, 0], s.delta_w[0][0, 0], s.prev_w[0][0, 0])
        checks.append(got == (want_w, want_delta, want_prev))

    # same sign: grow 0.5 * 1.2 = 0.6, move -sgn(2) * 0.6
    trace(rprop_step, 1.0, 0.5, 1.0, 2.0, 1.0 - 0.6, 0.6, 2.0)
    # growth clamps at delta_max
    trace(rprop_step, 0.0, 45.0, 1.0, 1.0, -50.0, 50.0, 1.0)
    # sign flip: shrink 0.5 * 0.5, hold weight, clear prev
    trace(rprop_step, 1.0, 0.5, 1.0, -2.0, 1.0, 0.25, 0.0)
    # shrink clamps at delta_min
    trace(rprop_step, 1.0, 1e-6, 1.0, -2.0, 1.0, 1e-6, 0.0)
    # zero product (prev just cleared): move by unchanged delta
    trace(rprop_step, 1.0, 0.25, 0.0, 1.0, 0.75, 0.25, 1.0)
    # genuine zero gradient: sgn(0) = 0 so the weight holds, prev := 0
    trace(rprop_step, 1.0, 0.5, 1.0, 0.0, 1.0, 0.5, 0.0)

    # masked weight frozen in every field
    trace(dropout_rprop_step, 1.0, 0.5, 1.0, 2.0, 1.0, 0.5, 1.0,
          mask=one_weight_mask(live=False))
    # live zero product with prev = 0: move and store the gradient
    trace(dropout_rprop_step, 1.0, 0.25, 0.0, 1.0, 0.75, 0.25, 1.0,
          mask=one_weight_mask(live=True))
    # live genuine zero (prev != 0): hold everything
    trace(dropout_rprop_step, 1.0, 0.5, 1.0, 0.0, 1.0, 0.5, 1.0,
          mask=one_weight_mask(live=True))
    # live same sign matches the classic kernel exactly
    trace(dropout_rprop_step, 1.0, 0.5, 1.0, 2.0, 1.0 - 0.6, 0.6, 2.0,
          mask=one_weight_mask(live=True))
    # live sign flip matches the classic kernel exactly
    trace(dropout_rprop_step, 1.0, 0.5, 1.0, -2.0, 1.0, 0.25, 0.0,
          mask=one_weight_mask(live=True))

    ok = all(checks)
    report(2, ok, "%d/%d hand traces exact" % (sum(checks), len(checks)))


def test_criterion_3_reduction_equivalence():
    t0 = time.perf_counter()
    sizes = (784, 50, 10)
    cfg = RpropConfig(delta_init=0.01)
    params_a = init_params(chain_specs(sizes), RngStream(3, 0))
    params_b = params_a.copy()
    state_a = init_rprop_state(params_a, cfg)
    state_b = init_rprop_state(params_b, cfg)
    mask = all_ones_mask(chain_specs(sizes))
    grad_rng = RngStream(4, 0)
    identical = True
    for _ in range(100):
        grads = NetworkParams(
            params_a.specs,
            [grad_rng.uniform(-1.0, 1.0, size=w.shape) for w in params_a.weights],
            [grad_rng.uniform(-1.0, 1.0, size=b.shape) for b in params_a.biases],
        )
        params_a, state_a = rprop_step(params_a, grads, state_a, cfg)
        params_b, state_b = dropout_rprop_step(params_b, grads, state_b, cfg,
                                               mask)
        for xa, xb in zip(
            params_a.weights + params_a.biases + state_a.delta_w
            + state_a.delta_b + state_a.prev_w + state_a.prev_b,
            params_b.weights + params_b.biases + state_b.delta_w
            + state_b.delta_b + state_b.prev_w + state_b.prev_b,
        ):
            if not np.array_equal(xa, xb):
                identical = False
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 60.0
    report(3, ok, "100 steps on 784-50-10 bit-equal, %.1fs" % elapsed)


def test_criterion_4_mask_freeze_invariant():
    sizes = (20, 16, 10)
    specs = chain_specs(sizes)
    cfg = RpropConfig(delta_init=0.01)
    spec = DropoutSpec.for_sizes(sizes, hidden_rate=0.5, input_rate=0.2)
    params = init_params(specs, RngStream(9, 0))
    state = init_rprop_state(params, cfg)
    rng = RngStream(10, 0)
    violations = 0
    for _ in range(1000):
        mask = sample_mask(spec, specs, rng)
        grads = NetworkParams(
            specs,
            [rng.uniform(-1.0, 1.0, size=w.shape) for w in params.weights],
            [rng.uniform(-1.0, 1.0, size=b.shape) for b in params.biases],
        )
        new_params, new_state = dropout_rprop_step(params, grads, state, cfg,
                                                   mask)
        wmasks = mask.weight_masks(params)
        bmasks = mask.bias_masks(params)
        for l in range(params.num_layers):
            dead_w = wmasks[l] == 0.0
            dead_b = bmasks[l] == 0.0
            for old, new in (
                (params.weights[l], new_params.weights[l]),
                (state.delta_w[l], new_state.delta_w[l]),
                (state.prev_w[l], new_state.prev_w[l]),
            ):
                violations += int(np.sum(old[dead_w] != new[dead_w]))
            for old, new in (
                (params.biases[l], new_params.biases[l]),
                (state.delta_b[l], new_state.delta_b[l]),
                (state.prev_b[l], new_state.prev_b[l]),
            ):
                violations += int(np.sum(old[dead_b] != new[dead_b]))
        params, state = new_params, new_state
    report(4, violations == 0,
           "1000 random steps, %d frozen-triple violations" % violations)


def median_run(splits, optimizer, opt_cfg):
    firsts, bests = [], []
    for seed in SEEDS:
        params = init_params(chain_specs(SIZES), RngStream(seed, 0))
        res = train_model(params, splits.train, splits.validation, optimizer,
                          opt_cfg, epoch_cap=EPOCHS, batch_size=BATCH,
                          seed=seed, dropout=DROPOUT)
        firsts.append(res.first_epoch_val_err)
        bests.append(res.best_val_err)
    return statistics.median(firsts), statistics.median(bests)


def test_criterion_5_desk_scale_single_models(splits):
    t0 = time.perf_counter()
    sgd_first, sgd_best = median_run(splits, "sgd", SGD_CFG)
    classic_first, classic_best = median_run(splits, "rprop", RPROP_CLASSIC)
    mod_first, mod_best = median_run(splits, "mod-rprop", RPROP_MOD)
    elapsed = time.perf_counter() - t0
    threshold = 0.5 * sgd_first
    ok_a = classic_first <= threshold and mod_first <= threshold
    ok_b = mod_best <= classic_best
    ok = ok_a and ok_b and elapsed <= 1200.0
    report(5, ok,
           "1st-epoch medians sgd %.4f / classic %.4f / mod %.4f "
           "(bound %.4f, a %s); 30-epoch best classic %.4f vs mod %.4f "
           "(b %s); %.0fs"
           % (sgd_first, classic_first, mod_first, threshold,
              "ok" if ok_a else "VIOLATED", classic_best, mod_best,
              "ok" if ok_b else "VIOLATED", elapsed))


def test_criterion_6_desk_scale_ensemble(splits):
    t0 = time.perf_counter()
    spec = EnsembleSpec("bagging", 3, SIZES, member_epoch_cap=10,
                        aggregation="probability-average")
    ens_errs, member_medians = [], []
    for seed in SEEDS:
        training = train_ensemble(spec, splits, RPROP_MOD, seed=seed,
                                  batch_size=BATCH, member_dropout=DROPOUT)
        members = [classification_error(m, splits.test)
                   for m in training.model.members]
        ens_errs.append(training.model.classification_error(splits.test))
        member_medians.append(statistics.median(members))
    elapsed = time.perf_counter() - t0
    ens_med = statistics.median(ens_errs)
    member_med = statistics.median(member_medians)
    ok = ens_med <= member_med and elapsed <= 1800.0
    report(6, ok, "bagging N=3 test err median %.4f vs member median %.4f, "
                  "%.0fs" % (ens_med, member_med, elapsed))


def enumerate_signed_rank(diffs, alternative):
    """Exhaustive sign-flip null distribution for W+ on these diffs."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 0.0, 1.0
    mag = np.abs(d)
    order = np.argsort(mag, kind="stable")
    ranks = np.empty(n)
    sorted_mag = mag[order]
    i = 0
    while i < n:
        j = i
        while j < n and sorted_mag[j] == sorted_mag[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    w_plus = float(ranks[d > 0].sum())
    stats = []
    for signs in product((0.0, 1.0), repeat=n):
        stats.append(float(np.dot(signs, ranks)))
    stats = np.array(stats)
    total = len(stats)
    if alternative == "two-sided":
        mean = n * (n + 1) / 4.0
        dev = abs(w_plus - mean)
        p = np.sum(np.abs(stats - mean) >= dev - 1e-9) / total
    elif alternative == "greater":
        p = np.sum(stats >= w_plus - 1e-9) / total
    else:
        p = np.sum(stats <= w_plus + 1e-9) / total
    return w_plus, min(1.0, float(p))


def test_criterion_7_wilcoxon_exactness():
    rng = np.random.default_rng(77)
    alternatives = ("two-sided", "greater", "less")
    mismatches = 0
    for case in range(1000):
        n = int(rng.integers(1, 11))
        x = rng.integers(-5, 6, size=n).astype(np.float64)
        y = rng.integers(-5, 6, size=n).astype(np.float64)
        alt = alternatives[case % 3]
        res = wilcoxon_signed_rank(x, y, alternative=alt)
        want_stat, want_p = enumerate_signed_rank(x - y, alt)
        if not (res.statistic == want_stat and res.p_value == want_p):
            mismatches += 1
    report(7, mismatches == 0,
           "1000 randomized cases n <= 10, %d mismatches vs enumeration"
           % mismatches)


def round_trip_dir(data_dir):
    """Byte round-trip plus range/pairing invariants for one directory."""
    files = find_standard_files(data_dir)
    ok = True
    counts = {}
    for key, path in files.items():
        raw = path.read_bytes()
        data = gzip.decompress(raw) if path.suffix == ".gz" else raw
        if serialize_idx(parse_idx(data)) != data:
            ok = False
        arr = parse_idx(data)
        counts[key] = arr.shape[0]
        ok = ok and arr.dtype == np.uint8
        if key.endswith("labels"):
            ok = ok and int(arr.min()) >= 0 and int(arr.max()) <= 9
    ok = ok and counts["train_images"] == counts["train_labels"]
    ok = ok and counts["test_images"] == counts["test_labels"]
    return ok


def test_criterion_8_idx_round_trip(corpus_dir):
    notes = []
    ok = round_trip_dir(corpus_dir)
    notes.append("4 synthetic files byte-identical")

    mnist_dir = os.environ.get("RESPROP_MNIST_DIR", "")
    if mnist_dir and Path(mnist_dir).is_dir():
        ok = ok and round_trip_dir(mnist_dir)
        notes.append("real files byte-identical, invariants hold")
    else:
        notes.append("real files absent (RESPROP_MNIST_DIR unset); "
                     "fixture clause only")
    report(8, ok, "; ".join(notes))


def run_cli_train(config_path, out_dir, seed):
    proc = subprocess.run(
        [sys.executable, "-m", "resprop.cli", "train",
         "--config", str(config_path), "--seed", str(seed),
         "--out", str(out_dir)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return (out_dir / f"metrics-seed{seed}.csv").read_bytes(), \
           (out_dir / "runs.csv").read_bytes()


def test_criterion_9_process_level_determinism(corpus_dir, tmp_path):
    configs = {
        "sgd.cfg": ("arch = 784-16-10\noptimizer = sgd\nlearning_rate = 0.1\n"
                    "epochs = 2\nbatch_size = 50\ndropout_hidden = 0\n"),
        "mod.cfg": ("arch = 784-16-10\noptimizer = mod-rprop\n"
                    "delta_init = 0.003\ndelta_max = 5\ndelta_min = 0.001\n"
                    "epochs = 2\nbatch_size = 50\ndropout_hidden = 0.5\n"),
    }
    shared = (f"data_dir = {corpus_dir}\ntrain_size = 300\nval_size = 100\n"
              "test_size = 100\nclock = counter\n")
    ok = True
    for name, body in configs.items():
        cfg_path = tmp_path / name
        cfg_path.write_text(body + shared)
        first = run_cli_train(cfg_path, tmp_path / (name + "-run1"), seed=7)
        second = run_cli_train(cfg_path, tmp_path / (name + "-run2"), seed=7)
        if first != second:
            ok = False
    report(9, ok, "2 configs x 2 process invocations, CSV bytes identical")
