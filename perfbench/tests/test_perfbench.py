"""Tests of the benchmark itself: span arithmetic, metric names, and a
smoke-size run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from spans import Span, Tracer, call_stats, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_self_time_on_nested_span_tree():
    # root [0, 10] -> a [1, 4] -> a1 [1.5, 2], a2 [2.5, 3.5]
    #              -> b [5, 9] -> b1 [6, 8] -> b11 [6, 7]
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 1.5, 2.0, 1),
        Span("a2", 2.5, 3.5, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b1", 6.0, 8.0, 4),
        Span("b11", 6.0, 7.0, 5),
    ]
    assert self_times(spans) == pytest.approx(
        [10 - 3 - 4, 3 - 0.5 - 1, 0.5, 1.0, 4 - 2, 2 - 1, 1.0])


def test_busy_time_counts_recursion_once():
    spans = [Span("f", 0.0, 4.0, -1), Span("f", 1.0, 2.0, 0),
             Span("g", 5.0, 6.0, -1)]
    stats = call_stats(spans, "f")
    assert (stats.calls, stats.busy_s, stats.self_s) == (2, 4.0, 4.0)


def test_tracer_records_parents_and_restores_callers():
    from resprop import harness, training
    original = training.classification_error
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.installed([("t.ce", training, "classification_error", None),
                           ("t.pp", training, "predict_labels", None)],
                          "resprop"):
        assert harness.classification_error is not original
        import numpy as np
        from resprop.data import Dataset
        from resprop.network import chain_specs, init_params
        from resprop.tensor import RngStream
        params = init_params(chain_specs((4, 3)), RngStream(1, 0))
        training.classification_error(
            params, Dataset(np.zeros((2, 4)), np.zeros(2, dtype=np.int64)))
    assert harness.classification_error is original
    assert training.classification_error is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("t.ce", -1),
                                                          ("t.pp", 0)]


def test_metric_names_are_well_formed_and_match_the_program():
    import layers
    import run
    names = list(declared("end_to_end")) + list(declared("per_layer"))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert declared("per_layer") == dict(layers.metric_names())


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = run_bench(tmp_path, "desk-dropout", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
