"""scripts/reproduce.py end to end on a small synthetic corpus."""

import importlib.util
from pathlib import Path

import pytest

from resprop.synthetic import write_corpus

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reproduce", ROOT / "scripts" / "reproduce.py")
reproduce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce)
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SHARED = ("arch = 784-8-10\nbatch_size = 100\ntrain_size = 200\n"
          "val_size = 100\nclock = counter\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro")
    write_corpus(root / "digits", n_train=300, n_test=100, seed=5)
    (root / "exp.cfg").write_text(SHARED + "epochs = 1\nseeds = 1,2\n")
    (root / "ens.cfg").write_text(
        SHARED + "size = 2\nmember_epochs = 1\nstacker_epochs = 1\n")
    return root


def run(inputs, out, spec="ens.cfg", *extra):
    return reproduce.main(["--config", str(inputs / "exp.cfg"),
                           "--spec", str(inputs / spec),
                           "--data", str(inputs / "digits"), "--out", str(out),
                           *extra])


def test_report_is_byte_reproducible(inputs, tmp_path, capsys):
    assert run(inputs, tmp_path / "a") == 0
    printed = capsys.readouterr().out
    assert run(inputs, tmp_path / "b") == 0
    assert bench_pairs.differing_files(tmp_path / "a", tmp_path / "b") == []
    a = bench_pairs.tree_bytes(tmp_path / "a")
    assert b"<out>" in a["sgd/config.txt"]
    for opt in ("sgd", "rprop", "mod-rprop"):
        for name in ("runs.csv", "metrics-seed1.csv", "final-seed2.ckpt"):
            assert f"{opt}/{name}" in a
    assert b"prevgrad" in a["mod-rprop/final-seed1.ckpt"]
    for kind in ("bagging", "stacking"):
        for seed in (1, 2):
            assert f"{kind}-2/seed{seed}/ensemble.json" in a
    text = a["summary.txt"].decode()
    assert "not significant at the 98% confidence level" in text
    assert "stacking N=2 medians: member" in text
    assert printed == text


def test_unknown_spec_key_exits_2(inputs, tmp_path, capsys):
    (inputs / "bad.cfg").write_text("arch = 784-8-10\nboost = 1\n")
    assert run(inputs, tmp_path / "out", spec="bad.cfg") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: ensemble spec line 2: unknown key 'boost'\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_repeated_size_exits_2(inputs, tmp_path, capsys):
    assert run(inputs, tmp_path / "out", "ens.cfg", "--sizes", "2,2") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --sizes 2,2 repeats a size\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
