"""Verdict rules of scripts/bench_pairs.py, on hand-made pair data."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from resprop import harness
from resprop.data import STANDARD_NAMES

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "job_s", "better": "lower", "bound": 0.25},
           {"name": "eval_examples_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mib", "better": "lower", "bound": 0.1}]


def pairs(base, change):
    return list(zip(base, change, strict=True))


class TestSummarize:
    def test_wins_and_ties(self):
        s = bench_pairs.summarize(pairs([1, 2, 3, 4], [0.5, 2, 3.5, 3]),
                                  "lower")
        assert (s["n"], s["wins"], s["equal"]) == (4, 2, 1)
        s = bench_pairs.summarize(pairs([1, 2, 3, 4], [0.5, 2, 3.5, 3]),
                                  "higher")
        assert (s["wins"], s["equal"]) == (1, 1)

    def test_quartiles_per_side(self):
        s = bench_pairs.summarize(pairs([1, 2, 3, 4, 5], [5, 6, 7, 8, 9]),
                                  "lower")
        assert s["base"] == (2, 3, 4)
        assert s["change"] == (6, 7, 8)


class TestBoundViolations:
    def summaries(self, **medians):
        return {("desk-dropout", name): bench_pairs.summarize(
                    pairs([b] * 3, [c] * 3),
                    next(m["better"] for m in METRICS if m["name"] == name))
                for name, (b, c) in medians.items()}

    def test_flags_only_metrics_worse_than_their_bound(self):
        found = bench_pairs.bound_violations(self.summaries(
            job_s=(10.0, 12.6),               # 26% slower: over 0.25
            eval_examples_per_s=(100.0, 76.0),  # 24% fewer: within 0.25
            peak_rss_mib=(200.0, 150.0),      # better
        ), METRICS)
        assert [(w, n) for w, n, _ in found] == [("desk-dropout", "job_s")]
        assert found[0][2] == pytest.approx(0.26)

    def test_direction_of_higher_is_better(self):
        found = bench_pairs.bound_violations(
            self.summaries(eval_examples_per_s=(100.0, 70.0)), METRICS)
        assert [n for _, n, _ in found] == ["eval_examples_per_s"]
        assert found[0][2] == pytest.approx(0.30)

    def test_exactly_at_the_bound_passes(self):
        assert bench_pairs.bound_violations(
            self.summaries(peak_rss_mib=(200.0, 220.0)), METRICS) == []

    def test_zero_base_median(self):
        assert bench_pairs.bound_violations(
            self.summaries(job_s=(0.0, 0.0)), METRICS) == []
        found = bench_pairs.bound_violations(
            self.summaries(job_s=(0.0, 0.1)), METRICS)
        assert [n for _, n, _ in found] == ["job_s"]

    def test_reads_the_committed_benchmark_bounds(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["end_to_end"]}
        assert {m["name"] for m in METRICS} <= names
        summaries = {("fullbatch-nodrop", "peak_rss_mib"):
                     bench_pairs.summarize(pairs([250.0] * 2, [280.0] * 2),
                                           "lower")}
        assert bench_pairs.bound_violations(summaries, spec["end_to_end"])


class TestClaimMet:
    BASE = [194.0, 193.9, 194.2, 194.0, 194.1, 193.8, 194.0, 194.3, 194.0, 193.9]

    def test_nine_of_ten_and_gap_above_iqr(self):
        change = [155.0] * 9 + [195.0]
        s = bench_pairs.summarize(pairs(self.BASE, change), "lower")
        assert s["wins"] == 9
        assert bench_pairs.claim_met(s, "lower")

    def test_eight_of_ten_fails(self):
        change = [155.0] * 8 + [195.0, 195.0]
        s = bench_pairs.summarize(pairs(self.BASE, change), "lower")
        assert not bench_pairs.claim_met(s, "lower")

    def test_ties_do_not_count_as_wins(self):
        change = [155.0] * 8 + self.BASE[8:]
        s = bench_pairs.summarize(pairs(self.BASE, change), "lower")
        assert (s["wins"], s["equal"]) == (8, 2)
        assert not bench_pairs.claim_met(s, "lower")

    def test_gap_within_base_iqr_fails(self):
        base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        change = [b - 0.5 for b in base]   # wins 10/10, gap 0.5, IQR 4.5
        s = bench_pairs.summarize(pairs(base, change), "lower")
        assert s["wins"] == 10
        assert not bench_pairs.claim_met(s, "lower")

    def test_higher_is_better(self):
        base = [100.0, 101.0, 99.0, 100.0]
        s = bench_pairs.summarize(pairs(base, [b + 10 for b in base]),
                                  "higher")
        assert bench_pairs.claim_met(s, "higher")
        s = bench_pairs.summarize(pairs(base, [b - 10 for b in base]),
                                  "higher")
        assert not bench_pairs.claim_met(s, "higher")


class TestTracedReport:
    def run(self, side, optimizer_frac, network_frac, exit=0):
        return {"side": side, "seed": 11, "exit": exit, "metrics": {
            "harness.run_experiment.optimizer_frac": optimizer_frac,
            "harness.run_experiment.network_frac": network_frac}}

    def test_margins_and_their_change(self):
        lines = bench_pairs.report_traced("desk-dropout", [
            self.run("base", 0.470, 0.440), self.run("change", 0.456, 0.438)])
        assert lines[0].startswith("traced base (seed 11, exit 0): ")
        assert lines[0].endswith(", margin +0.0300")
        assert lines[1].endswith(", margin +0.0180")
        assert lines[2:] == ["traced desk-dropout margin change - base: -0.0120"]

    def test_a_failing_margin_reads_negative(self):
        lines = bench_pairs.report_traced("desk-dropout", [
            self.run("base", 0.45, 0.44), self.run("change", 0.43, 0.44, 1)])
        assert lines[1].startswith("traced change (seed 11, exit 1): ")
        assert lines[1].endswith(", margin -0.0100")
        assert lines[2].endswith("change - base: -0.0200")

    def test_a_missing_fraction_or_side(self):
        run = self.run("change", 0.4, 0.3)
        del run["metrics"]["harness.run_experiment.network_frac"]
        assert bench_pairs.report_traced("w", [run])[0].endswith(", margin +nan")
        assert len(bench_pairs.report_traced("w", [self.run("base", 0.4, 0.3)])) == 1


class TestDifferingFiles:
    def write(self, root, files):
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)

    def test_identical_trees(self, tmp_path):
        files = {"summary.txt": b"report\n", "sgd/model-seed1.ckpt": b"\0\1\2"}
        self.write(tmp_path / "a", files)
        self.write(tmp_path / "b", files)
        assert bench_pairs.differing_files(tmp_path / "a", tmp_path / "b") == []

    def test_one_byte_difference(self, tmp_path):
        files = {"summary.txt": b"report\n", "sgd/model-seed1.ckpt": b"\0\1\2"}
        self.write(tmp_path / "a", files)
        self.write(tmp_path / "b", {**files, "sgd/model-seed1.ckpt": b"\0\1\3"})
        assert bench_pairs.differing_files(tmp_path / "a", tmp_path / "b") == [
            "sgd/model-seed1.ckpt"]

    def test_a_file_only_one_tree_holds(self, tmp_path):
        self.write(tmp_path / "a", {"summary.txt": b"x"})
        self.write(tmp_path / "b", {"summary.txt": b"x", "extra.csv": b""})
        assert bench_pairs.differing_files(tmp_path / "a", tmp_path / "b") == [
            "extra.csv"]

    def test_output_root_is_masked_in_config_and_spec(self, tmp_path):
        for side in ("a", "b"):
            root = tmp_path / side
            self.write(root, {name: f"out_dir = {root}/sgd\n".encode()
                              for name in ("sgd/config.txt", "bagging-2/spec.txt",
                                           "sgd/other.txt")})
        assert bench_pairs.differing_files(tmp_path / "a", tmp_path / "b") == [
            "sgd/other.txt"]


class TestArtifactRuns:
    def configs(self, tmp_path, name):
        exp, ens = bench_pairs.artifact_files(name)
        (tmp_path / "exp.cfg").write_text(exp)
        (tmp_path / "ens.cfg").write_text(ens)
        return (harness.read_config(tmp_path / "exp.cfg"),
                harness.read_ensemble_config(tmp_path / "ens.cfg"))

    def test_first_run_trains_under_dropout(self, tmp_path):
        cfg, spec = self.configs(tmp_path, "dropout")
        assert cfg.dropout_hidden == spec.dropout_hidden == 0.5
        assert cfg.batch_size < cfg.train_size

    def test_second_run_trains_unmasked_and_full_batch(self, tmp_path):
        cfg, spec = self.configs(tmp_path, "nodrop-fullbatch")
        assert cfg.dropout_spec().is_off and spec.dropout_spec().is_off
        assert spec.stacker_dropout_hidden == 0.0
        assert cfg.batch_size == cfg.train_size


class TestCorpora:
    # appended to a copy of synthetic.py: every image corpus it renders
    # has one pixel of its first image changed
    FLIP = ("\n_render = generate_corpus\n\n\n"
            "def generate_corpus(n, rng):\n"
            "    images, labels = _render(n, rng)\n"
            "    images[:1, 0, 0] ^= 1\n"
            "    return images, labels\n")

    def test_each_tree_writes_its_own_corpus(self, tmp_path, capsys):
        flipped = tmp_path / "flipped"
        shutil.copytree(ROOT / "src", flipped / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = flipped / "src" / "resprop" / "synthetic.py"
        path.write_text(path.read_text() + self.FLIP)
        for base, code, differ in ((ROOT, 0, []),
                                   (flipped, 1, ["t10k-images-idx3-ubyte",
                                                 "train-images-idx3-ubyte"])):
            work = tmp_path / f"work-{code}"
            work.mkdir()
            corpora = bench_pairs.write_corpora(
                {"base": base, "change": ROOT}, work)
            assert sorted(p.name for p in corpora["change"].iterdir()) == \
                sorted(STANDARD_NAMES.values())
            assert bench_pairs.report_differences(
                "corpus", corpora["base"], corpora["change"], "files") == code
            lines = capsys.readouterr().out.splitlines()
            assert lines == [f"DIFFERS: corpus/{name}" for name in differ] + [
                f"corpus: {len(differ)} of 4 files differ"]

    def test_a_failed_synth_is_reported(self, tmp_path, capsys):
        broken = tmp_path / "broken"
        (broken / "src").mkdir(parents=True)
        assert bench_pairs.write_corpora(
            {"base": broken, "change": ROOT}, tmp_path) is None
        assert capsys.readouterr().out.startswith(
            "NONZERO EXIT 1: resprop synth of base")
