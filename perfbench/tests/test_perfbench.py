"""Tests of the benchmark itself: schema, tiny runs, span nesting and the
answer check.  Every run here uses the tiny sizes and sub-second windows."""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import layers, oracle, run, workloads  # noqa: E402
from repro.knowledge.evaluator import KnowledgeEvaluator  # noqa: E402
from repro.knowledge.formula import CommonKnowledge, Knows, Or  # noqa: E402
from repro.protocols.broadcast import fact_known_atom  # noqa: E402
from repro.universe import Universe  # noqa: E402


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def tiny_report(name: str, trace: bool, tmp_path, monkeypatch) -> dict:
    monkeypatch.chdir(tmp_path)
    work_dir = tmp_path / "work"
    work_dir.mkdir()
    workload = workloads.make(name, 7, str(work_dir), tiny=True)
    return run.measure(workload, 0.3, trace, setup_times=[0.1])


def test_workload_names_match_benchmark_json():
    spec = benchmark_json()
    assert [entry["name"] for entry in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_emits_every_metric_and_answers_right(
    name, trace, tmp_path, monkeypatch
):
    report = tiny_report(name, trace, tmp_path, monkeypatch)
    result = report["result"]
    expected = layers.metric_units("per_layer" if trace else "end_to_end")
    assert {
        metric: entry["unit"] for metric, entry in result["metrics"].items()
    } == expected
    assert all(
        isinstance(entry["value"], (int, float))
        for entry in result["metrics"].values()
    )
    assert result["attempted"] >= 1
    assert result["failed"] == 0, report["context"]["problems"]
    assert result["correct"] is True
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def spans_of(report) -> list[dict]:
    with open(report["context"]["spans_file"]) as handle:
        return [json.loads(line) for line in handle]


def children_of(spans, parent) -> list[dict]:
    return sorted(
        (span for span in spans if span["parent"] == parent["span_id"]),
        key=lambda span: span["start"],
    )


def test_checkpointed_explore_span_nests_its_children(tmp_path, monkeypatch):
    spans = spans_of(tiny_report("query-knowledge", True, tmp_path, monkeypatch))
    (setup,) = [span for span in spans if span["name"] == "setup"]
    (explore,) = [
        span for span in children_of(spans, setup) if span["name"] == "universe.explore"
    ]
    children = children_of(spans, explore)
    assert {span["name"] for span in children} >= {
        "checkpoint.resume",
        "checkpoint.commit",
        "checkpoint.flush",
    }
    edge = explore["start"]
    for child in children:
        assert child["thread"] == explore["thread"]
        assert edge <= child["start"] <= child["end"] <= explore["end"]
        edge = child["end"]
    writes = [span for span in spans if span["name"] == "fileops.write"]
    assert writes and all(span["thread"] != explore["thread"] for span in writes)


def test_kernel_self_time_is_the_explore_span_minus_its_children(
    tmp_path, monkeypatch
):
    report = tiny_report("explore-star-sharded", True, tmp_path, monkeypatch)
    spans = spans_of(report)
    explores = [span for span in spans if span["name"] == "universe.explore"]
    assert explores
    explore_s = self_s = 0.0
    for explore in explores:
        children_s = sum(
            span["end"] - span["start"] for span in children_of(spans, explore)
        )
        explore_s += explore["end"] - explore["start"]
        self_s += explore["end"] - explore["start"] - children_s
    metrics = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    assert metrics["kernel.explore_s"] == pytest.approx(explore_s / len(explores))
    assert metrics["kernel.self_s"] == pytest.approx(self_s / len(explores))
    assert 0 < metrics["kernel.self_s"] < metrics["kernel.explore_s"]


def test_traced_query_run_times_the_checkpoint_and_isomorphism_layers(
    tmp_path, monkeypatch
):
    report = tiny_report("query-knowledge", True, tmp_path, monkeypatch)
    metrics = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    for name in (
        "iso.sweep_s",
        "iso.partition_table_s",
        "iso.partition_table_builds",
        "iso.refinement_s",
        "iso.contained_classes_s",
        "knowledge.knows_self_s",
        "checkpoint.commit_s",
        "checkpoint.fsync_s",
        "checkpoint.resume_s",
        "checkpoint.bytes_written",
        "checkpoint.file_bytes",
    ):
        assert metrics[name] > 0, name
    assert metrics["iso.partition_table_builds"] <= metrics["iso.partition_table_calls"]


def test_closed_forms_agree_with_the_hand_written_constants():
    assert oracle.star_configurations(6) == 75_974
    assert oracle.star_configurations(7) == 1_063_624
    universe = Universe(workloads.star_protocol(["h", "a", "b", "c"]))
    assert len(universe) == oracle.star_configurations(3)


def small_knowledge():
    names = ["h", "a", "b", "c"]
    protocol = workloads.star_protocol(names)
    universe = Universe(protocol)
    atoms = {fact_known_atom(protocol, name): name for name in names}
    return universe, atoms, {name: formula for formula, name in atoms.items()}


def test_answer_check_counts_one_flipped_bit():
    universe, atoms, atom = small_knowledge()
    naive = oracle.NaiveKnowledge(universe, atoms)
    evaluator = KnowledgeEvaluator(universe)
    formula = Or(
        Knows({"a", "h"}, atom["b"]), CommonKnowledge({"a", "c"}, atom["h"])
    )
    every_id = range(len(universe))
    assert oracle.verdict_failures(evaluator, naive, formula, every_id) == 0
    flipped = random.Random(3).randrange(len(universe))

    class OneBitFlipped:
        def extension_mask(self, asked):
            return evaluator.extension_mask(asked) ^ (1 << flipped)

    assert oracle.verdict_failures(OneBitFlipped(), naive, formula, every_id) == 1


def test_query_run_fails_when_answers_are_corrupted(tmp_path, monkeypatch):
    answer = KnowledgeEvaluator.extension_mask

    def one_bit_off(self, formula):
        mask = answer(self, formula)
        return mask ^ 1 << (hash(formula) % len(self._universe))

    monkeypatch.setattr(KnowledgeEvaluator, "extension_mask", one_bit_off)
    result = tiny_report("query-knowledge", False, tmp_path, monkeypatch)["result"]
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(value) for value in range(1, 101)]) == ("p90", 90.0)
    assert run.tail([float(value) for value in range(1, 11)]) == ("max", 10.0)


def test_cli_prints_the_result_last(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "explore-star", "--seed", "3", "--seconds", "0.2"]
    assert run.main(argv + ["--trace", "0", "--tiny"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}
    assert not os.listdir(tmp_path)


def test_cli_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore-star",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
