"""Tests of the benchmark's own parts, on small generated inputs.

The checker must pass the program's report and fail it after any single
corruption; the generator must be a function of its seed; the tracer must
yield exactly the per-layer metrics BENCHMARK.json names and put the
package back as it found it.

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import verify  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SMALL = gen.Shape(
    concepts=150, branching=None, cross=2, questions=40, phrases=(2, 6),
    text_answers=(0, 2), copy_share=0.8, popular=10, popular_share=0.3, pool=None)


def _report(workload, directory: Path, main=None) -> dict:
    from onto_enrich import cli

    out = directory / "report.json"
    assert (main or cli.main)(workload.argv(workload.write(directory), out)) == 0
    return json.loads(out.read_bytes())


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    workload = gen.make("label-match", 7, SMALL)
    return workload, _report(workload, tmp_path_factory.mktemp("small"))


def _first(records, predicate):
    return next(r for r in records if predicate(r))


def _change_length(report):
    record = _first(report["records"], lambda r: r["hierarchical"] is not None)
    record["hierarchical"]["length"] += 1


def _flip_optimal(report):
    report["records"][-1]["optimal"] = not report["records"][-1]["optimal"]


def _drop_question_id(report):
    record = _first(report["records"], lambda r: len(r["question_ids"]) > 1)
    record["question_ids"].pop()


def _change_score(report):
    match = _first(report["matches"], lambda m: m["score"] < 1.0)
    match["score"] = match["score"] * 0.99


def _drop_full_path(report):
    _first(report["records"], lambda r: r["full"] is not None)["full"] = None


def _swap_records(report):
    records = report["records"]
    records[0], records[-1] = records[-1], records[0]


def _relabel_match(report):
    match = report["matches"][0]
    other = _first(report["matches"], lambda m: m["concept"] != match["concept"])
    match["label"], match["concept"] = other["label"], other["concept"]


def test_program_report_passes(case):
    workload, report = case
    assert report["records"] and report["matches"]
    assert verify.check(workload, report, sample=len(report["matches"])) == []


@pytest.mark.parametrize("corrupt", [
    _change_length, _flip_optimal, _drop_question_id, _change_score,
    _drop_full_path, _swap_records, _relabel_match,
])
def test_corrupted_report_fails(case, corrupt):
    workload, report = case
    broken = copy.deepcopy(report)
    corrupt(broken)
    assert verify.check(workload, broken) != []


def test_unmatched_phrase_with_a_match_fails(case):
    workload, report = case
    broken = copy.deepcopy(report)
    dropped = broken["matches"].pop(0)
    qid = dropped["question_id"]
    broken["records"] = [r for r in broken["records"] if qid not in r["question_ids"]]
    assert verify.check(workload, broken, sample=workload.phrase_count) != []


def test_generator_is_a_function_of_the_seed():
    for name in gen.WORKLOADS:
        assert gen.make(name, 3).files == gen.make(name, 3).files
        assert gen.make(name, 3).files != gen.make(name, 4).files


def test_batches_split_the_bank(tmp_path):
    bank = gen.make("label-match", 5, dataclasses.replace(SMALL, questions=12, batches=3))
    batches = bank.batches()
    assert len(batches) == 3
    assert sum((batch.questions for batch in batches), ()) == bank.questions
    for i, batch in enumerate(batches):
        shared = {k: v for k, v in batch.files.items() if k != "corpus.xml"}
        assert shared == {k: v for k, v in bank.files.items() if k != "corpus.xml"}
        assert verify.check(batch, _report(batch, tmp_path / str(i)), sample=100) == []


def test_tracer_yields_the_declared_metrics(tmp_path):
    from onto_enrich import cli, pathfinder, pipeline

    workload = gen.make("dense-paths", 1, SMALL)
    originals = (cli.run, pipeline.compare, pathfinder.shortest_path)
    tracer = Tracer()
    with tracer.installed():
        traced = _report(workload, tmp_path, tracer.wrap("cli.main", cli.main))
    assert (cli.run, pipeline.compare, pathfinder.shortest_path) == originals
    assert traced == _report(workload, tmp_path)

    metrics = layer_metrics(tracer)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared == set(metrics) | {"trace.report_s", "trace.overhead_s", "trace.spans"}
    assert metrics["corpus.phrases"] == workload.phrase_count
    assert metrics["pathfinder.pairs"] == len(traced["records"])
    assert metrics["pathfinder.searches"] == 2 * len(traced["records"])
    assert metrics["pipeline.optimal_pairs"] == sum(r["optimal"] for r in traced["records"])
