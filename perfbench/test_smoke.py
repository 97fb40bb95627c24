"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs tiny copies of the workload shapes (multi-norm adaptive, and
build-save-reload) through the same code as a real run, traced and
untraced, and checks the metric names and units against BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run

TINY = (
    run.Workload("tiny-desk", dict(dim=16, model="block-correlated", block_size=4,
                                   correlation=0.8),
                 300, (16, 8, 4), "adaptive", ("1", "2", "4", "inf"), pool=40,
                 epsilon=(20, 5), reload=False, setup_repeats=2, verify_cap=10),
    run.Workload("tiny-reload", dict(dim=64, model="piecewise-smooth", window=4),
                 200, (64, 16, 4), "orthogonal", ("1",), pool=20,
                 epsilon=4000.0, reload=True, setup_repeats=2, verify_cap=5),
)


def _declared(section: str) -> dict[str, str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in bench[section]}


def test_declared_units_match_the_harness():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert {w["name"] for w in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_declared_metric_is_emitted_with_a_unit(workload, trace, tmp_path):
    result = run.run(workload, seed=3, seconds=0.3, trace=trace, workdir=tmp_path)
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1
    line = json.loads(run.result_line(result, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(line["metrics"]) == set(declared)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], float)
    if trace:
        assert line["metrics"]["trace.missing"]["value"] == 0.0
        assert line["metrics"]["tree.level1.candidates"]["value"] > 0.0
    else:
        assert all(entry["value"] > 0.0 for entry in line["metrics"].values())


def test_wrong_match_list_counts_as_an_error(tmp_path):
    workload = TINY[0]
    data, queries, _ = run.generate_inputs(workload, seed=4, workdir=tmp_path)
    indexes, epsilons, _ = run.set_up(workload, data, 4, tmp_path)
    samples, _ = run.closed_loop(workload, indexes, epsilons, queries, count=8)
    positions = list(range(len(samples)))
    failures, checked, _, _ = run.verify(data, queries, epsilons, samples, positions)
    assert failures == [] and len(checked) == 8

    bad = samples[5]
    wrong = bad.report.matches[1:] if bad.report.matches else ((10**9, 0.0),)
    samples[5] = dataclasses.replace(bad, report=dataclasses.replace(bad.report, matches=wrong))
    failures, checked, _, _ = run.verify(data, queries, epsilons, samples, positions)
    assert len(failures) == 1 and failures[0].startswith("query 5 ")
    assert len(failures) / len(checked) == 1 / 8
