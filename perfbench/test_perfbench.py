"""Tests of the benchmark's own arithmetic and of its smoke run.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import stats
from perfbench.tracer import OP_KINDS, PER_LAYER_UNITS, SpanIndex, Tracer

ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------ percentiles


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_p99_of_a_thousand_leaves_ten_beyond():
    values = [float(v) for v in range(1000)]
    assert stats.percentile(values, 99) == 989.0
    assert stats.beyond(values, 99) == 10


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_median_even_and_odd():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5


# -------------------------------------------------------------- self time


def test_self_time_subtracts_union_of_children():
    # children overlap (2-5 and 4-6) and one sticks out past the parent
    assert stats.self_time((0.0, 10.0), [(2.0, 5.0), (4.0, 6.0), (9.0, 12.0)]) == 5.0
    assert stats.self_time((0.0, 1.0), []) == 1.0


def test_coverage_counts_each_instant_once():
    coverage = stats.Coverage([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)])
    assert coverage.covered(0.0, 10.0) == 4.0
    assert coverage.covered(2.5, 5.5) == 1.0
    assert coverage.covered(3.0, 5.0) == 0.0


def test_span_index_self_time_busy_and_attribution():
    # op.fit 0-10 on thread 1 wraps inference.run 1-9, which calls the
    # kernel 2-4 and, nested in the same layer, inference.sweep 5-8
    spans = [
        (2, 1, 1, "inference.run", 1.0, 9.0),
        (3, 2, 1, "kernels.add_item_scores", 2.0, 4.0),
        (4, 2, 1, "inference.sweep", 5.0, 8.0),
        (1, 0, 1, "op.fit", 0.0, 10.0),
    ]
    index = SpanIndex(spans)
    # run: 8 - (2 + 3) = 3; sweep: 3 - 0 = 3
    assert index.self_time("inference") == 6.0
    # the sweep is nested in the run, so busy time counts the run only
    assert index.busy("inference") == 8.0
    assert index.busy("kernels") == 2.0
    assert index.attribution() == {"fit": 0.8}


def test_tracer_records_parent_and_kept_values():
    tracer = Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return tracer.call("layer.inner", lambda args, result: result, inner, (x,), {})

    with tracer.op("fit"):
        tracer.call("layer.outer", None, outer, (1,), {})
    by_name = {span[3]: span for span in tracer.spans}
    assert by_name["layer.inner"][1] == by_name["layer.outer"][0]
    assert by_name["layer.outer"][1] == by_name["op.fit"][0]
    assert tracer.kept["layer.inner"] == [2]
    tracer.pause(True)
    tracer.call("layer.inner", None, inner, (1,), {})
    assert len(tracer.spans) == 3


# ------------------------------------------------------- majority vote / F1


def test_majority_vote_needs_more_than_half():
    # item 0: three answers, label 0 in all, label 1 in two, label 2 in one
    # item 1: two answers, label 2 in one (exactly half: rejected)
    items = np.array([0, 0, 0, 1, 1])
    indicators = np.array(
        [[1, 1, 0], [1, 1, 0], [1, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=float
    )
    assert stats.majority_vote(items, indicators, n_items=3) == {
        0: frozenset({0, 1}),
        1: frozenset(),
    }


def test_set_f1_follows_section_5_1():
    truth = {0: {0, 1}, 1: {2}, 2: {1}}
    predicted = {0: {0}, 1: {2, 0}}  # item 2 missing: empty prediction
    p, r, f1 = stats.set_f1(predicted, truth, n_labels=3)
    # precisions 1, 1/2, 0; recalls 1/2, 1, 0
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(0.5)
    assert f1 == pytest.approx(0.5)


def test_set_f1_matches_library_metric():
    from repro.data.dataset import GroundTruth
    from repro.evaluation import evaluate_predictions

    rng = np.random.default_rng(3)
    truth = GroundTruth(40, 6)
    truth_map, predicted = {}, {}
    for item in range(40):
        labels = set(rng.choice(6, size=rng.integers(1, 4), replace=False).tolist())
        truth.set(item, labels)
        truth_map[item] = labels
        predicted[item] = frozenset(rng.choice(6, size=rng.integers(0, 4), replace=False).tolist())
    ours = stats.set_f1(predicted, truth_map, 6)[2]
    assert ours == pytest.approx(evaluate_predictions(predicted, truth).f1, abs=1e-12)


# ----------------------------------------------------- declared metrics


def test_benchmark_json_matches_the_code():
    from perfbench.session import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert all(f"trace.attributed.{kind}" in PER_LAYER_UNITS for kind in OP_KINDS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in e2e and all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# ------------------------------------------------------------- smoke run


@pytest.mark.network
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fit-image", "serve-stream"])
def test_smoke_run_is_correct(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if trace else "end_to_end"
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, completed.stdout[-3000:]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
