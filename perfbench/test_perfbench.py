"""Self-tests of the benchmark's oracle, tracer and metric list.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

import inputs
import oracle
import run
from spans import Tracer, covered_ns


def test_naive_count_overlaps():
    assert oracle.naive_count("aaaa", "aa") == 3
    assert oracle.naive_count("abc", "d") == 0
    assert oracle.corpus_count(["aab", "ab"], "ab") == 2


@pytest.mark.parametrize(
    "model,count,l,truth,ok",
    [
        ("exact", 5, 1, 5, True),
        ("exact", 5, 1, 4, False),
        ("uniform", 10, 4, 7, True),
        ("uniform", 10, 4, 6, False),
        ("uniform", 10, 4, 11, False),
        ("lower_sided", 9, 8, 9, True),
        ("lower_sided", 7, 8, 9, False),
        ("lower_sided", 3, 8, 5, True),
        ("lower_sided", 8, 8, 5, False),
        ("upper_bound", 10, 1, 10, True),
        ("upper_bound", 10, 1, 11, False),
    ],
)
def test_check_model(model, count, l, truth, ok):
    assert (oracle.check_model(model, count, l, truth) is None) == ok


def test_reliable_answers_must_be_exact():
    assert oracle.check_model("uniform", 10, 4, 9, reliable=True) is not None
    assert oracle.check_model("uniform", 9, 4, 9, reliable=True) is None


def test_interval_and_width():
    assert oracle.interval("exact", 4, 1) == (4, 4)
    assert oracle.interval("uniform", 2, 8) == (0, 2)
    assert oracle.interval("lower_sided", 3, 8) == (0, 7)
    assert oracle.width(*oracle.interval("exact", 4, 1)) == 1
    assert oracle.check_interval(2, 5, 6) is not None
    assert oracle.check_interval(2, 5, 5) is None


def test_certified_and_estimate_checks():
    assert oracle.check_certified(None, 8, 7) is None
    assert oracle.check_certified(None, 8, 8) is not None
    assert oracle.check_certified(9, 8, 10) is not None
    assert oracle.check_estimate(9.0, 9, 9) is None
    assert oracle.check_estimate(8.5, 9, 9) is not None
    assert oracle.check_estimate(float("nan"), None, 3) is not None
    assert oracle.qerror(0.2, 4) == 4.0


def test_covered_ns_counts_overlap_once():
    assert covered_ns(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40
    assert covered_ns(0, 10, []) == 0


def test_self_time_subtracts_children_across_threads():
    tracer = Tracer()
    tracer.bind_client()

    def child():
        index = tracer.begin("child")
        time.sleep(0.02)
        tracer.end(index)

    outer = tracer.begin("outer")
    worker = threading.Thread(target=child)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    time.sleep(0.01)
    tracer.end(outer)
    summary = tracer.summary()
    assert summary["child"]["calls"] == 1
    outer_self = summary["outer"]["self_ns"]
    assert outer_self == summary["outer"]["time_ns"] - summary["child"]["time_ns"]


def test_wrap_and_restore():
    class Thing:
        def work(self, x):
            return x * 2

    class Child(Thing):
        pass

    tracer = Tracer()
    tracer.bind_client()
    tracer.wrap(Thing, "work", "thing")
    tracer.wrap(Child, "work", "child")
    assert Thing().work(3) == 6
    assert Child().work(1) == 2
    tracer.restore()
    assert "work" in vars(Thing) and Thing().work(2) == 4
    assert "work" not in vars(Child)
    summary = tracer.summary()
    assert summary["thing"]["calls"] == 2 and summary["child"]["calls"] == 1
    # two top-level calls from the client: two query ids
    assert sorted({span[4] for span in tracer.spans}) == [1, 2]


def test_inputs_depend_on_seed_only():
    assert inputs.documents(3, 2000) == inputs.documents(3, 2000)
    assert inputs.documents(3, 2000) != inputs.documents(4, 2000)
    assert len(inputs.documents(3, stream="x", count=5)) == 5


def test_benchmark_json_matches_metric_lists():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
