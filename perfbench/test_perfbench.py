"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
from tracing import Span, Tracer, aggregate, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, trace_targets  # noqa: E402


def load_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("task", 0.0, 10.0, None, 1, False),
        Span("a", 1.0, 4.0, 0, 1, False),
        Span("leaf", 2.0, 3.0, 1, 1, False),
        Span("b", 5.0, 9.0, 0, 1, False),
        Span("c", 8.0, 10.0, 0, 1, True),  # overlaps b: counted once
        Span("a", 20.0, 21.0, None, 2, False),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 2.0, 1.0])
    agg = aggregate(spans, tasks={1})
    assert agg["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0, "failed": 0}
    assert agg["c"]["failed"] == 1
    # Without overlapping siblings, self times add up to the task span.
    assert sum(self_times(spans[:4])) == pytest.approx(10.0)
    assert aggregate(spans)["a"]["calls"] == 2


def test_tracer_patches_records_and_restores():
    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    mod = types.SimpleNamespace(inner=inner)
    mod.outer = lambda x: mod.inner(x) * 2
    original_outer = mod.outer
    tracer = Tracer()
    tracer.install([(mod, "inner", "m.inner"), (mod, "outer", "m.outer")])
    tracer.task = 7
    assert mod.outer(1) == 4
    with pytest.raises(ValueError):
        mod.outer(-1)
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is original_outer
    names = [(s.name, s.parent, s.task, s.failed) for s in tracer.spans]
    assert names == [("m.outer", None, 7, False), ("m.inner", 0, 7, False),
                     ("m.outer", None, 7, True), ("m.inner", 2, 7, True)]


class FakeWorkload:
    """Input 0 raises, input 1 fails its check, the rest pass."""

    flop_shape = (10, 10, 1)

    def setup(self):
        time.sleep(0.001)
        return "state"

    def task(self, state, key):
        assert state == "state"
        time.sleep(0.002)
        if key == 0:
            raise RuntimeError("forced")
        return key

    def check(self, state, key, out):
        if key == 1:
            raise CheckFailed("forced")
        return {"iters": [3], "task_iters": 3, "rel_err": 1e-8}


def test_failing_tasks_are_counted_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(run, "SETUP_EVERY", 0.01)
    wl = FakeWorkload()
    records, setup_times, state = run.run_tasks(wl, wl.setup, seconds=0.05)
    assert len(records) >= 5 and state == "state"
    assert [r["input"] for r in records[:4]] == [0, 0, 1, 1]
    assert all(r["reason"] == "RuntimeError: forced" for r in records[:2])
    assert not any(r["ok"] or r["incorrect"] for r in records[:2])
    assert all(r["incorrect"] and r["reason"] == "check: forced"
               for r in records[2:4])
    assert all(r["ok"] for r in records[4:])
    # Set-up ran before the tasks and again during them.
    assert len(setup_times) >= 2
    e2e = run.end_to_end(records, [0.1, 0.2, 0.3], peak=2 ** 20)
    assert e2e["fail_frac"][0] == pytest.approx(4 / len(records))
    assert e2e["iters.mean"][0] == 3
    assert e2e["setup_s"][0] == 0.2
    assert e2e["peak_mb"][0] == 1.0


def test_traced_and_untraced_tasks_see_the_same_inputs():
    tracer = Tracer()
    wl = FakeWorkload()
    records, _, _ = run.run_tasks(wl, wl.setup, 0.02, tracer, targets=[])
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    assert traced and len(traced) == len(plain)
    assert [r["input"] for r in traced] == [r["input"] for r in plain]
    assert {s.task for s in tracer.spans} == {r["task"] for r in traced}
    metrics = run.per_layer(records, tracer.spans, FakeWorkload.flop_shape)
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert run.shares(records, tracer.spans)["task"] == pytest.approx(1.0)


def test_metric_names_and_units_match_benchmark_json():
    bench = load_benchmark_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert run.WORKLOAD_NAMES == list(WORKLOADS)
    e2e = run.end_to_end([{"ok": True, "seconds": 1.0, "measures":
                           {"iters": [1], "rel_err": 0.0}}], [1.0], 1)
    assert {name for name, _ in run.END_TO_END} <= set(e2e)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"])


def test_trace_targets_name_existing_attributes():
    for owner, attr, _ in trace_targets():
        assert callable(owner.__dict__[attr])
