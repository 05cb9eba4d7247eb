"""Tests of the benchmark's own machinery (generators, tracer, contract)."""

import json
import re
import time

import pytest

from perfbench import worker
from perfbench.layers import TARGETS
from perfbench.run import PROCESSES, ROOT, contract_line, load_spec, run_workload
from perfbench.trace import DETACHED, ROOT as NO_PARENT, Tracer, outermost_seconds, self_times
from perfbench.workloads import (
    QUICK_SCALE,
    WORKLOADS,
    dyn_events,
    pick_sources,
    served_requests,
)
from repro.core.engine import SIMDXEngine
from repro.graph.datasets import load_dataset

SPEC = load_spec()


@pytest.fixture(scope="module")
def graph():
    return load_dataset("LJ", QUICK_SCALE)


@pytest.mark.parametrize("generate", [
    lambda seed, g: pick_sources(seed, 1, g, 16),
    lambda seed, g: dyn_events(seed, g, 40),
    lambda seed, g: served_requests(seed, g, 200),
])
def test_generators_are_pure_functions_of_the_seed(graph, generate):
    assert generate(7, graph) == generate(7, graph)
    assert generate(7, graph) != generate(8, graph)


def test_served_updates_all_go_to_connection_zero(graph):
    first, second = served_requests(3, graph, 400)
    assert sum(r.get("cmd") == "update" for r in first) == 10
    assert not any(r.get("cmd") == "update" for r in second)


def test_self_time_is_duration_minus_direct_children():
    #        name      start end  parent       op tag
    spans = [
        ["round", 0.0, 10.0, NO_PARENT, 0, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["a", 2.0, 3.0, 1, 1, None],      # nested call of the same layer
        ["b", 5.0, 9.0, 0, 2, None],
        ["request", 0.0, 20.0, DETACHED, 3, None],
    ]
    own = self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0, 0.0]
    assert sum(own) == 10.0                       # = the root span
    assert outermost_seconds(spans, {"a"}) == 3.0  # inner "a" counted once
    assert outermost_seconds(spans, {"a", "b"}) == 7.0


class _Box:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_records_nesting_and_tags_then_restores():
    tracer = Tracer()
    with tracer.installed([
        (__name__, "_Box", "outer", "outer", lambda args, kwargs, result: result),
        (__name__, "_Box", "inner", "inner", None),
    ]):
        assert _Box().outer() == 2
    assert [(s[0], s[3], s[5]) for s in tracer.spans] == [
        ("outer", NO_PARENT, 2), ("inner", 0, None)]
    assert _Box().outer() == 2 and len(tracer.spans) == 2


def test_every_wrapped_attribute_is_restored():
    import importlib

    def raw(target):
        owner = importlib.import_module(target[0])
        if target[1]:
            owner = getattr(owner, target[1])
        return vars(owner)[target[2]]

    before = [raw(t) for t in TARGETS]
    original_run = SIMDXEngine.run
    tracer = Tracer()
    with tracer.installed(TARGETS):
        assert SIMDXEngine.run is not original_run
        assert all(raw(t) is not b for t, b in zip(TARGETS, before))
        assert isinstance(vars(SIMDXEngine)["_walk_edges"], staticmethod)
    assert SIMDXEngine.run is original_run
    assert all(raw(t) is b for t, b in zip(TARGETS, before))


def test_benchmark_json_meets_the_contract_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        cls.name: cls.why for cls in WORKLOADS.values()}
    assert (ROOT / SPEC["command"][1]).is_file()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_traced_pass_verifies_and_names_every_layer_metric(workload):
    result = worker.run(workload, seed=5, seconds=0.2, trace=True, quick=True, verify=True,
                        spawned_at=time.time(), spans_out=None)
    assert result["ops_attempted"] >= 1 and result["ops_failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.self_sum_ratio"] == pytest.approx(1.0, abs=0.01)
    line = contract_line(result, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    json.dumps(line)


def test_quick_untraced_pass_through_the_subprocess_runner():
    result = run_workload("rc-bfs16", seed=5, seconds=0.2, trace=0, quick=True)
    line = contract_line(result, SPEC)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert result["samples"]["setup_s"]["n"] == PROCESSES
