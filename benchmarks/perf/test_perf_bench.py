"""Tests of the benchmark harness itself.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  The workload
functions get tiny parameters as arguments, so the whole file takes
seconds.
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"), HERE]

import compare  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402

TINY = {
    "fleet_capped": {
        "kind": "fleet", "skus": ["fx8320", "phenom"], "nodes": 4,
        "policy": "waterfill", "cap_w_per_node": 52.0, "warmup_rounds": 1,
        "digest_rounds": 2, "tail_percentile": 75, "golden": None,
    },
    "shard_inproc": {
        "kind": "shard", "skus": ["fx8320"], "nodes_per_sku": 2, "intervals": 6,
        "checkpoint_every": 4, "digest_decisions": 12, "tail_percentile": 99,
        "golden": None,
    },
    "serve_loopback": {
        "kind": "serve", "skus": ["fx8320"], "nodes_per_sku": 2, "intervals": 6,
        "queue_size": 4, "checkpoint_every": 4, "digest_decisions": 12,
        "tail_percentile": 99, "golden": None,
    },
}


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


@pytest.fixture
def params(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    tiny = copy.deepcopy(run.load_params())
    tiny["setup_repeats"] = 1
    tiny["workloads"] = copy.deepcopy(TINY)
    return tiny


def _declared(bench, section):
    return {m["name"]: m["unit"] for m in bench[section]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_are_declared_with_units(bench, params, name):
    raw = run.measure(name, params["default_seed"], 0.05, False, params)
    declared = _declared(bench, "end_to_end")
    assert raw["correct"], raw["problems"]
    assert set(raw["metrics"]) == set(declared)
    assert all(declared[m] for m in raw["metrics"])
    assert all(value > 0 for value in raw["metrics"].values())


@pytest.mark.parametrize("name", ["fleet_capped", "serve_loopback"])
def test_per_layer_metrics_are_declared_with_units(bench, params, name):
    seed = params["default_seed"]
    untraced = run.measure(name, seed, 0.05, False, params)
    traced = run.measure(name, seed, 0.05, True, params)
    combined = run.combine(untraced, traced)
    declared = _declared(bench, "per_layer")
    assert combined["correct"], combined["problems"]
    assert set(combined["metrics"]) == set(declared)
    assert all(declared[m] for m in combined["metrics"])
    # Traced and untraced runs decide identically.
    assert traced["digest"] == untraced["digest"]
    # The wrappers are gone again after the traced run.
    from repro.core.ppep import PPEP

    assert not hasattr(PPEP.core_states, "__wrapped__")


def test_tampered_golden_digest_fails_the_run(params, monkeypatch, capsys):
    seed = params["default_seed"]
    digest = run.measure("fleet_capped", seed, 0.05, False, params)["digest"]

    params["workloads"]["fleet_capped"]["golden"] = digest
    assert run.measure("fleet_capped", seed, 0.05, False, params)["correct"]
    # Other seeds check invariants only.
    assert run.measure("fleet_capped", seed + 1, 0.05, False, params)["correct"]

    params["workloads"]["fleet_capped"]["golden"] = "0" * 64
    raw = run.measure("fleet_capped", seed, 0.05, False, params)
    assert not raw["correct"]
    assert any("golden" in problem for problem in raw["problems"])

    monkeypatch.setattr(run, "load_params", lambda: params)
    code = run.main(["--workload", "fleet_capped", "--seconds", "0.05"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL fleet_capped" in captured.err
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False


def _rows(workload, metric, values):
    return [
        {"commit": "c", "workload": workload, "metrics": {metric: v}} for v in values
    ]


@pytest.mark.parametrize(
    "b_values, expected",
    [
        ([100.0, 101.0, 99.0, 100.5, 99.5], "same"),
        ([50.0, 51.0, 49.0, 50.5, 49.5], "worse"),
        ([40.0, 160.0, 100.0, 55.0, 145.0], "unresolved"),
        ([160.0, 161.0, 159.0, 160.5, 159.5], "better"),
    ],
)
def test_compare_verdicts(bench, b_values, expected):
    a_values = [100.0, 101.0, 99.0, 100.5, 99.5]
    a = _rows("fleet_open", "throughput_per_s", a_values)
    b = _rows("fleet_open", "throughput_per_s", b_values)
    _lines, verdicts = compare.compare(a, b, bench)
    assert verdicts[("fleet_open", "throughput_per_s")] == expected


def test_compare_direction_and_exit_code(tmp_path, bench):
    # Lower is better for latency: a rise is worse, a fall is better.
    assert compare.verdict([10.0] * 5, [12.0] * 5, 0.1, "lower") == "worse"
    assert compare.verdict([10.0] * 5, [8.0] * 5, 0.1, "lower") == "better"
    assert compare.verdict([10.0] * 5, [10.5] * 5, 0.1, "lower") == "same"
    base = tmp_path / "a.jsonl"
    change = tmp_path / "b.jsonl"
    for path, value in ((base, 10.0), (change, 20.0)):
        rows = _rows("w", "latency_p50_ms", [value] * 3)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert compare.main([str(base), str(change)]) == 1
    assert compare.main([str(base), str(base)]) == 0


def _span(id_, parent, start, end, name="x", pid=1):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name, "pid": pid, "rid": None}


def test_self_time_arithmetic():
    spans = [
        _span("r", None, 0.0, 10.0, "bench.round"),
        _span("a", "r", 1.0, 4.0, "dvfs.cap.decide"),
        _span("g", "a", 2.0, 3.0, "core.states"),
        # Overlaps a (never happens on one thread): the union counts once.
        _span("b", "r", 3.0, 6.0, "dvfs.cap.decide"),
        # Runs past its parent: clipped to the parent's end.
        _span("c", "r", 9.0, 12.0, "obs.events.emit"),
    ]
    assert trace.self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]
    table = trace.layer_table(spans)
    assert table["dvfs.cap.decide"] == {"count": 2, "total_s": 6.0, "self_s": 5.0}
    totals, coverage = trace.stage_totals(spans, 20.0, main_pid=1)
    assert totals["cap"] == 5.0 and totals["states"] == 1.0
    # The root's self time plus the 10 s no span covers.
    assert totals["runner"] == 14.0
    assert coverage == 0.5


def test_tracer_nests_spans_and_inherits_request_ids():
    tracer = trace.Tracer()
    outer = tracer.begin("bench.line", rid=("n0", 3))
    inner = tracer.begin("serve.shard.process")
    tracer.end(inner)
    tracer.end(outer)
    exported = tracer.export()
    assert exported[1]["parent"] == exported[0]["id"]
    assert exported[1]["rid"] == ("n0", 3)
    assert exported[0]["start"] <= exported[1]["start"] <= exported[1]["end"] <= exported[0]["end"]
