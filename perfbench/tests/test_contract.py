import json
import os

from run import BOUNDED, UNITS
from tracing import layer_metrics
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match_the_code():
    bench = load_benchmark()
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


def test_end_to_end_metrics_are_the_bounded_ones():
    bench = load_benchmark()
    assert {m["name"] for m in bench["end_to_end"]} == set(BOUNDED)
    assert all(m["unit"] == UNITS[m["name"]] for m in bench["end_to_end"])


def test_per_layer_metrics_are_what_the_traced_run_reports():
    bench = load_benchmark()
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    metrics, _ = layer_metrics([])
    reported = {name: unit for name, (_, unit) in metrics.items()}
    reported.update({"trace.span_cost_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"})
    assert declared == reported
