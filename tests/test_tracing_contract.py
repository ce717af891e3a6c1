"""The benchmark's in-process tracer, `perfbench/tracing.py`, still runs against the package.

The tracer swaps package globals by name and reads call arguments and
results by name, so a rename in the package would crash a traced
benchmark run; this test catches that first. It imports from
`perfbench/` and changes nothing there.
"""

import importlib
import json
from pathlib import Path

from helpers import base_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHAIN = ("synth", "prep", "train", "eval", "homophily", "report")


def test_traced_toy_chain_runs_clean(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    unresolved = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing._targets() if not hasattr(module, attr)]
    assert not unresolved

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(str(tmp_path / "out"))), encoding="utf-8")
    tracer = tracing.Tracer()
    codes = tracing.traced_main(tracer, [[stage, "--config", str(config_path)] for stage in CHAIN])
    assert codes == [0] * len(CHAIN)
    assert tracer.spans
    # the one error the package handles by design: AUC is undefined for a single-class group slice
    assert {(s.name, s.error) for s in tracer.spans if s.error} <= {("metrics.roc_auc", "DataError")}
    tracing.layer_metrics(tracer.spans)  # every hook attribute the metrics read is present
