import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracing import Span, SpanIndex, Tracer, layer_metrics


def span(id, name, parent, start, end, thread=1, **attrs):
    return Span(id, name, parent, thread, start, end, attrs)


def self_times(spans):
    index = SpanIndex(spans)
    return {s.id: index.self_time(s) for s in spans}


def test_self_time_of_nested_spans():
    spans = [
        span(0, "cli.train", None, 0.0, 10.0),
        span(1, "trainer.train_suite", 0, 2.0, 4.0),
        span(2, "trainer.train_one", 1, 2.5, 3.0),
        span(3, "cli.train", None, 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx({0: 8.0, 1: 1.5, 2: 0.5, 3: 1.0})


def test_self_time_counts_overlapping_threaded_children_once():
    spans = [
        span(0, "trainer.train_suite", None, 0.0, 10.0),
        span(1, "trainer.train_one", 0, 1.0, 6.0, thread=2),
        span(2, "trainer.train_one", 0, 2.0, 8.0, thread=3),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_worker_thread_spans_take_the_open_root_span_as_parent():
    tracer = Tracer()
    work = tracer.wrap("trainer.train_one", lambda seed: seed * 2)
    inner = tracer.wrap("model.adam_step", lambda: None)

    def suite():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda s: (work(s), inner()), range(4)))

    tracer.wrap("trainer.train_suite", suite)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (suite_span,) = by_name["trainer.train_suite"]
    assert suite_span.parent is None
    assert all(s.parent == suite_span.id for s in by_name["trainer.train_one"])
    assert all(s.parent == suite_span.id for s in by_name["model.adam_step"])
    assert {s.thread for s in by_name["trainer.train_one"]} != {threading.get_ident()}


def test_wrapper_records_the_error_and_reraises():
    tracer = Tracer()

    def refuse(params, grads, lr):
        raise ArithmeticError("non-finite")

    with pytest.raises(ArithmeticError):
        tracer.wrap("model.adam_step", refuse)(None, {}, 0.1)
    assert tracer.spans[0].error == "ArithmeticError"


def test_steps_span_assemble_to_adam_and_give_the_adam_share():
    kids = [
        span(2, "batcher.plan_epoch", 1, 0.0, 1.0),
        span(3, "batcher.assemble_batch", 1, 1.0, 2.0),
        span(4, "model.forward", 1, 2.0, 3.0, mode="train"),
        span(5, "model.backward", 1, 3.0, 4.0),
        span(6, "model.adam_step", 1, 4.0, 8.0, params=10),
        span(7, "batcher.assemble_batch", 1, 8.5, 9.0),
        span(8, "model.forward", 1, 9.0, 9.5, mode="train"),
        span(9, "model.backward", 1, 9.5, 10.0),
        span(10, "model.adam_step", 1, 10.0, 11.5, params=10),
    ]
    spans = [span(0, "trainer.train_suite", None, 0.0, 12.0, threads=1),
             span(1, "trainer.train_one", 0, 0.0, 12.0, label="multitask")] + kids
    metrics, tails = layer_metrics(spans)
    assert metrics["trainer.step_ms.p50"][0] == pytest.approx(5000.0)  # steps of 7 s and 3 s
    assert metrics["trainer.step_ms.multitask"][0] == pytest.approx(5000.0)
    assert metrics["trainer.step_ms.simple"][0] == 0.0
    assert metrics["trainer.step_self_ms"][0] == pytest.approx(0.0)
    assert metrics["trainer.adam_share"][0] == pytest.approx(5.5 / 10.0)
    assert metrics["model.adam_params_per_step"] == (10.0, "count")
    assert metrics["homophily.draw_ms"] == (0.0, "ms")
    assert tails["trainer.step_ms.tail"] == (None, 2)
    assert metrics["trainer.step_ms.tail"] == (0.0, "ms")
