"""In-process tracing of the sociolens layers and the per-layer metrics built on it.

Wrappers are installed from outside the package, on the name each caller
looks up: `trainer` imports `adam_step` by name, so the wrapper goes on
`sociolens.trainer.adam_step`; `cli` calls `trainer.train_suite` through
the module, so that wrapper goes on the module attribute. Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from dataclasses import dataclass, field

from gen import ATTRIBUTES
from stats import covered, median, tail
from workloads import DEMO_SUITES, TIMED_STAGES

# Calls of the no-op that calibrate the wrapper cost.
CALIBRATION_CALLS = 20000


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "thread": self.thread,
            "start": self.start, "end": self.end, "attrs": self.attrs, "error": self.error,
        }


class Tracer:
    """Records one span per wrapped call.

    A span's parent is the innermost open span of its own thread. A call
    that opens the first span of a worker thread takes the innermost open
    span of the thread that created the tracer, which is blocked in the
    call that started the workers (a seed's `train_one` under the suite's
    `train_suite`).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> int | None:
        if stack:
            return stack[-1].id
        try:
            return self._root_stack[-1].id
        except IndexError:
            return None

    def open(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, self._parent(stack), threading.get_ident(), attrs=attrs or {})
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn, args_attrs=None, result_attrs=None):
        """`fn` wrapped in a span; the attrs hooks read bound arguments and the result."""
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = args_attrs(sig.bind(*args, **kwargs).arguments) if args_attrs else None
            span = tracer.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if result_attrs:
                span.attrs.update(result_attrs(result))
            return result

        return wrapper


def span_cost_s() -> float:
    """Wrapper cost per call: a traced no-op minus a bare no-op, averaged over the calibration calls."""

    def noop(a, b=None):
        return a

    traced = Tracer().wrap("calibration", noop, lambda a: {"a": a["a"]}, lambda r: {"r": r})
    times = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for i in range(CALIBRATION_CALLS):
            fn(i, b=i)
        times.append(time.perf_counter() - start)
    return max(0.0, times[1] - times[0]) / CALIBRATION_CALLS


def _suite_label(config) -> str:
    if config.variant == "socio_contrastive" and config.contrastive_weight == 0.0:
        return "ablation"
    return config.variant


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _targets():
    """(module, attribute, span name, args hook, result hook) for every traced call site.

    A call is wrapped when a per-layer metric reads its span, or when it is
    work that `cli` calls directly, so that a stage's self time is left
    with the artifact writing.
    """
    from sociolens import cli, corpus, features, homophily, metrics, trainer

    return [
        # corpus and features: called by cli through the module
        (corpus, "load_annotations", "corpus.load_annotations", None, lambda r: {"rows": len(r.records)}),
        (corpus, "binarize", "corpus.binarize", None, None),
        (corpus, "attach_profiles", "corpus.attach_profiles", None, None),
        (features, "load_embeddings", "features.load_embeddings", None, None),
        (features, "load_profiles", "features.load_profiles", None, None),
        (features, "build_schema", "features.build_schema", None, None),
        # batcher, model and objectives: imported by name into trainer
        (trainer, "plan_epoch", "batcher.plan_epoch", None, None),
        (trainer, "assemble_batch", "batcher.assemble_batch", None, None),
        (trainer, "forward", "model.forward", lambda a: {"mode": a.get("mode", "train")}, None),
        (trainer, "backward", "model.backward", None, None),
        (trainer, "adam_step", "model.adam_step",
         lambda a: {"params": sum(int(g.size) for g in a["grads"].values())}, None),
        (trainer, "save_checkpoint", "model.save_checkpoint", None, lambda r: {"bytes": _dir_bytes(r)}),
        (trainer, "extract_socio_reps", "model.extract_socio_reps", None, None),
        (cli, "load_checkpoint", "model.load_checkpoint", None, None),
        (trainer, "bce_loss", "objectives.bce_loss", None, None),
        (trainer, "contrastive_loss", "objectives.contrastive_loss",
         lambda a: {"batch": int(a["E"].shape[0])},
         lambda r: {"pairs": r.pos_pairs + r.neg_pairs}),
        # trainer: cli calls through the module, trainer calls its own globals
        (trainer, "train_suite", "trainer.train_suite", lambda a: {"threads": a.get("threads", 1)}, None),
        (trainer, "train_one", "trainer.train_one", lambda a: {"label": _suite_label(a["config"])}, None),
        (trainer, "predict", "trainer.predict", lambda a: {"rows": len(a["dataset"].records)}, None),
        # metrics: cli calls through the module; with_auc calls roc_auc as a module global
        (metrics, "confusion_metrics", "metrics.confusion_metrics", None, None),
        (metrics, "roc_auc", "metrics.roc_auc", None, None),
        (metrics, "roc_curve", "metrics.roc_curve", None, lambda r: {"thresholds": len(r) - 1}),
        (metrics, "group_breakdown", "metrics.group_breakdown", None, None),
        # homophily: cli calls through the module, homophily_table calls its global
        (homophily, "load_representations", "homophily.load_representations", None,
         lambda r: {"annotators": len(r)}),
        (homophily, "bootstrap_homophily", "homophily.bootstrap_homophily",
         lambda a: {"attribute": a["attribute"], "iterations": a.get("iterations", 1000)}, None),
    ]


def traced_main(tracer: Tracer, argv_list: list[list[str]]) -> list[int]:
    """Run `sociolens.cli.main` once per argv with every wrapper installed; returns exit codes."""
    from sociolens import cli

    saved = []
    try:
        for module, attr, name, args_hook, result_hook in _targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, args_hook, result_hook))
        saved_commands = dict(cli.COMMANDS)
        for stage in TIMED_STAGES:
            cli.COMMANDS[stage] = tracer.wrap(f"cli.{stage}", saved_commands[stage])
        try:
            return [cli.main(argv) for argv in argv_list]
        finally:
            cli.COMMANDS.update(saved_commands)
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ------------------------------------------------------------ per-layer metrics

class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)
        for kids in self.children.values():
            kids.sort(key=lambda s: s.start)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it covered by the span's children."""
        kids = self.children.get(span.id, [])
        return span.duration - covered([(k.start, k.end) for k in kids], span.start, span.end)


@dataclass
class Step:
    label: str
    start: float
    end: float
    children: list[Span]

    @property
    def duration(self) -> float:
        return self.end - self.start


def train_steps(index: SpanIndex) -> list[Step]:
    """One step per batch of every seed: `assemble_batch` start to `adam_step` end."""
    steps = []
    for run in index.named("trainer.train_one"):
        opened: Step | None = None
        for kid in index.children.get(run.id, []):
            if kid.name == "batcher.assemble_batch":
                opened = Step(run.attrs["label"], kid.start, kid.end, [kid])
            elif opened is not None:
                opened.children.append(kid)
                if kid.name == "model.adam_step":
                    opened.end = kid.end
                    steps.append(opened)
                    opened = None
    return steps


def _ms(spans: list[Span]) -> list[float]:
    return [s.duration * 1e3 for s in spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(
    spans: list[Span],
) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float | None, int]]]:
    """Per-layer metrics `{name: (value, unit)}`, and `{name: (percentile, samples)}` per `.tail`.

    Every metric is present; a layer that did not run reports 0, and so
    does a tail for which no percentile has ten samples beyond it.
    """
    index = SpanIndex(spans)
    out: dict[str, tuple[float, str]] = {}
    tails: dict[str, tuple[float | None, int]] = {}

    def dist(name: str, values_ms: list[float], with_tail: bool = False) -> None:
        out[name if not with_tail else f"{name}.p50"] = (median(values_ms), "ms")
        if with_tail:
            pct, value = tail(values_ms)
            out[f"{name}.tail"] = (value if value is not None else 0.0, "ms")
            tails[f"{name}.tail"] = (pct, len(values_ms))

    # trainer
    steps = train_steps(index)
    dist("trainer.step_ms", [s.duration * 1e3 for s in steps], with_tail=True)
    for label in DEMO_SUITES:
        out[f"trainer.step_ms.{label}"] = (median(s.duration * 1e3 for s in steps if s.label == label), "ms")
    step_self = [
        (s.duration - covered([(k.start, k.end) for k in s.children], s.start, s.end)) * 1e3 for s in steps
    ]
    out["trainer.step_self_ms"] = (median(step_self), "ms")
    adam_in_steps = sum(k.duration for s in steps for k in s.children if k.name == "model.adam_step")
    out["trainer.adam_share"] = (_ratio(adam_in_steps, sum(s.duration for s in steps)), "ratio")
    suites = index.named("trainer.train_suite")
    waits = [run.start - suite.start for suite in suites for run in index.children.get(suite.id, [])
             if run.name == "trainer.train_one"]
    out["trainer.seed_wait_s"] = (sum(waits) / len(waits) if waits else 0.0, "s")
    runs_time = sum(s.duration for s in index.named("trainer.train_one"))
    out["trainer.suite_parallel_efficiency"] = (
        _ratio(runs_time, sum(s.duration * s.attrs["threads"] for s in suites)), "ratio")
    predicts = index.named("trainer.predict")
    out["trainer.predict_rows_per_s"] = (
        _ratio(sum(s.attrs["rows"] for s in predicts), sum(s.duration for s in predicts)), "rows/s")

    # batcher
    train_ids = {s.id for s in index.named("trainer.train_one")}
    dist("batcher.assemble_batch_ms",
         _ms([s for s in index.named("batcher.assemble_batch") if s.parent in train_ids]))
    dist("batcher.plan_epoch_ms", _ms(index.named("batcher.plan_epoch")))

    # model
    forwards = index.named("model.forward")
    dist("model.forward_train_ms", _ms([s for s in forwards if s.attrs["mode"] == "train"]), with_tail=True)
    dist("model.backward_ms", _ms(index.named("model.backward")), with_tail=True)
    adams = index.named("model.adam_step")
    dist("model.adam_step_ms", _ms(adams), with_tail=True)
    out["model.adam_params_per_step"] = (
        _ratio(sum(s.attrs["params"] for s in adams), len(adams)), "count")
    out["model.adam_refused"] = (float(sum(s.error == "NumericError" for s in adams)), "count")
    dist("model.forward_eval_ms", _ms([s for s in forwards if s.attrs["mode"] == "eval"]))
    dist("model.load_checkpoint_ms", _ms(index.named("model.load_checkpoint")))
    saves = index.named("model.save_checkpoint")
    dist("model.save_checkpoint_ms", _ms(saves))
    out["model.checkpoint_bytes"] = (float(sum(s.attrs.get("bytes", 0) for s in saves)), "bytes")
    dist("model.extract_socio_reps_ms", _ms(index.named("model.extract_socio_reps")))

    # objectives
    dist("objectives.bce_loss_ms", _ms(index.named("objectives.bce_loss")))
    contrastive = index.named("objectives.contrastive_loss")
    dist("objectives.contrastive_loss_ms", _ms(contrastive))
    out["objectives.contrastive_pair_yield"] = (
        _ratio(sum(s.attrs.get("pairs", 0) for s in contrastive),
               sum(s.attrs["batch"] ** 2 for s in contrastive)), "ratio")
    out["objectives.pairfree_batch_ratio"] = (
        _ratio(sum(s.attrs.get("pairs", 0) == 0 for s in contrastive), len(contrastive)), "ratio")

    # metrics
    curves = index.named("metrics.roc_curve")
    dist("metrics.roc_curve_ms", _ms(curves))
    out["metrics.roc_curve_thresholds"] = (median(s.attrs.get("thresholds", 0) for s in curves), "count")
    dist("metrics.roc_auc_ms", _ms(index.named("metrics.roc_auc")))
    dist("metrics.group_breakdown_ms", _ms(index.named("metrics.group_breakdown")))

    # corpus and features
    loads = index.named("corpus.load_annotations")
    out["corpus.load_annotations_rows_per_s"] = (
        _ratio(sum(s.attrs.get("rows", 0) for s in loads), sum(s.duration for s in loads)), "rows/s")
    dist("features.load_embeddings_ms", _ms(index.named("features.load_embeddings")))
    dist("features.load_profiles_ms", _ms(index.named("features.load_profiles")))

    # homophily
    draws = index.named("homophily.bootstrap_homophily")
    out["homophily.draw_ms"] = (
        _ratio(sum(s.duration for s in draws) * 1e3, sum(s.attrs["iterations"] for s in draws)), "ms")
    for attribute in ATTRIBUTES:
        mine = [s for s in draws if s.attrs["attribute"] == attribute]
        out[f"homophily.draw_ms.{attribute}"] = (
            _ratio(sum(s.duration for s in mine) * 1e3, sum(s.attrs["iterations"] for s in mine)), "ms")
    reps = index.named("homophily.load_representations")
    dist("homophily.load_representations_ms", _ms(reps))
    out["homophily.annotators"] = (float(max((s.attrs.get("annotators", 0) for s in reps), default=0)), "count")

    # cli
    for stage in TIMED_STAGES:
        mine = index.named(f"cli.{stage}")
        out[f"cli.{stage}_s"] = (float(sum(s.duration for s in mine)), "s")
        out[f"cli.{stage}_self_s"] = (float(sum(index.self_time(s) for s in mine)), "s")
    return out, tails
