"""End-to-end training for the five regimes, the multi-seed protocol, and the ablation.

One run is strictly sequential over batches (the optimizer state is
serial); runs for different seeds are independent and may execute in
parallel. All randomness derives from the run seed: batch plans use
seed + epoch, dropout uses a per-run stream, so a (config, seed, data)
triple fixes the whole trajectory.

The ``simple`` regime trains on one sample per unique text with its
majority-vote label; every other regime trains on individual
annotations. Evaluation is always against individual annotator labels.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .batcher import assemble_batch, plan_epoch
from .corpus import AnnotationRecord, Dataset, SplitPair, majority_vote
from .errors import ConfigError, DataError, SociolensError
from .features import EmbeddingTable, SocioSchema, build_schema, encode_multihot
from .metrics import MetricsReport, aggregate_runs, confusion_metrics, with_auc
from .model import (
    WIRING,
    ModelParams,
    ModelSpec,
    Wiring,
    adam_step,
    backward,
    extract_socio_reps,
    forward,
    init_params,
    save_checkpoint,
)
from .objectives import bce_loss, combined_loss, contrastive_loss

DEFAULT_SEEDS = (0, 1, 2, 3, 4, 5)


@dataclass(frozen=True)
class RunConfig:
    """One suite's hyperparameters; `config.load_config` validates every field."""

    variant: str
    hidden_dims: tuple[int, int] = (512, 256)
    projection_dims: tuple[int, int] = (64, 128)
    dropout_rate: float = 0.2
    temperature: float = 0.1
    contrastive_weight: float = 1.0
    normalize_embeddings: bool = True
    lr: float = 0.01
    batch_size: int = 32
    epochs: int = 7
    seeds: tuple[int, ...] = DEFAULT_SEEDS


@dataclass
class TrainedRun:
    seed: int
    params: ModelParams
    schema: SocioSchema | None
    annotator_index: dict[str, int] | None
    log_rows: list[dict]
    checkpoint_dir: str | None = None
    log_path: str | None = None
    plan_path: str | None = None


@dataclass
class SuiteResult:
    config: RunConfig
    runs: list[TrainedRun]
    reports: list[MetricsReport]
    aggregate: dict[str, tuple[float, float]]
    fallback_rows: int = 0

    def to_dict(self) -> dict:
        return {
            "variant": self.config.variant,
            "contrastive_weight": self.config.contrastive_weight,
            "seeds": list(self.config.seeds),
            "per_seed": [r.to_dict() for r in self.reports],
            "aggregate": {k: {"mean": m, "std": s} for k, (m, s) in self.aggregate.items()},
            "unknown_annotator_rows": self.fallback_rows,
        }


def build_model_spec(
    config: RunConfig,
    train: Dataset,
    text_table: EmbeddingTable,
    socio_table: EmbeddingTable | None,
    schema: SocioSchema | None,
) -> ModelSpec:
    """Fill the data-dependent spec fields (widths, head count) from the train split."""
    wiring = WIRING[config.variant]
    socio_width = 0
    if wiring.socio == "multihot":
        socio_width = schema.total_width
    elif wiring.socio == "embedding":
        socio_width = socio_table.dimension
    return ModelSpec(
        variant=config.variant,
        text_dim=text_table.dimension,
        socio_width=socio_width,
        hidden_dims=config.hidden_dims,
        projection_dims=config.projection_dims,
        dropout_rate=config.dropout_rate,
        temperature=config.temperature,
        contrastive_weight=config.contrastive_weight,
        annotator_count=len(train.annotator_ids()) if wiring.per_annotator else 0,
        normalize_embeddings=config.normalize_embeddings,
    )


def _check_coverage(dataset: Dataset, table: EmbeddingTable, what: str) -> None:
    missing = [t for t in dataset.text_ids() if t not in table]
    if missing:
        raise DataError(f"{what}: no embedding for text ids {missing[:10]}{'...' if len(missing) > 10 else ''}")


def _batch_sources(
    wiring: Wiring,
    dataset: Dataset,
    schema: SocioSchema | None,
    socio_table: EmbeddingTable | None,
    annotator_index: dict[str, int] | None,
) -> dict:
    """The `assemble_batch` keyword arguments this wiring reads, checked to cover `dataset`."""
    sources = {"annotator_index": annotator_index if wiring.per_annotator else None}
    if wiring.socio == "multihot":
        sources["socio_multihot"] = {a: encode_multihot(p, schema) for a, p in dataset.profiles.items()}
        missing = [a for a in dataset.annotator_ids() if a not in dataset.profiles]
        if missing:
            raise DataError(f"no profile for annotator {missing[0]!r}")
    elif wiring.socio == "embedding":
        if socio_table is None:
            raise DataError("socio_embedding needs an annotator-keyed embedding table")
        missing = [a for a in dataset.annotator_ids() if a not in socio_table]
        if missing:
            raise DataError(f"no socio embedding for annotators {missing[:10]}")
        sources["socio_table"] = socio_table
    return sources


def _majority_dataset(train: Dataset) -> Dataset:
    """One pseudo-record per unique text carrying its majority-vote label."""
    mv = majority_vote(train)
    records = [
        AnnotationRecord(text_id=t, annotator_id="<majority>", raw_score=mv[t], label=mv[t])
        for t in train.text_ids()
    ]
    return Dataset(records=records)


def train_one(
    config: RunConfig,
    seed: int,
    split: SplitPair,
    text_table: EmbeddingTable,
    socio_table: EmbeddingTable | None = None,
    out_dir: str | None = None,
    dump_plan: bool = False,
) -> TrainedRun:
    """Train a single seed; deterministic given (config, seed, split, tables)."""
    train = split.train
    if not train.records:
        raise DataError("empty training split")
    if any(r.label is None for r in train.records):
        raise DataError("training data must be binarized first")
    _check_coverage(train, text_table, "train")
    leaked = set(train.text_ids()) & {r.text_id for r in split.test.records}
    if leaked:
        raise DataError(f"{len(leaked)} test text(s) also in the training split, e.g. {min(leaked)!r}")

    wiring = WIRING[config.variant]
    schema = build_schema(train.profiles) if wiring.socio else None
    annotator_index = None
    if wiring.per_annotator:
        annotator_index = {a: i for i, a in enumerate(sorted(train.annotator_ids()))}
    sources = _batch_sources(wiring, train, schema, socio_table, annotator_index)

    spec = build_model_spec(config, train, text_table, socio_table, schema)
    params = init_params(spec, seed)
    dropout_rng = np.random.default_rng([seed, 0xD0])

    plan_source = _majority_dataset(train) if wiring.majority_vote else train
    log_rows: list[dict] = []
    plans = []
    step = 0
    for epoch in range(config.epochs):
        plan = plan_epoch(plan_source, config.batch_size, seed + epoch)
        if dump_plan:
            plans.append(plan.to_jsonable())
        for indices in plan.batches:
            batch = assemble_batch(plan_source, indices, text_table, **sources)
            probs, trace = forward(params, batch, mode="train", rng=dropout_rng)
            cls_loss, d_logits = bce_loss(probs, batch.labels)
            cres = None
            if wiring.projected:
                cres = contrastive_loss(trace.loss_embedding, batch.labels, batch.text_ids, spec.temperature)
            report, d_logits, dE = combined_loss(cls_loss, d_logits, cres, spec.contrastive_weight)
            grads = backward(params, trace, d_logits, dE)
            params = adam_step(params, grads, config.lr)
            step += 1
            log_rows.append({"step": step, "epoch": epoch, **report.to_dict()})

    run = TrainedRun(
        seed=seed,
        params=params,
        schema=schema,
        annotator_index=annotator_index,
        log_rows=log_rows,
    )
    if out_dir is not None:
        run_dir = os.path.join(out_dir, f"seed{seed}")
        os.makedirs(run_dir, exist_ok=True)
        annotators = sorted(annotator_index, key=annotator_index.get) if annotator_index else None
        run.checkpoint_dir = save_checkpoint(
            params, os.path.join(run_dir, "checkpoint"), seed, annotators=annotators, schema=schema
        )
        run.log_path = os.path.join(run_dir, "log.jsonl")
        with open(run.log_path, "w", encoding="utf-8") as fh:
            for row in log_rows:
                fh.write(json.dumps(row) + "\n")
        if dump_plan:
            run.plan_path = os.path.join(run_dir, "plans.json")
            with open(run.plan_path, "w", encoding="utf-8") as fh:
                json.dump({"seed": seed, "epochs": plans}, fh)
                fh.write("\n")
    return run


def predict(
    run: TrainedRun,
    dataset: Dataset,
    text_table: EmbeddingTable,
    socio_table: EmbeddingTable | None = None,
    batch_size: int = 256,
) -> tuple[np.ndarray, np.ndarray, list[str], int]:
    """Eval-mode probabilities for every record, in record order.

    Returns (probs, labels, annotator_ids, unknown_annotator_rows); the
    last counts multitask rows scored by the mean-head fallback.
    """
    if any(r.label is None for r in dataset.records):
        raise DataError("evaluation data must be binarized first")
    _check_coverage(dataset, text_table, "eval")
    sources = _batch_sources(run.params.spec.wiring, dataset, run.schema, socio_table, run.annotator_index)

    probs = np.empty(len(dataset.records), dtype=np.float64)
    fallback_rows = 0
    for start in range(0, len(dataset.records), batch_size):
        indices = list(range(start, min(start + batch_size, len(dataset.records))))
        batch = assemble_batch(dataset, indices, text_table, **sources)
        if batch.annotator_index is not None:
            fallback_rows += int(np.sum(batch.annotator_index < 0))
        p, _ = forward(run.params, batch, mode="eval")
        probs[start : start + len(indices)] = p
    labels = np.array([r.label for r in dataset.records], dtype=np.float64)
    annotator_ids = [r.annotator_id for r in dataset.records]
    return probs, labels, annotator_ids, fallback_rows


def train_suite(
    config: RunConfig,
    split: SplitPair,
    text_table: EmbeddingTable,
    socio_table: EmbeddingTable | None = None,
    out_dir: str | None = None,
    threads: int = 1,
    dump_plan: bool = False,
) -> SuiteResult:
    """Train every seed, score each on the test split, and aggregate."""

    def one(seed: int) -> TrainedRun:
        try:
            return train_one(config, seed, split, text_table, socio_table, out_dir, dump_plan)
        except SociolensError as exc:
            # keep the class so the CLI still maps it to its own exit code
            raise type(exc)(f"run for seed {seed} failed: {exc}") from exc
        except Exception as exc:
            raise DataError(f"run for seed {seed} failed: {exc}") from exc

    if threads > 1 and len(config.seeds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(one, config.seeds))
    else:
        runs = [one(seed) for seed in config.seeds]

    reports: list[MetricsReport] = []
    total_fallback = 0
    for run in runs:
        probs, labels, _, fallback = predict(run, split.test, text_table, socio_table)
        total_fallback += fallback
        reports.append(with_auc(confusion_metrics(probs, labels), probs, labels))
    return SuiteResult(
        config=config,
        runs=runs,
        reports=reports,
        aggregate=aggregate_runs(reports),
        fallback_rows=total_fallback,
    )


@dataclass
class AblationResult:
    with_contrastive: SuiteResult
    without_contrastive: SuiteResult

    @property
    def f1_delta(self) -> float:
        return (
            self.with_contrastive.aggregate["f1"][0]
            - self.without_contrastive.aggregate["f1"][0]
        )

    def to_dict(self) -> dict:
        return {
            "with_contrastive": self.with_contrastive.to_dict(),
            "without_contrastive": self.without_contrastive.to_dict(),
            "f1_delta": self.f1_delta,
        }


def run_ablation(
    config: RunConfig,
    split: SplitPair,
    text_table: EmbeddingTable,
    socio_table: EmbeddingTable | None = None,
    out_dir: str | None = None,
    threads: int = 1,
) -> AblationResult:
    """Train the contrastive suite and its zero-weight twin on identical seeds."""
    if not WIRING[config.variant].projected:
        raise ConfigError("the ablation applies to the socio_contrastive variant")
    main_dir = os.path.join(out_dir, "socio_contrastive") if out_dir else None
    ablation_dir = os.path.join(out_dir, "ablation") if out_dir else None
    main = train_suite(config, split, text_table, socio_table, main_dir, threads)
    zero = replace(config, contrastive_weight=0.0)
    without = train_suite(zero, split, text_table, socio_table, ablation_dir, threads)
    return AblationResult(with_contrastive=main, without_contrastive=without)


def export_representations(run: TrainedRun, profiles: dict) -> dict[str, np.ndarray]:
    """Socio representations for all profiled annotators under this run's schema."""
    if run.schema is None:
        raise ConfigError("this run has no socio schema")
    return extract_socio_reps(run.params, profiles, run.schema)
