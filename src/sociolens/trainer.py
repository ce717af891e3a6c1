"""End-to-end training for the five regimes and the multi-seed protocol.

One run is strictly sequential over batches (the optimizer state is
serial). All randomness derives from the run seed: batch plans use
seed + epoch, dropout uses a per-run stream, so a (config, seed, data)
triple fixes the whole trajectory. The contrastive ablation is therefore
an ordinary suite: ``socio_contrastive`` at contrastive weight 0 on the
same seeds sees the same batch plans as its weighted twin.

Runs are independent, so `train_suites` trains every (suite, seed) job of
a stage in one pool of worker processes, one BLAS thread each, and takes
their results back in job order. Neither the worker count nor the
thread count changes a single output byte.

The ``simple`` regime trains on one sample per unique text with its
majority-vote label; every other regime trains on individual
annotations. Evaluation is always against individual annotator labels.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import tempfile
from collections import deque
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields

import numpy as np

from .batcher import BatchTables, assemble_batch, plan_epoch
from .corpus import Dataset, SplitPair, majority_vote
from .errors import ConfigError, DataError, NumericError, SociolensError
from .features import ProfileTable, SocioSchema, VectorTable, build_schema, multihot_rows
from .metrics import MetricsReport, aggregate_runs, confusion_metrics
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


@dataclass(frozen=True)
class RunConfig:
    """One suite's hyperparameters; `config.load_config` validates every field.

    A field that `ModelSpec` also has is the spec's field of that name,
    and defaults as the spec's does.
    """

    variant: str
    hidden_dims: tuple[int, int] = ModelSpec.hidden_dims
    projection_dims: tuple[int, int] = ModelSpec.projection_dims
    dropout_rate: float = ModelSpec.dropout_rate
    temperature: float = ModelSpec.temperature
    contrastive_weight: float = ModelSpec.contrastive_weight
    normalize_embeddings: bool = ModelSpec.normalize_embeddings
    lr: float = 0.01
    batch_size: int = 32
    epochs: int = 7
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5)


@dataclass
class TrainedRun:
    seed: int
    params: ModelParams
    schema: SocioSchema | None
    annotator_index: dict[str, int] | None
    log_rows: list[dict]


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


def build_model_spec(config: RunConfig, train: Dataset, tables: BatchTables) -> ModelSpec:
    """The spec of `config`'s fields that `ModelSpec` shares, its widths from `tables`, its head count from `train`."""
    run = asdict(config)
    return ModelSpec(
        text_dim=tables.text.shape[1],
        socio_width=0 if tables.socio is None else tables.socio.shape[1],
        annotator_count=len(train.annotators) if WIRING[config.variant].per_annotator else 0,
        **{f.name: run[f.name] for f in fields(ModelSpec) if f.name in run},
    )


def _batch_tables(
    wiring: Wiring,
    dataset: Dataset,
    text_table: VectorTable,
    schema: SocioSchema | None,
    socio_table: VectorTable | None,
    annotator_index: dict[str, int] | None,
) -> BatchTables:
    """The lookup tables this wiring reads, one row per code of `dataset`; a missing entry is a data error."""
    annotators = dataset.annotators.tolist()
    tables = {"text": text_table.rows(dataset.texts.tolist())}
    if wiring.per_annotator:
        tables["annotator_index"] = np.array([annotator_index.get(a, -1) for a in annotators], dtype=np.int64)
    if wiring.socio == "multihot":
        if dataset.profiles is None:
            raise DataError("multi-hot socio rows need annotator profiles")
        tables["socio"] = multihot_rows(dataset.profiles, schema)
    elif wiring.socio == "embedding":
        if socio_table is None:
            raise DataError("socio_embedding needs an annotator-keyed embedding table")
        tables["socio"] = socio_table.rows(annotators)
    return BatchTables(**tables)


def train_one(
    config: RunConfig,
    seed: int,
    split: SplitPair,
    text_table: VectorTable,
    socio_table: VectorTable | None = None,
    out_dir: str | None = None,
    dump_plan: bool = False,
) -> TrainedRun:
    """Train a single seed; deterministic given (config, seed, split, tables)."""
    train = split.train
    if not len(train.records):
        raise DataError("empty training split")
    if (train.records["label"] < 0).any():
        raise DataError("training data must be binarized first")
    leaked = set(train.texts.tolist()) & set(split.test.texts.tolist())
    if leaked:
        raise DataError(f"{len(leaked)} test text(s) also in the training split, e.g. {min(leaked)!r}")

    wiring = WIRING[config.variant]
    schema = build_schema(train.profiles) if wiring.socio else None
    annotator_index = {a: i for i, a in enumerate(sorted(train.annotators.tolist()))} if wiring.per_annotator else None
    tables = _batch_tables(wiring, train, text_table, schema, socio_table, annotator_index)

    spec = build_model_spec(config, train, tables)
    params = init_params(spec, seed)
    dropout_rng = np.random.default_rng([seed, 0xD0])

    rows = train.records
    if wiring.majority_vote:
        # one row per text, in text-code order, labelled by the text's majority vote
        rows = np.zeros(len(train.texts), dtype=rows.dtype)
        rows["text"] = np.arange(len(train.texts))
        rows["label"] = majority_vote(train)
    log_rows: list[dict] = []
    plans = []
    try:
        # fail at the first overflow or NaN, not after it has run through a whole step
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(config.epochs):
                plan = plan_epoch(rows["text"], config.batch_size, seed + epoch)
                if dump_plan:
                    plans.append(plan.to_jsonable())
                for indices in plan.batches:
                    batch = assemble_batch(rows, indices, tables)
                    probs, trace = forward(params, batch, mode="train", rng=dropout_rng)
                    cls_loss, d_logits = bce_loss(probs, batch.labels)
                    cres = None
                    if wiring.projected:
                        cres = contrastive_loss(trace.loss_embedding, batch.labels, batch.text_ids, spec.temperature)
                    report, d_logits, dE = combined_loss(cls_loss, d_logits, cres, spec.contrastive_weight)
                    adam_step(params, backward(params, trace, d_logits, dE), config.lr)
                    log_rows.append({"step": params.step, "epoch": epoch, **report.to_dict()})
    except FloatingPointError as exc:
        raise NumericError(f"non-finite value at step {len(log_rows) + 1}: {exc}") from None
    params.work = None

    if out_dir is not None:
        run_dir = os.path.join(out_dir, f"seed{seed}")
        os.makedirs(run_dir, exist_ok=True)
        annotators = sorted(annotator_index, key=annotator_index.get) if annotator_index else None
        save_checkpoint(params, os.path.join(run_dir, "checkpoint"), seed, annotators=annotators, schema=schema)
        with open(os.path.join(run_dir, "log.jsonl"), "w", encoding="utf-8") as fh:
            for row in log_rows:
                fh.write(json.dumps(row) + "\n")
        if dump_plan:
            with open(os.path.join(run_dir, "plans.json"), "w", encoding="utf-8") as fh:
                json.dump({"seed": seed, "epochs": plans}, fh)
                fh.write("\n")
    return TrainedRun(seed=seed, params=params, schema=schema, annotator_index=annotator_index, log_rows=log_rows)


def predict(
    run: TrainedRun,
    dataset: Dataset,
    text_table: VectorTable,
    socio_table: VectorTable | None = None,
    batch_size: int = 256,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Eval-mode probabilities for every record, in record order.

    Returns (probs, labels, unknown_annotator_rows): the last is the count
    of multitask rows scored by the mean-head fallback.
    """
    rows = dataset.records
    if (rows["label"] < 0).any():
        raise DataError("evaluation data must be binarized first")
    tables = _batch_tables(run.params.spec.wiring, dataset, text_table, run.schema, socio_table, run.annotator_index)

    probs = np.empty(len(rows), dtype=np.float64)
    for start in range(0, len(rows), batch_size):
        batch = assemble_batch(rows, slice(start, start + batch_size), tables)
        p, _ = forward(run.params, batch, mode="eval")
        probs[start : start + len(p)] = p
    fallback_rows = 0
    if tables.annotator_index is not None:
        fallback_rows = int(np.sum(tables.annotator_index[rows["annotator"]] < 0))
    return probs, rows["label"].astype(np.float64), fallback_rows


# The split and vector tables of a pool worker, set once by `_init_worker`.
_WORKER_INPUTS: tuple[SplitPair, VectorTable, VectorTable | None] | None = None


def _init_worker(inputs_path: str) -> None:
    global _WORKER_INPUTS
    with open(inputs_path, "rb") as fh:
        _WORKER_INPUTS = pickle.load(fh)


def _run_job(
    config: RunConfig, seed: int, out_dir: str | None, dump_plan: bool
) -> tuple[TrainedRun, tuple[ModelSpec, int, np.ndarray], MetricsReport, int]:
    """One (suite, seed) job in a pool worker: train and write the run, then score it on the test split.

    The run goes back without its params, which `train_suites` rebuilds
    from the spec, step and weights row sent beside it. Adam's moments
    stay in the checkpoint: nothing after training reads them, and they
    would triple what the worker pickles.
    """
    split, text_table, socio_table = _WORKER_INPUTS
    run = train_one(config, seed, split, text_table, socio_table, out_dir, dump_plan)
    probs, labels, fallback = predict(run, split.test, text_table, socio_table)
    params, run.params = run.params, None
    return run, (params.spec, params.step, params.flat[0]), confusion_metrics(probs, labels), fallback


@contextlib.contextmanager
def _one_blas_thread():
    """Children started inside the block load numpy with one BLAS thread; the environment is restored after."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def train_suites(
    suites: list[tuple[RunConfig, str | None]],
    split: SplitPair,
    text_table: VectorTable,
    socio_table: VectorTable | None = None,
    dump_plan: bool = False,
) -> Iterator[SuiteResult]:
    """Train every seed of every `(config, out_dir)` suite in one worker pool; yield each suite's result in order.

    The jobs are the suites' seeds in suite order. A spawned worker gets
    the split and tables once, at start-up, and runs one job at a time.
    The first job in job order that fails is raised, naming its seed. A
    run's params hold its trained weights; its Adam moments read zero.
    """
    # imported here, not at the top, so that the commands that start no process load no multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import resource_tracker

    jobs = [(config, seed, out_dir) for config, out_dir in suites for seed in config.seeds]
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    # a spawn pool's queues start multiprocessing's resource tracker, a helper
    # process that would live as long as this one: stop it with the pool
    tracker = resource_tracker._resource_tracker
    tracker_was_running = tracker._fd is not None
    # The inputs are pickled once, to a file that each worker's initializer reads. Passed
    # as initializer arguments instead, they would be written into each spawned worker's
    # start-up pipe, which blocks the parent until that worker has imported numpy, so the
    # workers would start one after another.
    with tempfile.TemporaryDirectory(prefix="sociolens-") as inputs_dir:
        inputs_path = os.path.join(inputs_dir, "inputs.pickle")
        with open(inputs_path, "wb") as fh:
            pickle.dump((split, text_table, socio_table), fh, protocol=pickle.HIGHEST_PROTOCOL)
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"), _init_worker, (inputs_path,))
        try:
            # a spawned worker starts inside the `submit` that first finds no idle worker
            with _one_blas_thread():
                futures = deque(
                    pool.submit(_run_job, config, seed, out_dir, dump_plan) for config, seed, out_dir in jobs
                )
            for config, _ in suites:
                runs, reports, total_fallback = [], [], 0
                for seed in config.seeds:
                    try:
                        # popleft: the parent keeps no result past its suite
                        run, (spec, step, weights), report, fallback = futures.popleft().result()
                    except SociolensError as exc:
                        # keep the class so the CLI still maps it to its own exit code
                        raise type(exc)(f"run for seed {seed} failed: {exc}") from exc
                    except Exception as exc:  # a worker that died raises BrokenProcessPool
                        raise DataError(f"run for seed {seed} failed: {exc}") from exc
                    run.params = ModelParams(spec, step)  # its moments read zero
                    run.params.flat[0] = weights
                    runs.append(run)
                    reports.append(report)
                    total_fallback += fallback
                yield SuiteResult(
                    config=config,
                    runs=runs,
                    reports=reports,
                    aggregate=aggregate_runs(reports),
                    fallback_rows=total_fallback,
                )
        finally:
            # jobs not yet started are dropped; running ones finish and their workers exit
            pool.shutdown(cancel_futures=True)
            if not tracker_was_running:
                tracker._stop()


def train_suite(
    config: RunConfig,
    split: SplitPair,
    text_table: VectorTable,
    socio_table: VectorTable | None = None,
    out_dir: str | None = None,
    dump_plan: bool = False,
) -> SuiteResult:
    """Train every seed of one suite in a worker pool, score each on the test split, and aggregate."""
    with contextlib.closing(train_suites([(config, out_dir)], split, text_table, socio_table, dump_plan)) as results:
        return next(results)


def export_representations(run: TrainedRun, profiles: ProfileTable) -> VectorTable:
    """Socio representations for all profiled annotators under this run's schema."""
    if run.schema is None:
        raise ConfigError("this run has no socio schema")
    return extract_socio_reps(run.params, profiles, run.schema)
