"""End-to-end training for the five regimes and the multi-seed protocol.

One run is strictly sequential over batches (the optimizer state is
serial). All randomness derives from the run seed: batch plans use
seed + epoch, dropout uses a per-run stream, so a (config, seed, data)
triple fixes the whole trajectory. The contrastive ablation is therefore
an ordinary suite: ``socio_contrastive`` at contrastive weight 0 on the
same seeds sees the same batch plans as its weighted twin.

Runs are independent, so `train_suites` trains every (suite, seed) job of
a stage in one pool of worker processes, one BLAS thread each. A job
writes every artifact of its run; only its success or its exception
comes back. Neither the worker count nor the thread count changes a
single output byte.

The ``simple`` regime trains on one sample per unique text with its
majority-vote label; every other regime trains on individual
annotations. `predict` scores a model, trained or loaded from a
checkpoint, against individual annotator labels; the eval stage calls it
on checkpoints, and training scores nothing.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .batcher import BatchTables, assemble_batch, plan_epoch
from .corpus import Dataset, SplitPair, majority_vote
from .errors import DataError, NumericError, SociolensError
from .features import ProfileTable, SocioSchema, VectorTable, build_schema, multihot_rows, save_vector_csv, write_json
from .model import (
    WEIGHT_DTYPE,
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
from .objectives import bce_loss, contrastive_loss


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
    lr: float = 0.01
    batch_size: int = 32
    epochs: int = 7
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5)


# A training log row's keys, in order: the contrastive terms and pair counts are 0 without a contrastive path
LOG_KEYS = ("step", "epoch", "total", "classification", "contrastive_pos", "contrastive_neg", "pos_pairs", "neg_pairs")


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
    heads: list[str] | None,
    dtype: str | np.dtype,
) -> BatchTables:
    """The lookup tables this wiring reads, one row per code of `dataset`; a missing entry is a data error.

    The text and socio rows are cast to `dtype`, the model's, once here, so
    no batch is. Head unit i scores `heads[i]`; an annotator without a head
    gets index -1. The profiles or socio table the wiring reads are given:
    `cli._socio_inputs` refuses a stage that lacks them before any run starts.
    """
    annotators = dataset.annotators.tolist()
    tables = {"text": text_table.rows(dataset.texts.tolist()).astype(dtype)}
    if wiring.per_annotator:
        column = {a: i for i, a in enumerate(heads)}
        tables["annotator_index"] = np.array([column.get(a, -1) for a in annotators], dtype=np.int64)
    if wiring.socio == "multihot":
        tables["socio"] = multihot_rows(dataset.profiles, schema).astype(dtype)
    elif wiring.socio == "embedding":
        tables["socio"] = socio_table.rows(annotators).astype(dtype)
    return BatchTables(**tables)


def check_no_leak(split: SplitPair) -> None:
    """A DataError when a text of the test split is also in the training split."""
    leaked = set(split.train.texts.tolist()) & set(split.test.texts.tolist())
    if leaked:
        raise DataError(f"{len(leaked)} test text(s) also in the training split, e.g. {min(leaked)!r}")


def train_one(
    config: RunConfig,
    seed: int,
    train: Dataset,
    text_table: VectorTable,
    socio_table: VectorTable | None = None,
    out_dir: str | None = None,
    dump_plan: bool = False,
    profiles: ProfileTable | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Train a single seed on `train`; returns the model and one log row per step.

    Deterministic given (config, seed, train, tables).

    With `out_dir`, the run writes `seed<N>/` there: its checkpoint and
    log, its batch plans with `dump_plan`, and for a projected variant
    given `profiles`, the socio representations of every profiled
    annotator.
    """
    if not len(train.records):
        raise DataError("empty training split")

    wiring = WIRING[config.variant]
    schema = build_schema(train.profiles) if wiring.socio == "multihot" else None
    heads = sorted(train.annotators.tolist()) if wiring.per_annotator else None
    tables = _batch_tables(wiring, train, text_table, schema, socio_table, heads, WEIGHT_DTYPE)

    spec = build_model_spec(config, train, tables)
    params = init_params(spec, seed, schema, heads)
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
                    loss, d_logits = bce_loss(probs, batch.labels)
                    total, dE, terms = loss, None, (0.0, 0.0, 0, 0)
                    if wiring.projected:
                        c = contrastive_loss(trace.E_normalized, batch.labels, batch.text_ids, spec.temperature)
                        total = loss + spec.contrastive_weight * (c.pos_term + c.neg_term)
                        if not math.isfinite(total):
                            raise NumericError(f"non-finite combined loss: {total}")
                        # passed at weight 0 too: backward adding its zeros can turn a -0.0 of the
                        # representation gradient into +0.0, so the ablation's bytes depend on it
                        dE = spec.contrastive_weight * c.dE
                        terms = (c.pos_term, c.neg_term, c.pos_pairs, c.neg_pairs)
                    backward(params, trace, d_logits, dE)
                    adam_step(params, config.lr)
                    log_rows.append(dict(zip(LOG_KEYS, (params.step, epoch, total, loss, *terms))))
    except FloatingPointError as exc:
        raise NumericError(f"non-finite value at step {len(log_rows) + 1}: {exc}") from None
    params.work = None

    if out_dir is not None:
        run_dir = os.path.join(out_dir, f"seed{seed}")
        os.makedirs(run_dir, exist_ok=True)
        save_checkpoint(params, os.path.join(run_dir, "checkpoint"), seed)
        with open(os.path.join(run_dir, "log.jsonl"), "w", encoding="utf-8") as fh:
            for row in log_rows:
                fh.write(json.dumps(row) + "\n")
        if dump_plan:
            write_json(os.path.join(run_dir, "plans.json"), {"seed": seed, "epochs": plans}, indent=None)
        if wiring.projected and profiles is not None:
            reps = extract_socio_reps(params, profiles)
            save_vector_csv(reps, os.path.join(run_dir, "representations.csv"), "annotator_id")
    return params, log_rows


# Fixed, not a setting: the last bit of a batched product can depend on where a
# row sits in the batch, so eval's bytes depend on this size.
PREDICT_BATCH_SIZE = 256


def predict(
    params: ModelParams,
    dataset: Dataset,
    text_table: VectorTable,
    socio_table: VectorTable | None = None,
) -> tuple[np.ndarray, int]:
    """Eval-mode probabilities for every record, in record order.

    Returns (probs, unknown_annotator_rows): the second is the count of
    multitask rows scored by the mean-head fallback. The records' own
    labels are what the probabilities are scored against.
    """
    rows = dataset.records
    tables = _batch_tables(
        params.spec.wiring, dataset, text_table, params.schema, socio_table, params.annotators, params.flat.dtype
    )

    probs = np.empty(len(rows), dtype=np.float64)
    for start in range(0, len(rows), PREDICT_BATCH_SIZE):
        batch = assemble_batch(rows, slice(start, start + PREDICT_BATCH_SIZE), tables)
        p, _ = forward(params, batch, mode="eval")
        probs[start : start + len(p)] = p
    fallback_rows = 0
    if tables.annotator_index is not None:
        fallback_rows = int(np.sum(tables.annotator_index[rows["annotator"]] < 0))
    return probs, fallback_rows


# The training split, vector tables and profiles of a pool worker, set once by `_init_worker`.
_WORKER_INPUTS: tuple[Dataset, VectorTable, VectorTable | None, ProfileTable | None] | None = None


def _init_worker(inputs_path: str) -> None:
    global _WORKER_INPUTS
    with open(inputs_path, "rb") as fh:
        _WORKER_INPUTS = pickle.load(fh)


def _run_job(config: RunConfig, seed: int, out_dir: str | None, dump_plan: bool) -> None:
    """One (suite, seed) job in a pool worker: train the run and write its artifacts under `out_dir`."""
    train, text_table, socio_table, profiles = _WORKER_INPUTS
    train_one(config, seed, train, text_table, socio_table, out_dir, dump_plan, profiles)


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
    profiles: ProfileTable | None = None,
) -> None:
    """Train every seed of every `(config, out_dir)` suite in one worker pool, as `train_one` writes each run.

    `split` is checked for leaked test texts before any worker starts.
    The jobs are the suites' seeds in suite order. A spawned worker gets
    the training split, the tables and the profiles once, at start-up, and
    runs one job at a time. The first job in job order that fails is
    raised, naming its seed.
    """
    check_no_leak(split)
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
            pickle.dump((split.train, text_table, socio_table, profiles), fh, protocol=pickle.HIGHEST_PROTOCOL)
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"), _init_worker, (inputs_path,))
        try:
            # a spawned worker starts inside the `submit` that first finds no idle worker
            with _one_blas_thread():
                futures = [pool.submit(_run_job, config, seed, out_dir, dump_plan) for config, seed, out_dir in jobs]
            for (_, seed, _), future in zip(jobs, futures):
                try:
                    future.result()
                except SociolensError as exc:
                    # keep the class so the CLI still maps it to its own exit code
                    raise type(exc)(f"run for seed {seed} failed: {exc}") from exc
                except Exception as exc:  # a worker that died raises BrokenProcessPool
                    raise DataError(f"run for seed {seed} failed: {exc}") from exc
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
) -> None:
    """`train_suites` for one suite."""
    train_suites([(config, out_dir)], split, text_table, socio_table, dump_plan)
