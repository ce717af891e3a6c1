"""Shared test utilities.

A small CLI config and chain runner, dataset and batch construction,
random annotation tables for property tests, the record-based batch-plan
reference, the finite-difference and contrastive-loss oracles, the per-tensor Adam
reference, the per-draw homophily reference and the full-sort neighbor
order whose first entries the package keeps, the per-threshold ROC
reference, and the single-statistic homophily, pair-counting AUC,
ROC-area and embedding-format oracles that the package itself does not
need, and the per-profile schema, multi-hot and category oracles with a
strategy for profile CSVs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from sociolens.batcher import Batch
from sociolens.cli import main
from sociolens.corpus import Dataset
from sociolens.errors import ConfigError, DataError, NumericError
from sociolens.features import MISSING, ProfileTable, SocioSchema, VectorTable
from sociolens.homophily import (
    HomophilyRow,
    RepSpace,
    _chance,
    _check_space,
    _distance_blocks,
    _list_depth,
    _nearest,
    _neighbor_order,
    _same_fraction,
)
from sociolens.metrics import aggregate_runs, confusion_metrics
from sociolens.model import ModelSpec, backward, forward, init_params
from sociolens.objectives import bce_loss, combined_loss, contrastive_loss
from sociolens.trainer import SuiteResult, predict, train_one


def base_config(out_dir: str) -> dict:
    return {
        "output_dir": out_dir,
        "verbosity": 0,
        "synth": {
            "annotator_count": 30,
            "text_count": 36,
            "annotations_per_text": 4,
            "embedding_dim": 8,
            "embedding_noise": 0.1,
            "seed": 3,
            "attributes": [
                {"name": "group", "categories": ["a", "b"], "probabilities": [0.5, 0.5]},
                {"name": "extra", "categories": ["x", "y", "z"]},
            ],
            "signal": {"group": {"a": 2.5, "b": -2.5}},
            "socio_embedding_dim": 6,
        },
        "prep": {
            "min_annotators_per_text": 1,
            "min_annotations_per_annotator": 1,
            "train_fraction": 0.7,
            "seed": 11,
        },
        "train": {
            "variant": ["simple", "socio_contrastive"],
            "seeds": [0],
            "epochs": 2,
            "batch_size": 8,
            "hidden_dims": [16, 8],
            "projection_dims": [4, 6],
            "ablation": True,
        },
        "homophily": {"k": 5, "iterations": 20, "seed": 1},
        "eval": {},
    }


def run_chain(tmp_path: Path, config: dict, commands=("synth", "prep", "train", "eval", "homophily", "report")):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    for command in commands:
        code = main([command, "--config", str(config_path)])
        assert code == 0, f"{command} exited {code}"
    return Path(config["output_dir"])


def sequential_train_suites(suites, split, text_table, socio_table=None, dump_plan=False):
    """`trainer.train_suites` in this process: every job through `train_one`, one after another in job order."""
    for config, out_dir in suites:
        runs = [train_one(config, seed, split, text_table, socio_table, out_dir, dump_plan) for seed in config.seeds]
        scored = [predict(run, split.test, text_table, socio_table) for run in runs]
        reports = [confusion_metrics(probs, labels) for probs, labels, _ in scored]
        yield SuiteResult(config, runs, reports, aggregate_runs(reports), sum(fallback for *_, fallback in scored))


def child_pids() -> list[str]:
    """Process ids of this process's living children, every thread's included (Linux)."""
    task = Path("/proc/self/task")
    return [pid for thread in task.iterdir() for pid in (thread / "children").read_text().split()]


def make_dataset(triples, labels: bool = False) -> Dataset:
    """A dataset of (text id, annotator id, score) rows; `labels` binarizes them as well."""
    text_ids, annotator_ids, scores = (list(column) for column in zip(*triples)) if triples else ([], [], [])
    return Dataset.from_columns(
        text_ids, annotator_ids, scores, [int(s > 0) for s in scores] if labels else None
    )


def rows_of(dataset: Dataset) -> list[tuple[str, str, int, int]]:
    """(text id, annotator id, score, label) per record, in record order; label -1 = unbinarized."""
    r = dataset.records
    return list(zip(
        dataset.texts[r["text"]].tolist(), dataset.annotators[r["annotator"]].tolist(),
        r["score"].tolist(), r["label"].tolist(),
    ))


@st.composite
def annotation_triples(draw, texts: int = 8, annotators: int = 8, max_rows: int = 40):
    """Distinct (text id, annotator id) pairs in random order, each with a score in 0..3."""
    pairs = draw(st.lists(
        st.tuples(st.integers(0, texts - 1), st.integers(0, annotators - 1)), max_size=max_rows, unique=True
    ))
    scores = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return [(f"t{t}", f"a{a}", s) for (t, a), s in zip(pairs, scores)]


def reference_plan_epoch(text_ids: list[str], batch_size: int, seed: int) -> list[list[int]]:
    """`batcher.plan_epoch` as it grouped rows by text id: one dict of row lists in first-appearance order.

    `text_ids[i]` is row i's text id. Text order and then each text's rows
    are shuffled by one generator, in that order, and the stream is cut
    into consecutive batches.
    """
    groups: dict[str, list[int]] = {}
    for idx, text_id in enumerate(text_ids):
        groups.setdefault(text_id, []).append(idx)
    rng = np.random.default_rng(seed)
    text_order = list(groups)
    rng.shuffle(text_order)
    stream: list[int] = []
    for text_id in text_order:
        members = list(groups[text_id])
        rng.shuffle(members)
        stream.extend(members)
    return [stream[i : i + batch_size] for i in range(0, len(stream), batch_size)]


def split_plan_epoch(text_codes: np.ndarray, batch_size: int, seed: int) -> list[np.ndarray]:
    """`batcher.plan_epoch`'s batches as it built them, one `np.split` view per text group."""
    order = np.argsort(text_codes, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(text_codes[order])) + 1)
    rng = np.random.default_rng(seed)
    text_order = np.arange(len(groups))
    rng.shuffle(text_order)
    for g in text_order:
        rng.shuffle(groups[g])
    stream = np.concatenate([groups[g] for g in text_order])
    return [stream[i : i + batch_size] for i in range(0, len(stream), batch_size)]


def random_batch(rng: np.random.Generator, spec: ModelSpec, size: int, n_texts: int) -> Batch:
    """A random batch shaped for `spec`, with repeated text ids so pairs exist."""
    batch = Batch(
        text=rng.standard_normal((size, spec.text_dim)),
        labels=rng.integers(0, 2, size=size).astype(np.float64),
        text_ids=[f"t{rng.integers(0, n_texts)}" for _ in range(size)],
    )
    wiring = spec.wiring
    if wiring.socio == "multihot":
        multihot = np.zeros((size, spec.socio_width))
        for i in range(size):
            hot = rng.choice(spec.socio_width, size=min(2, spec.socio_width), replace=False)
            multihot[i, hot] = 1.0
        batch.socio = multihot
    if wiring.socio == "embedding":
        batch.socio = rng.standard_normal((size, spec.socio_width))
    if wiring.per_annotator:
        batch.annotator_index = rng.integers(-1, spec.annotator_count, size=size)
    return batch


def contrastive_loss_oracle(E: np.ndarray, labels: np.ndarray, text_ids: list[str], tau: float) -> float:
    """Scalar-loop twin of `contrastive_loss` for small batches.

    Every softmax denominator is accumulated pairwise with no matrix
    shortcuts, so agreement with the vectorized path is meaningful.
    """
    E = np.asarray(E, dtype=np.float64)
    b = E.shape[0]
    y = list(np.asarray(labels).tolist())

    def sim(i: int, j: int) -> float:
        total = 0.0
        for d in range(E.shape[1]):
            total += E[i, d] * E[j, d]
        return total / tau

    def softmax_entry(i: int, j: int) -> float:
        m = -math.inf
        for k in range(b):
            m = max(m, sim(i, k))
        denom = 0.0
        for k in range(b):
            denom += math.exp(sim(i, k) - m)
        return math.exp(sim(i, j) - m) / denom

    pos_sum = 0.0
    neg_sum = 0.0
    n_pos = 0
    n_neg = 0
    for i in range(b):
        for j in range(b):
            if i == j or text_ids[i] != text_ids[j]:
                continue
            if y[i] == y[j]:
                n_pos += 1
                pos_sum += -math.log(softmax_entry(i, j))
            else:
                n_neg += 1
                neg_sum += softmax_entry(i, j)
    return pos_sum / max(n_pos, 1) + neg_sum / max(n_neg, 1)


def combined_objective(params, batch, spec, dropout_seed):
    """Scalar loss plus the gradient streams, with dropout masks frozen by seed."""
    rng = np.random.default_rng(dropout_seed)
    probs, trace = forward(params, batch, mode="train", rng=rng)
    cls, d_logits = bce_loss(probs, batch.labels)
    cres = None
    if spec.wiring.projected:
        cres = contrastive_loss(trace.loss_embedding, batch.labels, batch.text_ids, spec.temperature)
    report, d_logits, dE = combined_loss(cls, d_logits, cres, spec.contrastive_weight)
    return report.total, trace, d_logits, dE


def reference_adam_step(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor Adam update that `model.adam_step` replaced; mutates and returns `params`.

    `params` is anything with `tensors`, `m` and `v` dicts of separate
    arrays and a `step`; the flat `adam_step` must match it bit for bit.
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    if set(grads) != set(params.tensors):
        raise DataError(f"gradient keys {sorted(grads)} != parameter keys {sorted(params.tensors)}")
    for name, g in grads.items():
        if g.shape != params.tensors[name].shape:
            raise DataError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}; update refused at step {params.step + 1}")
    params.step += 1
    bc1 = 1.0 - beta1 ** params.step
    bc2 = 1.0 - beta2 ** params.step
    for name, g in grads.items():
        m = params.m[name]
        v = params.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        params.tensors[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        if not np.all(np.isfinite(params.tensors[name])):
            raise NumericError(f"non-finite parameter {name} after step {params.step}")
    return params


def random_small_spec(rng: np.random.Generator, variant: str) -> ModelSpec:
    kw = dict(
        text_dim=int(rng.integers(2, 5)),
        hidden_dims=(int(rng.integers(3, 6)), int(rng.integers(2, 5))),
        dropout_rate=float(rng.choice([0.0, 0.2, 0.35])),
    )
    if variant in ("socio_multihot", "socio_embedding"):
        kw["socio_width"] = int(rng.integers(2, 6))
    if variant == "socio_contrastive":
        kw["socio_width"] = int(rng.integers(4, 8))
        kw["projection_dims"] = (int(rng.integers(2, 5)), int(rng.integers(3, 6)))
        kw["temperature"] = float(rng.choice([0.1, 0.5, 1.0]))
        kw["contrastive_weight"] = float(rng.choice([0.5, 1.0]))
        kw["normalize_embeddings"] = bool(rng.integers(0, 2))
    if variant == "multitask":
        kw["annotator_count"] = int(rng.integers(2, 5))
    return ModelSpec(variant=variant, **kw)


def gradient_check_instance(variant: str, seed: int, step: float = 1e-6) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Parameters are nudged off their init so no ReLU pre-activation sits
    exactly on the kink (where a finite difference straddles the
    non-differentiable point and is not a valid oracle).
    """
    rng = np.random.default_rng(seed)
    spec = random_small_spec(rng, variant)
    params = init_params(spec, int(rng.integers(0, 1000)))
    for tensor in params.tensors.values():
        tensor += 0.05 * rng.standard_normal(tensor.shape)
    size = int(rng.integers(2, 7))
    batch = random_batch(rng, spec, size, n_texts=max(1, size // 2))
    return worst_gradient_error(params, batch, int(rng.integers(0, 10**6)), step)


def worst_gradient_error(params, batch, dropout_seed: int, step: float = 1e-6) -> float:
    """Worst relative error between `backward` and central differences of the combined loss on `batch`."""
    spec = params.spec
    _, trace, d_logits, dE = combined_objective(params, batch, spec, dropout_seed)
    grads = backward(params, trace, d_logits, dE)

    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.ravel()
        analytic = grads[name].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up, *_ = combined_objective(params, batch, spec, dropout_seed)
            flat[j] = orig - step
            down, *_ = combined_objective(params, batch, spec, dropout_seed)
            flat[j] = orig
            fd = (up - down) / (2.0 * step)
            worst = max(worst, abs(analytic[j] - fd) / max(abs(analytic[j]), abs(fd), 1e-4))
    return worst


def _subset_order(dist: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row i: every other local index by (distance to i, id, index)."""
    by_id = np.argsort(ids, kind="stable")
    neighbors = by_id[np.argsort(dist[:, by_id], axis=1, kind="stable")]
    return np.array([row[row != i] for i, row in enumerate(neighbors)])


def reference_homophily_table(
    space: RepSpace, k: int, iterations: int, seed: int, metric: str, attributes: list[str]
) -> list[HomophilyRow]:
    """Homophily rows the per-draw way: every draw of every attribute sorts its own members afresh.

    Pair distances come from one table over the space's unique vectors, built
    by the blocks the package uses. A matrix product's last bit can depend on
    where a vector sits in it, so distances recomputed per draw could reorder
    distinct vectors at equal true distance, and the comparison would test
    rounding rather than the neighbor search.
    """
    n = len(space)
    unique, inverse = np.unique(space.vectors, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    table = np.vstack([rows for _, rows in _distance_blocks(unique, metric)])
    ids_all = np.array(space.annotator_ids, dtype=object)
    rows = []
    for attribute in attributes:
        cats_all = space.codes[:, space.attributes.index(attribute)]
        observed, chance = [], []
        for it in range(iterations):
            draw = np.random.default_rng([seed, it]).integers(0, n, size=n)
            distinct, weights = np.unique(draw, return_counts=True)
            if len(distinct) <= k:
                raise DataError(f"bootstrap iteration {it}: only {len(distinct)} distinct annotators")
            members = inverse[distinct]
            order = _subset_order(table[members][:, members], ids_all[distinct])
            cats = cats_all[distinct]
            fractions = (cats[order[:, :k]] == cats[:, None]).mean(axis=1)
            observed.append(float(np.average(fractions, weights=weights)))
            counts = Counter(cats_all[draw].tolist())
            chance.append(sum(c * c for c in counts.values()) / (n * n))
        observed, chance = np.array(observed), np.array(chance)
        ratios = observed / chance
        rows.append(HomophilyRow(
            attribute, float(observed.mean()), float(observed.std()), float(chance.mean()),
            float(chance.std()), float(ratios.mean()), float(ratios.std()), k, iterations,
        ))
    rows.sort(key=lambda r: -r.ratio_mean)
    return rows


def space_of(ids: list[str], vectors: np.ndarray, attributes: dict[str, list[str]]) -> RepSpace:
    """A representation space whose annotators hold the category strings `attributes` lists, coded in sorted order."""
    codes = [np.unique(np.array(cats, dtype=object), return_inverse=True)[1] for cats in attributes.values()]
    return RepSpace(ids, vectors, list(attributes), np.array(codes, dtype=np.intp).reshape(len(attributes), len(ids)).T)


def full_neighbor_order(vectors: np.ndarray, ids: list[str], metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Every unique vector's whole neighbor order, by one stable sort of each distance row, and each annotator's row.

    order[row_of[i]] holds every index, i included, sorted by (distance to
    i, annotator id, index); the package keeps only the first entries of it.
    """
    unique, row_of = np.unique(vectors, axis=0, return_inverse=True)
    row_of = row_of.reshape(-1)
    by_id = np.argsort(np.array(ids, dtype=object), kind="stable").astype(np.int32)
    order = np.empty((len(unique), len(ids)), dtype=np.int32)
    for start, dist in _distance_blocks(unique, metric):
        ranked = np.argsort(dist[:, row_of[by_id]], axis=1, kind="stable")
        order[start : start + len(dist)] = by_id[ranked]
    return order, row_of


def _package_neighbors(space: RepSpace, rows: np.ndarray, k: int, metric: str) -> np.ndarray:
    """The package's k nearest annotators to each of `rows` in the whole space, from lists as deep as a draw's."""
    lists = _neighbor_order(space.vectors, space.annotator_ids, metric, _list_depth(len(space), k))
    return _nearest(lists, np.ones(len(space), dtype=bool), rows, k)


def knn(space: RepSpace, i: int, k: int, metric: str = "cosine") -> list[int]:
    """Indices of the k nearest annotators to row i, excluding i itself, from the package's neighbor order."""
    _check_space(space, [], k)
    return _package_neighbors(space, np.array([i]), k, metric)[0].tolist()


def observed_probability(space: RepSpace, attribute: str, k: int = 50, metric: str = "cosine") -> float:
    """Mean over annotators of the same-attribute fraction among their k neighbors, without resampling."""
    _check_space(space, [attribute], k)
    rows = np.arange(len(space))
    neighbors = _package_neighbors(space, rows, k, metric)
    return float(_same_fraction(space.codes[:, space.attributes.index(attribute)], rows, neighbors).mean())


def chance_probability(space: RepSpace, attribute: str) -> float:
    """Sum of squared category frequencies over the whole space; position-independent by construction."""
    if attribute not in space.attributes:
        raise DataError(f"attribute {attribute!r} not present in representation space")
    return _chance(space.codes[:, space.attributes.index(attribute)])


def homophily_ratio(space: RepSpace, attribute: str, k: int = 50, metric: str = "cosine") -> float:
    chance = chance_probability(space, attribute)
    if chance <= 0.0:
        raise DataError("chance probability is zero; empty annotator pool?")
    return observed_probability(space, attribute, k, metric) / chance


def reference_roc_curve(probs, labels) -> list[tuple[float, float, float]]:
    """`metrics.roc_curve` as one rescan of every score per distinct threshold."""
    p = np.asarray(probs, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = int(p.size - n_pos)
    points = [(float("inf"), 0.0, 0.0)]
    for threshold in sorted(set(p.tolist()), reverse=True):
        pred = p >= threshold
        tpr = float(np.sum(pred & pos)) / n_pos
        fpr = float(np.sum(pred & ~pos)) / n_neg
        points.append((float(threshold), fpr, tpr))
    return points


def pair_counting_auc(probs, labels) -> float:
    """AUC oracle: concordant positive/negative pairs over all pairs, ties worth half."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def roc_curve_area(points: list[tuple[float, float, float]]) -> float:
    """Trapezoidal area under a `metrics.roc_curve` point list."""
    area = 0.0
    for (_, x0, y0), (_, x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def decode_multihot(vec: np.ndarray, schema: SocioSchema) -> dict[str, str]:
    """Inverse of one `features.multihot_rows` row: recover the category per attribute."""
    if vec.shape != (schema.total_width,):
        raise DataError(f"vector width {vec.shape} does not match schema width {schema.total_width}")
    out: dict[str, str] = {}
    offset = 0
    for attr, cats in schema.attributes:
        block = vec[offset : offset + len(cats)]
        hot = np.flatnonzero(block == 1.0)
        if hot.size != 1:
            raise DataError(f"attribute {attr!r} block is not one-hot")
        out[attr] = cats[int(hot[0])]
        offset += len(cats)
    return out


def save_embeddings_binary(table: VectorTable, path: str) -> None:
    """Write `table` in the PEMB format that `features.load_embeddings` reads."""
    with open(path, "wb") as fh:
        fh.write(b"PEMB")
        fh.write(struct.pack("<II", table.dimension, len(table)))
        for key, vec in zip(table.keys, table.matrix):
            key_bytes = key.encode("utf-8")
            fh.write(struct.pack("<I", len(key_bytes)))
            fh.write(key_bytes)
            fh.write(vec.astype("<f4").tobytes())


PROFILE_ID_CHARS = st.characters(blacklist_categories=("Cs",)) | st.sampled_from(',"\n\r é☃')


@st.composite
def profile_csvs(draw):
    """The text of a profile file written by `csv.writer`.

    Rows may decline an attribute (an empty cell) or stop short, the first
    annotator may decline the first column, a category may occur in only
    a few rows, and ids hold commas, quotes, newlines and non-ASCII text.
    """
    attributes = draw(st.lists(st.sampled_from(["g", "h", "age", 'q"t', "x,y", "é"]), min_size=1, max_size=4, unique=True))
    ids = draw(st.lists(st.text(PROFILE_ID_CHARS, max_size=5), min_size=1, max_size=8, unique=True))
    cell = st.sampled_from(["", "", "a", "b", "c,d", "ü"])
    rows = []
    for i, aid in enumerate(ids):
        cells = draw(st.lists(cell, min_size=len(attributes), max_size=len(attributes)))
        if i == 0 and draw(st.booleans()):
            cells[0] = ""
        if draw(st.booleans()):
            cells = cells[: draw(st.integers(0, len(cells)))]
        rows.append([aid] + cells)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["annotator_id"] + attributes)
    writer.writerows(rows)
    return buffer.getvalue()


def reference_profiles(path: str) -> dict[str, dict[str, str]]:
    """Each annotator's answered attributes in column order, keyed by id in file order: a profile file read row by row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        attributes = [c for c in reader.fieldnames if c != "annotator_id"]
        return {row["annotator_id"]: {a: row[a] for a in attributes if row[a] not in (None, "")} for row in reader}


def reference_schema(profiles: list[dict[str, str]]) -> SocioSchema:
    """The schema of per-profile answers: attributes by first answer, categories sorted, MISSING last."""
    order: list[str] = []
    observed: dict[str, set[str]] = {}
    for assignments in profiles:
        for attribute, category in assignments.items():
            if attribute not in observed:
                observed[attribute] = set()
                order.append(attribute)
            observed[attribute].add(category)
    return SocioSchema([(attribute, sorted(observed[attribute]) + [MISSING]) for attribute in order])


def profiles_of(profiles: dict[str, dict[str, str]]) -> ProfileTable:
    """The profile table of per-profile answers; attributes in order of first appearance, an absent one declined."""
    attributes = list(dict.fromkeys(a for assignments in profiles.values() for a in assignments))
    cells = np.array([[assignments.get(a) or "" for a in attributes] for assignments in profiles.values()], dtype=object)
    return ProfileTable.from_cells(list(profiles), attributes, cells.reshape(len(profiles), len(attributes)))


def profile_dicts(profiles: ProfileTable) -> dict[str, dict[str, str]]:
    """Each annotator's answered attributes in column order, keyed by id in table order: a table read cell by cell."""
    return {
        aid: {a: profiles.categories[j][code] for j, (a, code) in enumerate(zip(profiles.attributes, row)) if code >= 0}
        for aid, row in zip(profiles.annotators, profiles.answers.tolist())
    }


def reference_category(assignments: dict[str, str], attribute: str, categories: list[str]) -> str:
    """The category an answer counts under: MISSING for a declined answer or one outside `categories`."""
    category = assignments.get(attribute)
    return category if category and category in categories else MISSING


def reference_multihot(assignments: dict[str, str], schema: SocioSchema) -> np.ndarray:
    """One profile's multi-hot row: per schema attribute block, a 1 at its `reference_category`."""
    vec = np.zeros(schema.total_width, dtype=np.float64)
    offset = 0
    for attribute, categories in schema.attributes:
        vec[offset + categories.index(reference_category(assignments, attribute, categories))] = 1.0
        offset += len(categories)
    return vec
