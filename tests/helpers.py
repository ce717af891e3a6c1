"""Shared test utilities.

A small CLI config and chain runner, batch construction, the
finite-difference and contrastive-loss oracles, the per-tensor Adam
reference, the per-draw homophily reference, the per-threshold ROC
reference, and the single-statistic homophily, pair-counting AUC,
ROC-area and embedding-format oracles that the package itself does not
need.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np

from sociolens.batcher import Batch
from sociolens.cli import main
from sociolens.errors import ConfigError, DataError, NumericError
from sociolens.features import EmbeddingTable, SocioSchema
from sociolens.homophily import (
    HomophilyRow,
    RepSpace,
    _chance,
    _check_space,
    _codes,
    _distance_blocks,
    _nearest,
    _neighbor_order,
    _same_fraction,
)
from sociolens.model import ModelSpec, backward, forward, init_params
from sociolens.objectives import bce_loss, combined_loss, contrastive_loss


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


def random_batch(rng: np.random.Generator, spec: ModelSpec, size: int, n_texts: int, n_annotators: int = 4) -> Batch:
    """A random batch shaped for `spec`, with repeated text ids so pairs exist."""
    batch = Batch(
        text=rng.standard_normal((size, spec.text_dim)),
        labels=rng.integers(0, 2, size=size).astype(np.float64),
        text_ids=[f"t{rng.integers(0, n_texts)}" for _ in range(size)],
        annotator_ids=[f"a{i}" for i in rng.integers(0, n_annotators, size=size)],
    )
    wiring = spec.wiring
    if wiring.socio == "multihot":
        multihot = np.zeros((size, spec.socio_width))
        for i in range(size):
            hot = rng.choice(spec.socio_width, size=min(2, spec.socio_width), replace=False)
            multihot[i, hot] = 1.0
        batch.socio_multihot = multihot
    if wiring.socio == "embedding":
        batch.socio_embedding = rng.standard_normal((size, spec.socio_width))
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
    dropout_seed = int(rng.integers(0, 10**6))

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
        cats_all = np.array(space.attributes[attribute], dtype=object)
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


def knn(space: RepSpace, i: int, k: int, metric: str = "cosine") -> list[int]:
    """Indices of the k nearest annotators to row i, excluding i itself, from the package's neighbor order."""
    _check_space(space, [], k)
    order = _neighbor_order(space.vectors, space.annotator_ids, metric)
    return _nearest(*order, np.ones(len(space), dtype=bool), np.array([i]), k)[0].tolist()


def observed_probability(space: RepSpace, attribute: str, k: int = 50, metric: str = "cosine") -> float:
    """Mean over annotators of the same-attribute fraction among their k neighbors, without resampling."""
    _check_space(space, [attribute], k)
    order = _neighbor_order(space.vectors, space.annotator_ids, metric)
    rows = np.arange(len(space))
    neighbors = _nearest(*order, np.ones(len(space), dtype=bool), rows, k)
    return float(_same_fraction(_codes(space.attributes[attribute]), rows, neighbors).mean())


def chance_probability(space: RepSpace, attribute: str) -> float:
    """Sum of squared category frequencies over the whole space; position-independent by construction."""
    if attribute not in space.attributes:
        raise DataError(f"attribute {attribute!r} not present in representation space")
    return _chance(_codes(space.attributes[attribute]))


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
    """Inverse of `features.encode_multihot`: recover the category per attribute."""
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


def save_embeddings_binary(table: EmbeddingTable, path: str) -> None:
    """Write `table` in the PEMB format that `features.load_embeddings` reads."""
    with open(path, "wb") as fh:
        fh.write(b"PEMB")
        fh.write(struct.pack("<II", table.dimension, len(table.vectors)))
        for key, vec in table.vectors.items():
            key_bytes = key.encode("utf-8")
            fh.write(struct.pack("<I", len(key_bytes)))
            fh.write(key_bytes)
            fh.write(vec.astype("<f4").tobytes())
