"""Demographic structure statistics over learned annotator representations.

For an attribute, the observed probability is the average fraction of an
annotator's k nearest neighbors sharing their category; the chance
probability is the sum of squared category frequencies (the same-category
probability for two random draws); their ratio exceeds 1 when the
representation space clusters by that attribute. Bootstrap resampling
over annotators attaches a mean and standard deviation to all three.

Neighbor search is exact (brute force) under cosine distance by default,
with Euclidean available. Distances are computed over the unique vectors,
so identical vectors lie at exactly the same distance from every query.
Ties break by annotator id, then row order, so results are deterministic.

Cost: a pair's sort key does not depend on who else is in the space, so
`homophily_table` sorts once, O(n² log n), into an int32 neighbor order
with one row of n per unique vector (at most 4·n² bytes, ~400 MB at
n = 10⁴). Each bootstrap draw filters it to its members, O(n²), and every
attribute is scored on those neighbors: O(n² log n + iterations × n²).
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features import MISSING, AnnotatorProfile, SocioSchema

METRICS = ("cosine", "euclidean")


class RepSpace:
    """Annotator representation rows plus their attribute categories."""

    def __init__(
        self,
        annotator_ids: list[str],
        vectors: np.ndarray,
        attributes: dict[str, list[str]],
    ):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(annotator_ids):
            raise DataError("vectors must be one row per annotator id")
        if not np.all(np.isfinite(vectors)):
            raise DataError("non-finite representation components")
        for attr, cats in attributes.items():
            if len(cats) != len(annotator_ids):
                raise DataError(f"attribute {attr!r} has {len(cats)} entries for {len(annotator_ids)} annotators")
        self.annotator_ids = list(annotator_ids)
        self.vectors = vectors
        self.attributes = {a: list(c) for a, c in attributes.items()}

    def __len__(self) -> int:
        return len(self.annotator_ids)

    @classmethod
    def from_representations(
        cls,
        reps: dict[str, np.ndarray],
        profiles: dict[str, AnnotatorProfile],
        schema: SocioSchema,
    ) -> "RepSpace":
        ids = list(reps)
        vectors = np.stack([reps[a] for a in ids])
        attributes = {
            attr: [profiles[a].assignments.get(attr, MISSING) or MISSING if a in profiles else MISSING for a in ids]
            for attr in schema.attribute_names
        }
        return cls(ids, vectors, attributes)


def save_representations(reps: dict[str, np.ndarray], path: str) -> None:
    """CSV export: annotator_id,d0..d{n-1} with full-precision floats."""
    if not reps:
        raise DataError("no representations to save")
    dim = len(next(iter(reps.values())))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["annotator_id"] + [f"d{i}" for i in range(dim)])
        for aid, vec in reps.items():
            writer.writerow([aid] + [repr(float(x)) for x in vec])


def load_representations(path: str) -> dict[str, np.ndarray]:
    if not os.path.exists(path):
        raise DataError(f"representation file not found: {path}")
    reps: dict[str, np.ndarray] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "annotator_id":
            raise DataError(f"{path}: expected an annotator_id representation CSV")
        dim = len(header) - 1
        for row_no, row in enumerate(reader, start=2):
            if len(row) - 1 != dim:
                raise DataError(f"{path}: row {row_no} has {len(row) - 1} components, expected {dim}")
            reps[row[0]] = np.array([float(x) for x in row[1:]], dtype=np.float64)
    if not reps:
        raise DataError(f"{path}: empty representation file")
    return reps


@dataclass(frozen=True)
class HomophilyRow:
    attribute: str
    observed_mean: float
    observed_std: float
    chance_mean: float
    chance_std: float
    ratio_mean: float
    ratio_std: float
    k: int
    iterations: int

    def to_dict(self) -> dict:
        return asdict(self)


ORDER_BLOCK = 128  # rows per block when building and filtering the neighbor order


def _distance_blocks(vectors: np.ndarray, metric: str):
    """Yield (start, distances from vectors[start:start + ORDER_BLOCK] to every row)."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "cosine":
        vectors = vectors / np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-30)
    sq = np.sum(vectors**2, axis=1)
    for start in range(0, len(vectors), ORDER_BLOCK):
        block = slice(start, start + ORDER_BLOCK)
        gram = vectors[block] @ vectors.T
        if metric == "cosine":
            yield start, np.subtract(1.0, gram, out=gram)
        else:
            yield start, np.sqrt(np.maximum(sq[block, None] + sq[None, :] - 2.0 * gram, 0.0))


def _neighbor_order(vectors: np.ndarray, ids: list[str], metric: str) -> tuple[np.ndarray, np.ndarray]:
    """One order row per unique vector, and each annotator's row in it.

    order[row_of[i]] holds every index, i included, sorted by (distance to
    i, annotator id, index). Identical vectors share a row: they tie exactly.
    """
    unique, row_of = np.unique(vectors, axis=0, return_inverse=True)
    row_of = row_of.reshape(-1)
    # pre-permute columns into id order, then stable-sort by distance:
    # ties fall back to annotator id, then original row order
    by_id = np.argsort(np.array(ids, dtype=object), kind="stable").astype(np.int32)
    order = np.empty((len(unique), len(ids)), dtype=np.int32)
    for start, dist in _distance_blocks(unique, metric):
        ranked = np.argsort(dist[:, row_of[by_id]], axis=1, kind="stable")
        order[start : start + len(dist)] = by_id[ranked]
    return order, row_of


def _nearest(order: np.ndarray, row_of: np.ndarray, member: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """For each of `rows`, the first k members in its order, skipping the row itself."""
    out = np.empty((len(rows), k), dtype=order.dtype)
    for start in range(0, len(rows), ORDER_BLOCK):
        block = rows[start : start + ORDER_BLOCK]
        candidates = order[row_of[block]]
        keep = member[candidates] & (candidates != block[:, None])
        keep &= np.cumsum(keep, axis=1, dtype=np.int32) <= k
        out[start : start + len(block)] = candidates[keep].reshape(len(block), k)
    return out


def _codes(categories: list[str]) -> np.ndarray:
    return np.unique(np.array(categories, dtype=object), return_inverse=True)[1]


def _same_fraction(codes: np.ndarray, rows: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Same-category neighbor fraction per row."""
    return (codes[neighbors] == codes[rows][:, None]).mean(axis=1)


def _chance(codes: np.ndarray) -> float:
    # integer arithmetic then one division: uniform C categories give 1/C exactly
    return int(np.sum(np.bincount(codes) ** 2)) / len(codes) ** 2


def _check_space(space: RepSpace, attributes: list[str], k: int) -> None:
    for attribute in attributes:
        if attribute not in space.attributes:
            raise DataError(f"attribute {attribute!r} not present in representation space")
    if not 1 <= k < len(space):
        raise DataError(f"k={k} must be >= 1 and needs at least k+1 annotators, have {len(space)}")


def knn(space: RepSpace, i: int, k: int, metric: str = "cosine") -> list[int]:
    """Indices of the k nearest annotators to row i, excluding i itself."""
    _check_space(space, [], k)
    order = _neighbor_order(space.vectors, space.annotator_ids, metric)
    return _nearest(*order, np.ones(len(space), dtype=bool), np.array([i]), k)[0].tolist()


def observed_probability(space: RepSpace, attribute: str, k: int = 50, metric: str = "cosine") -> float:
    """Mean over annotators of the same-attribute fraction among their k neighbors."""
    _check_space(space, [attribute], k)
    order = _neighbor_order(space.vectors, space.annotator_ids, metric)
    rows = np.arange(len(space))
    neighbors = _nearest(*order, np.ones(len(space), dtype=bool), rows, k)
    return float(_same_fraction(_codes(space.attributes[attribute]), rows, neighbors).mean())


def chance_probability(space: RepSpace, attribute: str) -> float:
    """Sum of squared category frequencies; position-independent by construction."""
    if attribute not in space.attributes:
        raise DataError(f"attribute {attribute!r} not present in representation space")
    return _chance(_codes(space.attributes[attribute]))


def homophily_ratio(space: RepSpace, attribute: str, k: int = 50, metric: str = "cosine") -> float:
    chance = chance_probability(space, attribute)
    if chance <= 0.0:
        raise DataError("chance probability is zero; empty annotator pool?")
    return observed_probability(space, attribute, k, metric) / chance


def bootstrap_homophily(
    space: RepSpace,
    attribute: str,
    k: int = 50,
    iterations: int = 1000,
    seed: int = 0,
    metric: str = "cosine",
) -> HomophilyRow:
    """The bootstrap row of one attribute; see `homophily_table`."""
    return homophily_table(space, k, iterations, seed, metric, attributes=[attribute])[0]


def homophily_table(
    space: RepSpace,
    k: int = 50,
    iterations: int = 1000,
    seed: int = 0,
    metric: str = "cosine",
    attributes: list[str] | None = None,
) -> list[HomophilyRow]:
    """Bootstrap rows for every attribute (or the requested subset), ratio-descending.

    Each iteration draws N annotators with replacement; duplicates weight
    the observed average, but neighbor search runs over the draw's
    distinct members so a vector is never its own neighbor. Chance is
    recomputed from the resampled multiset, keeping each iteration's
    ratio internally consistent. Iteration seeds derive from (seed,
    iteration) alone, so every attribute is scored on the same draws.
    """
    names = attributes if attributes is not None else list(space.attributes)
    _check_space(space, names, k)
    n = len(space)
    codes = [_codes(space.attributes[a]) for a in names]
    order = _neighbor_order(space.vectors, space.annotator_ids, metric)
    observed, chance = np.empty((2, len(names), iterations), dtype=np.float64)
    for it in range(iterations):
        draw = np.random.default_rng([seed, it]).integers(0, n, size=n)
        weights = np.bincount(draw, minlength=n)
        rows = np.flatnonzero(weights)
        if len(rows) <= k:
            raise DataError(f"bootstrap iteration {it}: only {len(rows)} distinct annotators for k={k}")
        neighbors = _nearest(*order, weights > 0, rows, k)
        for a, attr_codes in enumerate(codes):
            fractions = _same_fraction(attr_codes, rows, neighbors)
            observed[a, it] = float(np.average(fractions, weights=weights[rows]))
            chance[a, it] = _chance(attr_codes[draw])
    ratio = observed / chance
    table = [
        HomophilyRow(
            attribute=name, k=k, iterations=iterations,
            observed_mean=float(observed[a].mean()), observed_std=float(observed[a].std()),
            chance_mean=float(chance[a].mean()), chance_std=float(chance[a].std()),
            ratio_mean=float(ratio[a].mean()), ratio_std=float(ratio[a].std()),
        )
        for a, name in enumerate(names)
    ]
    return sorted(table, key=lambda r: -r.ratio_mean)
