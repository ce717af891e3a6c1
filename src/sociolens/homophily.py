"""Demographic structure statistics over learned annotator representations.

For an attribute, the observed probability is the average fraction of an
annotator's k nearest neighbors sharing their category; the chance
probability is the sum of squared category frequencies (the same-category
probability for two random draws); their ratio exceeds 1 when the
representation space clusters by that attribute. Bootstrap resampling
over annotators attaches a mean and standard deviation to all three.

Neighbor search is exact (brute force) under cosine distance. Distances
are computed over the unique vectors, so identical vectors lie at exactly
the same distance from every query.
Ties break by annotator id, then row order, so results are deterministic.

Cost: a pair's sort key does not depend on who else is in the space, so
`homophily_table` orders neighbors once. It keeps only the first
depth = min(n, DEPTH_PER_K·k) entries of each of the U unique vectors'
orders: a partition finds each row's depth-th distance and only the
columns up to it are sorted, O(n² + U·depth·log depth), into an int32
array of 4·U·depth bytes (~8 MB at n = 10⁴, k = 50). A bootstrap draw
holds each annotator with probability ~1 − 1/e, so its k members lie
~1.6·k entries deep; each draw filters the lists to its members,
O(n·depth), and every attribute is scored on those neighbors. A row
whose list holds fewer than k members is rescanned exactly over its full
order, with distances recomputed by the same block that built the list.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .features import ProfileTable, SocioSchema, VectorTable, load_vector_csv


class RepSpace:
    """Annotator representation rows plus each annotator's category code per attribute."""

    def __init__(self, annotator_ids: list[str], vectors: np.ndarray, attributes: list[str], codes: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        codes = np.asarray(codes)
        if vectors.ndim != 2 or vectors.shape[0] != len(annotator_ids):
            raise DataError("vectors must be one row per annotator id")
        if not np.all(np.isfinite(vectors)):
            raise DataError("non-finite representation components")
        if codes.shape != (len(annotator_ids), len(attributes)) or (codes < 0).any():
            raise DataError(f"codes {codes.shape} are not one category index >= 0 per annotator and attribute")
        self.annotator_ids = list(annotator_ids)
        self.vectors = vectors
        self.attributes = list(attributes)
        self.codes = codes

    def __len__(self) -> int:
        return len(self.annotator_ids)

    @classmethod
    def from_representations(cls, reps: VectorTable, profiles: ProfileTable, schema: SocioSchema) -> "RepSpace":
        """The space of `reps` coded by `schema`; a representation row without a profile is a DataError naming it."""
        return cls(reps.keys, reps.matrix, schema.attribute_names, schema.encode(profiles.select(reps.keys)))


def load_representations(path: str) -> VectorTable:
    """The annotator-keyed representation table, read by `features.load_vector_csv`."""
    if not os.path.exists(path):
        raise DataError(f"representation file not found: {path}")
    reps = load_vector_csv(path, "annotator_id")
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


ORDER_BLOCK = 128  # rows per block when building and filtering the neighbor order
DEPTH_PER_K = 4  # list entries kept per neighbor asked for: a draw's k members lie ~1.6·k deep


def _distance_blocks(vectors: np.ndarray, starts: np.ndarray | None = None):
    """Yield (start, cosine distances from vectors[start:start + ORDER_BLOCK] to all rows), per block or `starts`."""
    vectors = vectors / np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-30)
    for start in range(0, len(vectors), ORDER_BLOCK) if starts is None else starts:
        gram = vectors[start : start + ORDER_BLOCK] @ vectors.T
        yield start, np.subtract(1.0, gram, out=gram)


class NeighborLists(NamedTuple):
    """The first `depth` entries of each unique vector's neighbor order, and what rebuilds a full row."""

    order: np.ndarray  # (unique vectors, depth) int32 annotator indices
    row_of: np.ndarray  # each annotator's unique vector
    unique: np.ndarray  # the unique vectors
    by_id: np.ndarray  # annotator indices in id order


def _list_depth(n: int, k: int) -> int:
    """Neighbor list length for k neighbors among n annotators: DEPTH_PER_K·k, within 1..n."""
    return min(n, max(1, math.ceil(DEPTH_PER_K * k)))


def _first_neighbors(dist: np.ndarray, depth: int, by_id: np.ndarray) -> np.ndarray:
    """Each row's first `depth` annotators by (distance, annotator id, index).

    `dist` holds a distance block's rows with columns already in id order,
    so a stable sort by distance breaks ties by id, then index. Only the
    columns at or below each row's `depth`-th distance are sorted: all those
    below it, then those equal to it in column order until the row is full.
    """
    cut = np.partition(dist, depth - 1, axis=1)[:, depth - 1, None]
    keep = dist < cut
    at_cut = dist == cut
    room = depth - np.count_nonzero(keep, axis=1)
    crowded = np.flatnonzero(np.count_nonzero(at_cut, axis=1) > room)
    if len(crowded):
        at_cut[crowded] &= np.cumsum(at_cut[crowded], axis=1, dtype=np.int32) <= room[crowded, None]
    keep |= at_cut
    flat = np.flatnonzero(keep).reshape(len(dist), depth)
    ranked = np.take_along_axis(flat, np.argsort(dist.ravel()[flat], axis=1, kind="stable"), axis=1)
    return by_id[ranked % dist.shape[1]]


def _neighbor_order(vectors: np.ndarray, ids: list[str], depth: int) -> NeighborLists:
    """One order row of `depth` entries per unique vector, and each annotator's row in it.

    order[row_of[i]] holds the first `depth` indices, i included, by
    (distance to i, annotator id, index). Identical vectors share a row:
    they tie exactly.
    """
    unique, row_of = np.unique(vectors, axis=0, return_inverse=True)
    row_of = row_of.reshape(-1)
    by_id = np.argsort(np.array(ids, dtype=object), kind="stable").astype(np.int32)
    order = np.empty((len(unique), depth), dtype=np.int32)
    for start, dist in _distance_blocks(unique):
        order[start : start + len(dist)] = _first_neighbors(np.take(dist, row_of[by_id], axis=1), depth, by_id)
    return NeighborLists(order, row_of, unique, by_id)


def _first_members(
    candidates: np.ndarray, rows: np.ndarray, member: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first k candidates that are members other than itself, for the rows that hold k; and which do not."""
    keep = member[candidates] & (candidates != rows[:, None])
    found = np.cumsum(keep, axis=1, dtype=np.int32)
    short = found[:, -1] < k
    keep &= (found <= k) & ~short[:, None]
    return candidates[keep].reshape(-1, k), short


def _nearest(lists: NeighborLists, member: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """For each of `rows`, the first k members in its order, skipping the row itself.

    A row whose `depth` entries hold fewer than k such members is rescanned
    over its full order. That row's distances are recomputed through the
    same distance block that built its list: a product over other rows can
    round its last bit differently and reorder ties.
    """
    out = np.empty((len(rows), k), dtype=np.int32)
    short = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), ORDER_BLOCK):
        block = slice(start, start + ORDER_BLOCK)
        found, short[block] = _first_members(lists.order[lists.row_of[rows[block]]], rows[block], member, k)
        out[block][~short[block]] = found
    if short.any():
        rescan = np.flatnonzero(short)
        out[rescan] = _rescan(lists, member, rows[rescan], k)
    return out


def _rescan(lists: NeighborLists, member: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """`_nearest` for `rows` over their full orders, rebuilt one distance block at a time."""
    out = np.empty((len(rows), k), dtype=np.int32)
    unique_rows = lists.row_of[rows]
    blocks = unique_rows // ORDER_BLOCK
    columns = lists.row_of[lists.by_id]
    for start, dist in _distance_blocks(lists.unique, np.unique(blocks) * ORDER_BLOCK):
        here = blocks == start // ORDER_BLOCK
        held, at = np.unique(unique_rows[here], return_inverse=True)
        full = _first_neighbors(np.take(dist[held - start], columns, axis=1), len(columns), lists.by_id)
        out[here] = _first_members(full[at], rows[here], member, k)[0]
    return out


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


def bootstrap_homophily(
    space: RepSpace,
    attribute: str,
    k: int,
    iterations: int,
    seed: int,
) -> HomophilyRow:
    """The bootstrap row of one attribute; see `homophily_table`."""
    return homophily_table(space, k, iterations, seed, attributes=[attribute])[0]


def homophily_table(
    space: RepSpace,
    k: int,
    iterations: int,
    seed: int,
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
    codes = [space.codes[:, space.attributes.index(a)] for a in names]
    lists = _neighbor_order(space.vectors, space.annotator_ids, _list_depth(n, k))
    observed, chance = np.empty((2, len(names), iterations), dtype=np.float64)
    for it in range(iterations):
        draw = np.random.default_rng([seed, it]).integers(0, n, size=n)
        weights = np.bincount(draw, minlength=n)
        rows = np.flatnonzero(weights)
        if len(rows) <= k:
            raise DataError(f"bootstrap iteration {it}: only {len(rows)} distinct annotators for k={k}")
        neighbors = _nearest(lists, weights > 0, rows, k)
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
