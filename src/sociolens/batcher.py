"""Epoch planning that keeps annotations of the same text together, and batch assembly.

The contrastive objective only compares annotations of the same text, so
the planner groups row indices by text code, shuffles group order and
within-group order with a seeded generator, concatenates the stream, and
chops it into consecutive fixed-size batches. Chopping realizes the
packing rules directly: a group larger than the batch size spills into
the following batch(es), an under-full batch is topped up by the next
group, and the final batch of an epoch may be short but is never dropped.

A batch is fancy indexing: `assemble_batch` takes a batch's rows of a
`corpus.RECORD` array and reads every other field from `BatchTables`,
lookup tables whose row i belongs to text or annotator code i. A batch's
`text_ids` are those codes, so equal codes mark the same text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class BatchPlan:
    batches: list[np.ndarray]
    batch_size: int
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "seed": self.seed,
            "batches": [b.tolist() for b in self.batches],
        }


@dataclass
class Batch:
    """Row-aligned views of one batch: row i of every field is the same record."""

    text: np.ndarray                     # (B, text_dim)
    labels: np.ndarray                   # (B,) float 0/1
    text_ids: np.ndarray                 # (B,) text codes; equal codes mean the same text
    socio: np.ndarray | None = None            # (B, socio_width): multi-hot or socio embedding rows
    annotator_index: np.ndarray | None = None  # (B,) int head index, -1 = unknown


@dataclass(frozen=True)
class BatchTables:
    """Per-code lookup tables; a field is None when the variant does not read it."""

    text: np.ndarray                           # (n_texts, text_dim)
    socio: np.ndarray | None = None            # (n_annotators, socio_width)
    annotator_index: np.ndarray | None = None  # (n_annotators,) head index, -1 = unknown


def plan_epoch(text_codes: np.ndarray, batch_size: int, seed: int) -> BatchPlan:
    """Plan one epoch over rows whose text codes are `text_codes`; every row index appears exactly once.

    Codes must be in first-appearance order, as a Dataset's are: text groups
    start in ascending code order, one generator shuffles that order and
    then each group's rows, and the stream is cut into batches.
    """
    if batch_size < 2:
        raise DataError(f"batch_size must be >= 2 for contrastive pairs, got {batch_size}")
    order = np.argsort(text_codes, kind="stable")
    # group g is order[bounds[g]:bounds[g + 1]]; each shuffle below permutes its slice in place
    bounds = [0, *(np.flatnonzero(np.diff(text_codes[order])) + 1).tolist(), len(order)]
    rng = np.random.default_rng(seed)
    text_order = np.arange(len(bounds) - 1)
    rng.shuffle(text_order)
    groups = [order[bounds[g] : bounds[g + 1]] for g in text_order.tolist()]
    for group in groups:
        rng.shuffle(group)
    stream = np.concatenate(groups)
    batches = [stream[i : i + batch_size] for i in range(0, len(stream), batch_size)]
    return BatchPlan(batches=batches, batch_size=batch_size, seed=seed)


def assemble_batch(records: np.ndarray, indices, tables: BatchTables) -> Batch:
    """Gather the `corpus.RECORD` rows at `indices` (an index array or a slice) and their table rows."""
    rows = records[indices]
    if (rows["label"] < 0).any():
        raise DataError("cannot assemble batches from unbinarized records")
    texts, annotators = rows["text"], rows["annotator"]
    return Batch(
        text=tables.text[texts],
        labels=rows["label"].astype(np.float64),
        text_ids=texts,
        **{
            name: table[annotators]
            for name in ("socio", "annotator_index")
            if (table := getattr(tables, name)) is not None
        },
    )


def text_match_mask(text_ids) -> np.ndarray:
    """M[i, j] = 1 iff rows i and j annotate the same text (diagonal included)."""
    ids = np.asarray(text_ids)
    return (ids[:, None] == ids[None, :]).astype(np.float64)


def contrastive_masks(text_ids, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive (same text, same label) and negative (same text, different label) masks.

    Diagonals are zero and the two masks are disjoint by construction.
    """
    m_text = text_match_mask(text_ids)
    y = np.asarray(labels, dtype=np.float64)
    same_label = (y[:, None] == y[None, :]).astype(np.float64)
    m_pos = m_text * same_label
    np.fill_diagonal(m_pos, 0.0)
    m_neg = m_text * (1.0 - same_label)
    return m_pos, m_neg
