"""Annotator profiles, socio-demographic schemas, multi-hot rows, and keyed vector tables.

A ProfileTable holds the profile file as columns: the annotator ids, the
attribute names, and one int code matrix whose cell (i, j) indexes
attribute j's sorted categories, or is -1 where annotator i declined j.
A SocioSchema fixes the attribute/category ordering so that multi-hot
rows are stable, one hot slot per attribute block. `SocioSchema.encode`
is the one reader of profile cells: a declined or unknown answer maps to
an explicit trailing MISSING category rather than an all-zero block.

Every keyed side input and output is a VectorTable: text and socio
embeddings, and learned representations. Embeddings are
produced externally and read here from two formats; tables are written
only as CSV:

* CSV: header ``<key column>,d0,...,d{n-1}`` with full-precision decimal
  floats; the key column is ``key`` for embeddings and ``annotator_id``
  for representations.
* PEMB binary: magic ``PEMB``, u32 dimension, u32 entry count, then per
  entry a u32 key length, the UTF-8 key bytes, and ``dim`` little-endian
  f32 components, and nothing after the last entry.

Both readers reject a repeated key. Every input CSV, these and the
annotation and profile files, is walked by `csv_rows`, which skips blank
lines.

`write_csv` and `write_json` write every CSV and JSON artifact of the
pipeline.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError

MISSING = "⟂missing⟂"


@contextlib.contextmanager
def open_csv(path: str):
    """`path` opened as UTF-8 text for the csv module, past any byte-order mark.

    A byte that does not decode is a DataError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None


def csv_rows(fh):
    """The header of the CSV text `fh`, or None for an empty file, and (row number, row) for each row after it.

    The header is the first line even when it is blank, as `csv.DictReader`
    reads it. After it a blank line is no row and takes no number, so the
    row after the header is row 2 wherever blank lines fall.
    """
    reader = csv.reader(fh)
    return next(reader, None), enumerate(filter(None, reader), start=2)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write `header`, then each row of the iterable `rows`, as a UTF-8 CSV file at `path`.

    `csv.writer` writes a float cell as its repr, which reads back to the
    same bits, and None as an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, payload, indent: int | None = 2) -> None:
    """Write `payload` as UTF-8 JSON and a newline at `path`; `indent=None` puts it on one line."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent)
        fh.write("\n")


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Annotator profiles as columns; `answers[i, j]` indexes `categories[j]`, -1 = declined."""

    annotators: list[str]        # ids in file order
    attributes: list[str]        # attribute names in column order
    categories: list[list[str]]  # per attribute, the sorted answers given
    answers: np.ndarray          # (len(annotators), len(attributes)) int32 codes

    def __len__(self) -> int:
        return len(self.annotators)

    @classmethod
    def from_cells(cls, annotators: list[str], attributes: list[str], cells: np.ndarray) -> "ProfileTable":
        """Code an (annotators, attributes) object array of answer strings; an empty string is declined."""
        answers = np.empty(cells.shape, dtype=np.int32)
        categories = []
        for j in range(cells.shape[1]):
            given, answers[:, j] = np.unique(cells[:, j], return_inverse=True)
            declined = int(given[:1].tolist() == [""])  # "" sorts first
            answers[:, j] -= declined
            categories.append(given[declined:].tolist())
        return cls(list(annotators), list(attributes), categories, answers)

    def select(self, ids: list[str]) -> "ProfileTable":
        """The profiles of `ids`, in their order; an id without a profile is a DataError naming it."""
        index = {a: i for i, a in enumerate(self.annotators)}
        missing = sorted(set(ids) - index.keys())
        if missing:
            raise DataError(f"no profile for annotators: {missing[:10]}{'...' if len(missing) > 10 else ''}")
        rows = [index[a] for a in ids]
        return ProfileTable(list(ids), self.attributes, self.categories, self.answers[rows])

    def take(self, rows: np.ndarray) -> "ProfileTable":
        """The profiles at row positions `rows`, in their order."""
        return ProfileTable([self.annotators[i] for i in rows.tolist()], self.attributes, self.categories, self.answers[rows])


class SocioSchema:
    """Ordered attribute -> category vocabulary; `encode` codes a profile table under it."""

    def __init__(self, attributes: list[tuple[str, list[str]]]):
        names = [name for name, _ in attributes]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
        for name, cats in attributes:
            if len(set(cats)) != len(cats):
                raise DataError(f"duplicate categories for attribute {name!r}")
        self.attributes = [(name, list(cats)) for name, cats in attributes]
        self.total_width = sum(len(cats) for _, cats in self.attributes)

    @property
    def attribute_names(self) -> list[str]:
        return [name for name, _ in self.attributes]

    def encode(self, profiles: ProfileTable) -> np.ndarray:
        """Each profile's category index per schema attribute, (len(profiles), attributes).

        A declined answer, an answer outside the attribute's categories and
        an attribute the table lacks all map to MISSING, or to -1 for an
        attribute whose categories lack MISSING. The codes are of the
        narrowest signed type that holds every code and -1.
        """
        columns = dict(zip(profiles.attributes, zip(profiles.categories, profiles.answers.T)))
        widest = max((len(cats) for _, cats in self.attributes), default=1)
        codes = np.empty((len(profiles), len(self.attributes)), dtype=np.min_scalar_type(-widest))
        for a, (name, cats) in enumerate(self.attributes):
            index = {c: i for i, c in enumerate(cats)}
            given, answers = columns.get(name, ([], np.full(len(profiles), -1)))
            # a declined answer's -1 picks the appended MISSING
            lookup = np.array([index.get(c, index.get(MISSING, -1)) for c in given + [MISSING]], dtype=np.intp)
            codes[:, a] = lookup[answers]
        return codes

    def to_dict(self) -> dict:
        return {"attributes": [[name, list(cats)] for name, cats in self.attributes]}

    @classmethod
    def from_dict(cls, payload: dict) -> "SocioSchema":
        attributes = [(name, cats) for name, cats in payload["attributes"]]
        for name, cats in attributes:
            if not (isinstance(name, str) and isinstance(cats, list) and all(isinstance(c, str) for c in cats)):
                raise DataError(f"schema attribute {name!r} must be a name and a list of category names")
        return cls(attributes)


def build_schema(profiles: ProfileTable) -> SocioSchema:
    """Derive a schema from the answers in `profiles`.

    Attributes are ordered by first answer, row by row and then column by
    column, and an attribute nobody answered is left out; each attribute's
    answered categories sort lexicographically, with the missing-value
    category appended last.
    """
    if not profiles:
        raise DataError("cannot build a schema without profiles")
    answered = profiles.answers >= 0
    first = np.where(answered.any(axis=0), answered.argmax(axis=0), len(profiles))
    attributes = [
        (profiles.attributes[j],
         [profiles.categories[j][c] for c in np.unique(profiles.answers[answered[:, j], j])] + [MISSING])
        for j in np.argsort(first, kind="stable") if first[j] < len(profiles)
    ]
    return SocioSchema(attributes)


def multihot_rows(profiles: ProfileTable, schema: SocioSchema) -> np.ndarray:
    """One row per profile with one hot slot per schema attribute block, at its `SocioSchema.encode` code."""
    codes = schema.encode(profiles)
    unknown = np.flatnonzero((codes < 0).any(axis=0))
    if unknown.size:
        name = schema.attributes[unknown[0]][0]
        raise DataError(f"attribute {name!r} has no {MISSING!r} category for a declined or unknown answer")
    offsets = np.cumsum([0] + [len(cats) for _, cats in schema.attributes])[:-1]
    rows = np.zeros((len(profiles), schema.total_width), dtype=np.float64)
    rows[np.arange(len(profiles))[:, None], codes + offsets] = 1.0
    return rows


class VectorTable:
    """Keyed float64 rows: the keys in file order, one (n, d) matrix, and each key's row in it."""

    def __init__(self, keys: list[str], matrix: np.ndarray):
        self.keys = keys
        self.matrix = matrix
        self.index = {key: i for i, key in enumerate(keys)}

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def rows(self, keys: list[str]) -> np.ndarray:
        """The (len(keys), dimension) rows of `keys`, in their order; a key without a row is a DataError."""
        try:
            return self.matrix[[self.index[key] for key in keys]]
        except KeyError as exc:
            raise DataError(f"no vector for key {exc.args[0]!r}") from None


def load_embeddings(path: str) -> VectorTable:
    """Load an embedding table, dispatching on the PEMB magic bytes."""
    if not os.path.exists(path):
        raise DataError(f"embedding file not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"PEMB":
        return _load_embeddings_binary(path)
    return load_vector_csv(path, "key")


# Cells converted per `np.array` call by `load_vector_csv`. The cell strings take
# several times the memory of their floats, so a file's whole set of strings at
# once would raise the reader's peak memory well above its table's size.
VECTOR_BLOCK_CELLS = 4096


def load_vector_csv(path: str, key_column: str) -> VectorTable:
    """The table of a ``<key_column>,d0,...`` CSV: embeddings or representations.

    Blank lines are skipped (`csv_rows`). A wrong header, a row of the
    wrong width, a repeated key or a cell that is not a number is a
    DataError naming the row; a NaN or an infinity is a NumericError. The
    first bad row is the one named, whichever of these it breaks.
    """
    index: dict[str, int] = {}  # row number by key
    blocks: list[np.ndarray] = []
    cells: list[list[str]] = []  # the component cells of the rows after the converted blocks
    with open_csv(path) as fh:
        header, rows = csv_rows(fh)
        if header is None:
            raise DataError(f"{path}: empty file")
        if not header or header[0] != key_column:
            raise DataError(f"{path}: first column must be {key_column!r}, got {header[:1]}")
        dimension = len(header) - 1
        if dimension < 1:
            raise DataError(f"{path}: no component columns")
        block_rows = max(1, VECTOR_BLOCK_CELLS // dimension)
        try:
            for row_no, row in rows:
                if len(row) - 1 != dimension:
                    raise DataError(
                        f"{path}: row {row_no} has {len(row) - 1} components, expected {dimension}"
                    )
                key = row[0]
                if key in index:
                    raise DataError(f"{path}: duplicate key {key!r} at row {row_no}")
                index[key] = row_no
                cells.append(row[1:])
                if len(cells) == block_rows:
                    blocks.append(_vector_rows(path, cells, len(index), dimension))
                    cells = []
        except (DataError, csv.Error, UnicodeDecodeError):
            _vector_rows(path, cells, len(index), dimension)  # a bad cell in an earlier row is the first error
            raise
    blocks.append(_vector_rows(path, cells, len(index), dimension))
    return VectorTable(list(index), np.concatenate(blocks))


def _vector_rows(path: str, cells: list[list[str]], rows_read: int, dimension: int) -> np.ndarray:
    """The float64 matrix of the last rows' component cells, converted at once, or row by row to name a bad row.

    `cells` are the rows that end at the `rows_read`-th row after the header.
    """
    try:
        matrix = np.array(cells, dtype=np.float64).reshape(len(cells), dimension)
        if np.isfinite(matrix).all():
            return matrix
    except ValueError:
        pass
    rows = []
    for row_no, row in enumerate(cells, start=rows_read - len(cells) + 2):
        try:
            arr = np.array([float(x) for x in row], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no}: {exc}") from None
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"{path}: row {row_no} has a non-finite component")
        rows.append(arr)
    return np.array(rows).reshape(len(rows), dimension)


def _load_embeddings_binary(path: str) -> VectorTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"PEMB":
        raise DataError(f"{path}: missing PEMB magic")
    index: dict[str, int] = {}  # entry number by key
    rows: list[np.ndarray] = []
    try:
        dimension, count = struct.unpack_from("<II", blob, 4)
        if dimension < 1:
            raise DataError(f"{path}: PEMB dimension must be >= 1")
        pos = 12
        for i in range(count):
            (keylen,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            key = blob[pos : pos + keylen].decode("utf-8")
            pos += keylen
            vec = np.frombuffer(blob, dtype="<f4", count=dimension, offset=pos)
            pos += 4 * dimension
            if key in index:
                raise DataError(f"{path}: duplicate key {key!r} at entry {i}")
            index[key] = i
            if not np.all(np.isfinite(vec)):
                raise NumericError(f"{path}: entry {i} has a non-finite component")
            rows.append(vec.astype(np.float64))
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: truncated or corrupt PEMB file: {exc}") from None
    if pos != len(blob):
        raise DataError(f"{path}: {len(blob) - pos} trailing byte(s) after the {count} declared PEMB entries")
    return VectorTable(list(index), np.array(rows).reshape(count, dimension))


def save_vector_csv(table: VectorTable, path: str, key_column: str) -> None:
    """Write `table` as a ``<key_column>,d0,...`` CSV, which `load_vector_csv` reads back to the same bits."""
    write_csv(
        path,
        [key_column] + [f"d{i}" for i in range(table.dimension)],
        ([key] + vec.tolist() for key, vec in zip(table.keys, table.matrix)),
    )


def load_profiles(path: str) -> ProfileTable:
    """Read the profile CSV: annotator_id plus one column per attribute.

    An empty cell, or one a short row lacks, means the annotator declined
    or skipped that attribute; cells past the header's width are ignored,
    and so are blank lines (`csv_rows`).
    """
    if not os.path.exists(path):
        raise DataError(f"profile file not found: {path}")
    with open_csv(path) as fh:
        header, rows = csv_rows(fh)
        if "annotator_id" not in (header or ()):
            raise DataError(f"{path}: profile file needs an 'annotator_id' column")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: profile header repeats a column name: {header}")
        width = len(header)
        cells = [row[:width] + [""] * (width - len(row)) for _, row in rows]
    if not cells:
        raise DataError(f"{path}: no profiles found")
    cells = np.array(cells, dtype=object)
    key = header.index("annotator_id")
    ids = cells[:, key].tolist()
    first: dict[str, int] = {}
    for row_no, aid in enumerate(ids, start=2):
        if first.setdefault(aid, row_no) != row_no:
            raise DataError(f"{path}: duplicate annotator_id {aid!r} at row {row_no}")
    return ProfileTable.from_cells(ids, header[:key] + header[key + 1 :], np.delete(cells, key, axis=1))


def save_profiles(profiles: ProfileTable, path: str) -> None:
    """Write `profiles` as `load_profiles` reads them: annotator_id first, a declined answer as an empty cell."""
    # a declined answer's -1 picks the appended ""
    columns = [np.array(cats + [""], dtype=object)[profiles.answers[:, j]] for j, cats in enumerate(profiles.categories)]
    write_csv(path, ["annotator_id"] + profiles.attributes, zip(profiles.annotators, *columns))
