"""Socio-demographic schemas, multi-hot encoding, and keyed vector tables.

Profiles assign each annotator a category per attribute. A SocioSchema
fixes the attribute/category ordering so that multi-hot encodings are
stable: one slot block per attribute, exactly one hot slot per block.
Missing or declined values map to an explicit trailing category rather
than an all-zero block, so every encoding has exactly one hot slot per
attribute.

Every keyed side input and output is a VectorTable: text and socio
embeddings, multi-hot rows, and learned representations. Embeddings are
produced externally and read here from two formats; tables are written
only as CSV, by `save_vector_csv`:

* CSV: header ``<key column>,d0,...,d{n-1}`` with full-precision decimal
  floats; the key column is ``key`` for embeddings and ``annotator_id``
  for representations.
* PEMB binary: magic ``PEMB``, u32 dimension, u32 entry count, then per
  entry a u32 key length, the UTF-8 key bytes, and ``dim`` little-endian
  f32 components, and nothing after the last entry.

Both readers reject a repeated key.
"""

from __future__ import annotations

import contextlib
import csv
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DuplicateError, EncodingError, NumericError, SchemaError

MISSING = "⟂missing⟂"


@contextlib.contextmanager
def open_csv(path: str):
    """`path` opened as UTF-8 text for the csv module; a byte that does not decode is a DataError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


@dataclass(frozen=True)
class AnnotatorProfile:
    annotator_id: str
    assignments: dict[str, str] = field(default_factory=dict)


class SocioSchema:
    """Ordered attribute -> category vocabulary with fixed encoding offsets."""

    def __init__(self, attributes: list[tuple[str, list[str]]]):
        names = [name for name, _ in attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names in schema")
        for name, cats in attributes:
            if len(set(cats)) != len(cats):
                raise SchemaError(f"duplicate categories for attribute {name!r}")
        self.attributes = [(name, list(cats)) for name, cats in attributes]
        self._offsets: dict[str, int] = {}
        self._index: dict[str, dict[str, int]] = {}
        offset = 0
        for name, cats in self.attributes:
            self._offsets[name] = offset
            self._index[name] = {c: i for i, c in enumerate(cats)}
            offset += len(cats)
        self.total_width = offset

    @property
    def attribute_names(self) -> list[str]:
        return [name for name, _ in self.attributes]

    def slot(self, attribute: str, category: str) -> int:
        if attribute not in self._offsets:
            raise SchemaError(f"unknown attribute {attribute!r}")
        idx = self._index[attribute].get(category)
        if idx is None:
            raise EncodingError(f"unknown category {category!r} for attribute {attribute!r}")
        return self._offsets[attribute] + idx

    def to_dict(self) -> dict:
        return {"attributes": [[name, list(cats)] for name, cats in self.attributes]}

    @classmethod
    def from_dict(cls, payload: dict) -> "SocioSchema":
        attributes = [(name, cats) for name, cats in payload["attributes"]]
        for name, cats in attributes:
            if not (isinstance(name, str) and isinstance(cats, list) and all(isinstance(c, str) for c in cats)):
                raise SchemaError(f"schema attribute {name!r} must be a name and a list of category names")
        return cls(attributes)


def build_schema(profiles: list[AnnotatorProfile] | dict[str, AnnotatorProfile]) -> SocioSchema:
    """Derive a schema from observed profiles.

    Attributes are ordered by first appearance across the collection;
    categories sort lexicographically within each attribute, with the
    missing-value category appended last.
    """
    if isinstance(profiles, dict):
        profiles = list(profiles.values())
    if not profiles:
        raise SchemaError("cannot build a schema from an empty profile collection")
    order: list[str] = []
    observed: dict[str, set[str]] = {}
    for profile in profiles:
        for attr, cat in profile.assignments.items():
            if attr not in observed:
                observed[attr] = set()
                order.append(attr)
            if cat is not None and cat != "":
                observed[attr].add(cat)
    attributes = [(attr, sorted(observed[attr]) + [MISSING]) for attr in order]
    return SocioSchema(attributes)


def encode_multihot(profile: AnnotatorProfile, schema: SocioSchema) -> np.ndarray:
    """Encode a profile as a binary vector with one hot slot per attribute.

    Unknown categories and attributes absent from the profile use the
    missing slot.
    """
    vec = np.zeros(schema.total_width, dtype=np.float64)
    for attr, cats in schema.attributes:
        cat = profile.assignments.get(attr)
        if cat is None or cat == "" or cat not in cats:
            cat = MISSING
        vec[schema.slot(attr, cat)] = 1.0
    return vec


def multihot_table(profiles: dict[str, AnnotatorProfile], schema: SocioSchema) -> VectorTable:
    """Each profile's `encode_multihot` row under `schema`, keyed by annotator id in `profiles` order."""
    rows = [encode_multihot(profile, schema) for profile in profiles.values()]
    return VectorTable(list(profiles), np.array(rows).reshape(len(rows), schema.total_width))


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


def load_vector_csv(path: str, key_column: str) -> VectorTable:
    """The table of a ``<key_column>,d0,...`` CSV: embeddings or representations.

    A wrong header, a row of the wrong width, a repeated key or a cell
    that is not a number is a DataError naming the row; a NaN or an
    infinity is a NumericError.
    """
    index: dict[str, int] = {}  # row number by key
    rows: list[np.ndarray] = []
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0] != key_column:
            raise SchemaError(f"{path}: first column must be {key_column!r}, got {header[:1]}")
        dimension = len(header) - 1
        if dimension < 1:
            raise SchemaError(f"{path}: no component columns")
        for row_no, row in enumerate(reader, start=2):
            if len(row) - 1 != dimension:
                raise DataError(
                    f"{path}: row {row_no} has {len(row) - 1} components, expected {dimension}"
                )
            key = row[0]
            if key in index:
                raise DataError(f"{path}: duplicate key {key!r} at row {row_no}")
            index[key] = row_no
            try:
                arr = np.array([float(x) for x in row[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}: row {row_no}: {exc}") from None
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{path}: row {row_no} has a non-finite component")
            rows.append(arr)
    return VectorTable(list(index), np.array(rows).reshape(len(rows), dimension))


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
    """Write `table` as a ``<key_column>,d0,...`` CSV; floats use repr, so `load_vector_csv` reads the same bits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([key_column] + [f"d{i}" for i in range(table.dimension)])
        for key, vec in zip(table.keys, table.matrix):
            writer.writerow([key] + [repr(x) for x in vec.tolist()])


def load_profiles(path: str) -> dict[str, AnnotatorProfile]:
    """Read the profile CSV: annotator_id plus one column per attribute.

    Empty cells mean the annotator declined or skipped that attribute.
    """
    if not os.path.exists(path):
        raise DataError(f"profile file not found: {path}")
    profiles: dict[str, AnnotatorProfile] = {}
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "annotator_id" not in reader.fieldnames:
            raise SchemaError(f"{path}: profile file needs an 'annotator_id' column")
        attrs = [c for c in reader.fieldnames if c != "annotator_id"]
        for row_no, row in enumerate(reader, start=2):
            aid = row["annotator_id"]
            if aid in profiles:
                raise DuplicateError(f"{path}: duplicate annotator_id {aid!r} at row {row_no}")
            assignments = {a: row[a] for a in attrs if row[a] not in (None, "")}
            profiles[aid] = AnnotatorProfile(annotator_id=aid, assignments=assignments)
    if not profiles:
        raise DataError(f"{path}: no profiles found")
    return profiles


def save_profiles(profiles: dict[str, AnnotatorProfile], path: str, attributes: list[str] | None = None) -> None:
    if attributes is None:
        attributes = []
        for profile in profiles.values():
            for attr in profile.assignments:
                if attr not in attributes:
                    attributes.append(attr)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["annotator_id"] + attributes)
        for aid, profile in profiles.items():
            writer.writerow([aid] + [profile.assignments.get(a, "") for a in attributes])
