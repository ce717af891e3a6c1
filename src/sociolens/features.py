"""Socio-demographic schemas, multi-hot encoding, and embedding tables.

Profiles assign each annotator a category per attribute. A SocioSchema
fixes the attribute/category ordering so that multi-hot encodings are
stable: one slot block per attribute, exactly one hot slot per block.
Missing or declined values map to an explicit trailing category rather
than an all-zero block, so every encoding has exactly one hot slot per
attribute.

Embedding tables (text or annotator keyed) are produced externally and
consumed here from two formats (the package writes only CSV):

* CSV: header ``key,d0,...,d{n-1}`` with full-precision decimal floats.
* PEMB binary: magic ``PEMB``, u32 dimension, u32 entry count, then per
  entry a u32 key length, the UTF-8 key bytes, and ``dim`` little-endian
  f32 components.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DuplicateError, EncodingError, NumericError, SchemaError

MISSING = "⟂missing⟂"


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

    def categories(self, attribute: str) -> list[str]:
        for name, cats in self.attributes:
            if name == attribute:
                return list(cats)
        raise SchemaError(f"unknown attribute {attribute!r}")

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


def encode_multihot(profile: AnnotatorProfile, schema: SocioSchema, strict: bool = False) -> np.ndarray:
    """Encode a profile as a binary vector with one hot slot per attribute.

    Unknown categories raise in strict mode and fall back to the missing
    slot otherwise; attributes absent from the profile always use the
    missing slot.
    """
    vec = np.zeros(schema.total_width, dtype=np.float64)
    for attr, cats in schema.attributes:
        cat = profile.assignments.get(attr)
        if cat is None or cat == "":
            cat = MISSING
        elif cat not in cats:
            if strict:
                raise EncodingError(
                    f"annotator {profile.annotator_id!r}: category {cat!r} "
                    f"not in schema for attribute {attr!r}"
                )
            cat = MISSING
        vec[schema.slot(attr, cat)] = 1.0
    return vec


class EmbeddingTable:
    """Immutable key -> fixed-width float vector map."""

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray]):
        if dimension < 1:
            raise DataError("embedding dimension must be >= 1")
        self.dimension = dimension
        self.vectors: dict[str, np.ndarray] = {}
        for key, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dimension,):
                raise DataError(f"vector for key {key!r} has width {arr.shape}, expected {dimension}")
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite component in vector for key {key!r}")
            arr.flags.writeable = False
            self.vectors[key] = arr

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, key: str) -> bool:
        return key in self.vectors

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return self.vectors[key]
        except KeyError:
            raise DataError(f"no embedding for key {key!r}") from None

    def matrix(self, keys: list[str]) -> np.ndarray:
        """Stack vectors for `keys` into a (len(keys), dimension) array."""
        return np.stack([self[k] for k in keys]) if keys else np.zeros((0, self.dimension))


def load_embeddings(path: str) -> EmbeddingTable:
    """Load an embedding table, dispatching on the PEMB magic bytes."""
    if not os.path.exists(path):
        raise DataError(f"embedding file not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"PEMB":
        return _load_embeddings_binary(path)
    return _load_embeddings_csv(path)


def _load_embeddings_csv(path: str) -> EmbeddingTable:
    vectors: dict[str, np.ndarray] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty embedding file") from None
        if not header or header[0] != "key":
            raise SchemaError(f"{path}: first column must be 'key', got {header[:1]}")
        dimension = len(header) - 1
        if dimension < 1:
            raise SchemaError(f"{path}: no component columns")
        for row_no, row in enumerate(reader, start=2):
            if len(row) - 1 != dimension:
                raise DataError(
                    f"{path}: row {row_no} has {len(row) - 1} components, expected {dimension}"
                )
            key = row[0]
            if key in vectors:
                raise DataError(f"{path}: duplicate key {key!r} at row {row_no}")
            try:
                arr = np.array([float(x) for x in row[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}: row {row_no}: {exc}") from None
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{path}: row {row_no} has a non-finite component")
            vectors[key] = arr
    return EmbeddingTable(dimension, vectors)


def _load_embeddings_binary(path: str) -> EmbeddingTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"PEMB":
        raise DataError(f"{path}: missing PEMB magic")
    try:
        dimension, count = struct.unpack_from("<II", blob, 4)
        pos = 12
        vectors: dict[str, np.ndarray] = {}
        for i in range(count):
            (keylen,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            key = blob[pos : pos + keylen].decode("utf-8")
            pos += keylen
            vec = np.frombuffer(blob, dtype="<f4", count=dimension, offset=pos)
            pos += 4 * dimension
            if not np.all(np.isfinite(vec)):
                raise NumericError(f"{path}: entry {i} has a non-finite component")
            vectors[key] = vec.astype(np.float64)
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: truncated or corrupt PEMB file: {exc}") from None
    return EmbeddingTable(dimension, vectors)


def save_embeddings_csv(table: EmbeddingTable, path: str) -> None:
    """Write the CSV format; floats use repr so reloads are bit-identical."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key"] + [f"d{i}" for i in range(table.dimension)])
        for key, vec in table.vectors.items():
            writer.writerow([key] + [repr(float(x)) for x in vec])


def load_profiles(path: str) -> dict[str, AnnotatorProfile]:
    """Read the profile CSV: annotator_id plus one column per attribute.

    Empty cells mean the annotator declined or skipped that attribute.
    """
    if not os.path.exists(path):
        raise DataError(f"profile file not found: {path}")
    profiles: dict[str, AnnotatorProfile] = {}
    with open(path, newline="", encoding="utf-8") as fh:
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
