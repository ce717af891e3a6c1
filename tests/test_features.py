import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import decode_multihot, save_embeddings_binary
from sociolens.errors import DataError, NumericError, SchemaError
from sociolens.features import (
    MISSING,
    AnnotatorProfile,
    SocioSchema,
    VectorTable,
    build_schema,
    encode_multihot,
    load_embeddings,
    load_profiles,
    load_vector_csv,
    save_profiles,
    save_vector_csv,
)


class TestBuildSchema:
    def test_two_gender_profiles(self):
        profiles = [
            AnnotatorProfile("a1", {"gender": "female"}),
            AnnotatorProfile("a2", {"gender": "male"}),
        ]
        schema = build_schema(profiles)
        assert schema.attributes == [("gender", ["female", "male", MISSING])]
        assert schema.total_width == 3

    def test_new_category_grows_width_by_one(self):
        base = [AnnotatorProfile("a1", {"gender": "female"}), AnnotatorProfile("a2", {"gender": "male"})]
        schema = build_schema(base)
        grown = build_schema(base + [AnnotatorProfile("a3", {"gender": "nonbinary"})])
        assert grown.total_width == schema.total_width + 1

    def test_eight_attribute_inventory(self):
        attrs = ["education", "ideology", "age", "gender", "race", "sexuality", "income", "religion_importance"]
        profiles = [AnnotatorProfile("a1", {a: "x" for a in attrs})]
        schema = build_schema(profiles)
        assert len(schema.attributes) == 8

    def test_attribute_order_is_first_appearance(self):
        profiles = [
            AnnotatorProfile("a1", {"b_attr": "1"}),
            AnnotatorProfile("a2", {"a_attr": "1", "b_attr": "2"}),
        ]
        assert build_schema(profiles).attribute_names == ["b_attr", "a_attr"]

    def test_categories_sorted_lexicographically(self):
        profiles = [AnnotatorProfile("a1", {"age": "z"}), AnnotatorProfile("a2", {"age": "a"})]
        assert build_schema(profiles).attributes == [("age", ["a", "z", MISSING])]

    def test_empty_collection_rejected(self):
        with pytest.raises(SchemaError):
            build_schema([])


class TestEncodeMultihot:
    schema = SocioSchema([("gender", ["f", "m", MISSING]), ("age", ["0-25", "26-35", MISSING])])

    def test_full_profile(self):
        vec = encode_multihot(AnnotatorProfile("a", {"gender": "m", "age": "26-35"}), self.schema)
        assert vec.tolist() == [0, 1, 0, 0, 1, 0]

    def test_missing_attribute_uses_missing_slot(self):
        vec = encode_multihot(AnnotatorProfile("a", {"gender": "m"}), self.schema)
        assert vec.tolist() == [0, 1, 0, 0, 0, 1]

    def test_one_hot_per_attribute_property(self):
        rng = np.random.default_rng(3)
        cats = {"gender": ["f", "m"], "age": ["0-25", "26-35"]}
        for _ in range(100):
            assignments = {
                attr: rng.choice(options + [None])
                for attr, options in cats.items()
            }
            assignments = {a: c for a, c in assignments.items() if c is not None}
            vec = encode_multihot(AnnotatorProfile("a", assignments), self.schema)
            assert vec.sum() == len(self.schema.attributes)
            for attr, options in self.schema.attributes:
                block = vec[self.schema.slot(attr, options[0]) : self.schema.slot(attr, options[-1]) + 1]
                assert block.sum() == 1

    def test_unknown_category_lenient_maps_to_missing(self):
        vec = encode_multihot(AnnotatorProfile("a", {"gender": "x"}), self.schema)
        assert vec[self.schema.slot("gender", MISSING)] == 1

    def test_decode_roundtrip_including_missing(self):
        profile = AnnotatorProfile("a", {"gender": "f"})
        decoded = decode_multihot(encode_multihot(profile, self.schema), self.schema)
        assert decoded == {"gender": "f", "age": MISSING}


class TestEmbeddingTables:
    def test_csv_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        table = VectorTable([f"k{i}" for i in range(7)], rng.standard_normal((7, 4)))
        path = tmp_path / "emb.csv"
        save_vector_csv(table, str(path), "key")
        again = load_embeddings(str(path))
        assert again.dimension == 4
        assert again.keys == table.keys
        assert again.matrix.tobytes() == table.matrix.tobytes()

    def test_csv_two_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("key,d0,d1,d2,d3\nx,1,2,3,4\ny,5,6,7,8\n", encoding="utf-8")
        table = load_embeddings(str(path))
        assert len(table) == 2
        assert table.rows(["y"]).tolist() == [[5, 6, 7, 8]]

    def test_row_width_mismatch_reports_row(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("key,d0,d1,d2,d3\nx,1,2,3,4\ny,5,6,7\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 3"):
            load_embeddings(str(path))

    def test_nan_component_is_numeric_error(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("key,d0,d1\nx,1,nan\n", encoding="utf-8")
        with pytest.raises(NumericError):
            load_embeddings(str(path))

    def test_wide_table_supported(self, tmp_path):
        # encoder output widths (e.g. 384) are data, not code
        rng = np.random.default_rng(0)
        table = VectorTable(["s"], rng.standard_normal((1, 384)))
        path = tmp_path / "wide.csv"
        save_vector_csv(table, str(path), "key")
        assert load_embeddings(str(path)).dimension == 384

    def test_binary_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((5, 6)).astype(np.float32).astype(np.float64)
        table = VectorTable([f"k{i}" for i in range(5)], matrix)
        p1 = tmp_path / "a.pemb"
        p2 = tmp_path / "b.pemb"
        save_embeddings_binary(table, str(p1))
        save_embeddings_binary(load_embeddings(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_binary_magic_dispatch(self, tmp_path):
        table = VectorTable(["u"], np.array([[1.0, 2.0]]))
        path = tmp_path / "t.pemb"
        save_embeddings_binary(table, str(path))
        assert path.read_bytes()[:4] == b"PEMB"
        assert load_embeddings(str(path)).rows(["u"]).tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda blob: blob[:-5], "truncated"),
            # the second entry's key "v" becomes a second "u"
            (lambda blob: blob[:-13] + b"u" + blob[-12:], "duplicate key 'u'"),
            (lambda blob: blob + b"\0", "1 trailing byte"),
        ],
        ids=["cut", "repeated-key", "trailing-bytes"],
    )
    def test_truncated_binary_rejected(self, tmp_path, damage, message):
        table = VectorTable(["u", "v"], np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        path = tmp_path / "t.pemb"
        save_embeddings_binary(table, str(path))
        bad = tmp_path / "bad.pemb"
        bad.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match=message) as info:
            load_embeddings(str(bad))
        assert str(bad) in str(info.value)

    def test_missing_key_lookup(self):
        table = VectorTable(["a"], np.array([[0.0]]))
        with pytest.raises(DataError, match="'b'"):
            table.rows(["a", "b"])


KEY_CHARS = st.characters(blacklist_categories=("Cs",))
EXTREMES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def vector_tables(draw):
    """A table whose keys hold commas, quotes, newlines and non-ASCII text, and whose values include extremes."""
    keys = draw(st.lists(st.text(KEY_CHARS | st.sampled_from(',"\n\r é☃'), max_size=6), max_size=6, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)
    matrix = draw(arrays(np.float64, (len(keys), draw(st.integers(1, 4))), elements=values))
    return VectorTable(keys, matrix), draw(st.permutations(range(len(keys))))


@pytest.mark.parametrize("key_column", ["key", "annotator_id"])
@settings(max_examples=60, deadline=None)
@given(vector_tables())
def test_vector_csv_round_trips_bit_for_bit(key_column, case):
    table, permutation = case
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "table.csv")
        save_vector_csv(table, path, key_column)
        again = load_vector_csv(path, key_column)
    assert again.keys == table.keys
    assert again.matrix.tobytes() == table.matrix.tobytes()
    permuted = [table.keys[i] for i in permutation]
    assert again.rows(permuted).tobytes() == table.matrix[list(permutation)].tobytes()


class TestProfilesIO:
    def test_roundtrip_and_empty_cells(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("annotator_id,gender,age\na1,f,\na2,m,26-35\n", encoding="utf-8")
        profiles = load_profiles(str(path))
        assert profiles["a1"].assignments == {"gender": "f"}
        assert profiles["a2"].assignments == {"gender": "m", "age": "26-35"}
        out = tmp_path / "q.csv"
        save_profiles(profiles, str(out), attributes=["gender", "age"])
        assert load_profiles(str(out)) == profiles

    def test_requires_annotator_id_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("who,gender\na1,f\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_profiles(str(path))
