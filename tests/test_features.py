import numpy as np
import pytest

from helpers import decode_multihot, save_embeddings_binary
from sociolens.errors import DataError, NumericError, SchemaError
from sociolens.features import (
    MISSING,
    AnnotatorProfile,
    EmbeddingTable,
    SocioSchema,
    build_schema,
    encode_multihot,
    load_embeddings,
    load_profiles,
    save_embeddings_csv,
    save_profiles,
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
        table = EmbeddingTable(4, {f"k{i}": rng.standard_normal(4) for i in range(7)})
        path = tmp_path / "emb.csv"
        save_embeddings_csv(table, str(path))
        again = load_embeddings(str(path))
        assert again.dimension == 4
        for key in table.vectors:
            assert np.array_equal(again[key], table[key])

    def test_csv_two_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("key,d0,d1,d2,d3\nx,1,2,3,4\ny,5,6,7,8\n", encoding="utf-8")
        table = load_embeddings(str(path))
        assert len(table) == 2
        assert table["y"].tolist() == [5, 6, 7, 8]

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
        table = EmbeddingTable(384, {"s": rng.standard_normal(384)})
        path = tmp_path / "wide.csv"
        save_embeddings_csv(table, str(path))
        assert load_embeddings(str(path)).dimension == 384

    def test_binary_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        vectors = {f"k{i}": rng.standard_normal(6).astype(np.float32).astype(np.float64) for i in range(5)}
        table = EmbeddingTable(6, vectors)
        p1 = tmp_path / "a.pemb"
        p2 = tmp_path / "b.pemb"
        save_embeddings_binary(table, str(p1))
        save_embeddings_binary(load_embeddings(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_binary_magic_dispatch(self, tmp_path):
        table = EmbeddingTable(2, {"u": np.array([1.0, 2.0])})
        path = tmp_path / "t.pemb"
        save_embeddings_binary(table, str(path))
        assert path.read_bytes()[:4] == b"PEMB"
        assert load_embeddings(str(path))["u"].tolist() == [1.0, 2.0]

    def test_truncated_binary_rejected(self, tmp_path):
        table = EmbeddingTable(3, {"u": np.array([1.0, 2.0, 3.0])})
        path = tmp_path / "t.pemb"
        save_embeddings_binary(table, str(path))
        (tmp_path / "cut.pemb").write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataError):
            load_embeddings(str(tmp_path / "cut.pemb"))

    def test_missing_key_lookup(self):
        table = EmbeddingTable(1, {"a": np.array([0.0])})
        with pytest.raises(DataError, match="'b'"):
            table["b"]


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
