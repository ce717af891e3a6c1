import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    decode_multihot,
    profile_csvs,
    profile_dicts,
    profiles_of,
    reference_category,
    reference_multihot,
    reference_load_vector_csv,
    reference_profiles,
    reference_schema,
    save_embeddings_binary,
    vector_csvs,
)
from sociolens.homophily import RepSpace
from sociolens.metrics import confusion_metrics, group_breakdown
from sociolens import features
from sociolens.errors import DataError, NumericError
from sociolens.features import (
    MISSING,
    ProfileTable,
    SocioSchema,
    VectorTable,
    build_schema,
    load_embeddings,
    load_profiles,
    load_vector_csv,
    multihot_rows,
    save_profiles,
    save_vector_csv,
)


class TestBuildSchema:
    def test_two_gender_profiles(self):
        profiles = profiles_of({"a1": {"gender": "female"}, "a2": {"gender": "male"}})
        schema = build_schema(profiles)
        assert schema.attributes == [("gender", ["female", "male", MISSING])]
        assert schema.total_width == 3

    def test_new_category_grows_width_by_one(self):
        base = {"a1": {"gender": "female"}, "a2": {"gender": "male"}}
        schema = build_schema(profiles_of(base))
        grown = build_schema(profiles_of({**base, "a3": {"gender": "nonbinary"}}))
        assert grown.total_width == schema.total_width + 1

    def test_eight_attribute_inventory(self):
        attrs = ["education", "ideology", "age", "gender", "race", "sexuality", "income", "religion_importance"]
        schema = build_schema(profiles_of({"a1": {a: "x" for a in attrs}}))
        assert len(schema.attributes) == 8

    def test_attribute_order_is_first_appearance(self):
        # file columns [a_attr, b_attr]; the first annotator declined a_attr
        profiles = profiles_of({"a0": {"a_attr": "", "b_attr": ""}, "a1": {"b_attr": "1"}, "a2": {"a_attr": "1", "b_attr": "2"}})
        assert profiles.attributes == ["a_attr", "b_attr"]
        assert build_schema(profiles).attribute_names == ["b_attr", "a_attr"]

    def test_categories_sorted_lexicographically(self):
        profiles = profiles_of({"a1": {"age": "z"}, "a2": {"age": "a"}})
        assert build_schema(profiles).attributes == [("age", ["a", "z", MISSING])]

    def test_empty_collection_rejected(self):
        with pytest.raises(DataError, match="cannot build a schema without profiles"):
            build_schema(profiles_of({"a1": {"g": "x"}}).select([]))

    def test_categories_of_the_selected_annotators_only(self):
        profiles = profiles_of({"a1": {"g": "x", "h": ""}, "a2": {"g": "y", "h": "z"}})
        assert build_schema(profiles.select(["a1"])).attributes == [("g", ["x", MISSING])]


class TestEncodeMultihot:
    schema = SocioSchema([("gender", ["f", "m", MISSING]), ("age", ["0-25", "26-35", MISSING])])

    def encode(self, assignments):
        return multihot_rows(profiles_of({"a": assignments}), self.schema)[0]

    def test_full_profile(self):
        vec = self.encode({"gender": "m", "age": "26-35"})
        assert vec.tolist() == [0, 1, 0, 0, 1, 0]

    def test_missing_attribute_uses_missing_slot(self):
        vec = self.encode({"gender": "m"})
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
            vec = self.encode(assignments)
            assert vec.sum() == len(self.schema.attributes)
            offset = 0
            for attr, options in self.schema.attributes:
                block = vec[offset : offset + len(options)]
                assert block.sum() == 1
                offset += len(options)

    def test_unknown_category_lenient_maps_to_missing(self):
        vec = self.encode({"gender": "x"})
        assert vec[self.schema.attributes[0][1].index(MISSING)] == 1

    def test_decode_roundtrip_including_missing(self):
        decoded = decode_multihot(self.encode({"gender": "f"}), self.schema)
        assert decoded == {"gender": "f", "age": MISSING}

    def test_rows_follow_the_table_order(self):
        profiles = profiles_of({"b": {"gender": "f"}, "a": {"gender": "m", "age": "0-25"}})
        assert multihot_rows(profiles, self.schema).tolist() == [[1, 0, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0]]

    def test_declined_answer_without_missing_category_rejected(self):
        schema = SocioSchema([("gender", ["f", "m"])])
        with pytest.raises(DataError, match="attribute 'gender' has no .* for a declined or unknown answer"):
            multihot_rows(profiles_of({"a": {"gender": "x"}}), schema)


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

    def test_csv_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("key,d0,d1\nx,1,2\n", encoding="utf-8-sig")
        assert load_embeddings(str(path)).rows(["x"]).tolist() == [[1, 2]]

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


@settings(max_examples=200, deadline=None)
@given(vector_csvs(), st.sampled_from([1, 2, 3, 5, features.VECTOR_BLOCK_CELLS]))
def test_vector_csv_reader_matches_the_per_row_reference(text, block_cells):
    # the same table, bit for bit, or the same error class and message, naming the same first bad row;
    # small blocks put block bounds before, at and after the bad rows
    with tempfile.TemporaryDirectory() as scratch, mock.patch.object(features, "VECTOR_BLOCK_CELLS", block_cells):
        path = str(Path(scratch) / "table.csv")
        Path(path).write_text(text, encoding="utf-8", newline="")
        outcomes = []
        for read in (load_vector_csv, reference_load_vector_csv):
            try:
                table = read(path, "key")
                outcomes.append((table.keys, table.matrix.dtype, table.matrix.shape, table.matrix.tobytes()))
            except (DataError, NumericError) as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


class TestProfilesIO:
    def test_roundtrip_and_empty_cells(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("annotator_id,gender,age\na1,f,\na2,m,26-35\n", encoding="utf-8")
        profiles = load_profiles(str(path))
        assert profile_dicts(profiles) == {"a1": {"gender": "f"}, "a2": {"gender": "m", "age": "26-35"}}
        out = tmp_path / "q.csv"
        save_profiles(profiles, str(out))
        assert profile_dicts(load_profiles(str(out))) == profile_dicts(profiles)
        assert out.read_bytes() == b"annotator_id,gender,age\r\na1,f,\r\na2,m,26-35\r\n"

    def test_columns_coded_once_into_sorted_categories(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("g,annotator_id,h\nz,a1,\n,a2\n\na,a3,y,extra\n", encoding="utf-8")
        profiles = load_profiles(str(path))
        assert profiles.annotators == ["a1", "a2", "a3"]
        assert profiles.attributes == ["g", "h"]
        assert profiles.categories == [["a", "z"], ["y"]]
        # the short row declines h; the cell past the header is ignored
        assert profiles.answers.tolist() == [[1, -1], [-1, -1], [0, 0]]

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("annotator_id,gender\na1,f\n", encoding="utf-8-sig")
        assert profile_dicts(load_profiles(str(path))) == {"a1": {"gender": "f"}}

    def test_requires_annotator_id_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("who,gender\na1,f\n", encoding="utf-8")
        with pytest.raises(DataError, match="profile file needs an 'annotator_id' column"):
            load_profiles(str(path))

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("annotator_id,g,g\na1,f,m\n", encoding="utf-8")
        with pytest.raises(DataError, match="profile header repeats a column name"):
            load_profiles(str(path))

    def test_duplicate_annotator_names_the_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("annotator_id,g\na1,f\na2,m\na1,m\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate annotator_id 'a1' at row 4"):
            load_profiles(str(path))

    def test_select_names_unprofiled_annotators(self):
        profiles = profiles_of({"a1": {"g": "x"}, "a2": {"g": "y"}})
        assert profile_dicts(profiles.select(["a2", "a1"])) == {"a2": {"g": "y"}, "a1": {"g": "x"}}
        with pytest.raises(DataError, match=r"\['ghost'\]"):
            profiles.select(["a1", "ghost"])


@settings(max_examples=150, deadline=None)
@given(profile_csvs(), st.data())
def test_profile_readers_match_the_per_profile_oracle(text, data):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "profiles.csv"
        path.write_text(text, encoding="utf-8", newline="")
        profiles = load_profiles(str(path))
        oracle = reference_profiles(str(path))
        # a load/save round trip is byte-identical once written
        saved, again = Path(scratch) / "saved.csv", Path(scratch) / "again.csv"
        save_profiles(profiles, str(saved))
        save_profiles(load_profiles(str(saved)), str(again))
        assert again.read_bytes() == saved.read_bytes()
        assert reference_profiles(str(saved)) == oracle
        # a file with no short row reads and writes back as it was
        if all(len(row) == len(profiles.attributes) + 1 for row in csv.reader(io.StringIO(text, newline=""))):
            assert saved.read_bytes() == path.read_bytes()
    ids = list(oracle)
    assert list(profile_dicts(profiles).items()) == list(oracle.items())

    # a schema of some annotators leaves the others' unseen categories unknown
    known = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    schema = build_schema(profiles.select(known))
    assert schema.attributes == reference_schema([oracle[a] for a in known]).attributes
    assert multihot_rows(profiles, schema).tolist() == [reference_multihot(oracle[a], schema).tolist() for a in ids]

    records = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12))
    probs = np.array(data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.9]), min_size=len(records), max_size=len(records))))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(records), max_size=len(records))))
    vocabulary = list(dict.fromkeys(records))
    codes = np.array([vocabulary.index(a) for a in records])
    table = group_breakdown(probs, labels, schema.encode(profiles.select(vocabulary))[codes], schema)
    present = []
    for attribute, categories in schema.attributes:
        counted = np.array([reference_category(oracle[a], attribute, categories) for a in records], dtype=object)
        for category in categories:
            mask = counted == category
            if mask.any():
                present.append((attribute, category))
                assert table[attribute, category] == confusion_metrics(probs[mask], labels[mask])
            else:
                assert (attribute, category) not in table
    assert list(table) == present

    # homophily reads every profile under the schema of them all, as `sociolens homophily` does
    full = build_schema(profiles)
    space = RepSpace.from_representations(VectorTable(ids, np.zeros((len(ids), 1))), profiles, full)
    assert space.attributes == full.attribute_names
    for a, (attribute, categories) in enumerate(full.attributes):
        assert [categories[c] for c in space.codes[:, a]] == [reference_category(oracle[i], attribute, categories) for i in ids]
