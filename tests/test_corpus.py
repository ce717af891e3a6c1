import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    annotation_csvs,
    annotation_triples,
    make_dataset,
    profile_dicts,
    profiles_of,
    reference_load_annotations,
    rows_of,
)
from sociolens import corpus, synth
from sociolens.corpus import (
    MAX_SCORE,
    ColumnMapping,
    Dataset,
    binarize,
    filter_dataset,
    load_annotations,
    majority_vote,
    save_annotations,
    split_by_text,
)
from sociolens.errors import DataError
from sociolens.synth import AttributeSpec, PopulationSpec


def write_csv(path, rows, header="text_id,annotator_id,score"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


class TestLoadAnnotations:
    def test_three_distinct_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1,0", "t1,a2,2", "t2,a1,1"])
        ds = load_annotations(str(path))
        assert len(ds.records) == 3
        assert rows_of(ds)[1] == ("t1", "a2", 2, 1)

    def test_duplicate_pair_names_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1,0", "t1,a1,1"])
        with pytest.raises(DataError, match=r"1 rows repeat an earlier \(text_id, annotator_id\) pair, first: rows 2,3"):
            load_annotations(str(path))
        # 2000 rows over 350 distinct pairs: the message gives the count and the first five, not all 1650
        write_csv(path, [f"t{i % 350},a1,0" for i in range(2000)])
        with pytest.raises(DataError, match=r"1650 rows repeat an earlier \(text_id, annotator_id\) pair") as info:
            load_annotations(str(path))
        assert "rows 2,352:" in str(info.value) and len(str(info.value)) < 500

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1"], header="text_id,annotator_id")
        with pytest.raises(DataError, match="declared column 'score' not in header"):
            load_annotations(str(path))

    def test_non_integer_score(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1,high"])
        with pytest.raises(DataError, match="row 2"):
            load_annotations(str(path))

    def test_negative_score(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1,-1"])
        with pytest.raises(DataError, match="negative"):
            load_annotations(str(path))

    def test_score_beyond_int64(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1,9223372036854775807", "t1,a2,9223372036854775808"])
        with pytest.raises(DataError, match="row 3: .* int64"):
            load_annotations(str(path))

    def test_custom_column_mapping_count_matches_line_count(self, tmp_path):
        # production-shaped export: comment/annotator/score columns
        path = tmp_path / "export.csv"
        rows = [f"c{i},w{i % 7},{i % 3}" for i in range(53)]
        write_csv(path, rows, header="comment,annotator,rating")
        mapping = ColumnMapping(text_id="comment", annotator_id="annotator", score="rating")
        ds = load_annotations(str(path), mapping)
        with open(path, encoding="utf-8") as f:
            n_lines = sum(1 for _ in f) - 1  # independent line counter
        assert len(ds.records) == n_lines

    def test_short_row_reads_a_missing_score_as_none(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1,0", "", "t2,a1"])  # the blank line takes no row number
        with pytest.raises(DataError, match="row 3: score None is not a base-10 integer"):
            load_annotations(str(path))

    def test_short_row_without_its_ids_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["1,t1,a1", "2"], header="score,text_id,annotator_id")
        with pytest.raises(DataError, match="row 3: 'text_id' cell is missing"):
            load_annotations(str(path))
        write_csv(path, ["1,t1,a1", "2,t2"], header="score,text_id,annotator_id")
        with pytest.raises(DataError, match="row 3: 'annotator_id' cell is missing"):
            load_annotations(str(path))

    @pytest.mark.parametrize("row, column", [("0,,a2", "text_id"), ("0,t2,", "annotator_id")])
    def test_empty_id_cell_rejected(self, tmp_path, row, column):
        path = tmp_path / "a.csv"
        write_csv(path, ["1,t1,a1", row], header="score,text_id,annotator_id")
        with pytest.raises(DataError, match=f"row 3: '{column}' cell is empty"):
            load_annotations(str(path))

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one
        path = tmp_path / "a.csv"
        path.write_text("text_id,annotator_id,score\nt1,a1,0\nt1,a2,2\n", encoding="utf-8-sig")
        assert rows_of(load_annotations(str(path))) == [("t1", "a1", 0, 0), ("t1", "a2", 2, 1)]

    def test_roundtrip_save_load(self, tmp_path):
        ds = make_dataset([("t1", "a1", 0), ("t2", "a2", 3)])
        out = tmp_path / "out.csv"
        save_annotations(ds, str(out))
        again = load_annotations(str(out))
        assert rows_of(again) == rows_of(ds)


class TestBinarize:
    @pytest.mark.parametrize("score,label", [(0, 0), (1, 1), (4, 1)])
    def test_zero_versus_above(self, score, label):
        labels = binarize(np.array([score], dtype=np.int64))
        assert labels.dtype == np.int8 and labels.tolist() == [label]



def assert_labelled(ds: Dataset) -> None:
    """Each record's label is its score binarized: int8, 1 exactly where the score is above 0."""
    labels = ds.records["label"]
    assert labels.dtype == np.int8
    assert labels.tolist() == (ds.records["score"] > 0).astype(np.int8).tolist()


# (text id, annotator id, score) rows over a few ids, scores small or anywhere in the int64 range
SCORED_ROWS = st.lists(
    st.tuples(
        st.sampled_from([f"t{i}" for i in range(6)]),
        st.sampled_from([f"a{i}" for i in range(6)]),
        st.one_of(st.integers(0, 3), st.integers(0, MAX_SCORE)),
    ),
    max_size=30,
)


class TestLabelAtConstruction:
    """Every way a Dataset is built labels its records from their scores."""

    @settings(max_examples=200, deadline=None)
    @given(annotation_csvs())
    def test_load_annotations(self, case):
        text, columns = case
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "annotations.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                ds = load_annotations(str(path), columns)
            except DataError:
                return
        assert_labelled(ds)

    @settings(max_examples=200, deadline=None)
    @given(SCORED_ROWS)
    def test_from_columns(self, rows):
        assert_labelled(make_dataset(rows))

    @settings(max_examples=200, deadline=None)
    @given(SCORED_ROWS, st.data())
    def test_subset(self, rows, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        assert_labelled(make_dataset(rows).subset(np.array(mask, dtype=bool)))

    @settings(max_examples=200, deadline=None)
    @given(SCORED_ROWS, st.integers(1, 3), st.integers(1, 3))
    def test_filter_dataset(self, rows, per_text, per_annotator):
        try:
            ds, _ = filter_dataset(make_dataset(rows), per_text, per_annotator)
        except DataError:
            return
        assert_labelled(ds)

    @settings(max_examples=200, deadline=None)
    @given(SCORED_ROWS, st.floats(0.1, 0.9), st.integers(0, 2**32))
    def test_split_by_text(self, rows, fraction, seed):
        try:
            split = split_by_text(make_dataset(rows), fraction, seed)
        except DataError:
            return
        assert_labelled(split.train)
        assert_labelled(split.test)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 8), st.integers(1, 2), st.floats(-3, 3), st.integers(0, 2**32))
    def test_generate_annotations(self, annotators, texts, per_text, shift, seed):
        spec = PopulationSpec(
            annotator_count=annotators, attributes=(AttributeSpec("g", ("x", "y"), (0.5, 0.5)),),
            signal={("g", "x"): shift}, text_count=texts, annotations_per_text=per_text, embedding_dim=2, seed=seed,
        )
        population = synth.generate_population(spec)
        assert_labelled(synth.generate_annotations(population, synth.generate_corpus(spec), spec))


class TestFilterDataset:
    def test_low_volume_annotator_removed(self):
        triples = [(f"t{i}", "busy", 1) for i in range(25)]
        triples += [(f"t{i}", "slacker", 1) for i in range(19)]
        ds, report = filter_dataset(make_dataset(triples), 1, 20)
        assert {a for _, a, _, _ in rows_of(ds)} == {"busy"}
        assert report.removed_annotators == 1
        assert report.removed_records == 19

    def test_under_annotated_text_removed(self):
        triples = [(f"t{i}", "a1", 1) for i in range(30)] + [(f"t{i}", "a2", 1) for i in range(29)]
        # t29 only has a1 after no annotator removals
        ds, report = filter_dataset(make_dataset(triples), 2, 20)
        assert "t29" not in {t for t, _, _, _ in rows_of(ds)}
        assert report.removed_texts == 1

    def test_vacuous_thresholds_keep_everything(self):
        triples = [("t1", "a1", 0), ("t2", "a2", 1)]
        ds, report = filter_dataset(make_dataset(triples), 1, 1)
        assert len(ds.records) == 2
        assert report.removed_records == 0

    def test_single_pass_no_fixpoint(self):
        # after dropping t-texts below the annotator threshold, annotator a2
        # falls under the volume threshold; single-pass keeps them anyway
        triples = [("t1", "a1", 1), ("t1", "a2", 1), ("t2", "a2", 1), ("t2", "a3", 1), ("t3", "a1", 1)]
        ds, _ = filter_dataset(make_dataset(triples), 2, 2)
        # a3 (1 record) removed first; t2 then has only a2 -> removed; a2 now has 1 record but stays
        assert {a for _, a, _, _ in rows_of(ds)} == {"a1", "a2"}
        assert {t for t, _, _, _ in rows_of(ds)} == {"t1"}

    def test_counts_sum_consistently(self):
        rng = np.random.default_rng(5)
        triples = {(f"t{rng.integers(0, 30)}", f"a{rng.integers(0, 12)}") for _ in range(300)}
        ds = make_dataset([(t, a, 1) for t, a in triples])
        original = len(ds.records)
        filtered, report = filter_dataset(ds, 2, 5)
        assert report.removed_records + report.retained_records == original
        assert report.retained_records == len(filtered.records)

    def test_empty_result_raises(self):
        ds = make_dataset([("t1", "a1", 1)])
        with pytest.raises(DataError, match="removed every record"):
            filter_dataset(ds, 5, 5)


class TestSplitByText:
    def make(self, n_texts, per_text=3):
        triples = [(f"t{i:02d}", f"a{j}", 1) for i in range(n_texts) for j in range(per_text)]
        return make_dataset(triples)

    def test_cardinality_and_disjoint(self):
        split = split_by_text(self.make(10), 0.7, seed=4)
        train_texts = {t for t, _, _, _ in rows_of(split.train)}
        test_texts = {t for t, _, _, _ in rows_of(split.test)}
        assert len(train_texts) == math.ceil(0.7 * 10) == 7
        assert len(test_texts) == 3
        assert not (train_texts & test_texts)

    def test_records_travel_with_text(self):
        split = split_by_text(self.make(10), 0.7, seed=4)
        for side in (split.train, split.test):
            counts = {}
            for t, _, _, _ in rows_of(side):
                counts[t] = counts.get(t, 0) + 1
            assert all(c == 3 for c in counts.values())

    def test_same_seed_identical(self):
        ds = self.make(12)
        a = split_by_text(ds, 0.6, seed=9)
        b = split_by_text(ds, 0.6, seed=9)
        assert rows_of(a.train) == rows_of(b.train)
        assert rows_of(a.test) == rows_of(b.test)

    def test_split_independent_of_record_order(self):
        ds = self.make(8)
        reversed_ds = ds.subset(np.arange(len(ds.records))[::-1])
        a = split_by_text(ds, 0.5, seed=2)
        b = split_by_text(reversed_ds, 0.5, seed=2)
        assert {t for t, _, _, _ in rows_of(a.train)} == {t for t, _, _, _ in rows_of(b.train)}

    def test_union_exhaustive_over_seeds(self):
        ds = self.make(9)
        all_texts = {t for t, _, _, _ in rows_of(ds)}
        for seed in range(25):
            split = split_by_text(ds, 0.44, seed=seed)
            got = {t for t, _, _, _ in rows_of(split.train) + rows_of(split.test)}
            assert got == all_texts

    @settings(max_examples=300, deadline=None)
    @given(annotation_triples(), st.floats(0.01, 0.99), st.integers(0, 2**64 - 1), st.randoms(use_true_random=False))
    def test_partition_independent_of_row_order(self, triples, fraction, seed, random):
        texts = {t for t, _, _ in triples}
        assume(0 < math.ceil(fraction * len(texts)) < len(texts))
        shuffled = list(triples)
        random.shuffle(shuffled)
        sides = []
        for rows in (triples, shuffled):
            split = split_by_text(make_dataset(rows), fraction, seed)
            train, test = ({row[:3] for row in rows_of(side)} for side in (split.train, split.test))
            assert len(train) + len(test) == len(rows)
            assert train | test == set(rows)
            assert not {t for t, _, _ in train} & {t for t, _, _ in test}
            sides.append((train, test))
        assert sides[0] == sides[1]

    def test_degenerate_fraction_raises(self):
        with pytest.raises(DataError):
            split_by_text(self.make(2), 0.95, seed=0)  # ceil(1.9) = 2 -> empty test side

    def test_bad_fraction_raises(self):
        with pytest.raises(DataError):
            split_by_text(self.make(4), 1.0, seed=0)

    def test_profiles_follow_annotators(self):
        answers = {f"a{j}": {"g": f"c{j}"} for j in reversed(range(3))}
        ds = corpus.attach_profiles(self.make(6), profiles_of(answers))
        split = split_by_text(ds, 0.5, seed=1)
        for side in (split.train, split.test):
            assert set(side.profiles.annotators) == {a for _, a, _, _ in rows_of(side)}
            # row c of the profiles is annotator code c
            assert side.profiles.annotators == side.annotators.tolist()
            assert profile_dicts(side.profiles) == {a: answers[a] for a in side.annotators.tolist()}


def votes(ds: Dataset) -> dict[str, int]:
    return dict(zip(ds.texts.tolist(), majority_vote(ds).tolist()))


class TestMajorityVote:
    def test_strict_majority(self):
        ds = make_dataset([("t", "a1", 1), ("t", "a2", 1), ("t", "a3", 0)])
        assert votes(ds) == {"t": 1}

    def test_unanimous_zero(self):
        ds = make_dataset([("t", "a1", 0), ("t", "a2", 0), ("t", "a3", 0)])
        assert votes(ds) == {"t": 0}

    def test_tie_rule_matches_exhaustive_enumeration(self):
        # enumerate every vote multiset up to 4 votes; ties must resolve to 1
        for ones in range(5):
            for zeros in range(5):
                if ones + zeros == 0:
                    continue
                triples = [("t", f"p{i}", 1) for i in range(ones)]
                triples += [("t", f"n{i}", 0) for i in range(zeros)]
                expected = 1 if ones >= zeros else 0
                assert votes(make_dataset(triples)) == {"t": expected}, (ones, zeros)


@settings(max_examples=300, deadline=None)
@given(annotation_triples(), st.data())
def test_ids_after_any_row_mask_in_first_appearance_order(triples, data):
    mask = data.draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    kept = [row for row, keep in zip(triples, mask) if keep]
    ds = make_dataset(triples).subset(np.array(mask, dtype=bool))
    assert [row[:3] for row in rows_of(ds)] == kept
    assert ds.texts.tolist() == list(dict.fromkeys(t for t, _, _ in kept))
    assert ds.annotators.tolist() == list(dict.fromkeys(a for _, a, _ in kept))


@settings(max_examples=500, deadline=None)
@given(annotation_csvs())
def test_loader_matches_the_dict_reader_reference(case):
    # the same vocabularies and records, or the same DataError message naming the same first bad row
    text, columns = case
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "annotations.csv")
        Path(path).write_text(text, encoding="utf-8", newline="")
        outcomes = []
        for load in (load_annotations, reference_load_annotations):
            try:
                ds = load(path, columns)
                outcomes.append((ds.texts.tolist(), ds.annotators.tolist(), ds.records.dtype, ds.records.tobytes()))
            except DataError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=300, deadline=None)
@given(annotation_triples(), st.data())
def test_subset_matches_coding_its_rows_afresh(triples, data):
    # `subset` re-codes from the parent's codes; `from_columns` over the kept rows' ids is the oracle
    ds = make_dataset(triples)
    answers = {a: {"g": f"c{sum(map(ord, a)) % 3}"} for _, a, _ in reversed(triples)}
    ds = corpus.attach_profiles(ds, profiles_of(answers))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples))), dtype=bool)
    sub = ds.subset(mask)
    rows = ds.records[mask]
    want = Dataset.from_columns(
        ds.texts[rows["text"]].tolist(), ds.annotators[rows["annotator"]].tolist(), rows["score"]
    )
    assert (sub.texts.tolist(), sub.annotators.tolist()) == (want.texts.tolist(), want.annotators.tolist())
    assert sub.records.dtype == want.records.dtype and sub.records.tobytes() == want.records.tobytes()
    selected = ds.profiles.select(want.annotators.tolist())
    assert (sub.profiles.annotators, sub.profiles.attributes, sub.profiles.categories) == (
        selected.annotators, selected.attributes, selected.categories
    )
    assert sub.profiles.answers.tobytes() == selected.answers.tobytes()


def test_stats_match_records():
    ds = make_dataset([("t1", "a1", 0), ("t1", "a2", 2), ("t2", "a1", 1)])
    assert ds.stats == {"records": 3, "unique_texts": 2, "unique_annotators": 2, "label_counts": {"0": 1, "1": 2}}


def test_attach_profiles_requires_coverage():
    ds = make_dataset([("t1", "a1", 1), ("t2", "a2", 1)])
    with pytest.raises(DataError, match="a2"):
        corpus.attach_profiles(ds, profiles_of({"a1": {"g": "x"}}))


def test_attach_profiles_aligns_rows_to_annotator_codes():
    ds = make_dataset([("t1", "a2", 1), ("t2", "a1", 1), ("t2", "a2", 0)])
    profiled = corpus.attach_profiles(ds, profiles_of({"a1": {"g": "x"}, "a3": {"g": "z"}, "a2": {"g": ""}}))
    assert profiled.profiles.annotators == ["a2", "a1"]
    assert profile_dicts(profiled.profiles) == {"a2": {}, "a1": {"g": "x"}}
