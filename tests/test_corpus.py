import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import annotation_triples, make_dataset, profile_dicts, profiles_of, rows_of
from sociolens import corpus
from sociolens.corpus import (
    ColumnMapping,
    Dataset,
    binarize,
    filter_dataset,
    load_annotations,
    majority_vote,
    save_annotations,
    split_by_text,
)
from sociolens.errors import DataError, DuplicateError, EmptyDatasetError, SchemaError


def write_csv(path, rows, header="text_id,annotator_id,score"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


class TestLoadAnnotations:
    def test_three_distinct_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1,0", "t1,a2,2", "t2,a1,1"])
        ds = load_annotations(str(path))
        assert len(ds.records) == 3
        assert rows_of(ds)[1] == ("t1", "a2", 2, -1)

    def test_duplicate_pair_names_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1,0", "t1,a1,1"])
        with pytest.raises(DuplicateError, match="rows 2,3"):
            load_annotations(str(path))
        # 2000 rows over 350 distinct pairs: the message gives the count and the first five, not all 1650
        write_csv(path, [f"t{i % 350},a1,0" for i in range(2000)])
        with pytest.raises(DuplicateError, match="1650 rows repeat") as info:
            load_annotations(str(path))
        assert "rows 2,352:" in str(info.value) and len(str(info.value)) < 500

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["t1,a1"], header="text_id,annotator_id")
        with pytest.raises(SchemaError, match="score"):
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

    def test_roundtrip_save_load(self, tmp_path):
        ds = make_dataset([("t1", "a1", 0), ("t2", "a2", 3)])
        out = tmp_path / "out.csv"
        save_annotations(ds, str(out))
        again = load_annotations(str(out))
        assert rows_of(again) == rows_of(ds)


class TestBinarize:
    @pytest.mark.parametrize("score,label", [(0, 0), (1, 1), (4, 1)])
    def test_zero_versus_above(self, score, label):
        ds = binarize(make_dataset([("t", "a", score)]))
        assert rows_of(ds)[0][2:] == (score, label)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        triples = [(f"t{i}", f"a{i}", int(rng.integers(0, 5))) for i in range(40)]
        once = binarize(make_dataset(triples))
        twice = binarize(once)
        assert rows_of(once) == rows_of(twice)


class TestFilterDataset:
    def test_low_volume_annotator_removed(self):
        triples = [(f"t{i}", "busy", 1) for i in range(25)]
        triples += [(f"t{i}", "slacker", 1) for i in range(19)]
        ds, report = filter_dataset(make_dataset(triples, labels=True), 1, 20)
        assert {a for _, a, _, _ in rows_of(ds)} == {"busy"}
        assert report.removed_annotators == 1
        assert report.removed_records == 19

    def test_under_annotated_text_removed(self):
        triples = [(f"t{i}", "a1", 1) for i in range(30)] + [(f"t{i}", "a2", 1) for i in range(29)]
        # t29 only has a1 after no annotator removals
        ds, report = filter_dataset(make_dataset(triples, labels=True), 2, 20)
        assert "t29" not in {t for t, _, _, _ in rows_of(ds)}
        assert report.removed_texts == 1

    def test_vacuous_thresholds_keep_everything(self):
        triples = [("t1", "a1", 0), ("t2", "a2", 1)]
        ds, report = filter_dataset(make_dataset(triples, labels=True), 1, 1)
        assert len(ds.records) == 2
        assert report.removed_records == 0

    def test_single_pass_no_fixpoint(self):
        # after dropping t-texts below the annotator threshold, annotator a2
        # falls under the volume threshold; single-pass keeps them anyway
        triples = [("t1", "a1", 1), ("t1", "a2", 1), ("t2", "a2", 1), ("t2", "a3", 1), ("t3", "a1", 1)]
        ds, _ = filter_dataset(make_dataset(triples, labels=True), 2, 2)
        # a3 (1 record) removed first; t2 then has only a2 -> removed; a2 now has 1 record but stays
        assert {a for _, a, _, _ in rows_of(ds)} == {"a1", "a2"}
        assert {t for t, _, _, _ in rows_of(ds)} == {"t1"}

    def test_counts_sum_consistently(self):
        rng = np.random.default_rng(5)
        triples = {(f"t{rng.integers(0, 30)}", f"a{rng.integers(0, 12)}") for _ in range(300)}
        ds = make_dataset([(t, a, 1) for t, a in triples], labels=True)
        original = len(ds.records)
        filtered, report = filter_dataset(ds, 2, 5)
        assert report.removed_records + report.retained_records == original
        assert report.retained_records == len(filtered.records)

    def test_empty_result_raises(self):
        ds = make_dataset([("t1", "a1", 1)], labels=True)
        with pytest.raises(EmptyDatasetError):
            filter_dataset(ds, 5, 5)

    def test_thresholds_below_one_rejected(self):
        ds = make_dataset([("t1", "a1", 1)], labels=True)
        with pytest.raises(DataError):
            filter_dataset(ds, 0, 1)


class TestSplitByText:
    def make(self, n_texts, per_text=3):
        triples = [(f"t{i:02d}", f"a{j}", 1) for i in range(n_texts) for j in range(per_text)]
        return make_dataset(triples, labels=True)

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
            split = split_by_text(make_dataset(rows, labels=True), fraction, seed)
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
        ds = make_dataset([("t", "a1", 1), ("t", "a2", 1), ("t", "a3", 0)], labels=True)
        assert votes(ds) == {"t": 1}

    def test_unanimous_zero(self):
        ds = make_dataset([("t", "a1", 0), ("t", "a2", 0), ("t", "a3", 0)], labels=True)
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
                assert votes(make_dataset(triples, labels=True)) == {"t": expected}, (ones, zeros)

    def test_requires_labels(self):
        with pytest.raises(DataError):
            majority_vote(make_dataset([("t", "a", 1)]))


@settings(max_examples=300, deadline=None)
@given(annotation_triples(), st.data())
def test_ids_after_any_row_mask_in_first_appearance_order(triples, data):
    mask = data.draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    kept = [row for row, keep in zip(triples, mask) if keep]
    ds = make_dataset(triples).subset(np.array(mask, dtype=bool))
    assert [row[:3] for row in rows_of(ds)] == kept
    assert ds.texts.tolist() == list(dict.fromkeys(t for t, _, _ in kept))
    assert ds.annotators.tolist() == list(dict.fromkeys(a for _, a, _ in kept))


def test_stats_match_records():
    ds = binarize(make_dataset([("t1", "a1", 0), ("t1", "a2", 2), ("t2", "a1", 1)]))
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
    # binarize shares the table rather than copying it
    assert binarize(profiled).profiles is profiled.profiles
