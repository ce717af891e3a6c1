import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import annotation_triples, make_dataset, reference_plan_epoch, split_plan_epoch
from sociolens.batcher import contrastive_masks, plan_epoch, text_match_mask
from sociolens.corpus import Dataset
from sociolens.errors import DataError


def dataset_with_groups(sizes: dict[str, int]) -> Dataset:
    return make_dataset([(text, f"{text}_a{j}", 1) for text, n in sizes.items() for j in range(n)], labels=True)


def plan(ds: Dataset, batch_size: int, seed: int) -> list[list[int]]:
    """The epoch plan over `ds`'s rows as lists of row indices."""
    return plan_epoch(ds.records["text"], batch_size, seed).to_jsonable()["batches"]


def text_ids(ds: Dataset, indices: list[int]) -> list[str]:
    return ds.texts[ds.records["text"][indices]].tolist()


class TestPlanEpoch:
    def test_two_groups_pack_greedily(self):
        # group sizes 3 and 2 with batch 4: whichever group shuffles first,
        # the stream chops into one full batch and one leftover record
        ds = dataset_with_groups({"A": 3, "B": 2})
        batches = plan(ds, 4, seed=0)
        texts = [text_ids(ds, batch) for batch in batches]
        assert [len(b) for b in batches] == [4, 1]
        first, second = ("A", "B") if texts[0][0] == "A" else ("B", "A")
        sizes = {"A": 3, "B": 2}
        # first group fully inside batch 0, second group split across the boundary
        assert texts[0][: sizes[first]] == [first] * sizes[first]
        assert texts[0][sizes[first] :] == [second] * (4 - sizes[first])
        assert texts[1] == [second]

    def test_seed_with_known_order(self):
        # seed 1 shuffles the two groups into (A, B) order: frozen after
        # inspecting the seeded generator; the assertion locks the layout
        ds = dataset_with_groups({"A": 3, "B": 2})
        texts = [text_ids(ds, batch) for batch in plan(ds, 4, seed=1)]
        assert texts == [["A", "A", "A", "B"], ["B"]]

    def test_oversize_group_spills(self):
        ds = dataset_with_groups({"big": 70})
        assert [len(b) for b in plan(ds, 32, seed=3)] == [32, 32, 6]

    @settings(max_examples=300, deadline=None)
    @given(annotation_triples(), st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_partition_property(self, triples, batch_size, seed):
        ds = make_dataset(triples, labels=True)
        batches = plan(ds, batch_size, seed)
        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(len(ds.records)))
        assert all(len(b) <= batch_size for b in batches)

    @settings(max_examples=300, deadline=None)
    @given(annotation_triples(), st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_contiguity_property(self, triples, batch_size, seed):
        # each text's rows form one run of the stream, so a text spans at most two batches in a row
        ds = make_dataset(triples, labels=True)
        stream = [t for batch in plan(ds, batch_size, seed) for t in text_ids(ds, batch)]
        runs = [t for i, t in enumerate(stream) if i == 0 or t != stream[i - 1]]
        assert len(runs) == len(set(runs))

    @settings(max_examples=300, deadline=None)
    @given(annotation_triples(), st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_plan_equals_record_reference(self, triples, batch_size, seed):
        ds = make_dataset(triples, labels=True)
        assert plan(ds, batch_size, seed) == reference_plan_epoch([t for t, _, _ in triples], batch_size, seed)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=30),
        st.integers(2, 64),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_plan_equals_split_reference(self, sizes, batch_size, seed, row_seed):
        # text groups of the given sizes, their rows in a random order
        codes = np.random.default_rng(row_seed).permutation(np.repeat(np.arange(len(sizes), dtype=np.int32), sizes))
        batches = plan_epoch(codes, batch_size, seed).batches
        reference = split_plan_epoch(codes, batch_size, seed)
        assert [b.tolist() for b in batches] == [b.tolist() for b in reference]

    def test_same_seed_identical_plan(self):
        ds = dataset_with_groups({"A": 5, "B": 4, "C": 3})
        assert plan(ds, 4, 11) == plan(ds, 4, 11)

    def test_different_seed_same_multiset(self):
        ds = dataset_with_groups({"A": 5, "B": 4, "C": 3})
        a = plan(ds, 4, 1)
        b = plan(ds, 4, 2)
        assert a != b
        assert sorted(i for x in a for i in x) == sorted(i for x in b for i in x)

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(DataError):
            plan(dataset_with_groups({"A": 3}), 1, 0)


class TestMasks:
    def test_text_match_examples(self):
        m = text_match_mask(["t1", "t1", "t2"])
        assert m.tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        assert np.array_equal(text_match_mask(np.array([0, 0, 1], dtype=np.int32)), m)
        assert text_match_mask(["a", "b", "c"]).tolist() == np.eye(3).tolist()

    def test_text_match_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ids = [f"t{rng.integers(0, 4)}" for _ in range(int(rng.integers(1, 10)))]
            m = text_match_mask(ids)
            assert np.array_equal(m, m.T)
            assert np.all(np.diag(m) == 1)

    def test_same_text_same_label(self):
        m_pos, m_neg = contrastive_masks(["t", "t"], np.array([1.0, 1.0]))
        assert m_pos.tolist() == [[0, 1], [1, 0]]
        assert m_neg.tolist() == [[0, 0], [0, 0]]

    def test_same_text_different_label(self):
        m_pos, m_neg = contrastive_masks(["t", "t"], np.array([1.0, 0.0]))
        assert m_pos.tolist() == [[0, 0], [0, 0]]
        assert m_neg.tolist() == [[0, 1], [1, 0]]

    def test_distinct_texts_zero_masks(self):
        m_pos, m_neg = contrastive_masks(["t1", "t2"], np.array([1.0, 1.0]))
        assert not m_pos.any() and not m_neg.any()

    def test_disjoint_and_bounded_property(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            ids = [f"t{rng.integers(0, 4)}" for _ in range(n)]
            labels = rng.integers(0, 2, size=n).astype(float)
            m_pos, m_neg = contrastive_masks(ids, labels)
            m_text = text_match_mask(ids)
            assert not (m_pos * m_neg).any()
            assert np.all(m_pos + m_neg <= m_text - np.eye(n) + 1e-12)
            assert np.all(np.diag(m_pos) == 0) and np.all(np.diag(m_neg) == 0)
