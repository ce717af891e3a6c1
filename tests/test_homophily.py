import importlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    chance_probability,
    full_neighbor_order,
    homophily_ratio,
    knn,
    observed_probability,
    profiles_of,
    reference_homophily_table,
    space_of,
)
from sociolens import homophily
from sociolens.errors import DataError
from sociolens.homophily import (
    RepSpace,
    bootstrap_homophily,
    homophily_table,
    load_representations,
)
from sociolens.features import VectorTable, build_schema, load_profiles, save_vector_csv


def brute_force_knn(vectors, ids, i, k):
    """Independent scalar-loop reimplementation with the same tie rules."""
    def cosine_distance(a, b):
        na = max(np.sqrt(sum(x * x for x in a)), 1e-30)
        nb = max(np.sqrt(sum(x * x for x in b)), 1e-30)
        return 1.0 - sum(x * y for x, y in zip(a, b)) / (na * nb)

    scored = [
        (cosine_distance(vectors[i], vectors[j]), ids[j], j)
        for j in range(len(ids))
        if j != i
    ]
    scored.sort()
    return [j for _, _, j in scored[:k]]


def uniform_space(rng, n, dim, categories=("x", "y")):
    vectors = rng.uniform(-1, 1, size=(n, dim))
    cats = [categories[i % len(categories)] for i in range(n)]
    ids = [f"a{i:04d}" for i in range(n)]
    return space_of(ids, vectors, {"attr": cats})


class TestKnn:
    def test_nearest_by_cosine(self):
        vectors = np.array([[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)], [0.1, np.sqrt(1 - 0.01)]])
        space = space_of(["a", "b", "c"], vectors, {"attr": ["x", "x", "x"]})
        assert knn(space, 0, 1) == [1]

    def test_query_never_its_own_neighbor(self):
        rng = np.random.default_rng(0)
        space = uniform_space(rng, 30, 5)
        for i in range(30):
            assert i not in knn(space, i, 10)

    def test_agrees_with_scalar_oracle(self):
        rng = np.random.default_rng(1)
        n = 500
        vectors = rng.standard_normal((n, 8))
        ids = [f"a{i:03d}" for i in range(n)]
        space = space_of(ids, vectors, {"attr": ["x"] * n})
        for i in rng.choice(n, size=25, replace=False):
            assert knn(space, int(i), 12) == brute_force_knn(vectors, ids, int(i), 12)

    def test_tie_break_by_annotator_id(self):
        # three identical vectors: all distances tie, id order decides
        vectors = np.ones((3, 4))
        space = space_of(["zz", "aa", "mm"], vectors, {"attr": ["x"] * 3})
        assert knn(space, 0, 2) == [1, 2]  # aa before mm

    @pytest.mark.parametrize("block", [3, homophily.ORDER_BLOCK])
    def test_identical_vectors_listed_in_id_order(self, block, monkeypatch):
        # few base vectors repeated at small dims, where a matrix product's
        # rounding can differ between columns holding the same vector;
        # small blocks put every space across several of them
        monkeypatch.setattr(homophily, "ORDER_BLOCK", block)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, dim = int(rng.integers(16, 61)), int(rng.integers(1, 9))
            group = rng.integers(0, 4, size=n)
            ids = [f"a{j:03d}" for j in rng.permutation(n)]
            space = space_of(ids, rng.standard_normal((4, dim))[group], {"attr": ["x"] * n})
            for i in range(n):
                listed = [ids[j] for j in knn(space, i, n - 1)]
                for g in range(4):
                    members = [a for a in listed if group[ids.index(a)] == g]
                    assert members == sorted(members), (seed, i, g)

    def test_neighbors_ignore_row_scale(self):
        # cosine distance reads directions only; power-of-two scales keep every normalized bit
        rng = np.random.default_rng(15)
        vectors = rng.standard_normal((40, 6))
        ids = [f"a{i:02d}" for i in range(40)]
        space = space_of(ids, vectors, {"attr": ["x"] * 40})
        scaled = space_of(ids, vectors * 2.0 ** rng.integers(-3, 4, size=(40, 1)), {"attr": ["x"] * 40})
        for i in (0, 7, 23):
            assert knn(scaled, i, 8) == knn(space, i, 8)

    def test_k_too_large_rejected(self):
        rng = np.random.default_rng(2)
        space = uniform_space(rng, 5, 3)
        with pytest.raises(DataError):
            knn(space, 0, 5)



class TestObservedProbability:
    def test_single_category_gives_one(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((20, 4))
        space = space_of([f"a{i}" for i in range(20)], vectors, {"attr": ["only"] * 20})
        assert observed_probability(space, "attr", k=5) == 1.0

    def test_hand_placed_pairs(self):
        # two tight pairs far apart; same-category pairing -> 1, mixed -> 0
        vectors = np.array([[1.0, 0.0], [0.999, 0.01], [-1.0, 0.0], [-0.999, 0.01]])
        ids = ["a", "b", "c", "d"]
        same = space_of(ids, vectors, {"attr": ["x", "x", "y", "y"]})
        mixed = space_of(ids, vectors, {"attr": ["x", "y", "x", "y"]})
        assert observed_probability(same, "attr", k=1) == 1.0
        assert observed_probability(mixed, "attr", k=1) == 0.0

    def test_invariant_under_orthogonal_transform(self):
        rng = np.random.default_rng(4)
        space = uniform_space(rng, 60, 6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = RepSpace(space.annotator_ids, space.vectors @ q, space.attributes, space.codes)
        for k in (3, 10):
            assert observed_probability(space, "attr", k) == pytest.approx(
                observed_probability(rotated, "attr", k), abs=1e-12
            )


class TestChanceProbability:
    def make(self, cats):
        n = len(cats)
        rng = np.random.default_rng(5)
        return space_of([f"a{i}" for i in range(n)], rng.standard_normal((n, 3)), {"attr": cats})

    def test_four_equal_categories(self):
        space = self.make(["a", "b", "c", "d"] * 5)
        assert chance_probability(space, "attr") == pytest.approx(0.25, abs=1e-15)

    def test_nine_one_split(self):
        space = self.make(["a"] * 9 + ["b"])
        assert chance_probability(space, "attr") == pytest.approx(0.82, abs=1e-15)

    def test_single_category(self):
        space = self.make(["a"] * 4)
        assert chance_probability(space, "attr") == 1.0

    def test_exactly_one_over_c_for_uniform(self):
        for c in (2, 4, 5, 8):
            space = self.make([f"c{i}" for i in range(c)] * 10)
            assert chance_probability(space, "attr") == pytest.approx(1.0 / c, abs=1e-15)

    def test_independent_of_vectors(self):
        cats = ["a", "b"] * 10
        s1 = self.make(cats)
        s2 = space_of(s1.annotator_ids, s1.vectors * 100 + 3, {"attr": cats})
        assert chance_probability(s1, "attr") == chance_probability(s2, "attr")


class TestHomophilyRatio:
    def test_planted_clusters_reach_inverse_chance(self):
        rng = np.random.default_rng(6)
        n = 60
        centers = {"x": np.array([10.0, 0.0, 0.0]), "y": np.array([-10.0, 0.0, 0.0])}
        cats = ["x" if i < n // 2 else "y" for i in range(n)]
        vectors = np.stack([centers[c] + 0.05 * rng.standard_normal(3) for c in cats])
        space = space_of([f"a{i}" for i in range(n)], vectors, {"attr": cats})
        ratio = homophily_ratio(space, "attr", k=10)
        assert ratio == pytest.approx(1.0 / chance_probability(space, "attr"), abs=1e-12)

    def test_random_placement_near_one(self):
        rng = np.random.default_rng(7)
        space = uniform_space(rng, 400, 16)
        assert 0.9 <= homophily_ratio(space, "attr", k=50) <= 1.1


class TestBootstrap:
    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(8)
        space = uniform_space(rng, 80, 6)
        a = bootstrap_homophily(space, "attr", k=10, iterations=30, seed=4)
        b = bootstrap_homophily(space, "attr", k=10, iterations=30, seed=4)
        assert a == b

    def test_single_iteration_zero_std(self):
        rng = np.random.default_rng(9)
        space = uniform_space(rng, 60, 4)
        row = bootstrap_homophily(space, "attr", k=8, iterations=1, seed=2)
        assert row.observed_std == 0.0
        assert row.ratio_std == 0.0

    def test_null_ratio_within_two_stds(self):
        rng = np.random.default_rng(10)
        space = uniform_space(rng, 200, 12)
        row = bootstrap_homophily(space, "attr", k=30, iterations=200, seed=5)
        assert abs(row.ratio_mean - 1.0) <= 2 * row.ratio_std + 0.02

    def test_shuffled_categories_concentrate_at_one(self):
        # clustered vectors, but labels shuffled independently of geometry
        rng = np.random.default_rng(11)
        n = 200
        cats = rng.permutation(["x", "y"] * (n // 2)).tolist()
        centers = np.where(rng.random(n) < 0.5, 5.0, -5.0)
        vectors = centers[:, None] + 0.1 * rng.standard_normal((n, 4))
        space = space_of([f"a{i:03d}" for i in range(n)], vectors, {"attr": cats})
        row = bootstrap_homophily(space, "attr", k=30, iterations=100, seed=6)
        assert 0.9 <= row.ratio_mean <= 1.1

    def test_mean_stabilizes_with_more_iterations(self):
        # the bootstrap mean's dispersion across re-runs shrinks as
        # iterations grow; compare re-run spread at 40 vs 400
        rng = np.random.default_rng(12)
        space = uniform_space(rng, 100, 5)
        small = [bootstrap_homophily(space, "attr", 10, 40, seed=s).ratio_mean for s in range(5)]
        large = [bootstrap_homophily(space, "attr", 10, 400, seed=s).ratio_mean for s in range(5)]
        assert np.std(large) < np.std(small)

    def test_chance_recomputed_per_resample(self):
        # a 50/50 pool: resampled chance must fluctuate above 0.5, never below
        rng = np.random.default_rng(13)
        space = uniform_space(rng, 100, 4)
        row = bootstrap_homophily(space, "attr", k=10, iterations=50, seed=7)
        assert row.chance_mean >= 0.5
        assert row.chance_std > 0.0


@st.composite
def vectors_and_ids(draw, n):
    """Repeated, integer-grid or float vectors for `n` annotators, and ids that may repeat."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["repeated", "grid", "float"]))
    if kind == "repeated":
        count = draw(st.integers(1, 5))
        vectors = rng.standard_normal((count, dim))[rng.integers(0, count, size=n)]
    elif kind == "grid":
        vectors = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    else:
        vectors = rng.standard_normal((n, dim))
    # halving the id pool gives repeated ids, ordered by row among themselves
    id_pool = draw(st.sampled_from([n, max(1, n // 2)]))
    return vectors, [f"a{j % id_pool:02d}" for j in rng.permutation(n)], rng


@st.composite
def bootstrap_cases(draw):
    n = draw(st.integers(4, 40))
    vectors, ids, rng = draw(vectors_and_ids(n))
    names = [f"attr{t}" for t in range(draw(st.integers(1, 3)))]
    attributes = {a: [f"c{c}" for c in rng.integers(0, draw(st.integers(1, 4)), size=n)] for a in names}
    return (
        space_of(ids, vectors, attributes),
        draw(st.integers(1, max(1, n // 3))),
        draw(st.integers(1, 8)),
        draw(st.integers(0, 1000)),
        draw(st.lists(st.sampled_from(names), min_size=1, unique=True)),
    )


@settings(max_examples=150, deadline=None)
@given(bootstrap_cases(), st.integers(1, 3), st.one_of(st.just(homophily.DEPTH_PER_K), st.floats(0.0, 40.0)))
def test_table_matches_per_draw_reference(case, block, depth_per_k):
    # blocks of at most 3 rows split every space (n >= 4) across several,
    # so the block offsets in ordering and filtering are compared exactly;
    # lists from 1 entry deep up to all n make draws run short and rescan
    space, k, iterations, seed, attributes = case
    with mock.patch.object(homophily, "ORDER_BLOCK", block), mock.patch.object(homophily, "DEPTH_PER_K", depth_per_k):
        try:
            expected = reference_homophily_table(space, k, iterations, seed, attributes)
        except DataError:
            with pytest.raises(DataError):
                homophily_table(space, k, iterations, seed, attributes)
            return
        assert homophily_table(space, k, iterations, seed, attributes) == expected


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_lists_are_the_first_columns_of_the_full_order(data, block):
    n = data.draw(st.integers(1, 40))
    vectors, ids, _ = data.draw(vectors_and_ids(n))
    depth = data.draw(st.integers(1, n))
    with mock.patch.object(homophily, "ORDER_BLOCK", block):
        lists = homophily._neighbor_order(vectors, ids, depth)
        full, row_of = full_neighbor_order(vectors, ids)
    assert lists.row_of.tolist() == row_of.tolist()
    assert lists.order.tolist() == full[:, :depth].tolist()


class TestRepSpace:
    def test_codes_are_schema_category_indices(self):
        profiles = profiles_of({"a": {"g": "y"}, "b": {"g": "x", "h": "z"}, "c": {"g": "q"}})
        schema = build_schema(profiles.select(["a", "b"]))
        reps = VectorTable(["c", "a", "b"], np.eye(3))
        space = RepSpace.from_representations(reps, profiles, schema)
        assert space.annotator_ids == ["c", "a", "b"]
        assert space.attributes == ["g", "h"]
        # c's "q" is outside the schema and a declined h: both count as MISSING, the last index
        assert space.codes.tolist() == [[2, 1], [1, 1], [0, 0]]

    def test_unprofiled_representation_row_names_the_annotator(self):
        profiles = profiles_of({"a": {"g": "x"}, "b": {"g": "y"}})
        reps = VectorTable(["a", "ghost", "b"], np.eye(3))
        with pytest.raises(DataError, match="no profile for annotators: \\['ghost'\\]"):
            RepSpace.from_representations(reps, profiles, build_schema(profiles))

    @pytest.mark.parametrize("codes", [np.zeros((3, 2)), np.zeros((2, 1)), -np.ones((3, 1))],
                             ids=["extra-column", "missing-row", "negative"])
    def test_codes_must_be_one_index_per_annotator_and_attribute(self, codes):
        with pytest.raises(DataError, match="codes"):
            RepSpace(["a", "b", "c"], np.eye(3), ["g"], codes.astype(int))


class TestRepresentationIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        reps = VectorTable([f"a{i}" for i in range(9)], rng.standard_normal((9, 7)))
        path = tmp_path / "reps.csv"
        save_vector_csv(reps, str(path), "annotator_id")
        again = load_representations(str(path))
        assert again.keys == reps.keys
        assert again.matrix.tobytes() == reps.matrix.tobytes()

    def test_reads_the_benchmark_generator_files(self, tmp_path, monkeypatch):
        # perfbench/gen.py writes the homophily-2k inputs itself; they must stay readable by the package
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        gen = importlib.import_module("gen")
        reps_path, profiles_path = gen.write_homophily_inputs(str(tmp_path), seed=1)
        reps = load_representations(reps_path)
        profiles = load_profiles(profiles_path)
        assert len(reps) == gen.ANNOTATORS and reps.dimension == gen.DIM
        assert profiles.annotators == reps.keys
        space = RepSpace.from_representations(reps, profiles, build_schema(profiles))
        assert sorted(space.attributes) == sorted(gen.ATTRIBUTES)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,d0\na,1\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_representations(str(path))

    @pytest.mark.parametrize("rows", ["a,1,2\nb,abc,3\n", "a,1,2\na,3,4\n", "a,1,2\nb,3\n"],
                             ids=["non-numeric", "duplicate-id", "short-row"])
    def test_bad_row_is_a_data_error_naming_it(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("annotator_id,d0,d1\n" + rows, encoding="utf-8")
        with pytest.raises(DataError, match="row 3"):
            load_representations(str(path))
