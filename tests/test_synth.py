import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import profile_dicts, reference_annotations, reference_population, rows_of
from sociolens import corpus
from sociolens.errors import ConfigError
from sociolens.features import load_profiles, save_profiles
from sociolens.synth import (
    AttributeSpec,
    PopulationSpec,
    annotator_shifts,
    generate_annotations,
    generate_corpus,
    generate_population,
    generate_socio_embeddings,
)


def base_spec(**kw):
    defaults = dict(
        annotator_count=100,
        attributes=(
            AttributeSpec("gender", ("f", "m"), (0.5, 0.5)),
            AttributeSpec("age", ("young", "mid", "old"), (0.3, 0.4, 0.3)),
        ),
        signal={},
        text_count=50,
        annotations_per_text=4,
        embedding_dim=8,
        embedding_noise=0.1,
        seed=0,
    )
    defaults.update(kw)
    return PopulationSpec(**defaults)


def binomial_band(n, p, confidence=0.99):
    """Exact central band for Binomial(n, p) via the CDF."""
    probs = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    cdf = np.cumsum(probs)
    alpha = (1 - confidence) / 2
    lo = int(np.searchsorted(cdf, alpha))
    hi = int(np.searchsorted(cdf, 1 - alpha))
    return lo, hi


class TestGeneratePopulation:
    def test_counts_within_binomial_band(self):
        profiles = profile_dicts(generate_population(base_spec()))
        females = sum(1 for p in profiles.values() if p["gender"] == "f")
        lo, hi = binomial_band(100, 0.5)
        assert lo <= females <= hi

    def test_deterministic_under_seed(self):
        assert profile_dicts(generate_population(base_spec())) == profile_dicts(generate_population(base_spec()))
        assert profile_dicts(generate_population(base_spec())) != profile_dicts(generate_population(base_spec(seed=1)))

    def test_single_category_degenerate(self):
        spec = base_spec(attributes=(AttributeSpec("only", ("x",), (1.0,)),))
        profiles = profile_dicts(generate_population(spec))
        assert all(p["only"] == "x" for p in profiles.values())

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.lists(st.integers(0, 1000), min_size=1, max_size=6).filter(any), max_size=4),
        annotators=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_cell_draw(self, weights, annotators, seed):
        # zero weights, a zero last one among them, leave flat steps in the CDF
        attributes = tuple(
            AttributeSpec(f"x{j}", tuple(f"c{i}" for i in range(len(w))), tuple(x / sum(w) for x in w))
            for j, w in enumerate(weights)
        )
        spec = base_spec(annotator_count=annotators, attributes=attributes, seed=seed)
        got, want = generate_population(spec), reference_population(spec)
        assert (got.annotators, got.attributes, got.categories) == (want.annotators, want.attributes, want.categories)
        assert got.answers.tobytes() == want.answers.tobytes()

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            AttributeSpec("bad", ("a", "b"), (0.5, 0.6))


class TestGenerateCorpus:
    def test_shapes(self):
        corp = generate_corpus(base_spec())
        assert len(corp.text_ids) == 50
        assert corp.embeddings.dimension == 8
        assert len(corp.embeddings) == 50

    def test_embedding_carries_latent_linearly(self):
        corp = generate_corpus(base_spec(text_count=400))
        projections = corp.embeddings.rows(corp.text_ids) @ corp.direction
        assert np.corrcoef(projections, corp.latent)[0, 1] > 0.9

    def test_zero_noise_recovers_latent_exactly(self):
        corp = generate_corpus(base_spec(embedding_noise=0.0))
        for row, latent in zip(corp.embeddings.rows(corp.text_ids), corp.latent):
            assert row @ corp.direction == pytest.approx(latent, abs=1e-12)


class TestGenerateAnnotations:
    def test_annotations_per_text(self):
        spec = base_spec()
        ds = generate_annotations(generate_population(spec), generate_corpus(spec), spec)
        counts = {}
        for t, _, _, _ in rows_of(ds):
            counts[t] = counts.get(t, 0) + 1
        assert all(c == 4 for c in counts.values())

    def test_no_duplicate_pairs(self):
        spec = base_spec()
        ds = generate_annotations(generate_population(spec), generate_corpus(spec), spec)
        pairs = [(t, a) for t, a, _, _ in rows_of(ds)]
        assert len(pairs) == len(set(pairs))

    def test_signal_shifts_positive_rate_on_borderline_texts(self):
        spec = base_spec(
            annotator_count=200,
            text_count=600,
            annotations_per_text=6,
            signal={("gender", "f"): 3.0},
        )
        population = generate_population(spec)
        corp = generate_corpus(spec)
        ds = generate_annotations(population, corp, spec)
        z = dict(zip(corp.text_ids, corp.latent))
        borderline = [(a, label) for t, a, _, label in rows_of(ds) if abs(z[t]) < 0.2]
        answers = profile_dicts(population)
        shifted = [label for a, label in borderline if answers[a]["gender"] == "f"]
        rate = float(np.mean(shifted))
        assert rate == pytest.approx(1.0 / (1.0 + math.exp(-3.0)), abs=0.05)

    def test_zero_signal_categories_exchangeable(self):
        spec = base_spec(annotator_count=200, text_count=600, annotations_per_text=6)
        population = generate_population(spec)
        ds = generate_annotations(population, generate_corpus(spec), spec)
        answers = profile_dicts(population)
        rates = {}
        for cat in ("f", "m"):
            labels = [label for _, a, _, label in rows_of(ds) if answers[a]["gender"] == cat]
            rates[cat] = float(np.mean(labels))
        assert abs(rates["f"] - rates["m"]) < 0.04

    def test_shift_accumulates_over_categories(self):
        population = generate_population(base_spec())
        profile = next(iter(profile_dicts(population).values()))
        signal = {("gender", profile["gender"]): 1.5, ("age", profile["age"]): -0.5}
        assert annotator_shifts(population, signal)[0] == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        annotators=st.integers(1, 40),
        texts=st.integers(1, 30),
        data=st.data(),
        shift=st.floats(-40, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_text_draw(self, annotators, texts, data, shift, seed):
        # shifts up to ±40 push some odds to the flat ends of the sigmoid
        per_text = data.draw(st.integers(1, annotators))
        spec = base_spec(
            annotator_count=annotators, text_count=texts, annotations_per_text=per_text,
            signal={("gender", "f"): shift, ("age", "old"): -shift / 3}, seed=seed,
        )
        population, corp = generate_population(spec), generate_corpus(spec)
        got, want = generate_annotations(population, corp, spec), reference_annotations(population, corp, spec)
        assert (got.texts.tolist(), got.annotators.tolist()) == (want.texts.tolist(), want.annotators.tolist())
        assert got.records.tobytes() == want.records.tobytes()
        assert got.profiles.annotators == want.profiles.annotators
        assert got.profiles.answers.tobytes() == want.profiles.answers.tobytes()


class TestRoundTrip:
    def test_emitted_files_pass_loaders(self, tmp_path):
        spec = base_spec(text_count=30)
        population = generate_population(spec)
        corp = generate_corpus(spec)
        ds = generate_annotations(population, corp, spec)

        ann_path = tmp_path / "annotations.csv"
        prof_path = tmp_path / "profiles.csv"
        corpus.save_annotations(ds, str(ann_path))
        save_profiles(population, str(prof_path))

        reloaded = corpus.load_annotations(str(ann_path))
        assert rows_of(reloaded) == rows_of(ds)
        assert profile_dicts(load_profiles(str(prof_path))) == profile_dicts(population)
        assert ds.profiles.annotators == ds.annotators.tolist()


class TestSocioEmbeddings:
    def test_identical_profiles_land_near_each_other(self):
        spec = base_spec(annotator_count=60)
        population = generate_population(spec)
        table = generate_socio_embeddings(population, 12, seed=0)
        answers = profile_dicts(population)
        ids = list(answers)
        twins = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if answers[a] == answers[b]]
        assert twins, "population too small to contain twin profiles"
        a, b = twins[0]
        vec = dict(zip(table.keys, table.matrix))
        expected_gap = np.linalg.norm(vec[a] - vec[b])
        rng = np.random.default_rng(1)
        far = ids[int(rng.integers(len(ids)))]
        while answers[far] == answers[a]:
            far = ids[int(rng.integers(len(ids)))]
        assert expected_gap < np.linalg.norm(vec[a] - vec[far])

    def test_deterministic(self):
        spec = base_spec(annotator_count=20)
        population = generate_population(spec)
        t1 = generate_socio_embeddings(population, 8, seed=3)
        t2 = generate_socio_embeddings(population, 8, seed=3)
        assert t1.keys == t2.keys == population.annotators
        assert t1.matrix.tobytes() == t2.matrix.tobytes()
