import json

import numpy as np
import pytest

from sociolens import corpus, synth, trainer
from sociolens.corpus import SplitPair, split_by_text
from sociolens.errors import ConfigError, DataError
from sociolens.features import EmbeddingTable
from sociolens.trainer import RunConfig, predict, run_ablation, train_one, train_suite

VARIANTS = ("simple", "multitask", "socio_multihot", "socio_embedding", "socio_contrastive")


def make_world(signal_shift=2.5, texts=40, annotators=24, per_text=4, seed=3):
    spec = synth.PopulationSpec(
        annotator_count=annotators,
        attributes=(
            synth.AttributeSpec("group", ("a", "b"), (0.5, 0.5)),
            synth.AttributeSpec("extra", ("x", "y", "z"), (1 / 3,) * 3),
        ),
        signal={("group", "a"): signal_shift, ("group", "b"): -signal_shift} if signal_shift else {},
        text_count=texts,
        annotations_per_text=per_text,
        embedding_dim=8,
        embedding_noise=0.1,
        seed=seed,
    )
    population = synth.generate_population(spec)
    corp = synth.generate_corpus(spec)
    dataset = synth.generate_annotations(population, corp, spec)
    split = split_by_text(dataset, 0.7, seed=11)
    socio_table = synth.generate_socio_embeddings(population, 6, seed=seed)
    return split, corp.embeddings, socio_table


def tiny_config(variant, seeds=(0,), **kw):
    defaults = dict(hidden_dims=(16, 8), projection_dims=(4, 6), epochs=3, batch_size=8)
    defaults.update(kw)
    return RunConfig(variant=variant, seeds=seeds, **defaults)


class TestTrainOne:
    def test_simple_uses_one_sample_per_text(self):
        split, table, _ = make_world()
        n_texts = split.train.stats.unique_texts
        config = tiny_config("simple", batch_size=32)
        run = train_one(config, 0, split, table)
        per_epoch = [row for row in run.log_rows if row["epoch"] == 0]
        # with batch 32 > text count, one step per epoch covering every text once
        assert len(per_epoch) == int(np.ceil(n_texts / 32))
        assert len(run.log_rows) == config.epochs * len(per_epoch)

    def test_simple_three_text_toy_set(self):
        rng = np.random.default_rng(0)
        records = [
            corpus.AnnotationRecord(t, a, s, label=s)
            for t, a, s in [
                ("t1", "a1", 1), ("t1", "a2", 1), ("t1", "a3", 0),
                ("t2", "a1", 0), ("t2", "a2", 0),
                ("t3", "a2", 1), ("t3", "a3", 1),
            ]
        ]
        table = EmbeddingTable(4, {t: rng.standard_normal(4) for t in ("t1", "t2", "t3", "t9")})
        split = SplitPair(
            train=corpus.Dataset(records=records),
            test=corpus.Dataset(records=[corpus.AnnotationRecord("t9", "a1", 1, label=1)]),
            seed=0,
            train_fraction=0.75,
        )
        config = tiny_config("simple", batch_size=32)
        run = train_one(config, 0, split, table)
        assert len(run.log_rows) == config.epochs  # 3 samples fit one batch per epoch
        from sociolens.batcher import plan_epoch
        from sociolens.trainer import _majority_dataset

        plan = plan_epoch(_majority_dataset(split.train), 32, 0)
        assert sum(len(b) for b in plan.batches) == 3  # one sample per unique text

    def test_step_count_matches_plan(self):
        split, table, _ = make_world()
        n = split.train.stats.records
        config = tiny_config("socio_multihot", batch_size=8, epochs=3)
        run = train_one(config, 0, split, table)
        assert len(run.log_rows) == int(np.ceil(n / 8)) * 3

    def test_deterministic_checkpoints(self, tmp_path):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive")
        a = train_one(config, 0, split, table, out_dir=str(tmp_path / "a"))
        b = train_one(config, 0, split, table, out_dir=str(tmp_path / "b"))
        for name in a.params.tensors:
            assert a.params.tensors[name].tobytes() == b.params.tensors[name].tobytes()
        assert a.log_rows == b.log_rows

    def test_different_seed_different_trajectory(self):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive")
        a = train_one(config, 0, split, table)
        b = train_one(config, 1, split, table)
        assert any(
            a.params.tensors[n].tobytes() != b.params.tensors[n].tobytes() for n in a.params.tensors
        )

    def test_missing_embedding_fails_before_training(self):
        split, table, _ = make_world()
        partial = EmbeddingTable(
            table.dimension,
            {k: v for k, v in table.vectors.items() if k != split.train.records[0].text_id},
        )
        with pytest.raises(DataError, match="no embedding"):
            train_one(tiny_config("simple"), 0, split, partial)

    def test_leak_check_fires_on_a_shared_text(self):
        # one train text copied into the test split; the check runs before any step
        split, table, _ = make_world()
        shared = [r for r in split.train.records if r.text_id == split.train.records[0].text_id]
        test = corpus.Dataset(records=split.test.records + shared, profiles=split.test.profiles)
        bad = SplitPair(train=split.train, test=test, seed=0, train_fraction=0.5)
        with pytest.raises(DataError, match="also in the training split"):
            train_one(tiny_config("simple"), 0, bad, table)

    def test_unbinarized_data_rejected(self):
        split, table, _ = make_world()
        stripped = corpus.Dataset(
            records=[corpus.AnnotationRecord(r.text_id, r.annotator_id, r.raw_score) for r in split.train.records],
            profiles=split.train.profiles,
        )
        bad = SplitPair(train=stripped, test=split.test, seed=0, train_fraction=0.7)
        with pytest.raises(DataError, match="binarized"):
            train_one(tiny_config("simple"), 0, bad, table)

    def test_ablation_log_reports_unweighted_terms(self):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive", contrastive_weight=0.0)
        run = train_one(config, 0, split, table)
        with_pairs = [r for r in run.log_rows if r["pos_pairs"] + r["neg_pairs"] > 0]
        assert with_pairs, "no contrastive pairs in any batch"
        for row in with_pairs:
            assert row["total"] == pytest.approx(row["classification"], abs=1e-12)
            assert row["contrastive_pos"] != 0.0 or row["contrastive_neg"] != 0.0

    def test_lambda_zero_and_one_share_first_classification_loss(self):
        split, table, _ = make_world()
        runs = {}
        for weight in (1.0, 0.0):
            config = tiny_config("socio_contrastive", contrastive_weight=weight)
            runs[weight] = train_one(config, 0, split, table)
        first_with, first_without = runs[1.0].log_rows[0], runs[0.0].log_rows[0]
        assert first_with["classification"] == first_without["classification"]
        # trajectories diverge once any batch carries pairs
        assert any(
            runs[1.0].params.tensors[n].tobytes() != runs[0.0].params.tensors[n].tobytes()
            for n in runs[1.0].params.tensors
        )


class TestPredictAndSuite:
    def test_all_variants_train_and_predict(self):
        split, table, socio_table = make_world()
        for variant in VARIANTS:
            config = tiny_config(variant)
            suite = train_suite(config, split, table, socio_table=socio_table)
            assert len(suite.reports) == 1
            report = suite.reports[0]
            assert report.n == split.test.stats.records
            assert 0.0 <= report.f1 <= 1.0

    def test_suite_one_checkpoint_per_seed(self, tmp_path):
        split, table, _ = make_world()
        config = tiny_config("socio_multihot", seeds=(0, 1, 2))
        suite = train_suite(config, split, table, out_dir=str(tmp_path))
        assert len(suite.runs) == 3
        for seed in (0, 1, 2):
            assert (tmp_path / f"seed{seed}" / "checkpoint" / "manifest.json").exists()
            assert (tmp_path / f"seed{seed}" / "log.jsonl").exists()

    def test_single_seed_zero_std(self):
        split, table, _ = make_world()
        suite = train_suite(tiny_config("simple"), split, table)
        assert suite.aggregate["f1"][1] == 0.0

    def test_rerun_identical_aggregate(self):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive", seeds=(0, 1))
        a = train_suite(config, split, table)
        b = train_suite(config, split, table)
        assert a.aggregate == b.aggregate

    def test_threads_match_sequential(self):
        split, table, _ = make_world()
        config = tiny_config("socio_multihot", seeds=(0, 1, 2))
        seq = train_suite(config, split, table, threads=1)
        par = train_suite(config, split, table, threads=3)
        assert seq.aggregate == par.aggregate

    def test_simple_scores_constant_per_text(self):
        split, table, _ = make_world()
        run = train_one(tiny_config("simple"), 0, split, table)
        probs, _, _, _ = predict(run, split.test, table)
        by_text = {}
        for r, p in zip(split.test.records, probs):
            by_text.setdefault(r.text_id, set()).add(round(float(p), 12))
        assert all(len(v) == 1 for v in by_text.values())

    def test_multitask_counts_fallback_rows(self):
        split, table, _ = make_world()
        run = train_one(tiny_config("multitask"), 0, split, table)
        train_annotators = set(split.train.annotator_ids())
        unseen = [a for a in split.test.annotator_ids() if a not in train_annotators]
        _, _, _, fallback = predict(run, split.test, table)
        expected = sum(1 for r in split.test.records if r.annotator_id in set(unseen))
        assert fallback == expected


class TestAblation:
    def test_arms_share_batch_plans(self, tmp_path):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive", seeds=(0,))
        run_ablation(config, split, table, out_dir=str(tmp_path))
        from sociolens.batcher import plan_epoch

        # both arms derive plans from (dataset, batch size, seed+epoch) only
        for epoch in range(config.epochs):
            plan = plan_epoch(split.train, config.batch_size, 0 + epoch)
            again = plan_epoch(split.train, config.batch_size, 0 + epoch)
            assert plan.batches == again.batches

    def test_ablation_result_shape(self):
        split, table, _ = make_world(texts=30)
        config = tiny_config("socio_contrastive", seeds=(0, 1))
        result = run_ablation(config, split, table)
        assert result.with_contrastive.config.contrastive_weight == 1.0
        assert result.without_contrastive.config.contrastive_weight == 0.0
        assert result.f1_delta == pytest.approx(
            result.with_contrastive.aggregate["f1"][0] - result.without_contrastive.aggregate["f1"][0]
        )

    def test_wrong_variant_rejected(self):
        split, table, _ = make_world(texts=20)
        with pytest.raises(ConfigError):
            run_ablation(tiny_config("simple"), split, table)


class TestLossTrend:
    def test_classification_loss_falls_on_separable_data(self):
        # linearly separable synthetic task; documented seeds, no retry needed
        split, table, socio_table = make_world(signal_shift=4.0, texts=60, seed=5)
        for variant in VARIANTS:
            config = tiny_config(variant, epochs=5)
            run = train_one(config, 0, split, table, socio_table if variant == "socio_embedding" else None)
            first = np.mean([r["classification"] for r in run.log_rows if r["epoch"] == 0])
            last = np.mean([r["classification"] for r in run.log_rows if r["epoch"] == config.epochs - 1])
            assert last < first, f"{variant}: {last} !< {first}"


def test_export_representations_covers_all_profiles():
    split, table, _ = make_world()
    run = train_one(tiny_config("socio_contrastive"), 0, split, table)
    all_profiles = dict(split.train.profiles)
    all_profiles.update(split.test.profiles)
    reps = trainer.export_representations(run, all_profiles)
    assert set(reps) == set(all_profiles)
    assert all(v.shape == (6,) for v in reps.values())
