import json
import multiprocessing
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    base_config,
    child_pids,
    load_checkpoint,
    make_dataset,
    rows_of,
    run_chain,
    score_checkpoints,
    sequential_train_suites,
)
from sociolens.cli import main
from sociolens import synth, trainer
from sociolens.corpus import SplitPair, attach_profiles, split_by_text
from sociolens.errors import DataError
from sociolens.features import VectorTable, load_vector_csv
from sociolens.model import read_manifest
from sociolens.trainer import RunConfig, predict, train_one, train_suite, train_suites

VARIANTS = ("simple", "multitask", "socio_multihot", "socio_embedding", "socio_contrastive")
LOG_ROW_KEYS = [
    "step", "epoch", "total", "classification", "contrastive_pos", "contrastive_neg", "pos_pairs", "neg_pairs",
]


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
        n_texts = split.train.stats["unique_texts"]
        config = tiny_config("simple", batch_size=32)
        _, log_rows = train_one(config, 0, split.train, table)
        per_epoch = [row for row in log_rows if row["epoch"] == 0]
        # with batch 32 > text count, one step per epoch covering every text once
        assert len(per_epoch) == int(np.ceil(n_texts / 32))
        assert len(log_rows) == config.epochs * len(per_epoch)

    def test_simple_three_text_toy_set(self, tmp_path):
        rng = np.random.default_rng(0)
        train = make_dataset([
            ("t1", "a1", 1), ("t1", "a2", 1), ("t1", "a3", 0),
            ("t2", "a1", 0), ("t2", "a2", 0),
            ("t3", "a2", 1), ("t3", "a3", 1),
        ])
        table = VectorTable(["t1", "t2", "t3"], rng.standard_normal((3, 4)))
        config = tiny_config("simple", batch_size=32)
        _, log_rows = train_one(config, 0, train, table, out_dir=str(tmp_path), dump_plan=True)
        assert len(log_rows) == config.epochs  # 3 samples fit one batch per epoch
        plans = json.loads((tmp_path / "seed0" / "plans.json").read_text())["epochs"]
        assert [sum(len(b) for b in p["batches"]) for p in plans] == [3] * config.epochs  # one sample per unique text

    def test_step_count_matches_plan(self):
        split, table, _ = make_world()
        n = split.train.stats["records"]
        config = tiny_config("socio_multihot", batch_size=8, epochs=3)
        _, log_rows = train_one(config, 0, split.train, table)
        assert len(log_rows) == int(np.ceil(n / 8)) * 3

    def test_deterministic_checkpoints(self, tmp_path):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive")
        a, a_log = train_one(config, 0, split.train, table, out_dir=str(tmp_path / "a"))
        b, b_log = train_one(config, 0, split.train, table, out_dir=str(tmp_path / "b"))
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()
        assert a_log == b_log
        # Adam's gradient, scratch and moment buffers go when the run ends; a suite keeps every run
        assert a.work is None and a.moments is None

    @pytest.mark.parametrize("variant", ["multitask", "socio_contrastive"])
    def test_trained_and_loaded_params_hold_only_the_flat_buffer(self, tmp_path, variant):
        # a gradient view kept on the params would keep a run's gradient, scratch and moment rows alive
        split, table, _ = make_world()
        trained, _ = train_one(tiny_config(variant), 0, split.train, table, out_dir=str(tmp_path))
        loaded, _ = load_checkpoint(str(tmp_path / "seed0" / "checkpoint"))
        for params in (trained, loaded):
            assert params.work is None and params.moments is None
            held = [value for value in vars(params).values() if isinstance(value, np.ndarray)]
            held += [a for value in vars(params).values() if isinstance(value, dict) for a in value.values()]
            assert len(held) == 1 + len(params.tensors)
            assert all(a is params.flat or a.base is params.flat for a in held)

    def test_different_seed_different_trajectory(self):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive")
        a, _ = train_one(config, 0, split.train, table)
        b, _ = train_one(config, 1, split.train, table)
        assert any(a.tensors[n].tobytes() != b.tensors[n].tobytes() for n in a.tensors)

    def test_missing_embedding_fails_before_training(self):
        split, table, _ = make_world()
        keep = [i for i, key in enumerate(table.keys) if key != split.train.texts[0]]
        partial = VectorTable([table.keys[i] for i in keep], table.matrix[keep])
        with pytest.raises(DataError, match=f"no vector for key {split.train.texts[0]!r}"):
            train_one(tiny_config("simple"), 0, split.train, partial)

    def test_missing_profile_is_a_data_error_naming_the_annotator(self):
        split, table, _ = make_world()
        first, *others = split.train.annotators.tolist()
        with pytest.raises(DataError, match=f"no profile for annotators: \\[{first!r}\\]"):
            attach_profiles(split.train, split.train.profiles.select(others))
        unprofiled = replace(split.train, profiles=None)
        with pytest.raises(DataError, match="cannot build a schema without profiles"):
            train_one(tiny_config("socio_multihot"), 0, unprofiled, table)

    def test_ablation_log_reports_unweighted_terms(self):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive", contrastive_weight=0.0)
        _, log_rows = train_one(config, 0, split.train, table)
        with_pairs = [r for r in log_rows if r["pos_pairs"] + r["neg_pairs"] > 0]
        assert with_pairs, "no contrastive pairs in any batch"
        for row in with_pairs:
            assert row["total"] == pytest.approx(row["classification"], abs=1e-12)
            assert row["contrastive_pos"] != 0.0 or row["contrastive_neg"] != 0.0

    def test_log_row_without_contrastive_path(self):
        split, table, _ = make_world()
        _, log_rows = train_one(tiny_config("simple"), 0, split.train, table)
        for step, row in enumerate(log_rows, 1):
            assert list(row) == LOG_ROW_KEYS
            assert [type(value) for value in row.values()] == [int, int, float, float, float, float, int, int]
            assert (row["step"], row["total"]) == (step, row["classification"])
            assert [row[key] for key in LOG_ROW_KEYS[4:]] == [0.0, 0.0, 0, 0]

    @pytest.mark.parametrize("weight", [0.5, 0.0])
    def test_log_row_of_a_contrastive_run(self, weight):
        split, table, _ = make_world()
        _, log_rows = train_one(tiny_config("socio_contrastive", contrastive_weight=weight), 0, split.train, table)
        assert any(row["pos_pairs"] + row["neg_pairs"] > 0 for row in log_rows), "no contrastive pairs in any batch"
        for step, row in enumerate(log_rows, 1):
            assert list(row) == LOG_ROW_KEYS
            assert [type(value) for value in row.values()] == [int, int, float, float, float, float, int, int]
            assert row["step"] == step
            assert row["total"] == row["classification"] + weight * (row["contrastive_pos"] + row["contrastive_neg"])
            if weight == 0.0:
                assert row["total"] == row["classification"]
            if row["pos_pairs"] + row["neg_pairs"] > 0:
                # logged unweighted, also where the weight is 0
                assert row["contrastive_pos"] != 0.0 or row["contrastive_neg"] != 0.0

    def test_non_finite_total_exits_4(self, tmp_path, capsys):
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="socio_contrastive", epochs=1, ablation=False)
        run_chain(tmp_path, config, commands=("synth", "prep"))
        assert main(["train", "--config", str(tmp_path / "config.json"), "--lambda", "1e308"]) == 4
        assert "non-finite combined loss" in capsys.readouterr().err

    def test_lambda_zero_and_one_share_first_classification_loss(self):
        split, table, _ = make_world()
        runs = {}
        for weight in (1.0, 0.0):
            config = tiny_config("socio_contrastive", contrastive_weight=weight)
            runs[weight] = train_one(config, 0, split.train, table)
        (with_params, with_log), (without_params, without_log) = runs[1.0], runs[0.0]
        assert with_log[0]["classification"] == without_log[0]["classification"]
        # trajectories diverge once any batch carries pairs
        assert any(with_params.tensors[n].tobytes() != without_params.tensors[n].tobytes() for n in with_params.tensors)


class TestPredictAndSuite:
    def test_all_variants_train_and_predict(self, tmp_path):
        split, table, socio_table = make_world()
        train_suites([(tiny_config(v), str(tmp_path / v)) for v in VARIANTS], split, table, socio_table)
        for variant in VARIANTS:
            reports, _ = score_checkpoints(tmp_path / variant, split.test, table, socio_table)
            assert len(reports) == 1
            report = reports[0]
            assert report.n == split.test.stats["records"]
            assert 0.0 <= report.f1 <= 1.0

    def test_suite_one_checkpoint_per_seed(self, tmp_path):
        split, table, _ = make_world()
        config = tiny_config("socio_multihot", seeds=(0, 1, 2))
        assert train_suite(config, split, table, out_dir=str(tmp_path)) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seed0", "seed1", "seed2"]
        for seed in (0, 1, 2):
            assert read_manifest(str(tmp_path / f"seed{seed}" / "checkpoint"))[1] == seed
            assert (tmp_path / f"seed{seed}" / "log.jsonl").exists()

    def test_single_seed_zero_std(self, tmp_path):
        split, table, _ = make_world()
        train_suite(tiny_config("simple"), split, table, out_dir=str(tmp_path))
        _, aggregate = score_checkpoints(tmp_path, split.test, table)
        assert aggregate["f1"][1] == 0.0

    def test_rerun_identical_aggregate(self, tmp_path):
        split, table, _ = make_world()
        config = tiny_config("socio_contrastive", seeds=(0, 1))
        train_suites([(config, str(tmp_path / "a")), (config, str(tmp_path / "b"))], split, table)
        a, b = (score_checkpoints(tmp_path / arm, split.test, table)[1] for arm in ("a", "b"))
        assert a == b

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loaded_model_scores_as_trained(self, tmp_path, variant):
        # a checkpoint keeps the whole model: weights, schema and head ids
        split, table, socio_table = make_world()
        socio = socio_table if variant == "socio_embedding" else None
        trained, _ = train_one(tiny_config(variant), 0, split.train, table, socio, out_dir=str(tmp_path))
        loaded, _ = load_checkpoint(str(tmp_path / "seed0" / "checkpoint"))
        probs = [predict(model, split.test, table, socio)[0].tobytes() for model in (trained, loaded)]
        assert probs[0] == probs[1]
        schemas = [None if model.schema is None else model.schema.to_dict() for model in (trained, loaded)]
        assert schemas[0] == schemas[1]
        assert loaded.annotators == trained.annotators

    def test_simple_scores_constant_per_text(self):
        split, table, _ = make_world()
        params, _ = train_one(tiny_config("simple"), 0, split.train, table)
        probs, _ = predict(params, split.test, table)
        by_text = {}
        for (text_id, *_), p in zip(rows_of(split.test), probs):
            by_text.setdefault(text_id, set()).add(round(float(p), 12))
        assert all(len(v) == 1 for v in by_text.values())

    def test_multitask_counts_fallback_rows(self):
        split, table, _ = make_world()
        params, _ = train_one(tiny_config("multitask"), 0, split.train, table)
        train_annotators = {a for _, a, _, _ in rows_of(split.train)}
        _, fallback = predict(params, split.test, table)
        expected = sum(1 for _, a, _, _ in rows_of(split.test) if a not in train_annotators)
        assert fallback == expected


class TestAblation:
    """The ablation arm as the CLI trains it: its own suite under train/ablation."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("ablation")
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="socio_contrastive", seeds=[0, 1], dump_plan=True)
        return run_chain(tmp_path, config, commands=("synth", "prep", "train")) / "train"

    def test_arms_share_batch_plans(self, trained):
        # both arms derive plans from (dataset, batch size, seed+epoch) only
        for seed in (0, 1):
            plans = [(trained / arm / f"seed{seed}" / "plans.json").read_text()
                     for arm in ("socio_contrastive", "ablation")]
            assert plans[0] == plans[1]

    def test_ablation_result_shape(self, trained):
        for arm, weight in (("socio_contrastive", 1.0), ("ablation", 0.0)):
            assert sorted(p.name for p in (trained / arm).iterdir()) == ["seed0", "seed1"]
            for seed in (0, 1):
                params, manifest_seed = read_manifest(str(trained / arm / f"seed{seed}" / "checkpoint"))
                assert (params.spec.variant, params.spec.contrastive_weight) == ("socio_contrastive", weight)
                assert manifest_seed == seed
        # train scores nothing: the arms' F1 and their difference come from eval's metrics
        assert not list(trained.rglob("aggregate.json")) and not (trained / "ablation_delta.json").exists()

    def test_no_arm_without_socio_contrastive(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant=["simple", "socio_multihot"], ablation=True)
        train_root = run_chain(tmp_path, config, commands=("synth", "prep", "train")) / "train"
        assert sorted(p.name for p in train_root.iterdir()) == ["simple", "socio_multihot"]


class ExitOnUnpickle:
    """Unpickles as `os._exit(1)`: a pool worker that receives it dies at start-up."""

    def __reduce__(self):
        return os._exit, (1,)


class TestWorkerPool:
    """`train` runs every (suite, seed) job in one pool and takes the results back in job order."""

    def test_pooled_tree_matches_in_process_jobs(self, tmp_path, monkeypatch):
        trees = {}
        for name in ("pooled", "in_process"):
            if name == "in_process":
                monkeypatch.setattr(trainer, "train_suites", sequential_train_suites)
            (tmp_path / name).mkdir()
            config = base_config(str(tmp_path / name / "out"))
            # seeds out of order: job order follows the config, not the sorted seeds
            config["train"].update(variant="all", ablation=True, seeds=[1, 0])
            trees[name] = run_chain(tmp_path / name, config, commands=("synth", "prep", "train")) / "train"
        files = {name: sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file()) for name, root in trees.items()}
        assert files["pooled"] == files["in_process"]
        assert len(files["pooled"]) == 6 * 2 * 3 + 2 * 2  # checkpoint files and log per run; reps of the projected runs
        for path in files["pooled"]:
            assert (trees["pooled"] / path).read_bytes() == (trees["in_process"] / path).read_bytes(), path

    @pytest.mark.parametrize("blas_threads", [None, "2"])
    def test_first_failing_job_is_named_and_no_process_outlives_the_stage(
        self, tmp_path, capsys, monkeypatch, blas_threads
    ):
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="simple", ablation=False, seeds=[3, 1])
        run_chain(tmp_path, config, commands=("synth", "prep"))
        # no worker, and no helper such as multiprocessing's resource tracker, outlives the stage
        left = ([], [], dict(os.environ))
        assert main(["train", "--config", str(tmp_path / "config.json")]) == 0
        assert (multiprocessing.active_children(), child_pids(), dict(os.environ)) == left

        config["train"]["lr"] = 1e300  # both jobs diverge
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(tmp_path / "config.json")]) == 4
        # the first job in job order, whichever job fails first
        assert re.fullmatch(r"numeric error: run for seed 3 failed: non-finite value at step \d+: .+\n",
                            capsys.readouterr().err)
        assert (multiprocessing.active_children(), child_pids(), dict(os.environ)) == left

    def test_leak_check_fires_on_a_shared_text(self, monkeypatch):
        # one train text copied into the test split; the check runs once, before any worker starts
        split, table, _ = make_world()
        shared = [row[:3] for row in rows_of(split.train) if row[0] == split.train.texts[0]]
        test = make_dataset([row[:3] for row in rows_of(split.test)] + shared)
        bad = SplitPair(train=split.train, test=test)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        for train in (train_suites, sequential_train_suites):
            with pytest.raises(DataError, match=r"^1 test text\(s\) also in the training split, e\.g\. 't"):
                train([(tiny_config("simple"), None)], bad, table)

    def test_dead_worker_is_a_data_error_naming_the_first_job(self):
        split, _, _ = make_world()
        with pytest.raises(DataError, match="run for seed 3 failed: .*terminated abruptly"):
            train_suite(tiny_config("simple", seeds=(3, 1)), split, ExitOnUnpickle())
        assert (multiprocessing.active_children(), child_pids()) == ([], [])


class TestLossTrend:
    def test_classification_loss_falls_on_separable_data(self):
        # linearly separable synthetic task; documented seeds, no retry needed
        split, table, socio_table = make_world(signal_shift=4.0, texts=60, seed=5)
        for variant in VARIANTS:
            config = tiny_config(variant, epochs=5)
            _, log_rows = train_one(config, 0, split.train, table, socio_table if variant == "socio_embedding" else None)
            first = np.mean([r["classification"] for r in log_rows if r["epoch"] == 0])
            last = np.mean([r["classification"] for r in log_rows if r["epoch"] == config.epochs - 1])
            assert last < first, f"{variant}: {last} !< {first}"


def test_export_representations_covers_all_profiles(tmp_path):
    split, table, _ = make_world()
    for name, profiles in (("train", split.train.profiles), ("test", split.test.profiles)):
        out = tmp_path / name
        train_one(tiny_config("socio_contrastive"), 0, split.train, table, out_dir=str(out), profiles=profiles)
        reps = load_vector_csv(str(out / "seed0" / "representations.csv"), "annotator_id")
        assert reps.keys == profiles.annotators
        assert reps.matrix.shape == (len(profiles), 6)
    # a variant without a projection writes none
    out = tmp_path / "multihot"
    train_one(tiny_config("socio_multihot"), 0, split.train, table, out_dir=str(out), profiles=profiles)
    assert not (out / "seed0" / "representations.csv").exists()
