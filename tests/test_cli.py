import csv
import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import base_config, run_chain
from sociolens import corpus, features
from sociolens.cli import main
from sociolens.config import load_config
from sociolens.errors import ConfigError


class TestFullChain:
    def test_end_to_end(self, tmp_path):
        out = run_chain(tmp_path, base_config(str(tmp_path / "out")))
        assert (out / "synth" / "annotations.csv").exists()
        assert (out / "prep" / "train.csv").exists()
        assert (out / "prep" / "filter_report.json").exists()
        assert (out / "train" / "simple" / "aggregate.json").exists()
        assert (out / "train" / "socio_contrastive" / "seed0" / "checkpoint" / "manifest.json").exists()
        assert (out / "train" / "ablation" / "aggregate.json").exists()
        assert (out / "train" / "ablation_delta.json").exists()
        assert (out / "train" / "socio_contrastive" / "seed0" / "representations.csv").exists()
        assert (out / "eval" / "simple" / "metrics.json").exists()
        assert (out / "eval" / "socio_contrastive" / "metrics.csv").exists()
        assert (out / "eval" / "socio_contrastive" / "groups.csv").exists()
        assert (out / "homophily" / "homophily.csv").exists()
        assert (out / "report" / "report.md").exists()
        assert (out / "report" / "summary.csv").exists()

    def test_filter_report_keys_exact(self, tmp_path):
        out = run_chain(tmp_path, base_config(str(tmp_path / "out")), commands=("synth", "prep"))
        report = json.loads((out / "prep" / "filter_report.json").read_text())
        assert list(report) == ["removed_annotators", "removed_texts", "removed_records", "retained_records"]

    def test_split_files_disjoint_and_mapped_columns(self, tmp_path):
        out = run_chain(tmp_path, base_config(str(tmp_path / "out")), commands=("synth", "prep"))
        with open(out / "prep" / "train.csv", newline="") as fh:
            train_rows = list(csv.DictReader(fh))
        with open(out / "prep" / "test.csv", newline="") as fh:
            test_rows = list(csv.DictReader(fh))
        assert set(train_rows[0]) == {"text_id", "annotator_id", "score"}
        assert not ({r["text_id"] for r in train_rows} & {r["text_id"] for r in test_rows})

    def test_report_mentions_models_and_homophily(self, tmp_path):
        out = run_chain(tmp_path, base_config(str(tmp_path / "out")))
        text = (out / "report" / "report.md").read_text()
        assert "| simple |" in text
        assert "| socio_contrastive |" in text
        assert "F1 gain from the contrastive term" in text
        assert "| group |" in text

    def test_report_with_gaps_exits_zero(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["report", "--config", str(config_path)]) == 0
        text = (tmp_path / "out" / "report" / "report.md").read_text()
        assert "Gaps" in text


class TestDeterminism:
    def test_two_chains_byte_identical(self, tmp_path):
        config_a = base_config(str(tmp_path / "a"))
        config_b = base_config(str(tmp_path / "b"))
        (tmp_path / "ca").mkdir()
        (tmp_path / "cb").mkdir()
        out_a = run_chain(tmp_path / "ca", config_a, commands=("synth", "prep", "train"))
        out_b = run_chain(tmp_path / "cb", config_b, commands=("synth", "prep", "train"))
        for rel in (
            "synth/annotations.csv",
            "prep/train.csv",
            "train/socio_contrastive/seed0/checkpoint/layer.0.weight.bin",
            "train/socio_contrastive/seed0/log.jsonl",
            "train/socio_contrastive/aggregate.json",
        ):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


class TestErrors:
    def test_unknown_config_key_exits_2(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        config["surprise"] = True
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 2

    def test_unknown_nested_key_exits_2(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        config["train"]["learning_rate_typo"] = 0.1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 2

    def test_verbosity_two_exits_2(self, tmp_path, capsys):
        config = base_config(str(tmp_path / "out"))
        config["verbosity"] = 2
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 2
        assert "verbosity" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["prep", "--config", str(tmp_path / "nope.json")]) == 2

    def test_missing_data_file_exits_3(self, tmp_path):
        config = {
            "output_dir": str(tmp_path / "out"),
            "prep": {"annotations": str(tmp_path / "missing.csv"), "seed": 0},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["prep", "--config", str(path)])
        assert code == 3

    def test_command_without_section_exits_2(self, tmp_path):
        config = {"output_dir": str(tmp_path / "out")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["homophily", "--config", str(path)]) == 2

    def test_nonfinite_embedding_exits_4(self, tmp_path):
        ann = tmp_path / "ann.csv"
        ann.write_text("text_id,annotator_id,score\nt1,a1,1\nt2,a1,0\n", encoding="utf-8")
        emb = tmp_path / "emb.csv"
        emb.write_text("key,d0,d1\nt1,1.0,nan\nt2,0.0,1.0\n", encoding="utf-8")
        config = {
            "output_dir": str(tmp_path / "out"),
            "train": {
                "variant": "simple",
                "train_annotations": str(ann),
                "test_annotations": str(ann),
                "embeddings": str(emb),
                "seeds": [0],
                "epochs": 1,
            },
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 4


    @pytest.mark.parametrize(
        "field, value",
        [("seed", "x"), ("seed", 1.5), ("seed", -1), ("k", True), ("iterations", False), ("attributes", [])],
    )
    def test_bad_homophily_field_exits_2(self, tmp_path, capsys, field, value):
        config = base_config(str(tmp_path / "out"))
        config["homophily"][field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["homophily", "--config", str(path)]) == 2
        assert f"homophily.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", "7"), ("epochs", 2.5), ("dropout_rate", "x"), ("variant", []),
            ("lr", True), ("lr", "0.1"), ("contrastive_weight", "1"), ("seeds", [True]), ("seeds", [-1]),
            ("hidden_dims", [True, 2]), ("threads", True), ("normalize_embeddings", "no"),
            ("ablation", "yes"), ("dump_plan", "no"),
        ],
    )
    def test_bad_train_field_exits_2(self, tmp_path, capsys, field, value):
        # no synth or prep has run: the field must be refused before any data loads
        config = base_config(str(tmp_path / "out"))
        config["train"][field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert f"train.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("synth", "text_count", "5"), ("synth", "embedding_noise", "x"), ("synth", "seed", -1),
            ("synth", "seed", True), ("synth", "annotator_count", 2.0), ("synth", "socio_embedding_dim", 0),
            ("synth", "attributes", [{"name": "g", "categories": []}]), ("synth", "attributes", ["g"]),
            ("synth", "signal", {"group": {"a": "2.5"}}), ("synth", "signal", {"group": {"c": 1.0}}),
            ("synth", "signal", []), ("synth", "annotations_per_text", 31),
            ("prep", "seed", True), ("prep", "min_annotators_per_text", True),
            ("prep", "min_annotations_per_annotator", True), ("prep", "train_fraction", True),
            # an integer path would open that file descriptor
            ("prep", "annotations", 5),
        ],
    )
    def test_bad_synth_or_prep_field_exits_2(self, tmp_path, capsys, section, field, value):
        config = base_config(str(tmp_path / "out"))
        config[section][field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([section, "--config", str(path)]) == 2
        assert f"{section}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value, field",
        [
            ("train", "--lambda", "nan", "train.contrastive_weight"),
            ("train", "--lambda", "inf", "train.contrastive_weight"),
            ("train", "--lambda", "-1", "train.contrastive_weight"),
            ("train", "--variant", "nope", "train.variant"),
            ("synth", "--seed", "-1", "synth.seed"),
            ("train", "--seed", "-1", "train.seeds"),
            # train is validated before homophily, and --seed also sets train.seeds for it
            ("homophily", "--seed", "-1", "train.seeds"),
        ],
    )
    def test_bad_flag_exits_2_naming_field_and_flag(self, tmp_path, capsys, command, flag, value, field):
        # no synth or prep has run: the flag must be refused with the field it sets
        path = tmp_path / "c.json"
        path.write_text(json.dumps(base_config(str(tmp_path / "out"))), encoding="utf-8")
        assert main([command, "--config", str(path), flag, value]) == 2
        err = capsys.readouterr().err
        assert field in err and f"(with {flag} " in err

    def test_empty_checkpoint_manifest_exits_3(self, tmp_path, capsys):
        config = base_config(str(tmp_path / "out"))
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_text("{}", encoding="utf-8")
        config["eval"]["checkpoints"] = str(ckpt)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 0
        assert main(["eval", "--config", str(path)]) == 3
        assert "malformed manifest" in capsys.readouterr().err

    def test_non_numeric_seed_directory_exits_3(self, tmp_path, capsys):
        config = base_config(str(tmp_path / "out"))
        ckpt = tmp_path / "ckpts" / "simple" / "seedx" / "checkpoint"
        ckpt.mkdir(parents=True)
        (ckpt / "manifest.json").write_text("{}", encoding="utf-8")
        config["eval"]["checkpoints"] = str(tmp_path / "ckpts")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 0
        assert main(["eval", "--config", str(path)]) == 3
        assert "seedx is not named seed<N>" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train", "homophily"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(base_config(str(tmp_path / "out"))), encoding="utf-8")
        assert main([command, "--config", str(path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_prep_accepts_negative_seed_flag(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(base_config(str(tmp_path / "out"))), encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 0
        assert main(["prep", "--config", str(path), "--seed", "-1"]) == 0

    def test_divergent_training_exits_4_with_seed(self, tmp_path, capsys):
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="simple", ablation=False, lr=1e300)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("synth", "prep"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        # the first overflow stops the run: one line, no numpy warnings ahead of it
        assert re.fullmatch(r"numeric error: run for seed 0 failed: non-finite value at step \d+: .+\n", err)


class TestOverrides:
    def test_variant_override_trains_one(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("synth", "prep"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path), "--variant", "simple"]) == 0
        out = Path(config["output_dir"])
        assert (out / "train" / "simple" / "aggregate.json").exists()
        assert not (out / "train" / "socio_contrastive").exists()

    def test_lambda_override_recorded(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        config["train"]["variant"] = "socio_contrastive"
        config["train"]["ablation"] = False
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("synth", "prep"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path), "--lambda", "0.25"]) == 0
        agg = json.loads((Path(config["output_dir"]) / "train" / "socio_contrastive" / "aggregate.json").read_text())
        assert agg["contrastive_weight"] == 0.25

    def test_dump_plan_writes_plans(self, tmp_path):
        # every suite dumps its plans, the ablation arm included, and both arms share them
        config = base_config(str(tmp_path / "out"))
        config["train"]["seeds"] = [0, 1]
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("synth", "prep"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path), "--dump-plan"]) == 0
        train_root = Path(config["output_dir"]) / "train"
        for seed in (0, 1):
            plans = {
                suite: json.loads((train_root / suite / f"seed{seed}" / "plans.json").read_text())
                for suite in ("simple", "socio_contrastive", "ablation")
            }
            for suite_plans in plans.values():
                assert suite_plans["seed"] == seed
                assert len(suite_plans["epochs"]) == config["train"]["epochs"]
            assert plans["socio_contrastive"] == plans["ablation"]

    def test_each_input_read_once_per_command(self, tmp_path, monkeypatch):
        config = base_config(str(tmp_path / "out"))
        config["train"]["variant"] = "all"
        run_chain(tmp_path, config, commands=("synth", "prep"))
        calls = Counter()
        for module, name in ((corpus, "load_annotations"), (features, "load_profiles")):
            def counted(*args, _load=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _load(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # train: the train and test CSVs and one profile file; eval: the test CSV and one profile file
        for command, expected in (("train", (2, 1)), ("eval", (1, 1))):
            calls.clear()
            assert main([command, "--config", str(tmp_path / "config.json")]) == 0
            assert (calls["load_annotations"], calls["load_profiles"]) == expected, command


SECTION_FIELDS = {
    "synth": (
        "annotator_count", "text_count", "annotations_per_text", "embedding_dim", "embedding_noise", "seed",
        "attributes", "signal", "socio_embedding_dim",
    ),
    "prep": (
        "annotations", "profiles", "columns", "min_annotators_per_text", "min_annotations_per_annotator",
        "train_fraction", "seed",
    ),
    "train": (
        "variant", "train_annotations", "test_annotations", "profiles", "columns", "embeddings",
        "socio_embeddings", "lr", "batch_size", "epochs", "seeds", "hidden_dims", "projection_dims",
        "dropout_rate", "temperature", "contrastive_weight", "normalize_embeddings", "ablation", "threads",
        "dump_plan",
    ),
    "homophily": ("representations", "profiles", "k", "iterations", "seed", "metric", "attributes"),
}
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([(section, field) for section, fields in SECTION_FIELDS.items() for field in fields]),
    JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3),
)
def test_any_train_field_value_loads_or_is_a_config_error(tmp_path, section_field, value):
    section, field = section_field
    config = base_config(str(tmp_path / "out"))
    config[section][field] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        load_config(str(path))
    except ConfigError:
        pass
