import csv
import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sociolens.cli import main
from sociolens.config import load_config
from sociolens.errors import ConfigError


def base_config(out_dir: str) -> dict:
    return {
        "output_dir": out_dir,
        "verbosity": 0,
        "synth": {
            "annotator_count": 30,
            "text_count": 36,
            "annotations_per_text": 4,
            "embedding_dim": 8,
            "embedding_noise": 0.1,
            "seed": 3,
            "attributes": [
                {"name": "group", "categories": ["a", "b"], "probabilities": [0.5, 0.5]},
                {"name": "extra", "categories": ["x", "y", "z"]},
            ],
            "signal": {"group": {"a": 2.5, "b": -2.5}},
            "socio_embedding_dim": 6,
        },
        "prep": {
            "min_annotators_per_text": 1,
            "min_annotations_per_annotator": 1,
            "train_fraction": 0.7,
            "seed": 11,
        },
        "train": {
            "variant": ["simple", "socio_contrastive"],
            "seeds": [0],
            "epochs": 2,
            "batch_size": 8,
            "hidden_dims": [16, 8],
            "projection_dims": [4, 6],
            "ablation": True,
        },
        "homophily": {"k": 5, "iterations": 20, "seed": 1},
        "eval": {},
    }


def run_chain(tmp_path: Path, config: dict, commands=("synth", "prep", "train", "eval", "homophily", "report")):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    for command in commands:
        code = main([command, "--config", str(config_path)])
        assert code == 0, f"{command} exited {code}"
    return Path(config["output_dir"])


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exits_4_with_seed(self, tmp_path, capsys):
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="simple", ablation=False, lr=1e300)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("synth", "prep"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path)]) == 4
        assert "numeric error: run for seed 0 failed: non-finite" in capsys.readouterr().err


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
        config = base_config(str(tmp_path / "out"))
        config["train"]["variant"] = "simple"
        config["train"]["ablation"] = False
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("synth", "prep"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path), "--dump-plan"]) == 0
        plans = json.loads(
            (Path(config["output_dir"]) / "train" / "simple" / "seed0" / "plans.json").read_text()
        )
        assert plans["seed"] == 0
        assert len(plans["epochs"]) == config["train"]["epochs"]


TRAIN_FIELDS = (
    "variant", "train_annotations", "test_annotations", "profiles", "columns", "embeddings",
    "socio_embeddings", "lr", "batch_size", "epochs", "seeds", "hidden_dims", "projection_dims",
    "dropout_rate", "temperature", "contrastive_weight", "normalize_embeddings", "ablation", "threads",
    "dump_plan",
)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(TRAIN_FIELDS), JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3))
def test_any_train_field_value_loads_or_is_a_config_error(tmp_path, field, value):
    config = base_config(str(tmp_path / "out"))
    config["train"][field] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        load_config(str(path))
    except ConfigError:
        pass
