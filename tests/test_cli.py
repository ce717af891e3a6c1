import csv
import json
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import base_config, run_chain
from sociolens import cli, corpus, features
from sociolens.cli import main
from sociolens.config import load_config
from sociolens.errors import (
    ConfigError,
    DataError,
    DuplicateError,
    EmptyDatasetError,
    EncodingError,
    NumericError,
    SchemaError,
    SociolensError,
)


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

    @pytest.mark.parametrize("profiles", [None, "short"])
    def test_socio_inputs_checked_before_any_suite_trains(self, tmp_path, capsys, profiles):
        out = run_chain(tmp_path, base_config(str(tmp_path / "out")), commands=("synth", "prep"))
        if profiles == "short":
            # a profiles file without one annotator of the train split
            first = next(csv.DictReader((out / "prep" / "train.csv").open(encoding="utf-8")))["annotator_id"]
            rows = (out / "synth" / "profiles.csv").read_text(encoding="utf-8").splitlines(keepends=True)
            profiles = tmp_path / "short_profiles.csv"
            profiles.write_text("".join(r for r in rows if not r.startswith(f"{first},")), encoding="utf-8")
        train = dict(base_config("")["train"], variant="all", profiles=profiles and str(profiles))
        for name, path in (("train_annotations", "prep/train.csv"), ("test_annotations", "prep/test.csv"),
                           ("embeddings", "synth/embeddings.csv"), ("socio_embeddings", "synth/socio_embeddings.csv")):
            train[name] = str(out / path)
        config_path = tmp_path / "train_only.json"
        config_path.write_text(json.dumps({"output_dir": str(out), "train": train}), encoding="utf-8")
        assert main(["train", "--config", str(config_path)]) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (out / "train").exists()

    @pytest.fixture(scope="class")
    def trained_simple(self, tmp_path_factory):
        config = base_config("")
        config["train"].update(variant="simple", ablation=False)
        root = tmp_path_factory.mktemp("trained")
        config["output_dir"] = str(root / "out")
        run_chain(root, config, commands=("synth", "prep", "train"))
        return root

    def eval_edited_checkpoint(self, tmp_path, trained, edit) -> int:
        shutil.copytree(trained / "out", tmp_path / "out")
        edit(tmp_path / "out" / "train" / "simple" / "seed0" / "checkpoint")
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="simple", ablation=False)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return main(["eval", "--config", str(path)])

    def test_checkpoint_schema_without_attributes_exits_3(self, tmp_path, capsys, trained_simple):
        def edit(ckpt):
            manifest = json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))
            manifest["schema"] = {"x": 1}
            (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        assert "malformed manifest: KeyError('attributes')" in capsys.readouterr().err

    def test_nan_weight_blob_exits_3(self, tmp_path, capsys, trained_simple):
        def edit(ckpt):
            weights = np.fromfile(ckpt / "layer.2.weight.bin", dtype="<f8")
            weights[0] = np.nan
            weights.tofile(ckpt / "layer.2.weight.bin")

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        assert "layer.2.weight.bin holds non-finite values" in capsys.readouterr().err
        assert not list((tmp_path / "out" / "eval").rglob("roc_seed*.csv"))

    @pytest.mark.parametrize("error, code, prefix", [
        (ConfigError, 2, "config error"),
        (DataError, 3, "data error"),
        (SchemaError, 3, "data error"),
        (DuplicateError, 3, "data error"),
        (EmptyDatasetError, 3, "data error"),
        (EncodingError, 3, "data error"),
        (NumericError, 4, "numeric error"),
        (SociolensError, 1, "error"),
        (FileNotFoundError, 3, "data error"),
        (PermissionError, 3, "data error"),
    ])
    def test_error_class_maps_to_its_exit_code(self, tmp_path, capsys, monkeypatch, error, code, prefix):
        def fail(cfg):
            raise error("boom")

        monkeypatch.setitem(cli.COMMANDS, "report", fail)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(base_config(str(tmp_path / "out"))), encoding="utf-8")
        assert main(["report", "--config", str(path)]) == code
        assert capsys.readouterr().err == f"{prefix}: boom\n"


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
