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
from sociolens import cli, corpus, features, trainer
from sociolens.batcher import BatchTables
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
from sociolens.model import load_checkpoint


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

    def test_eval_slices_every_variant_under_one_schema(self, tmp_path):
        # a newcomer seen only at test time holds a category no training annotator holds
        config = base_config(str(tmp_path / "out"))
        config["train"]["epochs"] = 1
        out = run_chain(tmp_path, config, commands=("synth", "prep", "train"))
        with open(out / "prep" / "test.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        moved = [i for i, row in enumerate(rows) if row[0] not in {r[0] for r in rows[1:i]}][1:3]  # two texts
        for i in moved:
            rows[i][1] = "newcomer"
        with open(out / "prep" / "test.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with open(out / "synth" / "profiles.csv", "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["newcomer", "a", "w"])
        assert main(["eval", "--config", str(tmp_path / "config.json")]) == 0
        slices = {}
        for variant in ("simple", "socio_contrastive"):
            with open(out / "eval" / variant / "groups.csv", newline="", encoding="utf-8") as fh:
                slices[variant] = {(r["attribute"], r["category"], r["n"]) for r in csv.DictReader(fh)}
        assert ("extra", "w", "2") in slices["simple"]
        assert slices["socio_contrastive"] == slices["simple"]

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
            "train/socio_contrastive/seed0/checkpoint/params.bin",
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

    # true and 1.0 compare equal to 1 but are not the integer 1
    @pytest.mark.parametrize("value", [2, True, 1.0])
    def test_verbosity_two_exits_2(self, tmp_path, capsys, value):
        config = base_config(str(tmp_path / "out"))
        config["verbosity"] = value
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
        [
            ("seed", "x"), ("seed", 1.5), ("seed", -1), ("k", True), ("iterations", False), ("attributes", []),
            ("attributes", ["group", "group"]),
        ],
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
            ("ablation", "yes"), ("dump_plan", "no"), ("seeds", [0, 0]), ("variant", ["simple", "simple"]),
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
            # one CSV column cannot hold both ids
            ("prep", "columns", {"text_id": "annotator_id", "annotator_id": "annotator_id"}),
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
        "attributes, named",
        [
            # the second entry would overwrite the first's profile column
            ([{"name": "g", "categories": ["a", "b"]}, {"name": "g", "categories": ["x", "y"]}], "'g'"),
            # "" is how a profile file writes a declined answer
            ([{"name": "g", "categories": ["", "b"]}], "'g'"),
            ([{"name": "g", "categories": ["a", "b"]}, {"name": "r", "categories": ["x", "x"]}], "'r'"),
        ],
    )
    def test_bad_synth_attributes_exit_2_naming_the_attribute(self, tmp_path, capsys, attributes, named):
        config = base_config(str(tmp_path / "out"))
        config["synth"]["attributes"], config["synth"]["signal"] = attributes, None
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "synth.attributes" in err and named in err
        assert not (tmp_path / "out" / "synth").exists()

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
            with (out / "prep" / "train.csv").open(encoding="utf-8") as f:
                first = next(csv.DictReader(f))["annotator_id"]
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
            # params.bin opens with the weights row, where layer.2.weight follows the layer 0 and 1 tensors
            shapes = json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))["tensors"]
            before = [shapes[f"layer.{i}.{part}"] for i in (0, 1) for part in ("weight", "bias")]
            weights = np.fromfile(ckpt / "params.bin", dtype="<f8")
            weights[sum(int(np.prod(shape)) for shape in before)] = np.nan
            weights.tofile(ckpt / "params.bin")

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        assert "params.bin holds non-finite values in the weights of layer.2.weight" in capsys.readouterr().err
        assert not list((tmp_path / "out" / "eval").rglob("roc_seed*.csv"))

    def test_per_tensor_checkpoint_exits_3(self, tmp_path, capsys, trained_simple):
        def edit(ckpt):
            # the layout before params.bin: one little-endian f64 file per tensor and role
            params, *_ = load_checkpoint(str(ckpt))
            for views, suffix in ((params.tensors, ""), (params.m, ".m"), (params.v, ".v")):
                for name, view in views.items():
                    view.tofile(ckpt / f"{name}{suffix}.bin")
            (ckpt / "params.bin").unlink()

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "no params.bin; checkpoints with one .bin per tensor" in err

    @pytest.mark.parametrize("rel, content", [
        ("eval/simple/metrics.json", "{not json"),
        ("train/ablation/aggregate.json", '{"aggregate": {"f1": {"mean": 0.5}}}'),
        ("eval/multitask/groups.csv", "attribute,category,n\ngroup,a,3\n"),
        ("homophily/homophily.json", '{"rows": [{"attribute": "group", "observed_std": 0.1}]}'),
    ], ids=["metrics-not-json", "aggregate-without-std", "groups-without-f1", "homophily-without-observed-mean"])
    def test_malformed_report_input_exits_3(self, tmp_path, capsys, rel, content):
        path = tmp_path / "out" / rel
        path.parent.mkdir(parents=True)
        path.write_text(content, encoding="utf-8")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(base_config(str(tmp_path / "out"))), encoding="utf-8")
        assert main(["report", "--config", str(config_path)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {path}: malformed report input: ")

    @pytest.mark.parametrize("field, code", [
        ("--config", 2), ("--config directory", 2), ("eval.annotations", 3), ("eval.profiles", 3),
        ("eval.embeddings", 3), ("homophily.representations", 3),
    ])
    def test_undecodable_or_directory_input_exits_naming_it(self, tmp_path, capsys, trained_chain, field, code):
        # nothing is written before the bad input is read, so the shared chain's tree stays as it is
        bad = tmp_path / "bad"
        bad.write_bytes(b'{"output_dir": "\xff"}\n')  # not UTF-8, read as a config or as a CSV
        command, config_path, named = "eval", bad if field == "--config" else tmp_path, bad
        if "." in field:
            config = json.loads(json.dumps(trained_chain))
            command, key = field.split(".")
            config[command][key] = str(bad)
            config_path = tmp_path / "c.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
        elif field == "--config directory":
            named = tmp_path
        assert main([command, "--config", str(config_path)]) == code
        assert str(named) in capsys.readouterr().err

    def test_unprofiled_representation_exits_3_naming_it(self, tmp_path, capsys, trained_chain):
        reps = tmp_path / "reps.csv"
        reps.write_text("annotator_id,d0,d1\na00,1.0,0.0\nghost,0.0,1.0\n", encoding="utf-8")
        config = json.loads(json.dumps(trained_chain))
        config["homophily"]["representations"] = str(reps)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["homophily", "--config", str(config_path)]) == 3
        assert capsys.readouterr().err == "data error: no profile for annotators: ['ghost']\n"

    @pytest.mark.parametrize("field", ["eval.annotations", "eval.profiles", "eval.embeddings", "homophily.representations"])
    def test_csv_field_over_the_limit_exits_3_naming_the_file(self, tmp_path, capsys, trained_chain, field):
        # the csv module refuses a field longer than 131072 characters
        big = tmp_path / "big.csv"
        big.write_text('"' + "k" * 200_000 + '",1\n', encoding="utf-8")
        config = json.loads(json.dumps(trained_chain))
        command, key = field.split(".")
        config[command][key] = str(big)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command, "--config", str(config_path)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {big}: malformed CSV: field larger than field limit")

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
MODEL_HYPERPARAMETERS = (
    "hidden_dims", "projection_dims", "dropout_rate", "temperature", "contrastive_weight", "normalize_embeddings",
)


def test_unset_hyperparameters_take_the_run_config_defaults(tmp_path, monkeypatch):
    config = base_config(str(tmp_path / "out"))
    config["train"] = {"variant": "simple"}
    run_chain(tmp_path, config, commands=("synth", "prep"))
    seen = []

    def stop(suites, split, text_table, *args, **kwargs):
        for run_cfg, _ in suites:
            seen.append((run_cfg, trainer.build_model_spec(run_cfg, split.train, BatchTables(text=text_table.matrix))))
        raise DataError("stopped before training")

    monkeypatch.setattr(trainer, "train_suites", stop)
    assert main(["train", "--config", str(tmp_path / "config.json")]) == 3
    [(run_cfg, spec)] = seen
    assert run_cfg == trainer.RunConfig(variant="simple")
    assert [getattr(spec, name) for name in MODEL_HYPERPARAMETERS] == [(512, 256), (64, 128), 0.2, 0.1, 1.0, True]
    assert [getattr(spec, name) for name in MODEL_HYPERPARAMETERS] == [
        getattr(run_cfg, name) for name in MODEL_HYPERPARAMETERS
    ]


def test_manifest_spec_keys_keep_their_order(trained_chain):
    manifest = Path(trained_chain["output_dir"]) / "train" / "simple" / "seed0" / "checkpoint" / "manifest.json"
    assert list(json.loads(manifest.read_text(encoding="utf-8"))["spec"]) == [
        "variant", "text_dim", "socio_width", "hidden_dims", "projection_dims", "dropout_rate", "temperature",
        "contrastive_weight", "annotator_count", "normalize_embeddings",
    ]


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


@pytest.fixture(scope="module")
def trained_chain(tmp_path_factory):
    """A toy chain through train, whose output tree each flag example copies."""
    tmp_path = tmp_path_factory.mktemp("flags")
    config = base_config(str(tmp_path / "out"))
    config["train"]["epochs"] = 1
    run_chain(tmp_path, config, commands=("synth", "prep", "train"))
    return config


FLAG_VALUES = {
    "--seed": st.integers(-2, 2**64) | st.text(max_size=4),
    "--variant": st.sampled_from(["all", "simple", "socio_contrastive"]) | st.text(max_size=8),
    "--lambda": st.floats() | st.text(max_size=4),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(sorted(cli.COMMANDS)),
    st.fixed_dictionaries({}, optional=FLAG_VALUES),
    st.booleans(),
)
def test_any_flag_value_exits_with_a_documented_code(tmp_path, trained_chain, command, flags, dump_plan):
    work = tmp_path / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(trained_chain["output_dir"], work / "out")
    path = work / "c.json"
    path.write_text(json.dumps(dict(trained_chain, output_dir=str(work / "out"))), encoding="utf-8")
    argv = [command, "--config", str(path), *(f"{flag}={value}" for flag, value in flags.items())]
    if dump_plan:
        argv.append("--dump-plan")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a value its type cannot parse
        code = exc.code
    assert code in (0, 2, 3, 4), argv
