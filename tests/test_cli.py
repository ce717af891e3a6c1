import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import base_config, profiles_of, reference_discover_checkpoints, run_chain, sequential_train_suites
from sociolens import cli, corpus, features, metrics, model, trainer
from sociolens.batcher import BatchTables
from sociolens.cli import main
from sociolens.config import load_config
from sociolens.errors import ConfigError, DataError, NumericError, SociolensError


class TestFullChain:
    def test_end_to_end(self, tmp_path):
        out = run_chain(tmp_path, base_config(str(tmp_path / "out")))
        assert (out / "synth" / "annotations.csv").exists()
        assert (out / "prep" / "train.csv").exists()
        assert (out / "prep" / "filter_report.json").exists()
        for suite in ("simple", "socio_contrastive", "ablation"):
            assert (out / "train" / suite / "seed0" / "checkpoint" / "manifest.json").exists()
        # train scores nothing; eval does
        assert not list((out / "train").rglob("aggregate.json"))
        assert not (out / "train" / "ablation_delta.json").exists()
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

    def test_report_without_eval_lists_every_trained_variant_as_a_gap(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        out = run_chain(tmp_path, config, commands=("synth", "prep", "train", "report"))
        text = (out / "report" / "report.md").read_text(encoding="utf-8")
        gaps = text[text.index("## Gaps"):]
        for variant in ("simple", "socio_contrastive", "ablation"):
            assert (out / "train" / variant).is_dir()
            assert f"- no metrics for variant {variant!r}" in gaps
        assert "_no model metrics found_" in text and "| Model |" not in text
        assert "F1 gain from the contrastive term" not in text
        with open(out / "report" / "summary.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.reader(fh))) == 1  # the header only

    def test_report_with_gaps_exits_zero(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["report", "--config", str(config_path)]) == 0
        text = (tmp_path / "out" / "report" / "report.md").read_text()
        assert "Gaps" in text


def test_groups_csv_averages_each_key_over_seeds(tmp_path):
    # category c has no test records, so no row; MISSING (p3 declined) holds one class, so no AUC
    schema = features.SocioSchema([("g", ["a", "b", "c", features.MISSING])])
    profiles = profiles_of({"p1": {"g": "a"}, "p2": {"g": "b"}, "p3": {"g": ""}})
    codes, labels = np.array([0, 0, 0, 1, 1, 2]), np.array([1, 0, 0, 1, 0, 1])
    tables = [metrics.group_breakdown(np.array(probs), labels, schema.encode(profiles)[codes], schema)
              for probs in ([0.9, 0.2, 0.1, 0.7, 0.6, 0.4], [0.3, 0.1, 0.05, 0.8, 0.9, 0.6])]
    cli._write_groups_csv(str(tmp_path / "groups.csv"), tables)
    assert (tmp_path / "groups.csv").read_bytes() == (
        "attribute,category,n,precision,recall,f1,auc\r\n"
        "g,a,3,0.5,0.5,0.5,1.0\r\n"
        "g,b,2,0.5,1.0,0.6666666666666666,0.5\r\n"
        f"g,{features.MISSING},1,0.5,0.5,0.5,\r\n"
    ).encode("utf-8")


# a run named seedx or seed is a DataError: each is drawn a fifth as often as a good name
RUN_NAMES = st.sampled_from(["seed0", "seed1", "seed2", "seed10", "seed01", "other"] * 5 + ["seedx", "seed"])
SUITE_NAMES = st.sampled_from(["simple", "ablation", ".hidden", "sc[1]", "seed9", "x", "x-y"])


@st.composite
def run_entries(draw, prefix: str, checkpoints: bool) -> dict[str, str | None]:
    """Entries under `prefix` named like runs: with a readable or a "bad" manifest if `checkpoints`, else a bare
    directory (None) or a file. A bad manifest is drawn rarely, so that most trees are read to the end."""
    kinds = ["run"] * 8 + ["bad", "bare", "file"] if checkpoints else ["bare", "file"]
    entries = {}
    for name, kind in draw(st.dictionaries(RUN_NAMES, st.sampled_from(kinds), max_size=4)).items():
        if kind in ("run", "bad"):
            entries[f"{prefix}{name}/checkpoint/manifest.json"] = "{}" if kind == "run" else "bad"
        else:
            entries[prefix + name] = None if kind == "bare" else ""
    return entries


@st.composite
def checkpoint_trees(draw) -> dict[str, str | None]:
    """A checkpoint root as {relative path: file text, or None for a directory}, in one of the three layouts.

    Runs directly under the root come only with suite directories that hold no
    checkpoint, so no tree is both a suite directory and a train root.
    """
    layout = draw(st.sampled_from(["train root", "suite directory", "checkpoint"]))
    tree = draw(run_entries("", checkpoints=layout == "suite directory"))
    for suite in draw(st.lists(SUITE_NAMES, unique=True, min_size=int(layout == "train root"), max_size=4)):
        tree[suite] = None
        tree.update(draw(run_entries(f"{suite}/", checkpoints=layout != "suite directory")))
    if layout == "checkpoint":
        tree["manifest.json"] = draw(st.sampled_from(["{}", "bad"]))
    return tree


def stub_read_manifest(reads: list[str]):
    """A `read_manifest` that logs each directory read: a "bad" manifest is a DataError, any other a model named by
    its directory, seed 7."""
    def read(directory):
        reads.append(directory)
        if Path(directory, "manifest.json").read_text(encoding="utf-8") == "bad":
            raise DataError(f"{directory}: malformed manifest")
        return SimpleNamespace(spec=SimpleNamespace(variant="direct"), directory=directory), 7
    return read


def discover_with_stub(discover, root: str):
    """`discover(root)`, or its DataError's message, with the directories `read_manifest` read, in read order."""
    reads: list[str] = []
    read = stub_read_manifest(reads)
    with mock.patch.object(cli, "read_manifest", read), mock.patch.object(model, "read_manifest", read):
        try:
            return discover(root), reads
        except DataError as exc:
            return str(exc), reads


@settings(max_examples=300, deadline=None)
@given(checkpoint_trees(), st.sampled_from(["root", "r[1]", "r*?", ".dot"]), st.booleans())
# suites are read in label order, "x" before "x-y", though "x-y/" sorts before "x/" as a path
@example({"x/seed0/checkpoint/manifest.json": "{}", "x-y/seed0/checkpoint/manifest.json": "{}"}, "root", False)
def test_checkpoint_discovery_matches_the_directory_walk(tree, root_name, trailing_slash):
    # the same labels, seeds, paths and manifest reads in the same order, or the same DataError
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch, root_name)
        root.mkdir()
        for rel, text in tree.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            if text is None:
                (root / rel).mkdir(exist_ok=True)
            else:
                (root / rel).write_text(text, encoding="utf-8")
        where = str(root) + "/" * trailing_slash
        assert discover_with_stub(cli._discover_checkpoints, where) == discover_with_stub(
            reference_discover_checkpoints, where
        )


def test_runs_under_the_root_make_it_a_suite_directory(tmp_path):
    # beside suite directories too; the directory walk also scored the suites sorted before the first run
    for run in ("a_suite/seed1", "seed0", "seed2", "z_suite/seed3"):
        (tmp_path / "root" / run / "checkpoint").mkdir(parents=True)
        (tmp_path / "root" / run / "checkpoint" / "manifest.json").write_text("{}", encoding="utf-8")
    found, reads = discover_with_stub(cli._discover_checkpoints, str(tmp_path / "root"))
    runs = [str(tmp_path / "root" / run / "checkpoint") for run in ("seed0", "seed2")]
    assert {label: [entry[:2] for entry in entries] for label, entries in found.items()} == {
        "root": [(0, runs[0]), (2, runs[1])]
    }
    assert reads == runs


def aggregate_json(precision, recall, f1, auc=None) -> str:
    """An eval metrics.json holding only the aggregate that report reads; each metric is (mean, std)."""
    metrics = {"precision": precision, "recall": recall, "f1": f1, **({"auc": auc} if auc else {})}
    return json.dumps({"aggregate": {key: {"mean": m, "std": s} for key, (m, s) in metrics.items()}})


GROUPS_HEADER = "attribute,category,n,precision,recall,f1,auc\n"
REPORT_INPUTS = {
    "eval/simple/metrics.json": aggregate_json((0.5, 0.1), (0.75, 0.05), (0.6, 0.02), (0.7, 0.0125)),
    # no AUC: a "-" cell, and empty auc cells in summary.csv
    "eval/multitask/metrics.json": aggregate_json((0.625, 0.0), (0.5, 0.125), (0.5555555555555556, 0.03125)),
    "eval/socio_contrastive/metrics.json": aggregate_json((0.7, 0.1), (0.8, 0.2), (0.74, 0.04), (0.81, 0.02)),
    "eval/ablation/metrics.json": aggregate_json((0.65, 0.05), (0.8, 0.1), (0.7125, 0.05), (0.79, 0.03)),
    "eval/simple/groups.csv": GROUPS_HEADER + "group,a,12,0.5,0.5,0.5,0.6\ngroup,b,8,0.25,0.25,0.25,\n"
                                              "extra,x,20,0.6,0.6,0.6,0.7\n",
    # a header only: the variant gets no column
    "eval/multitask/groups.csv": GROUPS_HEADER,
    "eval/socio_contrastive/groups.csv": GROUPS_HEADER + "group,a,12,0.75,0.75,0.75,0.8\ngroup,b,8,0.5,0.5,0.5,0.5\n"
                                                         "extra,x,20,0.6666666666666666,0.7,0.7,0.7\n",
    # lacks group b, and alone holds extra z
    "eval/ablation/groups.csv": GROUPS_HEADER + "group,a,12,0.7,0.7,0.7,0.8\nextra,x,20,0.6,0.6,0.6,0.7\n"
                                                "extra,z,3,0.5,1.0,0.6666666666666666,\n",
}
HOMOPHILY_ROWS = [
    {"attribute": "group", "observed_mean": 0.8125, "observed_std": 0.05, "chance_mean": 0.5, "chance_std": 0.0,
     "ratio_mean": 1.625, "ratio_std": 0.1, "k": 5, "iterations": 20},
    {"attribute": "extra", "observed_mean": 0.34, "observed_std": 0.02, "chance_mean": 0.3333333333333333,
     "chance_std": 0.001, "ratio_mean": 1.02, "ratio_std": 0.06, "k": 5, "iterations": 20},
]
MODEL_TABLE = """\
| Model | Precision | Recall | F1 | AUC |
|---|---|---|---|---|
| simple | 0.500 ± 0.100 | 0.750 ± 0.050 | 0.600 ± 0.020 | 0.700 ± 0.013 |
| multitask | 0.625 ± 0.000 | 0.500 ± 0.125 | 0.556 ± 0.031 | - |
| socio_contrastive | 0.700 ± 0.100 | 0.800 ± 0.200 | 0.740 ± 0.040 | 0.810 ± 0.020 |
"""
GROUP_SECTION = """\
## Group slices (F1 by socio-demographic category)

| Attribute | Category | n | simple | socio_contrastive | ablation |
|---|---|---|---|---|---|
| extra | x | 20 | 0.600 | 0.700 | 0.600 |
| extra | z | 3 | - | - | 0.667 |
| group | a | 12 | 0.500 | 0.750 | 0.700 |
| group | b | 8 | 0.250 | 0.500 | - |
"""
SUMMARY_HEAD = (
    "model,precision_mean,precision_std,recall_mean,recall_std,f1_mean,f1_std,auc_mean,auc_std\r\n"
    "simple,0.5,0.1,0.75,0.05,0.6,0.02,0.7,0.0125\r\n"
    "multitask,0.625,0.0,0.5,0.125,0.5555555555555556,0.03125,,\r\n"
    "socio_contrastive,0.7,0.1,0.8,0.2,0.74,0.04,0.81,0.02\r\n"
)


class TestReport:
    def run_report(self, tmp_path) -> tuple[str, bytes]:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), "verbosity": 0}), encoding="utf-8")
        assert main(["report", "--config", str(path)]) == 0
        report_dir = tmp_path / "out" / "report"
        return (report_dir / "report.md").read_bytes().decode("utf-8"), (report_dir / "summary.csv").read_bytes()

    def test_report_and_summary_bytes_are_pinned(self, tmp_path):
        for rel, content in REPORT_INPUTS.items():
            (tmp_path / "out" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "out" / rel).write_text(content, encoding="utf-8")
        report, summary = self.run_report(tmp_path)
        assert report == (
            "# Pipeline report\n\n"
            "## Model comparison (individual annotator labels, test split)\n\n"
            + MODEL_TABLE
            + "| ablation | 0.650 ± 0.050 | 0.800 ± 0.100 | 0.713 ± 0.050 | 0.790 ± 0.030 |\n\n"
            "## Contrastive ablation\n\n"
            "F1 gain from the contrastive term: +0.0275\n\n"
            + GROUP_SECTION
            + "\n## Homophily of learned annotator representations\n\n"
            "_not available_\n\n"
            "## Gaps\n\n"
            "- no metrics for variant 'socio_multihot'\n"
            "- no metrics for variant 'socio_embedding'\n"
            "- no homophily artifacts\n"
        )
        assert summary == SUMMARY_HEAD.encode() + b"ablation,0.65,0.05,0.8,0.1,0.7125,0.05,0.79,0.03\r\n"

        # the ablation arm's metrics go and homophily's arrive: its groups column stays
        (tmp_path / "out" / "eval" / "ablation" / "metrics.json").unlink()
        (tmp_path / "out" / "homophily").mkdir()
        (tmp_path / "out" / "homophily" / "homophily.json").write_text(
            json.dumps({"rows": HOMOPHILY_ROWS}), encoding="utf-8"
        )
        report, summary = self.run_report(tmp_path)
        assert report == (
            "# Pipeline report\n\n"
            "## Model comparison (individual annotator labels, test split)\n\n"
            + MODEL_TABLE
            + "\n## Contrastive ablation\n\n"
            "_not available_\n\n"
            + GROUP_SECTION
            + "\n## Homophily of learned annotator representations\n\n"
            "| Attribute | Observed | Random | Ratio |\n"
            "|---|---|---|---|\n"
            "| group | 0.812 ± 0.050 | 0.500 ± 0.000 | 1.625 ± 0.100 |\n"
            "| extra | 0.340 ± 0.020 | 0.333 ± 0.001 | 1.020 ± 0.060 |\n\n"
            "## Gaps\n\n"
            "- no metrics for variant 'socio_multihot'\n"
            "- no metrics for variant 'socio_embedding'\n"
            "- no metrics for variant 'ablation'\n"
            "- no ablation artifacts\n"
        )
        assert summary == SUMMARY_HEAD.encode()

    def test_every_scored_suite_follows_the_paper_suites_sorted(self, tmp_path):
        # a suite under another label is a row after the paper's six, in every table; a label without
        # metrics.json is no suite
        inputs = {
            **REPORT_INPUTS,
            "eval/sc_lambda05/metrics.json": aggregate_json((0.6, 0.0), (0.7, 0.0), (0.65, 0.0)),
            "eval/sc_lambda05/groups.csv": GROUPS_HEADER + "group,a,12,0.4,0.4,0.4,\n",
            "eval/a_custom/metrics.json": aggregate_json((0.5, 0.0), (0.5, 0.0), (0.5, 0.0), (0.5, 0.0)),
            "eval/unscored/groups.csv": GROUPS_HEADER + "group,a,12,0.9,0.9,0.9,\n",
        }
        for rel, content in inputs.items():
            (tmp_path / "out" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "out" / rel).write_text(content, encoding="utf-8")
        report, summary = self.run_report(tmp_path)
        assert report == (
            "# Pipeline report\n\n"
            "## Model comparison (individual annotator labels, test split)\n\n"
            + MODEL_TABLE
            + "| ablation | 0.650 ± 0.050 | 0.800 ± 0.100 | 0.713 ± 0.050 | 0.790 ± 0.030 |\n"
            "| a_custom | 0.500 ± 0.000 | 0.500 ± 0.000 | 0.500 ± 0.000 | 0.500 ± 0.000 |\n"
            "| sc_lambda05 | 0.600 ± 0.000 | 0.700 ± 0.000 | 0.650 ± 0.000 | - |\n\n"
            "## Contrastive ablation\n\n"
            "F1 gain from the contrastive term: +0.0275\n\n"
            "## Group slices (F1 by socio-demographic category)\n\n"
            "| Attribute | Category | n | simple | socio_contrastive | ablation | sc_lambda05 |\n"
            "|---|---|---|---|---|---|---|\n"
            "| extra | x | 20 | 0.600 | 0.700 | 0.600 | - |\n"
            "| extra | z | 3 | - | - | 0.667 | - |\n"
            "| group | a | 12 | 0.500 | 0.750 | 0.700 | 0.400 |\n"
            "| group | b | 8 | 0.250 | 0.500 | - | - |\n\n"
            "## Homophily of learned annotator representations\n\n"
            "_not available_\n\n"
            "## Gaps\n\n"
            "- no metrics for variant 'socio_multihot'\n"
            "- no metrics for variant 'socio_embedding'\n"
            "- no homophily artifacts\n"
        )
        assert summary == SUMMARY_HEAD.encode() + (
            b"ablation,0.65,0.05,0.8,0.1,0.7125,0.05,0.79,0.03\r\n"
            b"a_custom,0.5,0.0,0.5,0.0,0.5,0.0,0.5,0.0\r\n"
            b"sc_lambda05,0.6,0.0,0.7,0.0,0.65,0.0,,\r\n"
        )

    def test_a_pipe_in_a_cell_is_escaped(self, tmp_path):
        # a category may hold "|"; unescaped, its row would have one cell more than the header
        groups = tmp_path / "out" / "eval" / "simple" / "groups.csv"
        groups.parent.mkdir(parents=True)
        groups.write_text(GROUPS_HEADER + "group,a|b,12,0.5,0.5,0.5,0.6\n", encoding="utf-8")
        report, _ = self.run_report(tmp_path)
        lines = report.split("## Group slices (F1 by socio-demographic category)\n\n")[1].splitlines()
        header, rule, row = lines[:3]
        assert row == r"| group | a\|b | 12 | 0.500 |"
        cells = [len(re.split(r"(?<!\\)\|", line)) for line in (header, row)]
        assert cells[0] == cells[1] == rule.count("|") + 1


def test_importing_the_cli_loads_no_stage_only_module():
    # a spawned train worker imports the cli module; synth, metrics and homophily are loaded by the
    # commands that use them, so a worker does not pay for them
    code = "import json, sys, sociolens.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # the package as this process finds it
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    loaded = set(json.loads(child.stdout))
    assert "sociolens.cli" in loaded
    assert not {"sociolens.synth", "sociolens.metrics", "sociolens.homophily"} & loaded


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
            "train/socio_contrastive/seed0/representations.csv",
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

    # options that were removed, not renamed: each is now an unknown key
    @pytest.mark.parametrize("section, field, value", [
        ("train", "normalize_embeddings", True), ("train", "normalize_embeddings", False),
        ("homophily", "metric", "cosine"),
    ])
    def test_removed_key_exits_2_naming_it(self, tmp_path, capsys, section, field, value):
        config = base_config(str(tmp_path / "out"))
        config[section][field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([section, "--config", str(path)]) == 2
        assert f"{section}: unknown keys [{field!r}]" in capsys.readouterr().err

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
            ("hidden_dims", [True, 2]), ("threads", True), ("temperature", "x"),
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
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        if profiles is None:
            assert err == "data error: socio_multihot runs need train.profiles (got None)\n"
        assert not (out / "train").exists()

    def test_socio_embedding_runs_need_no_profiles(self, tmp_path):
        # socio_embedding reads the socio embeddings alone: neither train nor eval needs a profiles file for it
        out = run_chain(tmp_path, base_config(str(tmp_path / "out")), commands=("synth", "prep"))
        train = dict(base_config("")["train"], variant="socio_embedding", ablation=False)
        for name, path in (("train_annotations", "prep/train.csv"), ("test_annotations", "prep/test.csv"),
                           ("embeddings", "synth/embeddings.csv"), ("socio_embeddings", "synth/socio_embeddings.csv")):
            train[name] = str(out / path)
        config_path = tmp_path / "no_profiles.json"
        config_path.write_text(json.dumps({"output_dir": str(out), "train": train, "eval": {}}), encoding="utf-8")
        with mock.patch.object(trainer, "train_suites", sequential_train_suites):
            assert main(["train", "--config", str(config_path)]) == 0
        manifest = json.loads(
            (out / "train" / "socio_embedding" / "seed0" / "checkpoint" / "manifest.json").read_text(encoding="utf-8")
        )
        assert "schema" not in manifest
        assert main(["eval", "--config", str(config_path)]) == 0
        assert (out / "eval" / "socio_embedding" / "metrics.json").exists()
        # without profiles there are no group slices
        assert not (out / "eval" / "socio_embedding" / "groups.csv").exists()

    def test_profiles_of_test_annotators_are_checked_by_eval_not_train(self, tmp_path, capsys):
        # train reads the test split for its leak check alone; eval scores it and checks it before writing
        config = base_config(str(tmp_path / "out"))
        config["train"].update(ablation=False, epochs=1)
        out = run_chain(tmp_path, config, commands=("synth", "prep"))
        with open(out / "prep" / "test.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][1] = "ghost"
        with open(out / "prep" / "test.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with mock.patch.object(trainer, "train_suites", sequential_train_suites):
            assert main(["train", "--config", str(tmp_path / "config.json")]) == 0
        assert main(["eval", "--config", str(tmp_path / "config.json")]) == 3
        assert capsys.readouterr().err == "data error: no profile for annotators: ['ghost']\n"
        assert not (out / "eval").exists()

    @pytest.mark.parametrize("missing", ["socio_embeddings", "profiles"])
    def test_eval_inputs_checked_before_any_variant_is_scored(self, tmp_path, capsys, missing):
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant=["simple", "socio_contrastive", "socio_embedding"], ablation=False, epochs=1)
        with mock.patch.object(trainer, "train_suites", sequential_train_suites):
            out = run_chain(tmp_path, config, commands=("synth", "prep", "train"))
        # no train section, so no eval input defaults to a train input
        inputs = {"checkpoints": "train", "annotations": "prep/test.csv", "embeddings": "synth/embeddings.csv",
                  "profiles": "synth/profiles.csv", "socio_embeddings": "synth/socio_embeddings.csv"}
        evaluate = {key: str(out / path) for key, path in inputs.items()}
        if missing == "profiles":
            del evaluate["profiles"]
            named = "eval.profiles (got None)"
        else:
            evaluate["socio_embeddings"] = named = str(tmp_path / "missing.csv")
        config_path = tmp_path / "eval_only.json"
        config_path.write_text(json.dumps({"output_dir": str(out), "eval": evaluate}), encoding="utf-8")
        assert main(["eval", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and named in err
        assert not (out / "eval").exists()
        if missing == "socio_embeddings":
            # a missing file that no checkpoint reads is no error
            shutil.rmtree(out / "train" / "socio_embedding")
            assert main(["eval", "--config", str(config_path)]) == 0

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

    def test_directly_given_checkpoint_is_loaded_once(self, tmp_path, capsys, monkeypatch, trained_simple):
        shutil.copytree(trained_simple / "out", tmp_path / "out")
        ckpt = tmp_path / "out" / "train" / "simple" / "seed0" / "checkpoint"
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="simple", ablation=False)
        config["eval"]["checkpoints"] = str(ckpt)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        loads = []

        def counted(params, directory):
            loads.append(directory)
            return model.load_checkpoint(params, directory)

        monkeypatch.setattr(cli, "load_checkpoint", counted)
        assert main(["eval", "--config", str(path)]) == 0
        assert loads == [str(ckpt)]
        assert (tmp_path / "out" / "eval" / "simple" / "metrics.json").exists()
        # a corrupt params.bin is still found, by the one load that scores it
        (ckpt / "params.bin").write_bytes(b"\0" * 8)
        assert main(["eval", "--config", str(path)]) == 3
        assert f"{ckpt}: params.bin is 8 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("direct", [False, True], ids=["train-layout", "direct"])
    def test_each_manifest_is_read_once(self, tmp_path, monkeypatch, trained_simple, direct):
        # for the socio input it reads; the load that scores it fills the model read then
        shutil.copytree(trained_simple / "out", tmp_path / "out")
        ckpt = tmp_path / "out" / "train" / "simple" / "seed0" / "checkpoint"
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="simple", ablation=False)
        if direct:
            config["eval"]["checkpoints"] = str(ckpt)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        reads = Counter()

        def counted(directory, _read=model.read_manifest):
            reads[directory] += 1
            return _read(directory)

        monkeypatch.setattr(cli, "read_manifest", counted)
        monkeypatch.setattr(model, "read_manifest", counted)
        assert main(["eval", "--config", str(path)]) == 0
        assert reads == {str(ckpt): 1}

    def test_suite_directory_scores_like_the_train_root(self, tmp_path, trained_simple):
        shutil.copytree(trained_simple / "out", tmp_path / "out")
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant="simple", ablation=False)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        metrics_json = tmp_path / "out" / "eval" / "simple" / "metrics.json"
        assert main(["eval", "--config", str(path)]) == 0
        from_train_root = metrics_json.read_bytes()
        shutil.rmtree(tmp_path / "out" / "eval")
        # a directory of seed<N> checkpoints is one variant, named after the directory
        config["eval"]["checkpoints"] = str(tmp_path / "out" / "train" / "simple")
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["eval", "--config", str(path)]) == 0
        assert sorted(p.name for p in (tmp_path / "out" / "eval").iterdir()) == ["simple"]
        assert metrics_json.read_bytes() == from_train_root

    def test_no_loaded_model_outlives_its_scoring(self, tmp_path, monkeypatch):
        config = base_config(str(tmp_path / "out"))
        config["train"].update(variant=["simple", "multitask"], ablation=False, epochs=1, seeds=[0, 1])
        run_chain(tmp_path, config, commands=("synth", "prep", "train"))
        loaded = []

        def checked(params, directory, _load=model.load_checkpoint):
            assert all(ref() is None for ref in loaded), f"a model loaded before {directory} is alive"
            loaded.append(weakref.ref(params))
            return _load(params, directory)

        monkeypatch.setattr(cli, "load_checkpoint", checked)
        assert main(["eval", "--config", str(tmp_path / "config.json")]) == 0
        assert len(loaded) == 4

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
            weights = np.fromfile(ckpt / "params.bin", dtype="<f4")
            weights[sum(int(np.prod(shape)) for shape in before)] = np.nan
            weights.tofile(ckpt / "params.bin")

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        assert "params.bin holds non-finite values in the weights of layer.2.weight" in capsys.readouterr().err
        assert not list((tmp_path / "out" / "eval").rglob("roc_seed*.csv"))

    def test_per_tensor_checkpoint_exits_3(self, tmp_path, capsys, trained_simple):
        def edit(ckpt):
            # the layout before params.bin: one little-endian f64 file per tensor and role
            shapes = json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))["tensors"]
            for name, shape in shapes.items():
                for suffix in ("", ".m", ".v"):
                    np.zeros(shape, dtype="<f8").tofile(ckpt / f"{name}{suffix}.bin")
            (ckpt / "params.bin").unlink()

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "no params.bin; checkpoints with one .bin per tensor" in err

    def test_checkpoint_with_adam_moments_exits_3(self, tmp_path, capsys, trained_simple):
        def edit(ckpt):
            # the layout before weights-only checkpoints: the f64 weights row, then Adam's m and v
            # rows, under a manifest with no dtype key
            weights = np.fromfile(ckpt / "params.bin", dtype="<f4").astype("<f8")
            np.concatenate([weights, np.zeros(2 * weights.size)]).tofile(ckpt / "params.bin")
            manifest = json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))
            del manifest["dtype"]
            (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "checkpoints of earlier versions" in err and "retrain" in err
        assert not list((tmp_path / "out" / "eval").rglob("roc_seed*.csv"))

    @pytest.mark.parametrize("dtype", [None, "<f8", "<f2"], ids=["no-dtype", "f64", "f16"])
    def test_checkpoint_of_another_dtype_exits_3_naming_its_manifest(self, tmp_path, capsys, trained_simple, dtype):
        # without a dtype key it is a checkpoint of an earlier version: the same manifest, f64 weights of 8·n bytes
        def edit(ckpt):
            weights = np.fromfile(ckpt / "params.bin", dtype="<f4")
            weights.astype(dtype or "<f8").tofile(ckpt / "params.bin")
            manifest = json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))
            if dtype is None:
                del manifest["dtype"]
            else:
                manifest["dtype"] = dtype
            (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        err = capsys.readouterr().err
        manifest = tmp_path / "out" / "train" / "simple" / "seed0" / "checkpoint" / "manifest.json"
        assert err.startswith(f"data error: {manifest}: weights of dtype {dtype!r}, not '<f4'") and "retrain" in err
        assert not list((tmp_path / "out" / "eval").rglob("roc_seed*.csv"))

    def test_checkpoint_with_normalize_embeddings_exits_3_naming_it(self, tmp_path, capsys, trained_simple):
        def edit(ckpt):
            # the spec key of the option that could switch normalization off, put back by hand
            manifest = json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))
            manifest["spec"]["normalize_embeddings"] = True
            (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        assert self.eval_edited_checkpoint(tmp_path, trained_simple, edit) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "malformed manifest" in err and "'normalize_embeddings'" in err
        assert not list((tmp_path / "out" / "eval").rglob("roc_seed*.csv"))

    @pytest.mark.parametrize("rel, content", [
        ("eval/simple/metrics.json", "{not json"),
        ("eval/ablation/metrics.json", '{"aggregate": {"f1": {"mean": 0.5}}}'),
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


FLAG_ARGUMENTS = {"--seed": ["3"], "--variant": ["simple"], "--lambda": ["0.5"], "--dump-plan": []}
FLAGS_READ = {
    "synth": ["--seed"], "prep": ["--seed"], "train": ["--seed", "--variant", "--lambda", "--dump-plan"],
    "homophily": ["--seed"], "eval": [], "report": [],
}


class TestOverrides:
    def test_variant_override_trains_one(self, tmp_path):
        config = base_config(str(tmp_path / "out"))
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("synth", "prep"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path), "--variant", "simple"]) == 0
        out = Path(config["output_dir"])
        assert (out / "train" / "simple" / "seed0" / "checkpoint" / "manifest.json").exists()
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
        manifest = Path(config["output_dir"]) / "train" / "socio_contrastive" / "seed0" / "checkpoint" / "manifest.json"
        assert json.loads(manifest.read_text(encoding="utf-8"))["spec"]["contrastive_weight"] == 0.25

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

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in cli.COMMANDS for flag in FLAG_ARGUMENTS if flag not in FLAGS_READ[command]
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(base_config(str(tmp_path / "out"))), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), flag, *FLAG_ARGUMENTS[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        "dropout_rate", "temperature", "contrastive_weight", "ablation", "threads", "dump_plan",
    ),
    "homophily": ("representations", "profiles", "k", "iterations", "seed", "attributes"),
}
MODEL_HYPERPARAMETERS = ("hidden_dims", "projection_dims", "dropout_rate", "temperature", "contrastive_weight")


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
    assert [getattr(spec, name) for name in MODEL_HYPERPARAMETERS] == [(512, 256), (64, 128), 0.2, 0.1, 1.0]
    assert [getattr(spec, name) for name in MODEL_HYPERPARAMETERS] == [
        getattr(run_cfg, name) for name in MODEL_HYPERPARAMETERS
    ]


def test_manifest_spec_keys_keep_their_order(trained_chain):
    manifest = Path(trained_chain["output_dir"]) / "train" / "simple" / "seed0" / "checkpoint" / "manifest.json"
    assert list(json.loads(manifest.read_text(encoding="utf-8"))["spec"]) == [
        "variant", "text_dim", "socio_width", "hidden_dims", "projection_dims", "dropout_rate", "temperature",
        "contrastive_weight", "annotator_count",
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
    # train stages run in process, not in a worker pool each; TestWorkerPool holds the pool to this helper
    with mock.patch.object(trainer, "train_suites", sequential_train_suites):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value its type cannot parse
            code = exc.code
    assert code in (0, 2, 3, 4), argv
