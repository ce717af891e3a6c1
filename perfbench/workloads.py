"""The three workloads: how each sets up its inputs, what it times, and how it checks the outputs.

Every workload derives its inputs from the benchmark's seed; the program
under test receives only the generated files and a config pointing at them.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

from gen import ATTRIBUTES, write_homophily_inputs

# Stages a timed run may run; each writes the output directory of its name.
TIMED_STAGES = ("train", "eval", "homophily", "report")


@dataclass
class StageResult:
    stage: str
    exit_code: int
    wall_s: float
    maxrss_mb: float
    cpu_s: float


@dataclass
class Context:
    root: str
    work: str
    seed: int
    deadline: float  # time.perf_counter() value at which a running stage is killed

    @property
    def out(self) -> str:
        return os.path.join(self.work, "out")

    @property
    def config(self) -> str:
        return os.path.join(self.work, "config.json")

    @property
    def log(self) -> str:
        return os.path.join(self.work, "stages.log")

    def write_config(self, payload: dict) -> None:
        payload = dict(payload, output_dir=self.out)
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    def path(self, *parts: str) -> str:
        return os.path.join(self.out, *parts)

    def clear_timed_outputs(self) -> None:
        for name in TIMED_STAGES:
            shutil.rmtree(self.path(name), ignore_errors=True)

    def run_stage(self, stage: str) -> StageResult:
        """One `sociolens <stage>` child process with the inherited environment; waits for it to end."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "sociolens.cli", stage, "--config", self.config],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            killer = threading.Timer(max(0.0, self.deadline - start), child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return StageResult(stage, child.returncode, wall, usage.ru_maxrss / 1024.0, cpu)


@dataclass
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]
    setup: Callable[[Context], list[StageResult]]
    work_units: Callable[[Context], dict[str, float]]
    check: Callable[[Context], list[str]]


# ------------------------------------------------------------------ helpers

def _demo_config(root: str) -> dict:
    with open(os.path.join(root, "configs", "demo.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _split_rows(ctx: Context, name: str) -> tuple[int, int]:
    """(records, distinct texts) in prep/<name>.csv."""
    with open(ctx.path("prep", f"{name}.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), len({r["text_id"] for r in rows})


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _synth_and_prep(ctx: Context, config: dict) -> list[StageResult]:
    shutil.rmtree(ctx.out, ignore_errors=True)
    ctx.write_config(config)
    return [ctx.run_stage(stage) for stage in ("synth", "prep")]


def _train_units(ctx: Context, suites: list[str], seeds: int, epochs: int) -> dict[str, float]:
    """Σ over trained runs of epochs × train rows; `simple` trains on one row per text."""
    records, texts = _split_rows(ctx, "train")
    test_records, _ = _split_rows(ctx, "test")
    rows = sum(texts if suite == "simple" else records for suite in suites)
    return {
        "train_samples": float(seeds * epochs * rows),
        "eval_rows": float(len(suites) * seeds * test_records),
    }


def _homophily_rows(ctx: Context) -> list[dict]:
    return _load_json(ctx.path("homophily", "homophily.json"))["rows"]


def _group_first(rows: list[dict]) -> list[str]:
    if not rows or rows[0]["attribute"] != "group":
        return [f"homophily: expected group to rank first, got {[r['attribute'] for r in rows]}"]
    if rows[0]["ratio_mean"] <= 1.0:
        return [f"homophily: group ratio {rows[0]['ratio_mean']} is not above 1"]
    return []


def _digest(root: str, paths: list[str]) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def output_digest(out_dir: str) -> str:
    """sha256 over checkpoints, logs, representations, metrics, homophily and report files."""
    patterns = (
        "train/**/checkpoint/*", "train/**/log.jsonl", "train/**/representations.csv",
        "eval/**/metrics.json", "homophily/homophily.json", "report/report.md",
    )
    paths = {p for pattern in patterns for p in glob.glob(os.path.join(out_dir, pattern), recursive=True)}
    return _digest(out_dir, list(paths))


def input_digest(out_dir: str) -> str:
    """sha256 over every file the set-up wrote."""
    return _digest(out_dir, [os.path.join(base, name) for base, _, files in os.walk(out_dir) for name in files])


# ----------------------------------------------------------- demo-pipeline

# Two seeds keep a timed run within the run length and still give
# `threads: 2` two seeds to run at once.
DEMO_SEEDS = [0, 1]
DEMO_SUITES = ["simple", "multitask", "socio_multihot", "socio_embedding", "socio_contrastive", "ablation"]


def _demo_setup(ctx: Context) -> list[StageResult]:
    config = _demo_config(ctx.root)
    config["synth"]["seed"] = ctx.seed
    config["train"]["seeds"] = DEMO_SEEDS
    return _synth_and_prep(ctx, config)


def _demo_units(ctx: Context) -> dict[str, float]:
    config = _load_json(ctx.config)
    epochs = config["train"].get("epochs", 7)  # the package default when the config omits it
    units = _train_units(ctx, DEMO_SUITES, len(DEMO_SEEDS), epochs)
    attributes = len(config["synth"]["attributes"])
    units["homophily_draws"] = float(attributes * config["homophily"]["iterations"])
    return units


def _mean_f1(ctx: Context, variant: str) -> float:
    return _load_json(ctx.path("eval", variant, "metrics.json"))["aggregate"]["f1"]["mean"]


def _demo_check(ctx: Context) -> list[str]:
    errors = _group_first(_homophily_rows(ctx))
    contrastive, simple = _mean_f1(ctx, "socio_contrastive"), _mean_f1(ctx, "simple")
    if contrastive < simple + 0.05:
        errors.append(f"eval: socio_contrastive F1 {contrastive:.4f} is not 0.05 above simple {simple:.4f}")
    if not os.path.exists(ctx.path("report", "report.md")):
        errors.append("report: report.md missing")
    return errors


# --------------------------------------------------------------- wide-eval

WIDE_SUITES = ["simple", "multitask"]
WIDE_EPOCHS = 2


def _wide_setup(ctx: Context) -> list[StageResult]:
    demo = _demo_config(ctx.root)
    synth = dict(demo["synth"], annotator_count=1500, text_count=8000, annotations_per_text=5, seed=ctx.seed)
    synth.pop("socio_embedding_dim", None)
    config = {
        "verbosity": 1,
        "synth": synth,
        "prep": dict(demo["prep"], train_fraction=0.25),
        "train": {"variant": WIDE_SUITES, "seeds": [0], "threads": 1, "epochs": WIDE_EPOCHS},
        "eval": {},
    }
    return _synth_and_prep(ctx, config)


def _wide_units(ctx: Context) -> dict[str, float]:
    return _train_units(ctx, WIDE_SUITES, 1, WIDE_EPOCHS)


def _wide_check(ctx: Context) -> list[str]:
    errors = []
    test_records, _ = _split_rows(ctx, "test")
    for variant in WIDE_SUITES:
        payload = _load_json(ctx.path("eval", variant, "metrics.json"))
        for report in payload["per_seed"]:
            if report["n"] != test_records:
                errors.append(f"eval: {variant} scored n={report['n']}, test split has {test_records} rows")
        curves = sorted(glob.glob(ctx.path("eval", variant, "roc_seed*.csv")))
        if len(curves) != len(payload["per_seed"]):
            errors.append(f"eval: {variant} has {len(curves)} ROC curves for {len(payload['per_seed'])} seeds")
        for path in curves:
            with open(path, newline="", encoding="utf-8") as fh:
                last = list(csv.DictReader(fh))[-1]
            if (float(last["fpr"]), float(last["tpr"])) != (1.0, 1.0):
                errors.append(f"eval: {os.path.basename(path)} ends at ({last['fpr']}, {last['tpr']})")
    return errors


# ------------------------------------------------------------ homophily-2k

HOMOPHILY_ITERATIONS = 10


def _homophily_setup(ctx: Context) -> list[StageResult]:
    shutil.rmtree(ctx.out, ignore_errors=True)
    reps, profiles = write_homophily_inputs(ctx.path("inputs"), ctx.seed)
    ctx.write_config({
        "verbosity": 1,
        "homophily": {"representations": reps, "profiles": profiles, "k": 50,
                      "iterations": HOMOPHILY_ITERATIONS, "seed": 1},
    })
    return []


def _homophily_units(ctx: Context) -> dict[str, float]:
    return {"homophily_draws": float(len(ATTRIBUTES) * HOMOPHILY_ITERATIONS)}


def _homophily_check(ctx: Context) -> list[str]:
    return _group_first(_homophily_rows(ctx))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "demo-pipeline",
            "the shipped demo config with two seeds: small batches bound by per-step overhead, "
            "contrastive loss on, threads 2, homophily at 120 annotators x 1000 draws",
            ("train", "eval", "homophily", "report"),
            _demo_setup, _demo_units, _demo_check,
        ),
        Workload(
            "wide-eval",
            "1500 per-annotator heads make Adam dominate train and eval scores ~30k labels per "
            "checkpoint; no contrastive term and one seed, so those layers are absent",
            ("train", "eval"),
            _wide_setup, _wide_units, _wide_check,
        ),
        Workload(
            "homophily-2k",
            "homophily alone over 2000 generated 128-d representations: the n^2 log n neighbour-"
            "ordering regime, with no training layers at all",
            ("homophily",),
            _homophily_setup, _homophily_units, _homophily_check,
        ),
    )
}
