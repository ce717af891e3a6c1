"""Pipeline configuration: one JSON file drives every command.

The file is validated in full up front: unknown keys anywhere are
rejected, values are type- and range-checked, and path defaults are
resolved so the commands can chain (synth -> prep -> train -> eval ->
homophily -> report) out of a single config. No environment variables
are consulted and no randomness exists outside explicit seeds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError
from .model import VARIANTS as VARIANT_CHOICES
from .synth import AttributeSpec, PopulationSpec
from .trainer import DEFAULT_SEEDS, RunConfig


def _require(section: dict, allowed: dict[str, Any], where: str) -> dict:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")
    out = {}
    for key, default in allowed.items():
        out[key] = section.get(key, default)
    return out


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value: Any) -> bool:
    """An integer, and not a bool (JSON true is an int to isinstance)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class PrepConfig:
    annotations: str
    profiles: str | None
    columns: dict[str, str]
    min_annotators_per_text: int
    min_annotations_per_annotator: int
    train_fraction: float
    seed: int


@dataclass
class TrainConfig:
    variants: list[str]
    train_annotations: str
    test_annotations: str
    profiles: str | None
    columns: dict[str, str]
    embeddings: str
    socio_embeddings: str | None
    run: RunConfig
    ablation: bool
    threads: int
    dump_plan: bool


@dataclass
class EvalConfig:
    checkpoints: str
    annotations: str
    profiles: str | None
    columns: dict[str, str]
    embeddings: str
    socio_embeddings: str | None


@dataclass
class HomophilyConfig:
    representations: str
    profiles: str
    k: int
    iterations: int
    seed: int
    metric: str
    attributes: list[str] | None


@dataclass
class SynthConfig:
    population: PopulationSpec
    socio_embedding_dim: int | None


@dataclass
class PipelineConfig:
    output_dir: str
    verbosity: int
    prep: PrepConfig | None = None
    train: TrainConfig | None = None
    eval: EvalConfig | None = None
    homophily: HomophilyConfig | None = None
    synth: SynthConfig | None = None


_DEFAULT_COLUMNS = {"text_id": "text_id", "annotator_id": "annotator_id", "score": "score"}


def _parse_columns(raw: Any, where: str) -> dict[str, str]:
    if raw is None:
        return dict(_DEFAULT_COLUMNS)
    _check(isinstance(raw, dict), f"{where}.columns must be an object")
    cols = _require(raw, dict(_DEFAULT_COLUMNS), f"{where}.columns")
    for k, v in cols.items():
        _check(isinstance(v, str) and v, f"{where}.columns.{k} must be a non-empty string")
    return cols


def _parse_prep(raw: dict, out_dir: str, synth_dir: str | None) -> PrepConfig:
    allowed = {
        "annotations": None,
        "profiles": None,
        "columns": None,
        "min_annotators_per_text": 1,
        "min_annotations_per_annotator": 1,
        "train_fraction": 0.7,
        "seed": 0,
    }
    s = _require(raw, allowed, "prep")
    annotations = s["annotations"]
    profiles = s["profiles"]
    if annotations is None and synth_dir:
        annotations = os.path.join(synth_dir, "annotations.csv")
    if profiles is None and synth_dir:
        profiles = os.path.join(synth_dir, "profiles.csv")
    _check(annotations is not None, "prep.annotations is required (no synth section to default from)")
    _check(isinstance(s["min_annotators_per_text"], int) and s["min_annotators_per_text"] >= 1,
           "prep.min_annotators_per_text must be an integer >= 1")
    _check(isinstance(s["min_annotations_per_annotator"], int) and s["min_annotations_per_annotator"] >= 1,
           "prep.min_annotations_per_annotator must be an integer >= 1")
    _check(isinstance(s["train_fraction"], (int, float)) and 0 < s["train_fraction"] < 1,
           "prep.train_fraction must be in (0,1)")
    _check(isinstance(s["seed"], int), "prep.seed must be an integer")
    return PrepConfig(
        annotations=annotations,
        profiles=profiles,
        columns=_parse_columns(s["columns"], "prep"),
        min_annotators_per_text=s["min_annotators_per_text"],
        min_annotations_per_annotator=s["min_annotations_per_annotator"],
        train_fraction=float(s["train_fraction"]),
        seed=s["seed"],
    )


def _parse_train(raw: dict, out_dir: str, prep: PrepConfig | None, synth_dir: str | None) -> TrainConfig:
    allowed = {
        "variant": "all",
        "train_annotations": None,
        "test_annotations": None,
        "profiles": None,
        "columns": None,
        "embeddings": None,
        "socio_embeddings": None,
        "lr": 0.01,
        "batch_size": 32,
        "epochs": 7,
        "seeds": list(DEFAULT_SEEDS),
        "hidden_dims": [512, 256],
        "projection_dims": [64, 128],
        "dropout_rate": 0.2,
        "temperature": 0.1,
        "contrastive_weight": 1.0,
        "normalize_embeddings": True,
        "ablation": False,
        "threads": 1,
        "dump_plan": False,
    }
    s = _require(raw, allowed, "train")
    for key in ("train_annotations", "test_annotations", "profiles", "embeddings", "socio_embeddings"):
        _check(s[key] is None or (isinstance(s[key], str) and s[key]), f"train.{key} must be a non-empty string")
    variant = s["variant"]
    if variant == "all":
        variants = list(VARIANT_CHOICES)
    elif isinstance(variant, list):
        variants = variant
    else:
        variants = [variant]
    _check(bool(variants), "train.variant must name at least one variant")
    for v in variants:
        _check(v in VARIANT_CHOICES, f"train.variant: unknown variant {v!r}")
    seeds = s["seeds"]
    rules = {
        "lr": (_is_real(s["lr"]) and s["lr"] > 0, "a finite number > 0"),
        "batch_size": (_is_int(s["batch_size"]) and s["batch_size"] >= 2, "an integer >= 2"),
        "epochs": (_is_int(s["epochs"]) and s["epochs"] >= 1, "an integer >= 1"),
        "seeds": (isinstance(seeds, list) and seeds and all(_is_int(x) and x >= 0 for x in seeds),
                  "a non-empty list of integers >= 0"),
        "dropout_rate": (_is_real(s["dropout_rate"]) and 0 <= s["dropout_rate"] < 1, "a number in [0, 1)"),
        "temperature": (_is_real(s["temperature"]) and s["temperature"] > 0, "a finite number > 0"),
        "contrastive_weight": (_is_real(s["contrastive_weight"]) and s["contrastive_weight"] >= 0,
                               "a finite number >= 0"),
        "threads": (_is_int(s["threads"]) and s["threads"] >= 1, "an integer >= 1"),
    }
    for key in ("hidden_dims", "projection_dims"):
        val = s[key]
        rules[key] = (isinstance(val, list) and len(val) == 2 and all(_is_int(x) and x >= 1 for x in val),
                      "a list of two integers >= 1")
    for key in ("normalize_embeddings", "ablation", "dump_plan"):
        rules[key] = (isinstance(s[key], bool), "true or false")
    for key, (ok, rule) in rules.items():
        _check(bool(ok), f"train.{key} must be {rule}")

    prep_dir = os.path.join(out_dir, "prep")
    train_annotations = s["train_annotations"] or os.path.join(prep_dir, "train.csv")
    test_annotations = s["test_annotations"] or os.path.join(prep_dir, "test.csv")
    profiles = s["profiles"] or (prep.profiles if prep else None)
    embeddings = s["embeddings"]
    if embeddings is None and synth_dir:
        embeddings = os.path.join(synth_dir, "embeddings.csv")
    _check(embeddings is not None, "train.embeddings is required")
    socio_embeddings = s["socio_embeddings"]
    if socio_embeddings is None and synth_dir:
        candidate = os.path.join(synth_dir, "socio_embeddings.csv")
        socio_embeddings = candidate
    columns = _parse_columns(s["columns"], "train") if s["columns"] is not None else (
        dict(prep.columns) if prep else dict(_DEFAULT_COLUMNS)
    )
    run = RunConfig(
        variant=variants[0],
        hidden_dims=tuple(s["hidden_dims"]),
        projection_dims=tuple(s["projection_dims"]),
        dropout_rate=float(s["dropout_rate"]),
        temperature=float(s["temperature"]),
        contrastive_weight=float(s["contrastive_weight"]),
        normalize_embeddings=s["normalize_embeddings"],
        lr=float(s["lr"]),
        batch_size=s["batch_size"],
        epochs=s["epochs"],
        seeds=tuple(seeds),
    )
    return TrainConfig(
        variants=variants,
        train_annotations=train_annotations,
        test_annotations=test_annotations,
        profiles=profiles,
        columns=columns,
        embeddings=embeddings,
        socio_embeddings=socio_embeddings,
        run=run,
        ablation=s["ablation"],
        threads=s["threads"],
        dump_plan=s["dump_plan"],
    )


def _parse_eval(raw: dict, out_dir: str, train: TrainConfig | None) -> EvalConfig:
    allowed = {
        "checkpoints": None,
        "annotations": None,
        "profiles": None,
        "columns": None,
        "embeddings": None,
        "socio_embeddings": None,
    }
    s = _require(raw, allowed, "eval")
    checkpoints = s["checkpoints"]
    _check(checkpoints is not None or train is not None,
           "eval.checkpoints is required without a train section")
    return EvalConfig(
        checkpoints=checkpoints or os.path.join(out_dir, "train"),
        annotations=s["annotations"] or (train.test_annotations if train else None)
        or os.path.join(out_dir, "prep", "test.csv"),
        profiles=s["profiles"] or (train.profiles if train else None),
        columns=_parse_columns(s["columns"], "eval") if s["columns"] is not None else (
            dict(train.columns) if train else dict(_DEFAULT_COLUMNS)
        ),
        embeddings=s["embeddings"] or (train.embeddings if train else None),
        socio_embeddings=s["socio_embeddings"] or (train.socio_embeddings if train else None),
    )


def _parse_homophily(raw: dict, out_dir: str, train: TrainConfig | None) -> HomophilyConfig:
    allowed = {
        "representations": None,
        "profiles": None,
        "k": 50,
        "iterations": 1000,
        "seed": 0,
        "metric": "cosine",
        "attributes": None,
    }
    s = _require(raw, allowed, "homophily")
    reps = s["representations"]
    if reps is None and train is not None:
        first_seed = train.run.seeds[0]
        reps = os.path.join(out_dir, "train", "socio_contrastive", f"seed{first_seed}", "representations.csv")
    _check(reps is not None, "homophily.representations is required")
    profiles = s["profiles"] or (train.profiles if train else None)
    _check(profiles is not None, "homophily.profiles is required")
    for key, least in (("k", 1), ("iterations", 1), ("seed", 0)):
        _check(_is_int(s[key]) and s[key] >= least, f"homophily.{key} must be an integer >= {least}")
    _check(s["metric"] in ("cosine", "euclidean"), "homophily.metric must be cosine or euclidean")
    attrs = s["attributes"]
    if attrs is not None:
        _check(isinstance(attrs, list) and attrs and all(isinstance(a, str) for a in attrs),
               "homophily.attributes must be a non-empty list of strings")
    return HomophilyConfig(
        representations=reps,
        profiles=profiles,
        k=s["k"],
        iterations=s["iterations"],
        seed=s["seed"],
        metric=s["metric"],
        attributes=attrs,
    )


def _parse_synth(raw: dict) -> SynthConfig:
    allowed = {
        "annotator_count": None,
        "text_count": 100,
        "annotations_per_text": 4,
        "embedding_dim": 16,
        "embedding_noise": 0.1,
        "seed": 0,
        "attributes": None,
        "signal": None,
        "socio_embedding_dim": None,
    }
    s = _require(raw, allowed, "synth")
    _check(isinstance(s["annotator_count"], int), "synth.annotator_count is required")
    _check(isinstance(s["attributes"], list) and s["attributes"], "synth.attributes is required")
    attributes = []
    for i, spec in enumerate(s["attributes"]):
        a = _require(spec, {"name": None, "categories": None, "probabilities": None}, f"synth.attributes[{i}]")
        _check(isinstance(a["name"], str), f"synth.attributes[{i}].name must be a string")
        _check(isinstance(a["categories"], list), f"synth.attributes[{i}].categories must be a list")
        probs = a["probabilities"]
        if probs is None:
            probs = [1.0 / len(a["categories"])] * len(a["categories"])
        attributes.append(AttributeSpec(a["name"], tuple(a["categories"]), tuple(float(p) for p in probs)))
    signal: dict[tuple[str, str], float] = {}
    if s["signal"]:
        _check(isinstance(s["signal"], dict), "synth.signal must be an object")
        for attr, cats in s["signal"].items():
            _check(isinstance(cats, dict), f"synth.signal.{attr} must map categories to shifts")
            for cat, shift in cats.items():
                signal[(attr, cat)] = float(shift)
    population = PopulationSpec(
        annotator_count=s["annotator_count"],
        attributes=tuple(attributes),
        signal=signal,
        text_count=s["text_count"],
        annotations_per_text=s["annotations_per_text"],
        embedding_dim=s["embedding_dim"],
        embedding_noise=float(s["embedding_noise"]),
        seed=s["seed"],
    )
    dim = s["socio_embedding_dim"]
    if dim is not None:
        _check(isinstance(dim, int) and dim >= 1, "synth.socio_embedding_dim must be >= 1")
    return SynthConfig(population=population, socio_embedding_dim=dim)


def load_config(path: str) -> PipelineConfig:
    """Parse and fully validate a pipeline config file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    top = _require(
        raw,
        {
            "output_dir": None,
            "verbosity": 1,
            "prep": None,
            "train": None,
            "eval": None,
            "homophily": None,
            "synth": None,
        },
        "config",
    )
    _check(isinstance(top["output_dir"], str) and top["output_dir"], "output_dir is required")
    out_dir = top["output_dir"]
    _check(top["verbosity"] in (0, 1, 2), "verbosity must be 0, 1, or 2")

    synth = _parse_synth(top["synth"]) if top["synth"] is not None else None
    synth_dir = os.path.join(out_dir, "synth") if synth is not None else None
    prep = _parse_prep(top["prep"], out_dir, synth_dir) if top["prep"] is not None else None
    train = _parse_train(top["train"], out_dir, prep, synth_dir) if top["train"] is not None else None
    eval_cfg = _parse_eval(top["eval"], out_dir, train) if top["eval"] is not None else None
    homophily = _parse_homophily(top["homophily"], out_dir, train) if top["homophily"] is not None else None

    return PipelineConfig(
        output_dir=out_dir,
        verbosity=top["verbosity"],
        prep=prep,
        train=train,
        eval=eval_cfg,
        homophily=homophily,
        synth=synth,
    )
