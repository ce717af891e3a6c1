"""Pipeline configuration: one JSON file drives every command.

The file is validated in full up front: unknown keys anywhere are
rejected, values are type- and range-checked, and path defaults are
resolved so the commands can chain (synth -> prep -> train -> eval ->
homophily -> report) out of a single config. No environment variables
are consulted and no randomness exists outside explicit seeds.

Each section's dataclass is its schema: the section's keys are the
dataclass's fields, and a key the file leaves out takes the field's
default. A field without a default reads as null when left out, and its
section's parser fills it in from the sections before it or refuses it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import TYPE_CHECKING, Any

from .corpus import ColumnMapping
from .errors import ConfigError
from .model import VARIANTS
from .trainer import RunConfig

if TYPE_CHECKING:
    from .synth import PopulationSpec


def _defaults(schema: type, *skip: str) -> dict[str, Any]:
    """Every field of the dataclass `schema` but `skip`, with its default, or null for a field without one."""
    return {f.name: None if f.default is MISSING else f.default for f in fields(schema) if f.name not in skip}


def _require(section: Any, allowed: dict[str, Any], where: str) -> dict:
    """`section`'s values over the `allowed` keys' defaults; any other key is a ConfigError."""
    _check(isinstance(section, dict), f"{where} must be an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")
    return {**allowed, **section}


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value: Any) -> bool:
    """An integer, and not a bool (JSON true is an int to isinstance)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_paths(s: dict, keys: tuple[str, ...], where: str) -> None:
    """Each path field is null (use the default) or a non-empty string."""
    for key in keys:
        _check(s[key] is None or (isinstance(s[key], str) and s[key]), f"{where}.{key} must be a non-empty string")


def _is_real(value: Any) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _distinct(values: list) -> bool:
    """No value of the (hashable) `values` repeats."""
    return len(set(values)) == len(values)


@dataclass
class PrepConfig:
    annotations: str
    profiles: str | None
    columns: ColumnMapping
    min_annotators_per_text: int = 1
    min_annotations_per_annotator: int = 1
    train_fraction: float = 0.7
    seed: int = 0


@dataclass
class TrainConfig:
    """The train section: its `RunConfig` keys build one run per variant, and these fields are what the runs share.

    `variant` is "all", a name or a list of names. `threads` is still
    checked so older configs keep loading, but has no effect: the worker
    count of `trainer.train_suites` comes from the CPU affinity mask.
    """

    runs: list[RunConfig]
    train_annotations: str
    test_annotations: str
    profiles: str | None
    columns: ColumnMapping
    embeddings: str
    socio_embeddings: str | None
    ablation: bool = False
    dump_plan: bool = False


@dataclass
class EvalConfig:
    checkpoints: str
    annotations: str
    profiles: str | None
    columns: ColumnMapping
    embeddings: str
    socio_embeddings: str | None


@dataclass
class HomophilyConfig:
    representations: str
    profiles: str
    k: int = 50
    iterations: int = 1000
    seed: int = 0
    attributes: list[str] | None = None


@dataclass
class PipelineConfig:
    output_dir: str
    verbosity: int = 1
    prep: PrepConfig | None = None
    train: TrainConfig | None = None
    eval: EvalConfig | None = None
    homophily: HomophilyConfig | None = None
    synth: PopulationSpec | None = None


def _parse_columns(raw: Any, where: str, inherited: ColumnMapping | None) -> ColumnMapping:
    """The mapping given, else the one `inherited` from the section before, else `ColumnMapping`'s defaults."""
    if raw is None:
        return inherited or ColumnMapping()
    cols = _require(raw, _defaults(ColumnMapping), f"{where}.columns")
    for k, v in cols.items():
        _check(isinstance(v, str) and v, f"{where}.columns.{k} must be a non-empty string")
    _check(_distinct(list(cols.values())), f"{where}.columns must name a different column for each role, got {cols}")
    return ColumnMapping(**cols)


def _parse_prep(raw: dict, synth_dir: str | None) -> PrepConfig:
    s = _require(raw, _defaults(PrepConfig), "prep")
    _check_paths(s, ("annotations", "profiles"), "prep")
    if synth_dir:
        s["annotations"] = s["annotations"] or os.path.join(synth_dir, "annotations.csv")
        s["profiles"] = s["profiles"] or os.path.join(synth_dir, "profiles.csv")
    _check(s["annotations"] is not None, "prep.annotations is required (no synth section to default from)")
    for key in ("min_annotators_per_text", "min_annotations_per_annotator"):
        _check(_is_int(s[key]) and s[key] >= 1, f"prep.{key} must be an integer >= 1")
    _check(_is_real(s["train_fraction"]) and 0 < s["train_fraction"] < 1, "prep.train_fraction must be in (0,1)")
    # a negative split seed is fine: SplitMix64 masks it to 64 bits
    _check(_is_int(s["seed"]), "prep.seed must be an integer")
    s["columns"] = _parse_columns(s["columns"], "prep", None)
    return PrepConfig(**s)


def _parse_train(raw: dict, out_dir: str, prep: PrepConfig | None, synth_dir: str | None) -> TrainConfig:
    run, inputs = _defaults(RunConfig), _defaults(TrainConfig, "runs")
    s = _require(raw, {**run, **inputs, "variant": "all", "threads": 1}, "train")
    _check_paths(s, ("train_annotations", "test_annotations", "profiles", "embeddings", "socio_embeddings"), "train")
    variant = s["variant"]
    if variant == "all":
        variants = list(VARIANTS)
    elif isinstance(variant, list):
        variants = variant
    else:
        variants = [variant]
    _check(bool(variants), "train.variant must name at least one variant")
    for v in variants:
        _check(v in VARIANTS, f"train.variant: unknown variant {v!r}")
    _check(_distinct(variants), "train.variant must not name a variant twice")
    seeds = s["seeds"]
    # JSON gives lists; a tuple here is the RunConfig default
    rules = {
        "lr": (_is_real(s["lr"]) and s["lr"] > 0, "a finite number > 0"),
        "batch_size": (_is_int(s["batch_size"]) and s["batch_size"] >= 2, "an integer >= 2"),
        "epochs": (_is_int(s["epochs"]) and s["epochs"] >= 1, "an integer >= 1"),
        "seeds": (isinstance(seeds, (list, tuple)) and seeds and all(_is_int(x) and x >= 0 for x in seeds)
                  and _distinct(seeds), "a non-empty list of distinct integers >= 0"),
        "dropout_rate": (_is_real(s["dropout_rate"]) and 0 <= s["dropout_rate"] < 1, "a number in [0, 1)"),
        "temperature": (_is_real(s["temperature"]) and s["temperature"] > 0, "a finite number > 0"),
        "contrastive_weight": (_is_real(s["contrastive_weight"]) and s["contrastive_weight"] >= 0,
                               "a finite number >= 0"),
        "threads": (_is_int(s["threads"]) and s["threads"] >= 1, "an integer >= 1"),
    }
    for key in ("hidden_dims", "projection_dims"):
        val = s[key]
        rules[key] = (isinstance(val, (list, tuple)) and len(val) == 2 and all(_is_int(x) and x >= 1 for x in val),
                      "a list of two integers >= 1")
    for key in ("ablation", "dump_plan"):
        rules[key] = (isinstance(s[key], bool), "true or false")
    for key, (ok, rule) in rules.items():
        _check(bool(ok), f"train.{key} must be {rule}")
    for key in ("lr", "dropout_rate", "temperature", "contrastive_weight"):
        s[key] = float(s[key])
    for key in ("hidden_dims", "projection_dims", "seeds"):
        s[key] = tuple(s[key])

    prep_dir = os.path.join(out_dir, "prep")
    s["train_annotations"] = s["train_annotations"] or os.path.join(prep_dir, "train.csv")
    s["test_annotations"] = s["test_annotations"] or os.path.join(prep_dir, "test.csv")
    s["profiles"] = s["profiles"] or (prep.profiles if prep else None)
    if synth_dir:
        s["embeddings"] = s["embeddings"] or os.path.join(synth_dir, "embeddings.csv")
        s["socio_embeddings"] = s["socio_embeddings"] or os.path.join(synth_dir, "socio_embeddings.csv")
    _check(s["embeddings"] is not None, "train.embeddings is required")
    s["columns"] = _parse_columns(s["columns"], "train", prep and prep.columns)
    return TrainConfig(
        runs=[RunConfig(**{**{key: s[key] for key in run}, "variant": v}) for v in variants],
        **{key: s[key] for key in inputs},
    )


def _parse_eval(raw: dict, out_dir: str, train: TrainConfig | None) -> EvalConfig:
    s = _require(raw, _defaults(EvalConfig), "eval")
    _check_paths(s, ("checkpoints", "annotations", "profiles", "embeddings", "socio_embeddings"), "eval")
    _check(s["checkpoints"] is not None or train is not None,
           "eval.checkpoints is required without a train section")
    s["checkpoints"] = s["checkpoints"] or os.path.join(out_dir, "train")
    s["annotations"] = s["annotations"] or (
        train.test_annotations if train else os.path.join(out_dir, "prep", "test.csv")
    )
    if train:
        # a null input is the train section's input of the same name
        for key in ("profiles", "embeddings", "socio_embeddings"):
            s[key] = s[key] or getattr(train, key)
    _check(s["embeddings"] is not None, "eval.embeddings is required")
    s["columns"] = _parse_columns(s["columns"], "eval", train and train.columns)
    return EvalConfig(**s)


def _parse_homophily(raw: dict, out_dir: str, train: TrainConfig | None) -> HomophilyConfig:
    s = _require(raw, _defaults(HomophilyConfig), "homophily")
    _check_paths(s, ("representations", "profiles"), "homophily")
    if s["representations"] is None and train is not None:
        first_seed = train.runs[0].seeds[0]
        s["representations"] = os.path.join(
            out_dir, "train", "socio_contrastive", f"seed{first_seed}", "representations.csv"
        )
    _check(s["representations"] is not None, "homophily.representations is required")
    s["profiles"] = s["profiles"] or (train.profiles if train else None)
    _check(s["profiles"] is not None, "homophily.profiles is required")
    for key, least in (("k", 1), ("iterations", 1), ("seed", 0)):
        _check(_is_int(s[key]) and s[key] >= least, f"homophily.{key} must be an integer >= {least}")
    attrs = s["attributes"]
    if attrs is not None:
        _check(isinstance(attrs, list) and attrs and all(isinstance(a, str) for a in attrs) and _distinct(attrs),
               "homophily.attributes must be a non-empty list of distinct strings")
    return HomophilyConfig(**s)


def _parse_synth(raw: dict) -> PopulationSpec:
    # imported here, not at the top, so that a spawned train worker, which imports cli and so
    # this module, does not load the generator
    from .synth import AttributeSpec, PopulationSpec

    s = _require(raw, _defaults(PopulationSpec), "synth")
    dim = s["socio_embedding_dim"]
    rules = {key: (_is_int(s[key]) and s[key] >= 1, "an integer >= 1")
             for key in ("annotator_count", "text_count", "annotations_per_text", "embedding_dim")}
    rules["embedding_noise"] = (_is_real(s["embedding_noise"]), "a finite number")
    rules["seed"] = (_is_int(s["seed"]) and s["seed"] >= 0, "an integer >= 0")
    rules["attributes"] = (isinstance(s["attributes"], list) and s["attributes"], "a non-empty list")
    rules["signal"] = (s["signal"] is None or isinstance(s["signal"], dict), "an object")
    rules["socio_embedding_dim"] = (dim is None or (_is_int(dim) and dim >= 1), "null or an integer >= 1")
    for key, (ok, rule) in rules.items():
        _check(bool(ok), f"synth.{key} must be {rule}")
    attributes = []
    for i, spec in enumerate(s["attributes"]):
        where = f"synth.attributes[{i}]"
        a = _require(spec, _defaults(AttributeSpec), where)
        name, categories, probs = a["name"], a["categories"], a["probabilities"]
        _check(isinstance(name, str), f"{where}.name must be a string")
        _check(name not in {b.name for b in attributes}, f"{where}.name {name!r} is already an attribute's name")
        # a profile file writes a declined answer as an empty cell, so "" cannot be a category
        _check(isinstance(categories, list) and categories and all(isinstance(c, str) and c for c in categories)
               and len(set(categories)) == len(categories),
               f"{where}.categories of {name!r} must be a non-empty list of distinct non-empty strings")
        if probs is None:
            probs = [1.0 / len(categories)] * len(categories)
        _check(isinstance(probs, list) and all(_is_real(p) for p in probs),
               f"{where}.probabilities must be a list of finite numbers")
        probs = tuple(float(p) for p in probs)
        _check(len(probs) == len(categories) and min(probs) >= 0 and abs(sum(probs) - 1.0) <= 1e-9,
               f"{where}.probabilities of {name!r} must be one number >= 0 per category, summing to 1;"
               f" got {list(probs)}")
        attributes.append(AttributeSpec(name, tuple(categories), probs))
    signal: dict[tuple[str, str], float] = {}
    for attr, shifts in (s["signal"] or {}).items():
        _check(isinstance(shifts, dict), f"synth.signal.{attr} must map categories to shifts")
        for cat, shift in shifts.items():
            _check(_is_real(shift), f"synth.signal.{attr}.{cat} must be a finite number")
            signal[(attr, cat)] = float(shift)
    known = {a.name: a.categories for a in attributes}
    for attr, cat in signal:
        _check(cat in known.get(attr, ()), f"synth.signal.{attr}.{cat}: no such attribute category")
    _check(s["annotations_per_text"] <= s["annotator_count"],
           "synth.annotations_per_text cannot exceed synth.annotator_count")
    return PopulationSpec(
        **{**s, "attributes": tuple(attributes), "signal": signal, "embedding_noise": float(s["embedding_noise"])}
    )


def load_config(path: str, overrides: dict[str, dict[str, Any]] | None = None) -> PipelineConfig:
    """Parse and fully validate a pipeline config file.

    `overrides` maps a section name to field values written over that
    section before it is validated, like values from the file; a section
    the file lacks stays absent.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:
        # a byte that is not UTF-8 lands here too, as a UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for name, values in (overrides or {}).items():
        if isinstance(raw.get(name), dict):
            raw[name] = {**raw[name], **values}
    top = _require(raw, _defaults(PipelineConfig), "config")
    _check(isinstance(top["output_dir"], str) and top["output_dir"], "output_dir is required")
    out_dir = top["output_dir"]
    _check(_is_int(top["verbosity"]) and top["verbosity"] in (0, 1), "verbosity must be 0 or 1")

    synth = _parse_synth(top["synth"]) if top["synth"] is not None else None
    synth_dir = os.path.join(out_dir, "synth") if synth is not None else None
    prep = _parse_prep(top["prep"], synth_dir) if top["prep"] is not None else None
    train = _parse_train(top["train"], out_dir, prep, synth_dir) if top["train"] is not None else None
    eval_cfg = _parse_eval(top["eval"], out_dir, train) if top["eval"] is not None else None
    homophily = _parse_homophily(top["homophily"], out_dir, train) if top["homophily"] is not None else None
    return PipelineConfig(
        output_dir=out_dir, verbosity=top["verbosity"], prep=prep, train=train, eval=eval_cfg, homophily=homophily,
        synth=synth,
    )
