"""Subcommand CLI: prep | train | eval | homophily | synth | report.

Every command reads one JSON config (--config) plus the override flags
it reads, which are written into the config before it is validated, so
a flag is checked like the field it sets; any other flag is refused.
Each command writes all artifacts under the configured output
directory, never mutates its inputs, and reads each data file and each
checkpoint manifest once. `train` and `eval` need a socio input only
where a run or checkpoint reads it (`_socio_inputs`). `train` runs one
list of suites, each under `train/<label>`: every configured variant,
and with `train.ablation` the `ablation` suite (socio_contrastive at
contrastive weight 0) straight after socio_contrastive. Their runs train
in one worker pool (`trainer.train_suites`), and each worker writes the
checkpoint, log, plans and representations of its run. `train` scores
nothing: `eval` scores the test split from every checkpoint it finds
(`_discover_checkpoints`), and `report` reads the metrics of every suite
eval scored: the paper's five variants and `ablation` first, each one
missing a gap line, then every other label, sorted. Exit codes: 0
success, 2 config error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

# synth, metrics and homophily are imported by the commands that use them: a spawned train
# worker imports this module, and would otherwise load all three for nothing
from . import config as config_mod
from . import corpus, features, trainer
from .errors import ConfigError, DataError, NumericError, SociolensError
from .model import VARIANTS, WIRING, ModelParams, load_checkpoint, read_manifest


def _log(cfg, message: str) -> None:
    if cfg.verbosity:
        print(message, file=sys.stderr)


def _socio_inputs(
    section: config_mod.TrainConfig | config_mod.EvalConfig, name: str, readers: dict[str | None, str]
) -> tuple[features.ProfileTable | None, features.VectorTable | None]:
    """The profiles of config section `name` if it names them, and its socio embeddings if a reader needs them.

    `readers` maps each socio input kind read (`Wiring.socio`) to its first
    reader; a "multihot" reader needs the profiles, an "embedding" one the table.
    This is the one check that they are there: the trainer builds the tables
    its wiring names from what this returns.
    """
    profiles = features.load_profiles(section.profiles) if section.profiles else None
    socio_table = None
    if "embedding" in readers:
        if not section.socio_embeddings or not os.path.exists(section.socio_embeddings):
            raise DataError(f"{readers['embedding']} need {name}.socio_embeddings (got {section.socio_embeddings!r})")
        socio_table = features.load_embeddings(section.socio_embeddings)
    if "multihot" in readers and profiles is None:
        raise DataError(f"{readers['multihot']} need {name}.profiles (got {section.profiles!r})")
    return profiles, socio_table


# ----------------------------------------------------------------- synth

def cmd_synth(cfg: config_mod.PipelineConfig) -> int:
    from . import synth

    spec = cfg.synth
    out = os.path.join(cfg.output_dir, "synth")
    os.makedirs(out, exist_ok=True)
    population = synth.generate_population(spec)
    text_corpus = synth.generate_corpus(spec)
    dataset = synth.generate_annotations(population, text_corpus, spec)

    corpus.save_annotations(dataset, os.path.join(out, "annotations.csv"))
    features.save_profiles(population, os.path.join(out, "profiles.csv"))
    features.save_vector_csv(text_corpus.embeddings, os.path.join(out, "embeddings.csv"), "key")
    if spec.socio_embedding_dim:
        table = synth.generate_socio_embeddings(population, spec.socio_embedding_dim, spec.seed)
        features.save_vector_csv(table, os.path.join(out, "socio_embeddings.csv"), "key")
    stats = dataset.stats
    features.write_json(os.path.join(out, "stats.json"), stats)
    _log(cfg, f"synth: {stats['records']} annotations over {stats['unique_texts']} texts -> {out}")
    return 0


# ------------------------------------------------------------------ prep

def cmd_prep(cfg: config_mod.PipelineConfig) -> int:
    p = cfg.prep
    out = os.path.join(cfg.output_dir, "prep")
    os.makedirs(out, exist_ok=True)
    dataset = corpus.load_annotations(p.annotations, p.columns)
    if p.profiles:
        dataset = corpus.attach_profiles(dataset, features.load_profiles(p.profiles))
    dataset, report = corpus.filter_dataset(
        dataset, p.min_annotators_per_text, p.min_annotations_per_annotator
    )
    split = corpus.split_by_text(dataset, p.train_fraction, p.seed)
    corpus.save_annotations(split.train, os.path.join(out, "train.csv"), p.columns)
    corpus.save_annotations(split.test, os.path.join(out, "test.csv"), p.columns)
    features.write_json(os.path.join(out, "filter_report.json"), asdict(report))
    features.write_json(
        os.path.join(out, "stats.json"),
        {
            "seed": p.seed,
            "train_fraction": p.train_fraction,
            "train": split.train.stats,
            "test": split.test.stats,
        },
    )
    _log(
        cfg,
        f"prep: retained {report.retained_records} records "
        f"({len(split.train.records)} train / {len(split.test.records)} test) -> {out}",
    )
    return 0


# ----------------------------------------------------------------- train

def cmd_train(cfg: config_mod.PipelineConfig) -> int:
    t = cfg.train
    text_table = features.load_embeddings(t.embeddings)
    readers: dict[str | None, str] = {}  # socio input kind -> the first variant whose runs read it
    for run in t.runs:
        readers.setdefault(WIRING[run.variant].socio, f"{run.variant} runs")
    # every input a suite needs is checked before the first suite trains
    all_profiles, socio_table = _socio_inputs(t, "train", readers)
    train_ds = corpus.load_annotations(t.train_annotations, t.columns)
    # training reads only the test split's texts, for the leak check
    test_ds = corpus.load_annotations(t.test_annotations, t.columns)
    if "multihot" in readers:
        # the other suites ignore the profiles
        train_ds = corpus.attach_profiles(train_ds, all_profiles)
    split = corpus.SplitPair(train=train_ds, test=test_ds)

    # (output label, config) per suite; the ablation arm follows its weighted twin
    suites = []
    for run in t.runs:
        suites.append((run.variant, run))
        if WIRING[run.variant].projected and t.ablation:
            suites.append(("ablation", replace(run, contrastive_weight=0.0)))

    # the projected runs write the representations of every profiled annotator; no other run reads the table
    profiles = all_profiles if any(WIRING[run.variant].projected for run in t.runs) else None
    train_root = os.path.join(cfg.output_dir, "train")
    runs = sum(len(run_cfg.seeds) for _, run_cfg in suites)
    _log(cfg, f"train: {runs} runs over {len(suites)} suites -> {train_root}")
    trainer.train_suites(
        [(run_cfg, os.path.join(train_root, label)) for label, run_cfg in suites],
        split, text_table, socio_table, dump_plan=t.dump_plan, profiles=profiles,
    )
    return 0


# ------------------------------------------------------------------ eval

METRIC_KEYS = ("precision", "recall", "f1", "auc")  # the columns of every metrics table eval and report write


def _discover_checkpoints(root: str) -> dict[str, list[tuple[int, str, ModelParams]]]:
    """Map suite label -> [(seed, checkpoint_dir, model)] under `root`, sorted by seed.

    `root` is one checkpoint directory, a suite directory of
    `seed<N>/checkpoint/` runs, or a train root of suite directories.
    Any `seed*/checkpoint/manifest.json` directly under `root` makes it a
    suite directory, and then no suite directory beside those runs is read.
    Manifests are read in suite-label then seed-directory-name order, each
    here and only here: the model is `read_manifest`'s checked, zeroed one,
    which `load_checkpoint` fills.
    """
    if not os.path.exists(root):
        raise DataError(f"checkpoint path does not exist: {root}")
    if os.path.exists(os.path.join(root, "manifest.json")):
        params, seed = read_manifest(root)
        return {params.spec.variant: [(seed, root, params)]}
    base = Path(root)  # Path.glob's `*` matches dot-directories; glob.glob's needs include_hidden (Python 3.11)
    for pattern in ("seed*/checkpoint/manifest.json", "*/seed*/checkpoint/manifest.json"):
        runs = sorted(path.relative_to(base).parts[:-2] for path in base.glob(pattern))
        if runs:
            break
    found: dict[str, list[tuple[int, str, ModelParams]]] = {}
    for *suite, run in runs:
        if not run[4:].isdecimal():
            raise DataError(f"checkpoint directory {os.path.join(root, *suite, run)} is not named seed<N>")
        ckpt = os.path.join(root, *suite, run, "checkpoint")
        label = suite[0] if suite else os.path.basename(root.rstrip("/"))
        found.setdefault(label, []).append((int(run[4:]), ckpt, read_manifest(ckpt)[0]))
    if not found:
        raise DataError(f"no checkpoints found under {root}")
    return {label: sorted(entries) for label, entries in found.items()}


def cmd_eval(cfg: config_mod.PipelineConfig) -> int:
    from . import metrics

    e = cfg.eval
    text_table = features.load_embeddings(e.embeddings)
    by_variant = _discover_checkpoints(e.checkpoints)
    readers: dict[str | None, str] = {}  # socio input kind -> the first variant directory whose checkpoints read it
    for name, entries in sorted(by_variant.items()):
        for _, _, params in entries:
            readers.setdefault(params.spec.wiring.socio, f"{name} checkpoints")
    # every input a checkpoint needs is checked before the first variant is scored
    all_profiles, socio_table = _socio_inputs(e, "eval", readers)
    dataset = corpus.load_annotations(e.annotations, e.columns)
    schema = record_codes = None
    if all_profiles is not None:
        dataset = corpus.attach_profiles(dataset, all_profiles)
        # every suite's groups are sliced under one schema of the eval profiles, by one code row per record
        schema = features.build_schema(all_profiles)
        record_codes = schema.encode(dataset.profiles)[dataset.records["annotator"]]
    labels = dataset.records["label"]
    eval_root = os.path.join(cfg.output_dir, "eval")

    for variant, entries in sorted(by_variant.items()):
        out = os.path.join(eval_root, variant)
        os.makedirs(out, exist_ok=True)
        reports = []
        groups_by_seed = []
        fallback_rows = 0
        while entries:
            # popped, so no filled model outlives its scoring
            seed, ckpt, params = entries.pop(0)
            probs, fallback = trainer.predict(load_checkpoint(params, ckpt), dataset, text_table, socio_table)
            fallback_rows += fallback
            report = metrics.confusion_metrics(probs, labels)
            reports.append(report)
            if report.auc is not None:  # the curve is defined exactly where the AUC is
                points = metrics.roc_curve(probs, labels)
                features.write_csv(os.path.join(out, f"roc_seed{seed}.csv"), ["threshold", "fpr", "tpr"], points)
            if schema is not None:
                groups_by_seed.append(metrics.group_breakdown(probs, labels, record_codes, schema))
        agg = metrics.aggregate_runs(reports)
        payload = {
            "variant": variant,
            "per_seed": [asdict(r) for r in reports],
            "aggregate": {k: {"mean": m, "std": s} for k, (m, s) in agg.items()},
            "unknown_annotator_rows": fallback_rows,
        }
        features.write_json(os.path.join(out, "metrics.json"), payload)
        _write_metrics_csv(os.path.join(out, "metrics.csv"), variant, reports, agg)
        if groups_by_seed:
            _write_groups_csv(os.path.join(out, "groups.csv"), groups_by_seed)
        _log(cfg, f"eval: {variant} -> {out}")
    return 0


def _stat_cells(agg: dict[str, tuple[float, float]], stat: int) -> list[float | None]:
    """Each metric's mean (`stat` 0) or std (1) in `agg`, in METRIC_KEYS order; None where one is absent."""
    return [agg[key][stat] if key in agg else None for key in METRIC_KEYS]


def _write_metrics_csv(path: str, variant: str, reports, agg: dict[str, tuple[float, float]]) -> None:
    """One row per seed's report, then the mean and std rows of `agg`, their aggregate."""
    rows = [[variant, i, r.precision, r.recall, r.f1, r.auc] for i, r in enumerate(reports)]
    features.write_csv(path, ["model", "run", *METRIC_KEYS],
                       rows + [[variant, "mean", *_stat_cells(agg, 0)], [variant, "std", *_stat_cells(agg, 1)]])


def _write_groups_csv(path: str, groups_by_seed) -> None:
    """Metrics averaged over seeds, one row per `group_breakdown` key; every seed's table has the same keys."""
    from . import metrics

    rows = []
    for attribute, category in groups_by_seed[0]:
        reports = [table[attribute, category] for table in groups_by_seed]
        rows.append([attribute, category, reports[0].n, *_stat_cells(metrics.aggregate_runs(reports), 0)])
    features.write_csv(path, ["attribute", "category", "n", *METRIC_KEYS], rows)


# ------------------------------------------------------------- homophily

def cmd_homophily(cfg: config_mod.PipelineConfig) -> int:
    from . import homophily

    h = cfg.homophily
    reps = homophily.load_representations(h.representations)
    profiles = features.load_profiles(h.profiles)
    schema = features.build_schema(profiles)
    space = homophily.RepSpace.from_representations(reps, profiles, schema)
    rows = homophily.homophily_table(space, k=h.k, iterations=h.iterations, seed=h.seed, attributes=h.attributes)
    out = os.path.join(cfg.output_dir, "homophily")
    os.makedirs(out, exist_ok=True)
    features.write_json(os.path.join(out, "homophily.json"), {"rows": [asdict(r) for r in rows]})
    features.write_csv(
        os.path.join(out, "homophily.csv"),
        ["attribute", "observed", "observed_std", "random", "random_std", "ratio", "ratio_std", "k", "iterations"],
        ([r.attribute, r.observed_mean, r.observed_std, r.chance_mean, r.chance_std, r.ratio_mean, r.ratio_std,
          r.k, r.iterations] for r in rows),
    )
    for r in rows:
        _log(cfg, f"homophily: {r.attribute}: ratio {r.ratio_mean:.3f} ± {r.ratio_std:.3f}")
    return 0


# ---------------------------------------------------------------- report

def _fmt_pm(mean: float, std: float) -> str:
    return f"{mean:.3f} ± {std:.3f}"


def _read_input(path: str, parse):
    """`parse` applied to one report input, opened as text; anything malformed is a DataError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh)
    except (ValueError, KeyError, TypeError, csv.Error) as exc:
        raise DataError(f"{path}: malformed report input: {exc!r}") from None


def _parse_aggregate(fh) -> dict[str, tuple[float, float]]:
    """(mean, std) per metric of an eval metrics.json; AUC may be absent."""
    agg = json.load(fh)["aggregate"]
    return {
        key: (float(agg[key]["mean"]), float(agg[key]["std"]))
        for key in METRIC_KEYS if key != "auc" or key in agg
    }


def _parse_groups(fh) -> dict[tuple[str, str], tuple[int, float]]:
    # one dict per row as csv.DictReader builds it: a cell a short row lacks is None
    names, rows = features.csv_rows(fh)
    rows = (dict(zip(names, row + [None] * (len(names) - len(row)))) for _, row in rows)
    return {(row["attribute"], row["category"]): (int(row["n"]), float(row["f1"])) for row in rows}


def _parse_homophily(fh) -> list[list[str]]:
    return [
        [r["attribute"], _fmt_pm(r["observed_mean"], r["observed_std"]),
         _fmt_pm(r["chance_mean"], r["chance_std"]), _fmt_pm(r["ratio_mean"], r["ratio_std"])]
        for r in json.load(fh)["rows"]
    ]


def _table(header: list[str], rows) -> list[str]:
    """A markdown table: the header line, its `|---|` rule and one line per row of cells, each `|` in a cell escaped."""
    lines = ["| " + " | ".join(str(cell).replace("|", r"\|") for cell in row) + " |" for row in [header, *rows]]
    return [lines[0], "|" + "---|" * len(header), *lines[1:]]


def cmd_report(cfg: config_mod.PipelineConfig) -> int:
    out_dir = cfg.output_dir
    report_dir = os.path.join(out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    gaps: list[str] = []
    # (title, body lines or None where its input is missing, the gap it then adds)
    sections: list[tuple[str, list[str] | None, str | None]] = []

    # the paper's suites first, each one missing a gap line, then every other suite eval scored, sorted
    paper = [*VARIANTS, "ablation"]
    scored = {path.parent.name for path in Path(out_dir, "eval").glob("*/metrics.json")}
    order = paper + sorted(scored - set(paper))
    rows = []
    for variant in order:
        path = os.path.join(out_dir, "eval", variant, "metrics.json")
        if not os.path.exists(path):
            gaps.append(f"no metrics for variant {variant!r}")
            continue
        rows.append((variant, _read_input(path, _parse_aggregate)))
    model_rows, summary = [], []
    for variant, agg in rows:
        model_rows.append([variant, *(_fmt_pm(*agg[key]) if key in agg else "-" for key in METRIC_KEYS)])
        means, stds = _stat_cells(agg, 0), _stat_cells(agg, 1)
        summary.append([variant, *(cell for pair in zip(means, stds) for cell in pair)])
    models = ["_no model metrics found_"]
    if rows:
        models = _table(["Model", "Precision", "Recall", "F1", "AUC"], model_rows)
    sections.append(("Model comparison (individual annotator labels, test split)", models, None))

    by_name = dict(rows)
    ablation = None
    if "socio_contrastive" in by_name and "ablation" in by_name:
        delta = by_name["socio_contrastive"]["f1"][0] - by_name["ablation"]["f1"][0]
        ablation = [f"F1 gain from the contrastive term: {delta:+.4f}"]
    sections.append(("Contrastive ablation", ablation, "no ablation artifacts"))

    group_tables: dict[str, dict[tuple[str, str], tuple[int, float]]] = {}
    for variant in order:
        path = os.path.join(out_dir, "eval", variant, "groups.csv")
        table = _read_input(path, _parse_groups) if os.path.exists(path) else None
        if table:
            group_tables[variant] = table
    groups = None
    if group_tables:
        group_rows = []
        for key in sorted({key for table in group_tables.values() for key in table}):
            n = next(table[key][0] for table in group_tables.values() if key in table)
            f1s = [f"{table[key][1]:.3f}" if key in table else "-" for table in group_tables.values()]
            group_rows.append([*key, n, *f1s])
        groups = _table(["Attribute", "Category", "n", *group_tables], group_rows)
    sections.append(("Group slices (F1 by socio-demographic category)", groups, "no group breakdown artifacts"))

    homophily_json = os.path.join(out_dir, "homophily", "homophily.json")
    homophily_table = None
    if os.path.exists(homophily_json):
        cells = _read_input(homophily_json, _parse_homophily)
        homophily_table = _table(["Attribute", "Observed", "Random", "Ratio"], cells)
    sections.append(("Homophily of learned annotator representations", homophily_table, "no homophily artifacts"))

    lines = ["# Pipeline report", ""]
    for title, body, gap in sections:
        if body is None:
            gaps.append(gap)
            body = ["_not available_"]
        lines += [f"## {title}", "", *body, ""]
    if gaps:
        lines += ["## Gaps", "", *(f"- {gap}" for gap in gaps), ""]
    with open(os.path.join(report_dir, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))

    features.write_csv(
        os.path.join(report_dir, "summary.csv"),
        ["model", "precision_mean", "precision_std", "recall_mean", "recall_std", "f1_mean", "f1_std",
         "auc_mean", "auc_std"],
        summary,
    )

    for gap in gaps:
        _log(cfg, f"report: warning: {gap}")
    _log(cfg, f"report -> {report_dir}")
    return 0


# ------------------------------------------------------------------ main

def _apply_overrides(args) -> tuple[dict[str, dict], list[str]]:
    """The raw config fields the command's flags set, and those flags as given.

    A command accepts only the flags it reads (`build_parser`); `load_config`
    then validates the fields they set like any value from the file.
    """
    sections: dict[str, dict] = {}
    flags: list[str] = []
    given = vars(args)
    if given.get("seed") is not None:
        flags.append(f"--seed {args.seed}")
        if args.command != "train":
            sections[args.command] = {"seed": args.seed}
        if args.command in ("train", "homophily"):
            # homophily's default representations path follows the first train seed
            sections["train"] = {"seeds": [args.seed]}
    for flag, field, value in (
        ("--variant", "variant", given.get("variant")),
        ("--lambda", "contrastive_weight", given.get("contrastive_weight")),
        ("--dump-plan", "dump_plan", given.get("dump_plan") or None),
    ):
        if value is not None:
            sections.setdefault("train", {})[field] = value
            flags.append(flag if value is True else f"{flag} {value}")
    return sections, flags


_ERROR_PREFIXES = {
    ConfigError.exit_code: "config error",
    DataError.exit_code: "data error",
    NumericError.exit_code: "numeric error",
}

COMMANDS = {
    "prep": cmd_prep,
    "train": cmd_train,
    "eval": cmd_eval,
    "homophily": cmd_homophily,
    "synth": cmd_synth,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sociolens",
        description="Perspective modeling pipeline: prep, train, eval, homophily, synth, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        if name in ("synth", "prep", "train", "homophily"):
            p.add_argument("--seed", type=int, default=None, help="override the command's seed(s)")
        if name == "train":
            p.add_argument("--variant", default=None, help="train only this variant")
            p.add_argument("--lambda", dest="contrastive_weight", type=float, default=None,
                           help="override the contrastive loss weight")
            p.add_argument("--dump-plan", action="store_true", help="emit batch plans as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides, flags = _apply_overrides(args)
        try:
            cfg = config_mod.load_config(args.config, overrides)
        except ConfigError as exc:
            if not flags:
                raise
            raise ConfigError(f"{exc} (with {' '.join(flags)})") from exc
        if args.command != "report" and getattr(cfg, args.command) is None:
            raise ConfigError(f"config has no {args.command} section")
        return COMMANDS[args.command](cfg)
    except (SociolensError, OSError) as exc:
        # an unreadable or unwritable file is a data error
        code = exc.exit_code if isinstance(exc, SociolensError) else DataError.exit_code
        print(f"{_ERROR_PREFIXES.get(code, 'error')}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
