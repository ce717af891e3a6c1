"""Subcommand CLI: prep | train | eval | homophily | synth | report.

Every command reads one JSON config (--config) plus a few override
flags, which are written into the config before it is validated, so a
flag is checked like the field it sets. Each command writes all
artifacts under the configured output directory, never mutates its
inputs, and reads each input file once. `train` runs one list of suites,
each under `train/<label>`: every configured variant, and with
`train.ablation` the `ablation` suite (socio_contrastive at contrastive
weight 0) straight after socio_contrastive. Their runs train in one
worker pool (`trainer.train_suites`), and a suite's aggregate and
representations are written once all its runs are back. Exit codes:
0 success, 2 config error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import replace

from . import config as config_mod
from . import corpus, features, homophily, metrics, synth, trainer
from .errors import ConfigError, DataError, NumericError, SociolensError
from .model import VARIANTS, WIRING, load_checkpoint
from .trainer import SuiteResult, TrainedRun


def _log(cfg, message: str) -> None:
    if cfg.verbosity:
        print(message, file=sys.stderr)


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_labels(path: str, columns: corpus.ColumnMapping) -> corpus.Dataset:
    return corpus.binarize(corpus.load_annotations(path, columns))


# ----------------------------------------------------------------- synth

def cmd_synth(cfg: config_mod.PipelineConfig) -> int:
    if cfg.synth is None:
        raise ConfigError("config has no synth section")
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
    _write_json(os.path.join(out, "stats.json"), stats)
    _log(cfg, f"synth: {stats['records']} annotations over {stats['unique_texts']} texts -> {out}")
    return 0


# ------------------------------------------------------------------ prep

def cmd_prep(cfg: config_mod.PipelineConfig) -> int:
    if cfg.prep is None:
        raise ConfigError("config has no prep section")
    p = cfg.prep
    out = os.path.join(cfg.output_dir, "prep")
    os.makedirs(out, exist_ok=True)
    dataset = corpus.load_annotations(p.annotations, p.columns)
    if p.profiles:
        dataset = corpus.attach_profiles(dataset, features.load_profiles(p.profiles))
    dataset = corpus.binarize(dataset)
    dataset, report = corpus.filter_dataset(
        dataset, p.min_annotators_per_text, p.min_annotations_per_annotator
    )
    split = corpus.split_by_text(dataset, p.train_fraction, p.seed)
    corpus.save_annotations(split.train, os.path.join(out, "train.csv"), p.columns)
    corpus.save_annotations(split.test, os.path.join(out, "test.csv"), p.columns)
    _write_json(os.path.join(out, "filter_report.json"), report.to_dict())
    _write_json(
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
    if cfg.train is None:
        raise ConfigError("config has no train section")
    t = cfg.train
    text_table = features.load_embeddings(t.embeddings)
    all_profiles = features.load_profiles(t.profiles) if t.profiles else None
    train_ds = _load_labels(t.train_annotations, t.columns)
    test_ds = _load_labels(t.test_annotations, t.columns)
    # every input a suite needs is checked before the first suite trains
    socio_table = None
    if any(WIRING[run.variant].socio == "embedding" for run in t.runs):
        if not t.socio_embeddings or not os.path.exists(t.socio_embeddings):
            raise DataError(
                "socio_embedding variant needs train.socio_embeddings "
                f"(got {t.socio_embeddings!r})"
            )
        socio_table = features.load_embeddings(t.socio_embeddings)
    socio_variants = [run.variant for run in t.runs if WIRING[run.variant].socio is not None]
    if socio_variants:
        if all_profiles is None:
            raise DataError(f"variant {socio_variants[0]} needs a profiles file")
        # the other suites ignore the profiles
        train_ds = corpus.attach_profiles(train_ds, all_profiles)
        test_ds = corpus.attach_profiles(test_ds, all_profiles)
    split = corpus.SplitPair(train=train_ds, test=test_ds)

    # (output label, config) per suite; the ablation arm follows its weighted twin
    suites = []
    for run in t.runs:
        suites.append((run.variant, run))
        if WIRING[run.variant].projected and t.ablation:
            suites.append(("ablation", replace(run, contrastive_weight=0.0)))

    train_root = os.path.join(cfg.output_dir, "train")
    _log(cfg, f"train: {sum(len(run_cfg.seeds) for _, run_cfg in suites)} runs over {len(suites)} suites")
    f1_means: dict[str, float] = {}
    results = trainer.train_suites(
        [(run_cfg, os.path.join(train_root, label)) for label, run_cfg in suites],
        split, text_table, socio_table, dump_plan=t.dump_plan,
    )
    with contextlib.closing(results):
        for (label, _), suite in zip(suites, results):
            suite_dir = os.path.join(train_root, label)
            _finish_suite(cfg, label, suite, suite_dir, all_profiles)
            f1_means[label] = suite.aggregate["f1"][0]
            if label == "ablation":
                delta = f1_means["socio_contrastive"] - f1_means["ablation"]
                _write_json(os.path.join(train_root, "ablation_delta.json"), {"f1_delta": delta})
                _log(cfg, f"train: ablation F1 delta = {delta:+.4f}")
    return 0


def _finish_suite(cfg, label: str, suite: SuiteResult, suite_dir: str, all_profiles) -> None:
    _write_json(os.path.join(suite_dir, "aggregate.json"), suite.to_dict())
    if WIRING[suite.config.variant].projected and all_profiles is not None:
        for run in suite.runs:
            reps = trainer.export_representations(run, all_profiles)
            path = os.path.join(suite_dir, f"seed{run.seed}", "representations.csv")
            features.save_vector_csv(reps, path, "annotator_id")
    f1_mean, f1_std = suite.aggregate["f1"]
    _log(cfg, f"train: {label} F1 = {f1_mean:.4f} ± {f1_std:.4f} -> {suite_dir}")


# ------------------------------------------------------------------ eval

def _discover_checkpoints(root: str) -> dict[str, list[tuple[int, str]]]:
    """Map variant name -> [(seed, checkpoint_dir)] under `root`, sorted by seed."""
    if not os.path.exists(root):
        raise DataError(f"checkpoint path does not exist: {root}")
    if os.path.exists(os.path.join(root, "manifest.json")):
        params, seed, _, _ = load_checkpoint(root)
        return {params.spec.variant: [(seed, root)]}
    found: dict[str, list[tuple[int, str]]] = {}

    def scan_variant_dir(name: str, path: str) -> None:
        entries = []
        for child in sorted(os.listdir(path)):
            ckpt = os.path.join(path, child, "checkpoint")
            if child.startswith("seed") and os.path.exists(os.path.join(ckpt, "manifest.json")):
                if not child[4:].isdecimal():
                    raise DataError(f"checkpoint directory {os.path.join(path, child)} is not named seed<N>")
                entries.append((int(child[4:]), ckpt))
        if entries:
            found[name] = sorted(entries)

    for child in sorted(os.listdir(root)):
        path = os.path.join(root, child)
        if not os.path.isdir(path):
            continue
        if child.startswith("seed") and os.path.exists(os.path.join(path, "checkpoint", "manifest.json")):
            scan_variant_dir(os.path.basename(root.rstrip("/")), root)
            break
        scan_variant_dir(child, path)
    if not found:
        raise DataError(f"no checkpoints found under {root}")
    return found


def _run_from_checkpoint(ckpt_dir: str) -> TrainedRun:
    params, seed, schema, annotator_index = load_checkpoint(ckpt_dir)
    return TrainedRun(seed=seed, params=params, schema=schema, annotator_index=annotator_index, log_rows=[])


def _write_roc_csv(path: str, points) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for threshold, fpr, tpr in points:
            writer.writerow([repr(threshold), repr(fpr), repr(tpr)])


def cmd_eval(cfg: config_mod.PipelineConfig) -> int:
    if cfg.eval is None:
        raise ConfigError("config has no eval section")
    e = cfg.eval
    text_table = features.load_embeddings(e.embeddings)
    socio_table = (
        features.load_embeddings(e.socio_embeddings)
        if e.socio_embeddings and os.path.exists(e.socio_embeddings)
        else None
    )
    all_profiles = features.load_profiles(e.profiles) if e.profiles else None
    by_variant = _discover_checkpoints(e.checkpoints)
    dataset = _load_labels(e.annotations, e.columns)
    schema = None
    if all_profiles is not None:
        dataset = corpus.attach_profiles(dataset, all_profiles)
        # every variant's groups are sliced under one schema of the eval profiles
        schema = features.build_schema(all_profiles)
    eval_root = os.path.join(cfg.output_dir, "eval")

    for variant, entries in sorted(by_variant.items()):
        out = os.path.join(eval_root, variant)
        os.makedirs(out, exist_ok=True)
        reports = []
        groups_by_seed = []
        fallback_rows = 0
        for seed, ckpt in entries:
            run = _run_from_checkpoint(ckpt)
            probs, labels, fallback = trainer.predict(run, dataset, text_table, socio_table)
            fallback_rows += fallback
            report = metrics.confusion_metrics(probs, labels)
            reports.append(report)
            try:
                points = metrics.roc_curve(probs, labels)
                _write_roc_csv(os.path.join(out, f"roc_seed{seed}.csv"), points)
            except DataError:
                pass
            if schema is not None:
                groups_by_seed.append(metrics.group_breakdown(
                    probs, labels, dataset.records["annotator"], dataset.profiles, schema
                ))
        payload = {
            "variant": variant,
            "per_seed": [r.to_dict() for r in reports],
            "aggregate": {
                k: {"mean": m, "std": s} for k, (m, s) in metrics.aggregate_runs(reports).items()
            },
            "unknown_annotator_rows": fallback_rows,
        }
        _write_json(os.path.join(out, "metrics.json"), payload)
        _write_metrics_csv(os.path.join(out, "metrics.csv"), variant, reports)
        if groups_by_seed:
            _write_groups_csv(os.path.join(out, "groups.csv"), groups_by_seed)
        _log(cfg, f"eval: {variant} -> {out}")
    return 0


def _write_metrics_csv(path: str, variant: str, reports) -> None:
    agg = metrics.aggregate_runs(reports)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "run", "precision", "recall", "f1", "auc"])
        for i, r in enumerate(reports):
            writer.writerow([variant, i, repr(r.precision), repr(r.recall), repr(r.f1),
                             repr(r.auc) if r.auc is not None else ""])
        mean_row = ["mean"] + [repr(agg[k][0]) if k in agg else "" for k in ("precision", "recall", "f1", "auc")]
        std_row = ["std"] + [repr(agg[k][1]) if k in agg else "" for k in ("precision", "recall", "f1", "auc")]
        writer.writerow([variant] + mean_row)
        writer.writerow([variant] + std_row)


def _write_groups_csv(path: str, groups_by_seed) -> None:
    """Per-category F1 averaged over seeds, one row per (attribute, category, n)."""
    acc: dict[tuple[str, str], list] = {}
    for group_reports in groups_by_seed:
        for g in group_reports:
            for category, report in g.categories.items():
                acc.setdefault((g.attribute, category), []).append(report)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["attribute", "category", "n", "precision", "recall", "f1", "auc"])
        for (attribute, category), reports in acc.items():
            agg = metrics.aggregate_runs(reports)
            writer.writerow(
                [
                    attribute,
                    category,
                    reports[0].n,
                    repr(agg["precision"][0]),
                    repr(agg["recall"][0]),
                    repr(agg["f1"][0]),
                    repr(agg["auc"][0]) if "auc" in agg else "",
                ]
            )


# ------------------------------------------------------------- homophily

def cmd_homophily(cfg: config_mod.PipelineConfig) -> int:
    if cfg.homophily is None:
        raise ConfigError("config has no homophily section")
    h = cfg.homophily
    reps = homophily.load_representations(h.representations)
    profiles = features.load_profiles(h.profiles)
    schema = features.build_schema(profiles)
    space = homophily.RepSpace.from_representations(reps, profiles, schema)
    rows = homophily.homophily_table(
        space, k=h.k, iterations=h.iterations, seed=h.seed, metric=h.metric, attributes=h.attributes
    )
    out = os.path.join(cfg.output_dir, "homophily")
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "homophily.json"), {"rows": [r.to_dict() for r in rows]})
    with open(os.path.join(out, "homophily.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["attribute", "observed", "observed_std", "random", "random_std",
             "ratio", "ratio_std", "k", "iterations"]
        )
        for r in rows:
            writer.writerow(
                [r.attribute, repr(r.observed_mean), repr(r.observed_std), repr(r.chance_mean),
                 repr(r.chance_std), repr(r.ratio_mean), repr(r.ratio_std), r.k, r.iterations]
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
    """(mean, std) per metric of a metrics.json or aggregate.json; AUC may be absent."""
    agg = json.load(fh)["aggregate"]
    return {
        key: (float(agg[key]["mean"]), float(agg[key]["std"]))
        for key in ("precision", "recall", "f1", "auc") if key != "auc" or key in agg
    }


def _parse_groups(fh) -> dict[tuple[str, str], tuple[int, float]]:
    return {(row["attribute"], row["category"]): (int(row["n"]), float(row["f1"])) for row in csv.DictReader(fh)}


def _parse_homophily(fh) -> list[str]:
    return [
        f"| {r['attribute']} | {_fmt_pm(r['observed_mean'], r['observed_std'])} "
        f"| {_fmt_pm(r['chance_mean'], r['chance_std'])} "
        f"| {_fmt_pm(r['ratio_mean'], r['ratio_std'])} |"
        for r in json.load(fh)["rows"]
    ]


def cmd_report(cfg: config_mod.PipelineConfig) -> int:
    out_dir = cfg.output_dir
    report_dir = os.path.join(out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    gaps: list[str] = []
    lines: list[str] = ["# Pipeline report", ""]

    order = [*VARIANTS, "ablation"]
    rows = []
    for variant in order:
        # eval's metrics, else the train-time scores of the same split
        paths = [os.path.join(out_dir, "eval", variant, "metrics.json"),
                 os.path.join(out_dir, "train", variant, "aggregate.json")]
        path = next((p for p in paths if os.path.exists(p)), None)
        if path is None:
            gaps.append(f"no metrics for variant {variant!r}")
            continue
        rows.append((variant, _read_input(path, _parse_aggregate)))

    lines.append("## Model comparison (individual annotator labels, test split)")
    lines.append("")
    if rows:
        lines.append("| Model | Precision | Recall | F1 | AUC |")
        lines.append("|---|---|---|---|---|")
        for variant, agg in rows:
            cells = [_fmt_pm(*agg[key]) if key in agg else "-" for key in ("precision", "recall", "f1", "auc")]
            lines.append(f"| {variant} | " + " | ".join(cells) + " |")
    else:
        lines.append("_no model metrics found_")
    lines.append("")

    by_name = dict(rows)
    lines.append("## Contrastive ablation")
    lines.append("")
    if "socio_contrastive" in by_name and "ablation" in by_name:
        delta = by_name["socio_contrastive"]["f1"][0] - by_name["ablation"]["f1"][0]
        lines.append(f"F1 gain from the contrastive term: {delta:+.4f}")
    else:
        gaps.append("no ablation artifacts")
        lines.append("_not available_")
    lines.append("")

    lines.append("## Group slices (F1 by socio-demographic category)")
    lines.append("")
    group_tables: dict[str, dict[tuple[str, str], tuple[int, float]]] = {}
    for variant in order:
        path = os.path.join(out_dir, "eval", variant, "groups.csv")
        table = _read_input(path, _parse_groups) if os.path.exists(path) else None
        if table:
            group_tables[variant] = table
    if group_tables:
        keys = sorted({k for table in group_tables.values() for k in table})
        variants_present = [v for v in order if v in group_tables]
        lines.append("| Attribute | Category | n | " + " | ".join(variants_present) + " |")
        lines.append("|" + "---|" * (3 + len(variants_present)))
        for attribute, category in keys:
            n = next(
                (table[(attribute, category)][0] for table in group_tables.values()
                 if (attribute, category) in table),
                "",
            )
            cells = []
            for v in variants_present:
                entry = group_tables[v].get((attribute, category))
                cells.append(f"{entry[1]:.3f}" if entry else "-")
            lines.append(f"| {attribute} | {category} | {n} | " + " | ".join(cells) + " |")
    else:
        gaps.append("no group breakdown artifacts")
        lines.append("_not available_")
    lines.append("")

    lines.append("## Homophily of learned annotator representations")
    lines.append("")
    homophily_json = os.path.join(out_dir, "homophily", "homophily.json")
    if os.path.exists(homophily_json):
        lines.append("| Attribute | Observed | Random | Ratio |")
        lines.append("|---|---|---|---|")
        lines.extend(_read_input(homophily_json, _parse_homophily))
    else:
        gaps.append("no homophily artifacts")
        lines.append("_not available_")
    lines.append("")

    if gaps:
        lines.append("## Gaps")
        lines.append("")
        for gap in gaps:
            lines.append(f"- {gap}")
        lines.append("")

    with open(os.path.join(report_dir, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))

    with open(os.path.join(report_dir, "summary.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "precision_mean", "precision_std", "recall_mean", "recall_std",
                         "f1_mean", "f1_std", "auc_mean", "auc_std"])
        for variant, agg in rows:
            record = [variant]
            for key in ("precision", "recall", "f1", "auc"):
                record += [repr(value) for value in agg[key]] if key in agg else ["", ""]
            writer.writerow(record)

    for gap in gaps:
        _log(cfg, f"report: warning: {gap}")
    _log(cfg, f"report -> {report_dir}")
    return 0


# ------------------------------------------------------------------ main

def _apply_overrides(args) -> tuple[dict[str, dict], list[str]]:
    """The raw config fields the command's flags set, and those flags as given.

    Only fields the running command reads are set; `load_config` then
    validates them like any value from the file.
    """
    sections: dict[str, dict] = {}
    flags: list[str] = []
    if args.seed is not None and args.command in ("synth", "prep", "train", "homophily"):
        flags.append(f"--seed {args.seed}")
        if args.command != "train":
            sections[args.command] = {"seed": args.seed}
        if args.command in ("train", "homophily"):
            # homophily's default representations path follows the first train seed
            sections["train"] = {"seeds": [args.seed]}
    if args.command == "train":
        for flag, field, value in (
            ("--variant", "variant", args.variant),
            ("--lambda", "contrastive_weight", args.contrastive_weight),
            ("--dump-plan", "dump_plan", args.dump_plan or None),
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
        p.add_argument("--seed", type=int, default=None, help="override the command's seed(s)")
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
        return COMMANDS[args.command](cfg)
    except (SociolensError, OSError) as exc:
        # an unreadable or unwritable file is a data error
        code = exc.exit_code if isinstance(exc, SociolensError) else DataError.exit_code
        print(f"{_ERROR_PREFIXES.get(code, 'error')}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
