"""Subcommand CLI: prep | train | eval | homophily | synth | report.

Every command reads one JSON config (--config) plus a few override
flags, writes all artifacts under the configured output directory, and
never mutates its inputs. Exit codes: 0 success, 2 config error, 3 data
error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from . import config as config_mod
from . import corpus, features, homophily, metrics, synth, trainer
from .errors import ConfigError, DataError, NumericError, SociolensError
from .model import WIRING, load_checkpoint
from .trainer import SuiteResult, TrainedRun


def _log(cfg, level: int, message: str) -> None:
    if cfg.verbosity >= level:
        print(message, file=sys.stderr)


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_dataset(path: str, columns: dict[str, str], profiles_path: str | None):
    mapping = corpus.ColumnMapping(**columns)
    dataset = corpus.binarize(corpus.load_annotations(path, mapping))
    if profiles_path:
        profiles = features.load_profiles(profiles_path)
        dataset = corpus.attach_profiles(dataset, profiles)
    return dataset


def _stats_dict(dataset) -> dict:
    stats = dataset.stats
    return {
        "records": stats.records,
        "unique_texts": stats.unique_texts,
        "unique_annotators": stats.unique_annotators,
        "label_counts": {str(k): v for k, v in stats.label_counts.items()},
    }


# ----------------------------------------------------------------- synth

def cmd_synth(cfg: config_mod.PipelineConfig) -> int:
    if cfg.synth is None:
        raise ConfigError("config has no synth section")
    spec = cfg.synth.population
    out = os.path.join(cfg.output_dir, "synth")
    os.makedirs(out, exist_ok=True)
    population = synth.generate_population(spec)
    text_corpus = synth.generate_corpus(spec)
    dataset = synth.generate_annotations(population, text_corpus, spec)

    corpus.save_annotations(dataset, os.path.join(out, "annotations.csv"))
    features.save_profiles(population, os.path.join(out, "profiles.csv"))
    features.save_embeddings_csv(text_corpus.embeddings, os.path.join(out, "embeddings.csv"))
    if cfg.synth.socio_embedding_dim:
        table = synth.generate_socio_embeddings(population, cfg.synth.socio_embedding_dim, spec.seed)
        features.save_embeddings_csv(table, os.path.join(out, "socio_embeddings.csv"))
    stats = dataset.stats
    _write_json(os.path.join(out, "stats.json"), _stats_dict(dataset))
    _log(cfg, 1, f"synth: {stats.records} annotations over {stats.unique_texts} texts -> {out}")
    return 0


# ------------------------------------------------------------------ prep

def cmd_prep(cfg: config_mod.PipelineConfig) -> int:
    if cfg.prep is None:
        raise ConfigError("config has no prep section")
    p = cfg.prep
    out = os.path.join(cfg.output_dir, "prep")
    os.makedirs(out, exist_ok=True)
    mapping = corpus.ColumnMapping(**p.columns)
    dataset = corpus.load_annotations(p.annotations, mapping)
    if p.profiles:
        dataset = corpus.attach_profiles(dataset, features.load_profiles(p.profiles))
    dataset = corpus.binarize(dataset)
    dataset, report = corpus.filter_dataset(
        dataset, p.min_annotators_per_text, p.min_annotations_per_annotator
    )
    split = corpus.split_by_text(dataset, p.train_fraction, p.seed)
    corpus.save_annotations(split.train, os.path.join(out, "train.csv"), mapping)
    corpus.save_annotations(split.test, os.path.join(out, "test.csv"), mapping)
    _write_json(os.path.join(out, "filter_report.json"), report.to_dict())
    _write_json(
        os.path.join(out, "stats.json"),
        {
            "seed": p.seed,
            "train_fraction": p.train_fraction,
            "train": _stats_dict(split.train),
            "test": _stats_dict(split.test),
        },
    )
    _log(
        cfg, 1,
        f"prep: retained {report.retained_records} records "
        f"({split.train.stats.records} train / {split.test.stats.records} test) -> {out}",
    )
    return 0


# ----------------------------------------------------------------- train

def _load_split(t: config_mod.TrainConfig, need_profiles: bool) -> corpus.SplitPair:
    profiles_path = t.profiles if (t.profiles and need_profiles) else None
    train_ds = _load_dataset(t.train_annotations, t.columns, profiles_path)
    test_ds = _load_dataset(t.test_annotations, t.columns, profiles_path)
    overlap = {r.text_id for r in train_ds.records} & {r.text_id for r in test_ds.records}
    if overlap:
        raise DataError(f"train/test share text ids: {sorted(overlap)[:10]}")
    n_train = len(train_ds.text_ids())
    n_total = n_train + len(test_ds.text_ids())
    return corpus.SplitPair(
        train=train_ds, test=test_ds, seed=-1, train_fraction=n_train / n_total
    )


def cmd_train(cfg: config_mod.PipelineConfig) -> int:
    if cfg.train is None:
        raise ConfigError("config has no train section")
    t = cfg.train
    text_table = features.load_embeddings(t.embeddings)
    socio_table = None
    if any(WIRING[v].socio == "embedding" for v in t.variants):
        if not t.socio_embeddings or not os.path.exists(t.socio_embeddings):
            raise DataError(
                "socio_embedding variant needs train.socio_embeddings "
                f"(got {t.socio_embeddings!r})"
            )
        socio_table = features.load_embeddings(t.socio_embeddings)

    all_profiles = features.load_profiles(t.profiles) if t.profiles else None
    train_root = os.path.join(cfg.output_dir, "train")
    for variant in t.variants:
        need_profiles = WIRING[variant].socio is not None
        if need_profiles and all_profiles is None:
            raise DataError(f"variant {variant} needs a profiles file")
        split = _load_split(t, need_profiles)
        run_cfg = replace(t.run, variant=variant)
        _log(cfg, 1, f"train: {variant} x {len(run_cfg.seeds)} seeds")
        if WIRING[variant].projected and t.ablation:
            result = trainer.run_ablation(
                run_cfg, split, text_table, socio_table, train_root, threads=t.threads
            )
            _finish_suite(cfg, result.with_contrastive, os.path.join(train_root, "socio_contrastive"),
                          all_profiles, t.dump_plan)
            _finish_suite(cfg, result.without_contrastive, os.path.join(train_root, "ablation"),
                          all_profiles, t.dump_plan)
            _write_json(os.path.join(train_root, "ablation_delta.json"), {"f1_delta": result.f1_delta})
            _log(cfg, 1, f"train: ablation F1 delta = {result.f1_delta:+.4f}")
        else:
            variant_dir = os.path.join(train_root, variant)
            suite = trainer.train_suite(
                run_cfg, split, text_table, socio_table, variant_dir,
                threads=t.threads, dump_plan=t.dump_plan,
            )
            _finish_suite(cfg, suite, variant_dir, all_profiles, t.dump_plan)
    return 0


def _finish_suite(cfg, suite: SuiteResult, variant_dir: str, all_profiles, dump_plan: bool) -> None:
    _write_json(os.path.join(variant_dir, "aggregate.json"), suite.to_dict())
    if WIRING[suite.config.variant].projected and all_profiles is not None:
        for run in suite.runs:
            reps = trainer.export_representations(run, all_profiles)
            homophily.save_representations(
                reps, os.path.join(variant_dir, f"seed{run.seed}", "representations.csv")
            )
    f1_mean, f1_std = suite.aggregate["f1"]
    _log(cfg, 1, f"train: {suite.config.variant} F1 = {f1_mean:.4f} ± {f1_std:.4f} -> {variant_dir}")


# ------------------------------------------------------------------ eval

def _discover_checkpoints(root: str) -> dict[str, list[tuple[int, str]]]:
    """Map variant name -> [(seed, checkpoint_dir)] under `root`, sorted by seed."""
    if not os.path.exists(root):
        raise DataError(f"checkpoint path does not exist: {root}")
    if os.path.exists(os.path.join(root, "manifest.json")):
        with open(os.path.join(root, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        return {manifest["spec"]["variant"]: [(int(manifest["seed"]), root)]}
    found: dict[str, list[tuple[int, str]]] = {}

    def scan_variant_dir(name: str, path: str) -> None:
        entries = []
        for child in sorted(os.listdir(path)):
            ckpt = os.path.join(path, child, "checkpoint")
            if child.startswith("seed") and os.path.exists(os.path.join(ckpt, "manifest.json")):
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
    params, manifest = load_checkpoint(ckpt_dir)
    schema = features.SocioSchema.from_dict(manifest["schema"]) if manifest.get("schema") else None
    annotator_index = (
        {a: i for i, a in enumerate(manifest["annotators"])} if manifest.get("annotators") else None
    )
    return TrainedRun(
        seed=int(manifest["seed"]),
        params=params,
        schema=schema,
        annotator_index=annotator_index,
        log_rows=[],
        checkpoint_dir=ckpt_dir,
    )


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
    if e.embeddings is None:
        raise ConfigError("eval.embeddings is required")
    text_table = features.load_embeddings(e.embeddings)
    socio_table = (
        features.load_embeddings(e.socio_embeddings)
        if e.socio_embeddings and os.path.exists(e.socio_embeddings)
        else None
    )
    all_profiles = features.load_profiles(e.profiles) if e.profiles else None
    by_variant = _discover_checkpoints(e.checkpoints)
    eval_root = os.path.join(cfg.output_dir, "eval")

    for variant, entries in sorted(by_variant.items()):
        out = os.path.join(eval_root, variant)
        os.makedirs(out, exist_ok=True)
        reports = []
        groups_by_seed = []
        dataset = None
        fallback_rows = 0
        for seed, ckpt in entries:
            run = _run_from_checkpoint(ckpt)
            if dataset is None:
                needs_profiles = run.params.spec.wiring.socio is not None
                dataset = _load_dataset(
                    e.annotations, e.columns, e.profiles if (needs_profiles and e.profiles) else None
                )
            probs, labels, annotator_ids, fallback = trainer.predict(
                run, dataset, text_table, socio_table
            )
            fallback_rows += fallback
            report = metrics.with_auc(metrics.confusion_metrics(probs, labels), probs, labels)
            reports.append(report)
            try:
                points = metrics.roc_curve(probs, labels)
                _write_roc_csv(os.path.join(out, f"roc_seed{seed}.csv"), points)
            except DataError:
                pass
            if all_profiles is not None:
                schema = run.schema or features.build_schema(all_profiles)
                groups_by_seed.append(
                    metrics.group_breakdown(probs, labels, annotator_ids, all_profiles, schema)
                )
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
        _log(cfg, 1, f"eval: {variant} -> {out}")
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
        _log(cfg, 1, f"homophily: {r.attribute}: ratio {r.ratio_mean:.3f} ± {r.ratio_std:.3f}")
    return 0


# ---------------------------------------------------------------- report

def _fmt_pm(mean: float, std: float) -> str:
    return f"{mean:.3f} ± {std:.3f}"


def cmd_report(cfg: config_mod.PipelineConfig) -> int:
    out_dir = cfg.output_dir
    report_dir = os.path.join(out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    gaps: list[str] = []
    lines: list[str] = ["# Pipeline report", ""]

    order = ["simple", "multitask", "socio_multihot", "socio_embedding", "socio_contrastive", "ablation"]
    rows = []
    for variant in order:
        path = os.path.join(out_dir, "eval", variant, "metrics.json")
        fallback = os.path.join(out_dir, "train", variant, "aggregate.json")
        payload = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)["aggregate"]
        elif os.path.exists(fallback):
            with open(fallback, encoding="utf-8") as fh:
                payload = json.load(fh)["aggregate"]
        if payload is None:
            gaps.append(f"no metrics for variant {variant!r}")
            continue
        rows.append((variant, payload))

    lines.append("## Model comparison (individual annotator labels, test split)")
    lines.append("")
    if rows:
        lines.append("| Model | Precision | Recall | F1 | AUC |")
        lines.append("|---|---|---|---|---|")
        for variant, agg in rows:
            cells = []
            for key in ("precision", "recall", "f1", "auc"):
                if key in agg:
                    cells.append(_fmt_pm(agg[key]["mean"], agg[key]["std"]))
                else:
                    cells.append("-")
            lines.append(f"| {variant} | " + " | ".join(cells) + " |")
    else:
        lines.append("_no model metrics found_")
    lines.append("")

    delta_path = os.path.join(out_dir, "train", "ablation_delta.json")
    by_name = dict(rows)
    lines.append("## Contrastive ablation")
    lines.append("")
    if os.path.exists(delta_path):
        with open(delta_path, encoding="utf-8") as fh:
            delta = json.load(fh)["f1_delta"]
        lines.append(f"F1 gain from the contrastive term: {delta:+.4f}")
    elif "socio_contrastive" in by_name and "ablation" in by_name:
        delta = by_name["socio_contrastive"]["f1"]["mean"] - by_name["ablation"]["f1"]["mean"]
        lines.append(f"F1 gain from the contrastive term: {delta:+.4f}")
    else:
        gaps.append("no ablation artifacts")
        lines.append("_not available_")
    lines.append("")

    lines.append("## Group slices (F1 by socio-demographic category)")
    lines.append("")
    group_tables: dict[str, dict[tuple[str, str], tuple[str, str]]] = {}
    for variant in order:
        path = os.path.join(out_dir, "eval", variant, "groups.csv")
        if not os.path.exists(path):
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["attribute"], row["category"])
                group_tables.setdefault(variant, {})[key] = (row["n"], row["f1"])
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
                cells.append(f"{float(entry[1]):.3f}" if entry else "-")
            lines.append(f"| {attribute} | {category} | {n} | " + " | ".join(cells) + " |")
    else:
        gaps.append("no group breakdown artifacts")
        lines.append("_not available_")
    lines.append("")

    lines.append("## Homophily of learned annotator representations")
    lines.append("")
    homophily_json = os.path.join(out_dir, "homophily", "homophily.json")
    if os.path.exists(homophily_json):
        with open(homophily_json, encoding="utf-8") as fh:
            hrows = json.load(fh)["rows"]
        lines.append("| Attribute | Observed | Random | Ratio |")
        lines.append("|---|---|---|---|")
        for r in hrows:
            lines.append(
                f"| {r['attribute']} | {_fmt_pm(r['observed_mean'], r['observed_std'])} "
                f"| {_fmt_pm(r['chance_mean'], r['chance_std'])} "
                f"| {_fmt_pm(r['ratio_mean'], r['ratio_std'])} |"
            )
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
                if key in agg:
                    record += [repr(agg[key]["mean"]), repr(agg[key]["std"])]
                else:
                    record += ["", ""]
            writer.writerow(record)

    for gap in gaps:
        _log(cfg, 1, f"report: warning: {gap}")
    _log(cfg, 1, f"report -> {report_dir}")
    return 0


# ------------------------------------------------------------------ main

def _apply_overrides(cfg: config_mod.PipelineConfig, args) -> config_mod.PipelineConfig:
    if args.seed is not None:
        # prep alone accepts a negative seed: SplitMix64 masks it to 64 bits
        if args.seed < 0 and args.command in ("synth", "train", "homophily"):
            raise ConfigError(f"--seed must be >= 0 for {args.command}, got {args.seed}")
        if cfg.prep:
            cfg.prep.seed = args.seed
        if cfg.train:
            cfg.train = replace(cfg.train, run=replace(cfg.train.run, seeds=(args.seed,)))
        if cfg.homophily:
            cfg.homophily.seed = args.seed
        if cfg.synth:
            cfg.synth = config_mod.SynthConfig(
                population=replace(cfg.synth.population, seed=args.seed),
                socio_embedding_dim=cfg.synth.socio_embedding_dim,
            )
    if args.variant is not None and cfg.train:
        if args.variant not in config_mod.VARIANT_CHOICES:
            raise ConfigError(f"unknown variant {args.variant!r}")
        cfg.train = replace(
            cfg.train, variants=[args.variant], run=replace(cfg.train.run, variant=args.variant)
        )
    if getattr(args, "contrastive_weight", None) is not None and cfg.train:
        if args.contrastive_weight < 0:
            raise ConfigError("--lambda must be >= 0")
        cfg.train = replace(
            cfg.train, run=replace(cfg.train.run, contrastive_weight=args.contrastive_weight)
        )
    if args.threads is not None and cfg.train:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg.train = replace(cfg.train, threads=args.threads)
    if args.dump_plan and cfg.train:
        cfg.train = replace(cfg.train, dump_plan=True)
    return cfg


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
        p.add_argument("--variant", default=None, help="restrict train/eval to one variant")
        p.add_argument("--lambda", dest="contrastive_weight", type=float, default=None,
                       help="override the contrastive loss weight")
        p.add_argument("--threads", type=int, default=None, help="cap parallel runs")
        p.add_argument("--dump-plan", action="store_true", help="emit batch plans as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_mod.load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SociolensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
