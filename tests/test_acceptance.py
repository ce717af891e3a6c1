"""Acceptance gate: ten verifiable criteria over the whole pipeline.

Each test evaluates one criterion end to end at its stated tolerance and
prints one PASS/FAIL line (run with `pytest -s` to see the lines as they
happen). Every randomized check is seed-pinned, so results reproduce exactly.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    chance_probability,
    contrastive_loss_oracle,
    gradient_check_instance,
    make_dataset,
    pair_counting_auc,
    roc_curve_area,
    score_checkpoints,
    space_of,
)
from sociolens import corpus, homophily, metrics, synth, trainer
from sociolens.batcher import contrastive_masks, plan_epoch, text_match_mask
from sociolens.cli import main as cli_main
from sociolens.corpus import split_by_text
from sociolens.objectives import contrastive_loss
from sociolens.synth import AttributeSpec, PopulationSpec


def criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ------------------------------------------------------------------ 1, 2

def test_criterion_01_contrastive_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    taus = (0.05, 0.1, 1.0)
    start = time.monotonic()
    worst = 0.0
    checked = 0
    empty_checked = 0
    for i in range(1000):
        b = int(rng.integers(1, 17))
        dim = int(rng.integers(2, 10))
        E = rng.standard_normal((b, dim))
        labels = rng.integers(0, 2, size=b).astype(np.float64)
        if i % 5 == 0:
            text_ids = [f"t{j}" for j in range(b)]  # mask-empty batch
            empty_checked += 1
        else:
            text_ids = [f"t{rng.integers(0, max(1, b // 2))}" for _ in range(b)]
        tau = taus[i % 3]
        got = contrastive_loss(E, labels, text_ids, tau).loss
        want = contrastive_loss_oracle(E, labels, text_ids, tau)
        if len(set(text_ids)) == b:
            assert got == 0.0 and want == 0.0
        worst = max(worst, abs(got - want))
        checked += 1
    elapsed = time.monotonic() - start
    criterion(
        1,
        "contrastive oracle equivalence",
        worst < 1e-12 and elapsed < 10.0,
        f"(max |Δ| {worst:.2e} over {checked} batches, {empty_checked} mask-empty, {elapsed:.1f}s)",
    )


def test_criterion_02_hand_computed_anchors():
    e = np.zeros((2, 128))
    e[:, 0] = 1.0
    same = contrastive_loss(e, np.array([1.0, 1.0]), ["t", "t"], tau=1.0).loss
    diff = contrastive_loss(e, np.array([1.0, 0.0]), ["t", "t"], tau=1.0).loss
    err_same = abs(same - math.log(2))
    err_diff = abs(diff - 0.5)
    criterion(
        2,
        "hand-computed anchors",
        err_same < 1e-9 and err_diff < 1e-9,
        f"(same-label {same:.10f} vs ln2, diff-label {diff:.10f} vs 0.5)",
    )


# --------------------------------------------------------------------- 3

def test_criterion_03_gradient_verification():
    start = time.monotonic()
    worst = 0.0
    instances = 0
    for variant in ("simple", "multitask", "socio_multihot", "socio_embedding", "socio_contrastive"):
        for seed in range(12):
            worst = max(worst, gradient_check_instance(variant, seed))
            instances += 1
    elapsed = time.monotonic() - start
    criterion(
        3,
        "analytic vs finite-difference gradients",
        worst < 1e-4 and elapsed < 60.0 and instances >= 50,
        f"(worst rel err {worst:.2e} over {instances} instances, {elapsed:.1f}s)",
    )


# --------------------------------------------------------------------- 4

def test_criterion_04_batching_invariants():
    rng = np.random.default_rng(77)
    cases = 500
    for _ in range(cases):
        n_texts = int(rng.integers(1, 14))
        rows = []
        for t in range(n_texts):
            for j in range(int(rng.integers(1, 10))):
                rows.append((f"t{t}", f"a{t}_{j}", int(rng.integers(0, 2))))
        dataset = make_dataset(rows)
        batch_size = int(rng.integers(2, 9))
        batches = plan_epoch(dataset.records["text"], batch_size, int(rng.integers(0, 10**6))).to_jsonable()["batches"]

        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(len(rows))), "partition violated"
        assert all(len(b) <= batch_size for b in batches), "batch size exceeded"
        assert all(len(b) == batch_size for b in batches[:-1]), "spill left a hole"

        stream_texts = [rows[i][0] for i in flat]
        seen_closed = set()
        for idx, t in enumerate(stream_texts):
            if idx > 0 and t != stream_texts[idx - 1]:
                assert t not in seen_closed, "text group split in the stream"
                seen_closed.add(stream_texts[idx - 1])

        some = batches[int(rng.integers(0, len(batches)))]
        ids = dataset.records["text"][some]
        labels = dataset.records["label"][some].astype(float)
        m_pos, m_neg = contrastive_masks(ids, labels)
        m_text = text_match_mask(ids)
        assert not (m_pos * m_neg).any(), "masks overlap"
        assert np.all(m_pos + m_neg <= m_text - np.eye(len(ids)) + 1e-12), "masks exceed text match"
    criterion(4, "batching invariants", True, f"({cases} random datasets)")


# ------------------------------------------------------------------ 5, 6

def test_criterion_05_homophily_null_calibration():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    n = 400
    vectors = rng.uniform(-1.0, 1.0, size=(n, 32))
    cats = ["x" if i % 2 == 0 else "y" for i in range(n)]
    space = space_of([f"a{i:03d}" for i in range(n)], vectors, {"attr": cats})
    row = homophily.bootstrap_homophily(space, "attr", k=50, iterations=1000, seed=7)
    elapsed = time.monotonic() - start
    in_band = 0.9 <= row.ratio_mean <= 1.1
    within_2std = abs(row.ratio_mean - 1.0) <= 2.0 * row.ratio_std
    criterion(
        5,
        "homophily null calibration",
        in_band and within_2std and elapsed < 60.0,
        f"(ratio {row.ratio_mean:.4f} ± {row.ratio_std:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_06_homophily_signal_detection():
    rng = np.random.default_rng(31)
    n = 400
    planted = ["p0" if i < n // 2 else "p1" for i in range(n)]
    centers = {"p0": np.array([8.0] + [0.0] * 15), "p1": np.array([-8.0] + [0.0] * 15)}
    vectors = np.stack([centers[c] + 0.3 * rng.standard_normal(16) for c in planted])
    attributes = {
        "planted": planted,
        "noise2": [f"c{rng.integers(0, 2)}" for _ in range(n)],
        "noise4": [f"c{rng.integers(0, 4)}" for _ in range(n)],
        "noise5": [f"c{rng.integers(0, 5)}" for _ in range(n)],
    }
    space = space_of([f"a{i:03d}" for i in range(n)], vectors, attributes)
    ratios = {
        attr: homophily.bootstrap_homophily(space, attr, k=50, iterations=200, seed=3).ratio_mean
        for attr in attributes
    }
    exact = []
    for c in (2, 4, 5):
        uniform_cats = [f"u{i % c}" for i in range(n)]
        uniform_space = space_of(space.annotator_ids, vectors, {"u": uniform_cats})
        exact.append(chance_probability(uniform_space, "u") == 1.0 / c)
    others = {a: r for a, r in ratios.items() if a != "planted"}
    ok = (
        ratios["planted"] >= 1.5
        and all(ratios["planted"] > r for r in others.values())
        and all(exact)
    )
    criterion(
        6,
        "homophily signal detection",
        ok,
        f"(planted {ratios['planted']:.3f}, others " +
        ", ".join(f"{a}={r:.3f}" for a, r in others.items()) + ", chance exact 1/C)",
    )


# --------------------------------------------------------------------- 7

def desk_scale_world():
    spec = PopulationSpec(
        annotator_count=120,
        attributes=(
            AttributeSpec("group", ("a", "b"), (0.5, 0.5)),
            AttributeSpec("nuis0", ("c0", "c1", "c2"), (1 / 3,) * 3),
            AttributeSpec("nuis1", ("c0", "c1", "c2", "c3"), (0.25,) * 4),
            AttributeSpec("nuis2", ("c0", "c1", "c2", "c3", "c4"), (0.2,) * 5),
        ),
        signal={("group", "a"): 2.5, ("group", "b"): -2.5},
        text_count=250,
        annotations_per_text=5,
        embedding_dim=16,
        embedding_noise=0.3,
        seed=5,
    )
    population = synth.generate_population(spec)
    corp = synth.generate_corpus(spec)
    dataset = synth.generate_annotations(population, corp, spec)
    return split_by_text(dataset, 0.7, seed=11), corp.embeddings


def test_criterion_07_desk_scale_hypothesis(tmp_path):
    start = time.monotonic()
    split, table = desk_scale_world()
    seeds = (0, 1, 2, 3, 4, 5)
    contrastive_cfg = trainer.RunConfig(variant="socio_contrastive", seeds=seeds)
    suites = {
        "contrastive": contrastive_cfg,
        "ablation": replace(contrastive_cfg, contrastive_weight=0.0),
        "simple": trainer.RunConfig(variant="simple", seeds=seeds),
    }
    trainer.train_suites([(cfg, str(tmp_path / name)) for name, cfg in suites.items()], split, table)
    f1 = {name: score_checkpoints(tmp_path / name, split.test, table)[1]["f1"][0] for name in suites}
    elapsed = time.monotonic() - start

    f1_contrastive, f1_ablation, f1_simple = f1["contrastive"], f1["ablation"], f1["simple"]
    ok = (
        f1_contrastive - f1_simple >= 0.05
        and f1_contrastive > f1_ablation
        and elapsed < 600.0
    )
    criterion(
        7,
        "socio information helps at desk scale",
        ok,
        f"(contrastive {f1_contrastive:.4f} > ablation {f1_ablation:.4f}, "
        f"simple {f1_simple:.4f}, margins {f1_contrastive - f1_simple:+.4f}/"
        f"{f1_contrastive - f1_ablation:+.4f}, {elapsed:.0f}s)",
    )


# --------------------------------------------------------------------- 8

def test_criterion_08_metric_correctness():
    rng = np.random.default_rng(88)
    worst_auc = 0.0
    worst_area = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        probs = np.round(rng.random(n), int(rng.integers(1, 4)))  # coarse grids force ties
        auc = metrics.roc_auc(probs, labels)
        worst_auc = max(worst_auc, abs(auc - pair_counting_auc(probs.tolist(), labels.tolist())))
        area = roc_curve_area(metrics.roc_curve(probs, labels))
        worst_area = max(worst_area, abs(area - auc))

    boundary = metrics.confusion_metrics(np.array([0.5, 0.5, 0.4]), np.array([1, 0, 0]))
    boundary_ok = (boundary.tp, boundary.fp, boundary.tn, boundary.fn) == (1, 1, 1, 0)
    hand = metrics.confusion_metrics(np.array([0.9, 0.8, 0.7, 0.2, 0.1]), np.array([1, 1, 0, 1, 0]))
    hand_ok = (hand.precision, hand.recall) == (2 / 3, 2 / 3)

    criterion(
        8,
        "metric correctness",
        worst_auc < 1e-9 and worst_area < 1e-9 and boundary_ok and hand_ok,
        f"(max AUC Δ {worst_auc:.2e}, max trapezoid Δ {worst_area:.2e}, boundary 0.5 positive)",
    )


# --------------------------------------------------------------------- 9

def pipeline_config(out_dir: str) -> dict:
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
        "prep": {"train_fraction": 0.7, "seed": 11},
        "train": {
            "variant": ["simple", "socio_embedding", "socio_contrastive"],
            "seeds": [0, 1],
            "epochs": 2,
            "batch_size": 8,
            "hidden_dims": [16, 8],
            "projection_dims": [4, 6],
            "ablation": True,
            "dump_plan": True,
        },
        "homophily": {"k": 5, "iterations": 25, "seed": 1},
        "eval": {},
    }


def test_criterion_09_pipeline_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        config_path = tmp_path / f"{tag}.json"
        config_path.write_text(json.dumps(pipeline_config(str(out_dir))), encoding="utf-8")
        for command in ("synth", "prep", "train", "eval", "homophily", "report"):
            code = cli_main([command, "--config", str(config_path)])
            assert code == 0, f"{command} exited {code}"
        outputs.append(out_dir)

    first, second = outputs
    compared = 0
    mismatched = []
    for path in sorted(first.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(first)
        twin = second / rel
        if not twin.exists() or path.read_bytes() != twin.read_bytes():
            mismatched.append(str(rel))
        compared += 1
    criterion(
        9,
        "byte-identical pipeline reruns",
        compared > 0 and not mismatched,
        f"({compared} files compared{'; mismatches: ' + ', '.join(mismatched[:5]) if mismatched else ''})",
    )


# -------------------------------------------------------------------- 10

def null_world():
    spec = PopulationSpec(
        annotator_count=120,
        attributes=(
            AttributeSpec("group", ("a", "b"), (0.5, 0.5)),
            AttributeSpec("region", ("n", "s", "e", "w"), (0.25,) * 4),
            AttributeSpec("tier", ("t1", "t2", "t3"), (1 / 3,) * 3),
            AttributeSpec("band", ("b1", "b2", "b3", "b4", "b5"), (0.2,) * 5),
            AttributeSpec("ring", ("r0", "r1", "r2", "r3"), (0.25,) * 4),
            AttributeSpec("zone", ("z0", "z1", "z2"), (1 / 3,) * 3),
        ),
        signal={},
        text_count=200,
        annotations_per_text=5,
        embedding_dim=16,
        embedding_noise=0.1,
        seed=3,
    )
    population = synth.generate_population(spec)
    corp = synth.generate_corpus(spec)
    dataset = synth.generate_annotations(population, corp, spec)
    split = split_by_text(dataset, 0.7, seed=11)
    socio_table = synth.generate_socio_embeddings(population, 16, seed=3)
    return spec, population, corp, split, socio_table


def test_criterion_10_null_model_honesty(tmp_path):
    from sociolens.features import build_schema

    spec, population, corp, split, socio_table = null_world()
    seeds = (0, 1, 2, 3, 4, 5)

    variants = ("simple", "multitask", "socio_multihot", "socio_embedding", "socio_contrastive")
    trainer.train_suites(
        [(trainer.RunConfig(variant=variant, seeds=seeds), str(tmp_path / variant)) for variant in variants],
        split, corp.embeddings, socio_table, profiles=population,
    )
    f1 = {
        variant: score_checkpoints(tmp_path / variant, split.test, corp.embeddings, socio_table)[1]["f1"][0]
        for variant in variants
    }
    advantages = {v: f1[v] - f1["simple"] for v in f1 if v != "simple"}
    f1_ok = all(adv <= 0.03 for adv in advantages.values())

    schema = build_schema(population)
    names = [a.name for a in spec.attributes]
    spaces = []
    for seed in seeds:
        path = tmp_path / "socio_contrastive" / f"seed{seed}" / "representations.csv"
        reps = homophily.load_representations(str(path))
        spaces.append(homophily.RepSpace.from_representations(reps, population, schema))
    ratio_means = {}
    for attr in names:
        per_seed = [
            homophily.bootstrap_homophily(space, attr, k=50, iterations=200, seed=1).ratio_mean
            for space in spaces
        ]
        ratio_means[attr] = float(np.mean(per_seed))
    ratio_ok = all(0.85 <= r <= 1.15 for r in ratio_means.values())

    criterion(
        10,
        "null-model honesty",
        f1_ok and ratio_ok,
        "(max F1 advantage "
        + f"{max(advantages.values()):+.4f}, ratios "
        + ", ".join(f"{a}={r:.3f}" for a, r in ratio_means.items())
        + ")",
    )
