"""Scoring against individual annotator labels.

Predictions are thresholded at 0.5 with ties counted positive (a
probability of exactly 0.5 predicts the positive class). Precision,
recall, and F1 are positive-class binary metrics. Every report also
carries its ROC-AUC, in the rank-sum formulation: the probability that a
random positive outscores a random negative, ties counted one half; it is
None when the labels hold one class only. Multi-run aggregation reports
mean and population standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .features import MISSING, AnnotatorProfile, SocioSchema


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    auc: float | None
    tp: int
    fp: int
    tn: int
    fn: int
    n: int
    degenerate: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "auc": self.auc,
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "n": self.n,
            "degenerate": list(self.degenerate),
        }


@dataclass(frozen=True)
class GroupReport:
    attribute: str
    categories: dict[str, MetricsReport]
    omitted: tuple[str, ...] = ()


def confusion_metrics(probs: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> MetricsReport:
    """Positive-class precision/recall/F1 from counts at `threshold` (>= is positive), plus AUC.

    AUC does not depend on the threshold; it is None when `labels` hold
    only one class.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise DataError(f"probs shape {p.shape} != labels shape {y.shape}")
    if p.size == 0:
        raise DataError("cannot evaluate an empty prediction set")
    pred = p >= threshold
    actual = y == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    tn = int(np.sum(~pred & ~actual))
    degenerate = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall = 0.0
        degenerate.append("recall")
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        degenerate.append("f1")
    try:
        auc = roc_auc(p, y)
    except DataError:
        auc = None
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        auc=auc,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        n=int(p.size),
        degenerate=tuple(degenerate),
    )


def roc_auc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative (ties count 1/2).

    Computed from tie-averaged ranks (the rank-sum statistic), which is
    exactly the pairwise count normalized by n_pos * n_neg.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = int(p.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: need at least one positive and one negative label")
    order = np.argsort(p, kind="mergesort")
    sorted_p = p[order]
    ranks = np.empty(p.size, dtype=np.float64)
    i = 0
    while i < p.size:
        j = i
        while j + 1 < p.size and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average of 1-based ranks i+1..j+1
        i = j + 1
    rank_sum_pos = float(ranks[pos].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_curve(probs: np.ndarray, labels: np.ndarray) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) per distinct score, endpoints included.

    Thresholds descend; at each one predictions are `prob >= threshold`.
    The leading point is (inf, 0, 0), the trailing point predicts
    everything positive at the minimum score. Trapezoidal area over the
    curve equals `roc_auc`.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = int(p.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC undefined: need at least one positive and one negative label")
    points: list[tuple[float, float, float]] = [(float("inf"), 0.0, 0.0)]
    for threshold in sorted(set(p.tolist()), reverse=True):
        pred = p >= threshold
        tpr = float(np.sum(pred & pos)) / n_pos
        fpr = float(np.sum(pred & ~pos)) / n_neg
        points.append((float(threshold), fpr, tpr))
    return points


def aggregate_runs(reports: list[MetricsReport]) -> dict[str, tuple[float, float]]:
    """Componentwise mean and population std (divisor n) over runs.

    AUC aggregates over the runs where it was defined; the other metrics
    always aggregate over all runs.
    """
    if not reports:
        raise DataError("nothing to aggregate")
    out: dict[str, tuple[float, float]] = {}
    for name in ("precision", "recall", "f1"):
        values = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        out[name] = (float(values.mean()), float(values.std()))
    aucs = np.array([r.auc for r in reports if r.auc is not None], dtype=np.float64)
    if aucs.size:
        out["auc"] = (float(aucs.mean()), float(aucs.std()))
    return out


def group_breakdown(
    probs: np.ndarray,
    labels: np.ndarray,
    annotator_ids: list[str],
    profiles: dict[str, AnnotatorProfile],
    schema: SocioSchema,
) -> list[GroupReport]:
    """Metrics per socio-demographic category, sliced by the record's annotator.

    Categories with zero test records are listed as omitted. AUC is left
    undefined (None) for single-class slices.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    missing_annotators = sorted({a for a in annotator_ids if a not in profiles})
    if missing_annotators:
        raise DataError(f"no profile for annotators: {missing_annotators[:10]}")
    reports: list[GroupReport] = []
    for attribute, categories in schema.attributes:
        per_category: dict[str, MetricsReport] = {}
        omitted: list[str] = []
        assigned = np.array(
            [profiles[a].assignments.get(attribute, MISSING) or MISSING for a in annotator_ids],
            dtype=object,
        )
        known = {c for c in categories}
        assigned = np.array([c if c in known else MISSING for c in assigned], dtype=object)
        for category in categories:
            mask = assigned == category
            if not mask.any():
                omitted.append(category)
                continue
            per_category[category] = confusion_metrics(p[mask], y[mask])
        reports.append(GroupReport(attribute=attribute, categories=per_category, omitted=tuple(omitted)))
    return reports
