"""Scoring against individual annotator labels.

Predictions are thresholded at 0.5 with ties counted positive (a
probability of exactly 0.5 predicts the positive class). Precision,
recall, and F1 are positive-class binary metrics. Every report also
carries its ROC-AUC: the probability that a random positive outscores a
random negative, ties counted one half; it is None when the labels hold
one class only. Multi-run aggregation reports mean and population
standard deviation.

ROC curve and AUC come from one table: the positive and negative label
counts at each distinct score, from one sort of the n scores. A scored
run therefore costs O(n log n), and each group slice the same over its
own records. Every score must be finite: a NaN or infinity is a
NumericError, never a silent place in the sort.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericError
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
        return {**asdict(self), "degenerate": list(self.degenerate)}


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
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    denominators = {"precision": tp + fp, "recall": tp + fn, "f1": precision + recall}
    degenerate = tuple(name for name, denominator in denominators.items() if not denominator)
    try:
        auc = roc_auc(p, y)
    except DataError:
        auc = None
    return MetricsReport(precision, recall, f1, auc, tp, fp, tn, fn, int(p.size), degenerate)


def _score_counts(probs: np.ndarray, labels: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct scores ascending, with the positive and the negative label count at each.

    Label 1 is positive, any other label negative. Unequal shapes or a
    single class is a DataError naming `what`; a non-finite score is a
    NumericError.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise DataError(f"{what}: probs shape {p.shape} != labels shape {y.shape}")
    if not np.isfinite(p).all():
        raise NumericError(f"{what}: {int(np.sum(~np.isfinite(p)))} non-finite scores")
    pos = y.ravel() == 1
    n_pos = int(pos.sum())
    if n_pos == 0 or n_pos == pos.size:
        raise DataError(f"{what} undefined: need at least one positive and one negative label")
    scores, inverse = np.unique(p.ravel(), return_inverse=True)
    return (
        scores,
        np.bincount(inverse[pos], minlength=scores.size),
        np.bincount(inverse[~pos], minlength=scores.size),
    )


def roc_auc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative (ties count 1/2).

    The Mann-Whitney U, summed over distinct scores as
    pos * (negatives below + neg / 2) in integers, over n_pos * n_neg:
    the pairwise count exactly, with one rounding.
    """
    _, pos, neg = _score_counts(probs, labels, "AUC")
    twice_u = int(pos @ (2 * (np.cumsum(neg) - neg) + neg))
    return twice_u / (2 * int(pos.sum()) * int(neg.sum()))


def roc_curve(probs: np.ndarray, labels: np.ndarray) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) per distinct score, endpoints included.

    Thresholds descend; at each one predictions are `prob >= threshold`.
    The leading point is (inf, 0, 0), the trailing point predicts
    everything positive at the minimum score. Trapezoidal area over the
    curve equals `roc_auc`.
    """
    scores, pos, neg = _score_counts(probs, labels, "ROC")
    tpr = np.cumsum(pos[::-1]) / pos.sum()
    fpr = np.cumsum(neg[::-1]) / neg.sum()
    return [(float("inf"), 0.0, 0.0), *zip(scores[::-1].tolist(), fpr.tolist(), tpr.tolist())]


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

    An annotator's declined or out-of-vocabulary answer counts under
    MISSING. Categories with zero test records are listed as omitted.
    AUC is left undefined (None) for single-class slices.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if not p.shape == y.shape == (len(annotator_ids),):
        raise DataError(f"probs {p.shape}, labels {y.shape} and {len(annotator_ids)} annotator ids do not line up")
    annotators, record_annotator = np.unique(np.asarray(annotator_ids, dtype=str), return_inverse=True)
    annotators = annotators.tolist()
    missing_annotators = [a for a in annotators if a not in profiles]
    if missing_annotators:
        raise DataError(f"no profile for annotators: {missing_annotators[:10]}")
    reports: list[GroupReport] = []
    for attribute, categories in schema.attributes:
        code = {c: i for i, c in enumerate(categories)}
        unknown = code.get(MISSING, -1)
        annotator_code = np.array(
            [code.get(profiles[a].assignments.get(attribute) or MISSING, unknown) for a in annotators], dtype=np.intp
        )
        record_code = annotator_code[record_annotator]
        per_category: dict[str, MetricsReport] = {}
        omitted: list[str] = []
        for i, category in enumerate(categories):
            mask = record_code == i
            if mask.any():
                per_category[category] = confusion_metrics(p[mask], y[mask])
            else:
                omitted.append(category)
        reports.append(GroupReport(attribute=attribute, categories=per_category, omitted=tuple(omitted)))
    return reports
