import numpy as np
import pytest

from helpers import roc_curve_area
from sociolens.errors import DataError
from sociolens.features import MISSING, AnnotatorProfile, SocioSchema
from sociolens.metrics import (
    MetricsReport,
    aggregate_runs,
    confusion_metrics,
    group_breakdown,
    roc_auc,
    roc_curve,
)


def pair_counting_auc(probs, labels):
    """Independent oracle: concordant pairs / total pairs, ties worth half."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusionMetrics:
    def test_direct_formulas(self):
        # tp=2 fp=1 fn=1 tn=1
        probs = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 0, 1, 0])
        r = confusion_metrics(probs, labels)
        assert (r.tp, r.fp, r.fn, r.tn) == (2, 1, 1, 1)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 / 3)

    def test_perfect_case(self):
        r = confusion_metrics(np.array([0.9, 0.1]), np.array([1, 0]))
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_boundary_half_is_positive(self):
        r = confusion_metrics(np.array([0.5]), np.array([1]))
        assert r.tp == 1 and r.fn == 0
        r = confusion_metrics(np.array([0.5]), np.array([0]))
        assert r.fp == 1 and r.tn == 0

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            r = confusion_metrics(rng.random(n), rng.integers(0, 2, n))
            assert r.tp + r.fp + r.tn + r.fn == r.n == n

    def test_degenerate_flags(self):
        r = confusion_metrics(np.array([0.1, 0.2]), np.array([0, 0]))
        assert "precision" in r.degenerate and "recall" in r.degenerate
        assert r.precision == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confusion_metrics(np.array([]), np.array([]))

    def test_threshold_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        probs = rng.random(60)
        labels = rng.integers(0, 2, 60)
        base = confusion_metrics(probs, labels, threshold=0.5)
        squashed = confusion_metrics(probs**3, labels, threshold=0.5**3)
        assert (base.tp, base.fp, base.tn, base.fn) == (squashed.tp, squashed.fp, squashed.tn, squashed.fn)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_all_ties_half(self):
        assert roc_auc(np.full(6, 0.4), np.array([1, 0, 1, 0, 1, 0])) == 0.5

    def test_three_point_example(self):
        probs = np.array([0.8, 0.6, 0.4])
        labels = np.array([1, 0, 1])
        assert roc_auc(probs, labels) == pytest.approx(0.5, abs=1e-15)
        assert pair_counting_auc(probs, labels) == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            probs = np.round(rng.random(n), 2)  # coarse grid forces ties
            assert roc_auc(probs, labels) == pytest.approx(pair_counting_auc(probs, labels), abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc(np.array([0.4, 0.6]), np.array([1, 1]))

    def test_invariant_under_strictly_monotone_transform(self):
        rng = np.random.default_rng(3)
        probs = rng.random(50)
        labels = rng.integers(0, 2, 50)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(probs, labels) == pytest.approx(roc_auc(np.exp(2 * probs), labels), abs=1e-12)


class TestRocCurve:
    def test_perfect_separation_passes_corner(self):
        points = roc_curve(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert (0.0, 1.0) in {(f, t) for _, f, t in points}
        assert points[0][1:] == (0.0, 0.0)
        assert points[-1][1:] == (1.0, 1.0)

    def test_equal_scores_two_point_diagonal(self):
        points = roc_curve(np.full(4, 0.3), np.array([1, 0, 1, 0]))
        assert [(f, t) for _, f, t in points] == [(0.0, 0.0), (1.0, 1.0)]

    def test_trapezoid_area_equals_auc(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            probs = np.round(rng.random(n), 2)
            area = roc_curve_area(roc_curve(probs, labels))
            assert area == pytest.approx(roc_auc(probs, labels), abs=1e-9)


class TestAggregateRuns:
    def r(self, f1, precision=0.5, recall=0.5, auc=0.5):
        return MetricsReport(precision, recall, f1, auc, 1, 1, 1, 1, 4)

    def test_identical_reports_zero_std(self):
        agg = aggregate_runs([self.r(0.7)] * 4)
        assert agg["f1"] == (pytest.approx(0.7), pytest.approx(0.0))

    def test_two_values_population_std(self):
        agg = aggregate_runs([self.r(0.7), self.r(0.75)])
        assert agg["f1"][0] == pytest.approx(0.725)
        assert agg["f1"][1] == pytest.approx(0.025)

    def test_single_report(self):
        agg = aggregate_runs([self.r(0.61)])
        assert agg["f1"] == (pytest.approx(0.61), 0.0)

    def test_auc_aggregates_defined_runs_only(self):
        reports = [self.r(0.5, auc=0.8), MetricsReport(0.5, 0.5, 0.5, None, 1, 1, 1, 1, 4)]
        agg = aggregate_runs(reports)
        assert agg["auc"][0] == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate_runs([])


class TestGroupBreakdown:
    schema = SocioSchema([("g", ["a", "b", MISSING])])
    profiles = {
        "p1": AnnotatorProfile("p1", {"g": "a"}),
        "p2": AnnotatorProfile("p2", {"g": "a"}),
        "p3": AnnotatorProfile("p3", {"g": "b"}),
    }

    def test_subset_independence(self):
        # category a's rows all correct; category b all wrong
        probs = np.array([0.9, 0.8, 0.9, 0.2])
        labels = np.array([1, 1, 0, 1])
        ids = ["p1", "p2", "p3", "p3"]
        reports = group_breakdown(probs, labels, ids, self.profiles, self.schema)
        by_cat = reports[0].categories
        assert by_cat["a"].f1 == 1.0
        assert by_cat["a"].n == 2
        assert by_cat["b"].f1 == 0.0

    def test_empty_category_omitted(self):
        probs = np.array([0.9])
        labels = np.array([1])
        reports = group_breakdown(probs, labels, ["p1"], self.profiles, self.schema)
        assert "b" in reports[0].omitted
        assert MISSING in reports[0].omitted

    def test_slices_partition_records(self):
        rng = np.random.default_rng(5)
        ids = [f"p{rng.integers(1, 4)}" for _ in range(40)]
        probs = rng.random(40)
        labels = rng.integers(0, 2, 40)
        reports = group_breakdown(probs, labels, ids, self.profiles, self.schema)
        assert sum(r.n for r in reports[0].categories.values()) == 40

    def test_unprofiled_annotator_rejected(self):
        with pytest.raises(DataError):
            group_breakdown(np.array([0.5]), np.array([1]), ["ghost"], self.profiles, self.schema)
