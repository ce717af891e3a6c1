import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pair_counting_auc, reference_roc_curve, roc_curve_area
from sociolens.errors import DataError, NumericError
from sociolens.features import MISSING, AnnotatorProfile, SocioSchema
from sociolens.metrics import (
    MetricsReport,
    aggregate_runs,
    confusion_metrics,
    group_breakdown,
    roc_auc,
    roc_curve,
)


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


@st.composite
def scored_labels(draw, max_size=60):
    """Scores on a coarse grid (many ties, at 0 decimals only 0 and 1) and labels of both classes."""
    scale = 10 ** draw(st.integers(0, 3))
    n = draw(st.integers(2, max_size))
    probs = np.array(draw(st.lists(st.integers(0, scale), min_size=n, max_size=n))) / scale
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.min() == labels.max():
        labels[draw(st.integers(0, n - 1))] ^= 1
    return probs, labels


class TestScoreCounts:
    @settings(max_examples=300, deadline=None)
    @given(scored_labels())
    def test_roc_curve_equals_per_threshold_reference(self, case):
        probs, labels = case
        assert repr(roc_curve(probs, labels)) == repr(reference_roc_curve(probs, labels))

    @settings(max_examples=300, deadline=None)
    @given(scored_labels())
    def test_roc_auc_equals_pair_counting(self, case):
        probs, labels = case
        assert roc_auc(probs, labels) == pair_counting_auc(probs.tolist(), labels.tolist())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("score", [roc_auc, roc_curve, confusion_metrics])
    def test_non_finite_score_is_numeric_error(self, score, bad):
        with pytest.raises(NumericError, match="1 non-finite scores"):
            score(np.array([0.2, bad, 0.7]), np.array([1, 0, 0]))

    @pytest.mark.parametrize("score", [roc_auc, roc_curve])
    def test_shape_mismatch_rejected(self, score):
        with pytest.raises(DataError, match="shape"):
            score(np.array([0.2, 0.7]), np.array([1, 0, 0]))

    @settings(max_examples=200, deadline=None)
    @given(
        scored_labels(),
        st.lists(st.tuples(st.sampled_from(["a", "b", "zz", "", None]), st.sampled_from(["x", "y", "zz", None])),
                 min_size=1, max_size=6),
        st.data(),
    )
    def test_each_slice_equals_confusion_metrics_on_its_mask(self, case, assignments, data):
        # "zz" is outside both vocabularies; "" and None are declined answers
        probs, labels = case
        schema = SocioSchema([("g", ["a", "b", MISSING]), ("h", ["x", "y"])])
        profiles = {
            f"p{i}": AnnotatorProfile(f"p{i}", {k: v for k, v in zip("gh", pair) if v is not None})
            for i, pair in enumerate(assignments)
        }
        ids = data.draw(st.lists(st.sampled_from(sorted(profiles)), min_size=probs.size, max_size=probs.size))
        reports = group_breakdown(probs, labels, ids, profiles, schema)
        assert [r.attribute for r in reports] == ["g", "h"]
        for report, (attribute, categories) in zip(reports, schema.attributes):
            # a declined or out-of-vocabulary answer counts under MISSING, if the attribute has it
            assigned = [profiles[a].assignments.get(attribute) or MISSING for a in ids]
            assigned = np.array([c if c in categories else MISSING for c in assigned], dtype=object)
            for c in categories:
                mask = assigned == c
                if mask.any():
                    assert report.categories[c] == confusion_metrics(probs[mask], labels[mask])
                else:
                    assert c in report.omitted
            assert len(report.categories) + len(report.omitted) == len(categories)


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

    def test_misaligned_annotator_ids_rejected(self):
        with pytest.raises(DataError, match="do not line up"):
            group_breakdown(np.array([0.5, 0.7]), np.array([1, 0]), ["p1"], self.profiles, self.schema)

    def test_unprofiled_annotator_rejected(self):
        with pytest.raises(DataError):
            group_breakdown(np.array([0.5]), np.array([1]), ["ghost"], self.profiles, self.schema)
