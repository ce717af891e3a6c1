import math

import numpy as np
import pytest

from helpers import contrastive_loss_oracle
from sociolens.errors import ConfigError
from sociolens.objectives import bce_loss, combined_loss, contrastive_loss


def random_contrastive_batch(rng, size=None, dim=None):
    b = size if size is not None else int(rng.integers(1, 17))
    d = dim if dim is not None else int(rng.integers(2, 9))
    E = rng.standard_normal((b, d))
    labels = rng.integers(0, 2, size=b).astype(np.float64)
    text_ids = [f"t{rng.integers(0, max(1, b // 2))}" for _ in range(b)]
    return E, labels, text_ids


class TestBceLoss:
    def test_perfect_prediction_near_zero(self):
        loss, _ = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert loss < 1e-10

    def test_maximum_entropy(self):
        loss, _ = bce_loss(np.full(8, 0.5), np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_case(self):
        expected = -(math.log(0.8) + math.log(0.7)) / 2  # ≈ 0.2899
        loss, _ = bce_loss(np.array([0.8, 0.3]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_logit_gradient(self):
        probs = np.array([0.8, 0.3, 0.5])
        labels = np.array([1.0, 0.0, 1.0])
        _, d = bce_loss(probs, labels)
        assert np.allclose(d, (probs - labels) / 3, atol=1e-15)

    def test_clamping_keeps_loss_finite(self):
        loss, _ = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert math.isfinite(loss)


class TestContrastiveHandCases:
    def test_positive_pair_identical_unit_rows(self):
        e = np.zeros((2, 4))
        e[:, 0] = 1.0
        res = contrastive_loss(e, np.array([1.0, 1.0]), ["t", "t"], tau=1.0)
        assert res.loss == pytest.approx(math.log(2), abs=1e-9)
        assert res.pos_term == pytest.approx(math.log(2), abs=1e-9)
        assert res.neg_term == 0.0
        assert (res.pos_pairs, res.neg_pairs) == (2, 0)

    def test_negative_pair_identical_unit_rows(self):
        e = np.zeros((2, 4))
        e[:, 0] = 1.0
        res = contrastive_loss(e, np.array([1.0, 0.0]), ["t", "t"], tau=1.0)
        assert res.loss == pytest.approx(0.5, abs=1e-9)
        assert res.pos_term == 0.0
        assert res.neg_term == pytest.approx(0.5, abs=1e-9)

    def test_all_distinct_texts_zero(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((4, 6))
        res = contrastive_loss(e, np.ones(4), ["a", "b", "c", "d"], tau=0.1)
        assert res.loss == 0.0
        assert not res.dE.any()

    def test_batch_of_one(self):
        res = contrastive_loss(np.ones((1, 3)), np.array([1.0]), ["t"], tau=0.5)
        assert res.loss == 0.0

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            contrastive_loss(np.ones((2, 2)), np.ones(2), ["t", "t"], tau=0.0)


class TestOracleEquivalence:
    def test_oracle_matches_hand_cases(self):
        e = np.zeros((2, 4))
        e[:, 0] = 1.0
        assert contrastive_loss_oracle(e, np.array([1.0, 1.0]), ["t", "t"], 1.0) == pytest.approx(
            math.log(2), abs=1e-12
        )
        assert contrastive_loss_oracle(e, np.array([1.0, 0.0]), ["t", "t"], 1.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_matrix_path_matches_oracle(self):
        rng = np.random.default_rng(42)
        for i in range(300):
            E, labels, text_ids = random_contrastive_batch(rng)
            tau = [0.05, 0.1, 1.0][i % 3]
            res = contrastive_loss(E, labels, text_ids, tau)
            oracle = contrastive_loss_oracle(E, labels, text_ids, tau)
            assert abs(res.loss - oracle) < 1e-12

    def test_mask_empty_batches_exactly_zero(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            b = int(rng.integers(1, 8))
            E = rng.standard_normal((b, 4))
            labels = rng.integers(0, 2, size=b).astype(float)
            text_ids = [f"t{i}" for i in range(b)]  # all distinct
            assert contrastive_loss(E, labels, text_ids, 0.1).loss == 0.0
            assert contrastive_loss_oracle(E, labels, text_ids, 0.1) == 0.0


class TestContrastiveGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(25):
            E, labels, text_ids = random_contrastive_batch(rng, size=int(rng.integers(2, 9)), dim=4)
            tau = float(rng.choice([0.1, 0.5, 1.0]))
            res = contrastive_loss(E, labels, text_ids, tau)
            for i in range(E.shape[0]):
                for j in range(E.shape[1]):
                    orig = E[i, j]
                    E[i, j] = orig + h
                    up = contrastive_loss(E, labels, text_ids, tau).loss
                    E[i, j] = orig - h
                    down = contrastive_loss(E, labels, text_ids, tau).loss
                    E[i, j] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(res.dE[i, j] - fd) / max(abs(res.dE[i, j]), abs(fd), 1e-4) < 1e-4

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            E, labels, text_ids = random_contrastive_batch(rng, size=6, dim=5)
            perm = rng.permutation(6)
            base = contrastive_loss(E, labels, text_ids, 0.1)
            permuted = contrastive_loss(E[perm], labels[perm], [text_ids[i] for i in perm], 0.1)
            assert permuted.loss == pytest.approx(base.loss, abs=1e-12)
            assert np.allclose(permuted.dE, base.dE[perm], atol=1e-12)

    def test_positive_pair_monotonicity(self):
        # raising the positive pair's similarity must strictly lower the loss
        base = np.array([[1.0, 0.0], [0.8, 0.6]])
        labels = np.array([1.0, 1.0])
        ids = ["t", "t"]
        closer = np.array([[1.0, 0.0], [0.98, math.sqrt(1 - 0.98**2)]])
        assert contrastive_loss(closer, labels, ids, 1.0).loss < contrastive_loss(base, labels, ids, 1.0).loss

    def test_negative_pair_monotonicity(self):
        base = np.array([[1.0, 0.0], [0.8, 0.6]])
        labels = np.array([1.0, 0.0])
        ids = ["t", "t"]
        closer = np.array([[1.0, 0.0], [0.98, math.sqrt(1 - 0.98**2)]])
        assert contrastive_loss(closer, labels, ids, 1.0).loss > contrastive_loss(base, labels, ids, 1.0).loss

    def test_only_positive_pairs_finite_with_zero_negative_term(self):
        rng = np.random.default_rng(7)
        E = rng.standard_normal((3, 4))
        res = contrastive_loss(E, np.ones(3), ["t", "t", "t"], 0.1)
        assert math.isfinite(res.loss)
        assert res.neg_term == 0.0 and res.neg_pairs == 0

    def test_only_negative_pairs_finite_with_zero_positive_term(self):
        rng = np.random.default_rng(8)
        E = rng.standard_normal((2, 4))
        res = contrastive_loss(E, np.array([1.0, 0.0]), ["t", "t"], 0.1)
        assert math.isfinite(res.loss)
        assert res.pos_term == 0.0 and res.pos_pairs == 0


class TestCombinedLoss:
    def make_contrastive(self):
        rng = np.random.default_rng(9)
        E, labels, text_ids = random_contrastive_batch(rng, size=4, dim=3)
        text_ids = ["t", "t", "t", "t"]
        return contrastive_loss(E, labels, text_ids, 0.1)

    def test_zero_weight_is_pure_classification(self):
        cres = self.make_contrastive()
        report, d_logits, dE = combined_loss(0.7, np.array([0.1]), cres, 0.0)
        assert report.total == 0.7
        assert not dE.any()
        assert report.contrastive_pos == cres.pos_term  # still reported, just unweighted

    def test_unit_weight_sums_terms(self):
        cres = self.make_contrastive()
        report, _, dE = combined_loss(0.7, np.array([0.1]), cres, 1.0)
        assert report.total == pytest.approx(0.7 + cres.pos_term + cres.neg_term, abs=1e-12)
        assert np.allclose(dE, cres.dE)

    def test_both_zero(self):
        report, _, _ = combined_loss(0.0, np.zeros(2), None, 0.0)
        assert report.total == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss(0.1, np.zeros(1), self.make_contrastive(), -0.5)
