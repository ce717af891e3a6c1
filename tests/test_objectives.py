import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import contrastive_loss_oracle
from sociolens.objectives import bce_loss, contrastive_loss


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

    @settings(max_examples=200, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 8), min_size=1, max_size=9),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(0.1, 2.0),
    )
    @example(codes=[0], dim=3, seed=0, tau=0.1)  # a batch of one has no pairs
    @example(codes=[4, 0, 7, 1, 5, 2], dim=3, seed=1, tau=0.5)  # six distinct texts: no pairs
    def test_matrix_path_matches_oracle_on_random_batches(self, codes, dim, seed, tau):
        rng = np.random.default_rng(seed)
        # entries within ±1 keep similarities within ±dim/tau, where the oracle's exp and log stay finite
        E = rng.uniform(-1.0, 1.0, size=(len(codes), dim))
        labels = rng.integers(0, 2, size=len(codes)).astype(np.float64)
        text_ids = [f"t{c}" for c in codes]
        res = contrastive_loss(E, labels, text_ids, tau)
        oracle = contrastive_loss_oracle(E, labels, text_ids, tau)
        assert res.loss == pytest.approx(oracle, rel=1e-12, abs=1e-12)
        if len(set(codes)) == len(codes):
            assert res.loss == oracle == 0.0

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
