"""Training objectives: binary cross-entropy and the masked contrastive loss.

The contrastive term operates on the batch's socio representation rows E
(optionally L2-normalized upstream). With S = E @ E.T / tau and row-wise
softmax over the full row (diagonal and non-matching-text columns
included in the denominator):

    L_pos = - sum(logSoftmax(S) * M_pos) / max(sum(M_pos), 1)
    L_neg =   sum(Softmax(S)    * M_neg) / max(sum(M_neg), 1)
    L     = L_pos + L_neg

M_pos pairs same-text same-label rows (diagonal removed), M_neg pairs
same-text different-label rows. Pulling positives together lowers L_pos;
pushing negatives apart lowers L_neg. Pair-free batches cost exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batcher import contrastive_masks
from .errors import ConfigError, NumericError

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class LossReport:
    total: float
    classification: float
    contrastive_pos: float
    contrastive_neg: float
    pos_pair_count: int
    neg_pair_count: int

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "classification": self.classification,
            "contrastive_pos": self.contrastive_pos,
            "contrastive_neg": self.contrastive_neg,
            "pos_pairs": self.pos_pair_count,
            "neg_pairs": self.neg_pair_count,
        }


@dataclass(frozen=True)
class ContrastiveResult:
    loss: float
    pos_term: float
    neg_term: float
    pos_pairs: int
    neg_pairs: int
    dE: np.ndarray


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. pre-sigmoid logits.

    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs; the
    logit gradient (p - y) / B is exact for the unclamped sigmoid.
    """
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    n = p.shape[0]
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    d_logits = (np.asarray(probs, dtype=np.float64) - y) / n
    return loss, d_logits


def contrastive_loss(
    E: np.ndarray,
    labels: np.ndarray,
    text_ids: list[str],
    tau: float,
) -> ContrastiveResult:
    """Masked contrastive loss over one batch, with its gradient w.r.t. E."""
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    E = np.asarray(E, dtype=np.float64)
    m_pos, m_neg = contrastive_masks(text_ids, labels)
    n_pos = float(m_pos.sum())
    n_neg = float(m_neg.sum())
    if n_pos == 0.0 and n_neg == 0.0:
        return ContrastiveResult(0.0, 0.0, 0.0, 0, 0, np.zeros_like(E))

    s = E @ E.T / tau
    # log-softmax with max subtraction; rows are finite because B >= 2 here
    row_max = s.max(axis=1, keepdims=True)
    shifted = s - row_max
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    p = np.exp(log_p)

    pos_denom = max(n_pos, 1.0)
    neg_denom = max(n_neg, 1.0)
    l_pos = float(-log_p[m_pos > 0].sum() / pos_denom)
    l_neg = float((p * m_neg).sum() / neg_denom)

    # dL/dS, combining the log-softmax rows (positive term) and the
    # softmax Jacobian rows (negative term)
    row_pos = m_pos.sum(axis=1, keepdims=True)
    g = -(m_pos - row_pos * p) / pos_denom
    row_neg_p = (m_neg * p).sum(axis=1, keepdims=True)
    g += (m_neg * p - row_neg_p * p) / neg_denom
    dE = (g + g.T) @ E / tau

    return ContrastiveResult(l_pos + l_neg, l_pos, l_neg, int(n_pos), int(n_neg), dE)


def combined_loss(
    classification: float,
    d_logits: np.ndarray,
    contrastive: ContrastiveResult | None,
    weight: float,
) -> tuple[LossReport, np.ndarray, np.ndarray | None]:
    """Merge the two objectives: total = classification + weight * contrastive.

    Returns the report plus the gradient streams for the backward pass:
    d_logits unchanged and the weighted dL/dE (None when there is no
    contrastive path).
    """
    if weight < 0:
        raise ConfigError(f"contrastive weight must be >= 0, got {weight}")
    if contrastive is None:
        report = LossReport(classification, classification, 0.0, 0.0, 0, 0)
        return report, d_logits, None
    total = classification + weight * (contrastive.pos_term + contrastive.neg_term)
    if not math.isfinite(total):
        raise NumericError(f"non-finite combined loss: {total}")
    report = LossReport(
        total=total,
        classification=classification,
        contrastive_pos=contrastive.pos_term,
        contrastive_neg=contrastive.neg_term,
        pos_pair_count=contrastive.pos_pairs,
        neg_pair_count=contrastive.neg_pairs,
    )
    return report, d_logits, weight * contrastive.dE
