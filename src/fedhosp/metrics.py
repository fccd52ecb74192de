"""Threshold-free evaluation metrics for binary classifiers.

AUROC uses the rank-statistic formulation (Mann-Whitney U with average
ranks for ties), which is exact: average ranks are multiples of 0.5, so the
result equals the pairwise definition

    P(score_pos > score_neg) + 0.5 * P(score_pos == score_neg)

to the last bit, not just approximately. AUPRC is average precision, i.e.
the step-wise area under the precision-recall curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DECISION_THRESHOLD", "EvalResult", "auroc", "auprc", "accuracy", "evaluate"]

# A score at or above this predicts the positive class, for ``accuracy``.
DECISION_THRESHOLD = 0.5


def _validated(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.size != y.size:
        raise ValueError(f"scores and labels disagree in length: {s.size} vs {y.size}")
    if s.size == 0:
        raise ValueError("metrics of an empty sample are undefined")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    return s, y.astype(np.int64)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties replaced by the mean rank of their group."""
    order = np.argsort(scores, kind="mergesort")
    ordered = scores[order]
    # sorted positions i..j (0-based) of one tie group share ((i+1) + (j+1)) / 2
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    last = np.append(first[1:], scores.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def auroc(scores, labels) -> float:
    """Area under the ROC curve; ties credited half. Needs both classes."""
    s, y = _validated(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs at least one positive and one negative label")
    ranks = _average_ranks(s)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision: sum of precision-at-k over positive hits, / n_pos.

    Sorting is by descending score with a stable tiebreak on input order.
    """
    s, y = _validated(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("auprc needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    hits = y[order]
    cum_pos = np.cumsum(hits)
    k = np.arange(1, y.size + 1)
    precision_at_k = cum_pos / k
    return float(precision_at_k[hits == 1].sum() / n_pos)


def accuracy(scores, labels) -> float:
    """Fraction of correct hard decisions; score >= DECISION_THRESHOLD predicts positive."""
    s, y = _validated(scores, labels)
    predicted = (s >= DECISION_THRESHOLD).astype(np.int64)
    return float(np.mean(predicted == y))


@dataclass(frozen=True)
class EvalResult:
    """One model's scores on one evaluation set of n samples."""

    auroc: float
    auprc: float
    accuracy: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("EvalResult needs n >= 1")


def evaluate(scores, labels) -> EvalResult:
    """All three metrics over one (scores, labels) sample."""
    s, y = _validated(scores, labels)
    return EvalResult(
        auroc=auroc(s, y),
        auprc=auprc(s, y),
        accuracy=accuracy(s, y),
        n=int(s.size),
    )
