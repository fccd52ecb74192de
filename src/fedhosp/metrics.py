"""Threshold-free evaluation metrics for binary classifiers.

AUROC is the Mann-Whitney U statistic over n_pos * n_neg, computed by
counting: for each positive, the negatives scored below it plus half the
negatives tied with it,

    U = sum over positives p of  #{neg < p} + 0.5 * #{neg == p}

which is the pairwise definition P(score_pos > score_neg) +
0.5 * P(score_pos == score_neg) exactly. Two ``searchsorted`` passes over the
sorted negatives give both counts (left: below; right: at or below), so U is
their sum halved. The value is bit-identical to the average-rank formula
(sum of the positives' average ranks - n_pos(n_pos + 1)/2): both compute the
same U, a multiple of 0.5 held exactly in float64 below 2**53, and divide it
by the same n_pos * n_neg. -0.0 and 0.0 tie; NaN scores sort above every
number and tie with each other. Any sort gives the same counts. The
negatives are ordered by the stable ``argsort`` that ``auprc`` also runs:
each other numpy sort kernel maps its own code pages on first use (64 KiB
for ``np.sort(kind="stable")``, 192 KiB for the default kind, measured as
resident pages of numpy's core module), which shows in a small run's peak
RSS.

AUPRC is average precision, i.e. the step-wise area under the
precision-recall curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_fields

__all__ = ["DECISION_THRESHOLD", "EvalResult", "auroc", "auprc", "accuracy", "evaluate"]

# A score at or above this predicts the positive class, for ``accuracy``.
DECISION_THRESHOLD = 0.5


def _validated(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """(scores as a flat float64 array, the mask of positive labels)."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.size != y.size:
        raise ValueError(f"scores and labels disagree in length: {s.size} vs {y.size}")
    if s.size == 0:
        raise ValueError("metrics of an empty sample are undefined")
    positive = y == 1
    if np.count_nonzero(positive) + np.count_nonzero(y == 0) != y.size:
        raise ValueError("labels must be 0 or 1")
    return s, positive


def auroc(scores, labels) -> float:
    """Area under the ROC curve; ties credited half. Needs both classes."""
    s, positive = _validated(scores, labels)
    pos = s[positive]
    neg = s[~positive]
    neg = neg[neg.argsort(kind="stable")]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auroc needs at least one positive and one negative label")
    # below + at-or-below = 2 * (negatives below + half the tied ones), an integer
    twice_u = (neg.searchsorted(pos, "left") + neg.searchsorted(pos, "right")).sum()
    return float(twice_u / 2 / (pos.size * neg.size))


def auprc(scores, labels) -> float:
    """Average precision: sum of precision-at-k over positive hits, / n_pos.

    Sorting is by descending score with a stable tiebreak on input order.
    """
    s, positive = _validated(scores, labels)
    n_pos = np.count_nonzero(positive)
    if n_pos == 0:
        raise ValueError("auprc needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    hits = positive[order]
    cum_pos = np.cumsum(hits)
    k = np.arange(1, s.size + 1)
    precision_at_k = cum_pos / k
    return float(precision_at_k[hits].sum() / n_pos)


def accuracy(scores, labels) -> float:
    """Fraction of correct hard decisions; score >= DECISION_THRESHOLD predicts positive."""
    s, positive = _validated(scores, labels)
    return float(np.mean((s >= DECISION_THRESHOLD) == positive))


@dataclass(frozen=True)
class EvalResult:
    """One model's scores on one evaluation set of n samples."""

    auroc: float
    auprc: float
    accuracy: float
    n: int

    def __post_init__(self) -> None:
        check_fields(self, n=1)


def evaluate(scores, labels) -> EvalResult:
    """All three metrics over one (scores, labels) sample."""
    s, positive = _validated(scores, labels)
    return EvalResult(
        auroc=auroc(s, positive),
        auprc=auprc(s, positive),
        accuracy=accuracy(s, positive),
        n=int(s.size),
    )
