"""Metric tests, including the brute-force pairwise AUROC oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhosp.metrics import EvalResult, _average_ranks, accuracy, auprc, auroc, evaluate


def _pairwise_auroc(scores, labels):
    """Direct definition: P(s_pos > s_neg) + 0.5 P(s_pos == s_neg)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _loop_average_ranks(scores):
    """Tie groups walked one sorted position at a time: the scalar reference."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf]), max_size=40)
       | st.lists(st.floats(allow_nan=False), max_size=40))
@settings(max_examples=200, deadline=None)
def test_average_ranks_match_loop_reference(values):
    scores = np.array(values, dtype=np.float64)
    assert _average_ranks(scores).tobytes() == _loop_average_ranks(scores).tobytes()


def test_average_ranks_heavy_ties():
    scores = np.array([0.5] * 7 + [0.1] * 3 + [0.9] * 2 + [0.5])
    ranks = _average_ranks(scores)
    assert list(ranks[:7]) == [7.5] * 7 and ranks[12] == 7.5  # positions 4..11
    assert list(ranks[7:10]) == [2.0] * 3
    assert list(ranks[10:12]) == [12.5] * 2
    assert _average_ranks(np.full(9, 3.0)).tolist() == [5.0] * 9


def test_auroc_documented_example():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_perfect_and_tied():
    assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert auroc([0.5, 0.5], [0, 1]) == 0.5


def test_auroc_single_class_is_an_error():
    with pytest.raises(ValueError, match="positive and one negative"):
        auroc([0.2, 0.4], [1, 1])
    with pytest.raises(ValueError, match="positive and one negative"):
        auroc([0.2, 0.4], [0, 0])


def test_auroc_equals_pairwise_oracle_exactly():
    rng = np.random.default_rng(404)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])  # coarse grid forces ties
    for _ in range(300):
        n = int(rng.integers(2, 9))
        labels = np.zeros(n, dtype=int)
        labels[rng.permutation(n)[: int(rng.integers(1, n))] ] = 1
        scores = rng.choice(grid, size=n)
        assert auroc(scores, labels) == _pairwise_auroc(scores, labels)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_auroc_invariant_under_monotone_transform(data):
    n = data.draw(st.integers(2, 20))
    labels = data.draw(
        st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n).filter(
            lambda ls: 0 < sum(ls) < len(ls)
        )
    )
    # dyadic grid keeps the affine map exactly injective (no new float ties)
    scores = np.array(data.draw(
        st.lists(st.integers(-3200, 3200), min_size=n, max_size=n)
    )) / 64.0
    base = auroc(scores, labels)
    # strictly increasing maps preserve the ranking, hence the exact value
    assert auroc(3.0 * scores + 7.0, labels) == base
    assert auroc(np.tanh(scores / 100.0), labels) == pytest.approx(base, abs=1e-12)


def test_auprc_documented_examples():
    assert auprc([0.9, 0.1], [1, 0]) == 1.0
    assert auprc([0.1, 0.9], [1, 0]) == 0.5
    assert auprc([0.3, 0.6], [1, 1]) == 1.0


def test_auprc_hand_computed_four_samples():
    # descending: hits at ranks 1 and 3 -> AP = (1/1 + 2/3)/2
    expected = (1.0 + 2.0 / 3.0) / 2.0
    assert auprc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == expected


def test_auprc_tie_break_is_input_order():
    # equal scores: the earlier row is ranked first
    assert auprc([0.5, 0.5], [1, 0]) == 1.0
    assert auprc([0.5, 0.5], [0, 1]) == 0.5


def test_auprc_requires_a_positive():
    with pytest.raises(ValueError, match="positive"):
        auprc([0.4, 0.2], [0, 0])


def test_auprc_of_random_scorer_near_prevalence():
    rng = np.random.default_rng(8)
    labels = (rng.random(4000) < 0.2).astype(int)
    scores = rng.random(4000)
    assert auprc(scores, labels) == pytest.approx(0.2, abs=0.05)


def test_accuracy_examples():
    assert accuracy([0.6, 0.4], [1, 0]) == 1.0
    assert accuracy([0.6, 0.4], [0, 1]) == 0.0
    assert accuracy([0.5], [1]) == 1.0  # score == threshold counts positive
    assert accuracy([0.7, 0.7, 0.2], [1, 0, 0]) == pytest.approx(2 / 3)


def test_validation_errors():
    with pytest.raises(ValueError, match="length"):
        accuracy([0.5, 0.5], [1])
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        auroc([0.5, 0.6], [0, 2])


def test_evaluate_bundles_all_three():
    result = evaluate([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert result == EvalResult(auroc=1.0, auprc=1.0, accuracy=1.0, n=4)
    with pytest.raises(ValueError):
        EvalResult(auroc=1.0, auprc=1.0, accuracy=1.0, n=0)
