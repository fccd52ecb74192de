"""Metric tests, including the brute-force pairwise AUROC oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhosp.metrics import EvalResult, accuracy, auprc, auroc, evaluate


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


def _rank_auroc(scores, labels):
    """The average-rank (Mann-Whitney U) formula: the oracle for counting."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = _average_ranks(scores)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


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
@settings(max_examples=300, deadline=None)
def test_counting_auroc_equals_the_average_rank_formula_bit_for_bit(data):
    palette = data.draw(st.lists(st.sampled_from([-0.0, 0.0]) | st.floats(allow_nan=False),
                                 min_size=1, max_size=5))
    n = data.draw(st.integers(2, 60))
    labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
                                .filter(lambda ls: 0 < sum(ls) < len(ls))))
    scores = np.array(data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n)))
    got, want = auroc(scores, labels), _rank_auroc(scores, labels)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _int_label_auprc_and_accuracy(scores, labels):
    """AUPRC and accuracy computed over int64 labels, as before the labels became a mask."""
    s, y = np.asarray(scores, dtype=np.float64), np.asarray(labels).astype(np.int64)
    hits = y[np.argsort(-s, kind="stable")]
    precision_at_k = np.cumsum(hits) / np.arange(1, y.size + 1)
    predicted = (s >= 0.5).astype(np.int64)
    return (float(precision_at_k[hits == 1].sum() / int(y.sum())),
            float(np.mean(predicted == y)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_auprc_and_accuracy_equal_the_int_label_formulas_bit_for_bit(data):
    n = data.draw(st.integers(1, 50))
    labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
                       .filter(lambda ls: 1 in ls))
    scores = np.array(data.draw(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])
                                         | st.floats(allow_nan=False), min_size=n, max_size=n)))
    want = _int_label_auprc_and_accuracy(scores, labels)
    for form in (labels, np.array(labels, dtype=float), np.array(labels, dtype=bool)):
        got = (auprc(scores, form), accuracy(scores, form))
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_counting_auroc_equals_the_average_rank_formula_at_scale():
    rng = np.random.default_rng(13)
    scores = rng.choice([-0.0, 0.0, 0.125, 0.5, 1.0], size=200_001)
    labels = (rng.random(scores.size) < 0.3).astype(int)
    assert np.float64(auroc(scores, labels)).tobytes() == \
        np.float64(_rank_auroc(scores, labels)).tobytes()


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
