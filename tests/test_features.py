"""Feature pipeline tests: windows, statistics, extraction, scaling."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest
from episode_route import extract, points_of
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedhosp import features
from fedhosp.features import (
    HORIZON_HOURS,
    STAT_NAMES,
    STATS_PER_VARIABLE,
    WINDOW_NAMES,
    Episode,
    FeatureMatrix,
    Points,
    Scaler,
    feature_names,
    fit_scaler,
    slice_windows,
    transform,
    window_stats,
)


def test_window_layout_on_three_points():
    windows = slice_windows([(0.0, 1.0), (24.0, 2.0), (47.0, 3.0)])
    by_name = dict(zip(WINDOW_NAMES, windows))
    assert by_name["full"] == [(0.0, 1.0), (24.0, 2.0), (47.0, 3.0)]
    # first-50% is [0, 24): hour 24 itself is excluded
    assert by_name["first50"] == [(0.0, 1.0)]
    assert by_name["last50"] == [(24.0, 2.0), (47.0, 3.0)]
    assert by_name["first10"] == [(0.0, 1.0)]
    assert by_name["last10"] == [(47.0, 3.0)]


def test_point_at_hour_zero_misses_all_last_windows():
    windows = dict(zip(WINDOW_NAMES, slice_windows([(0.0, 5.0)])))
    for name in ("full", "first10", "first25", "first50"):
        assert windows[name] == [(0.0, 5.0)]
    for name in ("last10", "last25", "last50"):
        assert windows[name] == []


def test_empty_series_gives_seven_empty_windows():
    assert slice_windows([]) == ([],) * 7


def test_window_stats_symmetric_series():
    assert window_stats([1, 2, 3]) == (3.0, 1.0, 2.0, 1.0, 0.0, 3.0)


def test_window_stats_empty_and_singleton():
    assert window_stats([]) == (0.0,) * 6
    assert window_stats([4.5]) == (4.5, 4.5, 4.5, 0.0, 0.0, 1.0)


def test_window_stats_skew_example():
    # m3/m2^1.5 of [1,1,2] is (2/27)/(2/9)^1.5 = 1/sqrt(2)
    stats = window_stats([1.0, 1.0, 2.0])
    assert stats[4] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert stats[3] == pytest.approx(np.std([1, 1, 2], ddof=1), abs=1e-15)


def test_window_stats_constant_series_has_zero_spread():
    assert window_stats([7.0, 7.0, 7.0, 7.0]) == (7.0, 7.0, 7.0, 0.0, 0.0, 4.0)


def test_window_stats_near_constant_series_has_zero_skew():
    # m2 of these values is far below the rounding of their mean
    assert window_stats([1e6, 1e6, 1e6 + 1e-9, 1e6])[4] == 0.0
    # m2**1.5 and m3 underflow to 0 here; the series counts as constant
    assert window_stats([0.0, 0.0, 5.96e-128])[4] == 0.0
    # well above both floors the skew is computed as before
    assert window_stats([0.0, 0.0, 1e-90])[4] == pytest.approx(1.0 / np.sqrt(2.0))


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=30),
       st.randoms(use_true_random=False))
@example([0.0, 0.0, 5.96e-128], random.Random(0))
@settings(max_examples=150, deadline=None)
def test_window_stats_permutation_invariant(values, rand):
    shuffled = list(values)
    rand.shuffle(shuffled)
    assert window_stats(shuffled) == pytest.approx(window_stats(values), rel=1e-9, abs=1e-9)


def _episode(eid="e1", label=0, **series):
    return Episode(episode_id=eid, label=label,
                   series={k: list(v) for k, v in series.items()})


def test_episode_validation():
    with pytest.raises(ValueError, match="outside"):
        _episode(hr=[(49.0, 1.0)])
    with pytest.raises(ValueError, match="sorted"):
        _episode(hr=[(5.0, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError, match="label"):
        _episode(label=2)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match=f"^episode e1: variable 'hr' has non-finite value {bad}$"):
            _episode(hr=[(1.0, 2.0), (3.0, bad)])


def test_extract_width_and_order():
    episodes = [
        _episode("a", 1, hr=[(0.0, 5.0)]),
        _episode("b", 0),  # no measurements at all
    ]
    matrix = extract(episodes, ["hr", "sbp"])
    assert matrix.rows.shape == (2, 84)
    assert matrix.episode_ids == ("a", "b")
    assert list(matrix.labels) == [1, 0]
    # row a: hr full-window stats are (5,5,5,0,0,1); all last-q windows empty
    assert list(matrix.rows[0, :6]) == [5.0, 5.0, 5.0, 0.0, 0.0, 1.0]
    assert np.all(matrix.rows[0, 24:42] == 0.0)  # last10/last25/last50 of hr
    assert np.all(matrix.rows[0, 42:] == 0.0)    # sbp absent entirely
    assert np.all(matrix.rows[1] == 0.0)


def test_extract_is_order_stable_and_deterministic():
    episodes = [
        _episode("a", 1, hr=[(1.0, 2.0), (30.0, 4.0)]),
        _episode("b", 0, hr=[(2.0, 3.0)], sbp=[(10.0, 110.0)]),
    ]
    m1 = extract(episodes, ["hr", "sbp"])
    m2 = extract(episodes, ["hr", "sbp"])
    assert np.array_equal(m1.rows, m2.rows)
    # swapping the variable order permutes 42-wide blocks
    m3 = extract(episodes, ["sbp", "hr"])
    assert np.array_equal(m3.rows[:, :42], m1.rows[:, 42:])
    assert np.array_equal(m3.rows[:, 42:], m1.rows[:, :42])


def _oracle_rows(episodes, variables):
    """Rows built series by series from slice_windows + window_stats."""
    rows = np.zeros((len(episodes), STATS_PER_VARIABLE * len(variables)))
    for i, ep in enumerate(episodes):
        stats = [
            window_stats([value for _, value in window])
            for var in variables
            for window in slice_windows(ep.series.get(var, ()))
        ]
        rows[i] = np.ravel(stats)
    return rows


# every window boundary, as the literal hour and as the computed one
_BOUNDARY_HOURS = sorted({0.0, 4.8, 12.0, 24.0, 36.0, 43.2, HORIZON_HOURS}
                         | {HORIZON_HOURS * q for q in (0.1, 0.25, 0.5)}
                         | {HORIZON_HOURS * (1.0 - q) for q in (0.1, 0.25, 0.5)})
_hours = st.sampled_from(_BOUNDARY_HOURS) | st.floats(0.0, HORIZON_HOURS)


@st.composite
def _series(draw):
    n = draw(st.integers(0, 30))
    hours = sorted(draw(st.lists(_hours, min_size=n, max_size=n)))
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    else:  # near-constant: one level plus tiny offsets
        base = draw(st.floats(-1e3, 1e3))
        offsets = st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 1e-300, 5.96e-128])
        values = [base + d for d in draw(st.lists(offsets, min_size=n, max_size=n))]
    return list(zip(hours, values))


_VARIABLES = ("hr", "sbp", "temp")


@st.composite
def _episodes(draw):
    episodes = []
    for i in range(draw(st.integers(0, 5))):
        present = draw(st.lists(st.sampled_from(_VARIABLES), unique=True))
        series = {var: draw(_series()) for var in present}
        episodes.append(Episode(episode_id=f"e{i}", series=series, label=i % 2))
    return episodes


@given(_episodes(), st.sampled_from([_VARIABLES, ("temp", "hr"), ("sbp",)]))
@settings(max_examples=200, deadline=None)
def test_extract_matches_scalar_oracle_bit_for_bit(episodes, variables):
    matrix = extract(episodes, variables)
    assert matrix.rows.tobytes() == _oracle_rows(episodes, variables).tobytes()


@pytest.mark.parametrize("variables, repeated", [(("hr", "hr"), "hr"),
                                                  (("sbp", "hr", "temp", "hr", "sbp"), "sbp")])
def test_a_repeated_variable_name_is_an_error(variables, repeated):
    episodes = [_episode("a", 1, hr=[(1.0, 2.0)], sbp=[(3.0, 4.0)])]
    error = f"^variables name '{repeated}' more than once$"
    with pytest.raises(ValueError, match=error):
        extract(episodes, variables)
    with pytest.raises(ValueError, match=error):
        features.extract(points_of(episodes), variables)


@pytest.mark.parametrize("take, got", [
    (np.ones(8, dtype=bool), "bool of shape (8,)"),
    (np.ones(12, dtype=bool), "bool of shape (12,)"),
    (np.arange(10, dtype=np.int64), "int64 of shape (10,)"),
    (np.ones((10, 1), dtype=bool), "bool of shape (10, 1)"),
], ids=["short", "long", "integer", "matrix"])
def test_take_must_mark_each_episode_once(take, got):
    points = points_of([_episode(f"e{i}", i % 2, hr=[(1.0, 2.0)]) for i in range(10)])
    message = f"take must be a boolean vector of one entry per episode (10), got {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        points.take(take)
    half = points.take([k < 5 for k in range(10)])
    assert len(points) == 10 and len(half) == 5
    assert features.extract(half, ("hr",)).episode_ids == ("e0", "e1", "e2", "e3", "e4")


def _points(**changes):
    """Two episodes, two variables, three points, with ``changes`` made."""
    fields = dict(episode_ids=("a", "b"), labels=np.array([0, 1]), variables=("hr", "sbp"),
                  episode=np.array([0, 0, 1]), variable=np.array([0, 1, 1]),
                  hour=np.array([0.0, 24.0, 48.0]), value=np.array([1.0, 2.0, 3.0]))
    return Points(**{**fields, **changes})


@pytest.mark.parametrize("changes, error", [
    ({"hour": np.array([0.0, 60.0, 48.0])}, "hour 60.0 outside [0, 48]"),
    ({"hour": np.array([-1.0, 24.0, 48.0])}, "hour -1.0 outside [0, 48]"),
    ({"hour": np.array([0.0, np.nan, 48.0])}, "hour nan outside [0, 48]"),
    ({"value": np.array([1.0, np.inf, 3.0])}, "non-finite value inf"),
    ({"value": np.array([1.0, 2.0, np.nan])}, "non-finite value nan"),
    ({"episode": np.array([0, -1, 1])}, "episode index -1 outside [0, 2)"),
    ({"episode": np.array([0, 5, 1])}, "episode index 5 outside [0, 2)"),
    ({"variable": np.array([0, 3, 1])}, "variable index 3 outside [0, 2)"),
    ({"episode": np.array([0.0, 0.0, 1.0])}, "episode index array must hold integers, got float64"),
    ({"labels": np.array([0, 2])}, "label 2 outside [0, 2)"),
    ({"labels": np.array([0.0, 1.0])}, "label array must hold integers, got float64"),
    ({"labels": np.array([0, 1, 1])}, "2 episode ids but labels of shape (3,)"),
    ({"labels": np.array([[0, 1]])}, "2 episode ids but labels of shape (1, 2)"),
    ({"value": np.array([1.0, 2.0])},
     "point arrays must be 1-D of one length, got shapes [(3,), (3,), (3,), (2,)]"),
    ({"episode": np.array([[0, 0, 1]])},
     "point arrays must be 1-D of one length, got shapes [(1, 3), (3,), (3,), (3,)]"),
    ({"episode_ids": ("a", "a")}, "episode ids are not unique"),
    ({"episode_ids": ["a", "b"]}, "episode_ids must be tuple[str, ...], got ['a', 'b']"),
    ({"variables": ("hr", 2)}, "variables[1] must be str, got 2"),
    ({"hour": [0.0, 24.0, 48.0]}, "hour must be ndarray, got [0.0, 24.0, 48.0]"),
], ids=["hour_60", "hour_-1", "hour_nan", "value_inf", "value_nan", "episode_-1", "episode_5",
        "variable_3", "float_index", "label_2", "float_labels", "labels_long", "labels_2d",
        "value_short", "episode_2d", "duplicate_id", "ids_list", "variable_name", "hour_list"])
def test_points_refuses_a_malformed_record(changes, error):
    _points()
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        _points(**changes)


def test_feature_names_align_with_columns():
    names = feature_names(["hr"])
    assert len(names) == 42
    assert names[0] == "hr__full__max"
    assert names[6] == "hr__first10__max"
    assert names[-1] == "hr__last50__count"
    assert [n.rsplit("__", 1)[1] for n in names[:6]] == list(STAT_NAMES)


def test_feature_matrix_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        FeatureMatrix(rows=np.zeros((2, 42)), episode_ids=("a", "a"),
                      labels=np.zeros(2, dtype=np.int64), variables=("hr",))


@pytest.mark.parametrize("rows, ids, n_labels, error", [
    (np.zeros((2, 41)), ("a", "b"), 2, r"row width must be 42\*V = 42, got \(2, 41\)"),
    (np.zeros(42), ("a",), 1, r"row width must be 42\*V = 42, got \(42,\)"),
    (np.zeros((2, 42)), ("a",), 2, "rows, episode_ids and labels disagree in length"),
    (np.zeros((2, 42)), ("a", "b"), 3, "rows, episode_ids and labels disagree in length"),
    (np.full((2, 42), np.nan), ("a", "b"), 2, "feature rows contain non-finite values"),
], ids=["width", "one_dimensional", "ids", "labels", "non_finite"])
def test_feature_matrix_checks_its_shape_and_values(rows, ids, n_labels, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        FeatureMatrix(rows=rows, episode_ids=ids, labels=np.zeros(n_labels, dtype=np.int64),
                      variables=("hr",))


def test_scaler_examples():
    scaler = fit_scaler(np.array([[2.0, 3.0], [6.0, 3.0]]))
    out = transform(scaler, np.array([[4.0, 3.0]]))
    assert out[0, 0] == 0.0   # midpoint of (2, 6)
    assert out[0, 1] == 0.0   # constant training feature maps to 0
    assert transform(scaler, np.array([[8.0, 3.0]]))[0, 0] == 1.0  # clipped
    assert transform(scaler, np.array([[-1.0, 3.0]]))[0, 0] == -1.0


def test_scaled_training_rows_hit_unit_interval_exactly():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(50, 9)) * rng.uniform(0.1, 100, 9)
    scaled = transform(fit_scaler(x), x)
    assert scaled.min() >= -1.0 and scaled.max() <= 1.0
    # every non-constant feature attains both endpoints exactly
    assert np.all(scaled.max(axis=0) == 1.0)
    assert np.all(scaled.min(axis=0) == -1.0)


def test_scaler_checks_its_extremes():
    with pytest.raises(ValueError, match="^mins and maxs must be 1-D and equal length$"):
        Scaler(mins=np.zeros(2), maxs=np.zeros(3))
    with pytest.raises(ValueError, match="^mins and maxs must be 1-D and equal length$"):
        Scaler(mins=np.zeros((1, 2)), maxs=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="^scaler has max < min for some feature$"):
        Scaler(mins=np.array([0.0, 1.0]), maxs=np.array([1.0, 0.5]))
    for rows in (np.zeros((0, 3)), []):
        with pytest.raises(ValueError, match="^fit_scaler needs at least one row$"):
            fit_scaler(rows)


@pytest.mark.parametrize("rows, column, lo, hi", [
    ([[0.0, 1e308], [1.0, -1e308], [2.0, 80.0], [3.0, 90.0]], 1, "-1e+308", "1e+308"),
    ([[1e308], [0.0], [80.0], [9e307]], 0, "0.0", "1e+308"),
], ids=["both_signs", "twice_overflows"])
def test_fit_scaler_refuses_a_feature_too_wide_to_scale(rows, column, lo, hi):
    """A finite range whose double overflows would scale to nan or to a wrong 1.0."""
    with pytest.raises(ValueError, match=f"^feature column {column} spans "
                                         rf"\[{re.escape(lo)}, {re.escape(hi)}\]: "):
        fit_scaler(rows)
    quarter = np.array(rows) / 4  # twice a quarter of the range is finite: it scales
    scaled = transform(fit_scaler(quarter), quarter)[:, column]
    assert np.isfinite(scaled).all() and scaled.min() == -1.0 and scaled.max() == 1.0


def test_extract_needs_a_variable():
    with pytest.raises(ValueError, match="^variables list must be non-empty$"):
        extract([_episode(hr=[(1.0, 2.0)])], [])


def test_transform_width_mismatch():
    scaler = fit_scaler(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="width mismatch"):
        transform(scaler, np.zeros((2, 5)))
