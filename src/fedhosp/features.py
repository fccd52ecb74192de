"""Fixed-length feature vectors from irregular 48-hour vital-sign episodes.

Each variable's measurement series is sliced into seven time windows over
the fixed [0, 48] hour horizon, six summary statistics are computed per
window, and the resulting 42-per-variable features are concatenated
variable-major. A min-max scaler then maps each feature into [-1, 1] based
on training-set extremes.

Window layout (q in {0.1, 0.25, 0.5}):

    full      [0, 48]        both ends closed
    first-q   [0, 48q)       half-open at the interior boundary
    last-q    [48(1-q), 48]  both ends closed

so e.g. a point at exactly hour 24 belongs to last-50% but not first-50%.
Windows are measured on the fixed horizon, not the observed span, which
keeps features comparable across episodes with different coverage.

``extract`` computes all windows of all episodes at once, with no Python
call per window:

1. One pass over the episodes flattens every (hour, value) pair into two
   arrays, in episode, then variable, then time order. Each point's series
   key is ``episode * V + variable``.
2. Each window is one boolean mask over the hours, using the same ``<`` and
   ``>=`` tests as ``slice_windows``. Within a window a series' points stay
   contiguous and in time order.
3. ``np.bincount`` of the masked keys gives each series' count. Series with
   the same count n are gathered into one (m, n) block, and the statistics
   are row reductions (``axis=1``) over it.

Steps 2 and 3 are ``extract_points``, which also takes the flat points of
``fedhosp.data.generate_points`` and ``load_points`` with no Episode built.

The result is bit-identical to applying ``window_stats`` to the output of
``slice_windows``, series by series. A row of a C-contiguous block reaches
numpy's reduction loop exactly as a 1-D array of the same values does, so
sums use the same pairwise order. ``m2 ** 1.5`` is taken with Python float
``**`` (the C library's ``pow``), as the scalar code does; numpy's
vectorised ``power`` can differ in the last bit. ``slice_windows`` and
``window_stats`` stay public as the scalar oracle that the tests compare
``extract`` against, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "HORIZON_HOURS",
    "WINDOW_NAMES",
    "STAT_NAMES",
    "Episode",
    "FeatureMatrix",
    "Scaler",
    "slice_windows",
    "window_stats",
    "extract",
    "extract_points",
    "feature_names",
    "fit_scaler",
    "transform",
]

HORIZON_HOURS = 48.0
WINDOW_NAMES = ("full", "first10", "first25", "first50", "last10", "last25", "last50")
STAT_NAMES = ("max", "min", "mean", "std", "skew", "count")
STATS_PER_VARIABLE = len(WINDOW_NAMES) * len(STAT_NAMES)  # 42

_QUANTS = (0.1, 0.25, 0.5)

# A variance at or below _REL_VAR_FLOOR * max|v|**2 (a std of 1e-5 * max|v|)
# is taken as constant: the mean's rounding alone moves the deviations by
# about 1e-16 * max|v|, so a skew computed from it would be rounding noise
# that depends on input order. Below _ABS_VAR_FLOOR, the third moment and
# m2**1.5 leave the normal double range and can underflow to 0.
_REL_VAR_FLOOR = 1e-10
_ABS_VAR_FLOOR = 1e-200


@dataclass(frozen=True)
class Episode:
    """One patient admission: per-variable timestamped measurements + outcome.

    ``series`` maps a variable name to its (hour, value) pairs, hours
    ascending within [0, 48]. A variable may be absent entirely.
    """

    episode_id: str
    series: dict[str, list[tuple[float, float]]]
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        for name, points in self.series.items():
            prev = -math.inf
            for hour, value in points:
                if not 0.0 <= hour <= HORIZON_HOURS:
                    raise ValueError(
                        f"episode {self.episode_id}: variable {name!r} has hour "
                        f"{hour!r} outside [0, {HORIZON_HOURS:g}]"
                    )
                if not math.isfinite(value):
                    raise ValueError(
                        f"episode {self.episode_id}: variable {name!r} has "
                        f"non-finite value {value!r}"
                    )
                if hour < prev:
                    raise ValueError(
                        f"episode {self.episode_id}: variable {name!r} hours "
                        "are not sorted ascending"
                    )
                prev = hour


def slice_windows(series) -> tuple[list[tuple[float, float]], ...]:
    """Split one variable's (hour, value) pairs into the 7 standard windows.

    Membership is by timestamp alone; an empty input yields 7 empty windows.
    """
    windows: tuple[list[tuple[float, float]], ...] = tuple([] for _ in WINDOW_NAMES)
    for hour, value in series:
        point = (hour, value)
        windows[0].append(point)
        for i, q in enumerate(_QUANTS):
            if hour < HORIZON_HOURS * q:
                windows[1 + i].append(point)
            if hour >= HORIZON_HOURS * (1.0 - q):
                windows[4 + i].append(point)
    return windows


def window_stats(values) -> tuple[float, float, float, float, float, float]:
    """(max, min, mean, std, skew, count) of a value sequence.

    Empty input gives all zeros (count included). std is the sample standard
    deviation (divisor n-1), 0 when n < 2. Skew is the moment-based
    Fisher-Pearson g1 = m3 / m2^1.5 with population central moments, 0 when
    n < 3 or the values are constant: their population variance m2 is at or
    below max(1e-10 * max|v|^2, 1e-200).
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    vmax, vmin = float(np.max(v)), float(np.min(v))
    mean = float(np.mean(v))
    std = float(np.std(v, ddof=1)) if n >= 2 else 0.0
    skew = 0.0
    if n >= 3:
        dev = v - mean
        m2 = float(np.mean(dev**2))
        scale = max(abs(vmax), abs(vmin))
        if m2 > max(_REL_VAR_FLOOR * scale * scale, _ABS_VAR_FLOOR):
            m3 = float(np.mean(dev**3))
            skew = m3 / m2**1.5
    return (vmax, vmin, mean, std, skew, float(n))


@dataclass(frozen=True)
class FeatureMatrix:
    """n extracted episodes: rows of width 42*V plus ids and labels."""

    rows: np.ndarray
    episode_ids: tuple[str, ...]
    labels: np.ndarray
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        n_vars = len(self.variables)
        if self.rows.ndim != 2 or self.rows.shape[1] != STATS_PER_VARIABLE * n_vars:
            raise ValueError(
                f"row width must be {STATS_PER_VARIABLE}*V = "
                f"{STATS_PER_VARIABLE * n_vars}, got {self.rows.shape}"
            )
        if len(self.episode_ids) != self.rows.shape[0] or self.labels.size != self.rows.shape[0]:
            raise ValueError("rows, episode_ids and labels disagree in length")
        if len(set(self.episode_ids)) != len(self.episode_ids):
            raise ValueError("episode ids are not unique")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("feature rows contain non-finite values")


def feature_names(variables) -> list[str]:
    """Column names in extraction order: variable-major, then window, then stat."""
    return [
        f"{var}__{win}__{stat}"
        for var in variables
        for win in WINDOW_NAMES
        for stat in STAT_NAMES
    ]


def _count_block_stats(block: np.ndarray) -> np.ndarray:
    """``window_stats`` of each row of an (m, n) block, n >= 1, as (m, 6)."""
    m, n = block.shape
    out = np.zeros((m, 6))
    vmax, vmin = block.max(axis=1), block.min(axis=1)
    mean = np.mean(block, axis=1)
    out[:, 0], out[:, 1], out[:, 2], out[:, 5] = vmax, vmin, mean, n
    if n >= 2:
        out[:, 3] = np.std(block, axis=1, ddof=1)
    if n >= 3:
        dev = block - mean[:, None]
        m2 = np.mean(dev**2, axis=1)
        scale = np.maximum(np.abs(vmax), np.abs(vmin))
        skewed = np.flatnonzero(m2 > np.maximum(_REL_VAR_FLOOR * scale * scale, _ABS_VAR_FLOOR))
        if skewed.size:
            m3 = np.mean(dev[skewed] ** 3, axis=1)
            denom = np.array([x**1.5 for x in m2[skewed].tolist()])
            out[skewed, 4] = m3 / denom
    return out


def extract(episodes, variables) -> FeatureMatrix:
    """Feature matrix over the given episodes and ordered variable list.

    A variable missing from an episode contributes the empty-window
    statistics (all zeros), so every row has width 42*V regardless of
    missingness. See the module docstring for how the windows are computed.
    """
    variables = tuple(variables)
    episodes = list(episodes)
    series = [ep.series.get(var, ()) for ep in episodes for var in variables]
    lengths = np.fromiter(map(len, series), dtype=np.intp, count=len(series))
    points = np.fromiter(
        chain.from_iterable(chain.from_iterable(series)),
        dtype=np.float64, count=2 * int(lengths.sum()),
    )
    return extract_points(
        points[0::2], points[1::2], np.repeat(np.arange(len(series)), lengths),
        tuple(ep.episode_id for ep in episodes),
        np.array([ep.label for ep in episodes], dtype=np.int64), variables,
    )


def extract_points(hour, value, key, episode_ids, labels, variables) -> FeatureMatrix:
    """``extract``'s matrix from flat points, with no Episode record.

    Point i belongs to series ``key[i] = row * len(variables) + column``;
    the points are sorted stably by (key, hour), the order ``extract``
    flattens episodes in, so each window's sums add in the same order.
    """
    variables = tuple(variables)
    if not variables:
        raise ValueError("variables list must be non-empty")
    n_series = len(episode_ids) * len(variables)
    masks = [np.ones(hour.size, dtype=bool)]
    masks += [hour < HORIZON_HOURS * q for q in _QUANTS]
    masks += [hour >= HORIZON_HOURS * (1.0 - q) for q in _QUANTS]
    # (series, window, stat) is the row layout: variable-major within a row.
    stats = np.zeros((n_series, len(WINDOW_NAMES), len(STAT_NAMES)))
    with np.errstate(over="ignore", invalid="ignore"):  # FeatureMatrix rejects inf/nan
        for w, mask in enumerate(masks):
            w_values = value[mask]
            counts = np.bincount(key[mask], minlength=n_series)
            starts = np.cumsum(counts) - counts
            for n in np.flatnonzero(np.bincount(counts)[1:]) + 1:
                ids = np.flatnonzero(counts == n)
                block = w_values[starts[ids, None] + np.arange(n)]
                stats[ids, w] = _count_block_stats(block)
    return FeatureMatrix(
        rows=stats.reshape(len(episode_ids), STATS_PER_VARIABLE * len(variables)),
        episode_ids=episode_ids, labels=labels, variables=variables,
    )


@dataclass(frozen=True)
class Scaler:
    """Per-feature (min, max) learned from training rows; maps into [-1, 1]."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("mins and maxs must be 1-D and equal length")
        if np.any(self.maxs < self.mins):
            raise ValueError("scaler has max < min for some feature")


def fit_scaler(train_rows) -> Scaler:
    """Learn per-feature extremes from >= 1 training rows."""
    x = np.atleast_2d(np.asarray(train_rows, dtype=np.float64))
    if x.shape[0] < 1 or x.size == 0:
        raise ValueError("fit_scaler needs at least one row")
    return Scaler(mins=x.min(axis=0), maxs=x.max(axis=0))


def transform(scaler: Scaler, rows) -> np.ndarray:
    """x' = 2(x - min)/(max - min) - 1 per feature.

    Zero-range features map to 0; out-of-range values are clipped into
    [-1, 1]. Training rows land in [-1, 1] exactly, attaining the endpoints
    at each feature's extremes.
    """
    x = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if x.shape[1] != scaler.mins.size:
        raise ValueError(
            f"row width mismatch: scaler has {scaler.mins.size} features, "
            f"rows have {x.shape[1]}"
        )
    span = scaler.maxs - scaler.mins
    nonzero = span > 0.0
    out = np.zeros_like(x)
    out[:, nonzero] = 2.0 * (x[:, nonzero] - scaler.mins[nonzero]) / span[nonzero] - 1.0
    return np.clip(out, -1.0, 1.0, out=out)
