"""Synthetic episode generation, CSV round-trip, splitting and partitioning.

An episode set is one ``Points`` record (see ``fedhosp.features``):
``generate`` draws one, ``save_episodes`` writes one, ``load_episodes`` reads
one and ``split_train_test`` cuts one in two.

The generator is a stand-in for restricted-access clinical data: it draws
per-variable baselines and noise scales once per run, then shifts the
positive class upward by ``effect_size`` noise-standard-deviations, giving
a controllable, seed-reproducible signal for end-to-end experiments.

File formats (written with headers):

    measurements.csv:  episode_id,variable,hour,value
    labels.csv:        episode_id,label

The bytes are those of ``csv.writer``'s defaults: QUOTE_MINIMAL quoting,
``\\r\\n`` line ends, and every float written as its ``repr``.

Every function here is deterministic in its seed; none keeps global state.
"""

from __future__ import annotations

import csv
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np

from .checks import check_fields
from .features import HORIZON_HOURS, Points

__all__ = [
    "DEFAULT_VARIABLES",
    "MAX_SYNTHETIC_POINTS",
    "PARTITION_STRATEGIES",
    "SyntheticConfig",
    "PartitionPlan",
    "HospitalDataset",
    "variable_names",
    "generate",
    "save_episodes",
    "load_episodes",
    "split_train_test",
    "partition_rows",
    "partition",
]

DEFAULT_VARIABLES = (
    "heart_rate",
    "systolic_bp",
    "diastolic_bp",
    "respiratory_rate",
    "temperature",
    "oxygen_saturation",
    "glucose",
)

# Bound on n_episodes * n_variables * max points per series (at least 1), the
# most points a synthetic dataset may hold: 30x a 2,000-episode, 7-variable,
# 12-point set. Under tracemalloc ``generate`` peaks at ~62 bytes per point,
# generate + ``save_episodes`` at ~115 and ``experiment.prepare`` at ~140: at
# most 0.3, 0.6 and 0.7 GB.
MAX_SYNTHETIC_POINTS = 5_000_000

PARTITION_STRATEGIES = ("equal_iid", "label_skew")

_MEASUREMENTS_HEADER = ["episode_id", "variable", "hour", "value"]


def variable_names(n_variables: int) -> tuple[str, ...]:
    """First `n_variables` of ``DEFAULT_VARIABLES``, then generic names past its end."""
    if n_variables < 1:
        raise ValueError(f"n_variables must be >= 1, got {n_variables}")
    names = list(DEFAULT_VARIABLES[:n_variables])
    names += [f"signal_{i}" for i in range(len(names), n_variables)]
    return tuple(names)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic episode generator. Each series holds between
    ``points_min`` and ``points_max`` points, both included; the whole set at
    most ``MAX_SYNTHETIC_POINTS``."""

    n_episodes: int
    n_variables: int = len(DEFAULT_VARIABLES)
    prevalence: float = 0.15
    effect_size: float = 1.0
    points_min: int = 4
    points_max: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, n_episodes=2, n_variables=1, points_min=0,
                     points_max=self.points_min, seed=0)
        if not 0.0 < self.prevalence < 1.0:
            raise ValueError(f"prevalence must lie in (0,1), got {self.prevalence}")
        per_series = max(self.points_max, 1)
        if self.n_episodes * self.n_variables * per_series > MAX_SYNTHETIC_POINTS:
            raise ValueError(f"{self.n_episodes} episodes x {self.n_variables} variables x "
                             f"{per_series} points exceed the bound of {MAX_SYNTHETIC_POINTS}")
        if not 1 <= self.n_positive < self.n_episodes:
            raise ValueError(
                f"prevalence {self.prevalence} with n={self.n_episodes} leaves "
                "a class empty"
            )

    @property
    def n_positive(self) -> int:
        return round(self.prevalence * self.n_episodes)


def generate(cfg: SyntheticConfig) -> Points:
    """Draw a synthetic episode set as ``Points``; byte-identical across calls per seed.

    Exactly ``round(prevalence * n)`` episodes are positive, chosen by a
    seeded shuffle. Per variable, a baseline level and noise scale are drawn
    once; positive episodes' values are shifted by effect_size * noise_std.

    Each series, episode-major then variable-major in ``variable_names``
    order, draws its point count, its hours and its noise in that order.
    Its hours are then sorted (equal hours in draw order) while its values
    stay in draw order, so no Python code runs per point.
    """
    rng = np.random.default_rng(cfg.seed)
    baselines = rng.uniform(20.0, 120.0, cfg.n_variables)
    noise_stds = rng.uniform(1.0, 10.0, cfg.n_variables)
    positive = np.zeros(cfg.n_episodes, dtype=bool)
    positive[rng.permutation(cfg.n_episodes)[: cfg.n_positive]] = True

    counts, hour_draws, noise_draws = [], array("d"), array("d")
    for _ in range(cfg.n_episodes * cfg.n_variables):
        n_pts = int(rng.integers(cfg.points_min, cfg.points_max, endpoint=True))
        counts.append(n_pts)
        hour_draws.frombytes(rng.random(n_pts).tobytes())
        noise_draws.frombytes(rng.standard_normal(n_pts).tobytes())
    series_of_point = np.repeat(np.arange(len(counts)), counts)
    episode, variable = np.divmod(series_of_point, cfg.n_variables)
    # numpy's uniform(0, H) and normal(0, s) are 0.0 + H * u and 0.0 + s * z, bit for bit.
    hours, noise = np.frombuffer(hour_draws), np.frombuffer(noise_draws)
    hours *= HORIZON_HOURS
    noise *= noise_stds[variable]
    hour = hours[np.lexsort((hours, series_of_point))]
    # One level per series, (baseline + shift) + noise as in a scalar loop.
    levels = baselines + np.where(positive[:, None], cfg.effect_size * noise_stds, 0.0)
    value = levels.ravel()[series_of_point] + noise
    return Points(tuple(f"e{i:05d}" for i in range(cfg.n_episodes)), positive.astype(np.int64),
                  variable_names(cfg.n_variables), episode, variable, hour, value)


class _Echo:
    """A file whose ``write`` returns its text, so ``csv.writer.writerow``
    returns the formatted row instead of writing it."""

    @staticmethod
    def write(text: str) -> str:
        return text


def save_episodes(points: Points, measurements_path, labels_path) -> None:
    """Write ``points`` to the two-file CSV format in point order; floats round-trip exactly.

    ``csv.writer`` quotes the ``episode_id,variable,`` prefix of each run of
    points in one series once; the points follow as ``str`` text, which never
    needs quoting, in one write per run. The bytes equal a ``writerow`` per point.
    """
    for path in (measurements_path, labels_path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    quote = csv.writer(_Echo())
    series = points.episode * len(points.variables) + points.variable
    starts = np.flatnonzero(np.diff(series, prepend=-1)).tolist()
    hours, values = points.hour.tolist(), points.value.tolist()
    with open(measurements_path, "w", newline="") as f:
        f.write(quote.writerow(_MEASUREMENTS_HEADER))
        for start, end in zip(starts, starts[1:] + [len(hours)]):
            prefix = quote.writerow([points.episode_ids[points.episode[start]],
                                     points.variables[points.variable[start]], ""])[:-2]
            f.write("".join([f"{prefix}{h},{v}\r\n" for h, v in zip(hours[start:end],
                                                                      values[start:end])]))
    with open(labels_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["episode_id", "label"])
        writer.writerows(zip(points.episode_ids, points.labels.tolist()))


def _parse_error(path, line_no: int, problem: str) -> ValueError:
    return ValueError(f"{Path(path).name}, line {line_no}: {problem}")


# One measurements row, as either route of ``load_episodes`` parses it.
_ROW = np.dtype([("episode", object), ("variable", object), ("hour", "f8"), ("value", "f8")])


def _load_labels(labels_path) -> dict[str, int]:
    labels: dict[str, int] = {}
    with open(labels_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["episode_id", "label"]:
            raise _parse_error(labels_path, 1, f"unexpected header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise _parse_error(labels_path, line_no, f"expected 2 columns, got {len(row)}")
            eid, label_text = row
            if label_text not in ("0", "1"):
                raise _parse_error(labels_path, line_no, f"label must be 0 or 1, got {label_text!r}")
            if eid in labels:
                raise _parse_error(labels_path, line_no, f"duplicate label row for episode {eid!r}")
            labels[eid] = int(label_text)
    return labels


def _points(table: np.ndarray, labels: dict[str, int], index: dict[str, int]) -> Points:
    """``Points`` of ``labels`` and of ``table``, the measurement rows as ``_ROW`` records.

    Raises KeyError for a row of an unlabelled episode, and ValueError where
    ``Points`` refuses a column, without saying which row is bad.
    """
    episode = np.fromiter(map(index.__getitem__, table["episode"]), np.intp, table.size)
    variables = {var: i for i, var in enumerate(sorted(set(table["variable"])))}
    variable = np.fromiter(map(variables.__getitem__, table["variable"]), np.intp, table.size)
    hour, value = table["hour"].copy(), table["value"].copy()
    del table  # the name strings, most of its memory, freed if no caller names the table
    return Points(tuple(labels), np.fromiter(labels.values(), np.int64, len(labels)),
                  tuple(variables), episode, variable, hour, value)


def _checked_rows(measurements_path, index: dict[str, int]) -> np.ndarray:
    """The measurement rows as ``csv.reader`` reads them and ``float`` reads
    their numbers, as ``_ROW`` records; raises the first bad row's error."""
    rows = []
    with open(measurements_path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise _parse_error(measurements_path, line_no, f"expected 4 columns, got {len(row)}")
            eid, variable, hour_text, value_text = row
            if eid not in index:
                raise _parse_error(
                    measurements_path, line_no,
                    f"episode {eid!r} has measurements but no label row",
                )
            try:
                hour, value = float(hour_text), float(value_text)
            except ValueError:
                raise _parse_error(
                    measurements_path, line_no, f"non-numeric hour/value {row[2:]!r}"
                ) from None
            if not 0.0 <= hour <= HORIZON_HOURS:
                raise _parse_error(
                    measurements_path, line_no,
                    f"hour {hour!r} outside [0, {HORIZON_HOURS:g}]",
                )
            if not math.isfinite(value):
                raise _parse_error(measurements_path, line_no, f"non-finite value {value!r}")
            rows.append((eid, variable, hour, value))
    return np.array(rows, dtype=_ROW)


def load_episodes(measurements_path, labels_path) -> Points:
    """Read the two-file CSV format into ``Points`` in file order, with the
    names the rows hold, sorted, as ``variables``.

    The labels file defines which episodes exist (an episode may have zero
    measurements); a measurement row naming an unlisted episode is an error.
    ``np.loadtxt`` parses the measurement rows, one line of the open file at
    a time, and ``Points`` checks the whole columns. If a check fails, or a line
    held no row (a blank line, or a quoted line break), ``_checked_rows`` parses
    the file instead: it reads numbers as ``float`` does (``1_0`` too) and
    raises the first bad row's error.
    """
    labels = _load_labels(labels_path)
    index = {eid: i for i, eid in enumerate(labels)}
    with open(measurements_path, newline="") as f:
        header = next(csv.reader(f), None)
        if header != _MEASUREMENTS_HEADER:
            raise _parse_error(measurements_path, 1, f"unexpected header {header!r}")
        n_lines = count()  # the lines loadtxt takes: one per row if none is blank or split
        lines = map(operator.itemgetter(0), zip(f, n_lines))
        first = next(lines, "")
        try:
            points = _points(np.loadtxt(chain([first], lines), dtype=_ROW, delimiter=",",
                                        comments=None, quotechar='"', ndmin=1)
                             if first.rstrip("\r\n") else np.empty(0, _ROW), labels, index)
        except (ValueError, KeyError):
            points = None
    if points is None or next(n_lines) != points.hour.size:
        points = _points(_checked_rows(measurements_path, index), labels, index)
    return points


def split_train_test(points: Points, test_fraction: float, seed: int) -> tuple[Points, Points]:
    """Label-stratified random split of ``points`` into (train, test).

    Per class, ``round(test_fraction * n_class)`` episodes go to the test
    side; both sides must keep at least one episode of each class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie strictly in (0,1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    is_test = np.zeros(len(points), dtype=bool)
    for label in (0, 1):
        class_idx = np.flatnonzero(points.labels == label)
        n_test = round(test_fraction * class_idx.size)
        if n_test < 1 or n_test >= class_idx.size:
            raise ValueError(
                f"class {label} has {class_idx.size} episodes; test_fraction "
                f"{test_fraction} leaves train or test empty for it"
            )
        is_test[rng.permutation(class_idx)[:n_test]] = True
    return points.take(~is_test), points.take(is_test)


@dataclass(frozen=True)
class PartitionPlan:
    """How to split one dataset across K hospitals.

    ``equal_iid`` shuffles and deals near-equal shards. ``label_skew`` draws
    per-class shard proportions from a symmetric Dirichlet(skew_alpha), the
    same proportions for train and test, giving non-IID label mixes; smaller
    alpha means more skew.
    """

    strategy: str
    n_hospitals: int
    skew_alpha: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, strategy=PARTITION_STRATEGIES, n_hospitals=1, seed=0)
        if self.strategy == "label_skew" and not self.skew_alpha > 0.0:
            raise ValueError(f"skew_alpha must be positive, got {self.skew_alpha}")


@dataclass(eq=False)
class HospitalDataset:
    """One hospital's local data: finite train and test rows with 0/1 labels."""

    hospital_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self) -> None:
        self.train_x = np.atleast_2d(np.asarray(self.train_x, dtype=np.float64))
        self.test_x = np.atleast_2d(np.asarray(self.test_x, dtype=np.float64))
        self.train_y = np.asarray(self.train_y).reshape(-1)
        self.test_y = np.asarray(self.test_y).reshape(-1)
        check_fields(self, hospital_id=0)
        for part, x, y in (("train", self.train_x, self.train_y),
                           ("test", self.test_x, self.test_y)):
            if x.shape[0] < 1:
                raise ValueError(f"hospital {self.hospital_id}: empty {part} set")
            if x.shape[0] != y.size:
                raise ValueError(
                    f"hospital {self.hospital_id}: {part} rows/labels mismatch "
                    f"({x.shape[0]} vs {y.size})"
                )
            if not np.isin(y, (0, 1)).all():
                raise ValueError(f"hospital {self.hospital_id}: {part} labels must be 0 or 1")
            if not np.isfinite(x).all():
                raise ValueError(f"hospital {self.hospital_id}: {part} rows must be finite")

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_x.shape[0]


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer shard sizes summing to total, closest to the proportions."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    counts[np.argsort(-(raw - counts), kind="stable")[: total - counts.sum()]] += 1
    return counts


def partition_rows(x, y, plan: PartitionPlan) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split one (rows, labels) set into K disjoint, complete shards."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).reshape(-1)
    n, k = y.size, plan.n_hospitals
    if x.shape[0] != n:
        raise ValueError(f"rows and labels disagree in length: {x.shape[0]} vs {n}")
    if k > n:
        raise ValueError(f"cannot split {n} rows across {k} hospitals")

    rng = np.random.default_rng(plan.seed)
    if plan.strategy == "equal_iid":
        shard_indices = np.array_split(rng.permutation(n), k)
    else:
        # One Dirichlet draw per class, before any shuffling, so train and
        # test calls sharing a plan see identical shard proportions.
        proportions = {
            label: rng.dirichlet(np.full(k, plan.skew_alpha)) for label in (0, 1)
        }
        shard_indices = [[] for _ in range(k)]
        for label in (0, 1):
            class_idx = rng.permutation(np.flatnonzero(y == label))
            counts = _largest_remainder_counts(proportions[label], class_idx.size)
            for shard, dealt in zip(shard_indices, np.split(class_idx, np.cumsum(counts)[:-1])):
                shard.extend(dealt)
        # Dirichlet tails can starve a shard entirely; repair by moving one
        # row at a time from the currently largest shard.
        while any(len(s) == 0 for s in shard_indices):
            donor = max(range(k), key=lambda i: len(shard_indices[i]))
            receiver = next(i for i in range(k) if not shard_indices[i])
            shard_indices[receiver].append(shard_indices[donor].pop())
        shard_indices = [np.array(sorted(s), dtype=np.int64) for s in shard_indices]

    return [(x[idx], y[idx]) for idx in shard_indices]


def partition(train_x, train_y, test_x, test_y, plan: PartitionPlan) -> list[HospitalDataset]:
    """Deal train and test rows to K hospitals (ids 1..K) under one plan."""
    shards = zip(partition_rows(train_x, train_y, plan), partition_rows(test_x, test_y, plan))
    return [HospitalDataset(k, *train, *test) for k, (train, test) in enumerate(shards, start=1)]
