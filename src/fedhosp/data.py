"""Synthetic episode generation, CSV round-trip, splitting and partitioning.

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
import io
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np

from .features import HORIZON_HOURS, Episode

__all__ = [
    "DEFAULT_VARIABLES",
    "MAX_SYNTHETIC_POINTS",
    "PARTITION_STRATEGIES",
    "SyntheticConfig",
    "PartitionPlan",
    "HospitalDataset",
    "variable_names",
    "generate_points",
    "generate",
    "save_episodes",
    "Points",
    "load_points",
    "load_episodes",
    "split_mask",
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
# 12-point set, and about 0.7 GB at the ~130 bytes per point ``generate`` peaks at.
MAX_SYNTHETIC_POINTS = 5_000_000

PARTITION_STRATEGIES = ("equal_iid", "label_skew")

_MEASUREMENTS_HEADER = ["episode_id", "variable", "hour", "value"]


def variable_names(n_variables: int) -> tuple[str, ...]:
    """First `n_variables` canonical names, padded with generic ones past 7."""
    if n_variables < 1:
        raise ValueError(f"n_variables must be >= 1, got {n_variables}")
    names = list(DEFAULT_VARIABLES[:n_variables])
    names += [f"signal_{i}" for i in range(len(names), n_variables)]
    return tuple(names)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic episode generator; see ``MAX_SYNTHETIC_POINTS``."""

    n_episodes: int
    n_variables: int = 7
    prevalence: float = 0.15
    effect_size: float = 1.0
    points_per_variable: tuple[int, int] = (4, 12)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_episodes < 2:
            raise ValueError(f"n_episodes must be >= 2, got {self.n_episodes}")
        if self.n_variables < 1:
            raise ValueError(f"n_variables must be >= 1, got {self.n_variables}")
        if not 0.0 < self.prevalence < 1.0:
            raise ValueError(f"prevalence must lie in (0,1), got {self.prevalence}")
        lo, hi = self.points_per_variable
        if lo < 0 or hi < lo:
            raise ValueError(f"points_per_variable range invalid: ({lo}, {hi})")
        if self.n_episodes * self.n_variables * max(hi, 1) > MAX_SYNTHETIC_POINTS:
            raise ValueError(f"{self.n_episodes} episodes x {self.n_variables} variables x "
                             f"{hi} points exceed the bound of {MAX_SYNTHETIC_POINTS}")
        if not 1 <= self.n_positive < self.n_episodes:
            raise ValueError(
                f"prevalence {self.prevalence} with n={self.n_episodes} leaves "
                "a class empty"
            )

    @property
    def n_positive(self) -> int:
        return round(self.prevalence * self.n_episodes)


@dataclass(frozen=True, eq=False)
class Points:
    """Every measurement of an episode set, as flat arrays.

    Point i is ``episode_ids[episode[i]]``'s ``variables[variable[i]]`` at
    ``hour[i]`` with ``value[i]``; ``labels`` follows ``episode_ids``.
    ``variables`` are the names a run takes by default: those of a CSV file,
    sorted, or the synthetic ``variable_names``.
    """

    episode_ids: tuple[str, ...]
    labels: np.ndarray
    variables: tuple[str, ...]
    episode: np.ndarray
    variable: np.ndarray
    hour: np.ndarray
    value: np.ndarray


def generate_points(cfg: SyntheticConfig) -> Points:
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

    lo, hi = cfg.points_per_variable
    counts, hour_draws, noise_draws = [], array("d"), array("d")
    for _ in range(cfg.n_episodes):
        for std in noise_stds:
            n_pts = int(rng.integers(lo, hi, endpoint=True))
            counts.append(n_pts)
            hour_draws.frombytes(rng.uniform(0.0, HORIZON_HOURS, n_pts).tobytes())
            noise_draws.frombytes(rng.normal(0.0, std, n_pts).tobytes())
    series_of_point = np.repeat(np.arange(len(counts)), counts)
    hours = np.frombuffer(hour_draws)
    hour = hours[np.lexsort((hours, series_of_point))]
    # One level per series, (baseline + shift) + noise as in a scalar loop.
    levels = baselines + np.where(positive[:, None], cfg.effect_size * noise_stds, 0.0)
    value = levels.ravel()[series_of_point] + np.frombuffer(noise_draws)
    episode, variable = np.divmod(series_of_point, cfg.n_variables)
    return Points(tuple(f"e{i:05d}" for i in range(cfg.n_episodes)), positive.astype(np.int64),
                  variable_names(cfg.n_variables), episode, variable, hour, value)


def generate(cfg: SyntheticConfig) -> list[Episode]:
    """``generate_points`` as Episode records; every episode holds a series,
    empty or not, for each of the ``n_variables`` names in order."""
    p = generate_points(cfg)
    n_vars = len(p.variables)
    counts = np.bincount(p.episode * n_vars + p.variable, minlength=len(p.episode_ids) * n_vars)
    bounds = [0, *np.cumsum(counts).tolist()]
    hours, values = p.hour.tolist(), p.value.tolist()
    ids, labels, variables = p.episode_ids, p.labels.tolist(), p.variables
    # Freed before the episodes are built, so the peak stays near the
    # per-point loop's: only the two lists are extra.
    del p
    # One (start, end) per series, in draw order; zip stops at the last
    # variable without taking the next episode's first span.
    spans = zip(bounds, bounds[1:])
    return [Episode(eid, {var: list(zip(hours[start:end], values[start:end]))
                          for var, (start, end) in zip(variables, spans)}, label)
            for eid, label in zip(ids, labels)]


class _Echo:
    """A file whose ``write`` returns its text, so ``csv.writer.writerow``
    returns the formatted row instead of writing it."""

    @staticmethod
    def write(text: str) -> str:
        return text


def save_episodes(episodes, measurements_path, labels_path) -> None:
    """Write episodes to the two-file CSV format; floats round-trip exactly.

    ``csv.writer`` quotes each series' ``episode_id,variable,`` prefix
    once; its points follow as ``repr`` text, which never needs quoting,
    in one write per series. The bytes equal a ``writerow`` per point.
    """
    episodes = list(episodes)
    for path in (measurements_path, labels_path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    quote = csv.writer(_Echo())
    with open(measurements_path, "w", newline="") as f:
        f.write(quote.writerow(_MEASUREMENTS_HEADER))
        for ep in episodes:
            for var, points in ep.series.items():
                prefix = quote.writerow([ep.episode_id, var, ""])[:-2]  # drop the line end
                f.write("".join([f"{prefix}{h!r},{v!r}\r\n" for h, v in points]))
    with open(labels_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["episode_id", "label"])
        for ep in episodes:
            writer.writerow([ep.episode_id, ep.label])


def _parse_error(path, line_no: int, problem: str) -> ValueError:
    return ValueError(f"{Path(path).name}, line {line_no}: {problem}")


# One measurements row as np.loadtxt parses it: names as str, numbers by numpy's C reader.
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


def _columns(lines, index: dict[str, int]):
    """(variables, episode, variable, hour, value) of the measurement rows in
    ``lines``, the file's lines after its header.

    Raises ValueError or KeyError where ``_checked_rows`` would find a bad
    row, but without saying which, and returns no rows for a blank first line.
    """
    first = next(lines, "")
    if not first.rstrip("\r\n"):
        table = np.empty(0, _ROW)
    else:
        table = np.loadtxt(chain([first], lines), dtype=_ROW, delimiter=",", comments=None,
                           quotechar='"', ndmin=1)
    episode = np.fromiter(map(index.__getitem__, table["episode"]), np.intp, table.size)
    variables = {var: i for i, var in enumerate(sorted(set(table["variable"])))}
    variable = np.fromiter(map(variables.__getitem__, table["variable"]), np.intp, table.size)
    hour, value = table["hour"].copy(), table["value"].copy()
    del table  # the name strings, most of the table's memory
    if not (((hour >= 0.0) & (hour <= HORIZON_HOURS)).all() and np.isfinite(value).all()):
        raise ValueError("an hour or value is out of range")
    return tuple(variables), episode, variable, hour, value


def _checked_rows(measurements_path, index: dict[str, int]) -> io.StringIO:
    """The measurement rows as ``csv.reader`` reads them, written again by
    ``csv.writer``; raises the first bad row's error."""
    rows = io.StringIO()
    writer = csv.writer(rows)
    with open(measurements_path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise _parse_error(measurements_path, line_no, f"expected 4 columns, got {len(row)}")
            eid, _, hour_text, value_text = row
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
            writer.writerow(row)
    rows.seek(0)
    return rows


def load_points(measurements_path, labels_path) -> Points:
    """Read the two-file CSV format into ``Points`` in file order, with the
    names the rows hold, sorted, as ``variables``.

    The labels file defines which episodes exist (an episode may have zero
    measurements); a measurement row naming an unlisted episode is an error.
    ``np.loadtxt`` parses the measurement rows, one line of the open file at
    a time, and the checks run over whole columns. If one fails, or a line
    held no row (a blank line, or a quoted line break), one ``csv.reader``
    pass raises the first bad row's error; a file with none is parsed again
    as that pass wrote it. A number ``float`` reads but numpy does not
    (``1_0``, non-ASCII digits) is a ValueError naming the file.
    """
    labels = _load_labels(labels_path)
    index = {eid: i for i, eid in enumerate(labels)}
    with open(measurements_path, newline="") as f:
        header = next(csv.reader(f), None)
        if header != _MEASUREMENTS_HEADER:
            raise _parse_error(measurements_path, 1, f"unexpected header {header!r}")
        n_lines = count()  # the lines loadtxt takes: one per row if none is blank or split
        try:
            columns = _columns(map(operator.itemgetter(0), zip(f, n_lines)), index)
        except (ValueError, KeyError):
            columns = None
    if columns is None or next(n_lines) != columns[-1].size:
        rows = _checked_rows(measurements_path, index)
        try:
            columns = _columns(rows, index)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{Path(measurements_path).name}: {exc}") from None
    return Points(tuple(labels), np.fromiter(labels.values(), np.int64, len(labels)), *columns)


def load_episodes(measurements_path, labels_path) -> list[Episode]:
    """``load_points`` as Episode records, in labels.csv order.

    An episode's variables keep the order their rows first appear in; each
    series is sorted by hour, rows of equal hour in file order.
    """
    p = load_points(measurements_path, labels_path)
    series = [{} for _ in p.episode_ids]
    rows = zip(p.episode.tolist(), p.variable.tolist(), p.hour.tolist(), p.value.tolist())
    for episode, variable, hour, value in rows:
        series[episode].setdefault(p.variables[variable], []).append((hour, value))
    for points in chain.from_iterable(s.values() for s in series):
        points.sort(key=operator.itemgetter(0))
    return [Episode(eid, s, label)
            for eid, s, label in zip(p.episode_ids, series, p.labels.tolist())]


def split_mask(labels, test_fraction: float, seed: int) -> np.ndarray:
    """Label-stratified random split of ``labels``: True marks the test side.

    Per class, ``round(test_fraction * n_class)`` episodes go to the test
    side; both sides must keep at least one episode of each class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie strictly in (0,1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    is_test = np.zeros(labels.size, dtype=bool)
    for label in (0, 1):
        class_idx = np.flatnonzero(labels == label)
        n_test = round(test_fraction * class_idx.size)
        if n_test < 1 or n_test >= class_idx.size:
            raise ValueError(
                f"class {label} has {class_idx.size} episodes; test_fraction "
                f"{test_fraction} leaves train or test empty for it"
            )
        is_test[rng.permutation(class_idx)[:n_test]] = True
    return is_test


def split_train_test(episodes, test_fraction: float, seed: int) -> tuple[list[Episode], list[Episode]]:
    """``split_mask`` of the episodes' labels, as (train, test) episode lists."""
    episodes = list(episodes)
    is_test = split_mask([ep.label for ep in episodes], test_fraction, seed).tolist()
    train = [ep for ep, t in zip(episodes, is_test) if not t]
    test = [ep for ep, t in zip(episodes, is_test) if t]
    return train, test


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
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {self.strategy!r}; "
                f"expected one of {PARTITION_STRATEGIES}"
            )
        if self.n_hospitals < 1:
            raise ValueError(f"n_hospitals must be >= 1, got {self.n_hospitals}")
        if self.strategy == "label_skew" and self.skew_alpha <= 0.0:
            raise ValueError(f"skew_alpha must be positive, got {self.skew_alpha}")


@dataclass(eq=False)
class HospitalDataset:
    """One hospital's local data: train and test rows with labels."""

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
        if self.hospital_id < 0:
            raise ValueError(f"hospital_id must be non-negative, got {self.hospital_id}")
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
