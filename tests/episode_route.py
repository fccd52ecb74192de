"""The Episode-list route, kept as the reference the tests compare ``Points`` against.

``fedhosp`` holds an episode set as one ``Points`` record. These helpers give
the same data as ``Episode`` records, one per admission, built from that record
or turned back into it, so a test can state what the columnar code must
compute in the terms of the scalar feature definition (``slice_windows`` and
``window_stats`` over each episode's series):

- ``generate`` and ``load_episodes``: ``fedhosp.data``'s draws and CSV files
  as records;
- ``points_of``: records as ``Points``;
- ``save_episodes``, ``split_train_test`` and ``extract``: the package's
  writer, split and feature rows, given records.
"""

from __future__ import annotations

import operator
from itertools import chain

import numpy as np

from fedhosp import data, features
from fedhosp.features import Episode, FeatureMatrix, Points


def generate(cfg: data.SyntheticConfig) -> list[Episode]:
    """``data.generate`` as Episode records; every episode holds a series,
    empty or not, for each of the ``n_variables`` names in order."""
    p = data.generate(cfg)
    n_vars = len(p.variables)
    counts = np.bincount(p.episode * n_vars + p.variable, minlength=len(p) * n_vars)
    bounds = [0, *np.cumsum(counts).tolist()]
    hours, values = p.hour.tolist(), p.value.tolist()
    # One (start, end) per series, in draw order; zip stops at the last
    # variable without taking the next episode's first span.
    spans = zip(bounds, bounds[1:])
    return [Episode(eid, {var: list(zip(hours[start:end], values[start:end]))
                          for var, (start, end) in zip(p.variables, spans)}, label)
            for eid, label in zip(p.episode_ids, p.labels.tolist())]


def load_episodes(measurements_path, labels_path) -> list[Episode]:
    """``data.load_episodes`` as Episode records, in labels.csv order.

    An episode's variables keep the order their rows first appear in; each
    series is sorted by hour, rows of equal hour in file order.
    """
    p = data.load_episodes(measurements_path, labels_path)
    series = [{} for _ in p.episode_ids]
    rows = zip(p.episode.tolist(), p.variable.tolist(), p.hour.tolist(), p.value.tolist())
    for episode, variable, hour, value in rows:
        series[episode].setdefault(p.variables[variable], []).append((hour, value))
    for points in chain.from_iterable(s.values() for s in series):
        points.sort(key=operator.itemgetter(0))
    return [Episode(eid, s, label)
            for eid, s, label in zip(p.episode_ids, series, p.labels.tolist())]


def points_of(episodes) -> Points:
    """Episode records as ``Points``: each episode's series in its own order,
    the names in order of first appearance."""
    episodes = list(episodes)
    names: dict[str, int] = {}
    columns = [names.setdefault(var, len(names)) for ep in episodes for var in ep.series]
    series = [points for ep in episodes for points in ep.series.values()]
    lengths = np.fromiter(map(len, series), dtype=np.intp, count=len(series))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(series)),
                       dtype=np.float64, count=2 * int(lengths.sum()))
    per_episode = np.fromiter((len(ep.series) for ep in episodes), np.intp, len(episodes))
    episode = np.repeat(np.repeat(np.arange(len(episodes)), per_episode), lengths)
    variable = np.repeat(np.array(columns, np.intp), lengths)
    return Points(tuple(ep.episode_id for ep in episodes),
                  np.array([ep.label for ep in episodes], dtype=np.int64), tuple(names),
                  episode, variable, flat[0::2], flat[1::2])


def save_episodes(episodes, measurements_path, labels_path) -> None:
    """``data.save_episodes`` of the records' points: a row per point, each
    episode's series in its own order."""
    data.save_episodes(points_of(episodes), measurements_path, labels_path)


def split_train_test(episodes, test_fraction: float, seed: int):
    """``data.split_train_test`` of the records, as (train, test) record lists."""
    by_id = {ep.episode_id: ep for ep in episodes}
    sides = data.split_train_test(points_of(episodes), test_fraction, seed)
    return tuple([by_id[eid] for eid in side.episode_ids] for side in sides)


def extract(episodes, variables) -> FeatureMatrix:
    """``features.extract`` over Episode records."""
    return features.extract(points_of(episodes), variables)
