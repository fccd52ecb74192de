"""Generator, CSV round-trip, split and partition tests.

Most cases state what ``fedhosp.data`` computes through ``episode_route``,
which gives its draws and files as ``Episode`` records."""

from __future__ import annotations

import csv
import math
import operator
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episode_route import generate, load_episodes, save_episodes, split_train_test
from fedhosp import data
from fedhosp.data import (
    PARTITION_STRATEGIES,
    PartitionPlan,
    SyntheticConfig,
    partition,
    partition_rows,
    variable_names,
)
from fedhosp.features import HORIZON_HOURS, Episode, Points


def test_variable_names():
    assert variable_names(2) == ("heart_rate", "systolic_bp")
    names = variable_names(9)
    assert len(names) == 9 and names[7] == "signal_7"
    with pytest.raises(ValueError):
        variable_names(0)


def test_generate_exact_positive_count():
    episodes = generate(SyntheticConfig(n_episodes=100, prevalence=0.2, seed=1))
    assert sum(ep.label for ep in episodes) == 20
    assert len(episodes) == 100
    assert len({ep.episode_id for ep in episodes}) == 100


def test_generate_deterministic():
    cfg = SyntheticConfig(n_episodes=40, n_variables=3, seed=77)
    assert generate(cfg) == generate(cfg)
    assert generate(cfg) != generate(SyntheticConfig(n_episodes=40, n_variables=3, seed=78))


def test_generate_respects_points_range_and_horizon():
    cfg = SyntheticConfig(n_episodes=20, n_variables=2, points_min=3, points_max=3, seed=5)
    for ep in generate(cfg):
        for points in ep.series.values():
            assert len(points) == 3
            hours = [h for h, _ in points]
            assert hours == sorted(hours)
            assert all(0.0 <= h <= 48.0 for h in hours)


def test_generate_positive_class_is_shifted():
    episodes = generate(SyntheticConfig(n_episodes=2000, effect_size=1.0, seed=3))
    for var in variable_names(7):
        pos = np.array([v for ep in episodes if ep.label == 1 for _, v in ep.series[var]])
        neg = np.array([v for ep in episodes if ep.label == 0 for _, v in ep.series[var]])
        diff = pos.mean() - neg.mean()
        stderr = np.sqrt(pos.var(ddof=1) / pos.size + neg.var(ddof=1) / neg.size)
        assert diff > 4.0 * stderr  # far beyond chance


def test_generate_degenerate_prevalence_rejected():
    with pytest.raises(ValueError, match="class empty"):
        SyntheticConfig(n_episodes=100, prevalence=0.001)
    with pytest.raises(ValueError, match="class empty"):
        SyntheticConfig(n_episodes=100, prevalence=0.999)
    with pytest.raises(ValueError, match="n_episodes"):
        SyntheticConfig(n_episodes=1)
    for prevalence in (0.0, 1.0):
        with pytest.raises(ValueError,
                           match=rf"^prevalence must lie in \(0,1\), got {prevalence}$"):
            SyntheticConfig(n_episodes=100, prevalence=prevalence)


@pytest.mark.parametrize("effect_size", [math.nan, math.inf, -math.inf])
def test_synthetic_config_rejects_an_effect_size_that_is_not_finite(effect_size):
    with pytest.raises(ValueError, match=f"^effect_size must be finite, got {effect_size}$"):
        SyntheticConfig(n_episodes=100, effect_size=effect_size)


def test_synthetic_size_is_bounded():
    from fedhosp.data import MAX_SYNTHETIC_POINTS

    SyntheticConfig(n_episodes=MAX_SYNTHETIC_POINTS // (7 * 12), n_variables=7)
    with pytest.raises(ValueError, match="bound"):
        SyntheticConfig(n_episodes=MAX_SYNTHETIC_POINTS // (7 * 12) + 1, n_variables=7)
    with pytest.raises(ValueError, match="bound"):  # empty series count as one
        SyntheticConfig(n_episodes=2, n_variables=MAX_SYNTHETIC_POINTS,
                        points_min=0, points_max=0)
    with pytest.raises(ValueError, match="n_variables"):
        SyntheticConfig(n_episodes=10, n_variables=0)


@pytest.mark.parametrize("kw, message", [
    ({"points_min": -1}, "points_min must be >= 0, got -1"),
    ({"points_min": 5, "points_max": 3}, "points_max must be >= 5, got 3"),
    ({"points_max": 2.5}, "points_max must be int, got 2.5"),
    ({"n_episodes": 1_000_000, "n_variables": 6, "points_min": 0, "points_max": 0},
     "1000000 episodes x 6 variables x 1 points exceed the bound of 5000000"),
])
def test_synthetic_config_names_the_points_key(kw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SyntheticConfig(**{"n_episodes": 10, **kw})


@pytest.mark.parametrize("n_variables, points", [(1, (1, 1)), (3, (0, 2)), (7, (4, 12)),
                                                 (9, (0, 5)), (2, (0, 0))])
def test_generate_points_flatten_generate(n_variables, points):
    """``data.generate``'s ``Points`` hold ``generate``'s episodes, series by series."""
    cfg = SyntheticConfig(n_episodes=15, n_variables=n_variables, prevalence=0.3,
                          points_min=points[0], points_max=points[1], seed=20 + n_variables)
    episodes, p = generate(cfg), data.generate(cfg)
    assert p.episode_ids == tuple(ep.episode_id for ep in episodes)
    assert p.labels.tolist() == [ep.label for ep in episodes]
    assert p.variables == variable_names(n_variables)
    flat = [(i, p.variables.index(var), hour, value)
            for i, ep in enumerate(episodes)
            for var, series in ep.series.items() for hour, value in series]
    assert list(zip(p.episode.tolist(), p.variable.tolist(), p.hour.tolist(),
                    p.value.tolist())) == flat


def test_csv_round_trip(tmp_path):
    episodes = generate(SyntheticConfig(n_episodes=25, n_variables=3, seed=11))
    m, l = tmp_path / "measurements.csv", tmp_path / "labels.csv"
    save_episodes(episodes, m, l)
    assert load_episodes(m, l) == episodes


def _reference_generate(cfg):
    """The per-point loop ``generate`` replaced: the oracle for its output."""
    rng = np.random.default_rng(cfg.seed)
    variables = variable_names(cfg.n_variables)
    baselines = rng.uniform(20.0, 120.0, cfg.n_variables)
    noise_stds = rng.uniform(1.0, 10.0, cfg.n_variables)
    positive = np.zeros(cfg.n_episodes, dtype=bool)
    positive[rng.permutation(cfg.n_episodes)[: cfg.n_positive]] = True
    episodes = []
    for i in range(cfg.n_episodes):
        series = {}
        for j, var in enumerate(variables):
            n_pts = int(rng.integers(cfg.points_min, cfg.points_max, endpoint=True))
            hours = np.sort(rng.uniform(0.0, HORIZON_HOURS, n_pts))
            shift = cfg.effect_size * noise_stds[j] if positive[i] else 0.0
            values = baselines[j] + shift + rng.normal(0.0, noise_stds[j], n_pts)
            series[var] = [(float(h), float(v)) for h, v in zip(hours, values)]
        episodes.append(Episode(f"e{i:05d}", series, int(positive[i])))
    return episodes


def _reference_save(episodes, measurements_path, labels_path):
    """The row-per-point ``csv.writer`` writer: the oracle for the CSV bytes."""
    with open(measurements_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["episode_id", "variable", "hour", "value"])
        for ep in episodes:
            for var, points in ep.series.items():
                for hour, value in points:
                    writer.writerow([ep.episode_id, var, repr(hour), repr(value)])
    with open(labels_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["episode_id", "label"])
        for ep in episodes:
            writer.writerow([ep.episode_id, ep.label])


def _assert_same_csv_bytes(episodes, tmp_path):
    got = tmp_path / "m.csv", tmp_path / "l.csv"
    want = tmp_path / "m_ref.csv", tmp_path / "l_ref.csv"
    save_episodes(episodes, *got)
    _reference_save(episodes, *want)
    for g, w in zip(got, want):
        assert g.read_bytes() == w.read_bytes()


@pytest.mark.parametrize("points", [(0, 0), (0, 3), (1, 1), (4, 12)])
@pytest.mark.parametrize("effect_size", [0.0, 0.4])
def test_generate_and_save_match_per_point_reference(tmp_path, points, effect_size):
    for n_variables in range(1, 10):
        cfg = SyntheticConfig(n_episodes=12, n_variables=n_variables, prevalence=0.25,
                              effect_size=effect_size, points_min=points[0], points_max=points[1],
                              seed=100 + n_variables)
        episodes = generate(cfg)
        assert repr(episodes) == repr(_reference_generate(cfg))
        _assert_same_csv_bytes(episodes, tmp_path)


def test_save_quotes_awkward_ids_and_names_like_csv_writer(tmp_path):
    episodes = [
        Episode('a,"b"\nc', {"x,y": [(0.0, 1.5), (48.0, -0.0)], 'q"': [(5.0, 6.0)],
                             "\r": [(1e-300, 1e300)], "": [(2.0, 3.0)]}, 1),
        Episode("", {"plain": [(1.0, 2.0)], "line\nbreak": [(3.0, 4.0)]}, 0),
        Episode(" spaced ", {}, 0),
    ]
    _assert_same_csv_bytes(episodes, tmp_path)
    assert load_episodes(tmp_path / "m.csv", tmp_path / "l.csv") == episodes


# Text the CSV layer must quote or keep: separators, quotes, both line ends,
# spaces, and (at size 0) the empty string.
_AWKWARD_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é"]), max_size=4)
_VALUES = st.one_of(st.sampled_from([-0.0, 1e-300, 1e300]),
                    st.floats(allow_nan=False, allow_infinity=False))
_HOURS = st.one_of(st.sampled_from([0.0, HORIZON_HOURS]),
                   st.floats(0.0, HORIZON_HOURS))
_SERIES = st.dictionaries(  # a saved series has points; an episode may have none
    _AWKWARD_TEXT,
    st.lists(st.tuples(_HOURS, _VALUES), min_size=1, max_size=4).map(sorted),
    max_size=3,
)
_EPISODES = st.lists(
    st.builds(Episode, episode_id=_AWKWARD_TEXT, series=_SERIES, label=st.integers(0, 1)),
    max_size=5, unique_by=lambda ep: ep.episode_id,
)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """One directory every example overwrites."""
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=40, deadline=None)
@given(episodes=_EPISODES)
def test_csv_round_trip_of_awkward_text_and_floats(csv_dir, episodes):
    _assert_same_csv_bytes(episodes, csv_dir)
    loaded = load_episodes(csv_dir / "m.csv", csv_dir / "l.csv")
    assert repr(loaded) == repr(episodes)  # repr tells -0.0 from 0.0


def test_round_trip_keeps_episode_without_measurements(tmp_path):
    episodes = [
        Episode("a", {"hr": [(1.0, 2.5)]}, 1),
        Episode("b", {}, 0),
    ]
    save_episodes(episodes, tmp_path / "m.csv", tmp_path / "l.csv")
    assert load_episodes(tmp_path / "m.csv", tmp_path / "l.csv") == episodes


def test_save_writes_numpy_scalars_and_ints_as_the_numbers_they_hold(tmp_path):
    """What ``save_episodes`` writes, ``load_episodes`` reads: numpy scalars and
    ints as points, as the float64 ``Points`` holds, a bool and an ``np.int64``
    as labels."""
    episodes = [
        Episode("a", {"hr": [(np.float64(0.1), np.float64(-0.0)), (3, 72),
                             (np.float64(48.0), np.float64(1e300))]}, True),
        Episode("b", {"sbp": [(np.int64(2), np.float32(0.5)), (7.25, np.float64(5e-324))]},
                np.int64(0)),
    ]
    m, l = tmp_path / "m.csv", tmp_path / "l.csv"
    save_episodes(episodes, m, l)
    assert m.read_text().splitlines()[1:3] == ["a,hr,0.1,-0.0", "a,hr,3.0,72.0"]
    assert l.read_text().splitlines() == ["episode_id,label", "a,1", "b,0"]
    loaded = load_episodes(m, l)
    assert repr(loaded) == repr([
        Episode("a", {"hr": [(0.1, -0.0), (3.0, 72.0), (48.0, 1e300)]}, 1),
        Episode("b", {"sbp": [(2.0, 0.5), (7.25, 5e-324)]}, 0),
    ])


def test_save_refuses_duplicate_ids_before_writing(tmp_path):
    """An id twice cannot make ``Points``, so no labels.csv is written that
    ``load_episodes`` would refuse."""
    m, l = tmp_path / "m.csv", tmp_path / "l.csv"
    with pytest.raises(ValueError, match="^episode ids are not unique$"):
        save_episodes([Episode("a", {"hr": [(1.0, 2.0)]}, 0), Episode("a", {}, 1)], m, l)
    assert not m.exists() and not l.exists()


def _write(path, text):
    path.write_text(text)
    return path


def test_load_rejects_out_of_range_hour(tmp_path):
    m = _write(tmp_path / "m.csv",
               "episode_id,variable,hour,value\ne1,hr,49.0,80\n")
    l = _write(tmp_path / "l.csv", "episode_id,label\ne1,0\n")
    with pytest.raises(ValueError, match=r"line 2.*49"):
        load_episodes(m, l)


def test_load_rejects_missing_label(tmp_path):
    m = _write(tmp_path / "m.csv",
               "episode_id,variable,hour,value\ne1,hr,1.0,80\ne9,hr,2.0,70\n")
    l = _write(tmp_path / "l.csv", "episode_id,label\ne1,0\n")
    with pytest.raises(ValueError, match="e9"):
        load_episodes(m, l)


def test_load_rejects_malformed_rows(tmp_path):
    l = _write(tmp_path / "l.csv", "episode_id,label\ne1,0\n")
    m = _write(tmp_path / "m.csv", "episode_id,variable,hour,value\ne1,hr,notanhour,80\n")
    with pytest.raises(ValueError, match="line 2"):
        load_episodes(m, l)
    m2 = _write(tmp_path / "m2.csv", "episode_id,variable,hour,value\ne1,hr,1.0\n")
    with pytest.raises(ValueError, match="line 2.*columns"):
        load_episodes(m2, l)
    bad_labels = _write(tmp_path / "l2.csv", "episode_id,label\ne1,2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_episodes(m, bad_labels)


MEASUREMENTS_HEADER = "episode_id,variable,hour,value\n"
LABELS_HEADER = "episode_id,label\n"


@pytest.mark.parametrize("labels, measurements, error", [
    ("id,label\ne1,0\n", MEASUREMENTS_HEADER,
     "l.csv, line 1: unexpected header ['id', 'label']"),
    (LABELS_HEADER + "e1,0,extra\n", MEASUREMENTS_HEADER,
     "l.csv, line 2: expected 2 columns, got 3"),
    (LABELS_HEADER + "e1,0\ne1,1\n", MEASUREMENTS_HEADER,
     "l.csv, line 3: duplicate label row for episode 'e1'"),
    (LABELS_HEADER + "e1,0\n", "episode,variable,hour,value\n",
     "m.csv, line 1: unexpected header ['episode', 'variable', 'hour', 'value']"),
    (LABELS_HEADER + "e1,0\n", MEASUREMENTS_HEADER + "e1,hr,1.0,80\ne1,hr,2.0,nan\n",
     "m.csv, line 3: non-finite value nan"),
    (LABELS_HEADER + "e1,0\n", MEASUREMENTS_HEADER + "e1,hr,1.0,-inf\n",
     "m.csv, line 2: non-finite value -inf"),
], ids=["labels_header", "labels_3_columns", "duplicate_id", "measurements_header", "nan", "inf"])
def test_load_names_the_file_and_line_of_a_bad_row(tmp_path, labels, measurements, error):
    m = _write(tmp_path / "m.csv", measurements)
    l = _write(tmp_path / "l.csv", labels)
    with pytest.raises(ValueError) as info:
        load_episodes(m, l)
    assert str(info.value) == error


def _reference_error(path, line_no, problem):
    return ValueError(f"{Path(path).name}, line {line_no}: {problem}")


def _reference_load(measurements_path, labels_path):
    """The row-by-row ``csv.reader`` loader ``data.load_episodes`` replaced:
    the oracle for its output and error messages."""
    labels: dict[str, int] = {}
    with open(labels_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["episode_id", "label"]:
            raise _reference_error(labels_path, 1, f"unexpected header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise _reference_error(labels_path, line_no, f"expected 2 columns, got {len(row)}")
            eid, label_text = row
            if label_text not in ("0", "1"):
                raise _reference_error(labels_path, line_no, f"label must be 0 or 1, got {label_text!r}")
            if eid in labels:
                raise _reference_error(labels_path, line_no, f"duplicate label row for episode {eid!r}")
            labels[eid] = int(label_text)

    series: dict[str, dict[str, list[tuple[float, float]]]] = {eid: {} for eid in labels}
    with open(measurements_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["episode_id", "variable", "hour", "value"]:
            raise _reference_error(measurements_path, 1, f"unexpected header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise _reference_error(measurements_path, line_no, f"expected 4 columns, got {len(row)}")
            eid, var, hour_text, value_text = row
            if eid not in labels:
                raise _reference_error(
                    measurements_path, line_no,
                    f"episode {eid!r} has measurements but no label row",
                )
            try:
                hour, value = float(hour_text), float(value_text)
            except ValueError:
                raise _reference_error(
                    measurements_path, line_no, f"non-numeric hour/value {row[2:]!r}"
                ) from None
            if not 0.0 <= hour <= HORIZON_HOURS:
                raise _reference_error(
                    measurements_path, line_no,
                    f"hour {hour!r} outside [0, {HORIZON_HOURS:g}]",
                )
            if not math.isfinite(value):
                raise _reference_error(measurements_path, line_no, f"non-finite value {value!r}")
            series[eid].setdefault(var, []).append((hour, value))

    episodes = []
    for eid, label in labels.items():
        for points in series[eid].values():
            points.sort(key=operator.itemgetter(0))
        episodes.append(Episode(episode_id=eid, series=series[eid], label=label))
    return episodes



def _outcome(load, m, l):
    """What ``load`` makes of the two files: the repr of its episodes, or its error."""
    try:
        return "ok", repr(load(m, l))
    except ValueError as exc:
        return "error", str(exc)


# A measurements file: a well-formed one, one with bad numbers, or one with a
# piece of text spliced in or cut out anywhere. Its fields hold names and
# numbers with the characters CSV treats specially, and its line ends are of
# every kind. A splice may add a blank line, a quote, a separator (a column
# more) or text from the same characters; a cut may take a column away.
_TEXT = st.lists(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "#", "é", "e1"]),
                 max_size=4).map("".join)
_GOOD_NUMBER = st.sampled_from(["0", "1.5", "48", "-0.0", " 2 ", "\t3", "1e1", ".5", "+1", '"7"'])
_BAD_NUMBER = st.sampled_from(["49", "-1", "nan", "inf", "-inf", "1e400", "", "x", "0x1", ' "7"'])


def _file(number):
    row = st.tuples(
        st.sampled_from(["e1", "e2", '"e,4"', '"e1"']),
        st.sampled_from(["hr", "bp", "é", '"\r"', '"a\nb"', '"x""y"', "#c", " hr", ""]),
        number, number,
    )
    return st.builds(
        lambda rows, ends: "".join(",".join(row) + end for row, end in zip(rows, ends)),
        st.lists(row, max_size=6).map(lambda rows: [MEASUREMENTS_HEADER[:-1].split(","), *rows]),
        st.lists(st.sampled_from(["\r\n", "\n", "\r", ""]), min_size=7, max_size=7)
        .map(lambda ends: [end or "\n" for end in ends[:-1]] + ends[-1:]),  # the last may be ""
    )


_SPLICE = st.one_of(_TEXT, st.sampled_from(
    ["9", "x", "e", " ", "\n", "\r\n", "\r", "\n\n", "\r\n\r\n", ",", '"', "e3", "e1 "]))


_HEADER_END = len(MEASUREMENTS_HEADER) - 1  # splices and cuts leave the header's text whole


def _spliced(text: str, at: int, piece: str) -> str:
    at = _HEADER_END + at % (len(text) - _HEADER_END + 1)
    return text[:at] + piece + text[at:]


def _cut(text: str, at: int, length: int) -> str:
    at = _HEADER_END + at % (len(text) - _HEADER_END + 1)
    return text[:at] + text[at + length:]


_MEASUREMENTS = st.one_of(
    _file(_GOOD_NUMBER),
    _file(st.one_of(_GOOD_NUMBER, _BAD_NUMBER)),
    st.builds(_spliced, _file(_GOOD_NUMBER), st.integers(0, 400), _SPLICE),
    st.builds(_cut, _file(_GOOD_NUMBER), st.integers(0, 400), st.integers(1, 6)),
)


@settings(max_examples=400, deadline=None)
@given(measurements=_MEASUREMENTS,
       labels=st.sampled_from(["episode_id,label\r\ne1,0\r\ne2,1\r\n\"e,4\",0\r\n",
                               "episode_id,label\ne1,1\n", "episode_id,label\n"]))
def test_loader_matches_the_row_by_row_reference(csv_dir, measurements, labels):
    m, l = csv_dir / "m.csv", csv_dir / "l.csv"
    m.write_text(measurements, newline="")
    l.write_text(labels, newline="")
    assert _outcome(load_episodes, m, l) == _outcome(_reference_load, m, l)


@pytest.mark.parametrize("number", ["1_0", "\u0661", "1\u0660"])
def test_numbers_numpy_cannot_read_load_as_the_reference_reads_them(tmp_path, number):
    m = _write(tmp_path / "m.csv", MEASUREMENTS_HEADER + f"e1,hr,1.0,80\ne1,hr,2.0,{number}\n")
    l = _write(tmp_path / "l.csv", LABELS_HEADER + "e1,0\n")
    assert _outcome(_reference_load, m, l)[0] == "ok"
    assert _outcome(load_episodes, m, l) == _outcome(_reference_load, m, l)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checked_route_loads_a_well_formed_file_as_numpy_does(tmp_path, monkeypatch, seed):
    m, l = tmp_path / "m.csv", tmp_path / "l.csv"
    points = data.generate(SyntheticConfig(n_episodes=200, n_variables=3, points_min=0,
                                           points_max=4, seed=seed))
    assert (np.bincount(points.episode * 3 + points.variable, minlength=600) == 0).any()
    data.save_episodes(points, m, l)
    fast = data.load_episodes(m, l)
    calls = []

    def refuse(*args, **kwargs):
        calls.append(1)
        raise ValueError("loadtxt refused by the test")

    monkeypatch.setattr(np, "loadtxt", refuse)
    checked = data.load_episodes(m, l)
    assert calls == [1]  # the fast route was tried once, the checked route called no numpy parse
    for f in fields(Points):
        a, b = getattr(checked, f.name), getattr(fast, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def test_header_only_file_loads_without_a_warning(tmp_path):
    m = _write(tmp_path / "m.csv", MEASUREMENTS_HEADER)
    l = _write(tmp_path / "l.csv", LABELS_HEADER + "e1,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_episodes(m, l) == [Episode("e1", {}, 0)]


def _labeled_episodes(n_pos, n_neg):
    return (
        [Episode(f"p{i}", {}, 1) for i in range(n_pos)]
        + [Episode(f"n{i}", {}, 0) for i in range(n_neg)]
    )


def test_split_is_stratified():
    train, test = split_train_test(_labeled_episodes(5, 5), 0.2, seed=0)
    assert sum(ep.label for ep in test) == 1 and len(test) == 2
    assert sum(ep.label for ep in train) == 4 and len(train) == 8


def test_split_deterministic_and_disjoint():
    episodes = _labeled_episodes(8, 12)
    a = split_train_test(episodes, 0.25, seed=4)
    b = split_train_test(episodes, 0.25, seed=4)
    assert a == b
    train_ids = {ep.episode_id for ep in a[0]}
    test_ids = {ep.episode_id for ep in a[1]}
    assert not train_ids & test_ids
    assert train_ids | test_ids == {ep.episode_id for ep in episodes}


def test_split_rejects_degenerate_fractions():
    episodes = _labeled_episodes(5, 5)
    for fraction in (0.0, 1.0):
        with pytest.raises(ValueError, match="strictly"):
            split_train_test(episodes, fraction, seed=0)
    with pytest.raises(ValueError, match="class 1"):
        split_train_test(_labeled_episodes(1, 10), 0.3, seed=0)


def test_equal_iid_sizes_differ_by_at_most_one():
    x = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.array([0, 1] * 5)
    shards = partition_rows(x, y, PartitionPlan("equal_iid", 4, seed=2))
    sizes = sorted(s[0].shape[0] for s in shards)
    assert sizes == [2, 2, 3, 3]
    shards2 = partition_rows(x, y, PartitionPlan("equal_iid", 2, seed=2))
    assert [s[0].shape[0] for s in shards2] == [5, 5]


@given(
    n=st.integers(2, 60),
    k=st.integers(1, 5),
    strategy=st.sampled_from(["equal_iid", "label_skew"]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_partition_disjoint_and_complete(n, k, strategy, seed):
    if k > n:
        return
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=float).reshape(-1, 1)  # distinct values track identity
    y = rng.integers(0, 2, n)
    shards = partition_rows(x, y, PartitionPlan(strategy, k, seed=seed))
    assert len(shards) == k
    assert all(sx.shape[0] >= 1 for sx, _ in shards)
    gathered = np.sort(np.concatenate([sx[:, 0] for sx, _ in shards]))
    assert np.array_equal(gathered, np.arange(n, dtype=float))
    for sx, sy in shards:  # labels stay attached to their rows
        assert np.array_equal(sy, y[sx[:, 0].astype(int)])


def test_label_skew_uses_same_proportions_for_train_and_test():
    plan = PartitionPlan("label_skew", 3, skew_alpha=0.3, seed=9)
    y_train = np.array([0] * 60 + [1] * 30)
    y_test = np.array([0] * 20 + [1] * 10)
    train_shards = partition_rows(np.zeros((90, 1)), y_train, plan)
    test_shards = partition_rows(np.zeros((30, 1)), y_test, plan)
    for (_, tr_y), (_, te_y) in zip(train_shards, test_shards):
        # per-class fractions agree up to integer rounding of the smaller set
        for label in (0, 1):
            tr_frac = (tr_y == label).sum() / (y_train == label).sum()
            te_frac = (te_y == label).sum() / (y_test == label).sum()
            assert abs(tr_frac - te_frac) < 0.12


def test_partition_rejects_more_hospitals_than_rows():
    with pytest.raises(ValueError, match="cannot split"):
        partition_rows(np.zeros((2, 1)), np.array([0, 1]), PartitionPlan("equal_iid", 3))


def test_partition_rejects_rows_and_labels_of_different_lengths():
    with pytest.raises(ValueError, match="^rows and labels disagree in length: 3 vs 2$"):
        partition_rows(np.zeros((3, 1)), np.array([0, 1]), PartitionPlan("equal_iid", 1))


def test_partition_builds_hospital_datasets():
    rng = np.random.default_rng(0)
    hospitals = partition(
        rng.normal(size=(12, 4)), rng.integers(0, 2, 12),
        rng.normal(size=(6, 4)), rng.integers(0, 2, 6),
        PartitionPlan("equal_iid", 3, seed=1),
    )
    assert [h.hospital_id for h in hospitals] == [1, 2, 3]
    assert sum(h.n_train for h in hospitals) == 12
    assert sum(h.n_test for h in hospitals) == 6
    assert all(h.train_x.shape[1] == 4 for h in hospitals)


def test_partition_plan_validation():
    with pytest.raises(ValueError, match="strategy"):
        PartitionPlan("random", 2)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"^skew_alpha must be positive, got {alpha}$"):
            PartitionPlan("label_skew", 2, skew_alpha=alpha)
    PartitionPlan("equal_iid", 2, skew_alpha=0.0)  # equal_iid reads no skew_alpha's range
    for alpha in (math.nan, math.inf):  # but every strategy refuses a non-finite one
        for strategy in PARTITION_STRATEGIES:
            with pytest.raises(ValueError, match=f"^skew_alpha must be finite, got {alpha}$"):
                PartitionPlan(strategy, 2, skew_alpha=alpha)
