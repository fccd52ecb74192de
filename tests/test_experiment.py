"""Experiment-layer tests: config handling, report structure, stage errors."""

from __future__ import annotations

from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from episode_route import extract, generate, load_episodes, save_episodes, split_train_test

import fedhosp.experiment as experiment
from fedhosp.data import MAX_SYNTHETIC_POINTS, PartitionPlan, SyntheticConfig, partition
from fedhosp.experiment import (
    ExperimentConfig,
    ExperimentError,
    format_comparison,
    prepare,
    run_comparison,
    run_experiment,
)
from fedhosp.features import Episode
from fedhosp.federation import FedConfig
from fedhosp.models import ModelArch, TrainConfig


def _cfg(**kw):
    base = dict(model="lr", mode="central", n_episodes=100, epochs=2, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_rejects_unknown_model_and_mode():
    with pytest.raises(ValueError, match="lr.*mlp"):
        _cfg(model="svm")
    with pytest.raises(ValueError, match="central.*federated"):
        _cfg(mode="peer_to_peer")


def test_central_report_structure():
    report = run_experiment(_cfg())
    assert report["schema_version"] == 1
    assert report["arch"]["kind"] == "lr"
    assert report["arch"]["input_dim"] == 42 * 7
    assert report["n_train_episodes"] == 80 and report["n_test_episodes"] == 20
    assert set(report["metrics"]) == {"auroc", "auprc", "accuracy", "n_test"}
    assert report["stage_seeds"] == {
        "data": 0, "split": 1, "partition": 2, "init": 3, "train": 4,
    }
    assert "federation" not in report
    assert list(report["config"]) == [f.name for f in fields(ExperimentConfig)]


def test_config_holds_no_output_location():
    """Where a report lands is the command line's option, so it is no field."""
    with pytest.raises(TypeError, match="out_dir"):
        ExperimentConfig(out_dir="runs")


def test_federated_report_records_round_history():
    report = run_experiment(_cfg(
        mode="federated", n_hospitals=2, rounds=4, local_epochs=1, seed=2,
    ))
    fed = report["federation"]
    assert len(fed["rounds"]) == 4
    assert len(fed["eval_history"]) == 4
    assert 0 <= fed["rounds_committed"] <= 4
    assert sum(fed["hospital_train_sizes"]) == report["n_train_episodes"]
    assert fed["best_accuracy"] == max(
        r["candidate_accuracy"] for r in fed["rounds"] if r["committed"]
    )


def test_mlp_arch_recorded_with_hidden_layer():
    report = run_experiment(_cfg(model="mlp", hidden_dim=5, n_episodes=60))
    assert report["arch"]["hidden_dim"] == 5
    assert report["arch"]["n_params"] == 294 * 5 + 2 * 5 + 1


def test_experiment_from_saved_dataset(tmp_path):
    episodes = generate(SyntheticConfig(n_episodes=80, n_variables=3, seed=9))
    save_episodes(episodes, tmp_path / "measurements.csv", tmp_path / "labels.csv")
    report = run_experiment(_cfg(data_dir=str(tmp_path), n_variables=3))
    assert report["variables"] == sorted(report["variables"])
    assert report["arch"]["input_dim"] == 42 * 3
    assert report["n_train_episodes"] + report["n_test_episodes"] == 80


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("variables", [None, ("systolic_bp", "nothing", "heart_rate")])
def test_csv_features_equal_extract_over_loaded_episodes(tmp_path, capsys, shuffled, variables):
    """``prepare`` takes CSV to feature rows in arrays; they match ``extract``
    over ``load_episodes``' records bit for bit, also when the rows come in any
    order and a series holds points of equal hour."""
    episodes = generate(SyntheticConfig(n_episodes=60, n_variables=3,
                                        points_min=0, points_max=5, seed=4))
    m = tmp_path / "measurements.csv"
    save_episodes(episodes, m, tmp_path / "labels.csv")
    header, *rows = m.read_text().splitlines(keepends=True)
    rows += [row.rsplit(",", 1)[0] + ",1.5\n" for row in rows[::7]]  # equal hours
    if shuffled:
        rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    m.write_text(header + "".join(rows))
    cfg = _cfg(data_dir=str(tmp_path))
    got = prepare(cfg, variables)
    names = variables or ("diastolic_bp", "heart_rate", "systolic_bp")
    assert got.variables == names
    episodes = load_episodes(m, tmp_path / "labels.csv")
    sides = split_train_test(episodes, cfg.test_fraction, cfg.stage_seeds["split"])
    for matrix, side in zip((got.train, got.test), sides):
        want = extract(side, names)
        assert matrix.rows.tobytes() == want.rows.tobytes()
        assert matrix.episode_ids == want.episode_ids
        assert matrix.labels.tolist() == want.labels.tolist()


def test_missing_data_dir_is_a_data_stage_error(tmp_path):
    with pytest.raises(ExperimentError, match="data stage"):
        run_experiment(_cfg(data_dir=str(tmp_path / "nope")))


def _reaches_its_extremes(rows) -> bool:
    """Whether every non-constant column of ``rows`` spans exactly [-1, 1]."""
    lo, hi = rows.min(axis=0), rows.max(axis=0)
    varies = hi > lo
    return bool((lo[varies] == -1.0).all() and (hi[varies] == 1.0).all())


def test_prepared_hospitals_scale_each_hospital_with_its_own_extremes():
    cfg = _cfg(mode="federated", n_episodes=120, n_variables=3, n_hospitals=3,
               partition_strategy="label_skew")
    data, plan = prepare(cfg), cfg.partition_plan()
    hospitals = data.hospitals(plan)
    assert [h.hospital_id for h in hospitals] == [1, 2, 3]
    assert all(_reaches_its_extremes(h.train_x) for h in hospitals)
    # One scaler fit on the pooled rows leaves some hospital short of its
    # extremes, so the check above tells the two apart.
    pooled = data.as_hospital(0)
    assert not all(_reaches_its_extremes(h.train_x) for h in partition(
        pooled.train_x, pooled.train_y, pooled.test_x, pooled.test_y, plan))


def test_comparison_runs_all_four_cells():
    report = run_comparison(_cfg(n_episodes=80, rounds=2, n_hospitals=2))
    assert sorted(report["cells"]) == [
        "lr-central", "lr-federated", "mlp-central", "mlp-federated",
    ]
    text = format_comparison(report)
    assert "AUROC" in text and "mlp-federated" in text


def test_comparison_prepares_its_data_once(monkeypatch):
    calls = []
    real_extract = experiment.extract

    def counting_extract(*args, **kwargs):
        calls.append(1)
        return real_extract(*args, **kwargs)

    monkeypatch.setattr(experiment, "extract", counting_extract)
    run_comparison(_cfg(n_episodes=80, rounds=2, n_hospitals=2))
    assert len(calls) == 2  # train and test rows, shared by all four cells


def _no_episodes(*args, **kwargs):
    raise AssertionError("the pipeline built an Episode")


def test_synthetic_prepare_builds_no_episode(monkeypatch):
    monkeypatch.setattr(Episode, "__post_init__", _no_episodes)
    got = prepare(_cfg(n_episodes=60, n_variables=3))
    assert len(got.train.episode_ids) + len(got.test.episode_ids) == 60


@pytest.mark.parametrize("variables", [None, ("glucose", "heart_rate"),
                                       ("diastolic_bp", "systolic_bp", "heart_rate")])
@pytest.mark.parametrize("points_min", [0, 4])
def test_synthetic_prepare_equals_extract_over_generated_episodes(variables, points_min):
    """The synthetic rows match ``extract`` over ``generate``'s records bit for
    bit, for given names in any order and for a name no episode holds."""
    cfg = _cfg(n_episodes=60, n_variables=3, points_min=points_min, points_max=5, seed=2)
    got = prepare(cfg, variables)
    names = variables or ("heart_rate", "systolic_bp", "diastolic_bp")
    assert got.variables == names
    sides = split_train_test(generate(cfg.synthetic()), cfg.test_fraction,
                             cfg.stage_seeds["split"])
    for matrix, side in zip((got.train, got.test), sides):
        want = extract(side, names)
        assert matrix.rows.tobytes() == want.rows.tobytes()
        assert matrix.episode_ids == want.episode_ids
        assert matrix.labels.tolist() == want.labels.tolist()


def test_prepare_refuses_a_repeated_variable_name():
    with pytest.raises(ExperimentError,
                       match="^feature stage: variables name 'glucose' more than once$"):
        prepare(_cfg(n_episodes=40), ("glucose", "heart_rate", "glucose"))


def test_synthetic_prepare_honours_given_variables(capsys):
    cfg = ExperimentConfig(n_episodes=40, n_variables=3, seed=1)
    got = prepare(cfg, ("heart_rate", "glucose"))
    assert got.variables == ("heart_rate", "glucose")
    assert got.train.rows.shape[1] == 2 * 42
    assert not got.train.rows[:, 42:].any() and not got.test.rows[:, 42:].any()
    err = capsys.readouterr().err
    assert err.count("warning") == 1 and "glucose" in err and "heart_rate" not in err


def test_synthetic_variables_keep_canonical_order_without_points(capsys):
    """With no names given, synthetic data takes ``variable_names`` unsorted,
    also when no series holds a point."""
    cfg = _cfg(n_episodes=40, n_variables=3, points_min=0, points_max=0)
    got = prepare(cfg)
    assert got.variables == ("heart_rate", "systolic_bp", "diastolic_bp")
    assert not got.train.rows.any()
    assert capsys.readouterr().err == ""
    assert run_experiment(replace(cfg, points_max=1))["variables"] == list(got.variables)


def test_comparison_cells_equal_separate_runs():
    cfg = _cfg(n_episodes=90, rounds=3, n_hospitals=3, hidden_dim=6, seed=5)
    cells = run_comparison(cfg)["cells"]
    for model in ("lr", "mlp"):
        for mode in ("central", "federated"):
            alone = run_experiment(replace(cfg, model=model, mode=mode))
            assert cells[f"{model}-{mode}"] == alone["metrics"]


@pytest.mark.parametrize("key, value", [
    ("n_episodes", True), ("n_episodes", "100"), ("n_episodes", 100.0),
    ("rounds", "ten"), ("learning_rate", "0.1"), ("learning_rate", False),
    ("gate_enabled", "no"), ("gate_enabled", 1), ("seed", 1.5),
    ("data_dir", b"dir"), ("model", None),
])
def test_config_type_errors_name_the_key(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        _cfg(**{key: value})


def test_config_keeps_an_int_given_for_a_float():
    cfg = _cfg(learning_rate=1, prevalence=0.25, effect_size=2)
    assert type(cfg.learning_rate) is int and type(cfg.effect_size) is int


@pytest.mark.parametrize("kw, message", [
    ({"seed": -1}, "seed must be >= 0"),
    ({"test_fraction": 0.0}, "test_fraction"),
    ({"rounds": 0}, "rounds must be >= 1"),
    ({"cohort_fraction": 2}, "cohort_fraction"),
    ({"batch_size": 0}, "batch_size"),
    ({"epochs": -1}, "epochs must be >= 0"),
    ({"learning_rate": 0.0}, "learning_rate must be positive"),
    ({"model": "mlp", "hidden_dim": 0}, "hidden_dim must be >= 1"),
    ({"n_hospitals": 0}, "n_hospitals must be >= 1"),
    ({"partition_strategy": "label_skew", "skew_alpha": 0.0}, "skew_alpha"),
    ({"gate_metric": "f1"}, "gate_metric"),
    ({"n_episodes": MAX_SYNTHETIC_POINTS}, "bound"),
])
def test_config_range_errors_whatever_the_mode(kw, message):
    # mode stays central: federation fields are checked all the same
    with pytest.raises(ValueError, match=message):
        _cfg(**kw)


# Numeric ExperimentConfig fields that no rule bounds; each other one has a range.
_UNBOUNDED = {"effect_size"}
# What an out-of-range value of a field needs beside it to be checked at all.
_RANGE_CONTEXT = {"hidden_dim": {"model": "mlp"}, "points_max": {"points_min": 5},
                  "skew_alpha": {"partition_strategy": "label_skew"}}
_RANGED = [name for name, kind in get_type_hints(ExperimentConfig).items()
           if kind in (int, float) and name not in _UNBOUNDED]


def test_every_range_error_names_its_key():
    """Each ranged field is checked by the sub-config that holds it, under the
    key's own name: a field whose sub-config names it otherwise fails here."""
    assert len(_RANGED) == 16
    for name in _RANGED:
        with pytest.raises(ValueError, match=rf"^{name} "):
            _cfg(**_RANGE_CONTEXT.get(name, {}), **{name: -1})


def test_sub_configs_fan_the_seed_out():
    cfg = _cfg(seed=10, epochs=7, local_epochs=2, n_hospitals=3, rounds=4)
    assert cfg.synthetic().seed == 10
    assert cfg.partition_plan().seed == 12
    assert cfg.fed_config().seed == 13
    assert cfg.train_config(cfg.epochs) == experiment.TrainConfig(
        epochs=7, seed=14, batch_size=8, learning_rate=1e-3)
    assert cfg.fed_config().rounds == 4 and cfg.partition_plan().n_hospitals == 3
    assert cfg.stage_seeds == {"data": 10, "split": 11, "partition": 12, "init": 13,
                               "train": 14}


def test_default_sub_configs_take_every_default_from_their_owners():
    cfg = ExperimentConfig()
    seeds = cfg.stage_seeds
    assert cfg.synthetic() == SyntheticConfig(cfg.n_episodes, seed=seeds["data"])
    assert cfg.partition_plan() == PartitionPlan(cfg.partition_strategy, cfg.n_hospitals,
                                                 seed=seeds["partition"])
    assert cfg.fed_config() == FedConfig(cfg.n_hospitals, cfg.rounds, seed=seeds["init"])
    assert cfg.train_config(1) == TrainConfig(epochs=1, seed=seeds["train"])
    assert cfg.arch(7) == ModelArch(cfg.model, input_dim=42 * 7)


def test_labels_without_measurements_are_a_data_stage_error(tmp_path, capsys):
    from fedhosp.cli import main

    (tmp_path / "labels.csv").write_text("episode_id,label\ne1,0\ne2,1\n")
    (tmp_path / "measurements.csv").write_text("episode_id,variable,hour,value\n")
    with pytest.raises(ExperimentError) as info:
        run_experiment(_cfg(data_dir=str(tmp_path)))
    assert str(info.value) == f"data stage: no measurements found under {tmp_path}"
    assert main(["train", "--data-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


@pytest.mark.parametrize("kw, error", [
    ({"n_episodes": 10, "prevalence": 0.1},
     "feature stage: class 1 has 1 episodes; test_fraction 0.2 leaves train or test empty "
     "for it"),
    ({"mode": "federated", "n_episodes": 20, "n_hospitals": 5, "rounds": 1},
     "training stage: cannot split 4 rows across 5 hospitals"),
], ids=["feature", "training"])
def test_a_stage_failure_is_an_experiment_error_naming_the_stage(kw, error):
    with pytest.raises(ExperimentError) as info:
        run_experiment(_cfg(**kw))
    assert str(info.value) == error
    assert type(info.value.__cause__) is ValueError
