"""Command-line interface tests, including a live TCP serve/worker session."""

from __future__ import annotations

import csv
import json
import re
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from fedhosp.cli import main
from fedhosp.data import load_episodes
from fedhosp.experiment import ExperimentConfig, load_data
from fedhosp.features import STATS_PER_VARIABLE, extract


def _run(argv):
    return main(list(argv))


def test_generate_writes_loadable_dataset(tmp_path):
    out = tmp_path / "data"
    code = _run(["generate", "--episodes", "30", "--variables", "3",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    episodes = load_episodes(out / "measurements.csv", out / "labels.csv")
    assert len(episodes) == 30
    assert sum(e.label for e in episodes) == round(0.15 * 30)


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run(["generate", "--episodes", "12", "--seed", "3",
                     "--out", str(out)]) == 0
    assert (a / "measurements.csv").read_bytes() == (b / "measurements.csv").read_bytes()
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()


def test_extract_writes_feature_table(tmp_path):
    data = tmp_path / "data"
    _run(["generate", "--episodes", "10", "--variables", "2", "--out", str(data)])
    out = tmp_path / "features.csv"
    assert _run(["extract", "--data", str(data), "--out", str(out)]) == 0

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:2] == ["episode_id", "label"]
    assert len(header) == 2 + 2 * STATS_PER_VARIABLE
    assert header[2].endswith("__full__max")
    assert len(body) == 10
    assert all(len(r) == len(header) for r in body)
    # every feature cell is a plain number equal to the extracted value
    matrix = extract(*load_data(ExperimentConfig(data_dir=str(data))))
    assert [r[0] for r in body] == list(matrix.episode_ids)
    assert [[float(cell) for cell in r[2:]] for r in body] == matrix.rows.tolist()


@pytest.mark.parametrize("names,unobserved", [("heart_rate,bogus_rate", "bogus_rate"),
                                               ("heart_rate,systolic_bp", None)],
                         ids=["bogus", "observed"])
def test_extract_warns_once_about_variables_never_observed(tmp_path, capsys, names,
                                                           unobserved):
    data = tmp_path / "data"
    _run(["generate", "--episodes", "10", "--variables", "2", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "features.csv"
    assert _run(["extract", "--data", str(data), "--out", str(out), "--variables", names]) == 0
    err = capsys.readouterr().err
    with open(out, newline="") as fh:
        header, *body = list(csv.reader(fh))
    assert len(header) == 2 + 2 * STATS_PER_VARIABLE
    if unobserved is None:
        assert err == ""
        return
    assert err.count("warning") == 1 and unobserved in err and "heart_rate" not in err
    columns = [i for i, name in enumerate(header) if name.startswith(unobserved + "__")]
    assert len(columns) == STATS_PER_VARIABLE
    assert all(float(row[i]) == 0.0 for row in body for i in columns)


def test_missing_required_flag_is_usage_error(capsys):
    assert _run(["generate", "--episodes", "5"]) == 2
    assert "out" in capsys.readouterr().err


def test_invalid_model_lists_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["train", "--model", "xgb", "--episodes", "50"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "lr" in err and "mlp" in err


def test_invalid_model_via_config_file_lists_choices(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"model": "xgb"}))
    assert _run(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "lr" in err and "mlp" in err


def test_train_report_is_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["train", "--model", "lr", "--mode", "central", "--episodes", "120",
            "--epochs", "3", "--seed", "9"]
    assert _run(argv + ["--out", str(out_a)]) == 0
    assert _run(argv + ["--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    report = json.loads((out_a / "report.json").read_text())
    assert report["metrics"]["n_test"] == 24  # 20% test split of 120
    assert "auroc" in capsys.readouterr().out


def test_train_federated_records_rounds(tmp_path):
    out = tmp_path / "fed"
    assert _run(["train", "--model", "lr", "--mode", "federated",
                 "--episodes", "100", "--hospitals", "2", "--rounds", "3",
                 "--epochs", "3", "--seed", "4", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    fed = report["federation"]
    assert len(fed["rounds"]) == 3
    assert fed["hospital_train_sizes"] == [40, 40]
    assert len(fed["eval_history"]) == 3


def test_train_accepts_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"model": "lr", "n_episodes": 80, "epochs": 2}))
    assert _run(["train", "--config", str(cfg)]) == 0
    assert "accuracy" in capsys.readouterr().out


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"model": "lr", "learning_rte": 0.1}))
    assert _run(["train", "--config", str(cfg)]) == 2
    assert "learning_rte" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"n_episodes": 60, "epochs": 2, "seed": 1}))
    out = tmp_path / "run"
    assert _run(["train", "--config", str(cfg), "--episodes", "90",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["n_episodes"] == 90
    assert report["config"]["epochs"] == 2


def test_auroc_gate_on_single_class_shard_is_a_usage_error(capsys):
    # label skew at alpha 0.1 leaves some hospital's test shard one class
    assert _run(["train", "--mode", "federated", "--episodes", "300",
                 "--hospitals", "4", "--partition", "label_skew", "--skew-alpha", "0.1",
                 "--gate-metric", "auroc", "--rounds", "2", "--epochs", "1"]) == 2
    assert re.search(r"error: hospital \d: the auroc gate needs both classes",
                     capsys.readouterr().err)


def test_compare_prints_four_cells(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert _run(["compare", "--episodes", "80", "--epochs", "2", "--rounds", "2",
                 "--hospitals", "2", "--seed", "0", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    for label in ("lr-central", "lr-federated", "mlp-central", "mlp-federated"):
        assert label in table
    report = json.loads((out / "comparison.json").read_text())
    assert len(report["cells"]) == 4


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        _run(["detonate"])
    assert exc.value.code == 2


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_for_listen(port, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"nothing listening on port {port}")


def _spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "fedhosp", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture
def shards(tmp_path):
    """Two on-disk hospital shards drawn from one synthetic dataset.

    Episodes are dealt round-robin within each label class so both shards
    carry enough positives for a stratified local split.
    """
    from fedhosp.data import SyntheticConfig, generate, save_episodes

    episodes = generate(SyntheticConfig(n_episodes=60, n_variables=2,
                                        prevalence=0.3, seed=5))
    by_label = sorted(range(60), key=lambda i: episodes[i].label)
    halves = (by_label[0::2], by_label[1::2])
    paths = []
    for k, idx in enumerate(halves, start=1):
        shard_dir = tmp_path / f"shard{k}"
        save_episodes([episodes[i] for i in idx],
                      shard_dir / "measurements.csv", shard_dir / "labels.csv")
        paths.append(shard_dir)
    return paths


def test_serve_and_workers_over_tcp(tmp_path, shards):
    port = _free_port()
    out = tmp_path / "served"
    server = _spawn(["serve", "--listen", f"127.0.0.1:{port}", "--model", "lr",
                     "--variables", "2", "--hospitals", "2", "--rounds", "2",
                     "--seed", "3", "--out", str(out)])
    try:
        _wait_for_listen(port)
        workers = [
            _spawn(["worker", "--connect", f"127.0.0.1:{port}", "--id", str(k),
                    "--shard", str(shard), "--local-epochs", "1", "--seed", "3"])
            for k, shard in enumerate(shards, start=1)
        ]
        for w in workers:
            out_text = w.communicate(timeout=120)[0]
            assert w.returncode == 0, out_text
        server_out = server.communicate(timeout=120)[0]
        assert server.returncode == 0, server_out
    finally:
        for proc in [server, *locals().get("workers", [])]:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    report = json.loads((out / "report.json").read_text())
    assert len(report["rounds"]) == 2
    for entry in report["rounds"]:
        assert set(entry) == {"round", "candidate_accuracy", "committed", "weights", "cohort"}
    assert "listening on 127.0.0.1" in server_out


def test_duplicate_worker_id_is_rejected(tmp_path, shards):
    port = _free_port()
    server = _spawn(["serve", "--listen", f"127.0.0.1:{port}", "--model", "lr",
                     "--variables", "2", "--hospitals", "2", "--rounds", "1",
                     "--seed", "3"])
    workers = []
    try:
        _wait_for_listen(port)
        first = _spawn(["worker", "--connect", f"127.0.0.1:{port}", "--id", "1",
                        "--shard", str(shards[0]), "--seed", "3"])
        workers.append(first)
        time.sleep(1.0)  # let the first registration land
        dup = _spawn(["worker", "--connect", f"127.0.0.1:{port}", "--id", "1",
                      "--shard", str(shards[1]), "--seed", "3"])
        workers.append(dup)
        dup_out = dup.communicate(timeout=60)[0]
        assert dup.returncode != 0, dup_out
    finally:
        for proc in (server, *workers):
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


@pytest.mark.parametrize("fault", [{"n_samples": 0}, {"params": np.zeros(7)}],
                         ids=["no_samples", "7_params"])
def test_serve_exits_1_on_an_update_that_contradicts_the_registration(capsys, fault):
    from fedhosp import transport as tp

    port = _free_port()
    codes = []
    server = threading.Thread(target=lambda: codes.append(_run([
        "serve", "--listen", f"127.0.0.1:{port}", "--model", "lr", "--variables", "2",
        "--hospitals", "1", "--rounds", "1"])), daemon=True)
    server.start()
    deadline = time.monotonic() + 20.0
    while True:
        try:
            peer = tp.worker_connect("127.0.0.1", port, timeout=1.0)
            break
        except tp.TransportError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    try:
        peer.send(tp.Register(hospital_id=1, n_train=10, n_test=5))
        broadcast = peer.recv(timeout=30.0)
        assert broadcast.params.size != 7
        update = {"hospital_id": 1, "round": 0, "n_samples": 10, "params": broadcast.params}
        peer.send(tp.LocalUpdate(**{**update, **fault}))
        with pytest.raises(tp.TransportClosedError):  # not an EvalRequest
            peer.recv(timeout=30.0)
        server.join(timeout=30.0)
    finally:
        peer.close()
    assert codes == [1]
    assert "round 0: hospital 1 sent a LocalUpdate" in capsys.readouterr().err


# --------------------------------------------------------------------------
# every option value is checked before any stage runs


def _exit_code(argv):
    """main's exit code, argparse's own usage errors included."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


# (config-file values, equivalent flags or None where no flag can carry
# them, text the error must contain)
BAD_EXPERIMENT_VALUES = [
    ({"rounds": 0}, ["--rounds", "0"], "rounds"),
    ({"rounds": "ten"}, ["--rounds", "ten"], "rounds"),
    ({"cohort_fraction": 2}, ["--cohort-fraction", "2"], "cohort"),
    ({"batch_size": 0}, ["--batch-size", "0"], "batch"),
    ({"learning_rate": "0.1"}, None, "learning_rate"),
    ({"n_episodes": True}, ["--episodes", "true"], "episodes"),
    ({"n_episodes": 10**12}, ["--episodes", str(10**12)], "episodes"),
    ({"gate_enabled": "no"}, None, "gate_enabled"),
    ({"seed": -1}, ["--seed", "-1"], "seed"),
    ({"seed": 1.5}, ["--seed", "1.5"], "seed"),
    ({"out_dir": 7}, None, "out_dir"),
    ({"model": "mlp", "hidden_dim": 0}, ["--model", "mlp", "--hidden-dim", "0"], "hidden_dim"),
    ({"model": "mlp", "hidden_dim": 10**9}, ["--model", "mlp", "--hidden-dim", str(10**9)],
     "MAX_PARAMS"),
    ({"test_fraction": 1.0}, ["--test-fraction", "1"], "test_fraction"),
    ({"n_variables": 0}, ["--variables", "0"], "n_variables"),
    ({"points_min": 5, "points_max": 4}, ["--points-min", "5", "--points-max", "4"], "points"),
    ({"local_epochs": -1}, ["--local-epochs", "-1"], "local_epochs"),
    ({"partition_strategy": "round_robin"}, ["--partition", "round_robin"], "partition"),
]


def _bad_value_argvs(command, given, tmp_path, cases):
    """(argv, expected text) per case: the bad values from a config file that
    also holds ``given``, then as flags after ``given``'s own flags."""
    given_flags = [x for k, v in given.items() for x in (f"--{k.replace('_', '-')}", str(v))]
    for i, (config, flags, named) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({**given, **config}))
        yield [command, "--config", str(path)], named
        if flags is not None:
            yield [command, *given_flags, *flags], named


def _assert_usage_errors(argvs, capsys):
    for argv, named in argvs:
        assert _exit_code(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err and named in err, (argv, err)
        assert "stage" not in err, (argv, err)


@pytest.mark.parametrize("command", ["train", "compare"])
def test_every_bad_value_exits_2_before_the_data_stage(tmp_path, capsys, command):
    # Reaching the data stage would fail on the missing directory with exit 1.
    given = {"mode": "federated", "data_dir": str(tmp_path / "missing")}
    _assert_usage_errors(
        _bad_value_argvs(command, given, tmp_path, BAD_EXPERIMENT_VALUES), capsys)


def test_config_file_types_are_checked_not_converted(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"n_episodes": 60, "epochs": 1, "learning_rate": 1,
                               "gate_enabled": False}))
    out = tmp_path / "run"
    assert _run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    assert echo["learning_rate"] == 1 and isinstance(echo["learning_rate"], int)
    assert echo["gate_enabled"] is False


def test_generate_bad_values_exit_2_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    cases = [
        ({"episodes": True}, ["--episodes", "true"], "episodes"),
        ({"episodes": 1}, ["--episodes", "1"], "episodes"),
        ({"prevalence": "0.1"}, None, "prevalence"),
        ({"points_max": 10**9}, ["--points-max", str(10**9)], "points"),
        ({"seed": -1}, ["--seed", "-1"], "seed"),
        ({"out": 7}, None, "out"),
    ]
    given = {"episodes": 20, "out": str(out)}
    _assert_usage_errors(_bad_value_argvs("generate", given, tmp_path, cases), capsys)
    assert not out.exists()


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} before every option was checked")
    return refuse


def test_serve_bad_values_exit_2_before_opening_a_socket(tmp_path, capsys, monkeypatch):
    import fedhosp.cli as cli

    monkeypatch.setattr(cli, "TcpTransport", _refuse("opened a socket"))
    out = tmp_path / "out"
    cases = [
        ({"rounds": 0}, ["--rounds", "0"], "rounds"),
        ({"rounds": "ten"}, ["--rounds", "ten"], "rounds"),
        ({"hospitals": 0}, ["--hospitals", "0"], "hospitals"),
        ({"cohort_fraction": 2}, ["--cohort-fraction", "2"], "cohort"),
        ({"gate_enabled": "no"}, None, "gate_enabled"),
        ({"seed": 1.5}, ["--seed", "1.5"], "seed"),
        ({"model": "mlp", "hidden_dim": 0}, ["--model", "mlp", "--hidden-dim", "0"],
         "hidden_dim"),
        ({"model": "mlp", "hidden_dim": 10**9}, ["--model", "mlp", "--hidden-dim", str(10**9)],
         "MAX_PARAMS"),
        ({"listen": 7600}, None, "listen"),
        ({"listen": "127.0.0.1:99999"}, ["--listen", "127.0.0.1:99999"], "port"),
        ({"listen": "127.0.0.1:-5"}, ["--listen", "127.0.0.1:-5"], "port"),
    ]
    given = {"listen": "127.0.0.1:0", "out": str(out)}
    _assert_usage_errors(_bad_value_argvs("serve", given, tmp_path, cases), capsys)
    assert not out.exists()


def test_worker_bad_values_exit_2_before_reading_the_shard(tmp_path, capsys, monkeypatch):
    import fedhosp.cli as cli

    monkeypatch.setattr(cli, "prepare", _refuse("read the shard"))
    monkeypatch.setattr(cli, "worker_connect", _refuse("connected"))
    cases = [
        ({"id": 0}, ["--id", "0"], "id"),
        ({"id": "1"}, ["--id", "one"], "id"),
        ({"local_epochs": -1}, ["--local-epochs", "-1"], "local_epochs"),
        ({"batch_size": 0}, ["--batch-size", "0"], "batch"),
        ({"learning_rate": "0.1"}, None, "learning_rate"),
        ({"model": "mlp", "hidden_dim": 10**9}, ["--model", "mlp", "--hidden-dim", str(10**9)],
         "MAX_PARAMS"),
        ({"test_fraction": 1.5}, ["--test-fraction", "1.5"], "test_fraction"),
        ({"gate_metric": "f1"}, ["--gate-metric", "f1"], "gate"),
        ({"seed": -1}, ["--seed", "-1"], "seed"),
        ({"connect": "127.0.0.1:0"}, ["--connect", "127.0.0.1:0"], "port"),
        ({"connect": "127.0.0.1:65536"}, ["--connect", "127.0.0.1:65536"], "port"),
    ]
    given = {"connect": "127.0.0.1:9", "id": 1, "shard": str(tmp_path / "shard")}
    _assert_usage_errors(_bad_value_argvs("worker", given, tmp_path, cases), capsys)


@pytest.mark.parametrize("port", ["99999", "-5"])
def test_serve_port_out_of_range_is_a_usage_error(capsys, port):
    assert _run(["serve", "--listen", f"127.0.0.1:{port}", "--rounds", "1"]) == 2
    assert "must be an integer in 0-65535" in capsys.readouterr().err


def test_worker_id_below_1_is_rejected_before_the_shard_is_read(shards, capsys, monkeypatch):
    import fedhosp.cli as cli

    monkeypatch.setattr(cli, "prepare", _refuse("read the shard"))
    assert _run(["worker", "--connect", "127.0.0.1:9", "--id", "0",
                 "--shard", str(shards[0])]) == 2
    assert "id must be >= 1" in capsys.readouterr().err
