"""Command-line interface tests, including a live TCP serve/worker session."""

from __future__ import annotations

import argparse
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

from episode_route import extract, load_episodes

from fedhosp.cli import _OUTPUTS, _flag, build_parser, main, write_report
from fedhosp.features import STATS_PER_VARIABLE, feature_names
from fedhosp.transport import TcpTransport, TransportError


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


def test_generate_takes_field_names_from_a_config_file(tmp_path):
    out = tmp_path / "data"
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_episodes": 40, "n_variables": 3, "seed": 5}))
    assert _run(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    episodes = load_episodes(out / "measurements.csv", out / "labels.csv")
    assert len(episodes) == 40
    assert {len(e.series) for e in episodes} == {3}


@pytest.mark.parametrize("command, old, field", [
    ("generate", "episodes", "n_episodes"), ("generate", "variables", "n_variables"),
    ("generate", "out", "out_dir"), ("serve", "hospitals", "n_hospitals"),
    ("serve", "variables", "n_variables"), ("serve", "out", "out_dir"),
    # extract's and worker's old keys for the episode directory, --out and the names
    ("extract", "data", "data_dir"), ("extract", "out", "out_dir"),
    ("extract", "variables", "variable_names"), ("worker", "shard", "data_dir"),
    ("worker", "data", "data_dir"), ("worker", "variables", "variable_names"),
])
def test_a_flag_name_as_a_config_key_is_unknown(tmp_path, capsys, command, old, field):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({old: 40}))
    required = {"generate": ["--episodes", "40", "--out", str(tmp_path / "data")],
                "extract": ["--data-dir", str(tmp_path / "episodes"), "--out", str(tmp_path)],
                "serve": ["--listen", "127.0.0.1:0"],
                "worker": ["--connect", "127.0.0.1:9", "--id", "1",
                           "--data-dir", str(tmp_path / "episodes")]}[command]
    assert _run([command, "--config", str(cfg), *required]) == 2
    err = capsys.readouterr().err
    assert f"unknown config keys ['{old}']; valid keys: [" in err
    assert f"'{field}'" in err.partition("valid keys:")[2]
    assert not (tmp_path / "data").exists()


def test_extract_writes_feature_table(tmp_path):
    data = tmp_path / "data"
    _run(["generate", "--episodes", "10", "--variables", "2", "--out", str(data)])
    out = tmp_path / "features.csv"
    assert _run(["extract", "--data-dir", str(data), "--out", str(tmp_path)]) == 0

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:2] == ["episode_id", "label"]
    assert len(header) == 2 + 2 * STATS_PER_VARIABLE
    assert header[2].endswith("__full__max")
    assert len(body) == 10
    assert all(len(r) == len(header) for r in body)
    # every feature cell is a plain number equal to the value the Episode
    # route extracts, with the observed variables sorted
    variables = ("heart_rate", "systolic_bp")
    assert header[2:] == feature_names(variables)
    matrix = extract(load_episodes(data / "measurements.csv", data / "labels.csv"), variables)
    assert [r[0] for r in body] == list(matrix.episode_ids)
    assert [int(r[1]) for r in body] == matrix.labels.tolist()
    assert [[float(cell) for cell in r[2:]] for r in body] == matrix.rows.tolist()


# Ten episodes, five of each class, so a stratified split leaves both sides
# of both classes non-empty and train reaches the same stage extract does.
BAD_DATA_LABELS = "episode_id,label\r\n" + "".join(
    f"e{i:05d},{i % 2}\r\n" for i in range(10))


@pytest.mark.parametrize("rows, stage, problem", [
    ("e00000,heart_rate,1.0,2.0\r\ne00000,heart_rate,2.0,abc\r\n",
     "data", "measurements.csv, line 3: non-numeric hour/value ['2.0', 'abc']"),
    ("", "data", "no measurements found under "),
    # finite values whose window sums overflow
    ("e00000,heart_rate,1.0,1e308\r\ne00000,heart_rate,2.0,1e308\r\n",
     "feature", "feature rows contain non-finite values\n"),
], ids=["non_numeric", "header_only", "overflow"])
def test_extract_on_bad_data_is_a_data_stage_error_exit_1(tmp_path, capsys, rows, stage,
                                                          problem):
    """extract and train fail alike: exit 1, one error line naming the stage."""
    data = tmp_path / "d1"
    data.mkdir()
    (data / "labels.csv").write_text(BAD_DATA_LABELS)
    (data / "measurements.csv").write_text("episode_id,variable,hour,value\r\n" + rows)
    out = tmp_path / "features.csv"
    for argv in (["extract", "--data-dir", str(data), "--out", str(tmp_path)],
                 ["train", "--data-dir", str(data), "--epochs", "1"]):
        assert _run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage} stage: {problem}"), (argv, err)
        assert err.count("\n") == 1 and "RuntimeWarning" not in err, (argv, err)
    assert not out.exists()


@pytest.mark.parametrize("names,unobserved", [("heart_rate,bogus_rate", "bogus_rate"),
                                               ("heart_rate,systolic_bp", None)],
                         ids=["bogus", "observed"])
def test_extract_warns_once_about_variables_never_observed(tmp_path, capsys, names,
                                                           unobserved):
    data = tmp_path / "data"
    _run(["generate", "--episodes", "10", "--variables", "2", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "features.csv"
    assert _run(["extract", "--data-dir", str(data), "--out", str(tmp_path),
                 "--variable-names", names]) == 0
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


def _connect_when_listening(port, timeout=20.0):
    """A raw protocol peer, connected as soon as the server listens on ``port``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return TcpTransport("127.0.0.1", port).connect()
        except TransportError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def _spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "fedhosp", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _reap(procs):
    """Kill every child still running, then close each one's stdout pipe, so a
    failed test leaves no pipe open for a later test's ResourceWarning."""
    for proc in procs:
        with proc:  # leaving closes the pipe and waits for the exit
            proc.kill()  # a no-op once the child has exited


@pytest.fixture
def shards(tmp_path):
    """Two on-disk hospital shards drawn from one synthetic dataset.

    Episodes are dealt round-robin within each label class so both shards
    carry enough positives for a stratified local split.
    """
    from fedhosp.data import SyntheticConfig, generate, save_episodes

    points = generate(SyntheticConfig(n_episodes=60, n_variables=2, prevalence=0.3, seed=5))
    first = np.zeros(60, dtype=bool)
    first[np.argsort(points.labels, kind="stable")[0::2]] = True
    paths = []
    for k, shard in enumerate((points.take(first), points.take(~first)), start=1):
        shard_dir = tmp_path / f"shard{k}"
        save_episodes(shard, shard_dir / "measurements.csv", shard_dir / "labels.csv")
        paths.append(shard_dir)
    return paths


def test_serve_and_workers_over_tcp(tmp_path, shards):
    port = _free_port()
    out = tmp_path / "served"
    server = _spawn(["serve", "--listen", f"127.0.0.1:{port}", "--model", "lr",
                     "--variables", "2", "--hospitals", "2", "--rounds", "2",
                     "--seed", "3", "--out", str(out)])
    workers = []
    try:
        _wait_for_listen(port)
        for k, shard in enumerate(shards, start=1):
            workers.append(_spawn(["worker", "--connect", f"127.0.0.1:{port}", "--id", str(k),
                                   "--data-dir", str(shard), "--local-epochs", "1",
                                   "--seed", "3"]))
        for w in workers:
            out_text = w.communicate(timeout=120)[0]
            assert w.returncode == 0, out_text
        server_out = server.communicate(timeout=120)[0]
        assert server.returncode == 0, server_out
    finally:
        _reap([server, *workers])
    report = json.loads((out / "report.json").read_text())
    assert len(report["federation"]["rounds"]) == 2
    for entry in report["federation"]["rounds"]:
        assert set(entry) == {"round", "candidate_accuracy", "committed", "weights", "cohort"}
    assert "listening on 127.0.0.1" in server_out
    assert "finished 2 rounds; best gate value " in server_out


def test_duplicate_worker_id_is_rejected(tmp_path, shards):
    port = _free_port()
    server = _spawn(["serve", "--listen", f"127.0.0.1:{port}", "--model", "lr",
                     "--variables", "2", "--hospitals", "2", "--rounds", "1",
                     "--seed", "3"])
    workers = []
    try:
        _wait_for_listen(port)
        first = _spawn(["worker", "--connect", f"127.0.0.1:{port}", "--id", "1",
                        "--data-dir", str(shards[0]), "--seed", "3"])
        workers.append(first)
        time.sleep(1.0)  # let the first registration land
        dup = _spawn(["worker", "--connect", f"127.0.0.1:{port}", "--id", "1",
                      "--data-dir", str(shards[1]), "--seed", "3"])
        workers.append(dup)
        dup_out = dup.communicate(timeout=60)[0]
        assert dup.returncode != 0, dup_out
    finally:
        _reap([server, *workers])


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
    peer = _connect_when_listening(port)
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


def test_a_worker_whose_training_fails_exits_1_and_so_does_serve(tmp_path, capsys):
    # The server's model has 7 variables' parameters, the worker's shard 5.
    shard = tmp_path / "shard"
    assert _run(["generate", "--episodes", "60", "--variables", "5", "--out", str(shard)]) == 0
    port = _free_port()
    codes = []
    server = threading.Thread(target=lambda: codes.append(_run([
        "serve", "--listen", f"127.0.0.1:{port}", "--model", "lr", "--variables", "7",
        "--hospitals", "1", "--rounds", "1"])), daemon=True)
    server.start()
    _wait_for_listen(port)
    assert _run(["worker", "--connect", f"127.0.0.1:{port}", "--id", "1",
                 "--data-dir", str(shard)]) == 1
    server.join(timeout=30.0)
    assert not server.is_alive() and codes == [1]
    err = capsys.readouterr().err
    assert "error: parameter length mismatch for lr: expected 211, got 295\n" in err
    assert "error: round 0: hospital 1: " in err


def test_a_model_too_large_for_the_data_exits_1(tmp_path, capsys, monkeypatch):
    # 480 variables give an mlp 1,008,101 parameters: the options pass, the data do not.
    data = tmp_path / "wide"
    assert _run(["generate", "--episodes", "40", "--variables", "480", "--points-min", "1",
                 "--points-max", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(TcpTransport, "connect", _refuse("connected"))
    for argv in (["train", "--model", "mlp", "--data-dir", str(data)],
                 ["worker", "--model", "mlp", "--connect", "127.0.0.1:9", "--id", "1",
                  "--data-dir", str(data)]):
        assert _run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: training stage: mlp with input_dim 20160 "), (argv, err)
        assert "more than MAX_PARAMS" in err, (argv, err)


def _serve_to_a_raw_peer(tmp_path, values, *flags):
    """Run ``serve`` with ``flags`` for one hospital and ``len(values)`` rounds; the
    hospital, a raw peer, returns what it is sent and scores round r's ``values[r]``."""
    from fedhosp import transport as tp

    port = _free_port()
    config = tmp_path / "serve.json"
    config.write_text(json.dumps({"rounds": len(values), "n_hospitals": 1}))
    codes = []
    server = threading.Thread(target=lambda: codes.append(_run([
        "serve", "--config", str(config), "--listen", f"127.0.0.1:{port}", "--model", "lr",
        "--variables", "2", "--seed", "5", *flags])), daemon=True)
    server.start()
    peer = _connect_when_listening(port)
    try:
        peer.send(tp.Register(hospital_id=1, n_train=10, n_test=5))
        while not isinstance(msg := peer.recv(timeout=30.0), tp.Shutdown):
            if isinstance(msg, tp.BroadcastModel):
                peer.send(tp.LocalUpdate(hospital_id=1, round=msg.round, n_samples=10,
                                         params=msg.params))
            else:
                peer.send(tp.EvalResult(hospital_id=1, round=msg.round,
                                        value=values[msg.round], n_test=5))
        server.join(timeout=30.0)
    finally:
        peer.close()
    assert codes == [0]


@pytest.fixture(scope="module")
def served_report(tmp_path_factory):
    """The report of a 2-round serve; its one hospital returns what it is sent
    and scores it 0.5."""
    tmp_path = tmp_path_factory.mktemp("serve")
    _serve_to_a_raw_peer(tmp_path, [0.5, 0.5], "--out", str(tmp_path / "served"))
    return json.loads((tmp_path / "served" / "report.json").read_text())


def _json_type(value) -> str:
    for kind, name in ((type(None), "null"), (bool, "boolean"), ((int, float), "number"),
                       (str, "string"), (list, "array"), (dict, "object")):
        if isinstance(value, kind):
            return name
    raise TypeError(f"not a JSON value: {value!r}")


def _key_paths(value, path=()):
    """(path, JSON type) of a JSON value and of everything in it; a list's
    items share the path step ``[]``."""
    yield path, _json_type(value)
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _key_paths(item, (*path, key))
    elif isinstance(value, list):
        for item in value:
            yield from _key_paths(item, (*path, "[]"))


def _federated_train_report(out_dir) -> dict:
    assert _run(["train", "--mode", "federated", "--episodes", "60", "--rounds", "1",
                 "--out", str(out_dir)]) == 0
    return json.loads((out_dir / "report.json").read_text())


def test_serve_report_paths_are_those_of_a_federated_train_report(tmp_path, served_report):
    trained = set(_key_paths(_federated_train_report(tmp_path)))
    # a null in serve's config is a setting the workers hold (see the test below)
    served = {(path, kind) for path, kind in _key_paths(served_report)
              if not (path[:1] == ("config",) and kind == "null")}
    assert served - trained == set()
    fed = served_report["federation"]
    assert (fed["hospital_train_sizes"], fed["hospital_test_sizes"]) == ([10], [5])
    assert (fed["best_accuracy"], fed["rounds_committed"], len(fed["rounds"])) == (0.5, 2, 2)


@pytest.mark.parametrize("gate, printed, committed", [
    ("--gate", "best gate value 0.9000 (1 committed)", 1),
    ("--no-gate", "last gate value 0.5000 (2 committed)", 2),
], ids=["gate", "no_gate"])
def test_serve_keeps_the_last_committed_value(tmp_path, capsys, gate, printed, committed):
    """With the gate off every round commits, so the value kept is the last
    round's, not the best."""
    _serve_to_a_raw_peer(tmp_path, [0.9, 0.5], gate, "--out", str(tmp_path))
    fed = json.loads((tmp_path / "report.json").read_text())["federation"]
    assert fed["rounds_committed"] == committed
    assert fed["best_accuracy"] == {1: 0.9, 2: 0.5}[committed]
    assert f"finished 2 rounds; {printed}\n" in capsys.readouterr().out


@pytest.mark.parametrize("command, name", [
    ("train", "report.json"), ("compare", "comparison.json"), ("serve", "report.json"),
])
def test_an_empty_out_writes_the_report_into_the_working_directory(
        tmp_path, monkeypatch, capsys, command, name):
    monkeypatch.chdir(tmp_path)
    if command == "serve":
        _serve_to_a_raw_peer(tmp_path, [0.5], "--out", "")
    else:
        assert _run([command, "--episodes", "60", "--epochs", "1", "--rounds", "1",
                     "--out", ""]) == 0
    assert capsys.readouterr().out.endswith(f"report written to {name}\n")
    assert json.loads((tmp_path / name).read_text())["schema_version"] == 1


def test_write_report_creates_parents_and_round_trips(tmp_path, capsys, monkeypatch):
    out = tmp_path / "deep" / "nested"
    write_report({"alpha": 1, "beta": [1.5, 2.5]}, str(out), "report.json")
    assert json.loads((out / "report.json").read_text()) == {"alpha": 1, "beta": [1.5, 2.5]}
    assert capsys.readouterr().out == f"report written to {out / 'report.json'}\n"
    monkeypatch.chdir(tmp_path)
    write_report({"alpha": 1}, None, "report.json")  # no --out: nothing written
    assert capsys.readouterr().out == "" and not (tmp_path / "report.json").exists()


def test_write_report_writes_tuples_as_lists_and_refuses_numpy_values(tmp_path):
    path = tmp_path / "report.json"
    write_report({"cohort": (1, 2)}, str(tmp_path), "report.json")
    assert path.read_text() == '{\n  "cohort": [\n    1,\n    2\n  ]\n}\n'
    for value in (np.int64(1), np.zeros(2)):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_report({"value": value}, str(tmp_path), "report.json")
    for value in (float("nan"), float("inf")):  # JSON has no such value
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report({"value": value}, str(tmp_path), "report.json")


def test_serve_report_config_has_the_keys_of_a_federated_train_report(tmp_path, served_report):
    served = served_report["config"]
    trained = _federated_train_report(tmp_path)["config"]
    assert sorted(served) == sorted(trained)
    assert {k: served[k] for k in ("mode", "model", "n_variables", "n_hospitals", "rounds",
                                   "seed")} == {"mode": "federated", "model": "lr",
                                                "n_variables": 2, "n_hospitals": 1,
                                                "rounds": 2, "seed": 5}


def test_serve_report_config_is_null_for_the_settings_the_workers_hold(served_report):
    served = served_report["config"]
    held = ("local_epochs", "batch_size", "learning_rate", "test_fraction", "n_episodes",
            "gate_metric")
    assert {k: served[k] for k in held} == dict.fromkeys(held)
    assert served["gate_enabled"] is True and served["hidden_dim"] == 50


def test_serve_takes_no_gate_metric(capsys):
    """Each worker scores the gate; the server only compares the values it is sent."""
    assert _exit_code(["serve", "--listen", "127.0.0.1:0", "--gate-metric", "auroc"]) == 2
    assert "unrecognized arguments: --gate-metric auroc" in capsys.readouterr().err


def test_a_feature_too_wide_to_scale_fails_the_training_stage(tmp_path, capsys):
    # One series point each: the features stay finite, their range does not.
    with open(tmp_path / "measurements.csv", "w", newline="") as f:
        csv.writer(f).writerows([["episode_id", "variable", "hour", "value"], *(
            [f"e{i:02d}", "hr", 1.0, {0: 1e308, 1: -1e308}.get(i, 80.0 + i)]
            for i in range(40))])
    with open(tmp_path / "labels.csv", "w", newline="") as f:
        csv.writer(f).writerows([["episode_id", "label"],
                                 *([f"e{i:02d}", int(i % 3 == 0)] for i in range(40))])
    out = tmp_path / "run"
    assert _run(["train", "--data-dir", str(tmp_path), "--epochs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: training stage: feature column \d+ spans \[\S+, \S+\]: twice "
                        r"its range is not finite, so it cannot be scaled\n", err), err
    assert not out.exists()


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
    ({"partition_strategy": "label_skew", "skew_alpha": float("nan")},
     ["--partition", "label_skew", "--skew-alpha", "nan"], "skew_alpha must be finite"),
    ({"skew_alpha": float("inf")}, ["--skew-alpha", "inf"], "skew_alpha must be finite"),
    ({"learning_rate": float("inf")}, ["--learning-rate", "inf"], "learning_rate must be finite"),
    ({"learning_rate": -1}, ["--learning-rate", "-1"], "learning_rate must be positive, got -1"),
    ({"points_min": -1}, ["--points-min", "-1"], "points_min must be >= 0, got -1"),
    ({"points_min": 5, "points_max": 3}, ["--points-min", "5", "--points-max", "3"],
     "points_max must be >= 5, got 3"),
    ({"effect_size": float("nan")}, ["--effect-size", "nan"], "effect_size must be finite"),
]


def _bad_value_argvs(command, given, tmp_path, cases):
    """(argv, expected text) per case: the bad values from a config file that
    also holds ``given``, then as flags after ``given``'s own flags."""
    given_flags = [x for k, v in given.items() for x in (_flag(k), str(v))]
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
        # the bad value was refused, not the key or flag that carried it
        for wrong_refusal in ("unknown config keys", "unrecognized arguments"):
            assert wrong_refusal not in err, (argv, err)


@pytest.mark.parametrize("command", ["train", "compare"])
def test_every_bad_value_exits_2_before_the_data_stage(tmp_path, capsys, command):
    # Reaching the data stage would fail on the missing directory with exit 1.
    given = {"mode": "federated", "data_dir": str(tmp_path / "missing")}
    _assert_usage_errors(
        _bad_value_argvs(command, given, tmp_path, BAD_EXPERIMENT_VALUES), capsys)


def test_a_non_finite_skew_alpha_is_refused_under_equal_iid_too(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--episodes", "60", "--epochs", "1", "--skew-alpha", "nan", "--out", str(out)]
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err == "error: skew_alpha must be finite, got nan\n"
    assert not (out / "report.json").exists()


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
        ({"n_episodes": True}, ["--episodes", "true"], "episodes"),
        ({"n_episodes": 1}, ["--episodes", "1"], "episodes"),
        ({"prevalence": "0.1"}, None, "prevalence"),
        ({"points_max": 10**9}, ["--points-max", str(10**9)], "points"),
        ({"points_min": 5, "points_max": 3}, ["--points-min", "5", "--points-max", "3"],
         "points_max must be >= 5, got 3"),
        ({"seed": -1}, ["--seed", "-1"], "seed"),
        ({"out_dir": 7}, None, "out_dir"),
    ]
    given = {"n_episodes": 20, "out_dir": str(out)}
    _assert_usage_errors(_bad_value_argvs("generate", given, tmp_path, cases), capsys)
    assert not out.exists()


# A bad port names the option it came from, by flag and config key.
LISTEN_PORT = "--listen (config key 'listen'): the port"
CONNECT_PORT = "--connect (config key 'connect'): the port"


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
        ({"n_hospitals": 0}, ["--hospitals", "0"], "n_hospitals"),
        # No Register carries an id past a u32, so such a count can never be met.
        ({"n_hospitals": 2**32}, ["--hospitals", str(2**32)],
         "n_hospitals must be <= 4294967295, the largest hospital id a Register carries"),
        ({"cohort_fraction": 2}, ["--cohort-fraction", "2"], "cohort"),
        ({"gate_enabled": "no"}, None, "gate_enabled"),
        ({"seed": 1.5}, ["--seed", "1.5"], "seed"),
        ({"model": "mlp", "hidden_dim": 0}, ["--model", "mlp", "--hidden-dim", "0"],
         "hidden_dim"),
        ({"model": "mlp", "hidden_dim": 10**9}, ["--model", "mlp", "--hidden-dim", str(10**9)],
         "MAX_PARAMS"),
        ({"listen": 7600}, None, "listen"),
        ({"listen": "127.0.0.1:99999"}, ["--listen", "127.0.0.1:99999"], LISTEN_PORT),
        ({"listen": "127.0.0.1:-5"}, ["--listen", "127.0.0.1:-5"], LISTEN_PORT),
    ]
    given = {"listen": "127.0.0.1:0", "out_dir": str(out)}
    _assert_usage_errors(_bad_value_argvs("serve", given, tmp_path, cases), capsys)
    assert not out.exists()


def test_worker_bad_values_exit_2_before_reading_the_shard(tmp_path, capsys, monkeypatch):
    import fedhosp.cli as cli

    monkeypatch.setattr(cli, "prepare", _refuse("read the shard"))
    monkeypatch.setattr(TcpTransport, "connect", _refuse("connected"))
    cases = [
        ({"id": 0}, ["--id", "0"], "id"),
        ({"id": "1"}, ["--id", "one"], "id"),
        ({"id": 2**32}, ["--id", str(2**32)], "error: id must be >= 1 and <= 4294967295 "
         "(hospital ids are 1-based and a Register carries a u32), got 4294967296\n"),
        ({"local_epochs": -1}, ["--local-epochs", "-1"], "local_epochs"),
        ({"batch_size": 0}, ["--batch-size", "0"], "batch"),
        ({"learning_rate": "0.1"}, None, "learning_rate"),
        ({"learning_rate": 0}, ["--learning-rate", "0"], "learning_rate must be positive, got 0"),
        ({"model": "mlp", "hidden_dim": 10**9}, ["--model", "mlp", "--hidden-dim", str(10**9)],
         "MAX_PARAMS"),
        ({"test_fraction": 1.5}, ["--test-fraction", "1.5"], "test_fraction"),
        ({"gate_metric": "f1"}, ["--gate-metric", "f1"], "gate"),
        ({"seed": -1}, ["--seed", "-1"], "seed"),
        ({"connect": "127.0.0.1:0"}, ["--connect", "127.0.0.1:0"], CONNECT_PORT),
        ({"connect": "127.0.0.1:65536"}, ["--connect", "127.0.0.1:65536"], CONNECT_PORT),
        ({"variable_names": "heart_rate,heart_rate"},
         ["--variable-names", "heart_rate, heart_rate"],
         "--variable-names (config key 'variable_names') names 'heart_rate' more than once"),
    ]
    given = {"connect": "127.0.0.1:9", "id": 1, "data_dir": str(tmp_path / "shard")}
    _assert_usage_errors(_bad_value_argvs("worker", given, tmp_path, cases), capsys)


def test_extract_bad_values_exit_2_before_reading_the_data(tmp_path, capsys, monkeypatch):
    import fedhosp.cli as cli

    monkeypatch.setattr(cli, "load_data", _refuse("read the data"))
    out = tmp_path / "features.csv"
    cases = [
        ({"variable_names": 7}, None, "variable_names"),
        ({"variable_names": "heart_rate,glucose,heart_rate"},
         ["--variable-names", "heart_rate,glucose,heart_rate"],
         "--variable-names (config key 'variable_names') names 'heart_rate' more than once"),
    ]
    given = {"data_dir": str(tmp_path / "data"), "out_dir": str(tmp_path)}
    _assert_usage_errors(_bad_value_argvs("extract", given, tmp_path, cases), capsys)
    assert not out.exists()


@pytest.mark.parametrize("gate, code", [("auroc", 2), ("accuracy", 1)])
def test_worker_auroc_gate_on_a_single_class_test_shard_exits_2_before_connecting(
        shards, capsys, monkeypatch, gate, code):
    from dataclasses import replace

    import fedhosp.cli as cli

    # A shard's own split is stratified, so it keeps both classes in its test
    # side; the one-class test side is made after that split.
    real_prepare = cli.prepare

    def prepare_one_class(*args, **kwargs):
        data = real_prepare(*args, **kwargs)
        return replace(data, test=replace(data.test, labels=np.zeros_like(data.test.labels)))

    def refuse_to_connect(transport):
        raise TransportError(
            f"cannot connect to {transport.host}:{transport.port}: refused by the test")

    monkeypatch.setattr(cli, "prepare", prepare_one_class)
    monkeypatch.setattr(TcpTransport, "connect", refuse_to_connect)
    assert _run(["worker", "--connect", "127.0.0.1:9", "--id", "1", "--data-dir", str(shards[0]),
                 "--gate-metric", gate]) == code
    err = capsys.readouterr().err
    if gate == "auroc":
        assert f"error: shard {shards[0]}: hospital 1: the auroc gate needs both classes" in err
    else:  # the accuracy gate scores one class: the worker goes on to connect
        assert "refused by the test" in err


@pytest.mark.parametrize("port", ["99999", "-5", "²"])
def test_serve_port_out_of_range_is_a_usage_error(capsys, port):
    assert _run(["serve", "--listen", f"127.0.0.1:{port}", "--rounds", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{LISTEN_PORT} in '127.0.0.1:{port}' must be an integer in 0-65535" in err


def test_every_option_has_a_help_line_with_its_default_or_required():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    assert len(subcommands.choices) == 6
    for command, parser in subcommands.choices.items():
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        assert options, command
        for action in options:
            text = action.help or ""
            assert re.fullmatch(r"\S.* \((required|default: .+)\)", text), \
                (command, action.dest, text)


def test_a_flag_means_one_thing_and_a_setting_has_one_flag(capsys):
    """Across every command: a flag has one dest and one type, and a dest one flag."""
    # An abbreviation would be a second spelling: --variable would mean n_variables
    # in generate and variable_names in extract, and --data extract's old flag.
    for argv in (["generate", "--variable", "3"], ["extract", "--data", "episodes"]):
        assert _exit_code(argv) == 2, argv
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    meaning, flags = {}, {}  # flag -> {command: meaning}, dest -> {command: flags}
    for command, parser in subcommands.choices.items():
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        assert len({a.dest for a in options}) == len(options), command
        for action in options:
            for flag in action.option_strings:
                meaning.setdefault(flag, {})[command] = (action.dest, action.type,
                                                         type(action), action.choices)
            flags.setdefault(action.dest, {})[command] = tuple(action.option_strings)
            if action.help.endswith("(required)"):  # never absent, so no "else ..."
                assert ", else " not in action.help, (command, action.dest)
    for table in (meaning, flags):
        for name, per_command in table.items():
            assert len(set(per_command.values())) == 1, (name, per_command)
    assert set(flags["data_dir"]) == {"extract", "train", "compare", "worker"}
    assert flags["n_variables"]["serve"] == ("--variables",)
    assert flags["variable_names"]["worker"] == ("--variable-names",)


# command that takes --out -> its required options but --out
REQUIRED = {"generate": ["--episodes", "20"], "extract": ["--data-dir", "episodes"],
            "train": ["--episodes", "60"], "compare": ["--episodes", "60"],
            "serve": ["--listen", "127.0.0.1:0"]}


def _refuse_every_stage(monkeypatch):
    import fedhosp.cli as cli

    for stage_entry in ("generate", "load_data", "run_experiment", "run_comparison",
                        "TcpTransport"):
        monkeypatch.setattr(cli, stage_entry, _refuse(f"ran {stage_entry}"))


@pytest.mark.parametrize("command, required", REQUIRED.items())
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_an_out_that_is_or_lies_under_a_file_exits_2_before_any_stage(
        tmp_path, capsys, monkeypatch, command, required, under):
    _refuse_every_stage(monkeypatch)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "run" if under else blocker
    assert _exit_code([command, *required, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: --out (config key 'out_dir') names {str(out)!r}, "
                                       f"but {str(blocker)!r} is not a directory\n")
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("command, name", [(command, name) for command, names in _OUTPUTS.items()
                                           for name in names])
def test_an_output_file_that_is_a_directory_exits_2_before_any_stage(
        tmp_path, capsys, monkeypatch, command, name):
    _refuse_every_stage(monkeypatch)
    taken = tmp_path / "run" / name
    taken.mkdir(parents=True)
    assert _exit_code([command, *REQUIRED[command], "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr() == ("", f"error: --out (config key 'out_dir'): the output file "
                                       f"{str(taken)!r} is a directory\n")
    assert sorted(tmp_path.rglob("*")) == [taken.parent, taken]


def test_serve_on_a_port_in_use_exits_1(capsys):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        port = sock.getsockname()[1]
        assert _run(["serve", "--listen", f"127.0.0.1:{port}", "--rounds", "1"]) == 1
    assert f"error: cannot listen on 127.0.0.1:{port}" in capsys.readouterr().err


def test_worker_id_below_1_is_rejected_before_the_shard_is_read(shards, capsys, monkeypatch):
    import fedhosp.cli as cli

    monkeypatch.setattr(cli, "prepare", _refuse("read the shard"))
    assert _run(["worker", "--connect", "127.0.0.1:9", "--id", "0",
                 "--data-dir", str(shards[0])]) == 2
    assert "id must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not_json"])
def test_an_unreadable_config_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert _exit_code(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")


def test_a_config_file_holding_a_list_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"rounds": 2}]))
    assert _exit_code(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config file {path} must hold a flat JSON object\n"


@pytest.mark.parametrize("argv, flag", [
    (["serve", "--listen", "localhost", "--rounds", "1"], "--listen (config key 'listen')"),
    (["worker", "--connect", "7600", "--id", "1", "--data-dir", "shard"],
     "--connect (config key 'connect')"),
], ids=["listen", "connect"])
def test_an_endpoint_without_a_colon_exits_2_naming_its_flag(capsys, argv, flag):
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} must look like HOST:PORT, got {argv[2]!r}\n"


def test_serve_names_the_hospital_and_round_of_a_worker_that_breaks_off_mid_frame(capsys):
    from fedhosp import transport as tp

    port = _free_port()
    codes = []
    server = threading.Thread(target=lambda: codes.append(_run([
        "serve", "--listen", f"127.0.0.1:{port}", "--model", "lr", "--variables", "2",
        "--hospitals", "2", "--rounds", "1"])), daemon=True)
    server.start()
    peers = [_connect_when_listening(port) for _ in range(2)]
    try:
        for k, peer in enumerate(peers, start=1):
            peer.send(tp.Register(hospital_id=k, n_train=10, n_test=5))
        params = [peer.recv(timeout=30.0).params for peer in peers]
        peers[0].send(tp.LocalUpdate(1, 0, 10, params[0]))  # hospital 1 answers in full
        frame = tp.encode(tp.LocalUpdate(2, 0, 10, params[1]))
        peers[1]._sock.sendall(frame[:len(frame) // 2])
        peers[1].close()
        server.join(timeout=30.0)
    finally:
        for peer in peers:
            peer.close()
    assert not server.is_alive() and codes == [1]
    assert capsys.readouterr().err == ("error: round 0: hospital 2: "
                                       "peer closed the connection mid-frame\n")
