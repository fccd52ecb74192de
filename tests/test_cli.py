"""Command-line interface tests, including a live TCP serve/worker session."""

from __future__ import annotations

import csv
import json
import re
import socket
import subprocess
import sys
import time

import pytest

from fedhosp.cli import main
from fedhosp.data import load_episodes
from fedhosp.features import STATS_PER_VARIABLE


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
