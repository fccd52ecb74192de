"""Golden digests: one sha256 per canonical run, pinned across changes.

Outputs may move only when a change says so. A change that alters one of
these runs on purpose updates its digest here and declares it in
CHANGES.md, so this file is the record of every declared value change.

The digests were computed with the numpy and OpenBLAS core in ``CONTEXT``.
With ``OPENBLAS_CORETYPE`` set to Haswell or Sandybridge the reports and CSVs
kept their digests, but the TCP run's parameters did not: they hold every
bit, and a dot product rounds by kernel. Another numpy or CPU vendor may
round differently too. A mismatch names the run, the pinned context and the
current one, so such a failure can be told from a changed program. It is
never skipped.

Each run is small (300 episodes, a few rounds) so the module adds well under
2 s to the suite.
"""

from __future__ import annotations

import ctypes
import hashlib

import numpy as np
import pytest

from fedhosp.cli import main
from fedhosp.experiment import ExperimentConfig, prepare

CONTEXT = {"numpy": "2.4.6", "openblas_core": "SkylakeX"}

SMALL = ["--episodes", "300", "--variables", "3", "--seed", "11"]

# run -> (argv, the files whose bytes are digested, in order)
RUNS = {
    "train-central-mlp": (["train", *SMALL, "--model", "mlp", "--hidden-dim", "8",
                           "--epochs", "8"], ["report.json"]),
    "train-federated-lr-label-skew-cohort": (
        ["train", *SMALL, "--mode", "federated", "--hospitals", "3",
         "--partition", "label_skew", "--cohort-fraction", "0.6", "--rounds", "8"],
        ["report.json"]),
    "train-federated-mlp-auroc-gate": (
        ["train", *SMALL, "--model", "mlp", "--hidden-dim", "8", "--mode", "federated",
         "--gate-metric", "auroc", "--local-epochs", "2", "--rounds", "6"], ["report.json"]),
    "compare": (["compare", *SMALL, "--hidden-dim", "8", "--epochs", "6", "--rounds", "6"],
                ["comparison.json"]),
    "generate": (["generate", *SMALL], ["measurements.csv", "labels.csv"]),
}

# Runs on the CSV files of ``generate`` (some series empty), in a working
# directory of their own so the report's ``data_dir`` reads "data" in every run.
# run -> (argv, the file whose bytes are digested)
CSV_RUNS = {
    "train-data-dir-central-lr": (["train", "--data-dir", "data", "--epochs", "20",
                                   "--seed", "11", "--out", "out"], "out/report.json"),
    "extract": (["extract", "--data-dir", "data", "--out", "."], "features.csv"),
}

GOLDEN = {
    "train-central-mlp":
        "57f11c9215e3bb454d2882c5eaf375e36040e6db9885baf3dbdbfcc9ae8330af",
    "train-federated-lr-label-skew-cohort":
        "c8460df7e87965988486fea14e2158559e1181a227540e77b857446e448ddf44",
    "train-federated-mlp-auroc-gate":
        "3e11173b4527841b2f41062456ab5d58899c0440bbf8e31bc4025b7b10517ace",
    "compare":
        "d005f3ecca8a950d0f26d631e98198ca8743e80957565586b5b92e42937a5f49",
    "generate":
        "c62da3aab58605d8e047d0af3da443a9656d3fd68e4488dfe8d9f46576e264c1",
    "train-data-dir-central-lr":
        "8635937dcc11080219ae3effd4bdca02aac5a8bdcaa11eb5152b98c75e601941",
    "extract":
        "35fcb8dacfd4e365dd674eb121858907604be0b3d81ad44134fd0d7c34fb4fdd",
    "fed-lr-tcp-params":
        "e1d7f98764b12d746a0b5e612578ac3cc17e4bd9be29ddfe83d680dc5ee9ee3f",
}


def _openblas_core() -> str:
    """The OpenBLAS kernel set in use, or "unknown" where it cannot be read."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def _check(run: str, digest: str) -> None:
    current = {"numpy": np.__version__, "openblas_core": _openblas_core()}
    assert digest == GOLDEN[run], (
        f"golden run {run!r} changed: sha256 {digest}, pinned {GOLDEN[run]}; "
        f"pinned context {CONTEXT}, current {current}")


@pytest.mark.parametrize("run", RUNS)
def test_cli_run_matches_its_golden_digest(run, tmp_path, capsys):
    argv, files = RUNS[run]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    sha = hashlib.sha256()
    for name in files:
        sha.update((tmp_path / name).read_bytes())
    _check(run, sha.hexdigest())


@pytest.mark.parametrize("run", CSV_RUNS)
def test_cli_run_on_generated_csv_matches_its_golden_digest(run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", *SMALL, "--points-min", "0", "--out", "data"]) == 0
    argv, output = CSV_RUNS[run]
    assert main(argv) == 0
    capsys.readouterr()
    _check(run, hashlib.sha256((tmp_path / output).read_bytes()).hexdigest())


def test_fed_lr_over_tcp_matches_its_golden_digest(tcp_federation):
    cfg = ExperimentConfig(mode="federated", n_episodes=300, n_variables=3, rounds=4, seed=11)
    hospitals = prepare(cfg).hospitals(cfg.partition_plan())
    state, _, _ = tcp_federation(hospitals, cfg.arch(3), cfg.fed_config(),
                                 cfg.train_config(cfg.local_epochs))
    _check("fed-lr-tcp-params", hashlib.sha256(state.global_params.tobytes()).hexdigest())
