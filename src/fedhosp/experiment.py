"""End-to-end experiment pipeline: data -> features -> training -> report.

Runs either centralized training (all rows pooled, one scaler) or a
federated simulation (rows partitioned across hospitals, each hospital
scaling with its own local extremes so raw values never pool anywhere).
A single master seed fans out into fixed per-stage seeds, so a report is
reproducible from its config echo alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import (
    PartitionPlan,
    SyntheticConfig,
    generate,
    load_episodes,
    partition,
    split_train_test,
    variable_names,
)
from .features import STATS_PER_VARIABLE, extract, fit_scaler, transform
from .federation import (
    FedConfig,
    FederationConfigError,
    FederationState,
    HospitalDataset,
    run_federation,
)
from .metrics import evaluate
from .models import ModelArch, TrainConfig, forward, init_params, train

__all__ = ["ExperimentConfig", "ExperimentError", "run_experiment",
           "run_comparison", "format_comparison", "federation_report", "write_report"]

REPORT_SCHEMA_VERSION = 1

MODELS = ("lr", "mlp")
MODES = ("central", "federated")


class ExperimentError(RuntimeError):
    """A pipeline stage failed; the message says which one."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    Exactly one data source: ``data_dir`` (measurements.csv + labels.csv)
    or the synthetic generator (``n_episodes``). The master ``seed`` fans
    out as: data=seed, split=seed+1, partition=seed+2, init/federation=
    seed+3, training=seed+4.
    """

    model: str = "lr"
    mode: str = "central"
    # data source
    data_dir: str | None = None
    n_episodes: int = 2000
    n_variables: int = 7
    prevalence: float = 0.15
    effect_size: float = 1.0
    points_min: int = 4
    points_max: int = 12
    test_fraction: float = 0.2
    # model / training
    hidden_dim: int = 50
    epochs: int = 100
    batch_size: int = 8
    learning_rate: float = 1e-3
    # federation
    n_hospitals: int = 2
    rounds: int = 100
    local_epochs: int = 1
    cohort_fraction: float = 1.0
    gate_enabled: bool = True
    gate_metric: str = "accuracy"
    partition_strategy: str = "equal_iid"
    skew_alpha: float = 0.5
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _config_dict(cfg: ExperimentConfig) -> dict:
    """Config as recorded in reports: the experiment parameters only.

    ``out_dir`` names where the report lands, not what was computed, so it is
    left out — two runs of the same experiment produce byte-identical reports
    no matter where they are written.
    """
    fields = _jsonable(asdict(cfg))
    del fields["out_dir"]
    return fields


def _load_or_generate(cfg: ExperimentConfig):
    """Returns (episodes, ordered variable names)."""
    if cfg.data_dir is not None:
        data_dir = Path(cfg.data_dir)
        episodes = load_episodes(data_dir / "measurements.csv", data_dir / "labels.csv")
        variables = tuple(sorted({var for ep in episodes for var in ep.series}))
        if not variables:
            raise ValueError(f"no measurements found under {data_dir}")
        return episodes, variables
    synth = SyntheticConfig(
        n_episodes=cfg.n_episodes,
        n_variables=cfg.n_variables,
        prevalence=cfg.prevalence,
        effect_size=cfg.effect_size,
        points_per_variable=(cfg.points_min, cfg.points_max),
        seed=cfg.seed,
    )
    return generate(synth), variable_names(cfg.n_variables)


def _scaled_hospitals(raw: list[HospitalDataset]) -> list[HospitalDataset]:
    """Each hospital rescales with its own local training extremes."""
    scaled = []
    for h in raw:
        scaler = fit_scaler(h.train_x)
        scaled.append(HospitalDataset(
            hospital_id=h.hospital_id,
            train_x=transform(scaler, h.train_x), train_y=h.train_y,
            test_x=transform(scaler, h.test_x), test_y=h.test_y,
        ))
    return scaled


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured pipeline; returns (and optionally writes) the report."""
    try:
        episodes, variables = _load_or_generate(cfg)
    except Exception as exc:
        raise ExperimentError(f"data stage: {exc}") from exc

    try:
        train_eps, test_eps = split_train_test(episodes, cfg.test_fraction, cfg.seed + 1)
        train_fm = extract(train_eps, variables)
        test_fm = extract(test_eps, variables)
    except Exception as exc:
        raise ExperimentError(f"feature stage: {exc}") from exc

    arch = ModelArch(cfg.model, input_dim=STATS_PER_VARIABLE * len(variables),
                     hidden_dim=cfg.hidden_dim)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": _config_dict(cfg),
        "variables": list(variables),
        "arch": {"kind": arch.kind, "input_dim": arch.input_dim,
                 "hidden_dim": arch.hidden_dim if arch.kind == "mlp" else None,
                 "n_params": arch.n_params},
        "stage_seeds": {"data": cfg.seed, "split": cfg.seed + 1,
                        "partition": cfg.seed + 2, "init": cfg.seed + 3,
                        "train": cfg.seed + 4},
        "n_train_episodes": len(train_eps),
        "n_test_episodes": len(test_eps),
    }

    try:
        if cfg.mode == "central":
            scaler = fit_scaler(train_fm.rows)
            x_train = transform(scaler, train_fm.rows)
            x_test = transform(scaler, test_fm.rows)
            params = train(
                arch, init_params(arch, cfg.seed + 3), x_train, train_fm.labels,
                TrainConfig(epochs=cfg.epochs, seed=cfg.seed + 4,
                            batch_size=cfg.batch_size, lr=cfg.learning_rate),
            )
            result = evaluate(forward(arch, params, x_test), test_fm.labels)
        else:
            plan = PartitionPlan(cfg.partition_strategy, cfg.n_hospitals,
                                 skew_alpha=cfg.skew_alpha, seed=cfg.seed + 2)
            hospitals = _scaled_hospitals(partition(
                train_fm.rows, train_fm.labels, test_fm.rows, test_fm.labels, plan,
            ))
            fed_cfg = FedConfig(
                n_hospitals=cfg.n_hospitals, rounds=cfg.rounds,
                local_epochs=cfg.local_epochs, cohort_fraction=cfg.cohort_fraction,
                gate_enabled=cfg.gate_enabled, gate_metric=cfg.gate_metric,
                seed=cfg.seed + 3,
            )
            train_cfg = TrainConfig(epochs=cfg.local_epochs, seed=cfg.seed + 4,
                                    batch_size=cfg.batch_size, lr=cfg.learning_rate)
            state, evals = run_federation(hospitals, arch, fed_cfg, train_cfg)
            result = evals[-1]
            report["federation"] = {
                **federation_report(state),
                "hospital_train_sizes": [h.n_train for h in hospitals],
                "hospital_test_sizes": [h.n_test for h in hospitals],
                "eval_history": [_jsonable(asdict(e)) for e in evals],
            }
    except (ExperimentError, FederationConfigError):
        raise
    except Exception as exc:
        raise ExperimentError(f"training stage: {exc}") from exc

    report["metrics"] = {"auroc": result.auroc, "auprc": result.auprc,
                         "accuracy": result.accuracy, "n_test": result.n}
    if cfg.out_dir is not None:
        write_report(report, Path(cfg.out_dir) / "report.json")
    return report


def federation_report(state: FederationState) -> dict:
    """The gate's outcome: best metric, rounds committed and every round's record."""
    return {
        "best_accuracy": state.best_accuracy,
        "rounds_committed": sum(r.committed for r in state.history),
        "rounds": [_jsonable(asdict(r)) for r in state.history],
    }


def write_report(report: dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")


def run_comparison(cfg: ExperimentConfig) -> dict:
    """All four (model, mode) cells under one config; returns the combined report."""
    from dataclasses import replace

    cells = {}
    for model in MODELS:
        for mode in MODES:
            run = run_experiment(replace(cfg, model=model, mode=mode, out_dir=None))
            cells[f"{model}-{mode}"] = run["metrics"]
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": _config_dict(cfg),
        "cells": cells,
    }
    if cfg.out_dir is not None:
        write_report(report, Path(cfg.out_dir) / "comparison.json")
    return report


def format_comparison(report: dict) -> str:
    """Plain-text table with one row per (model, mode) cell."""
    lines = [f"{'setup':<16}{'AUROC':>9}{'AUPRC':>9}{'accuracy':>10}"]
    for model in MODELS:
        for mode in MODES:
            m = report["cells"][f"{model}-{mode}"]
            lines.append(
                f"{model + '-' + mode:<16}{m['auroc']:>9.4f}{m['auprc']:>9.4f}"
                f"{m['accuracy']:>10.4f}"
            )
    return "\n".join(lines)
