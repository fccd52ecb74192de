"""End-to-end experiment pipeline: data -> features -> training -> report.

Runs either centralized training (all rows pooled, one scaler) or a
federated simulation (rows partitioned across hospitals, each hospital
scaling with its own local extremes so raw values never pool anywhere).
``prepare`` runs the stages every cell shares (data, split, features) and
``fit`` trains and evaluates one (model, mode) cell on them, so a comparison
prepares its data once. A single master seed fans out into fixed per-stage
seeds, so a report is reproducible from its config echo alone. Reports are
returned as values; this module writes no file (the command line does).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .checks import check_fields
from .data import (
    PARTITION_STRATEGIES,
    HospitalDataset,
    PartitionPlan,
    SyntheticConfig,
    generate,
    load_episodes,
    partition,
    split_train_test,
)
from .features import STATS_PER_VARIABLE, FeatureMatrix, Points, extract, fit_scaler, transform
from .federation import (
    GATE_METRICS,
    FedConfig,
    FederationConfigError,
    FederationState,
    run_federation,
)
from .metrics import evaluate
from .models import MODEL_KINDS, ModelArch, TrainConfig, forward, init_params, train

__all__ = ["ExperimentConfig", "ExperimentError", "Prepared", "stage", "load_data",
           "prepare", "fit", "run_experiment", "run_comparison", "format_comparison",
           "report_header", "federation_report", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 1

MODES = ("central", "federated")
# ExperimentConfig fields whose value must be one of a fixed set: its checks, the flags' choices
CHOICES = {"model": MODEL_KINDS, "mode": MODES, "gate_metric": tuple(GATE_METRICS),
           "partition_strategy": PARTITION_STRATEGIES}
# Each stage's seed is the master seed plus its offset.
SEED_OFFSETS = {"data": 0, "split": 1, "partition": 2, "init": 3, "train": 4}


class ExperimentError(RuntimeError):
    """A pipeline stage failed; the message says which one."""


@contextmanager
def stage(name: str):
    """Raise a failure of the block as an ExperimentError starting ``<name> stage:``;
    an ExperimentError (an inner stage's) or FederationConfigError passes through."""
    try:
        yield
    except (ExperimentError, FederationConfigError):
        raise
    except Exception as exc:
        raise ExperimentError(f"{name} stage: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    Exactly one data source: ``data_dir`` (measurements.csv + labels.csv)
    or the synthetic generator (``n_episodes``). The master ``seed`` fans
    out to each stage's seed as ``SEED_OFFSETS`` says.

    Construction checks every field whatever the mode (its annotated type,
    then each ``CHOICES`` key and, by building every sub-config once, each
    range), so a bad value raises ValueError naming it before any stage runs.
    """

    model: str = "lr"
    mode: str = "central"
    # data source
    data_dir: str | None = None
    n_episodes: int = 2000
    n_variables: int = SyntheticConfig.n_variables
    prevalence: float = SyntheticConfig.prevalence
    effect_size: float = SyntheticConfig.effect_size
    points_min: int = SyntheticConfig.points_min
    points_max: int = SyntheticConfig.points_max
    test_fraction: float = 0.2
    # model / training
    hidden_dim: int = ModelArch.hidden_dim
    epochs: int = 100
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    # federation
    n_hospitals: int = 2
    rounds: int = 100
    local_epochs: int = FedConfig.local_epochs
    cohort_fraction: float = FedConfig.cohort_fraction
    gate_enabled: bool = FedConfig.gate_enabled
    gate_metric: str = FedConfig.gate_metric
    partition_strategy: str = "equal_iid"
    skew_alpha: float = PartitionPlan.skew_alpha
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, seed=0, **CHOICES)
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie strictly in (0,1), got {self.test_fraction}")
        self.synthetic()
        self.partition_plan()
        self.fed_config()
        self.train_config(self.epochs)
        self.train_config(self.local_epochs)
        self.arch(self.n_variables)

    @property
    def stage_seeds(self) -> dict[str, int]:
        return {stage: self.seed + offset for stage, offset in SEED_OFFSETS.items()}

    def synthetic(self) -> SyntheticConfig:
        return SyntheticConfig(self.n_episodes, self.n_variables, self.prevalence,
                               self.effect_size, self.points_min, self.points_max,
                               seed=self.stage_seeds["data"])

    def partition_plan(self) -> PartitionPlan:
        return PartitionPlan(self.partition_strategy, self.n_hospitals, self.skew_alpha,
                             seed=self.stage_seeds["partition"])

    def fed_config(self) -> FedConfig:
        return FedConfig(self.n_hospitals, self.rounds, self.local_epochs,
                         self.cohort_fraction, self.gate_enabled, self.gate_metric,
                         seed=self.stage_seeds["init"])

    def train_config(self, epochs: int) -> TrainConfig:
        return TrainConfig(epochs=epochs, seed=self.stage_seeds["train"],
                           batch_size=self.batch_size, learning_rate=self.learning_rate)

    def arch(self, n_variables: int) -> ModelArch:
        return ModelArch(self.model, input_dim=STATS_PER_VARIABLE * n_variables,
                         hidden_dim=self.hidden_dim)


def report_header(cfg: ExperimentConfig) -> dict:
    """What every report starts with: the schema version and ``config``, every
    ExperimentConfig field."""
    return {"schema_version": REPORT_SCHEMA_VERSION, "config": asdict(cfg)}


def load_data(cfg: ExperimentConfig,
              variables: tuple[str, ...] | None = None) -> tuple[Points, tuple[str, ...]]:
    """The data stage: (points, ordered variable names) of ``cfg.data_dir``'s
    CSV files, else of the synthetic generator; a failure is an ExperimentError.

    The names are ``variables`` if given, else the points' own. A given name
    that no point observes is kept, as a hospital may lack a variable the
    federation agreed on, and named in one warning on stderr, as its
    features are all zero.
    """
    with stage("data"):
        if cfg.data_dir is None:
            points, where = generate(cfg.synthetic()), "in the synthetic episodes"
        else:
            data_dir = Path(cfg.data_dir)
            points = load_episodes(data_dir / "measurements.csv", data_dir / "labels.csv")
            where = f"under {data_dir}"
        if not (variables or points.variables):
            raise ValueError(f"no measurements found {where}")
    if not variables:
        return points, points.variables
    observed = {points.variables[i] for i in np.unique(points.variable).tolist()}
    unobserved = [var for var in variables if var not in observed]
    if unobserved:
        print(f"warning: no measurements of {', '.join(unobserved)} {where}; "
              f"their features are all zero", file=sys.stderr)
    return points, variables


def _scaled_locally(h: HospitalDataset) -> HospitalDataset:
    """The hospital's rows rescaled with its own training extremes."""
    scaler = fit_scaler(h.train_x)
    return HospitalDataset(h.hospital_id, transform(scaler, h.train_x), h.train_y,
                           transform(scaler, h.test_x), h.test_y)


@dataclass(frozen=True)
class Prepared:
    """What every cell shares: the variables and unscaled feature rows."""

    variables: tuple[str, ...]
    train: FeatureMatrix
    test: FeatureMatrix

    def as_hospital(self, hospital_id: int) -> HospitalDataset:
        """Every row as one hospital's, scaled with their own training extremes."""
        return _scaled_locally(HospitalDataset(hospital_id, self.train.rows, self.train.labels,
                                              self.test.rows, self.test.labels))

    def hospitals(self, plan: PartitionPlan) -> list[HospitalDataset]:
        """The rows dealt to hospitals 1..K by ``plan``, each hospital scaled
        with its own training extremes, so raw values never pool anywhere."""
        return [_scaled_locally(h) for h in partition(
            self.train.rows, self.train.labels, self.test.rows, self.test.labels, plan)]


def prepare(cfg: ExperimentConfig, variables: tuple[str, ...] | None = None) -> Prepared:
    """Data (see ``load_data``), split and feature stages; model and mode play no part.

    The data stay in ``Points`` from ``load_data`` to the feature rows.
    """
    points, variables = load_data(cfg, variables)
    with stage("feature"):
        sides = split_train_test(points, cfg.test_fraction, cfg.stage_seeds["split"])
        del points  # each side holds a copy of its points; free the whole set before extract
        return Prepared(variables, *(extract(side, variables) for side in sides))


def fit(cfg: ExperimentConfig, data: Prepared) -> dict:
    """Train and evaluate ``cfg``'s (model, mode) cell on ``data``; returns its report."""
    with stage("training"):
        arch = cfg.arch(len(data.variables))
        report = {
            **report_header(cfg),
            "variables": list(data.variables),
            "arch": {"kind": arch.kind, "input_dim": arch.input_dim,
                     "hidden_dim": arch.hidden_dim if arch.kind == "mlp" else None,
                     "n_params": arch.n_params},
            "stage_seeds": cfg.stage_seeds,
            "n_train_episodes": len(data.train.episode_ids),
            "n_test_episodes": len(data.test.episode_ids),
        }
        if cfg.mode == "central":
            pooled = data.as_hospital(0)
            params = train(arch, init_params(arch, cfg.stage_seeds["init"]), pooled.train_x,
                           pooled.train_y, cfg.train_config(cfg.epochs))
            result = evaluate(forward(arch, params, pooled.test_x), pooled.test_y)
        else:
            hospitals = data.hospitals(cfg.partition_plan())
            state, evals = run_federation(hospitals, arch, cfg.fed_config(),
                                          cfg.train_config(cfg.local_epochs))
            result = evals[-1]
            report["federation"] = {**federation_report(state, hospitals),
                                    "eval_history": [asdict(e) for e in evals]}

    report["metrics"] = {"auroc": result.auroc, "auprc": result.auprc,
                         "accuracy": result.accuracy, "n_test": result.n}
    return report


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured pipeline; returns the report."""
    return fit(cfg, prepare(cfg))


def federation_report(state: FederationState, hospitals) -> dict:
    """A report's ``federation`` section: the gate's outcome, every round's
    record, and the train and test sizes of ``hospitals`` (anything with
    ``n_train`` and ``n_test``, in id order).

    ``best_accuracy`` is the last committed gate value: the best under the
    gate, and the last round's with the gate off, as every round then commits.
    """
    return {
        "best_accuracy": state.best_accuracy,
        "rounds_committed": sum(r.committed for r in state.history),
        "rounds": [asdict(r) for r in state.history],
        "hospital_train_sizes": [h.n_train for h in hospitals],
        "hospital_test_sizes": [h.n_test for h in hospitals],
    }


def run_comparison(cfg: ExperimentConfig) -> dict:
    """All four (model, mode) cells on data prepared once; returns the combined report."""
    data = prepare(cfg)
    cells = {
        f"{model}-{mode}": fit(replace(cfg, model=model, mode=mode), data)["metrics"]
        for model in MODEL_KINDS for mode in MODES
    }
    return {**report_header(cfg), "cells": cells}


def format_comparison(report: dict) -> str:
    """Plain-text table with one row per cell of ``report``, in its order."""
    lines = [f"{'setup':<16}{'AUROC':>9}{'AUPRC':>9}{'accuracy':>10}"]
    lines += [f"{cell:<16}{m['auroc']:>9.4f}{m['auprc']:>9.4f}{m['accuracy']:>10.4f}"
              for cell, m in report["cells"].items()]
    return "\n".join(lines)
