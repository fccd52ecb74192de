"""End-to-end experiment pipeline: data -> features -> training -> report.

Runs either centralized training (all rows pooled, one scaler) or a
federated simulation (rows partitioned across hospitals, each hospital
scaling with its own local extremes so raw values never pool anywhere).
``prepare`` runs the stages every cell shares (data, split, features) and
``fit`` trains and evaluates one (model, mode) cell on them, so a comparison
prepares its data once. A single master seed fans out into fixed per-stage
seeds, so a report is reproducible from its config echo alone.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import compress
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .data import (
    PARTITION_STRATEGIES,
    HospitalDataset,
    PartitionPlan,
    Points,
    SyntheticConfig,
    generate_points,
    load_points,
    partition,
    split_mask,
)
from .features import STATS_PER_VARIABLE, FeatureMatrix, extract_points, fit_scaler, transform
# Not called here: bench/layers.py wraps these names in this module's namespace,
# and tests/test_bench_trace.py checks that they stay defined.
from .data import load_episodes, split_train_test  # noqa: F401
from .features import extract  # noqa: F401
from .federation import (
    GATE_METRICS,
    FedConfig,
    FederationConfigError,
    FederationState,
    run_federation,
)
from .metrics import evaluate
from .models import ModelArch, TrainConfig, forward, init_params, train

__all__ = ["ExperimentConfig", "ExperimentError", "Prepared", "stage", "load_data",
           "prepare", "fit", "run_experiment", "run_comparison", "format_comparison",
           "report_header", "federation_report", "write_report", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 1

MODELS = ("lr", "mlp")
MODES = ("central", "federated")
# ExperimentConfig fields whose value must be one of a fixed set (flag choices)
CHOICES = {"model": MODELS, "mode": MODES, "gate_metric": GATE_METRICS,
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


def check_type(key: str, value, kind) -> None:
    """Raise ValueError naming ``key`` unless ``value`` is a ``kind`` as given;
    a bool counts only as a bool, an int also as a float."""
    kinds = get_args(kind) or (kind,)
    allowed = kinds + (int,) if float in kinds else kinds
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in kinds):
        raise ValueError(f"{key} must be {getattr(kind, '__name__', kind)}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    Exactly one data source: ``data_dir`` (measurements.csv + labels.csv)
    or the synthetic generator (``n_episodes``). The master ``seed`` fans
    out as ``SEED_OFFSETS`` says: data=seed, split=seed+1, partition=
    seed+2, init/federation=seed+3, training=seed+4.

    Construction checks every field whatever the mode (its annotated type,
    then the mode and, by building every sub-config once, each range and
    choice), so a bad value raises ValueError naming it before any stage runs.
    """

    model: str = "lr"
    mode: str = "central"
    # data source
    data_dir: str | None = None
    n_episodes: int = 2000
    n_variables: int = SyntheticConfig.n_variables
    prevalence: float = SyntheticConfig.prevalence
    effect_size: float = SyntheticConfig.effect_size
    points_min: int = SyntheticConfig.points_per_variable[0]
    points_max: int = SyntheticConfig.points_per_variable[1]
    test_fraction: float = 0.2
    # model / training
    hidden_dim: int = ModelArch.hidden_dim
    epochs: int = 100
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.lr
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
    out_dir: str | None = None

    def __post_init__(self) -> None:
        for key, kind in FIELD_TYPES.items():
            check_type(key, getattr(self, key), kind)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
                               self.effect_size, (self.points_min, self.points_max),
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
                           batch_size=self.batch_size, lr=self.learning_rate)

    def arch(self, n_variables: int) -> ModelArch:
        return ModelArch(self.model, input_dim=STATS_PER_VARIABLE * n_variables,
                         hidden_dim=self.hidden_dim)


FIELD_TYPES = get_type_hints(ExperimentConfig)


def report_header(cfg: ExperimentConfig) -> dict:
    """What every report starts with: the schema version and ``config``, the
    experiment parameters only.

    ``out_dir`` names where the report lands, not what was computed, so it is
    left out — two runs of the same experiment produce byte-identical reports
    no matter where they are written.
    """
    config = asdict(cfg)
    del config["out_dir"]
    return {"schema_version": REPORT_SCHEMA_VERSION, "config": config}


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
            points, where = generate_points(cfg.synthetic()), "in the synthetic episodes"
        else:
            data_dir = Path(cfg.data_dir)
            points = load_points(data_dir / "measurements.csv", data_dir / "labels.csv")
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


def _extract_points(points: Points, variables: tuple[str, ...],
                    take: np.ndarray | None = None) -> FeatureMatrix:
    """``extract``'s matrix of the episodes ``take`` marks (default: all) in ``points``."""
    if take is None:
        take = np.ones(len(points.episode_ids), dtype=bool)
    column = {var: i for i, var in enumerate(variables)}
    column_of = np.array([column.get(var, -1) for var in points.variables], dtype=np.intp)
    point_column = column_of[points.variable]
    keep = take[points.episode] & (point_column >= 0)
    row = np.cumsum(take) - 1
    key = row[points.episode[keep]] * len(variables) + point_column[keep]
    hour, value = points.hour[keep], points.value[keep]
    # A file lists each series in time order, so a stable sort by key alone is
    # usually enough; a series out of time order needs the full sort.
    order = np.argsort(key, kind="stable")
    if (np.diff(hour[order])[np.diff(key[order]) == 0] < 0).any():
        order = np.lexsort((hour, key))
    return extract_points(hour[order], value[order], key[order],
                          tuple(compress(points.episode_ids, take.tolist())),
                          points.labels[take], variables)


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

    The data stay in arrays from ``load_data``'s points to the feature rows:
    no Episode record is built.
    """
    points, variables = load_data(cfg, variables)
    with stage("feature"):
        is_test = split_mask(points.labels, cfg.test_fraction, cfg.stage_seeds["split"])
        return Prepared(variables, _extract_points(points, variables, ~is_test),
                        _extract_points(points, variables, is_test))


def fit(cfg: ExperimentConfig, data: Prepared) -> dict:
    """Train and evaluate ``cfg``'s (model, mode) cell on ``data``; returns its report."""
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

    with stage("training"):
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
            report["federation"] = {
                **federation_report(state),
                "hospital_train_sizes": [h.n_train for h in hospitals],
                "hospital_test_sizes": [h.n_test for h in hospitals],
                "eval_history": [asdict(e) for e in evals],
            }

    report["metrics"] = {"auroc": result.auroc, "auprc": result.auprc,
                         "accuracy": result.accuracy, "n_test": result.n}
    return report


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured pipeline; returns (and optionally writes) the report."""
    report = fit(cfg, prepare(cfg))
    if cfg.out_dir is not None:
        write_report(report, Path(cfg.out_dir) / "report.json")
    return report


def federation_report(state: FederationState) -> dict:
    """The gate's outcome: best metric, rounds committed and every round's record."""
    return {
        "best_accuracy": state.best_accuracy,
        "rounds_committed": sum(r.committed for r in state.history),
        "rounds": [asdict(r) for r in state.history],
    }


def write_report(report: dict, path) -> None:
    """Write ``report`` as sorted, indented JSON to ``path``, making its
    directory. The report holds JSON values only (dicts, lists, tuples, str,
    int, float, bool, None): a numpy array or numpy integer raises TypeError."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def run_comparison(cfg: ExperimentConfig) -> dict:
    """All four (model, mode) cells on data prepared once; returns the combined report."""
    data = prepare(cfg)
    cells = {
        f"{model}-{mode}": fit(replace(cfg, model=model, mode=mode), data)["metrics"]
        for model in MODELS for mode in MODES
    }
    report = {**report_header(cfg), "cells": cells}
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
