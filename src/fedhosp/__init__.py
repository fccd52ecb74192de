"""Federated training simulator for in-hospital mortality prediction.

K simulated hospitals each hold a private shard of ICU-style episodes.
A server coordinates rounds of local training and dataset-size-weighted
parameter averaging, optionally gated so that only candidates matching the
best gate value so far (test accuracy or AUROC) are committed. The package
also ships the full supporting pipeline: a synthetic episode generator,
windowed-statistics feature extraction, from-scratch LR/MLP training with
Adam, AUROC/AUPRC metrics, and a binary wire protocol with in-process and
TCP transports.

Typical entry points: :func:`fedhosp.experiment.run_experiment` for whole
pipelines, :func:`fedhosp.federation.run_federation` for an in-process
federation over prepared hospital datasets, and the ``fedhosp`` command line.
"""

from .data import (
    DEFAULT_VARIABLES,
    HospitalDataset,
    PartitionPlan,
    SyntheticConfig,
    generate,
    load_episodes,
    partition,
    save_episodes,
    split_train_test,
)
from .experiment import ExperimentConfig, run_comparison, run_experiment
from .features import (
    Episode,
    FeatureMatrix,
    Points,
    Scaler,
    extract,
    fit_scaler,
    transform,
    window_stats,
)
from .federation import (
    FedConfig,
    FederationState,
    aggregate,
    compute_weights,
    gate_and_commit,
    run_federation,
    select_cohort,
)
from .metrics import EvalResult, accuracy, auprc, auroc, evaluate
from .models import AdamState, ModelArch, TrainConfig, adam_step, forward, init_params, train
from .transport import InProcessTransport, TcpTransport, decode, encode

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "DEFAULT_VARIABLES",
    "Episode",
    "EvalResult",
    "ExperimentConfig",
    "FeatureMatrix",
    "FedConfig",
    "FederationState",
    "HospitalDataset",
    "InProcessTransport",
    "ModelArch",
    "PartitionPlan",
    "Points",
    "Scaler",
    "SyntheticConfig",
    "TcpTransport",
    "TrainConfig",
    "accuracy",
    "adam_step",
    "aggregate",
    "auprc",
    "auroc",
    "compute_weights",
    "decode",
    "encode",
    "evaluate",
    "extract",
    "fit_scaler",
    "forward",
    "gate_and_commit",
    "generate",
    "init_params",
    "load_episodes",
    "partition",
    "run_comparison",
    "run_experiment",
    "run_federation",
    "save_episodes",
    "select_cohort",
    "split_train_test",
    "train",
    "transform",
    "window_stats",
]
