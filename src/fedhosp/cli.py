"""Command-line front end.

Subcommands:

    generate   synthetic episodes -> measurements.csv + labels.csv
    extract    episode CSVs -> one feature-matrix CSV
    train      run one experiment (central or federated), write report JSON
    compare    run all four {lr,mlp} x {central,federated} cells
    serve      federation server over TCP
    worker     one hospital process connecting to a server

Every flag has a config-file equivalent: pass ``--config FILE`` pointing at
a flat JSON object whose keys are the flag names with underscores
(``{"n_episodes": 200, "seed": 7}``); explicit flags win over the file.
Exit codes: 0 success, 1 runtime failure, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from .data import SyntheticConfig, generate, load_episodes, save_episodes, split_train_test
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    federation_report,
    format_comparison,
    run_comparison,
    run_experiment,
    write_report,
)
from .features import STATS_PER_VARIABLE, extract, feature_names, fit_scaler, transform
from .federation import (
    FedConfig,
    HospitalDataset,
    run_server_rounds,
    wait_for_registrations,
    worker_loop,
)
from .models import ModelArch, TrainConfig
from .transport import TcpTransport, TransportError, worker_connect

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} must hold a flat JSON object")
    return config


def _merged_options(args: argparse.Namespace, defaults: dict, required=()) -> dict:
    """defaults < config file < explicit flags; unknown config keys rejected."""
    config = _load_config_file(getattr(args, "config", None))
    unknown = set(config) - set(defaults)
    if unknown:
        raise UsageError(
            f"unknown config keys {sorted(unknown)}; valid keys: {sorted(defaults)}"
        )
    cli = {
        k: v for k, v in vars(args).items()
        if k in defaults and v is not None
    }
    merged = {**defaults, **config, **cli}
    missing = [k for k in required if merged.get(k) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(sorted(missing))}")
    return merged


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise UsageError(f"endpoint must look like HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise UsageError(f"invalid port in {text!r}") from None


def _variable_list(episodes, csv_arg: str | None) -> tuple[str, ...]:
    if csv_arg:
        return tuple(name.strip() for name in csv_arg.split(",") if name.strip())
    observed = sorted({var for ep in episodes for var in ep.series})
    if not observed:
        raise UsageError("episodes carry no measurements and no --variables given")
    return tuple(observed)


# --------------------------------------------------------------------------
# subcommands


_CONFIG_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
# option name -> ExperimentConfig field, where the two differ
_CONFIG_FIELD = {"variables": "n_variables", "hospitals": "n_hospitals"}


def _defaults(*from_config: str, **own) -> dict:
    """Option defaults: ExperimentConfig's for ``from_config``, plus ``own``."""
    return {**{k: _CONFIG_DEFAULTS[_CONFIG_FIELD.get(k, k)] for k in from_config}, **own}


_GENERATE_DEFAULTS = _defaults(
    "variables", "prevalence", "effect_size", "points_min", "points_max", "seed",
    episodes=None, out=None,
)


def cmd_generate(args) -> int:
    opts = _merged_options(args, _GENERATE_DEFAULTS, required=("episodes", "out"))
    episodes = generate(SyntheticConfig(
        n_episodes=opts["episodes"], n_variables=opts["variables"],
        prevalence=opts["prevalence"], effect_size=opts["effect_size"],
        points_per_variable=(opts["points_min"], opts["points_max"]),
        seed=opts["seed"],
    ))
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_episodes(episodes, out / "measurements.csv", out / "labels.csv")
    print(f"wrote {len(episodes)} episodes to {out}/measurements.csv and {out}/labels.csv")
    return 0


_EXTRACT_DEFAULTS = {"data": None, "out": None, "variables": ""}


def cmd_extract(args) -> int:
    opts = _merged_options(args, _EXTRACT_DEFAULTS, required=("data", "out"))
    data = Path(opts["data"])
    episodes = load_episodes(data / "measurements.csv", data / "labels.csv")
    variables = _variable_list(episodes, opts["variables"])
    matrix = extract(episodes, variables)
    out = Path(opts["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["episode_id", "label", *feature_names(variables)])
        for eid, label, row in zip(matrix.episode_ids, matrix.labels, matrix.rows):
            writer.writerow([eid, int(label), *(repr(v) for v in row)])
    print(f"wrote {matrix.rows.shape[0]} x {matrix.rows.shape[1]} feature matrix to {out}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    opts = _merged_options(args, _CONFIG_DEFAULTS)
    return ExperimentConfig(**opts)


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    report = run_experiment(cfg)
    m = report["metrics"]
    print(f"{cfg.model}-{cfg.mode}: "
          f"auroc={m['auroc']:.4f} auprc={m['auprc']:.4f} accuracy={m['accuracy']:.4f}")
    if cfg.out_dir:
        print(f"report written to {Path(cfg.out_dir) / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    cfg = _experiment_config(args)
    report = run_comparison(cfg)
    print(format_comparison(report))
    if cfg.out_dir:
        print(f"report written to {Path(cfg.out_dir) / 'comparison.json'}")
    return 0


_SERVE_DEFAULTS = _defaults(
    "model", "variables", "hidden_dim", "hospitals", "rounds", "cohort_fraction",
    "gate_enabled", "gate_metric", "seed", listen=None, out="",
)


def cmd_serve(args) -> int:
    opts = _merged_options(args, _SERVE_DEFAULTS, required=("listen",))
    host, port = _parse_endpoint(opts["listen"])
    arch = ModelArch(opts["model"], input_dim=STATS_PER_VARIABLE * opts["variables"],
                     hidden_dim=opts["hidden_dim"])
    fed_cfg = FedConfig(
        n_hospitals=opts["hospitals"], rounds=opts["rounds"],
        cohort_fraction=opts["cohort_fraction"], gate_enabled=opts["gate_enabled"],
        gate_metric=opts["gate_metric"], seed=opts["seed"],
    )
    transport = TcpTransport(host, port)
    listener = transport.listen()
    print(f"listening on {host}:{transport.port}, waiting for "
          f"{fed_cfg.n_hospitals} hospital(s)", flush=True)
    try:
        workers = wait_for_registrations(listener, range(1, fed_cfg.n_hospitals + 1))
        state, _ = run_server_rounds(workers, arch, fed_cfg)
        for w in workers.values():
            w.conn.close()
    finally:
        listener.close()
    print(f"finished {state.round} rounds; best {fed_cfg.gate_metric} "
          f"{state.best_accuracy:.4f} "
          f"({sum(r.committed for r in state.history)} committed)")
    if opts["out"]:
        report = {"schema_version": 1, "config": {k: opts[k] for k in sorted(opts)},
                  **federation_report(state)}
        write_report(report, Path(opts["out"]) / "report.json")
        print(f"report written to {Path(opts['out']) / 'report.json'}")
    return 0


_WORKER_DEFAULTS = _defaults(
    "model", "hidden_dim", "test_fraction", "local_epochs", "batch_size", "learning_rate",
    "gate_metric", "seed", connect=None, id=None, shard=None, variables="",
)


def cmd_worker(args) -> int:
    opts = _merged_options(args, _WORKER_DEFAULTS, required=("connect", "id", "shard"))
    host, port = _parse_endpoint(opts["connect"])
    shard = Path(opts["shard"])
    episodes = load_episodes(shard / "measurements.csv", shard / "labels.csv")
    variables = _variable_list(episodes, opts["variables"])
    train_eps, test_eps = split_train_test(episodes, opts["test_fraction"], opts["seed"] + 1)
    train_fm = extract(train_eps, variables)
    test_fm = extract(test_eps, variables)
    scaler = fit_scaler(train_fm.rows)
    hospital = HospitalDataset(
        hospital_id=opts["id"],
        train_x=transform(scaler, train_fm.rows), train_y=train_fm.labels,
        test_x=transform(scaler, test_fm.rows), test_y=test_fm.labels,
    )
    arch = ModelArch(opts["model"], input_dim=STATS_PER_VARIABLE * len(variables),
                     hidden_dim=opts["hidden_dim"])
    train_cfg = TrainConfig(epochs=opts["local_epochs"], seed=opts["seed"] + 4,
                            batch_size=opts["batch_size"], lr=opts["learning_rate"])
    conn = worker_connect(host, port)
    print(f"hospital {hospital.hospital_id}: connected to {host}:{port} "
          f"({hospital.n_train} train / {hospital.n_test} test rows)", flush=True)
    worker_loop(conn, hospital, arch, train_cfg, opts["gate_metric"])
    print(f"hospital {hospital.hospital_id}: session complete")
    return 0


# --------------------------------------------------------------------------
# parser


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat JSON file supplying any of this command's options")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedhosp",
        description="Federated training simulator for in-hospital mortality models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic episode CSVs")
    _add_config_flag(p)
    p.add_argument("--episodes", type=int)
    p.add_argument("--variables", type=int, help="number of vital-sign variables")
    p.add_argument("--prevalence", type=float)
    p.add_argument("--effect-size", type=float, dest="effect_size")
    p.add_argument("--points-min", type=int, dest="points_min")
    p.add_argument("--points-max", type=int, dest="points_max")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("extract", help="episodes -> feature-matrix CSV")
    _add_config_flag(p)
    p.add_argument("--data", help="directory with measurements.csv and labels.csv")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--variables", help="comma-separated variable names (default: observed)")
    p.set_defaults(func=cmd_extract)

    for name, func, blurb in (
        ("train", cmd_train, "run one experiment and report metrics"),
        ("compare", cmd_compare, "run all four model x mode cells"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_config_flag(p)
        p.add_argument("--model", choices=["lr", "mlp"])
        p.add_argument("--mode", choices=["central", "federated"])
        p.add_argument("--data-dir", dest="data_dir")
        p.add_argument("--episodes", type=int, dest="n_episodes")
        p.add_argument("--variables", type=int, dest="n_variables")
        p.add_argument("--prevalence", type=float)
        p.add_argument("--effect-size", type=float, dest="effect_size")
        p.add_argument("--points-min", type=int, dest="points_min")
        p.add_argument("--points-max", type=int, dest="points_max")
        p.add_argument("--test-fraction", type=float, dest="test_fraction")
        p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--learning-rate", type=float, dest="learning_rate")
        p.add_argument("--hospitals", type=int, dest="n_hospitals")
        p.add_argument("--rounds", type=int)
        p.add_argument("--local-epochs", type=int, dest="local_epochs")
        p.add_argument("--cohort-fraction", type=float, dest="cohort_fraction")
        p.add_argument("--gate", dest="gate_enabled", action="store_true", default=None)
        p.add_argument("--no-gate", dest="gate_enabled", action="store_false", default=None)
        p.add_argument("--gate-metric", choices=["accuracy", "auroc"], dest="gate_metric")
        p.add_argument("--partition", choices=["equal_iid", "label_skew"],
                       dest="partition_strategy")
        p.add_argument("--skew-alpha", type=float, dest="skew_alpha")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="out_dir", help="directory for the report JSON")
        p.set_defaults(func=func)

    p = sub.add_parser("serve", help="federation server over TCP")
    _add_config_flag(p)
    p.add_argument("--listen", metavar="HOST:PORT")
    p.add_argument("--model", choices=["lr", "mlp"])
    p.add_argument("--variables", type=int, help="number of variables (fixes input width)")
    p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    p.add_argument("--hospitals", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--cohort-fraction", type=float, dest="cohort_fraction")
    p.add_argument("--gate", dest="gate_enabled", action="store_true", default=None)
    p.add_argument("--no-gate", dest="gate_enabled", action="store_false", default=None)
    p.add_argument("--gate-metric", choices=["accuracy", "auroc"], dest="gate_metric")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="directory for the final report JSON")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("worker", help="one hospital process")
    _add_config_flag(p)
    p.add_argument("--connect", metavar="HOST:PORT")
    p.add_argument("--id", type=int, help="hospital id (1-based, unique per server)")
    p.add_argument("--shard", help="directory with this hospital's episode CSVs")
    p.add_argument("--model", choices=["lr", "mlp"])
    p.add_argument("--variables", help="comma-separated variable names (default: observed)")
    p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--local-epochs", type=int, dest="local_epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--gate-metric", choices=["accuracy", "auroc"], dest="gate_metric")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_worker)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, TransportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
