"""Command-line front end.

Subcommands:

    generate   synthetic episodes -> measurements.csv + labels.csv
    extract    episode CSVs -> features.csv, one feature-matrix CSV
    train      run one experiment (central or federated), write report JSON
    compare    run all four {lr,mlp} x {central,federated} cells
    serve      federation server over TCP
    worker     one hospital process connecting to a server

The library returns reports as values. ``write_report`` alone writes one: train,
compare and serve each give it their report's file name, and it writes the file
into the ``--out`` directory (``""`` is the working directory) and prints its
path. Without ``--out`` they write no file.

Every option has a config-file equivalent: pass ``--config FILE`` pointing at
a flat JSON object (``{"n_episodes": 200, "seed": 7}``); explicit flags win
over the file. In every command a key is the ExperimentConfig field its flag
sets, or the option's name for an option that sets no field (``out_dir``,
``listen``, ``connect``, ``id`` and ``variable_names``); no flag means two
things. A key's flag is its name, except ``n_episodes`` (--episodes),
``n_variables`` (--variables), ``n_hospitals`` (--hospitals),
``partition_strategy`` (--partition), ``out_dir`` (--out) and ``gate_enabled``
(--gate/--no-gate). Every command checks every value through ExperimentConfig, and
refuses an ``--out`` under a non-directory or whose output file is a directory, before any stage.
Exit codes: 0 success; 2 from option checks, UsageError or FederationConfigError; else 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from .checks import check_type
from .data import generate, save_episodes
from .experiment import (
    CHOICES,
    ExperimentConfig,
    ExperimentError,
    federation_report,
    format_comparison,
    load_data,
    prepare,
    report_header,
    run_comparison,
    run_experiment,
    stage,
)
from .features import extract, feature_names
from .federation import (
    FederationConfigError,
    check_gate_labels,
    run_server_rounds,
    wait_for_registrations,
    worker_loop,
)
from .transport import MAX_HOSPITAL_ID, TcpTransport, TransportError

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


def _parse_endpoint(opts: dict, name: str, lowest_port: int) -> tuple[str, int]:
    """The HOST:PORT of option ``name``; an error names its flag and config key."""
    text, option = opts[name], f"{_flag(name)} (config key {name!r})"
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise UsageError(f"{option} must look like HOST:PORT, got {text!r}")
    if not (port.isascii() and port.isdigit() and lowest_port <= int(port) <= 65535):
        raise UsageError(f"{option}: the port in {text!r} must be an integer in "
                         f"{lowest_port}-65535")
    return host, int(port)


def _variable_names(text: str | None) -> tuple[str, ...] | None:
    """--variable-names as names; None, for those observed, when it names none."""
    names = tuple(name.strip() for name in (text or "").split(",") if name.strip())
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"--variable-names (config key 'variable_names') names {name!r} "
                             "more than once")
    return names or None


# --------------------------------------------------------------------------
# options


_CONFIG_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_FIELD_TYPES = get_type_hints(ExperimentConfig)
# option -> flag, where the two differ
_FLAG = {"n_episodes": "--episodes", "n_variables": "--variables", "n_hospitals": "--hospitals",
         "partition_strategy": "--partition", "out_dir": "--out", "gate_enabled": "--gate"}
# command -> the files it writes into --out
_OUTPUTS = {"generate": ("measurements.csv", "labels.csv"), "extract": ("features.csv",),
            "train": ("report.json",), "compare": ("comparison.json",), "serve": ("report.json",)}


def _flag(name: str) -> str:
    """The flag of an option: ``_FLAG``'s, else its name with dashes."""
    return _FLAG.get(name, "--" + name.replace("_", "-"))


def _options(args: argparse.Namespace) -> tuple[ExperimentConfig, dict]:
    """Every option's value, checked: defaults < config file < explicit flags.

    Returns the ExperimentConfig built from the command's field options (its
    construction checks their types and ranges) and all options by name.
    """
    _, _, names, own, required = _COMMANDS[args.command]
    # ExperimentConfig's defaults, else None: a required option has none
    defaults = {n: None if n in required else _CONFIG_DEFAULTS.get(n) for n in (*names, *own)}
    config = _load_config_file(args.config)
    unknown = set(config) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys {sorted(unknown)}; valid keys: {sorted(defaults)}")
    cli = {k: v for k, v in vars(args).items() if k in defaults and v is not None}
    opts = {**defaults, **config, **cli}
    missing = [k for k in required if opts[k] is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(map(_flag, sorted(missing)))}")
    for name, kind in own.items():
        if opts[name] is not None:
            check_type(name, opts[name], kind)
    cfg = ExperimentConfig(**{n: opts[n] for n in names})
    if opts.get("out_dir") is not None:  # its nearest existing path must be a directory
        out = Path(opts["out_dir"])
        existing = next((p for p in (out, *out.parents) if p.exists()), Path.cwd())
        if not existing.is_dir():
            raise UsageError(f"--out (config key 'out_dir') names {opts['out_dir']!r}, but "
                             f"{str(existing)!r} is not a directory")
        for path in (out / name for name in _OUTPUTS[args.command]):
            if path.is_dir():
                raise UsageError(f"--out (config key 'out_dir'): the output file "
                                 f"{str(path)!r} is a directory")
    return cfg, opts


# --------------------------------------------------------------------------
# subcommands


def write_report(report: dict, out_dir: str | None, name: str) -> None:
    """Write ``report`` as sorted, indented JSON to ``out_dir/name``, making the
    directory, and print the path; nothing when ``out_dir`` is None.

    The report holds JSON values only (dicts, lists, tuples, str, int, finite
    float, bool, None): a numpy array or numpy integer raises TypeError, and a
    NaN or infinite float ValueError.
    """
    if out_dir is None:
        return
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"report written to {path}")


def cmd_generate(cfg: ExperimentConfig, opts: dict) -> int:
    points = generate(cfg.synthetic())
    measurements, labels = (Path(opts["out_dir"]) / name for name in _OUTPUTS["generate"])
    save_episodes(points, measurements, labels)
    print(f"wrote {len(points)} episodes to {measurements} and {labels}")
    return 0


def cmd_extract(cfg: ExperimentConfig, opts: dict) -> int:
    variables = _variable_names(opts["variable_names"])  # outside the stage: a usage error
    with stage("feature"):  # load_data's own data-stage error passes through
        matrix = extract(*load_data(cfg, variables))
    out = Path(opts["out_dir"]) / _OUTPUTS["extract"][0]
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["episode_id", "label", *feature_names(matrix.variables)])
        for eid, label, row in zip(matrix.episode_ids, matrix.labels, matrix.rows):
            writer.writerow([eid, int(label), *(repr(v) for v in row.tolist())])
    print(f"wrote {matrix.rows.shape[0]} x {matrix.rows.shape[1]} feature matrix to {out}")
    return 0


def cmd_train(cfg: ExperimentConfig, opts: dict) -> int:
    report = run_experiment(cfg)
    m = report["metrics"]
    print(f"{cfg.model}-{cfg.mode}: "
          f"auroc={m['auroc']:.4f} auprc={m['auprc']:.4f} accuracy={m['accuracy']:.4f}")
    write_report(report, opts["out_dir"], _OUTPUTS["train"][0])
    return 0


def cmd_compare(cfg: ExperimentConfig, opts: dict) -> int:
    report = run_comparison(cfg)
    print(format_comparison(report))
    write_report(report, opts["out_dir"], _OUTPUTS["compare"][0])
    return 0


def cmd_serve(cfg: ExperimentConfig, opts: dict) -> int:
    host, port = _parse_endpoint(opts, "listen", lowest_port=0)
    arch = cfg.arch(cfg.n_variables)
    fed_cfg = cfg.fed_config()
    transport = TcpTransport(host, port)
    listener = transport.listen()
    print(f"listening on {host}:{transport.port}, waiting for "
          f"{fed_cfg.n_hospitals} hospital(s)", flush=True)
    try:
        workers = wait_for_registrations(listener, range(1, fed_cfg.n_hospitals + 1))
        state, _ = run_server_rounds(workers, arch, fed_cfg)
    finally:
        listener.close()
    report = report_header(replace(cfg, mode="federated"))
    # The workers hold every setting serve does not take; it never learns them.
    taken = {"mode", *opts}
    report["config"] = {k: v if k in taken else None for k, v in report["config"].items()}
    fed = report["federation"] = federation_report(state, [workers[i] for i in sorted(workers)])
    # With the gate off every round commits, so the value kept is the last round's.
    print(f"finished {state.round} rounds; {'best' if cfg.gate_enabled else 'last'} gate value "
          f"{fed['best_accuracy']:.4f} ({fed['rounds_committed']} committed)")
    write_report(report, opts["out_dir"], _OUTPUTS["serve"][0])
    return 0


def cmd_worker(cfg: ExperimentConfig, opts: dict) -> int:
    host, port = _parse_endpoint(opts, "connect", lowest_port=1)
    if not 1 <= opts["id"] <= MAX_HOSPITAL_ID:
        raise UsageError(f"id must be >= 1 and <= {MAX_HOSPITAL_ID} (hospital ids are 1-based "
                         f"and a Register carries a u32), got {opts['id']}")
    data = prepare(cfg, _variable_names(opts["variable_names"]))
    hospital = data.as_hospital(opts["id"])
    try:
        check_gate_labels(hospital, cfg.gate_metric)
    except FederationConfigError as exc:
        raise UsageError(f"shard {cfg.data_dir}: {exc}") from None
    with stage("training"):
        arch = cfg.arch(len(data.variables))
    conn = TcpTransport(host, port).connect()
    print(f"hospital {hospital.hospital_id}: connected to {host}:{port} "
          f"({hospital.n_train} train / {hospital.n_test} test rows)", flush=True)
    worker_loop(conn, hospital, arch, cfg.train_config(cfg.local_epochs), cfg.gate_metric)
    print(f"hospital {hospital.hospital_id}: session complete")
    return 0


# --------------------------------------------------------------------------
# parser


# option -> what it sets: every ExperimentConfig field, then every other option
_HELP = {
    "model": "model kind", "mode": "central training or a federated simulation",
    "data_dir": "directory with measurements.csv and labels.csv, else synthetic episodes",
    "n_episodes": "number of synthetic episodes", "n_variables": "variables per episode",
    "prevalence": "share of synthetic episodes labelled positive",
    "effect_size": "how far synthetic positives drift from negatives",
    "points_min": "fewest measurements per synthetic series",
    "points_max": "most measurements per synthetic series",
    "test_fraction": "share of episodes held out for testing",
    "hidden_dim": "hidden units of the mlp", "epochs": "central training epochs",
    "batch_size": "training batch size", "learning_rate": "Adam learning rate",
    "n_hospitals": "hospitals in the federation", "rounds": "federation rounds",
    "local_epochs": "epochs each hospital trains per round",
    "cohort_fraction": "share of hospitals that train each round",
    "gate_enabled": "keep a round's model only if it scores at least the best so far",
    "gate_metric": "what the gate scores", "partition_strategy": "how rows split across hospitals",
    "skew_alpha": "Dirichlet alpha of label_skew (smaller: more skew)",
    "seed": "master seed", "config": "flat JSON file supplying any of this command's options",
    "out_dir": "directory the output files are written to",
    "variable_names": "comma-separated variable names, else those observed",
    "listen": "HOST:PORT to listen on (port 0: any free port)", "connect": "server HOST:PORT",
    "id": "hospital id (1-based, unique per server)",
}

# command -> (function, help, the ExperimentConfig fields it takes,
#             other options: name -> type, required options)
_COMMANDS = {
    "generate": (cmd_generate, "write synthetic episode CSVs",
                 ("n_episodes", "n_variables", "prevalence", "effect_size", "points_min",
                  "points_max", "seed"),
                 {"out_dir": str}, ("n_episodes", "out_dir")),
    "extract": (cmd_extract, "episodes -> feature-matrix CSV", ("data_dir",),
                {"out_dir": str, "variable_names": str}, ("data_dir", "out_dir")),
    "train": (cmd_train, "run one experiment and report metrics", tuple(_CONFIG_DEFAULTS),
              {"out_dir": str}, ()),
    "compare": (cmd_compare, "run all four model x mode cells", tuple(_CONFIG_DEFAULTS),
                {"out_dir": str}, ()),
    "serve": (cmd_serve, "federation server over TCP",
              ("model", "n_variables", "hidden_dim", "n_hospitals", "rounds", "cohort_fraction",
               "gate_enabled", "seed"),
              {"out_dir": str, "listen": str}, ("listen",)),
    "worker": (cmd_worker, "one hospital process",
               ("model", "data_dir", "hidden_dim", "test_fraction", "local_epochs",
                "batch_size", "learning_rate", "gate_metric", "seed"),
               {"connect": str, "id": int, "variable_names": str},
               ("connect", "id", "data_dir")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedhosp",
        description="Federated training simulator for in-hospital mortality models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, blurb, names, own, required) in _COMMANDS.items():
        p = sub.add_parser(command, help=blurb, allow_abbrev=False)  # no second spellings
        p.add_argument("--config", metavar="FILE", help=_help("config", None, False))
        for name in (*names, *own):
            # A field's flag is typed by its annotation; --gate also gives --no-gate.
            kind = _FIELD_TYPES[name] if name in names else own[name]
            typed = ({"action": argparse.BooleanOptionalAction} if kind is bool else
                     {"type": (get_args(kind) or (kind,))[0], "choices": CHOICES.get(name)})
            p.add_argument(_flag(name), dest=name, **typed,
                           help=_help(name, _CONFIG_DEFAULTS.get(name), name in required))
        p.set_defaults(func=func)
    return parser


def _help(name: str, default, required: bool) -> str:
    """One help line: what the option sets, then "required" or its default."""
    if required:  # a required option is never absent, so has no ", else ..."
        return f"{_HELP[name].partition(', else ')[0]} (required)"
    return f"{_HELP[name]} (default: {'none' if default is None else default})"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    checking = True
    try:
        cfg, opts = _options(args)
        checking = False
        return args.func(cfg, opts)
    except (ValueError, ExperimentError, TransportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if checking or isinstance(exc, (UsageError, FederationConfigError)) else 1


if __name__ == "__main__":
    sys.exit(main())
