"""Per-module metrics from a traced sample.

``install`` wraps the public functions of fedhosp's modules under the names
their callers look them up by, so the spans cover the calls the workloads
really make. ``metrics`` turns the spans into the per-layer metrics named in
BENCHMARK.json. Every workload reports every metric; a layer a workload does
not exercise reads 0 there.

Modules are the package's own: data, features, models, metrics, federation,
transport and experiment. ``cli`` is an argparse shell and is not traced.
"""

from __future__ import annotations

import statistics

MODULES = ("data", "features", "models", "metrics", "federation", "transport",
           "experiment")


def _rows(index):
    return lambda args, result: len(args[index])


def _n_result(args, result):
    return len(result)


def _n_extracted(args, result):
    return result.rows.shape[0]


# (module whose namespace the caller looks the name up in, name,
#  module the code belongs to, keep every span?, size of one call)
TRACED = [
    # data
    ("data", "generate", "data", True, _n_result),
    ("data", "save_episodes", "data", True, None),
    ("data", "split_train_test", "data", False, None),
    ("data", "partition", "data", False, None),
    ("experiment", "load_episodes", "data", True, _n_result),
    ("experiment", "split_train_test", "data", False, None),
    # features
    ("features", "extract", "features", True, _n_extracted),
    ("experiment", "extract", "features", True, _n_extracted),
    ("features", "slice_windows", "features", False, None),
    ("features", "window_stats", "features", False, None),
    ("features", "fit_scaler", "features", False, None),
    ("features", "transform", "features", False, None),
    ("experiment", "fit_scaler", "features", False, None),
    ("experiment", "transform", "features", False, None),
    # models
    ("experiment", "train", "models", True, None),
    ("federation", "train", "models", False, None),
    ("models", "gradient", "models", False, None),
    ("models", "adam_step", "models", False, None),
    ("experiment", "forward", "models", False, _rows(2)),
    ("federation", "forward", "models", False, _rows(2)),
    ("experiment", "init_params", "models", False, None),
    ("federation", "init_params", "models", False, None),
    # metrics
    ("experiment", "evaluate", "metrics", False, _rows(0)),
    ("federation", "evaluate", "metrics", False, _rows(0)),
    ("federation", "accuracy", "metrics", False, _rows(0)),
    ("federation", "auroc", "metrics", False, _rows(0)),
    ("metrics", "auroc", "metrics", False, _rows(0)),
    ("metrics", "auprc", "metrics", False, _rows(0)),
    ("metrics", "accuracy", "metrics", False, _rows(0)),
    # federation
    ("federation", "run_federation", "federation", True, None),
    ("federation", "run_server_rounds", "federation", True, None),
    ("federation", "wait_for_registrations", "federation", True, None),
    ("federation", "worker_loop", "federation", True, None),
    ("federation", "select_cohort", "federation", True, None),
    ("federation", "local_update", "federation", True, None),
    ("federation", "local_test_accuracy", "federation", False, None),
    ("federation", "compute_weights", "federation", False, None),
    ("federation", "aggregate", "federation", False, None),
    ("federation", "weighted_accuracy", "federation", False, None),
    ("federation", "gate_and_commit", "federation", False, None),
    # transport
    ("transport", "encode", "transport", False, None),
    ("transport", "decode", "transport", False, None),
    # experiment
    ("experiment", "run_experiment", "experiment", True, None),
]

# Connection, listener and transport methods, wrapped on their classes.
TRACED_METHODS = [
    (cls, name)
    for cls in ("InProcessConnection", "TcpConnection")
    for name in ("send", "recv", "close")
] + [
    ("InProcessListener", "accept"), ("TcpListener", "accept"),
    ("InProcessTransport", "connect"), ("TcpTransport", "connect"),
    ("TcpTransport", "listen"),
]


def install(tracer) -> None:
    """Wrap every traced name; ``tracer.restore()`` undoes it."""
    import importlib

    for site, name, module, full, size in TRACED:
        owner = importlib.import_module(f"fedhosp.{site}")
        tracer.wrap(owner, name, f"{site}.{name}", module, full=full, size=size)
    transport = importlib.import_module("fedhosp.transport")
    for cls, name in TRACED_METHODS:
        tracer.wrap(getattr(transport, cls), name, f"transport.{cls}.{name}", "transport")


def _sum(aggs, labels, field):
    return sum(getattr(aggs[label], field) for label in labels if label in aggs)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def quantile(values, q: float) -> float:
    """q-quantile by the inclusive method; 0 for an empty sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# name -> unit; BENCHMARK.json lists the same names in the same order.
UNITS = {
    "data.generate_ms_per_1k_episodes": "ms/1k_episodes",
    "data.load_ms_per_1k_episodes": "ms/1k_episodes",
    "features.extract_ms_per_1k_episodes": "ms/1k_episodes",
    "features.window_stats_calls_per_episode": "calls/episode",
    "features.scale_ms": "ms",
    "models.steps": "count",
    "models.step_us": "us",
    "models.gradient_us": "us",
    "models.adam_us": "us",
    "models.train_overhead_us_per_step": "us",
    "models.forward_us_per_1k_rows": "us/1k_rows",
    "metrics.auroc_calls": "count",
    "metrics.auroc_us_per_1k_rows": "us/1k_rows",
    "metrics.evaluate_us_per_1k_rows": "us/1k_rows",
    "federation.rounds": "count",
    "federation.round_ms_p50": "ms",
    "federation.round_ms_p99": "ms",
    "federation.local_update_ms_p50": "ms",
    "federation.hospital_wait_share": "fraction",
    "federation.server_wait_share": "fraction",
    "federation.local_eval_us": "us",
    "federation.aggregate_us": "us",
    "federation.commit_ratio": "fraction",
    "federation.registration_ms": "ms",
    "transport.frames_per_round": "frames/round",
    "transport.wire_bytes_per_round": "B/round",
    "transport.encode_us_per_frame": "us",
    "transport.decode_us_per_frame": "us",
    "transport.send_us_per_frame": "us",
    "transport.errors": "count",
    "experiment.glue_ms": "ms",
    "experiment.train_ms": "ms",
    **{f"{m}.self_ms": "ms" for m in MODULES},
    **{f"{m}.self_cpu_ms": "ms" for m in MODULES},
    "trace.uncovered_ms": "ms",
    "trace.overhead_s": "s",
}


# The call each workload times; the root of the main thread's spans.
ROOTS = ["experiment.run_experiment", "federation.run_federation",
         "federation.run_server_rounds"]


def metrics(tracer, outcome: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample (without ``trace.overhead_s``)."""
    every = tracer.aggregates()
    timed = tracer.aggregates("timed")
    m: dict[str, float] = {}

    def mean_us(aggs, labels):
        return _per(_sum(aggs, labels, "wall"), _sum(aggs, labels, "calls"), 1e6)

    def per_1k(aggs, labels):
        return _per(_sum(aggs, labels, "wall"), _sum(aggs, labels, "size"), 1e3)

    # data and features: whole sample, since the federated workloads do this
    # work in set-up.
    m["data.generate_ms_per_1k_episodes"] = per_1k(every, ["data.generate"]) * 1e3
    m["data.load_ms_per_1k_episodes"] = per_1k(every, ["experiment.load_episodes"]) * 1e3
    extract = ["features.extract", "experiment.extract"]
    m["features.extract_ms_per_1k_episodes"] = per_1k(every, extract) * 1e3
    m["features.window_stats_calls_per_episode"] = _per(
        _sum(every, ["features.window_stats"], "calls"), _sum(every, extract, "size"))
    m["features.scale_ms"] = 1e3 * _sum(every, [
        "features.fit_scaler", "features.transform",
        "experiment.fit_scaler", "experiment.transform"], "wall")

    # models, metrics, federation and transport: the timed call only.
    steps = _sum(timed, ["models.adam_step"], "calls")
    train = ["experiment.train", "federation.train"]
    m["models.steps"] = steps
    m["models.step_us"] = _per(_sum(timed, train, "wall"), steps, 1e6)
    m["models.gradient_us"] = mean_us(timed, ["models.gradient"])
    m["models.adam_us"] = mean_us(timed, ["models.adam_step"])
    m["models.train_overhead_us_per_step"] = _per(_sum(timed, train, "self_wall"), steps, 1e6)
    m["models.forward_us_per_1k_rows"] = per_1k(
        timed, ["experiment.forward", "federation.forward"]) * 1e6

    auroc = ["federation.auroc", "metrics.auroc"]
    m["metrics.auroc_calls"] = _sum(timed, auroc, "calls")
    m["metrics.auroc_us_per_1k_rows"] = per_1k(timed, auroc) * 1e6
    m["metrics.evaluate_us_per_1k_rows"] = per_1k(
        timed, ["experiment.evaluate", "federation.evaluate"]) * 1e6

    rounds = outcome.get("rounds", 0)
    cohorts = tracer.spans("federation.select_cohort", "timed")
    servers = tracer.spans("federation.run_server_rounds", "timed")
    starts = [s.start for s in cohorts] + [s.start + s.wall for s in servers[-1:]]
    round_ms = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
    updates = tracer.spans("federation.local_update", "timed")
    m["federation.rounds"] = len(cohorts)
    m["federation.round_ms_p50"] = quantile(round_ms, 0.50)
    m["federation.round_ms_p99"] = quantile(round_ms, 0.99)
    m["federation.local_update_ms_p50"] = quantile([s.wall * 1e3 for s in updates], 0.50)
    m["federation.hospital_wait_share"] = 1.0 - _per(
        sum(s.cpu for s in updates), sum(s.wall for s in updates)) if updates else 0.0
    m["federation.server_wait_share"] = 1.0 - _per(
        sum(s.cpu for s in servers), sum(s.wall for s in servers)) if servers else 0.0
    m["federation.local_eval_us"] = mean_us(timed, ["federation.local_test_accuracy"])
    m["federation.aggregate_us"] = mean_us(timed, ["federation.aggregate"])
    m["federation.commit_ratio"] = outcome.get("commit_ratio", 0.0)
    m["federation.registration_ms"] = 1e3 * _sum(every, ["federation.wait_for_registrations"],
                                                 "wall")

    frames = _sum(every, ["transport.encode"], "calls")
    hospitals = outcome.get("hospitals", 0)
    # Registration and shutdown add one frame per hospital each, outside rounds.
    m["transport.frames_per_round"] = _per(frames - 2 * hospitals, rounds)
    m["transport.wire_bytes_per_round"] = outcome.get("wire_bytes_per_round", 0.0)
    m["transport.encode_us_per_frame"] = mean_us(timed, ["transport.encode"])
    m["transport.decode_us_per_frame"] = mean_us(timed, ["transport.decode"])
    m["transport.send_us_per_frame"] = mean_us(
        timed, ["transport.InProcessConnection.send", "transport.TcpConnection.send"])
    m["transport.errors"] = sum(a.errors for label, a in every.items()
                                if tracer.modules[label] == "transport")

    m["experiment.glue_ms"] = 1e3 * _sum(timed, ["experiment.run_experiment"], "self_wall")
    m["experiment.train_ms"] = 1e3 * _sum(timed, ["experiment.train"], "wall")

    self_times = tracer.self_time_by_module("timed")
    for module in MODULES:
        wall, cpu = self_times.get(module, (0.0, 0.0))
        m[f"{module}.self_ms"] = wall * 1e3
        m[f"{module}.self_cpu_ms"] = cpu * 1e3
    # Time inside the timed call that no traced child accounts for.
    m["trace.uncovered_ms"] = 1e3 * _sum(timed, ROOTS, "self_wall")
    return m


def count_mismatches(tracer, outcome: dict, m: dict[str, float]) -> list[str]:
    """Counts the traced sample made that differ from what its config implies."""
    frames = _sum(tracer.aggregates(), ["transport.encode"], "calls")
    rounds, hospitals = outcome["rounds"], outcome["hospitals"]
    problems = []
    if m["models.steps"] != outcome["steps"]:
        problems.append(f"{m['models.steps']} training steps, config implies {outcome['steps']}")
    if m["federation.rounds"] != rounds:
        problems.append(f"{m['federation.rounds']} rounds traced, config has {rounds}")
    expected_frames = (4 * rounds + 2) * hospitals
    if frames != expected_frames:
        problems.append(f"{frames} frames encoded, config implies {expected_frames}")
    if m["transport.errors"]:
        problems.append(f"{m['transport.errors']} transport calls raised")
    return problems
