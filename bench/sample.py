"""One benchmark sample: set up a workload, time its call, check its outputs.

Run by ``bench/run.py`` in a fresh process per sample, so every sample pays
the same interpreter start, import and set-up cost a user would. Prints one
JSON object as its last line of standard output.

    python3 bench/sample.py --workload fed-mlp --seed 1 --trace 0 --scratch DIR

``--check inprocess`` (fed-lr-tcp only) runs the same federation over the
in-process transport instead, for the TCP equivalence check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Workload sizes. Each sample takes a few seconds, so one run of
# BENCHMARK.json's run_seconds holds several samples to take medians over.
# The effect sizes keep AUROC clear of 1.0 (at effect_size 1.0 every model
# scores 0.9999) while its spread across seeds stays near 1%; the fed-mlp
# accuracy gate commits models of erratic AUROC at smaller effects.
INGEST = dict(episodes=800, effect_size=0.4, test_fraction=0.5, epochs=50)
FED_MLP = dict(episodes=400, effect_size=0.5, test_fraction=0.5, hospitals=2,
               hidden_dim=50, rounds=120, local_epochs=1, batch_size=8,
               gate_metric="accuracy")
FED_LR_TCP = dict(episodes=400, effect_size=0.5, test_fraction=0.5, hospitals=2,
                  rounds=300, local_epochs=1, batch_size=8, gate_metric="auroc")
N_VARIABLES = 7
JOIN_TIMEOUT_S = 30.0


class CheckFailed(Exception):
    """An output of the program is not what the inputs and config imply."""


def import_program():
    """Import fedhosp from this checkout's ``src``, never from elsewhere."""
    init = SRC / "fedhosp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"program source not found: {init}")
    sys.path.insert(0, str(SRC))
    import fedhosp

    if Path(fedhosp.__file__).resolve() != init.resolve():
        raise SystemExit(f"imported fedhosp from {fedhosp.__file__}, expected {init}")


def stolen_s() -> float:
    """Seconds the hypervisor has held back the CPUs this process may run on.

    The ``steal`` column of ``/proc/stat``: time a virtual CPU was ready to
    run but the host ran something else. Pinned to one CPU, as ``run.py``
    pins every sample, the steal of that CPU during a call is wall time the
    call lost to other tenants of the host. 0 where the kernel reports none.
    """
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    ticks = 0
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] in cpus and len(fields) > 8:
                    ticks += int(fields[8])
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


# The host of a shared virtual machine slows its CPUs by up to 2.5x for
# stretches of seconds to minutes (other tenants on the same cores), so raw
# times of one workload spread by more than any useful bound. Each sample
# therefore times a fixed calibration workload right before and right after
# its timed call, and setup_s and wall_s are scaled to the calibration's
# speed on an uncontended CPU:
#     scaled = measured * reference / median(calibration passes).
# Contention slows interpreter-bound code (parsing, dict updates) about 2.5x
# where it slows small matrix products about 1.8x, so each workload is
# calibrated on the kind of work that dominates it: matrix products and
# vector updates as in one training step, plus interpreter work for the
# workloads in INTERPRETED.
CALIBRATION_PASSES = 40
INTERPRETED = {"ingest", "fed-lr-tcp"}
# Median seconds of one pass, without and with the interpreter work, on an
# uncontended CPU of the 2-vCPU x86-64 (Skylake-X, Python 3.11, numpy 2.4)
# virtual machine the benchmark was tuned on. They fix the scale of the
# scaled times, not their ratios.
CALIBRATION_REF_S = {False: 0.00075, True: 0.0015}


def calibration_passes(interpreted: bool) -> list[float]:
    """Seconds of each pass of the fixed calibration work."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 294))
    w = rng.standard_normal((294, 50))
    params = rng.standard_normal(14_801)
    moment = np.zeros_like(params)
    times = []
    for _ in range(CALIBRATION_PASSES):
        start = time.perf_counter()
        for _ in range(20):
            h = np.tanh(x @ w)
            x.T @ (1.0 - h * h)
        for _ in range(5):
            moment = 0.9 * moment + 0.1 * params
            params = params - 1e-3 * moment / (np.sqrt(moment * moment) + 1e-8)
        if interpreted:
            totals: dict[int, float] = {}
            for i in range(2_000):
                key = i % 97
                totals[key] = totals.get(key, 0.0) + float(str(i * 0.5)) ** 0.5
        times.append(time.perf_counter() - start)
    return times


class Clock:
    """Marks the end of set-up and times the call, net of steal.

    Calibration passes run between the two, and right after the call.
    """

    def __init__(self, interpreted: bool, tracer=None):
        self.interpreted = interpreted
        self.tracer = tracer
        self.setup_end_mono = None
        self.setup_end_stolen_s = None
        self.calibration = []
        self.start_perf = None
        self.stolen_s = None
        self.wall_s = None

    def __enter__(self):
        self.setup_end_mono = time.monotonic()
        self.setup_end_stolen_s = stolen_s()
        self.calibration += calibration_passes(self.interpreted)
        if self.tracer is not None:
            self.tracer.phase = "timed"
        start_stolen = stolen_s()
        self.start_perf = time.perf_counter()
        self.stolen_s = -start_stolen
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.start_perf
        self.stolen_s += stolen_s()
        self.wall_s = wall - self.stolen_s
        if self.tracer is not None:
            self.tracer.phase = "teardown"
        self.calibration += calibration_passes(self.interpreted)

    @property
    def speed(self) -> float:
        """Factor that scales this sample's times to an uncontended CPU."""
        return CALIBRATION_REF_S[self.interpreted] / statistics.median(self.calibration)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_quality(auroc: float) -> None:
    check(math.isfinite(auroc) and 0.0 <= auroc <= 1.0, f"AUROC {auroc!r} out of [0, 1]")


def steps_per_pass(n_rows: int, batch_size: int) -> int:
    return -(-n_rows // batch_size)


def frame_bytes(n_params: int) -> dict[str, int]:
    """Frame sizes from the documented wire format (4-byte prefix included)."""
    vec = 4 + 8 * n_params
    return {"register": 4 + 1 + 4 + 8 + 8,
            "broadcast": 4 + 1 + 4 + vec,
            "update": 4 + 1 + 4 + 4 + 8 + vec,
            "eval_request": 4 + 1 + 4 + vec,
            "eval_result": 4 + 1 + 4 + 4 + 8 + 8,
            "shutdown": 4 + 1}


def expected_wire_bytes(n_params: int, hospitals: int, rounds: int) -> int:
    f = frame_bytes(n_params)
    per_round = hospitals * (f["broadcast"] + f["update"] + f["eval_request"]
                             + f["eval_result"])
    return hospitals * (f["register"] + f["shutdown"]) + rounds * per_round


def check_federation(state, rounds: int) -> None:
    """Round count and the gate's promise: committed scores never fall."""
    check(len(state.history) == rounds == state.round,
          f"{len(state.history)} rounds recorded, {rounds} configured")
    committed = [r.candidate_accuracy for r in state.history if r.committed]
    check(bool(committed), "no round was committed")
    check(all(a <= b for a, b in zip(committed, committed[1:])),
          "a committed round scored below an earlier one")
    check(state.best_accuracy == committed[-1],
          "best_accuracy is not the last committed score")


# --------------------------------------------------------------------------
# workloads: each sets up from the seed, times one call, checks the outputs


def run_ingest(seed: int, scratch: Path, clock: Clock) -> dict:
    from fedhosp import data, experiment

    cfg = INGEST
    episodes = data.generate(data.SyntheticConfig(
        n_episodes=cfg["episodes"], n_variables=N_VARIABLES,
        effect_size=cfg["effect_size"], seed=seed))
    data.save_episodes(episodes, scratch / "measurements.csv", scratch / "labels.csv")
    del episodes
    exp_cfg = experiment.ExperimentConfig(
        model="lr", mode="central", data_dir=str(scratch), epochs=cfg["epochs"],
        test_fraction=cfg["test_fraction"], seed=seed)

    with clock:
        report = experiment.run_experiment(exp_cfg)

    n_train, n_test = report["n_train_episodes"], report["n_test_episodes"]
    check(n_train + n_test == cfg["episodes"],
          f"report covers {n_train + n_test} of {cfg['episodes']} episodes")
    check(report["metrics"]["n_test"] == n_test, "evaluated rows differ from the test split")
    check(report["arch"]["n_params"] == 42 * N_VARIABLES + 1, "unexpected LR size")
    auroc = report["metrics"]["auroc"]
    check_quality(auroc)
    # The report is the deterministic output; where its input lives is not.
    stable = dict(report, config={k: v for k, v in report["config"].items()
                                  if k != "data_dir"})
    digest = hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()
    return {"auroc": auroc, "digest": digest, "rounds": 0, "hospitals": 0,
            "steps": cfg["epochs"] * steps_per_pass(n_train, exp_cfg.batch_size)}


def prepare_hospitals(cfg: dict, seed: int):
    """Generate, split, extract, partition, and scale each hospital locally."""
    from fedhosp import data, features
    from fedhosp.federation import HospitalDataset

    episodes = data.generate(data.SyntheticConfig(
        n_episodes=cfg["episodes"], n_variables=N_VARIABLES,
        effect_size=cfg["effect_size"], seed=seed))
    train_eps, test_eps = data.split_train_test(episodes, cfg["test_fraction"], seed + 1)
    variables = data.variable_names(N_VARIABLES)
    train_fm = features.extract(train_eps, variables)
    test_fm = features.extract(test_eps, variables)
    raw = data.partition(train_fm.rows, train_fm.labels, test_fm.rows, test_fm.labels,
                         data.PartitionPlan("equal_iid", cfg["hospitals"], seed=seed + 2))
    hospitals = []
    for h in raw:
        scaler = features.fit_scaler(h.train_x)
        hospitals.append(HospitalDataset(
            hospital_id=h.hospital_id,
            train_x=features.transform(scaler, h.train_x), train_y=h.train_y,
            test_x=features.transform(scaler, h.test_x), test_y=h.test_y))
    return hospitals


def fed_configs(cfg: dict, seed: int, kind: str):
    from fedhosp.federation import FedConfig
    from fedhosp.models import ModelArch, TrainConfig

    arch = ModelArch(kind, input_dim=42 * N_VARIABLES, hidden_dim=cfg.get("hidden_dim", 50))
    fed_cfg = FedConfig(n_hospitals=cfg["hospitals"], rounds=cfg["rounds"],
                        local_epochs=cfg["local_epochs"], gate_enabled=True,
                        gate_metric=cfg["gate_metric"], seed=seed + 3)
    train_cfg = TrainConfig(epochs=cfg["local_epochs"], seed=seed + 4,
                            batch_size=cfg["batch_size"])
    return arch, fed_cfg, train_cfg


def fed_outcome(cfg: dict, hospitals, arch, state, wire_bytes: int, auroc: float) -> dict:
    check_federation(state, cfg["rounds"])
    check_quality(auroc)
    expected = expected_wire_bytes(arch.n_params, cfg["hospitals"], cfg["rounds"])
    check(wire_bytes == expected, f"{wire_bytes} wire bytes, the frame format implies {expected}")
    steps = cfg["rounds"] * cfg["local_epochs"] * sum(
        steps_per_pass(h.n_train, cfg["batch_size"]) for h in hospitals)
    return {"auroc": auroc, "digest": hashlib.sha256(state.global_params.tobytes()).hexdigest(),
            "rounds": cfg["rounds"], "hospitals": cfg["hospitals"], "steps": steps,
            "wire_bytes_per_round": wire_bytes / cfg["rounds"],
            "commit_ratio": sum(r.committed for r in state.history) / cfg["rounds"]}


def run_fed_mlp(seed: int, scratch: Path, clock: Clock) -> dict:
    from fedhosp import federation, transport

    cfg = FED_MLP
    hospitals = prepare_hospitals(cfg, seed)
    arch, fed_cfg, train_cfg = fed_configs(cfg, seed, "mlp")
    wire = transport.InProcessTransport()

    with clock:
        state, evals = federation.run_federation(hospitals, arch, fed_cfg, train_cfg, wire)

    check(len(evals) == cfg["rounds"], "one global evaluation per round expected")
    return fed_outcome(cfg, hospitals, arch, state, wire.total_wire_bytes, evals[-1].auroc)


def run_fed_lr_tcp(seed: int, scratch: Path, clock: Clock) -> dict:
    """Server rounds over loopback TCP; hospitals are worker_loop threads."""
    from fedhosp import federation, transport

    cfg = FED_LR_TCP
    hospitals = prepare_hospitals(cfg, seed)
    arch, fed_cfg, train_cfg = fed_configs(cfg, seed, "lr")
    worker_cfg = replace(train_cfg, epochs=fed_cfg.local_epochs)
    wire = transport.TcpTransport()
    listener = wire.listen()
    failures = []

    def hospital(h):
        try:
            conn = wire.connect()
        except Exception as exc:  # noqa: BLE001 - reported as a failed sample
            failures.append(exc)
            return
        try:
            federation.worker_loop(conn, h, arch, worker_cfg, fed_cfg.gate_metric)
        except Exception as exc:  # noqa: BLE001 - reported as a failed sample
            failures.append(exc)
            conn.close()

    threads = [threading.Thread(target=hospital, args=(h,), daemon=True,
                                name=f"hospital-{h.hospital_id}") for h in hospitals]
    for t in threads:
        t.start()
    stamps = []
    try:
        workers = federation.wait_for_registrations(listener, [h.hospital_id for h in hospitals])
        # The hook runs once per round after the gate decides; it is used
        # only as a timestamp.
        with clock:
            state, _ = federation.run_server_rounds(
                workers, arch, fed_cfg, lambda params: stamps.append(time.perf_counter()))
    finally:
        listener.close()
        for t in threads:
            t.join(JOIN_TIMEOUT_S)
    for w in workers.values():
        w.conn.close()
    check(not failures, f"hospital failed: {failures[:1]!r}")
    check(not any(t.is_alive() for t in threads), "a hospital thread did not stop")

    out = fed_outcome(cfg, hospitals, arch, state, wire.total_wire_bytes, state.best_accuracy)
    starts = [clock.start_perf] + stamps
    out["round_ms"] = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
    return out


def run_fed_lr_inprocess(seed: int) -> dict:
    """fed-lr-tcp's federation over the in-process transport, untimed."""
    from fedhosp import federation, transport

    cfg = FED_LR_TCP
    hospitals = prepare_hospitals(cfg, seed)
    arch, fed_cfg, train_cfg = fed_configs(cfg, seed, "lr")
    wire = transport.InProcessTransport()
    state, _ = federation.run_federation(hospitals, arch, fed_cfg, train_cfg, wire)
    return fed_outcome(cfg, hospitals, arch, state, wire.total_wire_bytes, state.best_accuracy)


def blas_context() -> dict:
    """numpy and OpenBLAS versions, OpenBLAS threads and CPUs in effect."""
    import ctypes

    import numpy as np

    record = {"numpy": np.__version__, "openblas": None, "blas_threads": None,
              "cpu_affinity": sorted(os.sched_getaffinity(0))}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            record.update(openblas=get_config().decode(), blas_threads=get_threads())
            return record
    return record


RUNNERS = {"ingest": run_ingest, "fed-mlp": run_fed_mlp, "fed-lr-tcp": run_fed_lr_tcp}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--check", choices=("inprocess",))
    args = parser.parse_args(argv)

    import_program()
    args.scratch.mkdir(parents=True, exist_ok=True)
    out = {"ok": True, "error": None}
    tracer = None
    try:
        if args.check == "inprocess":
            out.update(run_fed_lr_inprocess(args.seed))
        else:
            if args.trace:
                import layers
                from tracer import Tracer

                tracer = Tracer()
                layers.install(tracer)
            clock = Clock(args.workload in INTERPRETED, tracer)
            try:
                out.update(RUNNERS[args.workload](args.seed, args.scratch, clock))
            finally:
                if tracer is not None:
                    tracer.restore()
            out["unscaled_wall_s"] = clock.wall_s
            out["wall_s"] = clock.wall_s * clock.speed
            out["speed"] = clock.speed
            out["stolen_s"] = clock.stolen_s
            out["setup_end_mono"] = clock.setup_end_mono
            out["setup_end_stolen_s"] = clock.setup_end_stolen_s
            if tracer is not None:
                out["per_layer"] = layers.metrics(tracer, out)
                for problem in layers.count_mismatches(tracer, out, out["per_layer"]):
                    raise CheckFailed(problem)
    except CheckFailed as exc:
        out.update(ok=False, error=f"check failed: {exc}")
    except Exception as exc:  # noqa: BLE001 - a failed sample is reported, not raised
        out.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    out["context"] = blas_context()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
