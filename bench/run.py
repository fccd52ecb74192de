"""fedhosp benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Workloads (sizes in ``bench/sample.py``), each a closed loop in which one
caller waits for one call, on 2 hospitals:

* ``ingest``: ``run_experiment`` (LR, central) on CSV files written in
  set-up. CSV loading and feature extraction dominate.
* ``fed-mlp``: ``run_federation`` of an MLP over the in-process transport,
  gate on accuracy. Training (gradient and Adam) dominates, and the two
  hospital threads take turns under the interpreter lock.
* ``fed-lr-tcp``: ``run_server_rounds`` of LR over loopback TCP to two
  ``worker_loop`` threads, gate on AUROC. Many short rounds: transport and
  metrics take their largest share here.

Every sample runs in a fresh child process (``bench/sample.py``) under a
timeout, so a hung program is killed and counted as failed rather than
blocking the benchmark. Samples repeat until ``--seconds`` is used up; each
end-to-end metric is the median over the samples.

All samples run on one CPU, so OpenBLAS runs one thread; the context line
records the CPU and thread count. On a virtual machine whose host is shared,
the host takes that CPU away at times (steal) and slows it at others (other
tenants on the same core). ``setup_s`` and ``wall_s`` are wall time net of
the CPU's steal, scaled by the speed a calibration workload of the same kind
of work measured around the timed call (see ``Clock`` in ``sample.py``). The
unscaled times, the steal and the speed factor are printed in the table.

``--trace 1`` alternates untraced and traced samples and reports per-module metrics from the traced
ones, with the tracing overhead (traced minus untraced ``wall_s``).

Output checks, each counted as a failed sample when it does not hold: the
checks in ``sample.py``; one digest of the final parameters (or report) and
one AUROC across all samples; and, for fed-lr-tcp, final parameters equal to
an in-process run of the same federation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from sample import stolen_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_tmp"

WORKLOADS = ("ingest", "fed-mlp", "fed-lr-tcp")
END_TO_END = {"setup_s": "s", "wall_s": "s", "auroc": "fraction", "peak_rss_mb": "MB"}

MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 40.0
# Sampling stops in time for the equivalence check to finish inside the
# 180 s an invocation may take, even if every child runs to its timeout.
SAMPLING_BUDGET_S = 120.0


def run_child(workload: str, seed: int, trace: int, check: str | None = None) -> dict:
    """One sample in a fresh process; a crash, timeout or bad output is a failure.

    The child inherits this process's CPU affinity, so both read the steal of
    the same CPU.
    """
    scratch = SCRATCH / f"{workload}-{os.getpid()}"
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--scratch", str(scratch)]
    if check:
        cmd += ["--check", check]
    stolen_at_spawn = stolen_s()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {SAMPLE_TIMEOUT_S:g} s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
    if proc.returncode != 0:
        out.update(ok=False, error=out.get("error") or f"exit {proc.returncode}")
    out["duration_s"] = ended - spawned
    if out.get("setup_end_mono") is not None:
        stolen = out["setup_end_stolen_s"] - stolen_at_spawn
        out["unscaled_setup_s"] = out["setup_end_mono"] - spawned - stolen
        out["setup_s"] = out["unscaled_setup_s"] * out["speed"]
    return out


def collect(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Samples until ``seconds`` are used; in trace mode, untraced and traced alternate."""
    start = time.monotonic()
    samples: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        if elapsed + SAMPLE_TIMEOUT_S > SAMPLING_BUDGET_S:
            break
        expected = statistics.median(durations) if durations else 0.0
        if len(samples) >= MIN_SAMPLES * (1 + trace) and elapsed + expected > seconds:
            break
        traced = trace and len(samples) % 2 == 1
        sample = run_child(workload, seed, int(traced))
        sample["traced"] = bool(traced)
        samples.append(sample)
        durations.append(sample.get("duration_s", SAMPLE_TIMEOUT_S))
    return samples


def mark_disagreements(samples: list[dict]) -> None:
    """Every sample of one seed, and the in-process reference run if any,
    must give one output digest and one AUROC; the odd ones out fail."""
    ok = [s for s in samples if s["ok"]]
    if not ok:
        return
    keys = [(s["digest"], s["auroc"]) for s in ok]
    majority = max(set(keys), key=keys.count)
    for s, key in zip(ok, keys):
        if key != majority:
            s.update(ok=False, error="output differs from the other samples of this seed")


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def context(seed: int, trace: int, first: dict | None) -> dict:
    """What the numbers depend on besides the code: machine, versions, seed."""
    record = {"seed": seed, "trace": trace, "nproc": os.cpu_count(),
              "python": platform.python_version(), "machine": platform.machine(),
              "commit": git_commit(), "source_sha256": source_digest(),
              "env": {k: v for k, v in os.environ.items()
                      if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "PYTHONHASHSEED")}}
    if first:
        record.update(first.get("context", {}))
    return record


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def table(rows: list[tuple[str, float, str, int]]) -> str:
    return "\n".join(f"  {name:<42}{value:>16.6g} {unit:<15} n={n}"
                     for name, value, unit, n in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedhosp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on Ctrl-C, so subprocess.run kills and reaps the
    # running sample before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and every sample it starts.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "fedhosp" / "__init__.py").is_file():
        print(f"fedhosp source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    samples = collect(args.workload, args.seed, args.seconds, args.trace)
    if args.workload == "fed-lr-tcp":
        # The same federation in-process: its final parameters must match.
        samples.append(dict(run_child(args.workload, args.seed, 0, check="inprocess"),
                            traced=False))
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    mark_disagreements(samples)

    failed = [s for s in samples if not s["ok"]]
    for s in failed:
        print(f"failed sample: {s['error']}", file=sys.stderr)
    timed = [s for s in samples if s["ok"] and "wall_s" in s]
    plain = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    if not plain or (args.trace and not traced):
        print("no sample succeeded", file=sys.stderr)
        return 1

    print("context " + json.dumps(context(args.seed, args.trace, plain[0]), sort_keys=True))
    rows = [(name, median_of(plain, name), unit, len(plain)) for name, unit in END_TO_END.items()]
    rows += [(name, median_of(plain, name), unit, len(plain)) for name, unit in
             (("unscaled_setup_s", "s"), ("unscaled_wall_s", "s"), ("stolen_s", "s"),
              ("speed", "factor"))]
    rows.append(("error_rate", len(failed) / len(samples), "fraction", len(samples)))
    if "wire_bytes_per_round" in plain[0]:
        rows.append(("wire_bytes_per_round", plain[0]["wire_bytes_per_round"], "B", len(plain)))
    gaps = [g for s in plain for g in s.get("round_ms", [])]
    if gaps:
        rows += [("round_ms_p50", layers.quantile(gaps, 0.50), "ms", len(gaps)),
                 ("round_ms_p99", layers.quantile(gaps, 0.99), "ms", len(gaps))]
    print(f"{args.workload}, seed {args.seed}, end to end (median over samples):")
    print(table(rows))

    if args.trace:
        layer = {name: statistics.median(s["per_layer"][name] for s in traced)
                 for name in layers.UNITS if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        print(f"{args.workload}, seed {args.seed}, per module (median over traced samples):")
        print(table([(n, layer[n], layers.UNITS[n], len(traced)) for n in layers.UNITS]))
        metrics = {n: {"value": layer[n], "unit": layers.UNITS[n]} for n in layers.UNITS}
    else:
        metrics = {n: {"value": median_of(plain, n), "unit": u} for n, u in END_TO_END.items()}

    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
