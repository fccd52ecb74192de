"""Federated training across simulated hospitals.

One round: the server broadcasts the global parameters to a cohort, each
cohort hospital trains locally and returns its parameters with its train
size, the server averages them weighted by dataset size

    w_global = sum_k p_k * w_k,    p_k = |D_k| / sum_j |D_j|,

then every hospital (cohort or not) scores the candidate on its local test
set, and the test-size-weighted metric decides whether the candidate is
committed: a candidate at least as good as the best seen is kept, a
strictly worse one is rolled back (parameters and best value both), though
the round still counts. With the gate disabled every candidate commits.

Raw feature rows and labels never travel: the wire protocol can only carry
parameters, sample counts, and metric scalars.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import transport as tp
from .metrics import EvalResult, accuracy, auroc, evaluate
from .models import AdamState, ModelArch, TrainConfig, forward, init_params, train

__all__ = [
    "HospitalDataset",
    "RoundRecord",
    "FederationState",
    "FedConfig",
    "GATE_METRICS",
    "FederationConfigError",
    "compute_weights",
    "aggregate",
    "local_update",
    "local_test_accuracy",
    "weighted_accuracy",
    "gate_and_commit",
    "select_cohort",
    "worker_loop",
    "wait_for_registrations",
    "run_server_rounds",
    "run_federation",
]

GATE_METRICS = ("accuracy", "auroc")


class FederationConfigError(ValueError):
    """The hospitals cannot run the configured federation; raised before round 0."""


@dataclass(eq=False)
class HospitalDataset:
    """One hospital's local data: train and test rows with labels."""

    hospital_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self) -> None:
        self.train_x = np.atleast_2d(np.asarray(self.train_x, dtype=np.float64))
        self.test_x = np.atleast_2d(np.asarray(self.test_x, dtype=np.float64))
        self.train_y = np.asarray(self.train_y).reshape(-1)
        self.test_y = np.asarray(self.test_y).reshape(-1)
        if self.hospital_id < 0:
            raise ValueError(f"hospital_id must be non-negative, got {self.hospital_id}")
        for part, x, y in (("train", self.train_x, self.train_y),
                           ("test", self.test_x, self.test_y)):
            if x.shape[0] < 1:
                raise ValueError(f"hospital {self.hospital_id}: empty {part} set")
            if x.shape[0] != y.size:
                raise ValueError(
                    f"hospital {self.hospital_id}: {part} rows/labels mismatch "
                    f"({x.shape[0]} vs {y.size})"
                )
            if not np.isin(y, (0, 1)).all():
                raise ValueError(f"hospital {self.hospital_id}: {part} labels must be 0 or 1")

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_x.shape[0]


@dataclass(frozen=True)
class RoundRecord:
    """What one round did: the candidate's score and whether it was kept."""

    round: int
    candidate_accuracy: float
    committed: bool
    weights: tuple[float, ...] = ()
    cohort: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class FederationState:
    """Global parameters plus the gate's bookkeeping."""

    global_params: np.ndarray
    round: int = 0
    best_accuracy: float = 0.0
    history: tuple[RoundRecord, ...] = ()


@dataclass(frozen=True)
class FedConfig:
    """Federation-level knobs (per-hospital training lives in TrainConfig)."""

    n_hospitals: int
    rounds: int
    local_epochs: int = 1
    cohort_fraction: float = 1.0
    gate_enabled: bool = True
    gate_metric: str = "accuracy"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_hospitals < 1:
            raise ValueError(f"n_hospitals must be >= 1, got {self.n_hospitals}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if not 0.0 < self.cohort_fraction <= 1.0:
            raise ValueError(
                f"cohort_fraction must lie in (0,1], got {self.cohort_fraction}"
            )
        if self.gate_metric not in GATE_METRICS:
            raise ValueError(
                f"unknown gate_metric {self.gate_metric!r}; expected one of {GATE_METRICS}"
            )


def compute_weights(sizes) -> np.ndarray:
    """p_k = |D_k| / sum |D_j| over the cohort; sums to 1 within 1e-12."""
    sizes = np.asarray(sizes, dtype=np.float64).reshape(-1)
    if sizes.size == 0:
        raise ValueError("cannot compute weights for an empty cohort")
    if np.any(sizes < 1):
        raise ValueError("every cohort dataset must have at least one sample")
    return sizes / sizes.sum()


@functools.lru_cache(maxsize=None)
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on n inputs.

    The power-of-two network with every comparator that touches an index
    >= n dropped; 1 comparator for n=2, 5 for n=4, 19 for n=8.
    """
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def aggregate(updates, weights) -> np.ndarray:
    """Size-weighted average of parameter vectors.

    Per coordinate the weighted terms are summed in value-sorted order, so
    the result is exactly independent of the order hospitals are listed in;
    it is then clamped to the inputs' coordinate-wise [min, max] envelope,
    which keeps the average of identical vectors exactly identical (a plain
    float sum of e.g. three thirds falls one ulp short) and makes the
    convex-combination bound hold exactly rather than approximately.

    The terms are sorted by Batcher's odd-even merge network of whole-row
    ``np.minimum``/``np.maximum`` compare-exchanges (K=2: 1 comparator,
    K=4: 5, K=8: 19), which beats ``np.sort(axis=0)`` for the few hospitals
    of a round. Its comparator count grows as K·log²K: at 14,801 parameters
    the whole call takes about half the time of the ``np.sort`` version at
    K=2 and 2/3 at K=8, breaks even near K=32 and is about 1.3x slower at
    K=64. The clamp compares instead of calling ``np.clip``, so a sum of
    ±0 keeps a sign that does not depend on the listing order, and a single
    update comes back bit for bit, ``-0.0`` included.
    """
    stacked = np.stack([np.asarray(u, dtype=np.float64) for u in updates])
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if stacked.shape[0] != weights.size:
        raise ValueError(
            f"got {stacked.shape[0]} updates but {weights.size} weights"
        )
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
    terms = weights[:, None] * stacked
    for i, j in _sorting_network(len(terms)):
        # minimum(a, b) and maximum(b, a) break a tie the same way, so the
        # pair is permuted, never duplicated, even for +0.0 against -0.0.
        low = np.minimum(terms[i], terms[j])
        np.maximum(terms[j], terms[i], out=terms[j])
        terms[i] = low
    # Starting from -0.0, not numpy's +0.0, a sum of zeros is -0.0 exactly
    # when every term is, as in IEEE addition; any other sum is unchanged.
    summed = terms.sum(axis=0, initial=-0.0)
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    return np.where(summed < lo, lo, np.where(summed > hi, hi, summed))


def local_update(hospital: HospitalDataset, global_params: np.ndarray,
                 arch: ModelArch, train_cfg: TrainConfig,
                 workspace: AdamState | None = None) -> tuple[np.ndarray, int]:
    """Train locally from the global parameters; returns (params, |D_k|).

    ``workspace`` is handed to ``train``: a hospital that keeps one across
    rounds trains without allocating its optimizer state each time.
    """
    params = train(arch, global_params, hospital.train_x, hospital.train_y, train_cfg,
                   workspace)
    return params, hospital.n_train


def local_test_accuracy(hospital: HospitalDataset, params: np.ndarray,
                        arch: ModelArch, gate_metric: str = "accuracy") -> tuple[float, int]:
    """Gate metric of the given parameters on this hospital's test set."""
    if gate_metric not in GATE_METRICS:
        raise ValueError(f"unknown gate_metric {gate_metric!r}; expected one of {GATE_METRICS}")
    scores = forward(arch, params, hospital.test_x)
    metric = accuracy if gate_metric == "accuracy" else auroc
    return float(metric(scores, hospital.test_y)), hospital.n_test


def weighted_accuracy(values, n_tests) -> float:
    """Test-size-weighted mean of per-hospital metric values."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n_tests = np.asarray(n_tests, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("weighted_accuracy of an empty evaluation is undefined")
    if values.size != n_tests.size:
        raise ValueError(f"values and sizes disagree in length: {values.size} vs {n_tests.size}")
    return float((values * n_tests).sum() / n_tests.sum())


def gate_and_commit(state: FederationState, candidate: np.ndarray, a_new: float,
                    weights=(), cohort=(), gate: bool = True) -> FederationState:
    """Keep the candidate iff it is at least as good as the best so far.

    A strictly worse candidate is discarded: parameters and best value both
    stay as they were. With ``gate=False`` every candidate is kept. Either
    way the round counts and is recorded.
    """
    committed = not gate or a_new >= state.best_accuracy
    record = RoundRecord(
        round=state.round,
        candidate_accuracy=float(a_new),
        committed=committed,
        weights=tuple(float(w) for w in weights),
        cohort=tuple(int(k) for k in cohort),
    )
    return FederationState(
        global_params=candidate if committed else state.global_params,
        round=state.round + 1,
        best_accuracy=float(a_new) if committed else state.best_accuracy,
        history=state.history + (record,),
    )


def select_cohort(n_hospitals: int, cohort_fraction: float, round_seed) -> tuple[int, ...]:
    """Sample max(1, ceil(C*K)) hospital ids without replacement, sorted.

    ``round_seed`` is any numpy-acceptable seed; pass e.g. (seed, round) so
    the draw is deterministic per round.
    """
    if n_hospitals < 1:
        raise ValueError(f"n_hospitals must be >= 1, got {n_hospitals}")
    if not 0.0 < cohort_fraction <= 1.0:
        raise ValueError(f"cohort_fraction must lie in (0,1], got {cohort_fraction}")
    size = max(1, math.ceil(cohort_fraction * n_hospitals))
    if size == n_hospitals:  # the draw's only possible outcome; skip the Generator
        return tuple(range(1, n_hospitals + 1))
    rng = np.random.default_rng(round_seed)
    chosen = rng.choice(n_hospitals, size=size, replace=False)
    return tuple(sorted(int(k) + 1 for k in chosen))


# --------------------------------------------------------------------------
# protocol loops


def worker_loop(conn, hospital: HospitalDataset, arch: ModelArch,
                train_cfg: TrainConfig, gate_metric: str = "accuracy") -> None:
    """Serve one hospital over an established connection until Shutdown.

    Registers first, then answers BroadcastModel with a LocalUpdate (trained
    with seed ``train_cfg.seed + round`` so every round reshuffles
    differently but reproducibly) and EvalRequest with an EvalResult. One
    optimizer workspace serves every round: allocating it per round makes
    the allocator return and re-fault its pages each time.
    """
    workspace = AdamState(arch.n_params)
    conn.send(tp.Register(hospital.hospital_id, hospital.n_train, hospital.n_test))
    while True:
        msg = conn.recv()
        if isinstance(msg, tp.Shutdown):
            conn.close()
            return
        if isinstance(msg, tp.BroadcastModel):
            cfg = replace(train_cfg, seed=(train_cfg.seed + msg.round) % 2**64)
            params, n_samples = local_update(hospital, msg.params, arch, cfg, workspace)
            conn.send(tp.LocalUpdate(hospital.hospital_id, msg.round, n_samples, params))
        elif isinstance(msg, tp.EvalRequest):
            value, n_test = local_test_accuracy(hospital, msg.params, arch, gate_metric)
            conn.send(tp.EvalResult(hospital.hospital_id, msg.round, value, n_test))
        else:
            raise tp.ProtocolError(
                f"hospital {hospital.hospital_id}: unexpected {type(msg).__name__}"
            )


@dataclass(eq=False)
class RegisteredWorker:
    conn: object
    n_train: int
    n_test: int


# Seconds an accepted connection has to deliver its Register frame. A peer
# that connects and then stays silent is closed when it runs out, so it
# cannot hold up the hospitals that do register.
REGISTRATION_TIMEOUT_S = 10.0
# Seconds run_federation waits for each hospital thread once every
# connection is closed: long enough for a local update in progress to end.
_JOIN_TIMEOUT_S = 30.0


def wait_for_registrations(listener, expected_ids) -> dict[int, RegisteredWorker]:
    """Accept connections until every expected hospital id has registered.

    A connection whose first message is not a Register, names an unknown id,
    repeats an already-registered id, declares an empty train or test set, or
    does not arrive within ``REGISTRATION_TIMEOUT_S`` is closed (the rejected
    worker sees its connection drop) and the server keeps waiting for the
    rest. If waiting fails, every connection registered so far is closed
    before the error propagates, so no registered worker waits on it forever.
    """
    expected = set(int(k) for k in expected_ids)
    if not expected:
        raise ValueError("expected_ids must be non-empty")
    workers: dict[int, RegisteredWorker] = {}
    try:
        while set(workers) != expected:
            conn = listener.accept()
            try:
                msg = conn.recv(timeout=REGISTRATION_TIMEOUT_S)
            except tp.TransportError:
                conn.close()
                continue
            if not isinstance(msg, tp.Register) or msg.hospital_id not in expected \
                    or msg.hospital_id in workers or not msg.n_train or not msg.n_test:
                conn.close()
                continue
            workers[msg.hospital_id] = RegisteredWorker(conn, msg.n_train, msg.n_test)
    except BaseException:
        for w in workers.values():
            w.conn.close()
        raise
    return workers


def _exchange(workers: dict[int, RegisteredWorker], ids, request, reply_type, rnd: int,
              n_params: int) -> list:
    """Send ``request`` to each listed hospital, then take one checked reply from each.

    A reply must carry the hospital's registered train (LocalUpdate) or test
    (EvalResult) size, and a LocalUpdate a vector of the model's ``n_params``.
    """
    for k in ids:
        workers[k].conn.send(request)
    replies = []
    for k in ids:
        w = workers[k]
        msg = w.conn.recv()
        if not isinstance(msg, reply_type) or msg.hospital_id != k or msg.round != rnd:
            raise tp.ProtocolError(
                f"round {rnd}: expected {reply_type.__name__} from hospital {k}, got {msg!r}"
            )
        sizes = ((("n_samples", msg.n_samples, w.n_train), ("params", msg.params.size, n_params))
                 if reply_type is tp.LocalUpdate else (("n_test", msg.n_test, w.n_test),))
        for field, sent, expected in sizes:
            if sent != expected:
                raise tp.ProtocolError(f"round {rnd}: hospital {k} sent a {reply_type.__name__} "
                                       f"of {field} size {sent}, expected {expected}")
        replies.append(msg)
    return replies


def run_server_rounds(workers: dict[int, RegisteredWorker], arch: ModelArch,
                      fed_cfg: FedConfig, evaluate_global=None,
                      ) -> tuple[FederationState, list[EvalResult]]:
    """Drive all federation rounds over already-registered connections.

    ``evaluate_global`` (optional) is called with the committed global
    parameters after each round; its results form the returned evaluation
    history. It exists for instrumentation — nothing it sees travels on the
    wire. On success the workers are sent Shutdown; on every exit, success
    or any exception, every worker connection is closed, so no worker is
    left waiting in ``recv``.
    """
    ids = sorted(workers)
    state = FederationState(global_params=init_params(arch, fed_cfg.seed))
    eval_history: list[EvalResult] = []
    try:
        for rnd in range(fed_cfg.rounds):
            cohort = select_cohort(fed_cfg.n_hospitals, fed_cfg.cohort_fraction,
                                   (fed_cfg.seed, rnd))
            updates = _exchange(workers, cohort, tp.BroadcastModel(rnd, state.global_params),
                                tp.LocalUpdate, rnd, arch.n_params)
            weights = compute_weights([m.n_samples for m in updates])
            candidate = aggregate([m.params for m in updates], weights)
            results = _exchange(workers, ids, tp.EvalRequest(rnd, candidate),
                                tp.EvalResult, rnd, arch.n_params)
            a_new = weighted_accuracy([m.value for m in results], [m.n_test for m in results])
            state = gate_and_commit(state, candidate, a_new, weights, cohort,
                                    gate=fed_cfg.gate_enabled)
            if evaluate_global is not None:
                eval_history.append(evaluate_global(state.global_params))
        for k in ids:
            workers[k].conn.send(tp.Shutdown())
    finally:
        for w in workers.values():
            w.conn.close()
    return state, eval_history


def run_federation(hospitals, arch: ModelArch, fed_cfg: FedConfig,
                   train_cfg: TrainConfig, transport=None,
                   ) -> tuple[FederationState, list[EvalResult]]:
    """Simulate a whole federation: server plus one worker thread per hospital.

    ``transport`` defaults to a fresh InProcessTransport; pass a TcpTransport
    to run the identical protocol over loopback TCP — the final parameters
    are bit-identical either way. Per-round model quality (all three metrics
    on the hospitals' pooled test sets) is measured on the side and returned
    alongside the final state.

    Raises ``FederationConfigError`` before any thread starts when the
    hospitals do not fit ``fed_cfg``: ids other than exactly
    1..``fed_cfg.n_hospitals``, or, with the auroc gate, a hospital whose
    test labels are all one class. A transport failure is raised as a
    ``RuntimeError`` naming the hospital that failed first, as is any failure
    of a hospital thread, from ``transport.connect()`` on; any other error
    propagates unchanged. Either way every hospital thread has been released
    first.
    """
    hospitals = sorted(hospitals, key=lambda h: h.hospital_id)
    ids = [h.hospital_id for h in hospitals]
    if ids != list(range(1, fed_cfg.n_hospitals + 1)):
        raise FederationConfigError(
            f"hospital ids must be exactly 1..{fed_cfg.n_hospitals}, got {ids}"
        )
    if fed_cfg.gate_metric == "auroc":
        for h in hospitals:
            labels = np.unique(h.test_y)
            if labels.size < 2:
                raise FederationConfigError(
                    f"hospital {h.hospital_id}: the auroc gate needs both classes in "
                    f"its test labels, got only {labels.tolist()}"
                )
    if transport is None:
        transport = tp.InProcessTransport()
    worker_cfg = replace(train_cfg, epochs=fed_cfg.local_epochs)
    pooled_x = np.vstack([h.test_x for h in hospitals])
    pooled_y = np.concatenate([h.test_y for h in hospitals])
    last_params, last_result = None, None

    def evaluate_global(params: np.ndarray) -> EvalResult:
        # A reverted round commits the very same array again: reuse its result.
        nonlocal last_params, last_result
        if params is not last_params:
            last_params = params
            last_result = evaluate(forward(arch, params, pooled_x), pooled_y)
        return last_result

    failures: list[tuple[int, Exception]] = []

    def run_worker(hospital: HospitalDataset) -> None:
        conn = None
        try:
            conn = transport.connect()
            worker_loop(conn, hospital, arch, worker_cfg, fed_cfg.gate_metric)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller below
            # A closed connection means the server stopped first, and the
            # server raises its own error; anything else is this hospital's.
            if not isinstance(exc, tp.TransportClosedError):
                failures.append((hospital.hospital_id, exc))
            # Unblocks the server wherever it waits for this hospital: in
            # accept if it never registered, else in recv.
            listener.close()
            if conn is not None:
                conn.close()

    listener = transport.listen()
    threads = []
    try:
        for h in hospitals:
            t = threading.Thread(target=run_worker, args=(h,), daemon=True,
                                 name=f"hospital-{h.hospital_id}")
            t.start()
            threads.append(t)
        return run_server_rounds(wait_for_registrations(listener, ids), arch, fed_cfg,
                                 evaluate_global)
    except tp.TransportError as exc:
        # A failing hospital records its error before it closes the
        # connection the server then fails on, so failures[0] is the first.
        if failures:
            hid, worker_exc = failures[0]
            raise RuntimeError(
                f"hospital {hid} failed during federation: {worker_exc}"
            ) from worker_exc
        raise RuntimeError(f"federation transport failure: {exc}") from exc
    finally:
        listener.close()
        for t in threads:
            t.join(_JOIN_TIMEOUT_S)
