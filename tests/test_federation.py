"""Federation tests: weighting, aggregation, gate semantics, full runs."""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest

from fedhosp import federation
from fedhosp import transport as tp
from fedhosp.federation import (
    FedConfig,
    FederationConfigError,
    FederationState,
    HospitalDataset,
    aggregate,
    compute_weights,
    gate_and_commit,
    local_test_accuracy,
    local_update,
    run_federation,
    select_cohort,
    wait_for_registrations,
    weighted_accuracy,
    worker_loop,
)
from fedhosp.metrics import evaluate
from fedhosp.models import ModelArch, TrainConfig, forward, init_params, train


def _hospital(hid=1, n_train=24, n_test=12, d=3, seed=0, separation=2.0):
    rng = np.random.default_rng(seed)

    def draw(n):
        x = rng.normal(size=(n, d))
        y = (x[:, 0] > 0).astype(float)
        x[y == 1, 0] += separation
        return x, y

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return HospitalDataset(hid, train_x, train_y, test_x, test_y)


def test_compute_weights_examples():
    assert np.array_equal(compute_weights([100, 100]), [0.5, 0.5])
    assert np.array_equal(compute_weights([1, 3]), [0.25, 0.75])
    assert np.array_equal(compute_weights([42]), [1.0])
    assert abs(compute_weights([7, 11, 13]).sum() - 1.0) <= 1e-12


def test_compute_weights_errors():
    with pytest.raises(ValueError, match="empty"):
        compute_weights([])
    with pytest.raises(ValueError, match="at least one sample"):
        compute_weights([5, 0])


def test_aggregate_identical_vectors_is_exact_identity():
    w = np.array([0.1, -2.5, 3.25, 1e-9])
    out = aggregate([w, w, w], [1 / 3, 1 / 3, 1 / 3])
    assert np.array_equal(out, w)  # bit-exact, not just close
    signed = np.array([-0.0, 0.0, -1.5, 5e-324])
    assert aggregate([signed], [1.0]).tobytes() == signed.tobytes()
    assert aggregate([signed, signed], [0.5, 0.5]).tobytes() == signed.tobytes()


def test_aggregate_arithmetic_examples():
    assert np.array_equal(
        aggregate([np.array([0.0]), np.array([4.0])], [0.25, 0.75]), [3.0]
    )
    out = aggregate([np.array([2.0, 0.0]), np.array([0.0, 2.0])],
                    compute_weights([1, 3]))
    assert np.array_equal(out, [0.5, 1.5])


def test_aggregate_is_order_independent_exactly():
    rng = np.random.default_rng(6)
    updates = [rng.normal(size=12) for _ in range(5)]
    weights = compute_weights(rng.integers(1, 500, 5))
    base = aggregate(updates, weights)
    for _ in range(10):
        perm = rng.permutation(5)
        shuffled = aggregate([updates[i] for i in perm], weights[perm])
        assert np.array_equal(shuffled, base)
    # +0.0 and -0.0 compare equal, so the sign of a zero must not come from
    # whichever of them happens to be listed first
    zeros = [np.array([0.0, 1.0]), np.array([-0.0, 1.0])]
    forward_order = aggregate(zeros, [0.5, 0.5])
    assert forward_order.tobytes() == aggregate(zeros[::-1], [0.5, 0.5]).tobytes()
    assert forward_order.tobytes() == np.array([0.0, 1.0]).tobytes()


def test_aggregate_stays_inside_envelope():
    rng = np.random.default_rng(7)
    updates = [rng.normal(size=20) * 10 for _ in range(4)]
    out = aggregate(updates, compute_weights([3, 1, 4, 1]))
    stacked = np.stack(updates)
    assert np.all(out >= stacked.min(axis=0))
    assert np.all(out <= stacked.max(axis=0))


def _reference_aggregate(updates, weights):
    """Value-sorted sum by np.sort, clamped by np.clip."""
    stacked = np.stack(updates)
    terms = np.sort(np.asarray(weights)[:, None] * stacked, axis=0)
    return np.clip(terms.sum(axis=0), stacked.min(axis=0), stacked.max(axis=0))


def _mixes_signed_zeros(a):
    zero, negative = a == 0.0, np.signbit(a)
    return (zero & negative).any(axis=0) & (zero & ~negative).any(axis=0)


@pytest.mark.parametrize("k", range(1, 10))
def test_aggregate_matches_sorted_sum_reference(k):
    rng = np.random.default_rng(100 + k)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -3.75, 2.0**-1074])
    for trial in range(40):
        updates = [rng.normal(size=64) * 10.0 ** rng.integers(-8, 8, 64) for _ in range(k)]
        for u in updates:  # ties, signed zeros and subnormals in some coordinates
            picks = rng.random(64) < 0.4
            u[picks] = rng.choice(pool, picks.sum())
        sizes = rng.integers(1, 4 if trial % 2 else 1000, k)
        weights = compute_weights(sizes)
        out = aggregate(updates, weights)
        ref = _reference_aggregate(updates, weights)
        assert np.array_equal(out, ref)
        # the reference takes a zero's sign from the listing order where +0.0
        # and -0.0 meet in a coordinate; everywhere else the bytes agree
        stacked = np.stack(updates)
        clean = ~(_mixes_signed_zeros(stacked) | _mixes_signed_zeros(weights[:, None] * stacked))
        assert out[clean].tobytes() == ref[clean].tobytes()


def test_sorting_network_sorts_every_zero_one_input():
    from itertools import product

    from fedhosp.federation import _sorting_network

    assert [len(_sorting_network(n)) for n in (1, 2, 4, 8)] == [0, 1, 5, 19]
    for n in range(1, 11):
        for bits in product((0, 1), repeat=n):
            values = list(bits)
            for i, j in _sorting_network(n):
                assert i < j
                values[i], values[j] = min(values[i], values[j]), max(values[i], values[j])
            assert values == sorted(bits), (n, bits)


def test_aggregate_errors():
    with pytest.raises(ValueError, match="weights"):
        aggregate([np.zeros(2), np.zeros(2)], [0.5])
    with pytest.raises(ValueError, match="sum to 1"):
        aggregate([np.zeros(2), np.zeros(2)], [0.5, 0.6])


def test_local_update_zero_epochs_identity():
    h = _hospital()
    arch = ModelArch("lr", input_dim=3)
    start = init_params(arch, 0)
    params, n = local_update(h, start, arch, TrainConfig(epochs=0, seed=1))
    assert np.array_equal(params, start)
    assert n == h.n_train


def test_local_update_matches_direct_training():
    h = _hospital()
    arch = ModelArch("lr", input_dim=3)
    cfg = TrainConfig(epochs=4, seed=9)
    start = init_params(arch, 2)
    via_federation, _ = local_update(h, start, arch, cfg)
    direct = train(arch, start, h.train_x, h.train_y, cfg)
    assert np.array_equal(via_federation, direct)


def test_local_update_reduces_training_loss():
    from fedhosp.models import cross_entropy

    h = _hospital(separation=3.0)
    arch = ModelArch("lr", input_dim=3)
    start = init_params(arch, 0)
    updated, _ = local_update(h, start, arch, TrainConfig(epochs=30, seed=0))
    before = cross_entropy(forward(arch, start, h.train_x), h.train_y)
    after = cross_entropy(forward(arch, updated, h.train_x), h.train_y)
    assert after <= before


def test_local_test_accuracy_matches_metrics_module():
    from fedhosp.metrics import accuracy, auroc

    h = _hospital(seed=4)
    arch = ModelArch("lr", input_dim=3)
    params = train(arch, init_params(arch, 0), h.train_x, h.train_y,
                   TrainConfig(epochs=20, seed=0))
    scores = forward(arch, params, h.test_x)
    value, n = local_test_accuracy(h, params, arch, "accuracy")
    assert (value, n) == (accuracy(scores, h.test_y), h.n_test)
    value_auc, _ = local_test_accuracy(h, params, arch, "auroc")
    assert value_auc == auroc(scores, h.test_y)
    with pytest.raises(ValueError, match="gate_metric"):
        local_test_accuracy(h, params, arch, "f1")


def test_weighted_accuracy_examples():
    assert weighted_accuracy([1.0, 0.5], [100, 100]) == 0.75
    assert weighted_accuracy([0.8, 0.6], [300, 100]) == 0.75
    assert weighted_accuracy([0.42], [7]) == 0.42
    with pytest.raises(ValueError, match="empty"):
        weighted_accuracy([], [])


def test_gate_commits_on_equal_or_better():
    state = FederationState(global_params=np.zeros(2), best_accuracy=0.80)
    better = gate_and_commit(state, np.ones(2), 0.85)
    assert better.best_accuracy == 0.85
    assert np.array_equal(better.global_params, np.ones(2))
    assert better.history[-1].committed

    equal = gate_and_commit(state, np.ones(2), 0.80)
    assert equal.best_accuracy == 0.80
    assert np.array_equal(equal.global_params, np.ones(2))
    assert equal.history[-1].committed


def test_gate_reverts_params_and_accuracy_when_worse():
    state = FederationState(global_params=np.zeros(2), best_accuracy=0.80)
    reverted = gate_and_commit(state, np.ones(2), 0.75)
    assert reverted.best_accuracy == 0.80
    assert np.array_equal(reverted.global_params, np.zeros(2))
    assert not reverted.history[-1].committed
    assert reverted.round == state.round + 1  # the round still counts
    assert reverted.history[-1].candidate_accuracy == 0.75


def test_first_candidate_always_commits():
    state = FederationState(global_params=np.zeros(2))
    assert gate_and_commit(state, np.ones(2), 0.01).history[-1].committed


def test_select_cohort_rules():
    assert select_cohort(2, 1.0, round_seed=0) == (1, 2)
    assert len(select_cohort(2, 0.5, round_seed=0)) == 1
    assert select_cohort(5, 0.5, round_seed=(3, 0)) == select_cohort(5, 0.5, round_seed=(3, 0))
    picked = select_cohort(10, 0.3, round_seed=42)
    assert picked == tuple(sorted(picked))
    assert all(1 <= k <= 10 for k in picked)
    assert select_cohort(3, 0.01, round_seed=1)  # never empty


@pytest.mark.parametrize("k", range(1, 9))
def test_full_cohort_equals_the_random_draw(k):
    for fraction in (1.0, (k - 0.5) / k):  # both round up to every hospital
        for seed in (0, (3, 7)):
            drawn = np.random.default_rng(seed).choice(k, size=k, replace=False)
            assert select_cohort(k, fraction, seed) == tuple(sorted(int(i) + 1 for i in drawn))


def test_fed_config_validation():
    with pytest.raises(ValueError, match="cohort_fraction"):
        FedConfig(n_hospitals=2, rounds=1, cohort_fraction=0.0)
    with pytest.raises(ValueError, match="gate_metric"):
        FedConfig(n_hospitals=2, rounds=1, gate_metric="recall")
    with pytest.raises(ValueError, match="rounds"):
        FedConfig(n_hospitals=2, rounds=0)


def test_single_hospital_round_equals_centralized_training():
    h = _hospital(n_train=40)
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=1, rounds=1, local_epochs=3, gate_enabled=False, seed=5)
    state, evals = run_federation([h], arch, fed, TrainConfig(epochs=3, seed=11))
    central = train(arch, init_params(arch, 5), h.train_x, h.train_y,
                    TrainConfig(epochs=3, seed=11))
    assert np.array_equal(state.global_params, central)
    assert len(evals) == 1 and evals[0].n == h.n_test


def test_multi_round_single_hospital_is_sequential_training():
    h = _hospital(n_train=40)
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=1, rounds=4, local_epochs=2, gate_enabled=False, seed=5)
    state, _ = run_federation([h], arch, fed, TrainConfig(epochs=2, seed=11))
    params = init_params(arch, 5)
    for rnd in range(4):  # per-round seed is the base seed plus the round index
        params = train(arch, params, h.train_x, h.train_y,
                       TrainConfig(epochs=2, seed=11 + rnd))
    assert np.array_equal(state.global_params, params)


def test_gate_on_keeps_best_accuracy_non_decreasing():
    hospitals = [_hospital(1, seed=1), _hospital(2, seed=2)]
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=12, local_epochs=1, gate_enabled=True, seed=0)
    state, _ = run_federation(hospitals, arch, fed,
                              TrainConfig(epochs=1, seed=3, lr=0.5))
    best_so_far = 0.0
    for record in state.history:
        if record.committed:
            assert record.candidate_accuracy >= best_so_far
            best_so_far = record.candidate_accuracy
        else:
            assert record.candidate_accuracy < best_so_far
    assert state.best_accuracy == best_so_far
    assert len(state.history) == 12


def test_run_federation_matches_manual_round():
    """One gate-off round recomputed by hand from the module's primitives."""
    hospitals = [_hospital(1, n_train=16, seed=1), _hospital(2, n_train=32, seed=2)]
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=1, local_epochs=2, gate_enabled=False, seed=8)
    train_cfg = TrainConfig(epochs=2, seed=20)
    state, _ = run_federation(hospitals, arch, fed, train_cfg)

    start = init_params(arch, 8)
    updates, sizes = zip(*(
        local_update(h, start, arch, TrainConfig(epochs=2, seed=20))
        for h in hospitals
    ))
    expected = aggregate(list(updates), compute_weights(sizes))
    assert np.array_equal(state.global_params, expected)
    assert state.history[0].weights == (16 / 48, 32 / 48)
    assert state.history[0].cohort == (1, 2)


def test_reverted_rounds_reuse_the_pooled_evaluation(monkeypatch):
    calls, committed_params = [], []

    def counting_evaluate(*args):
        calls.append(1)
        return evaluate(*args)

    def recording_gate(*args, **kwargs):
        state = gate_and_commit(*args, **kwargs)
        committed_params.append(state.global_params)
        return state

    monkeypatch.setattr(federation, "evaluate", counting_evaluate)
    monkeypatch.setattr(federation, "gate_and_commit", recording_gate)
    hospitals = [_hospital(1, seed=1, separation=0.0), _hospital(2, seed=2, separation=0.0)]
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=12, local_epochs=1, gate_enabled=True, seed=0)
    state, evals = run_federation(hospitals, arch, fed,
                                  TrainConfig(epochs=1, seed=3, lr=1.0))
    n_committed = sum(r.committed for r in state.history)
    assert 0 < n_committed < len(state.history)  # some rounds reverted
    assert len(calls) == n_committed
    pooled_x = np.vstack([h.test_x for h in hospitals])
    pooled_y = np.concatenate([h.test_y for h in hospitals])
    assert evals == [evaluate(forward(arch, p, pooled_x), pooled_y)
                     for p in committed_params]


def test_partial_cohort_still_evaluates_everyone():
    hospitals = [_hospital(k, seed=k) for k in (1, 2, 3)]
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=3, rounds=6, local_epochs=1,
                    cohort_fraction=0.34, gate_enabled=True, seed=2)
    state, evals = run_federation(hospitals, arch, fed, TrainConfig(epochs=1, seed=0))
    assert all(len(r.cohort) == 2 for r in state.history)  # ceil(0.34*3)
    assert {k for r in state.history for k in r.cohort} <= {1, 2, 3}
    # pooled evaluation covers all three hospitals regardless of cohort
    assert all(e.n == sum(h.n_test for h in hospitals) for e in evals)


def test_auroc_gate_rejects_single_class_test_shard_before_round_0():
    one_class = _hospital(2, seed=2)
    one_class.test_y[:] = 1.0
    hospitals = [_hospital(1, seed=1), one_class]
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=3, gate_metric="auroc")
    with pytest.raises(FederationConfigError, match=r"hospital 2: .*both classes"):
        run_federation(hospitals, arch, fed, TrainConfig(epochs=1, seed=0))
    # the accuracy gate has no such need
    state, _ = run_federation(hospitals, arch, FedConfig(n_hospitals=2, rounds=3),
                              TrainConfig(epochs=1, seed=0))
    assert len(state.history) == 3


def test_tcp_and_in_process_runs_are_bit_identical():
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=4, local_epochs=1, gate_enabled=True, seed=13)
    cfg = TrainConfig(epochs=1, seed=40)
    s_ip, e_ip = run_federation([_hospital(1, seed=1), _hospital(2, seed=2)],
                                arch, fed, cfg, tp.InProcessTransport())
    s_tcp, e_tcp = run_federation([_hospital(1, seed=1), _hospital(2, seed=2)],
                                  arch, fed, cfg, tp.TcpTransport("127.0.0.1", 0))
    assert np.array_equal(s_ip.global_params, s_tcp.global_params)
    assert s_ip.history == s_tcp.history
    assert e_ip == e_tcp


def test_duplicate_registration_is_rejected():
    import threading

    transport = tp.InProcessTransport()
    listener = transport.listen()
    outcome = {}

    def register(name, delay):
        import time

        time.sleep(delay)
        conn = transport.connect()
        conn.send(tp.Register(hospital_id=1, n_train=10, n_test=5))
        try:
            outcome[name] = conn.recv()
        except tp.TransportClosedError:
            outcome[name] = "rejected"
        conn.close()

    first = threading.Thread(target=register, args=("first", 0.0))
    second = threading.Thread(target=register, args=("second", 0.2))
    first.start(), second.start()

    def serve():
        workers = wait_for_registrations(listener, {1, 2})
        for w in workers.values():
            w.conn.send(tp.Shutdown())
            w.conn.close()

    server = threading.Thread(target=serve)
    server.start()

    def late_unique():
        import time

        time.sleep(0.4)
        conn = transport.connect()
        conn.send(tp.Register(hospital_id=2, n_train=10, n_test=5))
        outcome["unique"] = conn.recv()
        conn.close()

    late = threading.Thread(target=late_unique)
    late.start()
    for t in (first, second, late, server):
        t.join(timeout=10)
    assert outcome["second"] == "rejected"  # duplicate id: connection dropped
    assert outcome["first"] == tp.Shutdown()
    assert outcome["unique"] == tp.Shutdown()


def test_failed_registration_closes_the_registered_connections():
    transport = tp.InProcessTransport()
    listener = transport.listen()
    registered = transport.connect()
    registered.send(tp.Register(hospital_id=1, n_train=10, n_test=5))
    listener.close()  # the wait for hospital 2 fails at its next accept
    with pytest.raises(tp.TransportClosedError):
        wait_for_registrations(listener, {1, 2})
    with pytest.raises(tp.TransportClosedError):  # the server closed its end
        registered.send(tp.Register(hospital_id=1, n_train=10, n_test=5))
    registered.close()


def test_worker_failure_surfaces_with_context():
    # a worker whose train rows are wider than the model fails in local training
    good = _hospital(2, seed=3)
    bad = HospitalDataset(2, np.hstack([good.train_x, good.train_x[:, :1]]), good.train_y,
                          good.test_x, good.test_y)
    hospitals = [_hospital(1, seed=1), bad]
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=2, local_epochs=1,
                    gate_metric="auroc", seed=0)
    with pytest.raises(RuntimeError, match="hospital 2"):
        run_federation(hospitals, arch, fed, TrainConfig(epochs=1, seed=0))


@pytest.mark.parametrize("make_transport", [tp.InProcessTransport,
                                            lambda: tp.TcpTransport("127.0.0.1", 0)],
                         ids=["in_process", "tcp"])
def test_worker_failure_releases_the_healthy_workers(make_transport):
    good = _hospital(2, seed=3)
    bad = HospitalDataset(2, np.hstack([good.train_x, good.train_x[:, :1]]), good.train_y,
                          good.test_x, good.test_y)
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=2, local_epochs=1, seed=0)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="hospital 2 failed"):
        run_federation([_hospital(1, seed=1), bad], arch, fed,
                       TrainConfig(epochs=1, seed=0), make_transport())
    left = [t for t in threading.enumerate()
            if t not in before and t.name.startswith("hospital-") and t.is_alive()]
    assert left == []


class _ConnectFailsIn:
    """A transport whose ``connect()`` raises in one hospital's thread.

    It raises late, once the other hospitals have had time to register, so
    the server is waiting in ``accept`` for the one that fails.
    """

    def __init__(self, inner, hospital_id: int):
        self._inner = inner
        self._thread = f"hospital-{hospital_id}"

    def listen(self):
        return self._inner.listen()

    def connect(self):
        if threading.current_thread().name == self._thread:
            time.sleep(0.3)
            raise tp.TransportError("cannot connect: refused")
        return self._inner.connect()


@pytest.mark.parametrize("make_transport", [tp.InProcessTransport,
                                            lambda: tp.TcpTransport("127.0.0.1", 0)],
                         ids=["in_process", "tcp"])
def test_a_hospital_that_cannot_connect_ends_the_run(make_transport):
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=3, rounds=2, seed=0)
    hospitals = [_hospital(k, seed=k) for k in (1, 2, 3)]
    raised = []

    def run():
        try:
            run_federation(hospitals, arch, fed, TrainConfig(epochs=1, seed=0),
                           _ConnectFailsIn(make_transport(), 2))
        except Exception as exc:  # noqa: BLE001 - inspected below
            raised.append(exc)

    server = threading.Thread(target=run, daemon=True)
    server.start()
    server.join(timeout=10.0)
    assert not server.is_alive(), "the server still waits for hospital 2 to register"
    assert len(raised) == 1 and type(raised[0]) is RuntimeError
    assert "hospital 2 failed" in str(raised[0]) and "refused" in str(raised[0])
    assert not [t for t in threading.enumerate()
                if t.name.startswith("hospital-") and t.is_alive()]


class _NoTransport:
    """A transport that fails the test if a run opens any connection."""

    def listen(self):
        raise AssertionError("the run opened a listener")

    connect = listen


def test_hospital_ids_other_than_1_to_k_are_rejected_before_any_thread():
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=1)
    for ids in ((0, 1), (1, 1), (1, 3), (1,), (1, 2, 3)):
        hospitals = [_hospital(k, seed=k) for k in ids]
        with pytest.raises(FederationConfigError, match=r"exactly 1\.\.2"):
            run_federation(hospitals, arch, fed, TrainConfig(epochs=1, seed=0), _NoTransport())


@pytest.mark.parametrize("make_transport", [tp.InProcessTransport,
                                            lambda: tp.TcpTransport("127.0.0.1", 0)],
                         ids=["in_process", "tcp"])
def test_a_server_side_error_propagates_unchanged_and_releases_the_hospitals(make_transport):
    # All-negative test labels pass the accuracy gate, but the pooled AUROC
    # of round 0 is undefined.
    hospitals = [_hospital(1, seed=1), _hospital(2, seed=2)]
    for h in hospitals:
        h.test_y[:] = 0.0
    arch = ModelArch("lr", input_dim=3)
    fed = FedConfig(n_hospitals=2, rounds=3, gate_metric="accuracy")
    with pytest.raises(ValueError, match="auroc") as info:
        run_federation(hospitals, arch, fed, TrainConfig(epochs=1, seed=0), make_transport())
    assert info.type is ValueError
    assert not [t for t in threading.enumerate()
                if t.name.startswith("hospital-") and t.is_alive()]


@pytest.mark.parametrize("make_transport", [tp.InProcessTransport,
                                            lambda: tp.TcpTransport("127.0.0.1", 0)],
                         ids=["in_process", "tcp"])
def test_a_failing_round_closes_every_worker_connection(make_transport):
    transport = make_transport()
    listener = transport.listen()
    arch = ModelArch("lr", input_dim=3)
    ended = {}

    def hospital(h):
        conn = transport.connect()
        try:
            worker_loop(conn, h, arch, TrainConfig(epochs=1, seed=0))
        except tp.TransportError as exc:
            ended[h.hospital_id] = type(exc)
        conn.close()

    threads = [threading.Thread(target=hospital, args=(_hospital(k, seed=k),),
                                name=f"hospital-{k}", daemon=True) for k in (1, 2)]
    for t in threads:
        t.start()

    def evaluate_global(params):
        raise ZeroDivisionError("evaluation failed")

    try:
        workers = wait_for_registrations(listener, [1, 2])
        with pytest.raises(ZeroDivisionError):
            federation.run_server_rounds(workers, arch, FedConfig(n_hospitals=2, rounds=3),
                                         evaluate_global)
    finally:
        listener.close()
        for t in threads:
            t.join(timeout=2.0)
    assert not any(t.is_alive() for t in threads), "a worker still waits in recv"
    assert ended == {1: tp.TransportClosedError, 2: tp.TransportClosedError}


def test_a_silent_peer_does_not_stall_registration(monkeypatch):
    import socket
    import time

    monkeypatch.setattr(federation, "REGISTRATION_TIMEOUT_S", 0.2)
    transport = tp.TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    silent = socket.create_connection(("127.0.0.1", transport.port))
    h = _hospital(1)
    arch = ModelArch("lr", input_dim=3)
    worker = threading.Thread(
        target=lambda: worker_loop(transport.connect(), h, arch, TrainConfig(epochs=1, seed=0)),
        name="hospital-1", daemon=True)
    worker.start()
    registered = []
    server = threading.Thread(
        target=lambda: registered.append(wait_for_registrations(listener, [1])), daemon=True)
    start = time.monotonic()
    server.start()
    server.join(timeout=5.0)
    waited = time.monotonic() - start
    silent.close()  # releases a server still waiting on it
    server.join(timeout=5.0)
    listener.close()
    for w in (registered[0] if registered else {}).values():
        w.conn.send(tp.Shutdown())
        w.conn.close()
    worker.join(timeout=5.0)
    assert waited < 5.0, "registration still waiting on the silent peer"
    assert list(registered[0]) == [1]
    assert not worker.is_alive()


@pytest.mark.parametrize("fail", [False, True], ids=["success", "failing_hospital"])
def test_run_federation_closes_every_in_process_endpoint(fail):
    hospitals = [_hospital(1, seed=1), _hospital(2, seed=3)]
    if fail:  # train rows wider than the model: hospital 2 fails in local training
        good = hospitals[1]
        hospitals[1] = HospitalDataset(2, np.hstack([good.train_x, good.train_x[:, :1]]),
                                       good.train_y, good.test_x, good.test_y)
    transport = tp.InProcessTransport()
    with pytest.raises(RuntimeError, match="hospital 2 failed") if fail else nullcontext():
        run_federation(hospitals, ModelArch("lr", input_dim=3), FedConfig(n_hospitals=2, rounds=2),
                       TrainConfig(epochs=1, seed=0), transport)
    assert len(transport.endpoints) == 4
    assert all(end._closed for end in transport.endpoints)


@pytest.mark.parametrize("sizes", [(0, 5), (10, 0)], ids=["no_train", "no_test"])
def test_a_registration_with_an_empty_set_is_closed(sizes):
    transport = tp.InProcessTransport()
    listener = transport.listen()
    empty, good = transport.connect(), transport.connect()
    empty.send(tp.Register(hospital_id=1, n_train=sizes[0], n_test=sizes[1]))
    good.send(tp.Register(hospital_id=1, n_train=10, n_test=5))
    workers = wait_for_registrations(listener, [1])
    assert (workers[1].n_train, workers[1].n_test) == (10, 5)
    with pytest.raises(tp.TransportClosedError):
        empty.recv(timeout=5.0)
    for conn in (empty, good, workers[1].conn):
        conn.close()


@pytest.mark.parametrize("update, result, fault", [
    ((0, np.zeros(4)), 5, "n_samples size 0, expected 10"),
    ((10, np.zeros(7)), 5, "params size 7, expected 4"),
    ((10, np.zeros(4)), 6, "n_test size 6, expected 5"),
], ids=["n_samples", "params", "n_test"])
def test_a_reply_that_contradicts_the_registration_is_a_protocol_error(update, result, fault):
    transport = tp.InProcessTransport()
    listener = transport.listen()
    peer = transport.connect()
    # The whole one-round session, buffered until the server reads it.
    for msg in (tp.Register(hospital_id=1, n_train=10, n_test=5),
                tp.LocalUpdate(1, 0, *update), tp.EvalResult(1, 0, 0.5, result)):
        peer.send(msg)
    workers = wait_for_registrations(listener, [1])
    listener.close()
    with pytest.raises(tp.ProtocolError, match=f"round 0: hospital 1 .*{fault}"):
        federation.run_server_rounds(workers, ModelArch("lr", input_dim=3),
                                     FedConfig(n_hospitals=1, rounds=1))
    with pytest.raises(tp.TransportClosedError):  # after the requests, the server's close
        while True:
            peer.recv(timeout=5.0)
    peer.close()
    assert all(end._closed for end in transport.endpoints)


def test_worker_loop_round_trip_over_plain_pair():
    transport = tp.InProcessTransport()
    listener = transport.listen()
    h = _hospital(5, n_train=16)
    arch = ModelArch("lr", input_dim=3)

    import threading

    worker = threading.Thread(
        target=lambda: worker_loop(transport.connect(), h, arch,
                                   TrainConfig(epochs=1, seed=0)),
    )
    worker.start()
    conn = listener.accept()
    assert conn.recv() == tp.Register(5, 16, 12)
    params = init_params(arch, 1)
    conn.send(tp.BroadcastModel(0, params))
    update = conn.recv()
    assert update.hospital_id == 5 and update.round == 0 and update.n_samples == 16
    conn.send(tp.EvalRequest(0, update.params))
    result = conn.recv()
    assert result.hospital_id == 5 and 0.0 <= result.value <= 1.0
    conn.send(tp.Shutdown())
    worker.join(timeout=10)
    conn.close()
    assert not worker.is_alive()


def test_hospital_dataset_validation():
    with pytest.raises(ValueError, match="empty test"):
        HospitalDataset(1, np.zeros((2, 3)), np.zeros(2), np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError, match="mismatch"):
        HospitalDataset(1, np.zeros((2, 3)), np.zeros(3), np.zeros((1, 3)), np.zeros(1))
    for part, train_y, test_y in (("train", [0, 2], [0, 1]), ("test", [0, 1], [1, 2])):
        with pytest.raises(ValueError, match=f"hospital 3: {part} labels must be 0 or 1"):
            HospitalDataset(3, np.zeros((2, 3)), train_y, np.zeros((2, 3)), test_y)
