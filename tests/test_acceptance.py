"""Acceptance suite: one test per shipped guarantee, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every test covers one numbered guarantee about the package as a whole rather
than a single function; the module tests hold the fine-grained cases.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from fedhosp import transport as tp
from fedhosp.data import (
    PartitionPlan,
    SyntheticConfig,
    generate,
    partition,
    split_train_test,
    variable_names,
)
from fedhosp.experiment import ExperimentConfig, run_comparison
from fedhosp.features import (
    STATS_PER_VARIABLE,
    extract,
    fit_scaler,
    transform,
    window_stats,
)
from fedhosp.federation import (
    FedConfig,
    HospitalDataset,
    aggregate,
    compute_weights,
    run_federation,
)
from fedhosp.metrics import auprc, auroc
from fedhosp.models import (
    ModelArch,
    TrainConfig,
    cross_entropy,
    forward,
    gradient,
    init_params,
    train,
)


def criterion(number, title):
    """Print exactly one [PASS]/[FAIL] verdict line per acceptance test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")

        return run

    return wrap


def _feature_hospitals(n_episodes, n_variables, n_hospitals, seed,
                       effect_size=1.0):
    """Synthetic episodes -> scaled feature shards, one per hospital."""
    episodes = generate(SyntheticConfig(
        n_episodes=n_episodes, n_variables=n_variables,
        effect_size=effect_size, seed=seed,
    ))
    train_eps, test_eps = split_train_test(episodes, 0.2, seed=seed + 1)
    variables = variable_names(n_variables)
    train_fm = extract(train_eps, variables)
    test_fm = extract(test_eps, variables)
    scaler = fit_scaler(train_fm.rows)
    plan = PartitionPlan("equal_iid", n_hospitals=n_hospitals, seed=seed + 2)
    return partition(
        transform(scaler, train_fm.rows), train_fm.labels,
        transform(scaler, test_fm.rows), test_fm.labels, plan,
    )


@criterion(1, "federated AUROC within 0.03 of centralized for LR and MLP")
def test_criterion_1_federated_vs_centralized_gap():
    start = time.perf_counter()
    # One run_comparison per point: the data is prepared once for its four cells.
    shared = dict(n_episodes=2000, n_variables=7, effect_size=1.0,
                  n_hospitals=2, partition_strategy="equal_iid",
                  gate_enabled=False, rounds=100, local_epochs=1,
                  epochs=100, seed=1234)
    cells = run_comparison(ExperimentConfig(**shared))["cells"]
    for model in ("lr", "mlp"):
        central = cells[f"{model}-central"]["auroc"]
        federated = cells[f"{model}-federated"]["auroc"]
        gap = abs(federated - central)
        assert gap <= 0.03, (
            f"{model}: federated {federated:.4f} vs central {central:.4f}, "
            f"gap {gap:.4f} exceeds 0.03"
        )
    # At effect_size 1.0 every cell scores AUROC 0.99995, so the gap above
    # cannot show a loss of quality. This second point is not saturated
    # (central AUROC 0.76-0.86 over seeds 1-23 and 1234). Two local epochs
    # on half the data give a round as many Adam steps as a central epoch;
    # with them the gap stayed within 0.025 on all those 24 seeds.
    unsaturated = dict(n_episodes=1000, n_variables=7, effect_size=0.25,
                       test_fraction=0.5, n_hospitals=2,
                       partition_strategy="equal_iid", gate_enabled=False,
                       rounds=30, local_epochs=2, epochs=30, seed=1234)
    cells = run_comparison(ExperimentConfig(**unsaturated))["cells"]
    for model in ("lr", "mlp"):
        central = cells[f"{model}-central"]["auroc"]
        federated = cells[f"{model}-federated"]["auroc"]
        assert central < 0.9, f"{model}: central AUROC {central:.4f} is near saturation"
        gap = abs(federated - central)
        assert gap <= 0.03, (
            f"{model} at effect 0.25: federated {federated:.4f} vs central "
            f"{central:.4f}, gap {gap:.4f} exceeds 0.03"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"took {elapsed:.0f}s, budget is 300s"


@criterion(2, "single-hospital federation bit-identical to centralized training")
def test_criterion_2_centralized_equivalence():
    hospitals = _feature_hospitals(200, 3, 1, seed=77)
    (h,) = hospitals
    for kind in ("lr", "mlp"):
        arch = ModelArch(kind, input_dim=h.train_x.shape[1], hidden_dim=8)
        fed = FedConfig(n_hospitals=1, rounds=1, local_epochs=3,
                        cohort_fraction=1.0, gate_enabled=False, seed=31)
        state, _ = run_federation([h], arch, fed, TrainConfig(epochs=3, seed=13))
        central = train(arch, init_params(arch, 31), h.train_x, h.train_y,
                        TrainConfig(epochs=3, seed=13))
        assert np.array_equal(state.global_params, central), kind


@criterion(3, "gate keeps best accuracy monotone and reverts under learning_rate=1.0")
def test_criterion_3_gate_monotonicity_with_reverts():
    hospitals = _feature_hospitals(400, 3, 2, seed=5, effect_size=0.6)
    arch = ModelArch("lr", input_dim=hospitals[0].train_x.shape[1])
    fed = FedConfig(n_hospitals=2, rounds=200, local_epochs=1,
                    gate_enabled=True, gate_metric="accuracy", seed=9)
    state, _ = run_federation(hospitals, arch, fed,
                              TrainConfig(epochs=1, seed=11, learning_rate=1.0))
    assert len(state.history) == 200
    best = 0.0
    reverts = 0
    for record in state.history:
        if record.committed:
            assert record.candidate_accuracy >= best
            best = record.candidate_accuracy
        else:
            assert record.candidate_accuracy < best
            reverts += 1
    assert reverts >= 1, "adversarial learning rate never triggered a revert"
    assert state.best_accuracy == best


@criterion(4, "aggregation weights/fixed-point/envelope/order over 10,000 cases")
def test_criterion_4_aggregation_properties():
    rng = np.random.default_rng(2024)
    for case in range(10_000):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 7))
        sizes = rng.integers(1, 1_000_000, size=k)
        weights = compute_weights(sizes)
        assert abs(weights.sum() - 1.0) <= 1e-12

        updates = [rng.normal(scale=10.0, size=d) for _ in range(k)]
        combined = aggregate(updates, weights)

        stacked = np.stack(updates)
        assert np.all(combined >= stacked.min(axis=0))
        assert np.all(combined <= stacked.max(axis=0))

        perm = rng.permutation(k)
        assert np.array_equal(
            aggregate([updates[i] for i in perm], weights[perm]), combined
        )

        same = updates[int(rng.integers(k))]
        assert np.array_equal(aggregate([same] * k, weights), same)


@criterion(5, "AUROC equals pairwise counting on 1,000 small instances; AUPRC oracle")
def test_criterion_5_metric_oracles():
    def pairwise(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        return wins / (len(pos) * len(neg))

    rng = np.random.default_rng(77)
    for case in range(1_000):
        n = int(rng.integers(2, 9))
        n_pos = int(rng.integers(1, n))
        labels = rng.permutation(np.r_[np.ones(n_pos), np.zeros(n - n_pos)])
        scores = rng.integers(0, 5, size=n) / 4.0  # coarse grid forces ties
        assert auroc(scores, labels) == pairwise(scores, labels)

    assert auprc(np.array([0.9, 0.2, 0.8, 0.1]), np.array([1, 0, 1, 0])) == 1.0
    assert auprc(np.array([0.1, 0.9]), np.array([1, 0])) == 0.5
    assert auprc(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1])) == (1 + 2 / 3) / 2
    assert auprc(np.array([0.5, 0.4]), np.array([1, 1])) == 1.0


def _fd_gradient(arch, params, x, y, h=1e-5):
    out = np.empty_like(params)
    for i in range(params.size):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        out[i] = (
            cross_entropy(forward(arch, up, x), y)
            - cross_entropy(forward(arch, down, x), y)
        ) / (2 * h)
    return out


def _mlp_hidden_margin(arch, params, x):
    """Smallest |pre-activation| in the hidden layer over the batch."""
    d, m = arch.input_dim, arch.hidden_dim
    w1 = params[: d * m].reshape(m, d)
    b1 = params[d * m: d * m + m]
    return np.abs(x @ w1.T + b1).min()


@criterion(6, "analytic gradients match finite differences to 1e-4 (100 triples/arch)")
def test_criterion_6_gradient_fidelity():
    rng = np.random.default_rng(321)
    for kind in ("lr", "mlp"):
        done = 0
        while done < 100:
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, 11))
            arch = ModelArch(kind, input_dim=d, hidden_dim=4)
            params = rng.normal(scale=0.5, size=arch.n_params)
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            if y.min() == y.max():
                continue
            if kind == "mlp" and _mlp_hidden_margin(arch, params, x) < 1e-3:
                continue  # too close to a ReLU kink for symmetric differences
            analytic = gradient(arch, params, x, y)
            fd = _fd_gradient(arch, params, x, y)
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-4, f"{kind}: max rel err {rel.max():.2e}"
            done += 1


@criterion(7, "feature width 42*V, documented stats to 1e-9, scaling in [-1,1] exactly")
def test_criterion_7_feature_pipeline():
    for v in (1, 2, 5, 7):
        episodes = generate(SyntheticConfig(n_episodes=30, n_variables=v, seed=v))
        fm = extract(episodes, variable_names(v))
        assert fm.rows.shape == (30, STATS_PER_VARIABLE * v)

    assert np.allclose(
        window_stats([1.0, 2.0, 3.0]),
        (3.0, 1.0, 2.0, 1.0, 0.0, 3.0), atol=1e-9, rtol=0,
    )
    skew_case = window_stats([1.0, 1.0, 2.0])
    assert abs(skew_case[4] - 1 / np.sqrt(2)) <= 1e-9
    assert window_stats([]) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert window_stats([42.0]) == (42.0, 42.0, 42.0, 0.0, 0.0, 1.0)

    episodes = generate(SyntheticConfig(n_episodes=120, n_variables=4, seed=3))
    rows = extract(episodes, variable_names(4)).rows
    scaled = transform(fit_scaler(rows), rows)
    assert np.all(scaled >= -1.0) and np.all(scaled <= 1.0)
    spread = rows.max(axis=0) > rows.min(axis=0)
    assert np.all(scaled.max(axis=0)[spread] == 1.0)
    assert np.all(scaled.min(axis=0)[spread] == -1.0)


@criterion(8, "codec round-trip, documented frames, TCP run bit-identical to in-process")
def test_criterion_8_transport(tcp_federation):
    start = time.perf_counter()

    assert tp.encode(tp.Shutdown()) == bytes.fromhex("0100000006")
    broadcast = tp.encode(tp.BroadcastModel(0, np.array([1.0])))
    assert broadcast == bytes.fromhex(
        "11000000" "02" "00000000" "01000000" "000000000000f03f"
    )
    assert tp.encode(tp.Register(7, 100, 50)) == bytes.fromhex(
        "15000000" "01" "07000000"
        "6400000000000000" "3200000000000000"
    )

    rng = np.random.default_rng(8)

    def params(n):
        return rng.normal(size=int(n))

    for case in range(500):
        msg = [
            tp.Register(int(rng.integers(1, 2**32)), int(rng.integers(2**40)),
                        int(rng.integers(2**40))),
            tp.BroadcastModel(int(rng.integers(2**32)), params(rng.integers(1, 64))),
            tp.LocalUpdate(int(rng.integers(1, 100)), int(rng.integers(100)),
                           int(rng.integers(1, 2**40)), params(rng.integers(1, 64))),
            tp.EvalRequest(int(rng.integers(2**32)), params(rng.integers(1, 64))),
            tp.EvalResult(int(rng.integers(1, 100)), int(rng.integers(100)),
                          float(rng.uniform()), int(rng.integers(1, 2**40))),
            tp.Shutdown(),
        ][case % 6]
        assert tp.decode(tp.encode(msg)) == msg

    def hospitals():
        return _feature_hospitals(150, 2, 2, seed=51)

    arch = ModelArch("lr", input_dim=hospitals()[0].train_x.shape[1])
    fed = FedConfig(n_hospitals=2, rounds=5, local_epochs=1,
                    gate_enabled=True, seed=3)
    cfg = TrainConfig(epochs=1, seed=17)
    in_proc, evals_ip = run_federation(hospitals(), arch, fed, cfg,
                                       tp.InProcessTransport())
    over_tcp, evals_tcp, _ = tcp_federation(hospitals(), arch, fed, cfg)
    assert np.array_equal(in_proc.global_params, over_tcp.global_params)
    assert in_proc.history == over_tcp.history
    assert evals_ip == evals_tcp

    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"took {elapsed:.0f}s, budget is 120s"


@criterion(9, "messages cannot carry rows/labels; wire bytes O(d), free of |D_k|")
def test_criterion_9_privacy_vocabulary():
    allowed = {
        tp.Register: {"hospital_id", "n_train", "n_test"},
        tp.BroadcastModel: {"round", "params"},
        tp.LocalUpdate: {"hospital_id", "round", "n_samples", "params"},
        tp.EvalRequest: {"round", "params"},
        tp.EvalResult: {"hospital_id", "round", "value", "n_test"},
        tp.Shutdown: set(),
    }
    assert set(tp.MESSAGE_TYPES) == set(allowed)
    for cls, names in allowed.items():
        import dataclasses

        assert {f.name for f in dataclasses.fields(cls)} == names

    # parameter vectors are the only array field anywhere, and they must be
    # one-dimensional: a feature matrix (2-D) or a label column rider does not
    # encode.
    with pytest.raises(ValueError):
        tp.LocalUpdate(1, 0, 10, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        tp.BroadcastModel(0, np.zeros((2, 2)))

    def wire_bytes(n_episodes, n_variables):
        hospitals = _feature_hospitals(n_episodes, n_variables, 2, seed=60)
        arch = ModelArch("lr", input_dim=hospitals[0].train_x.shape[1])
        fed = FedConfig(n_hospitals=2, rounds=3, local_epochs=1,
                        gate_enabled=False, seed=1)
        transport = tp.InProcessTransport()
        run_federation(hospitals, arch, fed, TrainConfig(epochs=1, seed=2),
                       transport)
        return transport.total_wire_bytes

    # quadrupling the number of episodes leaves the traffic byte-identical
    assert wire_bytes(40, 1) == wire_bytes(160, 1)
    # traffic grows exactly linearly in the model dimension
    b1, b2, b3 = (wire_bytes(40, v) for v in (1, 2, 3))
    assert b2 - b1 == b3 - b2 > 0
