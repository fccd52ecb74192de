"""The federation's promises, as properties of drawn small federations: the
in-process and TCP routes agree bit for bit, the wire carries exactly the
frames the format implies, the gate's committed value never falls and a
revert keeps the parameters, and one hospital with a full cohort and no gate
trains as sequential ``train`` calls do."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedhosp import transport as tp
from fedhosp.federation import FedConfig, HospitalDataset, run_federation
from fedhosp.models import MODEL_KINDS, ModelArch, TrainConfig, init_params, train


@dataclass(frozen=True)
class Federation:
    hospitals: list
    arch: ModelArch
    fed: FedConfig
    train_cfg: TrainConfig


def _hospital(hospital_id: int, n_train: int, d: int, rng) -> HospitalDataset:
    """Rows of ``d`` columns; the test labels hold both classes, as the auroc gate needs."""
    train_y = rng.integers(0, 2, n_train).astype(float)
    test_y = np.arange(4) % 2.0
    return HospitalDataset(hospital_id, rng.normal(size=(n_train, d)) + train_y[:, None],
                           train_y, rng.normal(size=(4, d)) + test_y[:, None], test_y)


@st.composite
def federations(draw, n_hospitals=st.integers(1, 4), cohort_fraction=st.sampled_from(
        (1.0, 0.5, 0.34, 0.25)), gate=st.sampled_from((None, "accuracy", "auroc"))):
    """A small federation: K hospitals of 2-30 train rows, an LR or MLP of 1-5
    inputs, 1-4 rounds, a cohort, the gate off or on with either metric, a
    batch of 1-64 rows, and a learning rate large enough for the gate to revert."""
    k, d, seed = draw(n_hospitals), draw(st.integers(1, 5)), draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    gate_metric = draw(gate)
    return Federation(
        [_hospital(h, draw(st.integers(2, 30)), d, rng) for h in range(1, k + 1)],
        ModelArch(draw(st.sampled_from(MODEL_KINDS)), input_dim=d, hidden_dim=3),
        FedConfig(k, draw(st.integers(1, 4)), cohort_fraction=draw(cohort_fraction),
                  gate_enabled=gate_metric is not None,
                  gate_metric=gate_metric or "accuracy", seed=seed),
        TrainConfig(epochs=1, seed=seed + 1, batch_size=draw(st.integers(1, 64)),
                    learning_rate=draw(st.sampled_from((1e-3, 0.1, 1.0)))))


def _frame_bytes(n_params: int) -> dict[str, int]:
    """Frame sizes from the documented wire format (4-byte prefix included)."""
    vec = 4 + 8 * n_params
    return {"register": 4 + 1 + 4 + 8 + 8, "broadcast": 4 + 1 + 4 + vec,
            "update": 4 + 1 + 4 + 4 + 8 + vec, "eval_request": 4 + 1 + 4 + vec,
            "eval_result": 4 + 1 + 4 + 4 + 8 + 8, "shutdown": 4 + 1}


def _expected_wire_bytes(n_params: int, k: int, cohorts) -> int:
    """Register and Shutdown per hospital; per round, a broadcast and an update
    per cohort hospital, then an eval request and result per hospital."""
    f = _frame_bytes(n_params)
    return k * (f["register"] + f["shutdown"]) + sum(
        len(c) * (f["broadcast"] + f["update"]) + k * (f["eval_request"] + f["eval_result"])
        for c in cohorts)


# The tcp_federation fixture is a stateless function factory: one per example is not needed.
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(federations())
def test_in_process_and_tcp_runs_agree_on_the_frames_the_format_implies(tcp_federation, f):
    in_process = tp.InProcessTransport()
    state, evals = run_federation(f.hospitals, f.arch, f.fed, f.train_cfg, in_process)
    over_tcp, evals_tcp, tcp = tcp_federation(f.hospitals, f.arch, f.fed, f.train_cfg)
    assert np.array_equal(state.global_params, over_tcp.global_params)
    assert state.history == over_tcp.history
    assert evals == evals_tcp
    expected = _expected_wire_bytes(f.arch.n_params, len(f.hospitals),
                                    [r.cohort for r in state.history])
    assert in_process.total_wire_bytes == tcp.total_wire_bytes == expected
    if f.fed.gate_enabled:  # the best gate value never falls; a revert keeps the parameters
        committed = [r.candidate_accuracy for r in state.history if r.committed]
        assert committed == sorted(committed) and state.history[0].committed
        assert all(evals[r] == evals[r - 1] for r, rec in enumerate(state.history)
                   if not rec.committed)


@settings(max_examples=20, deadline=None)
@given(federations(n_hospitals=st.just(1), cohort_fraction=st.just(1.0), gate=st.just(None)))
def test_one_hospital_without_the_gate_trains_as_sequential_train_calls(f):
    state, _ = run_federation(f.hospitals, f.arch, f.fed, f.train_cfg)
    (h,) = f.hospitals
    params = init_params(f.arch, f.fed.seed)
    for r in range(f.fed.rounds):
        cfg = replace(f.train_cfg, epochs=f.fed.local_epochs, seed=f.train_cfg.seed + r)
        params = train(f.arch, params, h.train_x, h.train_y, cfg)
    assert np.array_equal(state.global_params, params)
