"""Model-core tests: forward/loss/gradient math, Adam, and the train loop."""

from __future__ import annotations

import numpy as np
import pytest

from fedhosp.models import (
    AdamState,
    ModelArch,
    TrainConfig,
    adam_step,
    cross_entropy,
    forward,
    gradient,
    init_params,
    train,
)

LR2 = ModelArch("lr", input_dim=2)


def test_arch_validation():
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelArch("xgb", input_dim=3)
    with pytest.raises(ValueError, match="input_dim"):
        ModelArch("lr", input_dim=0)
    with pytest.raises(ValueError, match="hidden_dim"):
        ModelArch("mlp", input_dim=3, hidden_dim=0)


def test_parameter_counts():
    assert ModelArch("lr", input_dim=3).n_params == 4
    assert ModelArch("lr", input_dim=294).n_params == 295
    assert ModelArch("mlp", input_dim=294, hidden_dim=50).n_params == 14_801
    assert ModelArch("mlp", input_dim=2, hidden_dim=3).n_params == 2 * 3 + 3 + 3 + 1


def test_init_bias_zero_and_bounds():
    arch = ModelArch("lr", input_dim=3)
    params = init_params(arch, seed=9)
    assert params.shape == (4,)
    assert params[-1] == 0.0
    bound = np.sqrt(6.0 / (3 + 1))
    assert np.all(np.abs(params[:3]) <= bound)

    mlp = ModelArch("mlp", input_dim=5, hidden_dim=4)
    p = init_params(mlp, seed=9)
    assert p.size == mlp.n_params
    # biases b1 and b2 start at zero
    assert np.all(p[20:24] == 0.0)
    assert p[-1] == 0.0


def test_init_deterministic():
    arch = ModelArch("mlp", input_dim=7, hidden_dim=5)
    assert np.array_equal(init_params(arch, seed=3), init_params(arch, seed=3))
    assert not np.array_equal(init_params(arch, seed=3), init_params(arch, seed=4))


def test_forward_lr_examples():
    arch = ModelArch("lr", input_dim=1)
    assert forward(arch, np.zeros(2), [0.7]) == 0.5
    assert forward(arch, np.array([1.0, 0.0]), [0.0]) == 0.5
    # sigmoid(2*1 - 1) = sigmoid(1)
    assert forward(arch, np.array([2.0, -1.0]), [1.0]) == pytest.approx(
        0.7310585786300049, abs=1e-15
    )


def test_forward_mlp_matches_hand_computation():
    arch = ModelArch("mlp", input_dim=2, hidden_dim=2)
    # layout: W1 row-major (2x2), b1 (2), w2 (2), b2
    params = np.array([1.0, -1.0, 0.5, 2.0, 0.0, 0.25, 1.0, -2.0, 0.1])
    x = np.array([1.0, 2.0])
    hidden = np.maximum([1.0 * 1 + 0.5 * 2, -1.0 * 1 + 2.0 * 2 + 0.25], 0.0)
    z = hidden @ np.array([1.0, -2.0]) + 0.1
    expected = 1.0 / (1.0 + np.exp(-z))
    assert forward(arch, params, x) == pytest.approx(expected, rel=1e-15)


def test_forward_batch_and_mismatch():
    params = init_params(LR2, seed=0)
    batch = forward(LR2, params, np.zeros((5, 2)))
    assert batch.shape == (5,)
    assert np.all((batch > 0) & (batch < 1))
    with pytest.raises(ValueError, match="expected 2, got 3"):
        forward(LR2, params, np.zeros(3))


def test_forward_extreme_inputs_stay_in_unit_interval():
    params = np.array([1e4, -1e4, 0.0])
    for x in ([1e3, -1e3], [-1e3, 1e3]):
        p = forward(LR2, params, x)
        assert 0.0 <= p <= 1.0
        assert np.isfinite(p)


def test_cross_entropy_examples():
    assert cross_entropy([0.5], [1]) == pytest.approx(np.log(2.0), abs=1e-15)
    assert cross_entropy([1 - 1e-12], [1]) <= 1e-11
    assert cross_entropy([0.9, 0.1], [1, 0]) == pytest.approx(
        0.10536051565782628, abs=1e-15
    )
    # clamping keeps the loss finite even for hopeless predictions
    assert np.isfinite(cross_entropy([0.0, 1.0], [1, 0]))
    with pytest.raises(ValueError, match="empty"):
        cross_entropy([], [])


def test_gradient_lr_zero_params_single_sample():
    arch = ModelArch("lr", input_dim=1)
    grad = gradient(arch, np.zeros(2), [[1.0]], [1.0])
    # p = 0.5, so dw = (0.5 - 1)*x = -0.5 and db = -0.5, exactly
    assert np.array_equal(grad, np.array([-0.5, -0.5]))


def test_gradient_duplicated_batch_mean_invariance():
    rng = np.random.default_rng(12)
    arch = ModelArch("mlp", input_dim=3, hidden_dim=4)
    params = rng.normal(size=arch.n_params) * 0.5
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, 5).astype(float)
    g1 = gradient(arch, params, x, y)
    g2 = gradient(arch, params, np.vstack([x, x]), np.concatenate([y, y]))
    assert g2 == pytest.approx(g1, rel=1e-12, abs=1e-15)


def _fd_gradient(arch, params, x, y, h=1e-5):
    grad = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up = cross_entropy(forward(arch, bumped, x), y)
        bumped[i] = params[i] - h
        down = cross_entropy(forward(arch, bumped, x), y)
        grad[i] = (up - down) / (2 * h)
    return grad


@pytest.mark.parametrize("kind,input_dim,hidden", [("lr", 4, 0), ("mlp", 3, 5)])
def test_gradient_matches_finite_differences(kind, input_dim, hidden):
    arch = ModelArch(kind, input_dim, hidden_dim=max(hidden, 1))
    rng = np.random.default_rng(77)
    for _ in range(10):
        params = rng.normal(size=arch.n_params) * 0.6
        x = rng.normal(size=(6, input_dim))
        y = rng.integers(0, 2, 6).astype(float)
        analytic = gradient(arch, params, x, y)
        fd = _fd_gradient(arch, params, x, y)
        err = np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))
        assert err < 1e-4


def test_gradient_errors():
    with pytest.raises(ValueError, match="empty batch"):
        gradient(LR2, np.zeros(3), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="feature length mismatch"):
        gradient(LR2, np.zeros(3), np.zeros((2, 5)), np.zeros(2))


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0])
    state = AdamState.fresh(2)
    new_params, new_state = adam_step(params, np.zeros(2), state)
    assert np.array_equal(new_params, params)
    assert new_state.step_count == 1
    assert state.step_count == 0  # input state untouched


def test_adam_step_leaves_every_input_untouched():
    rng = np.random.default_rng(3)
    params, grads = rng.normal(size=50), rng.normal(size=50)
    state = AdamState(m=rng.normal(size=50), v=rng.random(50), step_count=4, lr=0.01)
    before = [a.tobytes() for a in (params, grads, state.m, state.v)]
    new_params, new_state = adam_step(params, grads, state)
    assert [a.tobytes() for a in (params, grads, state.m, state.v)] == before
    assert state.step_count == 4
    for fresh in (new_params, new_state.m, new_state.v):
        assert not any(np.shares_memory(fresh, a) for a in (params, grads, state.m, state.v))


def test_adam_first_step_value():
    new_params, _ = adam_step(np.array([0.0]), np.array([2.0]), AdamState.fresh(1))
    # bias correction makes the first step ~lr * g/(|g| + eps)
    assert new_params[0] == pytest.approx(-0.001 * (2.0 / (2.0 + 1e-8)), abs=1e-14)


def test_adam_equal_gradients_equal_updates():
    new_params, _ = adam_step(np.zeros(2), np.array([0.3, 0.3]), AdamState.fresh(2))
    assert new_params[0] == new_params[1]


def test_adam_validation():
    with pytest.raises(ValueError, match="beta"):
        AdamState(m=np.zeros(1), v=np.zeros(1), beta1=1.0)
    with pytest.raises(ValueError, match="identical length"):
        adam_step(np.zeros(2), np.zeros(3), AdamState.fresh(2))


def _toy_separable(n=40, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    x[y == 1] += 1.5
    x[y == 0] -= 1.5
    return x, y


def test_train_zero_epochs_is_identity():
    x, y = _toy_separable()
    params = init_params(LR2, seed=1)
    out = train(LR2, params, x, y, TrainConfig(epochs=0, seed=0))
    assert np.array_equal(out, params)
    assert out is not params


def test_train_deterministic():
    x, y = _toy_separable()
    cfg = TrainConfig(epochs=3, seed=21)
    a = train(LR2, init_params(LR2, 1), x, y, cfg)
    b = train(LR2, init_params(LR2, 1), x, y, cfg)
    assert np.array_equal(a, b)
    c = train(LR2, init_params(LR2, 1), x, y, TrainConfig(epochs=3, seed=22))
    assert not np.array_equal(a, c)


def test_train_solves_separable_problem():
    x, y = _toy_separable()
    params = train(LR2, init_params(LR2, 1), x, y, TrainConfig(epochs=100, seed=2))
    predictions = (forward(LR2, params, x) >= 0.5).astype(float)
    assert np.mean(predictions == y) == 1.0


def test_train_partial_final_batch_and_no_shuffle():
    x, y = _toy_separable(n=10)  # batch_size 8 leaves a final batch of 2
    cfg = TrainConfig(epochs=2, seed=0, shuffle=False)
    out = train(LR2, np.zeros(3), x, y, cfg)
    assert out.shape == (3,)
    assert np.all(np.isfinite(out))


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        train(LR2, np.zeros(3), np.zeros((0, 2)), np.zeros(0), TrainConfig(epochs=1, seed=0))


# --------------------------------------------------------------------------
# reference implementations: the textbook gradient, Adam update and per-step
# training loop, written out with temporaries. The optimised code must match
# them byte for byte.


def _reference_gradient(arch, params, x, y):
    n = x.shape[0]
    grad = np.empty_like(params)
    if arch.kind == "lr":
        p = 1.0 / (1.0 + np.exp(-np.clip(x @ params[:-1] + params[-1], -500.0, 500.0)))
        delta = (p - y) / n
        grad[:-1] = x.T @ delta
        grad[-1] = delta.sum()
        return grad
    d, h = arch.input_dim, arch.hidden_dim
    w1 = params[: d * h].reshape(d, h)
    b1 = params[d * h : d * h + h]
    w2 = params[d * h + h : d * h + 2 * h]
    z1 = x @ w1 + b1
    hidden = np.maximum(z1, 0.0)
    p = 1.0 / (1.0 + np.exp(-np.clip(hidden @ w2 + params[-1], -500.0, 500.0)))
    delta = (p - y) / n
    d_z1 = np.where(z1 > 0.0, np.outer(delta, w2), 0.0)
    grad[: d * h] = (x.T @ d_z1).reshape(-1)
    grad[d * h : d * h + h] = d_z1.sum(axis=0)
    grad[d * h + h : d * h + 2 * h] = hidden.T @ delta
    grad[-1] = delta.sum()
    return grad


def _reference_adam_step(params, grads, m, v, t, cfg):
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * grads * grads
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    return params - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps), m, v


def _reference_train(arch, params, x, y, cfg):
    params = params.copy()
    m, v = np.zeros(params.size), np.zeros(params.size)
    t = 0
    n = x.shape[0]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            t += 1
            grads = _reference_gradient(arch, params, x[idx], y[idx])
            params, m, v = _reference_adam_step(params, grads, m, v, t, cfg)
    return params


def test_adam_step_matches_reference_bytes():
    rng = np.random.default_rng(8)
    cfg = TrainConfig(epochs=1, seed=0, lr=0.003)
    params = rng.normal(size=300)
    m, v = np.zeros(300), np.zeros(300)
    state = AdamState.fresh(300, lr=cfg.lr)
    for t in range(1, 6):
        grads = rng.normal(size=300) * 10.0 ** rng.integers(-6, 3, 300)
        params_ref, m, v = _reference_adam_step(params, grads, m, v, t, cfg)
        params, state = adam_step(params, grads, state)
        assert params.tobytes() == params_ref.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


@pytest.mark.parametrize("arch", [ModelArch("lr", input_dim=5),
                                  ModelArch("mlp", input_dim=5, hidden_dim=7)],
                         ids=["lr", "mlp"])
@pytest.mark.parametrize("shuffle", [True, False])
def test_train_matches_per_step_reference_bytes(arch, shuffle):
    rng = np.random.default_rng(31)
    n = 13  # a multiple of none of the batch sizes above 1
    x = rng.normal(size=(n, arch.input_dim))
    y = rng.integers(0, 2, n).astype(float)
    start = init_params(arch, 4)
    for batch_size in (1, 3, 8, n, n + 5):
        for epochs in range(4):
            cfg = TrainConfig(epochs=epochs, seed=9, batch_size=batch_size,
                              shuffle=shuffle, lr=0.05)
            out = train(arch, start, x, y, cfg)
            assert out.tobytes() == _reference_train(arch, start, x, y, cfg).tobytes(), \
                (batch_size, epochs)


def test_train_matches_reference_bytes_at_benchmark_width():
    arch = ModelArch("mlp", input_dim=294, hidden_dim=50)
    rng = np.random.default_rng(5)
    x = rng.random(size=(37, arch.input_dim))
    y = rng.integers(0, 2, 37).astype(float)
    cfg = TrainConfig(epochs=2, seed=1)
    start = init_params(arch, 2)
    assert train(arch, start, x, y, cfg).tobytes() == \
        _reference_train(arch, start, x, y, cfg).tobytes()
