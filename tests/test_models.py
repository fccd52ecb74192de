"""Model-core tests: forward/loss/gradient math, Adam, and the train loop."""

from __future__ import annotations

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from fedhosp.models import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
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
    with pytest.raises(ValueError, match=r"^kind must be one of \('lr', 'mlp'\), got 'xgb'$"):
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
    for bad in (np.zeros(4), np.zeros((1, 3))):
        with pytest.raises(ValueError, match=f"^parameter length mismatch for lr: expected 3, "
                                             f"got {bad.size}$"):
            forward(LR2, bad, np.zeros(2))


def test_forward_extreme_inputs_stay_in_unit_interval():
    params = np.array([1e4, -1e4, 0.0])
    for x in ([1e3, -1e3], [-1e3, 1e3]):
        p = forward(LR2, params, x)
        assert 0.0 <= p <= 1.0
        assert np.isfinite(p)


def test_sigmoid_clamp_matches_np_clip_bytes():
    from fedhosp.models import _sigmoid

    z = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 500.0, -500.0, 500.5, -500.5,
                  np.nextafter(500.0, 0.0), 745.2, -745.2, 37.0, -37.0, 1e-300, 5e-324,
                  600.0, 709.0, 746.0, 800.0])
    expected = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    assert _sigmoid(z).tobytes() == expected.tobytes()


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
    with pytest.raises(ValueError,
                       match=r"^probs and labels disagree in length: \(2,\) vs \(3,\)$"):
        cross_entropy([0.5, 0.5], [1, 0, 1])


def test_gradient_lr_zero_params_single_sample():
    arch = ModelArch("lr", input_dim=1)
    grad = gradient(arch, np.zeros(2), [[1.0]], [1.0])
    # p = 0.5, so dw = (0.5 - 1)*x = -0.5 and db = -0.5, exactly
    assert np.array_equal(grad, np.array([-0.5, -0.5]))
    out = np.full(2, np.nan)
    assert gradient(arch, np.zeros(2), [[1.0]], [1.0], out=out) is out
    assert np.array_equal(out, np.array([-0.5, -0.5]))


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
    with pytest.raises(ValueError, match="^row and label counts differ: 2 rows vs 3 labels$"):
        gradient(LR2, np.zeros(3), np.zeros((2, 2)), np.zeros(3))
    for bad_out in (np.zeros(4), np.zeros(3, dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be"):
            gradient(LR2, np.zeros(3), np.zeros((2, 2)), np.zeros(2), out=bad_out)


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0])
    state = AdamState(2)
    adam_step(params, np.zeros(2), state, TrainConfig(epochs=1, seed=0))
    assert np.array_equal(params, [1.0, -2.0])
    assert state.step_count == 1


def test_adam_step_updates_in_place_and_reads_grads_only():
    rng = np.random.default_rng(3)
    cfg = TrainConfig(epochs=1, seed=0, learning_rate=0.01)
    params, grads = rng.normal(size=50), rng.normal(size=50)
    state = AdamState(50)
    state.m[:], state.v[:], state.step_count = rng.normal(size=50), rng.random(50), 4
    m, v = state.m, state.v
    expected, m_ref, v_ref = _reference_adam_step(params, grads, m.copy(), v.copy(), 5, cfg)
    grads_before = grads.tobytes()
    assert adam_step(params, grads, state, cfg) is None
    assert state.m is m and state.v is v
    assert params.tobytes() == expected.tobytes()
    assert m.tobytes() == m_ref.tobytes() and v.tobytes() == v_ref.tobytes()
    assert grads.tobytes() == grads_before
    assert state.step_count == 5


def test_adam_first_step_value():
    params = np.array([0.0])
    adam_step(params, np.array([2.0]), AdamState(1), TrainConfig(epochs=1, seed=0))
    # bias correction makes the first step ~lr * g/(|g| + eps)
    assert params[0] == pytest.approx(-0.001 * (2.0 / (2.0 + 1e-8)), abs=1e-14)


def test_adam_equal_gradients_equal_updates():
    params = np.zeros(2)
    adam_step(params, np.array([0.3, 0.3]), AdamState(2), TrainConfig(epochs=1, seed=0))
    assert params[0] == params[1]


def test_adam_constants_are_kingma_and_bas_defaults():
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert [f.name for f in fields(TrainConfig)] == ["epochs", "seed", "batch_size",
                                                     "learning_rate"]


def test_adam_validation():
    with pytest.raises(ValueError, match="identical length"):
        adam_step(np.zeros(2), np.zeros(3), AdamState(2), TrainConfig(epochs=1, seed=0))
    with pytest.raises(ValueError, match="identical length"):
        adam_step(np.zeros(3), np.zeros(3), AdamState(2), TrainConfig(epochs=1, seed=0))


@pytest.mark.parametrize("bad", [0.0, -1e-3])
def test_train_config_rejects_a_learning_rate_that_is_not_positive(bad):
    with pytest.raises(ValueError, match=f"^learning_rate must be positive, got {bad}$"):
        TrainConfig(epochs=1, seed=0, learning_rate=bad)


@pytest.mark.parametrize("field, bad, message", [
    ("epochs", 1.5, "epochs must be int, got 1.5"),
    ("epochs", True, "epochs must be int, got True"),
    ("epochs", -1, "epochs must be >= 0, got -1"),
    ("seed", 1.5, "seed must be int, got 1.5"),
    ("seed", np.int64(2), f"seed must be int, got {np.int64(2)!r}"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("batch_size", 2.5, "batch_size must be int, got 2.5"),
    ("batch_size", False, "batch_size must be int, got False"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
])
def test_train_config_rejects_a_count_or_seed_that_is_not_an_int_in_range(field, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{"epochs": 1, "seed": 0, field: bad})


def test_train_config_rejects_an_infinite_learning_rate():
    with pytest.raises(ValueError, match="^learning_rate must be finite, got inf$"):
        TrainConfig(epochs=1, seed=0, learning_rate=math.inf)


@pytest.mark.parametrize("kind, dims, message", [
    ("lr", {"input_dim": True}, "input_dim must be int, got True"),
    ("lr", {"input_dim": 2.5}, "input_dim must be int, got 2.5"),
    ("lr", {"input_dim": 0}, "input_dim must be >= 1, got 0"),
    ("mlp", {"input_dim": 2.5}, "input_dim must be int, got 2.5"),
    ("mlp", {"input_dim": 3, "hidden_dim": 2.5}, "hidden_dim must be int, got 2.5"),
    ("mlp", {"input_dim": 3, "hidden_dim": False}, "hidden_dim must be int, got False"),
    ("mlp", {"input_dim": 3, "hidden_dim": 0}, "hidden_dim must be >= 1, got 0"),
])
def test_arch_rejects_a_dimension_that_is_not_an_int_in_range(kind, dims, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelArch(kind, **dims)


def test_arch_checks_hidden_dim_for_mlp_only():
    # an lr arch ignores hidden_dim's range, not its type
    assert ModelArch("lr", input_dim=3, hidden_dim=0).n_params == 4
    with pytest.raises(ValueError, match="^hidden_dim must be int, got 2.5$"):
        ModelArch("lr", input_dim=3, hidden_dim=2.5)


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


def test_train_partial_final_batch():
    x, y = _toy_separable(n=10)  # batch_size 8 leaves a final batch of 2
    cfg = TrainConfig(epochs=2, seed=0)
    out = train(LR2, np.zeros(3), x, y, cfg)
    assert out.shape == (3,)
    assert np.all(np.isfinite(out))


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        train(LR2, np.zeros(3), np.zeros((0, 2)), np.zeros(0), TrainConfig(epochs=1, seed=0))


# --------------------------------------------------------------------------
# reference implementations: Glorot initialisation, the forward pass, the
# textbook gradient, the Adam update in its documented float order and the
# per-step training loop, written out with temporaries. The optimised code
# must match them byte for byte. The textbook Adam update is a second
# oracle, matched within TEXTBOOK_RTOL.


def _reference_init_params(arch, seed):
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.n_params)
    d = arch.input_dim
    if arch.kind == "lr":
        bound = np.sqrt(6.0 / (d + 1))
        params[:d] = rng.uniform(-bound, bound, d)
        return params
    h = arch.hidden_dim
    bound1 = np.sqrt(6.0 / (d + h))
    bound2 = np.sqrt(6.0 / (h + 1))
    params[: d * h] = rng.uniform(-bound1, bound1, d * h)
    params[d * h + h : d * h + 2 * h] = rng.uniform(-bound2, bound2, h)
    return params


def _reference_forward(arch, params, x):
    x = np.atleast_2d(x)
    if arch.kind == "lr":
        z = x @ params[:-1] + params[-1]
    else:
        d, h = arch.input_dim, arch.hidden_dim
        w1 = params[: d * h].reshape(d, h)
        b1 = params[d * h : d * h + h]
        w2 = params[d * h + h : d * h + 2 * h]
        z = np.maximum(x @ w1 + b1, 0.0) @ w2 + params[-1]
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


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
    # Kingma & Ba's efficient order: both bias corrections in one scalar.
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads * grads
    r = math.sqrt(1.0 - ADAM_BETA2**t)
    alpha = cfg.learning_rate * r / (1.0 - ADAM_BETA1**t)
    return params - m / (np.sqrt(v) + ADAM_EPS * r) * alpha, m, v


def _textbook_adam_update(m, v, t, cfg):
    """lr * m_hat / (sqrt(v_hat) + eps) from the already-updated moments."""
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _reference_train(arch, params, x, y, cfg):
    params = params.copy()
    m, v = np.zeros(params.size), np.zeros(params.size)
    t = 0
    n = x.shape[0]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            t += 1
            grads = _reference_gradient(arch, params, x[idx], y[idx])
            params, m, v = _reference_adam_step(params, grads, m, v, t, cfg)
    return params


@pytest.mark.parametrize("arch", [ModelArch("lr", input_dim=5),
                                  ModelArch("mlp", input_dim=5, hidden_dim=7),
                                  ModelArch("lr", input_dim=294),
                                  ModelArch("mlp", input_dim=294, hidden_dim=50)],
                         ids=["lr", "mlp", "lr-294", "mlp-294x50"])
def test_init_params_and_forward_match_reference_bytes(arch):
    x = np.random.default_rng(6).normal(size=(37, arch.input_dim))
    for seed in range(3):
        params = init_params(arch, seed)
        assert params.tobytes() == _reference_init_params(arch, seed).tobytes()
        expected = _reference_forward(arch, params, x)
        assert forward(arch, params, x).tobytes() == expected.tobytes()
        assert forward(arch, params, x[0]) == _reference_forward(arch, params, x[0])[0]


def test_adam_step_matches_reference_bytes():
    rng = np.random.default_rng(8)
    cfg = TrainConfig(epochs=1, seed=0, learning_rate=0.003)
    params = rng.normal(size=300)
    m, v = np.zeros(300), np.zeros(300)
    state = AdamState(300)
    for t in range(1, 8):
        grads = rng.normal(size=300) * 10.0 ** rng.integers(-6, 3, 300)
        params_ref, m, v = _reference_adam_step(params, grads, m, v, t, cfg)
        adam_step(params, grads, state, cfg)
        assert params.tobytes() == params_ref.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        assert state.step_count == t


# The efficient order rounds differently from the textbook one. Over 4,000
# steps drawn as below the worst relative gap was 6.7e-16 (3 ulp); the bound
# is 18 ulp. Dropping the r in eps * r breaks it.
TEXTBOOK_RTOL = 4e-15


def test_adam_update_stays_within_rtol_of_the_textbook_formula():
    rng = np.random.default_rng(14)
    n = 300
    for _ in range(200):
        cfg = TrainConfig(epochs=1, seed=0, learning_rate=10.0 ** rng.uniform(-5, -1))
        t = int(rng.integers(1, 5001))
        state = AdamState(n)
        state.m[:] = rng.normal(size=n) * 10.0 ** rng.integers(-8, 4, n)
        state.v[:] = state.m**2 * 10.0 ** rng.uniform(0.0, 3.0, n)
        state.step_count = t - 1
        grads = rng.normal(size=n) * 10.0 ** rng.integers(-8, 4, n)
        m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
        v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
        params = np.zeros(n)  # 0 - update is exact, so params holds -update
        adam_step(params, grads, state, cfg)
        expected = _textbook_adam_update(m, v, t, cfg)
        np.testing.assert_allclose(-params, expected, rtol=TEXTBOOK_RTOL, atol=0.0)


@pytest.mark.parametrize("arch", [ModelArch("lr", input_dim=5),
                                  ModelArch("mlp", input_dim=5, hidden_dim=7)],
                         ids=["lr", "mlp"])
def test_train_matches_per_step_reference_bytes(arch):
    rng = np.random.default_rng(31)
    n = 13  # a multiple of none of the batch sizes above 1
    x = rng.normal(size=(n, arch.input_dim))
    y = rng.integers(0, 2, n).astype(float)
    start = init_params(arch, 4)
    for batch_size in (1, 3, 8, n, n + 5):
        for epochs in range(4):
            cfg = TrainConfig(epochs=epochs, seed=9, batch_size=batch_size, learning_rate=0.05)
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


# --------------------------------------------------------------------------
# the workspace and the step count


def _shard(arch, n=13, seed=31):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, arch.input_dim))
    y = rng.integers(0, 2, n).astype(float)
    return x, y


ARCHS = [ModelArch("lr", input_dim=5), ModelArch("mlp", input_dim=5, hidden_dim=7)]


@pytest.mark.parametrize("arch", ARCHS, ids=["lr", "mlp"])
def test_train_with_a_shared_workspace_matches_fresh_state(arch):
    x, y = _shard(arch)
    cfg_a = TrainConfig(epochs=3, seed=4, batch_size=3, learning_rate=0.05)
    cfg_b = TrainConfig(epochs=2, seed=5, batch_size=4, learning_rate=0.02)
    fresh_a = train(arch, init_params(arch, 1), x, y, cfg_a)
    fresh_b = train(arch, fresh_a, x[::-1], y[::-1], cfg_b)
    workspace = AdamState(arch.n_params)
    shared_a = train(arch, init_params(arch, 1), x, y, cfg_a, workspace)
    assert workspace.step_count == 15
    shared_b = train(arch, shared_a, x[::-1], y[::-1], cfg_b, workspace)
    assert shared_a.tobytes() == fresh_a.tobytes()
    assert shared_b.tobytes() == fresh_b.tobytes()
    with pytest.raises(ValueError, match="workspace is for"):
        train(arch, init_params(arch, 1), x, y, cfg_a, AdamState(arch.n_params + 1))


@pytest.mark.parametrize("arch", ARCHS, ids=["lr", "mlp"])
@pytest.mark.parametrize("with_workspace", [False, True])
def test_train_leaves_inputs_untouched_and_returns_unshared_params(arch, with_workspace):
    x, y = _shard(arch)
    params = init_params(arch, 2)
    before = [a.tobytes() for a in (params, x, y)]
    workspace = AdamState(arch.n_params) if with_workspace else None
    for epochs in (0, 2):
        out = train(arch, params, x, y, TrainConfig(epochs=epochs, seed=1, learning_rate=0.1),
                    workspace)
        assert [a.tobytes() for a in (params, x, y)] == before
        others = [params, x, y]
        if workspace is not None:
            others += [workspace.m, workspace.v, workspace.grad, workspace._step]
        assert not any(np.shares_memory(out, a) for a in others)


@pytest.mark.parametrize("arch", ARCHS, ids=["lr", "mlp"])
def test_train_calls_gradient_and_adam_step_once_per_step(monkeypatch, arch):
    """The benchmark counts training steps by wrapping these two names."""
    from fedhosp import models

    calls = {"gradient": 0, "adam_step": 0}

    def counted(name):
        original = getattr(models, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(models, name, counted(name))
    x, y = _shard(arch)
    for batch_size in (1, 4, 13, 20):
        for epochs in (0, 1, 3):
            calls.update(gradient=0, adam_step=0)
            models.train(arch, init_params(arch, 1), x, y,
                         TrainConfig(epochs=epochs, seed=2, batch_size=batch_size))
            steps = epochs * math.ceil(len(y) / batch_size)
            assert calls == {"gradient": steps, "adam_step": steps}, (batch_size, epochs)


def test_a_training_step_allocates_no_parameter_sized_array():
    import tracemalloc

    arch = ModelArch("mlp", input_dim=294, hidden_dim=50)
    x, y = _shard(arch, n=8)
    params = init_params(arch, 3)
    workspace = AdamState(arch.n_params)
    cfg = TrainConfig(epochs=1, seed=0)

    def step():
        gradient(arch, params, x, y, out=workspace.grad)
        adam_step(params, workspace.grad, workspace, cfg)

    step()  # warm-up: lazy set-up inside numpy is not the step's
    tracemalloc.start()
    try:
        for _ in range(5):
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            step()
            _, peak = tracemalloc.get_traced_memory()
            assert peak - held < params.nbytes, (peak - held, params.nbytes)
    finally:
        tracemalloc.stop()
