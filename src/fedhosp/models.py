"""Binary classifiers on flat parameter vectors, trained with mini-batch Adam.

Two model families are supported: logistic regression and a one-hidden-layer
MLP with ReLU activation. All parameters of a model live in a single 1-D
float64 vector so they can be averaged coordinate-wise and shipped between
processes without any knowledge of the layer structure. Layouts:

    lr:  [w (input_dim), b]
    mlp: [W1 (input_dim * hidden_dim, row-major), b1 (hidden_dim),
          w2 (hidden_dim), b2]

Every function here is pure: inputs are never mutated, and results depend
only on the arguments (including seeds), so values can be used freely from
multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ModelArch",
    "AdamState",
    "TrainConfig",
    "init_params",
    "forward",
    "cross_entropy",
    "gradient",
    "adam_step",
    "train",
]

# Predicted probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP]
# inside the loss so it stays finite for saturated sigmoids.
PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class ModelArch:
    """Classifier family plus the dimensions that fix its parameter count.

    ``hidden_dim`` is only meaningful for ``kind="mlp"``.
    """

    kind: str
    input_dim: int
    hidden_dim: int = 50

    def __post_init__(self) -> None:
        if self.kind not in ("lr", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}; expected 'lr' or 'mlp'")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1 for mlp, got {self.hidden_dim}")

    @property
    def n_params(self) -> int:
        if self.kind == "lr":
            return self.input_dim + 1
        return self.input_dim * self.hidden_dim + 2 * self.hidden_dim + 1


def _check_params(arch: ModelArch, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.size != arch.n_params:
        raise ValueError(
            f"parameter length mismatch for {arch.kind}: "
            f"expected {arch.n_params}, got {params.size}"
        )
    return params


def _unpack_mlp(arch: ModelArch, params: np.ndarray):
    d, h = arch.input_dim, arch.hidden_dim
    w1 = params[: d * h].reshape(d, h)
    b1 = params[d * h : d * h + h]
    w2 = params[d * h + h : d * h + 2 * h]
    b2 = params[d * h + 2 * h]
    return w1, b1, w2, b2


def init_params(arch: ModelArch, seed: int) -> np.ndarray:
    """Glorot-uniform weights, zero biases; deterministic in (arch, seed)."""
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.n_params)
    if arch.kind == "lr":
        bound = np.sqrt(6.0 / (arch.input_dim + 1))
        params[: arch.input_dim] = rng.uniform(-bound, bound, arch.input_dim)
    else:
        d, h = arch.input_dim, arch.hidden_dim
        bound1 = np.sqrt(6.0 / (d + h))
        bound2 = np.sqrt(6.0 / (h + 1))
        params[: d * h] = rng.uniform(-bound1, bound1, d * h)
        params[d * h + h : d * h + 2 * h] = rng.uniform(-bound2, bound2, h)
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() in range; saturation error is far below 1e-200.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def forward(arch: ModelArch, params: np.ndarray, x) -> float | np.ndarray:
    """Predicted probability of the positive class.

    ``x`` may be a single feature vector (returns a float) or a matrix of
    shape (n, input_dim) (returns an array of n probabilities).
    """
    params = _check_params(arch, params)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != arch.input_dim:
        raise ValueError(
            f"feature length mismatch: expected {arch.input_dim}, got {x2.shape[1]}"
        )
    if arch.kind == "lr":
        z = x2 @ params[: arch.input_dim] + params[arch.input_dim]
    else:
        w1, b1, w2, b2 = _unpack_mlp(arch, params)
        hidden = np.maximum(x2 @ w1 + b1, 0.0)
        z = hidden @ w2 + b2
    p = _sigmoid(z)
    return float(p[0]) if single else p


def cross_entropy(probs, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped for finiteness."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0:
        raise ValueError("cross_entropy of empty input is undefined")
    if p.shape != y.shape:
        raise ValueError(f"probs and labels disagree in length: {p.shape} vs {y.shape}")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def gradient(arch: ModelArch, params: np.ndarray, batch_x, batch_y) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy over one batch.

    Returns a flat vector with the same layout as ``params``.
    """
    params = _check_params(arch, params)
    x = np.atleast_2d(np.asarray(batch_x, dtype=np.float64))
    y = np.asarray(batch_y, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    if n == 0:
        raise ValueError("gradient of an empty batch is undefined")
    if x.shape[1] != arch.input_dim:
        raise ValueError(
            f"feature length mismatch: expected {arch.input_dim}, got {x.shape[1]}"
        )
    if y.size != n:
        raise ValueError(f"batch size mismatch: {n} rows vs {y.size} labels")

    grad = np.empty_like(params)
    if arch.kind == "lr":
        p = _sigmoid(x @ params[: arch.input_dim] + params[arch.input_dim])
        delta = (p - y) / n
        np.matmul(x.T, delta, out=grad[: arch.input_dim])
        grad[arch.input_dim] = delta.sum()
    else:
        d, h = arch.input_dim, arch.hidden_dim
        w1, b1, w2, _ = _unpack_mlp(arch, params)
        z1 = x @ w1 + b1
        hidden = np.maximum(z1, 0.0)
        p = _sigmoid(hidden @ w2 + params[-1])
        delta = (p - y) / n
        d_hidden = np.outer(delta, w2)
        d_z1 = np.where(z1 > 0.0, d_hidden, 0.0)
        np.matmul(x.T, d_z1, out=grad[: d * h].reshape(d, h))
        grad[d * h : d * h + h] = d_z1.sum(axis=0)
        np.matmul(hidden.T, delta, out=grad[d * h + h : d * h + 2 * h])
        grad[-1] = delta.sum()
    return grad


@dataclass(frozen=True)
class AdamState:
    """Adam moment estimates plus hyperparameters. Immutable; steps return a new state."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie strictly between 0 and 1")
        if self.lr <= 0.0 or self.eps <= 0.0:
            raise ValueError("lr and eps must be positive")
        if self.m.shape != self.v.shape:
            raise ValueError("moment vectors must have identical shape")

    @classmethod
    def fresh(cls, n_params: int, *, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: np.ndarray, grads: np.ndarray,
              state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns (new params, new state).

    Pure: ``params``, ``grads`` and ``state`` are left untouched. The call
    allocates the three arrays it returns (new params, new ``m``, new ``v``)
    and one scratch array; every other step runs in place, in the float
    operation order of the textbook formula
    ``params - lr * m_hat / (sqrt(v_hat) + eps)``, so results are bit for
    bit those of the expression written out with temporaries.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads and Adam moments must have identical length")
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    scratch = np.multiply(grads, 1.0 - b1)
    m = np.multiply(state.m, b1)
    m += scratch                                  # b1*m + (1-b1)*g
    np.multiply(grads, 1.0 - b2, out=scratch)
    scratch *= grads
    v = np.multiply(state.v, b2)
    v += scratch                                  # b2*v + ((1-b2)*g)*g
    new_params = np.divide(m, 1.0 - b1**t)
    new_params *= state.lr                        # lr * m_hat
    np.divide(v, 1.0 - b2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.eps                          # sqrt(v_hat) + eps
    new_params /= scratch
    np.subtract(params, new_params, out=new_params)
    return new_params, replace(state, m=m, v=v, step_count=t)


@dataclass(frozen=True)
class TrainConfig:
    """Local training hyperparameters.

    ``seed`` drives a dedicated shuffle generator, so training order never
    depends on any other randomness in the program.
    """

    epochs: int
    seed: int
    batch_size: int = 8
    shuffle: bool = True
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def train(arch: ModelArch, params: np.ndarray, x, y, cfg: TrainConfig) -> np.ndarray:
    """Run ``cfg.epochs`` passes of shuffled mini-batch Adam over (x, y).

    A fresh optimizer state is created per call; nothing is carried across
    calls except the returned parameters. Deterministic in
    (params, x, y, cfg).
    """
    params = _check_params(arch, params).copy()
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if y.size != n:
        raise ValueError(f"dataset size mismatch: {n} rows vs {y.size} labels")

    state = AdamState.fresh(params.size, lr=cfg.lr, beta1=cfg.beta1,
                            beta2=cfg.beta2, eps=cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_x, epoch_y = x[order], y[order]
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            grads = gradient(arch, params, epoch_x[start:stop], epoch_y[start:stop])
            params, state = adam_step(params, grads, state)
    return params
