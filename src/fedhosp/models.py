"""Binary classifiers on flat parameter vectors, trained with mini-batch Adam.

Two model families are supported: a one-hidden-layer MLP with ReLU
activation, and logistic regression, which is that MLP without its hidden
layer. All parameters of a model live in a single 1-D float64 vector so they
can be averaged coordinate-wise and shipped between processes without any
knowledge of the layer structure. ``_layers`` is the one statement of the
layouts; parameters and gradients are read through its views:

    lr:  [w (input_dim), b]
    mlp: [W1 (input_dim * hidden_dim, row-major), b1 (hidden_dim),
          w2 (hidden_dim), b2]

Every function here except ``adam_step`` is pure: inputs are never mutated,
and results depend only on the arguments (including seeds), so values can be
used freely from multiple threads. ``adam_step`` updates the parameters and
an ``AdamState`` workspace in place, and ``gradient`` can write into a
buffer the caller passes; ``train`` runs them on its own copy of the
parameters, so it stays pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import MAX_PARAMS, check_fields

__all__ = [
    "MAX_PARAMS",
    "MODEL_KINDS",
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
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

MODEL_KINDS = ("lr", "mlp")
# Adam's beta1, beta2 and eps for every model: Kingma & Ba's defaults (arXiv 1412.6980).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class ModelArch:
    """Classifier family plus the dimensions that fix its parameter count.

    ``hidden_dim`` is only meaningful for ``kind="mlp"``.
    """

    kind: str
    input_dim: int
    hidden_dim: int = 50

    def __post_init__(self) -> None:
        check_fields(self, kind=MODEL_KINDS, input_dim=1,
                     **({"hidden_dim": 1} if self.kind == "mlp" else {}))
        if self.n_params > MAX_PARAMS:
            raise ValueError(
                f"{self.kind} with input_dim {self.input_dim} and hidden_dim "
                f"{self.hidden_dim} has {self.n_params:,} parameters, more than "
                f"MAX_PARAMS = {MAX_PARAMS:,}"
            )

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


def _check_rows(arch: ModelArch, x, y=None):
    """``x`` as a float64 matrix of ``arch.input_dim`` columns; with labels, at
    least one row and ``y`` as a flat float64 vector of one label per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:  # np.atleast_2d's result, at a fraction of its call cost
        x = x.reshape(1, -1)
    if x.shape[1] != arch.input_dim:
        raise ValueError(
            f"feature length mismatch: expected {arch.input_dim}, got {x.shape[1]}"
        )
    if y is None:
        return x, None
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] == 0:
        raise ValueError("cannot learn from an empty batch")
    if y.size != x.shape[0]:
        raise ValueError(f"row and label counts differ: {x.shape[0]} rows vs {y.size} labels")
    return x, y


def _layers(arch: ModelArch, vec: np.ndarray):
    """Views of a vector in the parameter layout: the hidden layer ``(W1, b1)``,
    or None for lr, and the output weights. The output bias is ``vec[-1]``."""
    if arch.kind == "lr":
        return None, vec[:-1]
    d, h = arch.input_dim, arch.hidden_dim
    return (vec[: d * h].reshape(d, h), vec[d * h : d * h + h]), vec[d * h + h : -1]


def init_params(arch: ModelArch, seed: int) -> np.ndarray:
    """Glorot-uniform weights, zero biases; deterministic in (arch, seed)."""
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.n_params)
    hidden, w_out = _layers(arch, params)
    if hidden is not None:
        bound = np.sqrt(6.0 / (arch.input_dim + arch.hidden_dim))
        hidden[0][:] = rng.uniform(-bound, bound, hidden[0].shape)
    bound = np.sqrt(6.0 / (w_out.size + 1))
    w_out[:] = rng.uniform(-bound, bound, w_out.size)
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clamping z below keeps exp(-z) in range; saturation error is far below 1e-200.
    # Above, none is needed: from z of about 36.7, 1 + exp(-z) rounds to 1.0, as at
    # 500, so these are np.clip(z, -500, 500)'s bytes, NaN and +-inf included.
    return 1.0 / (1.0 + np.exp(-np.maximum(z, -500.0)))


def forward(arch: ModelArch, params: np.ndarray, x) -> float | np.ndarray:
    """Predicted probability of the positive class.

    ``x`` may be a single feature vector (returns a float) or a matrix of
    shape (n, input_dim) (returns an array of n probabilities).
    """
    params = _check_params(arch, params)
    single = np.ndim(x) == 1
    x, _ = _check_rows(arch, x)
    hidden, w_out = _layers(arch, params)
    if hidden is not None:
        x = np.maximum(x @ hidden[0] + hidden[1], 0.0)
    p = _sigmoid(x @ w_out + params[-1])
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


def gradient(arch: ModelArch, params: np.ndarray, batch_x, batch_y,
             out: np.ndarray | None = None) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy over one batch.

    Returns a flat vector with the same layout as ``params``: ``out`` when
    given (a float64 vector of that length, overwritten), else a new one.
    """
    params = _check_params(arch, params)
    x, y = _check_rows(arch, batch_x, batch_y)
    grad = np.empty_like(params) if out is None else out
    if grad.shape != params.shape or grad.dtype != np.float64:
        raise ValueError(f"out must be a float64 vector of {params.size} elements")

    hidden, w_out = _layers(arch, params)
    g_hidden, g_out = _layers(arch, grad)
    a = x  # the output unit's input
    if hidden is not None:
        z1 = x @ hidden[0] + hidden[1]
        a = np.maximum(z1, 0.0)
    delta = (_sigmoid(a @ w_out + params[-1]) - y) / x.shape[0]
    if hidden is not None:
        d_z1 = np.where(z1 > 0.0, np.outer(delta, w_out), 0.0)
        np.matmul(x.T, d_z1, out=g_hidden[0])
        g_hidden[1][:] = d_z1.sum(axis=0)
    np.matmul(a.T, delta, out=g_out)
    grad[-1] = delta.sum()
    return grad


class AdamState:
    """Adam workspace for one parameter length: moments, step count, buffers.

    Mutable: ``adam_step`` advances it in place, ``reset`` returns it to a
    fresh state. ``grad`` is where ``train`` has ``gradient`` write each
    step's gradient; one more vector is ``adam_step``'s scratch. A
    workspace serves one caller at a time, so give each thread its own.
    """

    def __init__(self, n_params: int):
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.step_count = 0
        self.grad = np.zeros(n_params)
        self._step = np.empty(n_params)

    def reset(self) -> None:
        """Zero the moments and the step count, as for a new optimizer."""
        self.m.fill(0.0)
        self.v.fill(0.0)
        self.step_count = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of ``params`` at ``cfg.learning_rate``, in place.

    Overwrites ``params``, ``state.m`` and ``state.v`` and advances
    ``state.step_count``; ``grads`` is only read. Allocates no vector: the
    step runs in the workspace's scratch, so results are bit for bit those
    of the expression written out with temporaries.

    The update is the textbook ``lr * m_hat / (sqrt(v_hat) + eps)`` in
    Kingma & Ba's efficient order (arXiv 1412.6980, section 2): with the
    scalars ``r = sqrt(1 - beta2**t)`` and ``alpha = lr * r / (1 - beta1**t)``
    it is ``(m / (sqrt(v) + eps * r)) * alpha``, one division and one square
    root per parameter where the textbook order takes three and one. Both
    bias corrections fold into ``alpha``; eps is scaled by ``r`` because
    ``sqrt(v_hat) + eps = (sqrt(v) + eps * r) / r``, so the two orders are
    equal in exact arithmetic and differ in floats by a few ulp.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads and Adam moments must have identical length")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v, step = state.m, state.v, state._step
    np.multiply(grads, 1.0 - b1, out=step)
    m *= b1
    m += step                                     # b1*m + (1-b1)*g
    np.multiply(grads, 1.0 - b2, out=step)
    step *= grads
    v *= b2
    v += step                                     # b2*v + ((1-b2)*g)*g
    r = math.sqrt(1.0 - b2**t)
    alpha = cfg.learning_rate * r / (1.0 - b1**t)
    np.sqrt(v, out=step)
    step += ADAM_EPS * r                          # den = sqrt(v) + eps*r
    np.divide(m, step, out=step)
    step *= alpha                                 # (m / den) * alpha
    params -= step
    state.step_count = t


@dataclass(frozen=True)
class TrainConfig:
    """Local training hyperparameters; Adam's beta1, beta2 and eps are ``ADAM_*``.

    ``seed`` drives a dedicated shuffle generator, so training order never
    depends on any other randomness in the program.
    """

    epochs: int
    seed: int
    batch_size: int = 8
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        check_fields(self, epochs=0, seed=0, batch_size=1)
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


def train(arch: ModelArch, params: np.ndarray, x, y, cfg: TrainConfig,
          workspace: AdamState | None = None) -> np.ndarray:
    """Run ``cfg.epochs`` passes of shuffled mini-batch Adam over (x, y).

    Pure: ``params``, ``x`` and ``y`` are left untouched and the result is
    a new array that shares memory with nothing else.
    ``workspace``, if given, is reset on entry and used for the optimizer
    state and gradient, so a caller that trains repeatedly (a hospital,
    once per round) can keep one; without it a fresh one is made. Nothing
    is carried across calls except the returned parameters. Deterministic
    in (params, x, y, cfg).
    """
    params = _check_params(arch, params).copy()
    x, y = _check_rows(arch, x, y)
    n = x.shape[0]
    if workspace is None:
        workspace = AdamState(params.size)
    elif workspace.m.shape != params.shape:
        raise ValueError(
            f"workspace is for {workspace.m.size} parameters, model has {params.size}"
        )
    else:
        workspace.reset()

    grads = workspace.grad
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_x, epoch_y = x[order], y[order]
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            gradient(arch, params, epoch_x[start:stop], epoch_y[start:stop], out=grads)
            adam_step(params, grads, workspace, cfg)
    return params
