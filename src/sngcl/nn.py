"""Dense MLP with manual backprop, Adam, and the EMA target update.

Only the fixed topology used by the siamese pair is differentiated: a stack
of linear layers with ReLU after every layer except the last.  All math is
float64 numpy; gradients are exact reverse-mode derivatives of the forward
map and are verified against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass
class Mlp:
    """Layer parameters: ``weights[l]`` is d_{l-1} x d_l, ``biases[l]`` is d_l."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> list[int]:
        return [w.shape[0] for w in self.weights] + [self.weights[-1].shape[1]]

    def copy(self) -> "Mlp":
        return Mlp(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def params(self) -> list[np.ndarray]:
        """Flat parameter list in the fixed order W0, b0, W1, b1, ..."""
        flat: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            flat.append(w)
            flat.append(b)
        return flat


def init_mlp(dims: list[int], rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases.

    Weights are drawn uniform in ``[-sqrt(6/(d_in+d_out)), +sqrt(...)]``;
    the same generator state reproduces the same parameters bitwise.
    """
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise InputError(f"dims must be >= 2 positive layer widths, got {dims}")
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return Mlp(weights=weights, biases=biases)


@dataclass
class ForwardCache:
    """Everything mlp_backward needs: per-layer inputs and pre-activations."""

    inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]


def mlp_forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass; ReLU after every layer except the last."""
    if x.ndim != 2 or x.shape[1] != mlp.weights[0].shape[0]:
        raise InputError(
            f"input width {x.shape[-1] if x.ndim == 2 else x.shape} does not match "
            f"first layer input dim {mlp.weights[0].shape[0]}"
        )
    inputs, pre_acts = [], []
    a = x
    last = mlp.n_layers - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(a)
        z = a @ w + b
        pre_acts.append(z)
        a = np.maximum(z, 0.0) if l < last else z
    return a, ForwardCache(inputs=inputs, pre_activations=pre_acts)


def mlp_backward(
    mlp: Mlp,
    cache: ForwardCache,
    d_out: np.ndarray,
    need_input_grad: bool = True,
) -> tuple[Mlp, np.ndarray | None]:
    """Exact gradients of the forward map.

    Returns parameter gradients shaped like ``mlp`` plus the gradient w.r.t.
    the input matrix (None when ``need_input_grad`` is False, which skips the
    costly first-layer input product).
    """
    last = mlp.n_layers - 1
    if d_out.shape != cache.pre_activations[last].shape:
        raise InputError(
            f"d_out shape {d_out.shape} does not match forward output "
            f"{cache.pre_activations[last].shape}"
        )
    d_weights = [np.empty(0)] * mlp.n_layers
    d_biases = [np.empty(0)] * mlp.n_layers
    dz = d_out
    dx: np.ndarray | None = None
    for l in range(last, -1, -1):
        d_weights[l] = cache.inputs[l].T @ dz
        d_biases[l] = dz.sum(axis=0)
        if l > 0:
            da = dz @ mlp.weights[l].T
            dz = da * (cache.pre_activations[l - 1] > 0.0)
        elif need_input_grad:
            dx = dz @ mlp.weights[0].T
    return Mlp(weights=d_weights, biases=d_biases), dx


@dataclass
class AdamState:
    """First/second moments over a flat parameter list, plus the step count."""

    step: int
    m1: list[np.ndarray]
    m2: list[np.ndarray]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: list[np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m1=[np.zeros_like(p) for p in params],
        m2=[np.zeros_like(p) for p in params],
    )


def adam_step(
    state: AdamState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
) -> None:
    """Standard Adam update with bias correction, applied in place."""
    if len(params) != len(state.m1) or len(grads) != len(params):
        raise InputError("parameter / gradient / moment list lengths disagree")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m1, m2 in zip(params, grads, state.m1, state.m2):
        if p.shape != g.shape:
            raise InputError(f"grad shape {g.shape} != param shape {p.shape}")
        m1 *= b1
        m1 += (1.0 - b1) * g
        m2 *= b2
        m2 += (1.0 - b2) * g * g
        m1_hat = m1 / (1.0 - b1**t)
        m2_hat = m2 / (1.0 - b2**t)
        p -= lr * m1_hat / (np.sqrt(m2_hat) + state.eps)


def momentum_update(target: Mlp, online: Mlp, m: float) -> Mlp:
    """EMA update ``target <- m * target + (1 - m) * online``, elementwise.

    This is the only path through which target parameters ever change; no
    gradient flows into the target network anywhere in the system.
    """
    if not 0.0 <= m <= 1.0:
        raise InputError(f"momentum must lie in [0, 1], got {m}")
    if [w.shape for w in target.weights] != [w.shape for w in online.weights]:
        raise InputError("target / online layer shapes disagree")
    for l in range(target.n_layers):
        target.weights[l] = m * target.weights[l] + (1.0 - m) * online.weights[l]
        target.biases[l] = m * target.biases[l] + (1.0 - m) * online.biases[l]
    return target


@dataclass
class ModelState:
    """Online encoder + predictor (trained by Adam) and the EMA target encoder."""

    online_encoder: Mlp
    predictor: Mlp
    target_encoder: Mlp
    optimizer: AdamState = field(repr=False, default=None)

    def trainable_params(self) -> list[np.ndarray]:
        return self.online_encoder.params() + self.predictor.params()
