"""Dense MLP with manual backprop, Adam, and the EMA target update.

Only the fixed topology used by the siamese pair is differentiated: a stack
of linear layers with ReLU after every layer except the last.  All math is
float64 numpy; gradients are exact reverse-mode derivatives of the forward
map and are verified against finite differences in the test suite.

Each network's parameters live in one contiguous buffer, and so do its
gradients and Adam's two moments; Adam and the EMA walk those buffers in
blocks of ``BLOCK`` elements, so that a step makes a few numpy calls per
block and its work arrays stay in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass
class Mlp:
    """Layer parameters: ``weights[l]`` is d_{l-1} x d_l, ``biases[l]`` is d_l.

    The constructor copies them into one contiguous buffer, ``buffer``, in
    the order of :meth:`params`, and keeps views of it; gradients and Adam's
    moments are Mlps too, so Adam and the EMA each run over a few buffers.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    buffer: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        params = self.params()
        self._lay_out([p.shape for p in params])
        for view, p in zip(self.params(), params):
            view[...] = p

    def _lay_out(self, shapes: list[tuple[int, ...]]) -> None:
        """Make the parameters views of a fresh buffer, in ``params`` order."""
        self.buffer = np.empty(sum(math.prod(shape) for shape in shapes))
        views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(self.buffer[start:start + size].reshape(shape))
            start += size
        self.weights, self.biases = views[0::2], views[1::2]

    @classmethod
    def unset(cls, dims: list[int]) -> "Mlp":
        """An Mlp of the given layer widths whose parameters are left
        uninitialised, for a reader to fill in place."""
        mlp = cls.__new__(cls)
        mlp._lay_out([
            shape for d_in, d_out in zip(dims[:-1], dims[1:])
            for shape in ((d_in, d_out), (d_out,))
        ])
        return mlp

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Mlp":
        return Mlp(self.weights, self.biases)

    def zeros_like(self) -> "Mlp":
        zeros = lambda arrays: [np.broadcast_to(0.0, a.shape) for a in arrays]
        return Mlp(zeros(self.weights), zeros(self.biases))

    def params(self) -> list[np.ndarray]:
        """Flat parameter list in the fixed order W0, b0, W1, b1, ..."""
        flat: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            flat.append(w)
            flat.append(b)
        return flat


def _check_shapes(a: Mlp, b: Mlp, what: str) -> None:
    if [p.shape for p in a.params()] != [p.shape for p in b.params()]:
        raise InputError(f"{what} layer shapes disagree")


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
        z = a @ w
        z += b  # the sums of ``a @ w + b``, without a second array
        pre_acts.append(z)
        a = np.maximum(z, 0.0) if l < last else z
    return a, ForwardCache(inputs=inputs, pre_activations=pre_acts)


def mlp_backward(
    mlp: Mlp,
    cache: ForwardCache,
    d_out: np.ndarray,
    need_input_grad: bool = True,
    grads: Mlp | None = None,
) -> tuple[Mlp, np.ndarray | None]:
    """Exact gradients of the forward map.

    Writes the parameter gradients into ``grads`` (a fresh Mlp when None) and
    returns it, plus the gradient w.r.t. the input matrix (None when
    ``need_input_grad`` is False, which skips the costly first-layer input
    product).
    """
    last = mlp.n_layers - 1
    if d_out.shape != cache.pre_activations[last].shape:
        raise InputError(
            f"d_out shape {d_out.shape} does not match forward output "
            f"{cache.pre_activations[last].shape}"
        )
    if grads is None:
        grads = mlp.zeros_like()
    _check_shapes(mlp, grads, "network / gradient")
    dz = d_out
    dx: np.ndarray | None = None
    for l in range(last, -1, -1):
        x = cache.inputs[l]
        if isinstance(x, np.ndarray):
            np.matmul(x.T, dz, out=grads.weights[l])
        else:  # a first layer that reads its input as an operator
            grads.weights[l][...] = x.T @ dz
        np.sum(dz, axis=0, out=grads.biases[l])
        if l > 0:
            da = dz @ mlp.weights[l].T
            dz = da * (cache.pre_activations[l - 1] > 0.0)
        elif need_input_grad:
            dx = dz @ mlp.weights[0].T
    return grads, dx


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per pass of Adam and the EMA: 512 KiB of float64 per array, so a
# block's work arrays stay in a 2 MiB L2.  With one BLAS thread on a 2-vCPU
# x86-64 host, an Adam step over the acceptance SBM's 402,944 trained
# parameters took a median 3.2-3.7 ms in blocks of 16-64 Ki elements,
# 4.0 ms in blocks of 1 Mi and 3.8 ms a whole tensor at a time; over
# cora-quarter's 1,128,448, 11.4-11.9 ms against 14.7 and 14.8 ms.
BLOCK = 1 << 16


def _blocks(*buffers: np.ndarray):
    """Matching slices of equally long buffers, BLOCK elements at a time."""
    for lo in range(0, buffers[0].size, BLOCK):
        yield tuple(b[lo:lo + BLOCK] for b in buffers)


@dataclass
class AdamState:
    """The step count and the first and second moments, one Mlp of each per
    trained network.

    ``scratch`` holds two work arrays of up to BLOCK elements, which every
    block reuses, so that a step allocates nothing.
    """

    step: int
    first: list[Mlp]
    second: list[Mlp]
    scratch: tuple[np.ndarray, np.ndarray] = field(repr=False)


def init_adam(nets: list[Mlp]) -> AdamState:
    size = min(BLOCK, max((net.buffer.size for net in nets), default=0))
    return AdamState(
        step=0,
        first=[net.zeros_like() for net in nets],
        second=[net.zeros_like() for net in nets],
        scratch=(np.empty(size), np.empty(size)),
    )


def adam_step(state: AdamState, nets: list[Mlp], grads: list[Mlp], lr: float) -> None:
    """Standard Adam update with bias correction, applied in place.

    Per element: ``m1 = b1 m1 + (1 - b1) g``, ``m2 = b2 m2 + (1 - b2) g g``
    and ``p -= lr (m1 / c1) / (sqrt(m2 / c2) + eps)`` with the bias
    corrections ``c = 1 - b**step``, each operation rounded in that order.
    """
    if len(nets) != len(state.first) or len(grads) != len(nets):
        raise InputError("network / gradient / moment list lengths disagree")
    for net, grad, first in zip(nets, grads, state.first):
        _check_shapes(net, grad, "network / gradient")
        _check_shapes(net, first, "network / moment")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    work_u, work_v = state.scratch
    for net, grad, first, second in zip(nets, grads, state.first, state.second):
        for p, g, m1, m2 in _blocks(net.buffer, grad.buffer, first.buffer, second.buffer):
            u, v = work_u[: p.size], work_v[: p.size]
            m1 *= b1
            m1 += np.multiply(1.0 - b1, g, out=u)
            m2 *= b2
            np.multiply(1.0 - b2, g, out=u)
            m2 += np.multiply(u, g, out=u)
            np.divide(m1, c1, out=u)
            u *= lr
            np.divide(m2, c2, out=v)
            np.sqrt(v, out=v)
            v += ADAM_EPS
            p -= np.divide(u, v, out=u)


def momentum_update(target: Mlp, online: Mlp, m: float) -> Mlp:
    """EMA update ``target <- m * target + (1 - m) * online``, elementwise
    and in place; returns ``target``.

    This is the only path through which target parameters ever change; no
    gradient flows into the target network anywhere in the system.
    """
    if not 0.0 <= m <= 1.0:
        raise InputError(f"momentum must lie in [0, 1], got {m}")
    _check_shapes(target, online, "target / online")
    scratch = np.empty(min(BLOCK, target.buffer.size))
    for tp, op in _blocks(target.buffer, online.buffer):
        tp *= m
        tp += np.multiply(1.0 - m, op, out=scratch[: tp.size])
    return target


@dataclass
class ModelState:
    """Online encoder + predictor (trained by Adam) and the EMA target encoder.

    ``predictor`` and ``optimizer`` are None for a model read from a
    checkpoint.
    """

    online_encoder: Mlp
    predictor: Mlp | None
    target_encoder: Mlp
    optimizer: AdamState | None = field(repr=False, default=None)
