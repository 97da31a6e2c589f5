"""Dense MLP with manual backprop, Adam, and the EMA target update.

Only the fixed topology used by the siamese pair is differentiated: a stack
of linear layers with ReLU after every layer except the last.  All math is
float64 numpy; gradients are exact reverse-mode derivatives of the forward
map and are verified against finite differences in the test suite.

A network is built from its layer widths alone, its parameters views of
one contiguous buffer, and Adam's two moments are networks of the same
widths.  No gradient buffer is kept: backprop hands each layer's gradients
to a consumer as soon as they form, and training's consumer is
:func:`adam_step`, which updates that slice of the buffer in place.  Adam and
the EMA walk their arrays in blocks of ``BLOCK`` elements, so that a step
makes a few numpy calls per block and its work arrays stay in cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import InputError


class Mlp:
    """A network of the layer widths ``dims``: ``weights[l]`` is
    d_l x d_{l+1} and ``biases[l]`` is d_{l+1}.

    Its parameters are views of one contiguous buffer, ``buffer``, in the
    order of :meth:`params`, left uninitialised for :func:`init_mlp` or a
    reader to fill in place.  Adam's moments are Mlps too, so a slice of the
    buffer has its moments at the same offsets.
    """

    def __init__(self, dims: list[int]) -> None:
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise InputError(f"dims must be >= 2 positive layer widths, got {dims}")
        self.dims = list(dims)
        self.buffer = np.empty(sum((d_in + 1) * d_out for d_in, d_out in zip(dims, dims[1:])))
        self.weights, self.biases, start = [], [], 0
        for d_in, d_out in zip(dims, dims[1:]):
            self.weights.append(self.buffer[start:start + d_in * d_out].reshape(d_in, d_out))
            start += d_in * d_out
            self.biases.append(self.buffer[start:start + d_out])
            start += d_out

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Mlp":
        mlp = Mlp(self.dims)
        mlp.buffer[...] = self.buffer
        return mlp

    def zeros_like(self) -> "Mlp":
        mlp = Mlp(self.dims)
        # filled, not np.zeros: calloc'd pages that the first Adam step had
        # to fault in made a 1-epoch sbm-200 train about 4 ms slower
        mlp.buffer.fill(0.0)
        return mlp

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
    mlp = Mlp(dims)
    for w, b in zip(mlp.weights, mlp.biases):
        high = np.sqrt(6.0 / sum(w.shape))
        low = -high
        # rng.uniform(low, high, w.shape), which is low + (high - low) * u,
        # drawn into the buffer
        rng.random(out=w)
        w *= high - low
        w += low
        b[...] = 0.0
    return mlp


@dataclass
class ForwardCache:
    """Everything mlp_backward needs: each layer's input and the output."""

    inputs: list[np.ndarray]
    output: np.ndarray


def mlp_forward(
    mlp: Mlp, x: np.ndarray, reuse: ForwardCache | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass; ReLU, in place, after every layer except the last.

    Given ``reuse``, the cache of an earlier pass of a network of the same
    widths over as many rows, each layer, a first one that reads its input as
    an operator included, writes its output into the matching array of that
    cache, which the returned cache holds again.
    """
    if x.ndim != 2 or x.shape[1] != mlp.weights[0].shape[0]:
        raise InputError(
            f"input width {x.shape[-1] if x.ndim == 2 else x.shape} does not match "
            f"first layer input dim {mlp.weights[0].shape[0]}"
        )
    outs = [None] * mlp.n_layers if reuse is None else [*reuse.inputs[1:], reuse.output]
    inputs = []
    a = x
    last = mlp.n_layers - 1
    for l, (w, b, out) in enumerate(zip(mlp.weights, mlp.biases, outs)):
        inputs.append(a)
        a = np.matmul(a, w, out=out) if isinstance(a, np.ndarray) else a.matmul(w, out)
        a += b  # the sums of ``a @ w + b``, without a second array
        if l < last:
            np.maximum(a, 0.0, out=a)
    return a, ForwardCache(inputs=inputs, output=a)


# consume(start, grad): the flat ``grad`` is the gradient of
# ``mlp.buffer[start:start + grad.size]``
Consumer = Callable[[int, np.ndarray], None]


def scratch_size(mlp: Mlp, operator_input: bool = False) -> int:
    """Elements :func:`mlp_backward` needs in its scratch array: any one
    layer's weight and bias gradients, or only the bias gradient of a first
    layer that reads its input as an operator."""
    sizes = [w.size + b.size for w, b in zip(mlp.weights, mlp.biases)]
    if operator_input:
        sizes[0] = mlp.biases[0].size
    return max(sizes)


def mlp_backward(
    mlp: Mlp,
    cache: ForwardCache,
    d_out: np.ndarray,
    consume: Consumer,
    need_input_grad: bool = True,
    *,
    scratch: np.ndarray,
) -> np.ndarray | None:
    """Exact gradients of the forward map, handed to ``consume`` as they form.

    Each layer's gradients go to ``consume`` only after the layer's input
    gradient is formed from its weights, so the consumer may update them in
    place.  A layer that reads an array forms its weight and bias gradients
    next to each other in ``scratch``, the caller's flat array of at least
    :func:`scratch_size` elements, and hands them over as one slice.  A
    first layer that reads an operator hands over its bias gradient from
    ``scratch``, then its weight gradient in blocks of whole rows, each at
    most ``BLOCK`` elements.

    Backprop runs over the cache's arrays: each hidden layer's input array
    ends up holding the gradient w.r.t. it, and, when ``need_input_grad``,
    the first layer's input array (which must then be an ndarray) holds the
    gradient w.r.t. the input matrix, which is returned.  Otherwise None is
    returned, skipping the costly first-layer input product.  A factorised
    first layer also overwrites the gradient w.r.t. its output.
    """
    if d_out.shape != cache.output.shape:
        raise InputError(
            f"d_out shape {d_out.shape} does not match forward output "
            f"{cache.output.shape}"
        )
    operator_input = not isinstance(cache.inputs[0], np.ndarray)
    if operator_input and need_input_grad:
        raise InputError("an operator input has no input gradient")
    need = scratch_size(mlp, operator_input)
    if scratch.size < need:
        raise InputError(f"backward scratch holds {scratch.size} elements, needs {need}")
    start = list(accumulate((p.size for p in mlp.params()), initial=0))  # of W0, b0, W1, ...
    dz = d_out
    for l in range(mlp.n_layers - 1, -1, -1):
        x, w, b = cache.inputs[l], mlp.weights[l], mlp.biases[l]
        if l == 0 and operator_input:
            np.sum(dz, axis=0, out=scratch[:b.size])
            consume(start[1], scratch[:b.size])
            rows = max(1, BLOCK // w.shape[1])
            for row, block in x.transposed_row_blocks(dz, rows):
                consume(start[0] + row * w.shape[1], block.ravel())
            continue
        grad_w = scratch[:w.size].reshape(w.shape)
        np.matmul(x.T, dz, out=grad_w)
        np.sum(dz, axis=0, out=scratch[w.size:w.size + b.size])
        if l > 0:
            # relu(z) > 0 exactly where z > 0, NaN and -0.0 included
            mask = x > 0.0
            dz = np.matmul(dz, w.T, out=x)
            np.multiply(dz, mask, out=dz)
        elif need_input_grad:
            dz = np.matmul(dz, w.T, out=x)
        consume(start[2 * l], scratch[:w.size + b.size])
    return dz if need_input_grad else None


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
    block reuses, so that a step allocates nothing; between steps, training
    lends the first to :func:`momentum_update`.
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


def adam_step(
    state: AdamState,
    param: np.ndarray,
    grad: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    lr: float,
) -> None:
    """Standard Adam update with bias correction of the flat arrays
    ``param`` and its moments ``first`` and ``second``, in place, from the
    gradient ``grad``, at step ``state.step``, which the caller advances
    once per step of all the parameters.

    Per element: ``m1 = b1 m1 + (1 - b1) g``, ``m2 = b2 m2 + (1 - b2) g g``
    and ``p -= lr (m1 / c1) / (sqrt(m2 / c2) + eps)`` with the bias
    corrections ``c = 1 - b**step``, each operation rounded in that order.
    """
    if not param.size == grad.size == first.size == second.size:
        raise InputError("parameter / gradient / moment sizes disagree")
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    work_u, work_v = state.scratch
    for p, g, m1, m2 in _blocks(param, grad, first, second):
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


def momentum_update(target: Mlp, online: Mlp, m: float, work: np.ndarray) -> Mlp:
    """EMA update ``target <- m * target + (1 - m) * online``, elementwise
    and in place; returns ``target``.  ``work`` is the caller's flat array
    of at least ``min(BLOCK, target.buffer.size)`` elements, which every
    block reuses, so that an update allocates nothing.

    This is the only path through which target parameters ever change; no
    gradient flows into the target network anywhere in the system.
    """
    if not 0.0 <= m <= 1.0:
        raise InputError(f"momentum must lie in [0, 1], got {m}")
    if target.dims != online.dims:
        raise InputError("target / online layer shapes disagree")
    need = min(BLOCK, target.buffer.size)
    if work.size < need:
        raise InputError(f"EMA work array holds {work.size} elements, needs {need}")
    for tp, op in _blocks(target.buffer, online.buffer):
        tp *= m
        tp += np.multiply(1.0 - m, op, out=work[: tp.size])
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
