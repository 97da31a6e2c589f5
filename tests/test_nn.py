"""MLP forward/backward, Adam, and the EMA target update."""

import tracemalloc

import numpy as np
import pytest
from conftest import numeric_grad

from sngcl.errors import InputError
from sngcl.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BLOCK,
    Mlp,
    ModelState,
    adam_step,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
    momentum_update,
)
from sngcl.rng import stream_rng


def test_init_mlp_glorot_bounds_and_zero_biases():
    mlp = init_mlp([20, 10, 4], stream_rng(0, "init"))
    for w in mlp.weights:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.abs(w).max() <= bound
    for b in mlp.biases:
        assert np.all(b == 0.0)
    assert [w.shape for w in mlp.weights] == [(20, 10), (10, 4)]


def test_init_mlp_is_deterministic_per_stream():
    a = init_mlp([5, 3], stream_rng(42, "init"))
    b = init_mlp([5, 3], stream_rng(42, "init"))
    c = init_mlp([5, 3], stream_rng(43, "init"))
    np.testing.assert_array_equal(a.weights[0], b.weights[0])
    assert np.any(a.weights[0] != c.weights[0])


def test_init_mlp_rejects_bad_dims():
    rng = stream_rng(0, "init")
    with pytest.raises(InputError):
        init_mlp([5], rng)
    with pytest.raises(InputError):
        init_mlp([5, 0, 3], rng)


def test_forward_applies_relu_on_hidden_layers_only():
    mlp = Mlp(
        weights=[np.array([[1.0], [1.0]]), np.array([[1.0]])],
        biases=[np.array([-10.0]), np.array([-3.0])],
    )
    # Hidden pre-activation is negative -> clipped to 0; output layer is
    # affine, so negative outputs survive.
    y, cache = mlp_forward(mlp, np.array([[1.0, 2.0]]))
    assert cache.pre_activations[0][0, 0] == -7.0
    assert y[0, 0] == -3.0


def test_forward_rejects_wrong_input_width():
    mlp = init_mlp([4, 3], stream_rng(0, "init"))
    with pytest.raises(InputError, match="input width"):
        mlp_forward(mlp, np.zeros((2, 5)))


@pytest.mark.parametrize("dims", [[5, 4, 3], [6, 8, 8, 2]])
def test_backward_matches_finite_differences(dims):
    rng = np.random.default_rng(0)
    mlp = init_mlp(dims, stream_rng(1, "init"))
    for b in mlp.biases:
        b += 0.05 * rng.standard_normal(b.shape)  # move off the zero init
    x = rng.standard_normal((7, dims[0]))
    c = rng.standard_normal((7, dims[-1]))  # fixed projection -> scalar

    def scalar():
        y, _ = mlp_forward(mlp, x)
        return float((y * c).sum())

    y, cache = mlp_forward(mlp, x)
    grads, dx = mlp_backward(mlp, cache, c)

    for l in range(mlp.n_layers):
        fd_w = numeric_grad(scalar, mlp.weights[l])
        np.testing.assert_allclose(grads.weights[l], fd_w, rtol=1e-6, atol=1e-8)
        fd_b = numeric_grad(scalar, mlp.biases[l])
        np.testing.assert_allclose(grads.biases[l], fd_b, rtol=1e-6, atol=1e-8)
    fd_x = numeric_grad(scalar, x)
    np.testing.assert_allclose(dx, fd_x, rtol=1e-6, atol=1e-8)


def test_backward_can_skip_the_input_gradient():
    mlp = init_mlp([5, 4, 2], stream_rng(2, "init"))
    x = np.random.default_rng(3).standard_normal((6, 5))
    y, cache = mlp_forward(mlp, x)
    grads_full, dx = mlp_backward(mlp, cache, np.ones_like(y))
    grads_skip, none = mlp_backward(mlp, cache, np.ones_like(y), need_input_grad=False)
    assert none is None
    assert dx is not None
    for a, b in zip(grads_full.params(), grads_skip.params()):
        np.testing.assert_array_equal(a, b)


def test_backward_writes_into_the_given_gradient_buffers():
    mlp = init_mlp([5, 4, 2], stream_rng(2, "init"))
    x = np.random.default_rng(3).standard_normal((6, 5))
    y, cache = mlp_forward(mlp, x)
    fresh, _ = mlp_backward(mlp, cache, y)
    out = mlp.zeros_like()
    got, _ = mlp_backward(mlp, cache, y, grads=out)
    assert got is out
    assert got.buffer.tobytes() == fresh.buffer.tobytes()
    with pytest.raises(InputError, match="shapes disagree"):
        mlp_backward(mlp, cache, y, grads=init_mlp([5, 3, 2], stream_rng(2, "init")))


def test_mlp_tensors_are_views_of_one_buffer():
    mlp = init_mlp([5, 4, 2], stream_rng(2, "init"))
    assert mlp.buffer.size == 5 * 4 + 4 + 4 * 2 + 2
    assert np.concatenate([p.ravel() for p in mlp.params()]).tobytes() == mlp.buffer.tobytes()
    for p in mlp.params():
        assert np.shares_memory(p, mlp.buffer)
    copy, zeros = mlp.copy(), mlp.zeros_like()
    assert copy.buffer.tobytes() == mlp.buffer.tobytes()
    assert not np.shares_memory(copy.buffer, mlp.buffer)
    assert [z.shape for z in zeros.params()] == [p.shape for p in mlp.params()]
    assert not np.any(zeros.buffer)


def test_backward_rejects_wrong_output_shape():
    mlp = init_mlp([3, 2], stream_rng(0, "init"))
    _, cache = mlp_forward(mlp, np.zeros((4, 3)))
    with pytest.raises(InputError, match="d_out"):
        mlp_backward(mlp, cache, np.zeros((4, 3)))


def test_adam_first_step_has_learning_rate_magnitude():
    # After one step m_hat = g and v_hat = g^2, so the update is
    # lr * g / (|g| + eps): the learning rate itself, up to eps.
    p = Mlp([np.zeros((1, 1))], [np.zeros(1)])
    state = init_adam([p])
    adam_step(state, [p], [Mlp([np.full((1, 1), 10.0)], [np.full(1, 10.0)])], lr=0.1)
    assert p.buffer == pytest.approx([-0.1, -0.1], abs=1e-6)
    assert state.step == 1


def test_adam_matches_scalar_reference_over_many_steps():
    rng = np.random.default_rng(5)
    p = Mlp([np.full((1, 1), 0.3)], [np.full(1, 0.3)])
    state = init_adam([p])

    # Plain transcription of the update rule, kept separate from the
    # vectorized implementation.
    ref_p, m, v = 0.3, 0.0, 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 11):
        g = float(rng.standard_normal())
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref_p -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        adam_step(state, [p], [Mlp([np.full((1, 1), g)], [np.full(1, g)])], lr=lr)
        assert p.buffer == pytest.approx([ref_p, ref_p], abs=1e-14)


def test_adam_updates_in_place_and_checks_shapes():
    p = Mlp([np.zeros((2, 2))], [np.zeros(2)])
    original = p.buffer
    state = init_adam([p])
    adam_step(state, [p], [Mlp([np.ones((2, 2))], [np.ones(2)])], lr=0.1)
    assert p.buffer is original
    assert np.all(p.buffer != 0.0)
    with pytest.raises(InputError):
        adam_step(state, [p], [Mlp([np.ones((2, 3))], [np.ones(3)])], lr=0.1)
    with pytest.raises(InputError):
        adam_step(state, [p, p], [Mlp([np.ones((2, 2))], [np.ones(2)])], lr=0.1)


def _reference_adam_step(params, grads, m1s, m2s, t, lr):
    """The update as written before Adam used preallocated scratch: every
    operation allocates its result, in this order."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m1, m2 in zip(params, grads, m1s, m2s):
        m1 *= b1
        m1 += (1.0 - b1) * g
        m2 *= b2
        m2 += (1.0 - b2) * g * g
        m1_hat = m1 / (1.0 - b1**t)
        m2_hat = m2 / (1.0 - b2**t)
        p -= lr * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)


def _scaled_like(net, rng):
    """Normal draws shaped like ``net``, each tensor scaled by 10^-6..10^2."""
    scaled = lambda arrays: [rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 3)
                             for a in arrays]
    return Mlp(scaled(net.weights), scaled(net.biases))


def test_adam_is_bitwise_equal_to_the_allocating_formula():
    rng = np.random.default_rng(11)
    # parameters as small as a step, so that a step's last bit reaches them
    small = lambda *shape: rng.standard_normal(shape) * 1e-3
    nets = [
        Mlp([small(7, 5), small(5, 3)], [small(5), small(3)]),
        Mlp([small(1, 1)], [small(1)]),
    ]
    params = [p for net in nets for p in net.params()]
    ref = [p.copy() for p in params]
    ref_m1 = [np.zeros_like(p) for p in params]
    ref_m2 = [np.zeros_like(p) for p in params]
    state = init_adam(nets)
    for t in range(1, 21):
        grads = [_scaled_like(net, rng) for net in nets]
        adam_step(state, nets, grads, lr=1e-3)
        _reference_adam_step(
            ref, [g for net in grads for g in net.params()], ref_m1, ref_m2, t, 1e-3
        )
        m1 = [m for net in state.first for m in net.params()]
        m2 = [m for net in state.second for m in net.params()]
        for got, want in zip(params + m1 + m2, ref + ref_m1 + ref_m2):
            assert got.tobytes() == want.tobytes()


# a network whose buffer spans several blocks and ends in a partial one
BLOCKED_DIMS = [256, 1024]


def test_adam_over_several_blocks_is_bitwise_equal_to_the_elementwise_formula():
    rng = np.random.default_rng(12)
    net = init_mlp(BLOCKED_DIMS, stream_rng(0, "init"))
    assert net.buffer.size > 2 * BLOCK and net.buffer.size % BLOCK
    ref, ref_m1, ref_m2 = net.buffer.copy(), np.zeros(net.buffer.size), np.zeros(net.buffer.size)
    state = init_adam([net])
    for t in range(1, 4):
        grad = _scaled_like(net, rng)
        adam_step(state, [net], [grad], lr=1e-3)
        _reference_adam_step([ref], [grad.buffer], [ref_m1], [ref_m2], t, 1e-3)
        assert net.buffer.tobytes() == ref.tobytes()
        assert state.first[0].buffer.tobytes() == ref_m1.tobytes()
        assert state.second[0].buffer.tobytes() == ref_m2.tobytes()
    # the parameters stay views of the buffer Adam updates
    for p in net.params():
        assert np.shares_memory(p, net.buffer)


def test_an_adam_step_allocates_nothing_the_size_of_a_parameter_tensor():
    net = init_mlp(BLOCKED_DIMS, stream_rng(0, "init"))
    grad = _scaled_like(net, np.random.default_rng(13))
    state = init_adam([net])
    adam_step(state, [net], [grad], lr=1e-3)
    tracemalloc.start()
    try:
        adam_step(state, [net], [grad], lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(p.nbytes for p in net.params())


def test_momentum_update_over_several_blocks_is_bitwise_equal_to_the_elementwise_formula():
    online = init_mlp(BLOCKED_DIMS, stream_rng(0, "init"))
    target = init_mlp(BLOCKED_DIMS, stream_rng(1, "init"))
    assert target.buffer.size > 2 * BLOCK and target.buffer.size % BLOCK
    want = target.buffer.copy()
    for m in (0.8, 0.3, 0.99):
        want = m * want + (1.0 - m) * online.buffer
        momentum_update(target, online, m)
        assert target.buffer.tobytes() == want.tobytes()


def test_momentum_update_works_in_place_bitwise():
    online = init_mlp([6, 4, 3], stream_rng(0, "init"))
    target = init_mlp([6, 4, 3], stream_rng(1, "init"))
    arrays = target.params()
    want = [0.8 * t + (1.0 - 0.8) * o for t, o in zip(target.params(), online.params())]
    assert momentum_update(target, online, 0.8) is target
    for before, after, w in zip(arrays, target.params(), want):
        assert after is before
        assert after.tobytes() == w.tobytes()


def test_momentum_update_is_a_convex_combination():
    online = init_mlp([4, 3], stream_rng(0, "init"))
    target = init_mlp([4, 3], stream_rng(1, "init"))
    expected = 0.25 * target.weights[0] + 0.75 * online.weights[0]
    updated = momentum_update(target, online, 0.25)
    np.testing.assert_array_equal(updated.weights[0], expected)


def test_momentum_update_edge_cases():
    online = init_mlp([4, 3], stream_rng(0, "init"))
    frozen = init_mlp([4, 3], stream_rng(1, "init"))
    before = frozen.copy()
    momentum_update(frozen, online, 1.0)
    np.testing.assert_array_equal(frozen.weights[0], before.weights[0])

    tracked = init_mlp([4, 3], stream_rng(2, "init"))
    momentum_update(tracked, online, 0.0)
    np.testing.assert_array_equal(tracked.weights[0], online.weights[0])

    with pytest.raises(InputError):
        momentum_update(frozen, online, 1.5)
    with pytest.raises(InputError):
        momentum_update(init_mlp([4, 2], stream_rng(0, "init")), online, 0.5)


def test_trainable_params_exclude_the_target_network():
    online = init_mlp([4, 3], stream_rng(0, "init"))
    predictor = init_mlp([3, 3], stream_rng(0, "init"))
    target = online.copy()
    state = ModelState(
        online_encoder=online,
        predictor=predictor,
        target_encoder=target,
        optimizer=init_adam([online, predictor]),
    )
    trainable = online.params() + predictor.params()
    opt = state.optimizer
    m1 = [m for net in opt.first for m in net.params()]
    m2 = [m for net in opt.second for m in net.params()]
    assert len(m1) == len(m2) == len(trainable)
    assert len(trainable) == 4
    for t_param in target.params():
        assert all(t_param is not p for p in trainable)
