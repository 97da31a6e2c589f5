"""Training loop behavior, target-network isolation, and checkpoints."""

from dataclasses import fields

import numpy as np
import pytest

import sngcl.training as training
from sngcl.errors import (
    CheckpointCorruptionError,
    CheckpointFormatError,
    CheckpointVersionError,
    InputError,
    TrainingDivergedError,
)
from sngcl.graph import Graph
from sngcl.losses import LossConfig, total_loss
from sngcl.nn import init_adam, init_mlp, mlp_forward
from sngcl.rng import stream_rng
from sngcl.training import (
    EpochPlan,
    TrainConfig,
    VIEW_BOTH,
    VIEW_GLOBAL_ONLY,
    VIEW_LOCAL_ONLY,
    _epoch_backward,
    _epoch_forward,
    encode,
    load_checkpoint,
    resolve_view_inputs,
    save_checkpoint,
    train,
    write_history,
)

SMALL = dict(encoder_dims=[16, 12, 6], predictor_dims=[6, 10, 6])


def small_config(**overrides):
    base = dict(epochs=4, seed=0, **SMALL)
    base.update(overrides)
    return TrainConfig(**base)


def test_training_produces_finite_decreasing_history(sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=30))
    h = model.history
    assert h.shape == (30, 5)
    assert np.all(np.isfinite(h))
    assert h[:, 0].tolist() == list(range(1, 31))
    # Component sum equals the total at unit weights.
    np.testing.assert_allclose(h[:, 1], h[:, 2] + h[:, 3] + h[:, 4], atol=1e-10)
    assert h[-1, 1] < h[0, 1]


def test_training_is_bitwise_deterministic(sbm_tiny):
    a = train(sbm_tiny, small_config(epochs=6))
    b = train(sbm_tiny, small_config(epochs=6))
    assert a.history.tobytes() == b.history.tobytes()
    for pa, pb in zip(a.model.trainable_params(), b.model.trainable_params()):
        assert pa.tobytes() == pb.tobytes()
    c = train(sbm_tiny, small_config(epochs=6, seed=1))
    assert a.history.tobytes() != c.history.tobytes()


def test_smoothing_runs_once_before_the_loop(sbm_tiny, monkeypatch):
    calls = []
    real = training.smooth_features

    def counting(graph, t, mode):
        calls.append(mode)
        return real(graph, t, mode)

    monkeypatch.setattr(training, "smooth_features", counting)
    train(sbm_tiny, small_config(epochs=5))
    assert len(calls) == 2  # one per view, regardless of epoch count


def test_single_view_modes_reuse_one_smoothed_matrix(sbm_tiny, monkeypatch):
    calls = []
    real = training.smooth_features

    def counting(graph, t, mode):
        calls.append(mode)
        return real(graph, t, mode)

    monkeypatch.setattr(training, "smooth_features", counting)
    online_in, target_in = resolve_view_inputs(sbm_tiny, 2, VIEW_GLOBAL_ONLY)
    assert calls == ["random-walk"]
    assert online_in is target_in

    calls.clear()
    online_in, target_in = resolve_view_inputs(sbm_tiny, 2, VIEW_LOCAL_ONLY)
    assert calls == ["symmetric"]
    assert online_in is target_in


def test_view_both_routes_local_to_online_and_global_to_target(sbm_tiny):
    online_in, target_in = resolve_view_inputs(sbm_tiny, 2, VIEW_BOTH)
    np.testing.assert_array_equal(online_in, training.smooth_features(sbm_tiny, 2, "symmetric"))
    np.testing.assert_array_equal(target_in, training.smooth_features(sbm_tiny, 2, "random-walk"))
    assert training.VIEW_FILTERS == {
        VIEW_BOTH: ("symmetric", "random-walk"),
        VIEW_GLOBAL_ONLY: ("random-walk", "random-walk"),
        VIEW_LOCAL_ONLY: ("symmetric", "symmetric"),
    }


@pytest.mark.parametrize("view_mode", [VIEW_BOTH, VIEW_GLOBAL_ONLY, VIEW_LOCAL_ONLY])
def test_encode_smooths_only_the_filters_its_output_reads(sbm_tiny, monkeypatch, view_mode):
    model = train(sbm_tiny, small_config(epochs=1, view_mode=view_mode))
    want_online = encode(model, sbm_tiny)
    want_both = encode(model, sbm_tiny, output="concat-both")
    calls = []
    real = training.smooth_features

    def counting(graph, t, mode):
        calls.append(mode)
        return real(graph, t, mode)

    monkeypatch.setattr(training, "smooth_features", counting)
    online_filter, target_filter = training.VIEW_FILTERS[view_mode]
    assert encode(model, sbm_tiny).tobytes() == want_online.tobytes()
    assert calls == [online_filter]
    calls.clear()
    assert encode(model, sbm_tiny, output="concat-both").tobytes() == want_both.tobytes()
    assert calls == list(dict.fromkeys([online_filter, target_filter]))


def test_target_follows_the_exact_ema_recursion(sbm_tiny):
    m = 0.8
    config = small_config(epochs=8, momentum=m)
    snapshots = []

    def callback(epoch, state):
        snapshots.append(
            (
                [w.copy() for w in state.online_encoder.weights],
                [w.copy() for w in state.target_encoder.weights],
            )
        )

    train(sbm_tiny, config, epoch_callback=callback)
    assert len(snapshots) == 8

    # The target starts as a copy of the freshly initialized online encoder.
    expected = init_mlp(SMALL["encoder_dims"], stream_rng(0, "init")).weights
    for online_ws, target_ws in snapshots:
        expected = [m * e + (1.0 - m) * o for e, o in zip(expected, online_ws)]
        for e, t in zip(expected, target_ws):
            np.testing.assert_array_equal(e, t)


def test_target_never_moves_at_momentum_one(sbm_tiny):
    config = small_config(epochs=5, momentum=1.0)
    initial = init_mlp(SMALL["encoder_dims"], stream_rng(0, "init"))
    model = train(sbm_tiny, config)
    for w_init, w_target in zip(initial.weights, model.model.target_encoder.weights):
        np.testing.assert_array_equal(w_init, w_target)
    # while the online encoder trained away from it
    assert any(
        np.any(a != b)
        for a, b in zip(initial.weights, model.model.online_encoder.weights)
    )


def test_predictor_stays_at_init_in_encoder_anchor_mode(sbm_tiny):
    config = small_config(epochs=5, anchor_mode="encoder")
    model = train(sbm_tiny, config)
    rng = stream_rng(0, "init")
    init_mlp(SMALL["encoder_dims"], rng)  # consume the encoder draw
    fresh_predictor = init_mlp(SMALL["predictor_dims"], rng)
    for a, b in zip(fresh_predictor.params(), model.model.predictor.params()):
        np.testing.assert_array_equal(a, b)


def test_epoch_gradients_with_normalization_match_finite_differences(sbm_tiny):
    # End-to-end check of the row-normalized variant through encoder,
    # predictor, neighbor mean and both hinges.
    config = TrainConfig(
        t=2, encoder_dims=[16, 7, 4], predictor_dims=[4, 6, 4],
        normalize_embeddings=True, loss=LossConfig(k=3, n_neighbors=2),
    ).resolved(16)
    online_in, target_in = resolve_view_inputs(sbm_tiny, config.t, config.view_mode)
    rng = stream_rng(3, "init")
    online = init_mlp(config.encoder_dims, rng)
    predictor = init_mlp(config.predictor_dims, rng)
    target = init_mlp(config.encoder_dims, stream_rng(4, "init"))
    # Bias the ReLUs open: at the zero-bias init some rows die entirely and
    # row normalization is not differentiable at a zero row.
    for mlp in (online, predictor, target):
        for b in mlp.biases:
            b += 0.2
    from sngcl.losses import sample_neighbor_indices

    plan = EpochPlan(
        neighbor_idx=sample_neighbor_indices(sbm_tiny, 2, stream_rng(0, "neighbor")),
        permutations=[
            stream_rng(0, "shuffle").permutation(sbm_tiny.n_nodes) for _ in range(3)
        ],
    )
    fwd = _epoch_forward(online, predictor, target, online_in, target_in, plan, config)
    assert fwd.anchor_norms.min() > 1e-2  # away from the clamped regime
    frozen = [neg.copy() for neg in fwd.batch.negatives]
    out = total_loss(fwd.batch, config.loss)
    enc_grads, pred_grads = _epoch_backward(fwd, out, online, predictor, plan, config)

    def loss_value():
        f = _epoch_forward(
            online, predictor, target, online_in, target_in, plan, config,
            negatives=frozen,
        )
        return total_loss(f.batch, config.loss).total

    from conftest import numeric_grad

    for got, param in [
        (enc_grads.weights[0], online.weights[0]),
        (enc_grads.biases[1], online.biases[1]),
        (pred_grads.weights[1], predictor.weights[1]),
    ]:
        fd = numeric_grad(loss_value, param, eps=1e-6)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)


def test_dimension_mismatches_fail_before_training(sbm_tiny):
    with pytest.raises(InputError, match="feature width"):
        train(sbm_tiny, TrainConfig(encoder_dims=[9, 4, 2], epochs=1))
    with pytest.raises(InputError, match="predictor input dim"):
        train(sbm_tiny, TrainConfig(encoder_dims=[16, 4, 2], predictor_dims=[3, 2], epochs=1))
    with pytest.raises(InputError, match="predictor output dim"):
        train(sbm_tiny, TrainConfig(encoder_dims=[16, 4, 2], predictor_dims=[2, 3], epochs=1))
    with pytest.raises(InputError, match="view mode"):
        train(sbm_tiny, TrainConfig(view_mode="sideways", epochs=1))


def test_non_finite_loss_aborts_with_the_epoch_number(sbm_tiny, monkeypatch):
    real = training.total_loss
    state = {"n": 0}

    def poisoned(batch, cfg):
        out = real(batch, cfg)
        state["n"] += 1
        if state["n"] == 3:
            out.total = float("nan")
        return out

    monkeypatch.setattr(training, "total_loss", poisoned)
    with pytest.raises(TrainingDivergedError, match="epoch 3"):
        train(sbm_tiny, small_config(epochs=10))


def test_non_finite_anchor_aborts_at_the_first_epoch(sbm_tiny):
    # A Graph built directly skips build_graph's feature check.
    features = sbm_tiny.features.copy()
    features[3, 0] = np.nan
    graph = Graph(
        adjacency=sbm_tiny.adjacency, features=features,
        labels=sbm_tiny.labels, n_classes=sbm_tiny.n_classes,
    )
    with pytest.raises(TrainingDivergedError, match="non-finite anchor at epoch 1"):
        train(graph, small_config(epochs=3))


def test_encode_shapes_and_input_checks(sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=2))
    emb = encode(model, sbm_tiny)
    assert emb.shape == (sbm_tiny.n_nodes, 6)
    both = encode(model, sbm_tiny, output="concat-both")
    assert both.shape == (sbm_tiny.n_nodes, 12)
    # The first half of the concatenation is the online embedding.
    np.testing.assert_array_equal(both[:, :6], emb)

    with pytest.raises(InputError, match="unknown embedding output"):
        encode(model, sbm_tiny, output="target-global")
    from sngcl.graph import build_graph

    narrow = build_graph([(0, 1)], np.zeros((2, 5)))
    with pytest.raises(InputError, match="feature width"):
        encode(model, narrow)


def test_encode_is_a_deterministic_function_of_the_model(sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=2))
    a = encode(model, sbm_tiny)
    b = encode(model, sbm_tiny)
    assert a.tobytes() == b.tobytes()


def test_encoder_output_matches_manual_forward(sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=2))
    online_in, _ = resolve_view_inputs(sbm_tiny, model.config.t, model.config.view_mode)
    manual, _ = mlp_forward(model.model.online_encoder, online_in)
    np.testing.assert_array_equal(encode(model, sbm_tiny), manual)


# --- checkpoints ------------------------------------------------------------

# The metadata block of a format-1 checkpoint for TrainConfig().resolved(16),
# as the writer produced it before the hyperparameter table existed.  Key
# order, float reprs and 0/1 booleans are part of the format.
V1_DEFAULT_METADATA = (
    "t=3\nepochs=500\nlr=0.001\nmomentum=0.8\nseed=0\nview_mode=both\n"
    "normalize_embeddings=0\nanchor_mode=predictor\nencoder_dims=16,512,256\n"
    "predictor_dims=256,512,256\nalpha=1.0\nbeta=1.0\nk=5\nn_neighbors=5\n"
    "omega1=1.0\nomega2=1.0\nadam_beta1=0.9\nadam_beta2=0.999\nadam_eps=1e-08\n"
)


def test_checkpoint_metadata_keeps_the_version_1_text():
    config = TrainConfig().resolved(16)
    text = training._config_to_lines(config, init_adam([]))
    assert text == V1_DEFAULT_METADATA
    parsed, adam = training._config_from_lines(V1_DEFAULT_METADATA)
    assert parsed == config
    assert adam == {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


def test_hyperparameter_table_covers_both_configs_once():
    names = [h.name for h in training.HYPERPARAMETERS]
    assert len(names) == len(set(names)) == 16
    assert set(names) == (
        {f.name for f in fields(TrainConfig)} - {"loss"} | {f.name for f in fields(LossConfig)}
    )
    assert all(h.help for h in training.HYPERPARAMETERS)
    for h in training.HYPERPARAMETERS:
        if h.default is not None:
            assert h.parse(h.format(h.default)) == h.default


def test_checkpoint_metadata_errors_are_corruption():
    with pytest.raises(CheckpointCorruptionError, match="missing key 'adam_eps'"):
        training._config_from_lines(V1_DEFAULT_METADATA.replace("adam_eps=1e-08\n", ""))
    with pytest.raises(CheckpointCorruptionError, match="malformed"):
        training._config_from_lines(V1_DEFAULT_METADATA.replace("k=5", "k=five"))


def test_checkpoint_roundtrip_preserves_everything(tmp_path, sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=3, lr=0.002, momentum=0.75))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)

    assert loaded.config == model.config
    assert loaded.history.tobytes() == model.history.tobytes()
    for a, b in zip(model.model.online_encoder.params(), loaded.model.online_encoder.params()):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(model.model.target_encoder.params(), loaded.model.target_encoder.params()):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(model.model.predictor.params(), loaded.model.predictor.params()):
        assert a.tobytes() == b.tobytes()
    opt_a, opt_b = model.model.optimizer, loaded.model.optimizer
    assert opt_a.step == opt_b.step
    for a, b in zip(opt_a.m1 + opt_a.m2, opt_b.m1 + opt_b.m2):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_roundtrip_embeddings_are_identical(tmp_path, sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=3))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert encode(loaded, sbm_tiny).tobytes() == encode(model, sbm_tiny).tobytes()


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTCKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path, sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[5] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError, match="version 2"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [4, 10, 40])
def test_checkpoint_rejects_truncation(tmp_path, sbm_tiny, keep):
    model = train(sbm_tiny, small_config(epochs=1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(raw[:keep])
    with pytest.raises((CheckpointCorruptionError, CheckpointFormatError)):
        load_checkpoint(clipped)


def test_checkpoint_rejects_mid_tensor_truncation(tmp_path, sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(CheckpointCorruptionError, match="truncated"):
        load_checkpoint(clipped)


def test_write_history_round_trips_values(tmp_path, sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=3))
    path = tmp_path / "history.tsv"
    write_history(path, model.history)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch\tloss\tl_struct\tl_neighbor\tl_upper"
    assert len(lines) == 4
    parsed = np.array(
        [[float(v) for v in line.split("\t")] for line in lines[1:]]
    )
    np.testing.assert_array_equal(parsed, model.history)
