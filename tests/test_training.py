"""Training loop behavior, target-network isolation, and checkpoints."""

import math
import os
import struct
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import numeric_grad, rel_err, rewrite_checkpoint_metadata, sparse_feature_graph

import sngcl.graph as graph_module
import sngcl.training as training
from sngcl.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    InputError,
    TrainingDivergedError,
)
from sngcl.graph import Graph, SmoothedOperator
from sngcl.losses import LossConfig, neighbor_operator, sample_neighbor_indices, total_loss
from sngcl.nn import init_mlp, mlp_forward
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
    for net in ("online_encoder", "predictor"):
        for pa, pb in zip(getattr(a.model, net).params(), getattr(b.model, net).params()):
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


def test_dimension_mismatches_fail_before_training(sbm_tiny):
    with pytest.raises(InputError, match="feature width"):
        train(sbm_tiny, TrainConfig(encoder_dims=[9, 4, 2], epochs=1))
    with pytest.raises(InputError, match="predictor input dim"):
        train(sbm_tiny, TrainConfig(encoder_dims=[16, 4, 2], predictor_dims=[3, 2], epochs=1))
    with pytest.raises(InputError, match="predictor output dim"):
        train(sbm_tiny, TrainConfig(encoder_dims=[16, 4, 2], predictor_dims=[2, 3], epochs=1))
    with pytest.raises(InputError, match="view mode"):
        train(sbm_tiny, TrainConfig(view_mode="sideways", epochs=1))


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1e-3])
def test_learning_rate_must_be_finite_and_non_negative(sbm_tiny, lr):
    with pytest.raises(InputError, match="lr must be finite and >= 0"):
        train(sbm_tiny, small_config(epochs=1, lr=lr))
    train(sbm_tiny, small_config(epochs=1, lr=0.0))


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


# --- the factorised first layer -------------------------------------------

SPARSE_SMALL = dict(encoder_dims=[200, 3, 2], predictor_dims=[2, 3, 2])


def test_cost_rule_reads_sparse_features_as_operators(sbm_tiny, monkeypatch):
    calls = []
    real = training.smooth_features

    def counting(graph, t, mode):
        calls.append(mode)
        return real(graph, t, mode)

    monkeypatch.setattr(training, "smooth_features", counting)
    for view_mode in training.VIEW_MODES:
        online_in, target_in = resolve_view_inputs(sbm_tiny, 3, view_mode)
        assert isinstance(online_in, np.ndarray) and isinstance(target_in, np.ndarray)

    sparse = sparse_feature_graph()
    calls.clear()
    for view_mode in training.VIEW_MODES:
        online_in, target_in = resolve_view_inputs(sparse, 3, view_mode)
        assert isinstance(online_in, SmoothedOperator) and isinstance(target_in, SmoothedOperator)
    model = train(sparse, small_config(epochs=2, **SPARSE_SMALL))
    encode(model, sparse, output="concat-both")
    assert calls == []  # the dense H^t X is never formed


@pytest.mark.parametrize("sparse", [False, True])
def test_a_graph_derives_its_operators_once(sbm_tiny, monkeypatch, sparse):
    source, dims = (sparse_feature_graph(), SPARSE_SMALL) if sparse else (sbm_tiny, SMALL)

    def fresh_copy():
        return Graph(
            adjacency=source.adjacency.copy(), features=source.features.copy(),
            labels=source.labels.copy(), n_classes=source.n_classes,
        )

    builds = Counter()
    for name in ("_build_propagation", "_build_csr_features"):
        def counting(graph, *mode, real=getattr(graph_module, name), name=name):
            builds[(name, *mode)] += 1
            return real(graph, *mode)

        monkeypatch.setattr(graph_module, name, counting)
    graph = fresh_copy()
    model = train(graph, small_config(epochs=2, **dims))
    outputs = ["online-local", "concat-both", "online-local"]
    embeddings = [encode(model, graph, output) for output in outputs]
    assert builds == {
        ("_build_propagation", "symmetric"): 1,
        ("_build_propagation", "random-walk"): 1,
        **({("_build_csr_features",): 1} if sparse else {}),
    }
    other = fresh_copy()
    for output, emb in zip(outputs, embeddings):
        assert emb.tobytes() == encode(model, other, output).tobytes()


def _sparse_epoch_instance(view_mode):
    """A small model on the sparse-feature graph with its ReLUs opened, one
    epoch's sampling choices, and both forms of the two views."""
    graph = sparse_feature_graph()
    config = TrainConfig(
        view_mode=view_mode, **SPARSE_SMALL, loss=LossConfig(k=3, n_neighbors=2),
    ).resolved(graph.n_features)
    rng = stream_rng(3, "init")
    online = init_mlp(config.encoder_dims, rng)
    predictor = init_mlp(config.predictor_dims, rng)
    target = init_mlp(config.encoder_dims, rng)
    for mlp in (online, predictor, target):
        for b in mlp.biases:
            b += 0.2
    plan = EpochPlan(
        neighbor_op=neighbor_operator(sample_neighbor_indices(graph, 2, stream_rng(0, "neighbor"))),
        permutations=[stream_rng(0, "shuffle").permutation(graph.n_nodes) for _ in range(3)],
    )
    online_filter, target_filter = training.VIEW_FILTERS[view_mode]
    dense = (
        training.smooth_features(graph, config.t, online_filter),
        training.smooth_features(graph, config.t, target_filter),
    )
    operators = resolve_view_inputs(graph, config.t, view_mode)
    return config, (online, predictor, target), plan, dense, operators


@pytest.mark.parametrize("view_mode", training.VIEW_MODES)
def test_factorised_epoch_matches_the_dense_epoch(view_mode):
    config, nets, plan, dense, operators = _sparse_epoch_instance(view_mode)
    online, predictor, _ = nets
    results = []
    for inputs in (dense, operators):
        fwd = _epoch_forward(*nets, *inputs, plan)
        out = total_loss(fwd.batch, config.loss)
        enc_grads, pred_grads = _epoch_backward(fwd, out, online, predictor, plan)
        results.append((fwd, out, enc_grads.params() + pred_grads.params()))
    (fwd_d, out_d, grads_d), (fwd_o, out_o, grads_o) = results
    assert isinstance(operators[0], SmoothedOperator)
    assert rel_err(fwd_o.batch.anchor, fwd_d.batch.anchor) <= 1e-12
    assert rel_err(fwd_o.batch.positive_struct, fwd_d.batch.positive_struct) <= 1e-12
    assert abs(out_o.total - out_d.total) <= 1e-12 * abs(out_d.total)
    for got, want in zip(grads_o, grads_d):
        assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("view_mode", training.VIEW_MODES)
def test_factorised_epoch_gradients_match_finite_differences(view_mode):
    config, nets, plan, _, operators = _sparse_epoch_instance(view_mode)
    online, predictor, _ = nets
    fwd = _epoch_forward(*nets, *operators, plan)
    out = total_loss(fwd.batch, config.loss)
    enc_grads, pred_grads = _epoch_backward(fwd, out, online, predictor, plan)
    frozen = fwd.batch.anchor.copy()

    def loss_value():
        f = _epoch_forward(*nets, *operators, plan)
        return total_loss(replace(f.batch, negative_rows=frozen), config.loss).total

    pairs = list(zip(online.params(), enc_grads.params()))
    pairs += list(zip(predictor.params(), pred_grads.params()))
    for param, analytic in pairs:
        fd = numeric_grad(loss_value, param, eps=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-4


def _train_peak(graph, config) -> int:
    tracemalloc.start()
    try:
        train(graph, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_does_not_grow_with_the_number_of_negatives():
    # The loss gathers each negative into one reused n x d buffer, so eight
    # negatives cost k permutations more than one, not seven n x d copies.
    graph = sparse_feature_graph(n=400)
    dims = dict(encoder_dims=[200, 16, 64], predictor_dims=[64, 16, 64])
    one, eight = (
        _train_peak(graph, small_config(epochs=2, **dims, loss=LossConfig(k=k)))
        for k in (1, 8)
    )
    negative = graph.n_nodes * 64 * 8  # one n x d float64 array: 204.8 kB
    assert eight - one < negative, (one, eight)


def test_factorised_training_is_bitwise_repeatable(tmp_path):
    graph = sparse_feature_graph()
    config = small_config(epochs=4, **SPARSE_SMALL)
    runs = [train(graph, config) for _ in range(2)]
    for i, model in enumerate(runs):
        save_checkpoint(model, tmp_path / f"{i}.ckpt")
        write_history(tmp_path / f"{i}.tsv", model.history)
    assert runs[0].history.tobytes() == runs[1].history.tobytes()
    assert (tmp_path / "0.ckpt").read_bytes() == (tmp_path / "1.ckpt").read_bytes()
    assert (tmp_path / "0.tsv").read_bytes() == (tmp_path / "1.tsv").read_bytes()


@pytest.mark.parametrize("output", training.EMBED_MODES)
def test_factorised_encode_survives_the_checkpoint_round_trip(tmp_path, output):
    graph = sparse_feature_graph()
    model = train(graph, small_config(epochs=3, **SPARSE_SMALL))
    save_checkpoint(model, tmp_path / "model.ckpt")
    restored = load_checkpoint(tmp_path / "model.ckpt")
    in_memory = encode(model, graph, output=output)
    assert encode(restored, graph, output=output).tobytes() == in_memory.tobytes()
    # and the operator gives the dense path's embeddings up to rounding
    dense = mlp_forward(
        model.model.online_encoder, training.smooth_features(graph, 3, "symmetric")
    )[0]
    assert rel_err(in_memory[:, :2], dense) <= 1e-12


# --- checkpoints ------------------------------------------------------------

# The metadata block of a format-1 checkpoint for TrainConfig().resolved(16),
# as the writer produced it before the hyperparameter table existed.  Key
# order, float reprs and 0/1 booleans are part of the format.  The retired
# normalize_embeddings and anchor_mode keys and the trailing adam_* keys are
# no longer written, and the reader ignores them.
V1_DEFAULT_METADATA = (
    "t=3\nepochs=500\nlr=0.001\nmomentum=0.8\nseed=0\nview_mode=both\n"
    "normalize_embeddings=0\nanchor_mode=predictor\nencoder_dims=16,512,256\n"
    "predictor_dims=256,512,256\nalpha=1.0\nbeta=1.0\nk=5\nn_neighbors=5\n"
    "omega1=1.0\nomega2=1.0\nadam_beta1=0.9\nadam_beta2=0.999\nadam_eps=1e-08\n"
)
ADAM_LINES = "adam_beta1=0.9\nadam_beta2=0.999\nadam_eps=1e-08\n"
RETIRED_LINES = "normalize_embeddings=0\nanchor_mode=predictor\n"


def test_checkpoint_metadata_keeps_the_version_1_text():
    config = TrainConfig().resolved(16)
    text = training._config_to_lines(config)
    assert text + ADAM_LINES == V1_DEFAULT_METADATA.replace(RETIRED_LINES, "")
    assert training._config_from_lines(V1_DEFAULT_METADATA) == config
    assert training._config_from_lines(text) == config


def test_hyperparameter_table_covers_both_configs_once():
    names = [h.name for h in training.HYPERPARAMETERS]
    assert len(names) == len(set(names)) == 14
    assert set(names) == (
        {f.name for f in fields(TrainConfig)} - {"loss"} | {f.name for f in fields(LossConfig)}
    )
    assert all(h.help for h in training.HYPERPARAMETERS)
    for h in training.HYPERPARAMETERS:
        if h.default is not None:
            assert h.parse(h.format(h.default)) == h.default


def test_checkpoint_metadata_errors_are_corruption():
    with pytest.raises(CheckpointCorruptionError, match="missing key 'omega2'"):
        training._config_from_lines(V1_DEFAULT_METADATA.replace("omega2=1.0\n", ""))
    with pytest.raises(CheckpointCorruptionError, match="malformed"):
        training._config_from_lines(V1_DEFAULT_METADATA.replace("k=5", "k=five"))
    # values that parse but that no training run can have written
    for old, new in (
        ("view_mode=both", "view_mode=bovh"),
        ("momentum=0.8", "momentum=8.8"),
        ("encoder_dims=16,512,256", "encoder_dims=16"),
        ("predictor_dims=256,512,256", "predictor_dims=128,512,256"),
        ("lr=0.001", "lr=nan"),
        ("alpha=1.0", "alpha=nan"),
        ("beta=1.0", "beta=-1.0"),
        ("omega1=1.0", "omega1=inf"),
    ):
        with pytest.raises(CheckpointCorruptionError, match="malformed"):
            training._config_from_lines(V1_DEFAULT_METADATA.replace(old, new))


def test_checkpoint_metadata_with_a_negative_seed_is_corruption():
    # the rule and message of stream_rng, checked where the metadata is read
    with pytest.raises(CheckpointCorruptionError, match="seed must be >= 0, got -1"):
        training._config_from_lines(V1_DEFAULT_METADATA.replace("seed=0", "seed=-1"))
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        small_config(seed=-1).resolved(16).validate(16)


@pytest.mark.parametrize("old, new", [
    ("encoder_dims=16,512,256", "encoder_dims=16,-5,256"),
    ("encoder_dims=16,512,256", "encoder_dims=16,0,256"),
    ("predictor_dims=256,512,256", "predictor_dims=256,0,256"),
])
def test_checkpoint_metadata_with_a_width_below_one_is_corruption(old, new):
    name = new.partition("=")[0]
    with pytest.raises(CheckpointCorruptionError, match=f"{name} must be >= 2 positive"):
        training._config_from_lines(V1_DEFAULT_METADATA.replace(old, new))


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
    # the predictor and the optimizer are not stored: a loaded model cannot
    # resume training
    assert loaded.model.predictor is None
    assert loaded.model.optimizer is None


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


# Both sizes lie far beyond what the file holds; numpy refuses to allocate
# either, so a reader that allocated before checking would fail with a
# MemoryError instead.
@pytest.mark.parametrize("old, new", [
    (b"epochs=1\n", b"epochs=100000000000000\n"),
    (b"encoder_dims=16,512,256\n", b"encoder_dims=16,5120000000,256\n"),
])
def test_checkpoint_implying_more_bytes_than_it_holds_is_corrupt(tmp_path, sbm_tiny, old, new):
    path = tmp_path / "model.ckpt"
    save_checkpoint(train(sbm_tiny, TrainConfig(epochs=1)), path)
    rewrite_checkpoint_metadata(path, old, new)
    with pytest.raises(CheckpointCorruptionError, match="truncated checkpoint: the metadata implies"):
        load_checkpoint(path)


def _records(raw: bytes) -> list[tuple[str, int, int, int]]:
    """(name, start, data offset, end) of each tensor record of a checkpoint,
    read with the format's layout written out here independently."""
    (meta_len,) = struct.unpack_from("<Q", raw, 6)
    pos = 14 + meta_len
    records = []
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<Q", raw, pos)
        name = raw[pos + 8:pos + 8 + name_len].decode("utf-8")
        (rank,) = struct.unpack_from("<Q", raw, pos + 8 + name_len)
        dims = struct.unpack_from(f"<{rank}Q", raw, pos + 16 + name_len)
        data = pos + 16 + name_len + 8 * rank
        end = data + 8 * math.prod(dims)
        records.append((name, pos, data, end))
        pos = end
    return records


def test_checkpoint_holds_the_networks_and_the_history_only(tmp_path, sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=2))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    assert [name for name, *_ in _records(raw)] == [
        f"{net}/{kind}{l}"
        for net in ("online_encoder", "target_encoder")
        for l in range(2)
        for kind in ("w", "b")
    ] + ["history"]
    (meta_len,) = struct.unpack_from("<Q", raw, 6)
    for key in (b"adam_", b"normalize_embeddings", b"anchor_mode"):
        assert key not in raw[14:14 + meta_len]


def test_checkpoint_with_optimizer_state_still_loads(tmp_path, sbm_tiny):
    """Files from the writers that also stored the predictor, Adam's state
    and the normalize_embeddings and anchor_mode keys load to the same
    encoders."""
    model = train(sbm_tiny, small_config(epochs=2))
    state, opt = model.model, model.model.optimizer
    items = []
    for net in ("online_encoder", "predictor", "target_encoder"):
        mlp = getattr(state, net)
        for l in range(mlp.n_layers):
            items += [(f"{net}/w{l}", mlp.weights[l]), (f"{net}/b{l}", mlp.biases[l])]
    for key, moments in (("m1", opt.first), ("m2", opt.second)):
        tensors = [m for net in moments for m in net.params()]
        items += [(f"optimizer/{key}/{i}", m) for i, m in enumerate(tensors)]
    items += [("optimizer/step", np.array([float(opt.step)])), ("history", model.history)]
    meta = training._config_to_lines(model.config).replace(
        "\nencoder_dims=", "\nnormalize_embeddings=1\nanchor_mode=encoder\nencoder_dims="
    )
    assert "anchor_mode=encoder" in meta
    meta = (meta + ADAM_LINES).encode("utf-8")
    old = tmp_path / "old.ckpt"
    with open(old, "wb") as f:
        f.write(b"SNGCL\x01" + struct.pack("<Q", len(meta)) + meta)
        for name, arr in items:
            training._write_tensor(f, name, arr)

    loaded = load_checkpoint(old)
    assert loaded.config == model.config
    assert loaded.history.tobytes() == model.history.tobytes()
    assert loaded.model.predictor is None and loaded.model.optimizer is None
    for net in ("online_encoder", "target_encoder"):
        for a, b in zip(getattr(state, net).params(), getattr(loaded.model, net).params()):
            assert a.tobytes() == b.tobytes()
    for output in ("online-local", "concat-both"):
        assert encode(loaded, sbm_tiny, output).tobytes() == (
            encode(model, sbm_tiny, output).tobytes()
        )


def test_checkpoint_with_a_repeated_record_is_corrupt(tmp_path, sbm_tiny):
    path = tmp_path / "model.ckpt"
    save_checkpoint(train(sbm_tiny, small_config(epochs=1)), path)
    raw = path.read_bytes()
    (start, data, end), = [r[1:] for r in _records(raw) if r[0] == "online_encoder/w0"]
    # the second copy holds other values, which must not replace the first
    second = raw[start:data] + np.full((end - data) // 8, 0.5, dtype="<f8").tobytes()
    path.write_bytes(raw[:end] + second + raw[end:])
    with pytest.raises(CheckpointCorruptionError, match="duplicate tensor 'online_encoder/w0'"):
        load_checkpoint(path)


def test_loading_a_checkpoint_allocates_little_beyond_the_two_encoders(tmp_path, sbm_tiny):
    config = small_config(epochs=1, encoder_dims=[16, 256, 128], predictor_dims=[128, 128])
    model = train(sbm_tiny, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    # reading every record into a buffer of its own, then copying it into
    # the encoders, peaks at twice this
    encoders = 2 * model.model.online_encoder.buffer.nbytes  # 596 KB
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * encoders
    assert loaded.model.online_encoder.buffer.tobytes() == (
        model.model.online_encoder.buffer.tobytes()
    )


def test_checkpoint_rejects_a_tensor_shape_the_config_does_not_imply(tmp_path, sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=1))
    online = model.model.online_encoder
    online.weights[1] = online.weights[1].T.copy()  # (12, 6) stored as (6, 12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(
        CheckpointCorruptionError,
        match=r"'online_encoder/w1' has shape \(6, 12\), the config implies \(12, 6\)",
    ):
        load_checkpoint(path)


@pytest.mark.parametrize("name, value", [
    ("online_encoder/w0", np.nan), ("target_encoder/b1", np.inf), ("history", -np.inf),
])
def test_checkpoint_rejects_non_finite_values(tmp_path, sbm_tiny, name, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(train(sbm_tiny, small_config(epochs=2)), path)
    raw = bytearray(path.read_bytes())
    (data,) = [data for record, _, data, _ in _records(bytes(raw)) if record == name]
    raw[data + 8:data + 16] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruptionError, match=f"'{name}' holds NaN or infinite"):
        load_checkpoint(path)


def test_checkpoint_short_read_is_corruption(tmp_path, sbm_tiny, monkeypatch):
    # the file shrinks after its size was read: the last tensor comes up short
    path = tmp_path / "model.ckpt"
    save_checkpoint(train(sbm_tiny, small_config(epochs=2)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    size = os.stat_result((0,) * 6 + (len(raw),) + (0,) * 3)  # st_size is field 6
    monkeypatch.setattr(training.os, "fstat", lambda fd: size)
    with pytest.raises(CheckpointCorruptionError, match="'history' ends early"):
        load_checkpoint(path)


def test_checkpoint_faults_raise_only_checkpoint_errors(tmp_path, sbm_tiny):
    """Truncation at every record's start, data offset and end, and seeded
    single-bit flips: each faulty file either loads, and then encodes, or
    raises a CheckpointError subclass.  Flips inside weight values load
    unnoticed; there is no checksum."""
    model = train(sbm_tiny, small_config(epochs=2))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    records = _records(raw)
    (meta_len,) = struct.unpack_from("<Q", raw, 6)
    cuts = sorted({cut for _, *bounds in records for cut in bounds})
    header_bytes = np.concatenate(
        [np.arange(14 + meta_len)] + [np.arange(start, data) for _, start, data, _ in records]
    )
    rng = np.random.default_rng(0)
    # half of the flips land anywhere, half in the metadata and record headers
    positions = np.concatenate([
        rng.integers(len(raw), size=1000), rng.choice(header_bytes, size=1000),
    ])
    bits = rng.integers(8, size=positions.size)
    variants = [raw[:cut] for cut in cuts]
    for pos, bit in zip(positions.tolist(), bits.tolist()):
        flipped = bytearray(raw)
        flipped[pos] ^= 1 << bit
        variants.append(bytes(flipped))

    faulty = tmp_path / "faulty.ckpt"
    outcomes = Counter()
    for data in variants:
        faulty.write_bytes(data)
        try:
            loaded = load_checkpoint(faulty)
        except CheckpointError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["loaded"] += 1
        with np.errstate(all="ignore"):  # a flipped exponent may overflow
            assert encode(loaded, sbm_tiny).shape[0] == sbm_tiny.n_nodes
    assert sum(outcomes.values()) == len(cuts) + 2000
    assert outcomes["loaded"] and outcomes["CheckpointCorruptionError"]


@pytest.mark.parametrize("name, dims", [
    (b"extra", (1 << 62, 1 << 62)),  # the element count overflows 64 bits
    (b"extra", (0, (1 << 64) - 1)),  # no bytes, but no array has this shape
    (b"\xff", (1,)),  # the name is not UTF-8
])
def test_checkpoint_rejects_impossible_record_headers(tmp_path, sbm_tiny, name, dims):
    path = tmp_path / "model.ckpt"
    save_checkpoint(train(sbm_tiny, small_config(epochs=1)), path)
    record = struct.pack(f"<Q{len(name)}sQ{len(dims)}Q", len(name), name, len(dims), *dims)
    path.write_bytes(path.read_bytes() + record + b"\0" * 8)
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(path)


def test_failed_save_leaves_the_previous_checkpoint_in_place(tmp_path, sbm_tiny, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(train(sbm_tiny, small_config(epochs=1)), path)
    before = path.read_bytes()

    write_tensor = training._write_tensor
    written = []

    def fail_after_the_first_record(f, name, arr):
        if written:
            raise OSError("no space left on device")
        written.append(name)
        write_tensor(f, name, arr)

    monkeypatch.setattr(training, "_write_tensor", fail_after_the_first_record)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(train(sbm_tiny, small_config(epochs=2, seed=1)), path)
    assert written == ["online_encoder/w0"]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_failed_history_write_leaves_the_previous_file_in_place(tmp_path, sbm_tiny, monkeypatch):
    path = tmp_path / "history.tsv"
    model = train(sbm_tiny, small_config(epochs=2))
    write_history(path, model.history[:1])
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_history(path, model.history)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["history.tsv"]


def test_write_history_round_trips_values(tmp_path, sbm_tiny):
    model = train(sbm_tiny, small_config(epochs=3))
    history = np.vstack([model.history, [4, 0.0, 1e-300, 123456789.123456789, -2.5]])
    path = tmp_path / "history.tsv"
    write_history(path, history)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch\tloss\tl_struct\tl_neighbor\tl_upper"
    assert len(lines) == 5
    parsed = np.array(
        [[float(v) for v in line.split("\t")] for line in lines[1:]]
    )
    np.testing.assert_array_equal(parsed, history)
    # byte for byte what a per-row formatting loop writes
    rows = ["\t".join([str(int(row[0]))] + [f"{v:.17g}" for v in row[1:]]) for row in history]
    assert path.read_bytes() == "".join(line + "\n" for line in [lines[0], *rows]).encode()
