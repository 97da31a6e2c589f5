"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single result line
(`criterion NN: PASS/FAIL/SKIP ...`).  The citation-network criteria skip
loudly when the datasets are not present; see conftest for where to put
them.  Run just this gate with `pytest tests/test_acceptance.py`, or leave
it out of a quick loop with `-m "not acceptance"`.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    collected_epoch_backward,
    dense_smooth_oracle,
    numeric_grad,
    planetoid_paths,
    random_graph,
)

from sngcl.cli import run_command
from sngcl.data import SbmConfig, generate_sbm, load_planetoid
from sngcl.evaluation import (
    SplitSpec,
    accuracy,
    evaluate_embeddings,
    make_split,
    run_ablation,
    train_probe,
)
from sngcl.graph import MODES, smooth_features
from sngcl.losses import neighbor_operator, sample_neighbor_indices, total_loss
from sngcl.nn import init_mlp
from sngcl.rng import stream_rng
from sngcl.training import (
    EMBED_ONLINE_LOCAL,
    EpochPlan,
    TrainConfig,
    VIEW_MODES,
    _epoch_forward,
    encode,
    train,
)

pytestmark = pytest.mark.acceptance


def _finish(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def _skip(num: int, reason: str):
    line = f"criterion {num:02d}: SKIP  {reason}"
    print(line)
    pytest.skip(line)


def _planetoid_or_skip(num: int, name: str):
    paths = planetoid_paths(name)
    if paths is None:
        _skip(
            num,
            f"dataset {name!r} not present; place {name}.content and "
            f"{name}.cites under <repo>/data/{name}/ or set SNGCL_DATA",
        )
    return paths


def test_criterion_01_smoothing_matches_dense_operator_powers():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        f = int(rng.integers(1, 9))
        g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.5)), n_features=f)
        t = int(rng.integers(0, 6))
        for mode in MODES:
            got = smooth_features(g, t, mode)
            want = dense_smooth_oracle(g, t, mode)
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _finish(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"max |err| {worst:.2e} over 200 graphs x 2 modes x t<=5 in {elapsed:.1f}s",
    )


def _gradient_instance(seed: int):
    """A tiny training state plus one epoch's frozen sampling choices,
    resampled until every hinge bracket and hidden pre-activation sits
    comfortably away from its kink."""
    for attempt in range(25):
        rng = np.random.default_rng((seed + 1) * 1000 + attempt)
        n = int(rng.integers(4, 7))
        f = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        g = random_graph(rng, n, p=0.6, n_features=f)
        config = TrainConfig(
            encoder_dims=[f, int(rng.integers(3, 6)), d],
            predictor_dims=[d, int(rng.integers(3, 5)), d],
        )
        config.loss.k = int(rng.integers(1, 4))
        config.loss.n_neighbors = int(rng.integers(1, 3))

        online = init_mlp(config.encoder_dims, rng)
        predictor = init_mlp(config.predictor_dims, rng)
        target = init_mlp(config.encoder_dims, rng)
        # open the ReLUs a little so no pre-activation starts at zero
        for mlp in (online, predictor, target):
            for b in mlp.biases:
                b += rng.uniform(0.05, 0.3, size=b.shape)

        x_online = smooth_features(g, config.t, "symmetric")
        x_target = smooth_features(g, config.t, "random-walk")
        plan = EpochPlan(
            neighbor_op=neighbor_operator(sample_neighbor_indices(g, config.loss.n_neighbors, rng)),
            permutations=[rng.permutation(n) for _ in range(config.loss.k)],
        )
        fwd = _epoch_forward(online, predictor, target, x_online, x_target, plan)

        hinge = _min_hinge_margin(fwd.batch, config.loss)
        kink = _min_relu_margin(fwd, online, predictor)
        if hinge > 1e-3 and kink > 1e-3:
            return g, config, online, predictor, target, x_online, x_target, plan
    raise AssertionError(f"no well-conditioned instance found for seed {seed}")


def _min_hinge_margin(batch, cfg) -> float:
    worst = np.inf
    negatives = [batch.negative_rows[perm] for perm in batch.permutations]
    for pos in (batch.positive_struct, batch.positive_neighbor):
        dp = ((batch.anchor - pos) ** 2).sum(axis=1)
        for neg in negatives:
            dn = ((batch.anchor - neg) ** 2).sum(axis=1)
            worst = min(worst, float(np.abs(dp - dn + cfg.alpha).min()))
    dp = ((batch.anchor - batch.positive_struct) ** 2).sum(axis=1)
    for neg in negatives:
        dn = ((batch.anchor - neg) ** 2).sum(axis=1)
        worst = min(worst, float(np.abs(dp - dn + cfg.alpha + cfg.beta).min()))
    return worst


def _min_relu_margin(fwd, online, predictor) -> float:
    # the cache keeps ReLU outputs only, so each hidden pre-activation is
    # recomputed from its layer's input
    worst = np.inf
    for cache, net in ((fwd.cache_enc, online), (fwd.cache_pred, predictor)):
        for x, w, b in zip(cache.inputs, net.weights[:-1], net.biases[:-1]):
            worst = min(worst, float(np.abs(x @ w + b).min()))
    return worst


def test_criterion_02_end_to_end_gradients_match_finite_differences():
    start = time.perf_counter()
    worst_rel = 0.0
    checked = 0
    for seed in range(6):
        g, config, online, predictor, target, x_on, x_tg, plan = _gradient_instance(seed)

        fwd = _epoch_forward(online, predictor, target, x_on, x_tg, plan)
        out = total_loss(fwd.batch, config.loss)
        enc_grads, pred_grads = collected_epoch_backward(fwd, out, online, predictor, plan)

        # negatives are constants by design: freeze a base-point copy of their rows so
        # finite differences evaluate the same map the backward pass uses
        frozen = fwd.batch.anchor.copy()

        def loss_value():
            f2 = _epoch_forward(online, predictor, target, x_on, x_tg, plan)
            return total_loss(replace(f2.batch, negative_rows=frozen), config.loss).total

        pairs = list(zip(online.params(), enc_grads.params()))
        pairs += list(zip(predictor.params(), pred_grads.params()))
        for param, analytic in pairs:
            fd = numeric_grad(loss_value, param, eps=1e-5)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
            worst_rel = max(worst_rel, float(np.max(np.abs(analytic - fd) / denom)))
            checked += param.size
    elapsed = time.perf_counter() - start
    _finish(
        2,
        worst_rel < 1e-4 and elapsed < 30.0,
        f"max rel err {worst_rel:.2e} over {checked} online-network "
        f"parameters on 6 instances in {elapsed:.1f}s",
    )


def test_criterion_03_target_follows_exact_momentum_recursion():
    graph = generate_sbm(
        SbmConfig(nodes_per_block=15, n_blocks=2, p_in=0.3, p_out=0.05,
                  feature_dim=8, seed=2)
    )
    config = TrainConfig(
        epochs=20,
        encoder_dims=[8, 10, 6],
        predictor_dims=[6, 8, 6],
        seed=4,
    )
    snaps = []
    model = train(
        graph,
        config,
        epoch_callback=lambda e, s: snaps.append(
            (s.online_encoder.copy(), s.target_encoder.copy())
        ),
    )
    assert len(snaps) == 20

    # the optimizer owns exactly the online encoder + predictor tensors
    state = model.model
    n_trainable = len(state.online_encoder.params()) + len(state.predictor.params())
    assert len([m for net in state.optimizer.first for m in net.params()]) == n_trainable
    trainable_ids = {id(p) for p in state.online_encoder.params() + state.predictor.params()}
    assert all(id(p) not in trainable_ids for p in state.target_encoder.params())

    # replay the recursion from the initial weights; equality must be bitwise
    rng_init = stream_rng(config.seed, "init")
    expected = init_mlp(config.encoder_dims, rng_init)  # target starts as the online copy
    init_mlp(config.predictor_dims, rng_init)
    m = config.momentum
    for online_e, target_e in snaps:
        for l in range(expected.n_layers):
            expected.weights[l] = m * expected.weights[l] + (1.0 - m) * online_e.weights[l]
            expected.biases[l] = m * expected.biases[l] + (1.0 - m) * online_e.biases[l]
            np.testing.assert_array_equal(expected.weights[l], target_e.weights[l])
            np.testing.assert_array_equal(expected.biases[l], target_e.biases[l])
    _finish(
        3,
        True,
        f"target equals the EMA recursion bitwise for 20 epochs; optimizer "
        f"holds {n_trainable} tensors, none from the target",
    )


def _criterion_sbm(seed: int):
    return generate_sbm(
        SbmConfig(
            nodes_per_block=100, n_blocks=2, p_in=0.1, p_out=0.01,
            feature_shift=1.0, noise_std=1.0, seed=seed,
        )
    )


def _probe_one_seed(graph, seed: int, view_mode: str = "both"):
    """Train with full defaults for one seed and probe on that seed's split."""
    model = train(graph, TrainConfig(seed=seed, view_mode=view_mode))
    emb = encode(model, graph, EMBED_ONLINE_LOCAL)
    split = make_split(
        graph.labels, graph.n_classes,
        SplitSpec(train_per_class=20, val_total=20),
        stream_rng(seed, "split"),
    )
    probe = train_probe(emb[split.train_idx], graph.labels[split.train_idx], graph.n_classes)
    acc = accuracy(probe.predict(emb[split.test_idx]), graph.labels[split.test_idx])
    return model, probe, acc


def test_criterion_04_sbm_blocks_are_separated():
    start = time.perf_counter()
    accs = []
    for seed in range(5):
        graph = _criterion_sbm(seed)
        model, probe, acc = _probe_one_seed(graph, seed)
        accs.append(acc)

        # invariants checked on real acceptance runs: every recorded loss is
        # finite and nonnegative, training makes net progress, and the probe
        # objective never increases
        hist = model.history
        assert np.all(np.isfinite(hist)) and np.all(hist[:, 1:] >= 0.0)
        tenth = len(hist) // 10
        assert hist[-tenth:, 1].mean() <= hist[:tenth, 1].mean()
        assert np.all(np.diff(probe.losses) <= 1e-12)
    mean_acc = float(np.mean(accs))
    elapsed = time.perf_counter() - start
    _finish(
        4,
        mean_acc >= 0.95 and elapsed < 120.0,
        f"mean test ACC {mean_acc:.4f} over 5 seeds in {elapsed:.1f}s "
        f"(per-seed {', '.join(f'{a:.3f}' for a in accs)})",
    )


def test_criterion_05_cora_accuracy():
    paths = _planetoid_or_skip(5, "cora")
    start = time.perf_counter()
    graph = load_planetoid(*paths).graph
    model = train(graph, TrainConfig(seed=0))
    emb = encode(model, graph, EMBED_ONLINE_LOCAL)
    report = evaluate_embeddings(
        emb, graph.labels, graph.n_classes,
        SplitSpec(train_per_class=20, val_total=500), range(10),
    )
    elapsed = time.perf_counter() - start
    _finish(
        5,
        report.mean_test >= 0.78 and elapsed < 900.0,
        f"cora mean test ACC {report.mean_test:.4f} +/- {report.std_test:.4f} "
        f"over 10 splits in {elapsed:.0f}s",
    )


def test_criterion_06_citeseer_accuracy():
    paths = _planetoid_or_skip(6, "citeseer")
    start = time.perf_counter()
    graph = load_planetoid(*paths).graph
    model = train(graph, TrainConfig(seed=0))
    emb = encode(model, graph, EMBED_ONLINE_LOCAL)
    report = evaluate_embeddings(
        emb, graph.labels, graph.n_classes,
        SplitSpec(train_per_class=20, val_total=500), range(10),
    )
    elapsed = time.perf_counter() - start
    _finish(
        6,
        report.mean_test >= 0.66 and elapsed < 900.0,
        f"citeseer mean test ACC {report.mean_test:.4f} +/- {report.std_test:.4f} "
        f"over 10 splits in {elapsed:.0f}s",
    )


def test_criterion_07_dual_views_beat_single_views():
    start = time.perf_counter()
    accs = {mode: [] for mode in VIEW_MODES}
    for seed in range(10):
        graph = _criterion_sbm(seed)
        report = run_ablation(
            graph,
            TrainConfig(),
            [seed],
            SplitSpec(train_per_class=20, val_total=20),
        )
        for mode in VIEW_MODES:
            accs[mode].append(report[mode].mean_test)
    means = {mode: float(np.mean(v)) for mode, v in accs.items()}
    both = means["both"]
    single_best = max(means["global-only"], means["local-only"])
    elapsed = time.perf_counter() - start
    _finish(
        7,
        both >= single_best - 0.01,
        f"both {both:.4f} vs global-only {means['global-only']:.4f} / "
        f"local-only {means['local-only']:.4f} over 10 seeds in {elapsed:.0f}s",
    )


def test_criterion_08_depth_sweep_emits_accuracy_table():
    paths = _planetoid_or_skip(8, "cora")
    graph = load_planetoid(*paths).graph
    spec = SplitSpec(train_per_class=20, val_total=500)
    table = []
    for t in range(1, 6):
        # a shortened schedule: only completion and the table's shape are
        # asserted here, so the sweep does not need the full 500 epochs
        model = train(graph, TrainConfig(t=t, epochs=100, seed=0))
        emb = encode(model, graph, EMBED_ONLINE_LOCAL)
        report = evaluate_embeddings(emb, graph.labels, graph.n_classes, spec, [0])
        table.append((t, report.mean_test))
    print("t\tacc_test")
    for t, acc in table:
        print(f"{t}\t{acc:.4f}")
    shape_ok = (
        len(table) == 5
        and [t for t, _ in table] == [1, 2, 3, 4, 5]
        and all(np.isfinite(a) and 0.0 <= a <= 1.0 for _, a in table)
    )
    _finish(
        8,
        shape_ok,
        "accuracy-vs-t table emitted: "
        + " ".join(f"t{t}={a:.3f}" for t, a in table),
    )


def test_criterion_09_identical_seeds_reproduce_bitwise(tmp_path):
    data = tmp_path / "sbm"
    assert run_command([
        "gen-sbm", "--nodes-per-block", "30", "--blocks", "2",
        "--p-in", "0.3", "--p-out", "0.02", "--seed", "3", "--out", str(data),
    ]) == 0

    reports = []
    runs = []
    for i in (1, 2):
        run_dir = tmp_path / f"run{i}"
        assert run_command([
            "train", "--data", str(data), "--seed", "5", "--epochs", "60",
            "--encoder-dims", "16,24,12", "--predictor-dims", "12,16,12",
            "--out", str(run_dir),
        ]) == 0
        report = tmp_path / f"report{i}.txt"
        assert run_command([
            "eval", "--data", str(data), "--checkpoint", str(run_dir / "model.ckpt"),
            "--train-per-class", "10", "--val-total", "10", "--splits", "3",
            "--out", str(report),
        ]) == 0
        runs.append(run_dir)
        reports.append(report)

    hist1 = (runs[0] / "history.tsv").read_bytes()
    hist2 = (runs[1] / "history.tsv").read_bytes()
    ckpt_equal = (runs[0] / "model.ckpt").read_bytes() == (runs[1] / "model.ckpt").read_bytes()
    # accuracies live below [results]; timings above it differ run to run
    acc1 = reports[0].read_text().split("[results]")[1]
    acc2 = reports[1].read_text().split("[results]")[1]
    _finish(
        9,
        hist1 == hist2 and acc1 == acc2 and ckpt_equal,
        f"history files byte-identical ({len(hist1)} bytes), checkpoints "
        f"byte-identical, per-seed accuracies identical at full precision",
    )


def test_criterion_10_citation_datasets_load_with_exact_shapes():
    expected = {"cora": (2708, 1433, 7), "citeseer": (3327, 3703, 6)}
    found = {}
    for name, want in expected.items():
        paths = planetoid_paths(name)
        if paths is None:
            continue
        g = load_planetoid(*paths).graph
        found[name] = (g.n_nodes, g.n_features, g.n_classes)
        assert found[name] == want, f"{name}: {found[name]} != {want}"
    missing = sorted(set(expected) - set(found))
    if missing:
        detail = ", ".join(f"{n}={found[n]}" for n in sorted(found)) or "none checked"
        _skip(
            10,
            f"dataset(s) {missing} not present (verified: {detail}); place "
            f"<name>.content/.cites under <repo>/data/<name>/ or set SNGCL_DATA",
        )
    _finish(
        10,
        True,
        "cora (2708, 1433, 7) and citeseer (3327, 3703, 6) load exactly",
    )
