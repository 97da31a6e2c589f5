"""Stratified splits, the linear probe, and the evaluation reports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sngcl import evaluation
from sngcl.errors import InputError
from sngcl.evaluation import (
    PROBE_L2,
    PROBE_TOLERANCE,
    SplitSpec,
    accuracy,
    evaluate_embeddings,
    make_split,
    run_ablation,
    train_probe,
)
from sngcl.rng import stream_rng
from sngcl.training import TrainConfig


def labeled_population(seed=0, per_class=(60, 45, 80), unlabeled=15):
    rng = np.random.default_rng(seed)
    labels = np.concatenate(
        [np.full(n, c) for c, n in enumerate(per_class)] + [np.full(unlabeled, -1)]
    )
    rng.shuffle(labels)
    return labels


def test_split_spec_checks_its_sizes():
    assert SplitSpec(20) == SplitSpec(20, val_total=500)
    with pytest.raises(InputError, match="train_per_class"):
        SplitSpec(0, val_total=10)
    with pytest.raises(InputError, match="val_total"):
        SplitSpec(20, val_total=-1)
    SplitSpec(1, val_total=0)


def test_make_split_stratified_sizes_and_disjointness():
    labels = labeled_population()
    split = make_split(labels, 3, SplitSpec(10, val_total=25), stream_rng(0, "split"))
    assert split.train_idx.size == 30
    assert split.val_idx.size == 25
    assert split.test_idx.size == (60 + 45 + 80) - 30 - 25
    # exactly train_per_class of each class in train
    assert np.bincount(labels[split.train_idx], minlength=3).tolist() == [10, 10, 10]
    combined = np.concatenate([split.train_idx, split.val_idx, split.test_idx])
    assert len(set(combined)) == combined.size
    for part in (split.train_idx, split.val_idx, split.test_idx):
        assert np.all(np.diff(part) > 0)  # sorted, unique


def test_make_split_never_selects_unlabeled_nodes():
    labels = labeled_population(unlabeled=40)
    split = make_split(labels, 3, SplitSpec(5, val_total=12), stream_rng(1, "split"))
    for part in (split.train_idx, split.val_idx, split.test_idx):
        assert np.all(labels[part] >= 0)


def test_make_split_is_deterministic_per_rng():
    labels = labeled_population()
    spec = SplitSpec(10, val_total=25)
    a = make_split(labels, 3, spec, stream_rng(5, "split"))
    b = make_split(labels, 3, spec, stream_rng(5, "split"))
    c = make_split(labels, 3, spec, stream_rng(6, "split"))
    np.testing.assert_array_equal(a.train_idx, b.train_idx)
    np.testing.assert_array_equal(a.test_idx, b.test_idx)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_make_split_names_the_deficient_class():
    labels = np.array([0, 0, 0, 1, 1])
    with pytest.raises(InputError, match="class 1"):
        make_split(labels, 2, SplitSpec(3, val_total=0), stream_rng(0, "split"))


def test_make_split_rejects_oversized_validation_total():
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(InputError, match="val_total"):
        make_split(labels, 2, SplitSpec(1, val_total=5), stream_rng(0, "split"))


def test_make_split_rejects_an_empty_validation_or_test_part():
    labels = labeled_population()  # 185 labeled nodes, 155 left after training
    for val_total in (0, 155, 156):
        with pytest.raises(InputError, match=f"val_total={val_total}"):
            make_split(labels, 3, SplitSpec(10, val_total=val_total), stream_rng(0, "split"))
    split = make_split(labels, 3, SplitSpec(10, val_total=154), stream_rng(0, "split"))
    assert (split.val_idx.size, split.test_idx.size) == (154, 1)


def loop_split(labels, n_classes, spec, rng):
    """The per-node loop ``make_split`` used before it ranked nodes within
    their class: the reference its whole-array draw must equal."""
    labels = np.asarray(labels)
    labeled = np.flatnonzero(labels >= 0)
    taken = np.zeros(n_classes, dtype=np.int64)
    train, rest = [], []
    for i in labeled[rng.permutation(labeled.size)]:
        full = taken[labels[i]] >= spec.train_per_class
        taken[labels[i]] += not full
        (rest if full else train).append(i)
    val, test = rest[: spec.val_total], rest[spec.val_total:]
    return [np.sort(np.asarray(part, dtype=np.int64)) for part in (train, val, test)]


@pytest.mark.parametrize("per_class, unlabeled, spec", [
    ((60, 45, 80), 15, SplitSpec(10, val_total=25)),
    ((7, 30, 12, 25), 40, SplitSpec(7, val_total=20)),  # class 0 has exactly 7 nodes
    ((3, 5), 2, SplitSpec(3, val_total=1)),  # class 0 goes to training whole
])
def test_make_split_equals_the_per_node_loop(per_class, unlabeled, spec):
    labels = labeled_population(seed=len(per_class), per_class=per_class, unlabeled=unlabeled)
    n_classes = len(per_class)
    for seed in range(50):
        split = make_split(labels, n_classes, spec, stream_rng(seed, "split"))
        want = loop_split(labels, n_classes, spec, stream_rng(seed, "split"))
        for got, part in zip((split.train_idx, split.val_idx, split.test_idx), want):
            assert got.dtype == part.dtype and got.tobytes() == part.tobytes()


@pytest.mark.parametrize("labels, n_classes, bad", [
    ([0, 0, 0, 1, 1, 1, 2, 2, 2, 2], 2, "label 2 of node 6"),
    ([0, 0, -2, 1, 1, 1, 0, 1], 2, "label -2 of node 2"),
])
def test_make_split_rejects_a_label_outside_the_classes(labels, n_classes, bad):
    labels = np.array(labels)
    with pytest.raises(InputError, match=f"{bad} lies outside \\[-1, {n_classes}\\)"):
        make_split(labels, n_classes, SplitSpec(1, val_total=1), stream_rng(0, "split"))
    emb = np.random.default_rng(0).standard_normal((labels.size, 2))
    with pytest.raises(InputError, match=bad):
        evaluate_embeddings(emb, labels, n_classes, SplitSpec(1, val_total=1), seeds=[0])


def test_canonical_citation_protocol_sizes():
    # 7 classes, 2708 nodes: 140 train / 500 val / 2068 test.
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 7, size=2708)
    split = make_split(labels, 7, SplitSpec(20, val_total=500), stream_rng(0, "split"))
    assert (split.train_idx.size, split.val_idx.size, split.test_idx.size) == (140, 500, 2068)


def test_probe_separates_gaussian_blobs():
    rng = np.random.default_rng(1)
    x = np.vstack([
        rng.standard_normal((40, 3)) * 0.1 + [3, 0, 0],
        rng.standard_normal((40, 3)) * 0.1 + [0, 3, 0],
        rng.standard_normal((40, 3)) * 0.1 + [0, 0, 3],
    ])
    y = np.repeat([0, 1, 2], 40)
    probe = train_probe(x, y, 3)
    assert accuracy(probe.predict(x), y) == 1.0


def test_probe_is_deterministic():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 4))
    y = rng.integers(0, 3, size=30)
    a = train_probe(x, y, 3)
    b = train_probe(x, y, 3)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()


def test_probe_matches_scalar_reference_implementation():
    # Per-sample transcription of softmax regression on standardised
    # features with L2 on the weights only: at the returned parameters, mapped
    # back to standardised coordinates, its gradient is within the tolerance
    # and its objective is the last recorded loss.
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5], [2.0, 3.0]])
    y = np.array([0, 1, 1, 0, 2])
    probe = train_probe(x, y, 3)

    mean = [sum(x[i, j] for i in range(5)) / 5 for j in range(2)]
    std = [(sum((x[i, j] - mean[j]) ** 2 for i in range(5)) / 5) ** 0.5 for j in range(2)]
    z = (x - mean) / std
    w = probe.weights * np.array(std)[:, None]
    b = probe.bias + np.array(mean) @ probe.weights
    value = 0.5 * PROBE_L2 * float(np.sum(w * w))
    gw = PROBE_L2 * w
    gb = np.zeros(3)
    for i in range(5):
        logits = z[i] @ w + b
        p = np.exp(logits - logits.max())
        p /= p.sum()
        value -= np.log(p[y[i]]) / 5
        p[y[i]] -= 1.0
        gw += np.outer(z[i], p) / 5
        gb += p / 5

    assert probe.converged
    assert max(np.abs(gw).max(), np.abs(gb).max()) <= PROBE_TOLERANCE
    assert value == pytest.approx(probe.losses[-1], rel=1e-12)


def test_probe_loss_trajectory_is_recorded_and_non_increasing():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 6))
    y = rng.integers(0, 4, size=50)  # unlearnable labels still descend smoothly
    probe = train_probe(x, y, 4)
    assert probe.converged
    assert len(probe.losses) == probe.iterations + 1
    assert np.all(np.isfinite(probe.losses))
    assert np.all(np.diff(probe.losses) <= 1e-12)
    # from zero init the first value is exactly log(n_classes)
    assert probe.losses[0] == pytest.approx(np.log(4))


def test_probe_config_fit_is_bitwise_repeatable():
    # the zero-initialized full-batch fit draws nothing at random
    x = np.eye(4)
    y = np.array([0, 1, 0, 1])
    a = train_probe(x, y, 2)
    b = train_probe(x, y, 2)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()
    assert a.losses.tobytes() == b.losses.tobytes()


def test_probe_reports_the_iteration_cap_and_a_failed_line_search_as_not_converged(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 6))
    y = rng.integers(0, 4, size=50)
    assert train_probe(x, y, 4).iterations > 1
    monkeypatch.setattr(evaluation, "PROBE_MAX_ITERATIONS", 1)
    probe = train_probe(x, y, 4)
    assert (probe.iterations, probe.converged, len(probe.losses)) == (1, False, 2)
    report = evaluate_embeddings(x, y, 4, SplitSpec(5, val_total=10), seeds=[0, 1, 2])
    assert (report.probe_iterations, report.probe_unconverged) == (1, 3)
    # a line search that finds no descent step also ends the fit unconverged
    monkeypatch.setattr(evaluation, "_MAX_HALVINGS", 0)
    probe = train_probe(x, y, 4)
    assert (probe.iterations, probe.converged, len(probe.losses)) == (0, False, 1)


def reference_probe(x, y, n_classes, dropped):
    """``train_probe`` as it was before it kept ``y.s`` with each L-BFGS pair
    and reused the accepted trial point: the reference it must equal byte for
    byte.  Appends the iteration of every pair the curvature test drops to
    ``dropped``."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    mean, std = x.mean(axis=0), x.std(axis=0)
    std[std == 0] = 1.0
    z = (x - mean) / std
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    def objective(theta):
        w, b = theta[:-n_classes].reshape(d, n_classes), theta[-n_classes:]
        logits = z @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits).sum(axis=1))
        g = (np.exp(logits - lse[:, None]) - onehot) / n
        value = np.mean(lse - logits[np.arange(n), y]) + 0.5 * PROBE_L2 * np.sum(w * w)
        return value, np.concatenate([(z.T @ g + PROBE_L2 * w).ravel(), g.sum(axis=0)])

    theta = np.zeros((d + 1) * n_classes)
    f, g = objective(theta)
    losses, pairs = [f], []
    converged = bool(np.max(np.abs(g)) <= evaluation.PROBE_TOLERANCE)
    while not converged and len(losses) <= evaluation.PROBE_MAX_ITERATIONS:
        q, alphas = g.copy(), []
        for s, yv in reversed(pairs):
            alphas.append(s @ q / (yv @ s))
            q -= alphas[-1] * yv
        if pairs:
            q *= pairs[-1][0] @ pairs[-1][1] / (pairs[-1][1] @ pairs[-1][1])
        for (s, yv), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - yv @ q / (yv @ s)) * s
        direction, slope = -q, -(g @ q)
        if not slope < 0:
            direction, slope, pairs = -g, -(g @ g), []
        step = 1.0
        for _ in range(evaluation._MAX_HALVINGS):
            f_new, g_new = objective(theta + step * direction)
            if f_new <= f + evaluation._ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        s, yv = step * direction, g_new - g
        if s @ yv > 1e-12 * np.sqrt((s @ s) * (yv @ yv)):
            pairs = (pairs + [(s, yv)])[-evaluation.PROBE_HISTORY:]
        else:
            dropped.append(len(losses))
        theta, f, g = theta + s, f_new, g_new
        losses.append(f)
        converged = bool(np.max(np.abs(g)) <= evaluation.PROBE_TOLERANCE)

    w, b = theta[:-n_classes].reshape(d, n_classes), theta[-n_classes:]
    weights, bias = w / std[:, None], b - (mean / std) @ w
    return evaluation.Probe(weights, bias, np.array(losses), len(losses) - 1, converged)


def _probe_problem(seed, n, d, n_classes):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % n_classes
    return rng.standard_normal((n, d)) + y[:, None] * 0.5, y


def _assert_same_probe(got, want):
    for name in ("weights", "bias", "losses"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


@pytest.mark.parametrize("seed, n, d, n_classes", [
    (0, 50, 6, 4), (1, 140, 32, 7), (3, 30, 40, 3), (4, 25, 5, 3),
])
def test_probe_equals_the_reference_byte_for_byte(seed, n, d, n_classes):
    x, y = _probe_problem(seed, n, d, n_classes)
    dropped = []
    want = reference_probe(x, y, n_classes, dropped)
    assert want.converged and want.iterations > evaluation.PROBE_HISTORY
    _assert_same_probe(train_probe(x, y, n_classes), want)


def test_probe_equals_the_reference_when_it_stops_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(evaluation, "PROBE_MAX_ITERATIONS", 3)
    x, y = _probe_problem(1, 140, 32, 7)
    want = reference_probe(x, y, 7, [])
    assert (want.iterations, want.converged) == (3, False)
    _assert_same_probe(train_probe(x, y, 7), want)


def test_probe_equals_the_reference_when_the_curvature_test_drops_pairs(monkeypatch):
    # with no tolerance the fit runs on past the optimum, where a step no
    # longer changes the gradient and the pair it makes is dropped
    monkeypatch.setattr(evaluation, "PROBE_TOLERANCE", 0.0)
    monkeypatch.setattr(evaluation, "PROBE_MAX_ITERATIONS", 80)
    x, y = _probe_problem(2, 12, 3, 2)
    dropped = []
    want = reference_probe(x, y, 2, dropped)
    assert dropped and not want.converged
    _assert_same_probe(train_probe(x, y, 2), want)


def test_probe_standardises_with_the_training_rows_and_skips_constant_columns():
    # a scaled, shifted copy of the features gives the same predictions, and
    # a constant column neither divides by zero nor changes them
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 3)) + np.repeat([0, 1, 2], 20)[:, None]
    y = np.repeat([0, 1, 2], 20)
    test = rng.standard_normal((40, 3)) + 1.0
    want = train_probe(x, y, 3).predict(test)
    scale, shift = np.array([1e-3, 10.0, 1.0]), np.array([5.0, -3.0, 100.0])
    np.testing.assert_array_equal(
        train_probe(x * scale + shift, y, 3).predict(test * scale + shift), want
    )
    constant = lambda a: np.hstack([a, np.full((len(a), 1), 7.0)])
    probe = train_probe(constant(x), y, 3)
    assert probe.converged and np.all(np.isfinite(probe.weights))
    np.testing.assert_array_equal(probe.predict(constant(test)), want)


def test_probe_input_checks():
    with pytest.raises(InputError):
        train_probe(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
    with pytest.raises(InputError):
        train_probe(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)


def test_accuracy_counts_exact_matches():
    assert accuracy(np.array([1, 2, 3, 4]), np.array([1, 0, 3, 0])) == 0.5
    with pytest.raises(InputError):
        accuracy(np.array([1]), np.array([1, 2]))
    with pytest.raises(InputError):
        accuracy(np.array([], dtype=int), np.array([], dtype=int))


def test_evaluate_embeddings_report_contents():
    rng = np.random.default_rng(3)
    labels = np.repeat([0, 1], 60)
    emb = rng.standard_normal((120, 4)) + labels[:, None] * 3.0
    report = evaluate_embeddings(
        emb, labels, 2, SplitSpec(10, val_total=20), seeds=[0, 1, 2]
    )
    assert [r.seed for r in report.rows] == [0, 1, 2]
    tests = np.array([r.acc_test for r in report.rows])
    assert report.mean_test == pytest.approx(tests.mean())
    assert report.std_test == pytest.approx(tests.std(ddof=1))
    assert not report.degenerate
    assert report.mean_test > 0.9  # trivially separable
    assert report.probe_unconverged == 0 and report.probe_iterations >= 1
    assert report.probe_iterations == max(r.probe_iterations for r in report.rows)
    assert all(r.probe_converged for r in report.rows)


def test_evaluate_embeddings_flags_collapsed_embeddings():
    labels = np.repeat([0, 1], 30)
    emb = np.ones((60, 3))
    report = evaluate_embeddings(
        emb, labels, 2, SplitSpec(5, val_total=10), seeds=[0]
    )
    assert report.degenerate


def test_evaluate_embeddings_single_seed_has_zero_std():
    rng = np.random.default_rng(4)
    labels = np.repeat([0, 1], 30)
    emb = rng.standard_normal((60, 3))
    report = evaluate_embeddings(emb, labels, 2, SplitSpec(5, val_total=10), seeds=[7])
    assert report.std_test == 0.0 and report.std_val == 0.0


def test_evaluate_embeddings_input_checks():
    labels = np.repeat([0, 1], 10)
    for bad in (np.nan, np.inf):
        emb = np.random.default_rng(0).standard_normal((20, 3))
        emb[4, 1] = bad
        with pytest.raises(InputError, match="NaN or infinite"):
            evaluate_embeddings(emb, labels, 2, SplitSpec(2, val_total=2), seeds=[0])
    with pytest.raises(InputError, match="seed"):
        evaluate_embeddings(np.zeros((4, 2)), np.zeros(4, dtype=int), 1,
                            SplitSpec(1, val_total=0), seeds=[])
    with pytest.raises(InputError, match="labels"):
        evaluate_embeddings(np.zeros((4, 2)), np.zeros(3, dtype=int), 1,
                            SplitSpec(1, val_total=0), seeds=[0])


# 120 nodes in 3 classes with 5 training nodes per class leave 105 for
# validation and test: 0 leaves no validation node, 105 no test node
EMPTY_PART_SPECS = [SplitSpec(5, val_total=0), SplitSpec(5, val_total=105)]


@pytest.mark.parametrize("spec", EMPTY_PART_SPECS)
def test_evaluate_embeddings_rejects_an_empty_validation_or_test_part(spec):
    labels = np.repeat([0, 1, 2], 40)
    emb = np.random.default_rng(0).standard_normal((120, 3)) + labels[:, None]
    with pytest.raises(InputError, match=f"val_total={spec.val_total}"):
        evaluate_embeddings(emb, labels, 3, spec, seeds=[0, 1])


@pytest.mark.parametrize("spec", EMPTY_PART_SPECS)
def test_run_ablation_rejects_an_empty_validation_or_test_part_before_training(
    spec, monkeypatch
):
    from sngcl.data import SbmConfig, generate_sbm

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the split was checked")

    monkeypatch.setattr(evaluation, "train", no_training)
    graph = generate_sbm(SbmConfig(nodes_per_block=40, n_blocks=3, p_in=0.2, p_out=0.02))
    config = TrainConfig(epochs=1, encoder_dims=[16, 4, 2], predictor_dims=[2, 2])
    with pytest.raises(InputError, match=f"val_total={spec.val_total}"):
        run_ablation(graph, config, train_seeds=[0, 1], spec=spec)


def test_run_ablation_covers_all_modes_and_seeds(sbm_tiny):
    config = TrainConfig(epochs=3, encoder_dims=[16, 8, 4], predictor_dims=[4, 6, 4])
    reports = run_ablation(
        sbm_tiny, config, train_seeds=[0, 1],
        spec=SplitSpec(5, val_total=10),
    )
    assert list(reports) == ["both", "global-only", "local-only"]
    for mode, r in reports.items():
        assert [row.seed for row in r.rows] == [0, 1]
        assert r.mean_test == np.mean([row.acc_test for row in r.rows])
        assert r.std_test == np.std([row.acc_test for row in r.rows], ddof=1)
        assert 0.0 <= r.mean_test <= 1.0
        assert r.probe_unconverged == 0 and not r.degenerate


def test_run_ablation_rows_are_evaluate_embeddings_of_each_trained_model(sbm_tiny):
    from dataclasses import replace

    from sngcl.training import encode, train

    config = TrainConfig(epochs=3, encoder_dims=[16, 8, 4], predictor_dims=[4, 6, 4])
    spec = SplitSpec(5, val_total=10)
    reports = run_ablation(sbm_tiny, config, train_seeds=[0, 1], spec=spec)
    row = reports["local-only"].rows[1]
    assert row.seed == 1
    model = train(sbm_tiny, replace(config, seed=1, view_mode="local-only"))
    (want,) = evaluate_embeddings(
        encode(model, sbm_tiny), sbm_tiny.labels, sbm_tiny.n_classes, spec, [1]
    ).rows
    assert (row.acc_val, row.acc_test) == (want.acc_val, want.acc_test)


def test_run_ablation_pools_the_probe_results_of_every_row(sbm_tiny, monkeypatch):
    monkeypatch.setattr(evaluation, "PROBE_MAX_ITERATIONS", 1)
    config = TrainConfig(epochs=2, encoder_dims=[16, 8, 4], predictor_dims=[4, 6, 4])
    reports = run_ablation(sbm_tiny, config, train_seeds=[0, 1], spec=SplitSpec(5, val_total=10))
    for r in reports.values():
        assert len(r.rows) == 2
        assert (r.probe_iterations, r.probe_unconverged) == (1, 2)


def test_run_ablation_checks_every_split_before_training(sbm_tiny, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the split was checked")

    monkeypatch.setattr(evaluation, "train", no_training)
    config = TrainConfig(epochs=1, encoder_dims=[16, 4, 2], predictor_dims=[2, 2])
    labeled = int(np.sum(sbm_tiny.labels >= 0))
    with pytest.raises(InputError, match="val_total"):
        run_ablation(sbm_tiny, config, train_seeds=[0, 1], spec=SplitSpec(5, val_total=labeled))
    with pytest.raises(InputError, match="fewer than the 1000"):
        run_ablation(sbm_tiny, config, train_seeds=[0], spec=SplitSpec(1000, val_total=0))


def test_run_ablation_requires_labels_and_seeds(sbm_tiny):
    config = TrainConfig(epochs=1, encoder_dims=[16, 4, 2], predictor_dims=[2, 2])
    with pytest.raises(InputError, match="seed"):
        run_ablation(sbm_tiny, config, train_seeds=[], spec=SplitSpec(5, val_total=10))
    from sngcl.graph import build_graph

    unlabeled = build_graph([(0, 1)], np.zeros((2, 16)))
    with pytest.raises(InputError, match="labeled"):
        run_ablation(unlabeled, config, train_seeds=[0], spec=SplitSpec(5, val_total=10))


def test_evaluation_does_not_import_scipy_optimize():
    # importing scipy.optimize costs a benchmark-sized process about 27 MB,
    # scipy.sparse.linalg about 10 MB
    code = (
        "import sys, numpy as np\n"
        "import sngcl.cli\n"
        "from conftest import sparse_feature_graph\n"
        "from sngcl.evaluation import SplitSpec, evaluate_embeddings\n"
        "from sngcl.training import TrainConfig, encode, train\n"
        "labels = np.repeat([0, 1], 20)\n"
        "emb = np.random.default_rng(0).standard_normal((40, 3)) + labels[:, None]\n"
        "evaluate_embeddings(emb, labels, 2, SplitSpec(5, val_total=5), seeds=[0, 1])\n"
        "graph = sparse_feature_graph()\n"
        "config = TrainConfig(epochs=2, encoder_dims=[200, 3, 2], predictor_dims=[2, 3, 2])\n"
        "encode(train(graph, config), graph)\n"
        "print(sorted({'scipy.optimize', 'scipy.sparse.linalg'} & set(sys.modules)))\n"
    )
    src, tests = Path(evaluation.__file__).parents[1], Path(__file__).parent
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])},
    )
    assert out.stdout.strip() == "[]"
