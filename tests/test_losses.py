"""Positives, negatives, and the combined contrastive objective."""

import numpy as np
import pytest
from conftest import numeric_grad

from sngcl.errors import InputError
from sngcl.graph import build_graph
from sngcl.losses import (
    EmbeddingBatch,
    LossConfig,
    l2_normalize_backward,
    l2_normalize_rows,
    neighbor_mean,
    neighbor_mean_backward,
    sample_neighbor_indices,
    total_loss,
    triplet_loss,
    upper_bound_loss,
)
from sngcl.rng import stream_rng


def scalar_triplet(anchor, positive, negatives, alpha):
    """Loop-and-scalar transcription of the triplet objective."""
    n, k = anchor.shape[0], len(negatives)
    total = 0.0
    for i in range(n):
        for neg in negatives:
            d_pos = np.sum((anchor[i] - positive[i]) ** 2)
            d_neg = np.sum((anchor[i] - neg[i]) ** 2)
            total += max(d_pos - d_neg + alpha, 0.0) / k
    return total / n


def scalar_upper_bound(anchor, positive, negatives, alpha, beta):
    n, k = anchor.shape[0], len(negatives)
    total = 0.0
    for i in range(n):
        for neg in negatives:
            d_pos = np.sum((anchor[i] - positive[i]) ** 2)
            d_neg = np.sum((anchor[i] - neg[i]) ** 2)
            total -= min(d_pos - d_neg + alpha + beta, 0.0) / k
    return total / n


def random_terms(seed, n=6, d=4, k=3):
    rng = np.random.default_rng(seed)
    anchor = rng.standard_normal((n, d))
    positive = rng.standard_normal((n, d))
    negatives = [rng.standard_normal((n, d)) for _ in range(k)]
    return anchor, positive, negatives


def test_triplet_loss_single_node_hand_example():
    # d+^2 = 1; against negative at 2 the bracket is 1 - 4 + 1 = -2 -> 0,
    # against negative at 0.5 it is 1 - 0.25 + 1 = 1.75.  Mean over k=2: 0.875.
    anchor = np.array([[0.0]])
    positive = np.array([[1.0]])
    negatives = [np.array([[2.0]]), np.array([[0.5]])]
    loss, _, _ = triplet_loss(anchor, positive, negatives, alpha=1.0)
    assert loss == pytest.approx(0.875, abs=1e-12)


def test_upper_bound_loss_single_node_hand_example():
    # Negative at distance 3: bracket = 1 - 9 + 1 + 1 = -6 -> contributes 6.
    # Negative at distance 1: bracket = 2 -> contributes 0.  Mean over k=2: 3.
    anchor = np.array([[0.0]])
    positive = np.array([[1.0]])
    negatives = [np.array([[3.0]]), np.array([[1.0]])]
    loss, _, _ = upper_bound_loss(anchor, positive, negatives, alpha=1.0, beta=1.0)
    assert loss == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triplet_loss_matches_scalar_reference(seed):
    anchor, positive, negatives = random_terms(seed)
    loss, _, _ = triplet_loss(anchor, positive, negatives, alpha=0.7)
    assert loss == pytest.approx(scalar_triplet(anchor, positive, negatives, 0.7), abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_upper_bound_loss_matches_scalar_reference(seed):
    anchor, positive, negatives = random_terms(seed)
    loss, _, _ = upper_bound_loss(anchor, positive, negatives, alpha=0.7, beta=0.4)
    assert loss == pytest.approx(
        scalar_upper_bound(anchor, positive, negatives, 0.7, 0.4), abs=1e-12
    )


def test_triplet_gradients_match_finite_differences():
    anchor, positive, negatives = random_terms(11)

    def f():
        return triplet_loss(anchor, positive, negatives, alpha=0.9)[0]

    _, d_anchor, d_positive = triplet_loss(anchor, positive, negatives, alpha=0.9)
    np.testing.assert_allclose(d_anchor, numeric_grad(f, anchor), rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(d_positive, numeric_grad(f, positive), rtol=1e-6, atol=1e-9)


def test_upper_bound_gradients_match_finite_differences():
    anchor, positive, negatives = random_terms(12)

    def f():
        return upper_bound_loss(anchor, positive, negatives, alpha=0.3, beta=0.2)[0]

    _, d_anchor, d_positive = upper_bound_loss(anchor, positive, negatives, 0.3, 0.2)
    np.testing.assert_allclose(d_anchor, numeric_grad(f, anchor), rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(d_positive, numeric_grad(f, positive), rtol=1e-6, atol=1e-9)


def test_inactive_hinges_give_zero_loss_and_gradient():
    # Positive on top of the anchor and negatives at squared distance 1.28:
    # inside (alpha, alpha + beta), so neither hinge is active.
    anchor = np.zeros((3, 2))
    positive = np.zeros((3, 2))
    negatives = [np.full((3, 2), 0.8)]
    loss, d_anchor, d_positive = triplet_loss(anchor, positive, negatives, alpha=1.0)
    assert loss == 0.0
    assert np.all(d_anchor == 0.0) and np.all(d_positive == 0.0)
    loss_u, da_u, dp_u = upper_bound_loss(anchor, positive, negatives, 1.0, 1.0)
    assert loss_u == 0.0
    assert np.all(da_u == 0.0) and np.all(dp_u == 0.0)


def test_upper_bound_fires_only_on_overly_distant_negatives():
    anchor = np.zeros((1, 2))
    positive = np.zeros((1, 2))
    far = [np.full((1, 2), 10.0)]  # squared distance 200
    loss, _, _ = upper_bound_loss(anchor, positive, far, 1.0, 1.0)
    assert loss == pytest.approx(198.0, abs=1e-12)
    near = [np.full((1, 2), 0.5)]  # squared distance 0.5 < alpha + beta
    loss, _, _ = upper_bound_loss(anchor, positive, near, 1.0, 1.0)
    assert loss == 0.0


def test_upper_bound_is_nonnegative():
    for seed in range(5):
        anchor, positive, negatives = random_terms(seed, n=8, d=3, k=4)
        loss, _, _ = upper_bound_loss(anchor, positive, negatives, 1.0, 1.0)
        assert loss >= 0.0


def test_total_loss_combines_weighted_components():
    anchor, pos_s, negatives = random_terms(21)
    pos_n = np.random.default_rng(22).standard_normal(anchor.shape)
    batch = EmbeddingBatch(
        anchor=anchor, positive_struct=pos_s, positive_neighbor=pos_n, negatives=negatives
    )
    cfg = LossConfig(alpha=0.8, beta=0.5, k=len(negatives), omega1=2.0, omega2=0.25)
    out = total_loss(batch, cfg)

    l_s, ga_s, gp_s = triplet_loss(anchor, pos_s, negatives, 0.8)
    l_n, ga_n, gp_n = triplet_loss(anchor, pos_n, negatives, 0.8)
    l_u, ga_u, gp_u = upper_bound_loss(anchor, pos_s, negatives, 0.8, 0.5)
    assert out.total == pytest.approx(2.0 * l_s + 0.25 * l_n + l_u, abs=1e-12)
    assert (out.l_struct, out.l_neighbor, out.l_upper) == (l_s, l_n, l_u)
    np.testing.assert_allclose(out.grad_anchor, 2.0 * ga_s + 0.25 * ga_n + ga_u, atol=1e-12)
    np.testing.assert_allclose(out.grad_positive_struct, 2.0 * gp_s + gp_u, atol=1e-12)
    np.testing.assert_allclose(out.grad_positive_neighbor, 0.25 * gp_n, atol=1e-12)


def test_total_loss_validates_batch_shapes():
    anchor = np.zeros((3, 2))
    batch = EmbeddingBatch(
        anchor=anchor,
        positive_struct=np.zeros((3, 2)),
        positive_neighbor=np.zeros((2, 2)),
        negatives=[np.zeros((3, 2))],
    )
    with pytest.raises(InputError, match="positive_neighbor"):
        total_loss(batch, LossConfig(k=1))


def test_loss_config_validation():
    with pytest.raises(InputError):
        LossConfig(alpha=-0.1)
    with pytest.raises(InputError):
        LossConfig(k=0)
    with pytest.raises(InputError):
        LossConfig(n_neighbors=0)
    with pytest.raises(InputError):
        LossConfig(omega1=-1.0)


def test_shuffle_negatives_are_row_permutations_of_the_anchor(sbm_tiny):
    # The epoch's negatives are the anchor's rows under the plan's shuffle
    # permutations, and the shuffle stream reproduces them.
    from sngcl.nn import init_mlp
    from sngcl.training import EpochPlan, TrainConfig, _epoch_forward

    config = TrainConfig(encoder_dims=[16, 6, 3], predictor_dims=[3, 5, 3])
    rng = stream_rng(0, "init")
    online, predictor = init_mlp(config.encoder_dims, rng), init_mlp(config.predictor_dims, rng)
    x = sbm_tiny.features

    def negatives():
        shuffle = stream_rng(0, "shuffle")
        plan = EpochPlan(
            neighbor_idx=sample_neighbor_indices(sbm_tiny, 2, stream_rng(0, "neighbor")),
            permutations=[shuffle.permutation(sbm_tiny.n_nodes) for _ in range(4)],
        )
        fwd = _epoch_forward(online, predictor, online, x, x, plan, config)
        return fwd.anchor, fwd.batch.negatives

    anchor, negs = negatives()
    assert len(negs) == 4
    for neg in negs:
        np.testing.assert_array_equal(np.sort(neg, axis=0), np.sort(anchor, axis=0))
    for a, b in zip(negs, negatives()[1]):
        np.testing.assert_array_equal(a, b)


def test_sample_neighbor_indices_stay_within_one_hop():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], np.eye(5))
    idx = sample_neighbor_indices(g, 4, stream_rng(0, "neighbor"))
    assert idx.shape == (5, 4)
    neighbor_sets = [set(g.adjacency[i].indices) for i in range(5)]
    for i in range(4):
        assert set(idx[i]) <= neighbor_sets[i]
    # Node 4 is isolated and must fall back to itself.
    assert set(idx[4]) == {4}


def test_sample_neighbor_indices_without_replacement_when_possible():
    # Node 0 has exactly 3 neighbors; asking for 3 must return all of them.
    g = build_graph([(0, 1), (0, 2), (0, 3)], np.eye(4))
    idx = sample_neighbor_indices(g, 3, stream_rng(1, "neighbor"))
    assert set(idx[0]) == {1, 2, 3}


def test_neighbor_mean_averages_selected_rows():
    anchor = np.array([[0.0, 0.0], [2.0, 4.0], [4.0, 0.0]])
    idx = np.array([[1, 2], [0, 0], [1, 1]])
    got = neighbor_mean(anchor, idx)
    np.testing.assert_allclose(got, [[3.0, 2.0], [0.0, 0.0], [2.0, 4.0]], atol=1e-15)


def test_neighbor_mean_backward_is_the_exact_adjoint():
    # <mean(A), G> must equal <A, mean_backward(G)> for the scatter to be
    # the true transpose of the gather.
    rng = np.random.default_rng(9)
    anchor = rng.standard_normal((7, 3))
    idx = rng.integers(0, 7, size=(7, 4))
    g_out = rng.standard_normal((7, 3))
    lhs = float((neighbor_mean(anchor, idx) * g_out).sum())
    rhs = float((anchor * neighbor_mean_backward(g_out, idx, 7)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_l2_normalize_rows_and_backward():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((5, 4)) * 3.0
    normalized, norms = l2_normalize_rows(x)
    np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(norms, np.linalg.norm(x, axis=1), atol=1e-12)

    c = rng.standard_normal((5, 4))

    def f():
        return float((l2_normalize_rows(x)[0] * c).sum())

    got = l2_normalize_backward(normalized, norms, c)
    np.testing.assert_allclose(got, numeric_grad(f, x), rtol=1e-6, atol=1e-9)


def test_l2_normalize_rows_clamps_zero_rows():
    x = np.zeros((2, 3))
    normalized, norms = l2_normalize_rows(x)
    assert np.all(np.isfinite(normalized))
    assert np.all(norms >= 1e-12)
