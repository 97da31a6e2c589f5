"""Positives, negatives, and the combined contrastive objective."""

import numpy as np
import pytest
from conftest import numeric_grad

from sngcl.errors import InputError
from sngcl.graph import build_graph
from sngcl.losses import (
    EmbeddingBatch,
    LossConfig,
    neighbor_operator,
    sample_neighbor_indices,
    total_loss,
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


def loss_of(anchor, pos_s, negatives, alpha, beta=1.0, omega1=1.0, omega2=1.0, pos_n=None):
    """``total_loss`` on one batch; the neighbor positive defaults to a copy
    of the structural one, so L_N equals L_S.  The negatives are stacked, and
    negative j is gathered from rows ``j*n`` to ``(j+1)*n``."""
    n = anchor.shape[0]
    batch = EmbeddingBatch(
        anchor=anchor,
        positive_struct=pos_s,
        positive_neighbor=pos_s.copy() if pos_n is None else pos_n,
        negative_rows=np.vstack(negatives),
        permutations=[np.arange(j * n, (j + 1) * n) for j in range(len(negatives))],
    )
    cfg = LossConfig(alpha=alpha, beta=beta, k=len(negatives), omega1=omega1, omega2=omega2)
    return total_loss(batch, cfg)


# beta so large that no L_U hinge is active on the instances below
NO_UPPER = 1e3


def test_triplet_loss_single_node_hand_example():
    # d+^2 = 1; against negative at 2 the bracket is 1 - 4 + 1 = -2 -> 0,
    # against negative at 0.5 it is 1 - 0.25 + 1 = 1.75.  Mean over k=2: 0.875.
    anchor = np.array([[0.0]])
    positive = np.array([[1.0]])
    negatives = [np.array([[2.0]]), np.array([[0.5]])]
    out = loss_of(anchor, positive, negatives, alpha=1.0)
    assert out.l_struct == pytest.approx(0.875, abs=1e-12)
    assert out.l_neighbor == pytest.approx(0.875, abs=1e-12)


def test_upper_bound_loss_single_node_hand_example():
    # Negative at distance 3: bracket = 1 - 9 + 1 + 1 = -6 -> contributes 6.
    # Negative at distance 1: bracket = 2 -> contributes 0.  Mean over k=2: 3.
    anchor = np.array([[0.0]])
    positive = np.array([[1.0]])
    negatives = [np.array([[3.0]]), np.array([[1.0]])]
    out = loss_of(anchor, positive, negatives, alpha=1.0, beta=1.0)
    assert out.l_upper == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triplet_loss_matches_scalar_reference(seed):
    anchor, pos_s, negatives = random_terms(seed)
    pos_n = np.random.default_rng(100 + seed).standard_normal(anchor.shape)
    out = loss_of(anchor, pos_s, negatives, alpha=0.7, pos_n=pos_n)
    assert out.l_struct == pytest.approx(scalar_triplet(anchor, pos_s, negatives, 0.7), abs=1e-12)
    assert out.l_neighbor == pytest.approx(
        scalar_triplet(anchor, pos_n, negatives, 0.7), abs=1e-12
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_upper_bound_loss_matches_scalar_reference(seed):
    anchor, positive, negatives = random_terms(seed)
    out = loss_of(anchor, positive, negatives, alpha=0.7, beta=0.4)
    assert out.l_upper == pytest.approx(
        scalar_upper_bound(anchor, positive, negatives, 0.7, 0.4), abs=1e-12
    )


def test_triplet_gradients_match_finite_differences():
    # With one omega at 0 and no L_U hinge active, the gradients are those of
    # the other triplet term alone.
    anchor, positive, negatives = random_terms(11)
    other = np.random.default_rng(111).standard_normal(anchor.shape)
    for omega1, omega2, term in [(1.0, 0.0, "l_struct"), (0.0, 1.0, "l_neighbor")]:
        pos_s, pos_n = (positive, other) if term == "l_struct" else (other, positive)

        def loss():
            return loss_of(anchor, pos_s, negatives, 0.9, NO_UPPER, omega1, omega2, pos_n)

        def f():
            return getattr(loss(), term)

        out = loss()
        assert out.l_upper == 0.0
        np.testing.assert_allclose(out.grad_anchor, numeric_grad(f, anchor), rtol=1e-6, atol=1e-9)
        if term == "l_neighbor":
            np.testing.assert_allclose(
                out.grad_positive_neighbor, numeric_grad(f, positive), rtol=1e-6, atol=1e-9
            )


def test_upper_bound_gradients_match_finite_differences():
    anchor, positive, negatives = random_terms(12)

    def f():
        return loss_of(anchor, positive, negatives, 0.3, 0.2, omega1=0.0, omega2=0.0).l_upper

    out = loss_of(anchor, positive, negatives, 0.3, 0.2, omega1=0.0, omega2=0.0)
    np.testing.assert_allclose(out.grad_anchor, numeric_grad(f, anchor), rtol=1e-6, atol=1e-9)


def test_total_loss_gradients_match_finite_differences():
    # The weighted combination of the three terms' gradients, at random weights.
    rng = np.random.default_rng(31)
    anchor, pos_s, negatives = random_terms(13, k=4)
    pos_n = rng.standard_normal(anchor.shape)
    alpha, beta, omega1, omega2 = rng.uniform(0.1, 2.0, size=4)

    def f():
        return loss_of(anchor, pos_s, negatives, alpha, beta, omega1, omega2, pos_n).total

    out = loss_of(anchor, pos_s, negatives, alpha, beta, omega1, omega2, pos_n)
    assert min(out.l_struct, out.l_neighbor, out.l_upper) > 0.0  # every term is live
    for got, x in [
        (out.grad_anchor, anchor),
        (out.grad_positive_neighbor, pos_n),
    ]:
        np.testing.assert_allclose(got, numeric_grad(f, x), rtol=1e-6, atol=1e-9)


def test_inactive_hinges_give_zero_loss_and_gradient():
    # Positive on top of the anchor and negatives at squared distance 1.28:
    # inside (alpha, alpha + beta), so no hinge is active.
    anchor = np.zeros((3, 2))
    positive = np.zeros((3, 2))
    negatives = [np.full((3, 2), 0.8)]
    cases = [(anchor, positive, negatives, 1.0, 1.0)]
    # d+^2 = 1 and d-^2 = 2: the triplet brackets are exactly 0 at alpha = 1,
    # and the upper-bound one at alpha = beta = 0.5; the subgradient there is 0.
    one = (np.zeros((1, 2)), np.array([[1.0, 0.0]]), [np.array([[1.0, 1.0]])])
    cases += [(*one, 1.0, 1.0), (*one, 0.5, 0.5)]
    for case in cases:
        out = loss_of(*case)
        assert (out.total, out.l_struct, out.l_neighbor, out.l_upper) == (0.0, 0.0, 0.0, 0.0)
        for grad in (out.grad_anchor, out.grad_positive_neighbor):
            assert np.all(grad == 0.0)


def test_upper_bound_fires_only_on_overly_distant_negatives():
    anchor = np.zeros((1, 2))
    positive = np.zeros((1, 2))
    far = [np.full((1, 2), 10.0)]  # squared distance 200
    out = loss_of(anchor, positive, far, 1.0, 1.0)
    assert out.l_upper == pytest.approx(198.0, abs=1e-12)
    assert out.l_struct == 0.0
    near = [np.full((1, 2), 0.5)]  # squared distance 0.5 < alpha + beta
    assert loss_of(anchor, positive, near, 1.0, 1.0).l_upper == 0.0


def test_upper_bound_is_nonnegative():
    for seed in range(5):
        anchor, positive, negatives = random_terms(seed, n=8, d=3, k=4)
        assert loss_of(anchor, positive, negatives, 1.0, 1.0).l_upper >= 0.0


def test_total_loss_combines_weighted_components():
    anchor, pos_s, negatives = random_terms(21)
    pos_n = np.random.default_rng(22).standard_normal(anchor.shape)
    out = loss_of(anchor, pos_s, negatives, 0.8, 0.5, omega1=2.0, omega2=0.25, pos_n=pos_n)

    l_s = scalar_triplet(anchor, pos_s, negatives, 0.8)
    l_n = scalar_triplet(anchor, pos_n, negatives, 0.8)
    l_u = scalar_upper_bound(anchor, pos_s, negatives, 0.8, 0.5)
    assert out.total == pytest.approx(2.0 * l_s + 0.25 * l_n + l_u, abs=1e-12)
    for got, want in [(out.l_struct, l_s), (out.l_neighbor, l_n), (out.l_upper, l_u)]:
        assert got == pytest.approx(want, abs=1e-12)


def test_gathered_negatives_give_the_loss_of_explicit_copies():
    # negative j is gathered from the anchor rows through permutation j, and
    # the loss sums it where an explicit copy anchor[perm_j] would be summed
    anchor, positive, _ = random_terms(31, n=7, d=3)
    rng = np.random.default_rng(31)
    perms = [rng.permutation(7) for _ in range(4)]
    batch = EmbeddingBatch(
        anchor=anchor,
        positive_struct=positive,
        positive_neighbor=positive.copy(),
        negative_rows=anchor,
        permutations=perms,
    )
    got = total_loss(batch, LossConfig(alpha=0.9, beta=0.3, k=4))
    want = loss_of(anchor, positive, [anchor[p] for p in perms], 0.9, 0.3)
    assert got.total == want.total
    assert got.grad_anchor.tobytes() == want.grad_anchor.tobytes()


def test_total_loss_validates_batch_shapes():
    anchor = np.zeros((3, 2))
    batch = EmbeddingBatch(
        anchor=anchor,
        positive_struct=np.zeros((3, 2)),
        positive_neighbor=np.zeros((2, 2)),
        negative_rows=anchor,
        permutations=[np.arange(3)],
    )
    with pytest.raises(InputError, match="positive_neighbor"):
        total_loss(batch, LossConfig(k=1))


@pytest.mark.parametrize("perm", [
    [0, 1, 3], [0, -1, 2], [0, 1], [0, 1, 2, 0], [[0, 1, 2]],
], ids=["past-the-end", "negative", "short", "long", "2-d"])
def test_total_loss_rejects_a_permutation_outside_the_negative_rows(perm):
    # the gather clips, so without the check [0, 1, 3] would read row 2
    anchor = np.arange(6.0).reshape(3, 2)
    batch = EmbeddingBatch(
        anchor=anchor,
        positive_struct=anchor + 1.0,
        positive_neighbor=anchor + 1.0,
        negative_rows=anchor,
        permutations=[np.arange(3), np.array(perm)],
    )
    with pytest.raises(InputError, match=r"permutation 1 must hold 3 indices in \[0, 3\)"):
        total_loss(batch, LossConfig(k=2))


def test_loss_config_validation():
    with pytest.raises(InputError):
        LossConfig(alpha=-0.1)
    with pytest.raises(InputError):
        LossConfig(k=0)
    with pytest.raises(InputError):
        LossConfig(n_neighbors=0)
    with pytest.raises(InputError):
        LossConfig(omega1=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
@pytest.mark.parametrize("name", ["alpha", "beta", "omega1", "omega2"])
def test_loss_weights_must_be_finite_and_non_negative(name, value):
    # a NaN margin or weight would switch its hinge off without an error
    with pytest.raises(InputError, match=f"{name} must be finite and >= 0"):
        LossConfig(**{name: value})
    LossConfig(**{name: 0.0})


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
            neighbor_op=neighbor_operator(
                sample_neighbor_indices(sbm_tiny, 2, stream_rng(0, "neighbor"))
            ),
            permutations=[shuffle.permutation(sbm_tiny.n_nodes) for _ in range(4)],
        )
        batch = _epoch_forward(online, predictor, online, x, x, plan).batch
        negs = [batch.negative_rows[perm] for perm in batch.permutations]
        return batch.anchor, plan.permutations, negs

    anchor, perms, negs = negatives()
    assert len(negs) == 4
    for perm, neg in zip(perms, negs):
        np.testing.assert_array_equal(np.sort(perm), np.arange(sbm_tiny.n_nodes))
        np.testing.assert_array_equal(neg, anchor[perm])
    for a, b in zip(negs, negatives()[2]):
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


def loop_sampler(graph, n_neighbors, rng):
    """The per-node loop that ``sample_neighbor_indices`` replaced, kept as a
    reference for the distribution: ``rng.choice`` per node, without
    replacement when the degree allows it, and the node itself when it has
    no neighbor."""
    indptr, neighbors = graph.adjacency.indptr, graph.adjacency.indices
    out = np.empty((graph.n_nodes, n_neighbors), dtype=np.int64)
    for i in range(graph.n_nodes):
        row = neighbors[indptr[i]:indptr[i + 1]]
        if row.size == 0:
            out[i] = i
        else:
            out[i] = rng.choice(row, size=n_neighbors, replace=row.size < n_neighbors)
    return out


@pytest.mark.parametrize("sampler", [sample_neighbor_indices, loop_sampler])
def test_sampled_neighbors_are_uniform(sampler):
    # Node 0 has 8 neighbors and draws 5 of them without replacement; node 9
    # has 3 and draws 5 with replacement.  Either way each slot holds each
    # neighbor with probability 1/degree.  Over 2,000 draws that frequency
    # has a std of at most 0.011, and the bound, set before the first run,
    # is 0.05.
    edges = [(0, j) for j in range(1, 9)] + [(9, 10), (9, 11), (9, 12)]
    g = build_graph(edges, np.eye(13))
    rng = stream_rng(0, "neighbor")
    draws = np.stack([sampler(g, 5, rng) for _ in range(2000)])
    for node, neighbors in ((0, range(1, 9)), (9, range(10, 13))):
        picks = draws[:, node, :]
        assert set(np.unique(picks)) == set(neighbors)
        freq = np.stack([(picks == j).mean(axis=0) for j in neighbors])  # per slot
        assert np.abs(freq - 1.0 / len(neighbors)).max() <= 0.05


def test_sampled_rows_never_repeat_an_index_the_degree_allows():
    rng = np.random.default_rng(4)
    n = 60
    upper = np.triu(rng.random((n, n)) < 0.12, k=1)
    g = build_graph(np.argwhere(upper), np.eye(n))
    deg = np.diff(g.adjacency.indptr)
    assert (deg >= 4).any() and ((deg > 0) & (deg < 4)).any()
    for seed in range(5):
        idx = sample_neighbor_indices(g, 4, stream_rng(seed, "neighbor"))
        for i in range(n):
            assert set(idx[i]) <= set(g.adjacency[i].indices) or deg[i] == 0
            if deg[i] >= 4:
                assert len(set(idx[i])) == 4


def test_isolated_nodes_sample_themselves():
    g = build_graph([(0, 1), (1, 2), (2, 4)], np.eye(7))
    idx = sample_neighbor_indices(g, 3, stream_rng(0, "neighbor"))
    for i in (3, 5, 6):
        assert idx[i].tolist() == [i, i, i]
    assert not np.isin(idx[[0, 1, 2, 4]], [3, 5, 6]).any()


def test_equal_generator_states_sample_equal_indices():
    g = build_graph([(0, j) for j in range(1, 7)] + [(1, 2), (3, 4)], np.eye(8))
    a, b = stream_rng(3, "neighbor"), stream_rng(3, "neighbor")
    for _ in range(3):
        np.testing.assert_array_equal(
            sample_neighbor_indices(g, 3, a), sample_neighbor_indices(g, 3, b)
        )
    assert a.bit_generator.state == b.bit_generator.state


def test_neighbor_mean_averages_selected_rows():
    # S @ anchor is the mean of the sampled rows; a row sampled twice counts twice.
    anchor = np.array([[0.0, 0.0], [2.0, 4.0], [4.0, 0.0]])
    idx = np.array([[1, 2], [0, 0], [1, 1]])
    got = neighbor_operator(idx) @ anchor
    np.testing.assert_allclose(got, [[3.0, 2.0], [0.0, 0.0], [2.0, 4.0]], atol=1e-15)
    rng = np.random.default_rng(5)
    anchor = rng.standard_normal((9, 4))
    idx = rng.integers(0, 9, size=(9, 5))
    np.testing.assert_allclose(
        neighbor_operator(idx) @ anchor, anchor[idx].mean(axis=1), rtol=0, atol=1e-15
    )


def test_isolated_node_neighbor_positive_is_its_own_row():
    g = build_graph([(0, 1), (1, 2)], np.eye(4))
    idx = sample_neighbor_indices(g, 3, stream_rng(2, "neighbor"))
    anchor = np.random.default_rng(6).standard_normal((4, 3))
    got = neighbor_operator(idx) @ anchor
    np.testing.assert_allclose(got, anchor[idx].mean(axis=1), rtol=0, atol=1e-15)
    np.testing.assert_allclose(got[3], anchor[3], rtol=0, atol=1e-15)


def test_neighbor_mean_backward_is_the_exact_adjoint():
    # <S A, G> must equal <A, S.T G>: the backward is the true transpose of
    # the forward, repeated samples included.
    rng = np.random.default_rng(9)
    anchor = rng.standard_normal((7, 3))
    idx = rng.integers(0, 7, size=(7, 4))
    g_out = rng.standard_normal((7, 3))
    s = neighbor_operator(idx)
    lhs = float(((s @ anchor) * g_out).sum())
    rhs = float((anchor * (s.T @ g_out)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)

