"""Graph construction and the two smoothing operators."""

import numpy as np
import pytest
from conftest import dense_smooth_oracle, random_graph

from sngcl.errors import InputError
from sngcl.graph import (
    MODES,
    RANDOM_WALK,
    SYMMETRIC,
    build_graph,
    propagation_matrix,
    smooth_features,
)


def test_build_graph_symmetrizes_and_collapses_duplicates():
    g = build_graph([(0, 1), (1, 0), (0, 1), (1, 2)], np.eye(3))
    assert g.adjacency.nnz == 4  # two undirected edges, stored both ways
    assert np.all(g.adjacency.data == 1.0)
    assert g.adjacency[0, 1] == 1.0 and g.adjacency[1, 0] == 1.0


def test_build_graph_drops_self_loop_pairs():
    g = build_graph([(0, 0), (0, 1)], np.eye(2))
    assert g.adjacency.diagonal().sum() == 0
    assert g.adjacency.nnz == 2


def test_build_graph_rejects_out_of_range_edges():
    with pytest.raises(InputError, match="outside"):
        build_graph([(0, 5)], np.eye(3))
    with pytest.raises(InputError, match="outside"):
        build_graph([(-1, 0)], np.eye(3))


def test_build_graph_label_checks():
    with pytest.raises(InputError):
        build_graph([(0, 1)], np.eye(3), labels=np.array([0, 1]))  # wrong length
    with pytest.raises(InputError):
        build_graph([(0, 1)], np.eye(3), labels=np.array([0, 1, 5]), n_classes=2)
    g = build_graph([(0, 1)], np.eye(3), labels=np.array([0, -1, 1]))
    assert g.n_classes == 2


def test_degrees_ignore_the_self_loop_augmentation():
    g = build_graph([(0, 1), (1, 2)], np.eye(3))
    assert g.degrees().tolist() == [1.0, 2.0, 1.0]


def test_random_walk_operator_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_graph(rng, n=25, p=0.15, n_features=3)
        h = propagation_matrix(g, RANDOM_WALK)
        np.testing.assert_allclose(np.asarray(h.sum(axis=1)).ravel(), 1.0, atol=1e-12)


def test_symmetric_operator_is_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_graph(rng, n=25, p=0.15, n_features=3)
        h = propagation_matrix(g, SYMMETRIC)
        assert abs(h - h.T).max() < 1e-12


def test_path_graph_symmetric_operator_matches_hand_computation(path_graph):
    # Degrees with self-loops are (2, 3, 2); off-diagonal entries are
    # 1/sqrt(2*3), the ends 1/2, the middle 1/3.
    h = propagation_matrix(path_graph, SYMMETRIC).toarray()
    s = 1.0 / np.sqrt(6.0)
    expected = np.array([[0.5, s, 0.0], [s, 1.0 / 3.0, s], [0.0, s, 0.5]])
    np.testing.assert_allclose(h, expected, atol=1e-12)


def test_path_graph_random_walk_operator_matches_hand_computation(path_graph):
    h = propagation_matrix(path_graph, RANDOM_WALK).toarray()
    expected = np.array([
        [0.5, 0.5, 0.0],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [0.0, 0.5, 0.5],
    ])
    np.testing.assert_allclose(h, expected, atol=1e-12)


def test_two_node_random_walk_operator_is_idempotent():
    g = build_graph([(0, 1)], np.array([[1.0, 0.0], [0.0, 2.0]]))
    h = propagation_matrix(g, RANDOM_WALK).toarray()
    np.testing.assert_allclose(h, 0.5 * np.ones((2, 2)), atol=1e-15)
    # H is a projector here, so deeper smoothing changes nothing.
    np.testing.assert_allclose(
        smooth_features(g, 1, RANDOM_WALK), smooth_features(g, 5, RANDOM_WALK), atol=1e-12
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
def test_smoothing_matches_dense_matrix_power(mode, t):
    rng = np.random.default_rng(100 * t + (mode == SYMMETRIC))
    for _ in range(5):
        g = random_graph(rng, n=rng.integers(2, 30), p=0.2, n_features=4)
        got = smooth_features(g, t, mode)
        want = dense_smooth_oracle(g, t, mode)
        assert np.abs(got - want).max() <= 1e-10


def test_smoothing_depth_zero_returns_an_unaliased_copy():
    g = build_graph([(0, 1)], np.array([[1.0, 2.0], [3.0, 4.0]]))
    x = smooth_features(g, 0, RANDOM_WALK)
    np.testing.assert_array_equal(x, g.features)
    x[0, 0] = 99.0
    assert g.features[0, 0] == 1.0


def test_isolated_node_keeps_its_features_at_any_depth():
    # Node 2 has no edges; its augmented degree is 1, so its operator row is
    # the unit vector and smoothing must leave its features untouched.
    g = build_graph([(0, 1)], np.array([[1.0], [2.0], [7.0]]))
    for mode in MODES:
        for t in (1, 2, 4):
            assert smooth_features(g, t, mode)[2, 0] == pytest.approx(7.0, abs=1e-12)


def test_random_walk_smoothing_preserves_constant_features():
    rng = np.random.default_rng(3)
    g = random_graph(rng, n=20, p=0.2, n_features=1)
    g.features[:] = 1.0
    np.testing.assert_allclose(smooth_features(g, 3, RANDOM_WALK), 1.0, atol=1e-12)


def test_unknown_mode_and_negative_depth_are_rejected(path_graph):
    with pytest.raises(InputError, match="unknown propagation mode"):
        propagation_matrix(path_graph, "laplacian")
    with pytest.raises(InputError, match=">= 0"):
        smooth_features(path_graph, -1, RANDOM_WALK)


def test_validate_rejects_asymmetric_or_self_looped_adjacency(path_graph):
    g = build_graph([(0, 1), (1, 2)], np.eye(3))
    g.adjacency[0, 1] = 0.0
    g.adjacency.eliminate_zeros()
    with pytest.raises(InputError, match="symmetric"):
        g.validate()
    h = build_graph([(0, 1)], np.eye(2))
    h.adjacency.setdiag(1.0)
    with pytest.raises(InputError, match="self-loops"):
        h.validate()


def test_build_graph_rejects_non_finite_features():
    # A NaN feature used to train to a loss of 0.0: every hinge bracket
    # compares False against zero.
    ring = [(i, (i + 1) % 20) for i in range(20)]
    x = np.random.default_rng(0).standard_normal((20, 4))
    x[7, 2] = np.nan
    with pytest.raises(InputError, match="non-finite feature nan at node 7, column 2"):
        build_graph(ring, x)
    x[7, 2] = -np.inf
    with pytest.raises(InputError, match="non-finite"):
        build_graph(ring, x)
