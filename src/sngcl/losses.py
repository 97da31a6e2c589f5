"""Positive/negative construction and the triplet + upper-bound objectives.

Distances are Euclidean; the losses work with their squares.  Each loss
returns exact (sub)gradients w.r.t. the anchor and positive matrices; the
negatives are treated as constants even though their rows alias anchor rows,
so no gradient is ever routed through a permutation.  At an exactly-zero
hinge bracket the subgradient 0 is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graph import Graph


@dataclass
class LossConfig:
    """Hyperparameters of the combined objective.

    ``alpha`` is the triplet margin, ``beta`` the extra slack of the upper
    bound, ``k`` the number of shuffled negatives, ``n_neighbors`` the number
    of 1-hop samples averaged into the neighbor positive, and ``omega1`` /
    ``omega2`` weight the structural and neighbor triplet terms (the upper
    bound always enters with weight 1).
    """

    alpha: float = field(default=1.0, metadata={"help": "triplet margin"})
    beta: float = field(default=1.0, metadata={"help": "upper-bound slack beyond the margin"})
    k: int = field(default=5, metadata={"help": "shuffled negatives per node"})
    n_neighbors: int = field(default=5, metadata={"help": "sampled neighbors per node"})
    omega1: float = field(default=1.0, metadata={"help": "structural-loss weight"})
    omega2: float = field(default=1.0, metadata={"help": "neighbor-loss weight"})

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise InputError("alpha and beta must be >= 0")
        if self.k < 1:
            raise InputError(f"need at least one negative, got k={self.k}")
        if self.n_neighbors < 1:
            raise InputError(f"need at least one neighbor sample, got {self.n_neighbors}")
        if self.omega1 < 0 or self.omega2 < 0:
            raise InputError("omega1 and omega2 must be >= 0")


@dataclass
class EmbeddingBatch:
    """Anchor, the two positives, and the k shuffled negatives (all n x d)."""

    anchor: np.ndarray
    positive_struct: np.ndarray
    positive_neighbor: np.ndarray
    negatives: list[np.ndarray]

    def validate(self) -> None:
        shape = self.anchor.shape
        for name in ("positive_struct", "positive_neighbor"):
            if getattr(self, name).shape != shape:
                raise InputError(f"{name} shape != anchor shape {shape}")
        if not self.negatives:
            raise InputError("need at least one negative")
        for i, neg in enumerate(self.negatives):
            if neg.shape != shape:
                raise InputError(f"negative {i} shape != anchor shape {shape}")


def sample_neighbor_indices(
    graph: Graph, n_neighbors: int, rng: np.random.Generator
) -> np.ndarray:
    """(n, n_neighbors) node indices drawn from each node's 1-hop neighborhood.

    Sampling is uniform: without replacement when the degree allows it, with
    replacement otherwise.  An isolated node samples itself.
    """
    if n_neighbors < 1:
        raise InputError(f"n_neighbors must be >= 1, got {n_neighbors}")
    indptr = graph.adjacency.indptr
    neighbors = graph.adjacency.indices
    out = np.empty((graph.n_nodes, n_neighbors), dtype=np.int64)
    for i in range(graph.n_nodes):
        row = neighbors[indptr[i] : indptr[i + 1]]
        deg = row.shape[0]
        if deg == 0:
            out[i] = i
        else:
            out[i] = rng.choice(row, size=n_neighbors, replace=deg < n_neighbors)
    return out


def neighbor_mean(anchor: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row i = mean of the sampled anchor rows ``idx[i]``."""
    return anchor[idx].mean(axis=1)


def neighbor_mean_backward(
    d_positive: np.ndarray, idx: np.ndarray, n_rows: int
) -> np.ndarray:
    """Scatter the neighbor-positive gradient back onto the sampled anchor rows."""
    m = idx.shape[1]
    d_anchor = np.zeros((n_rows, d_positive.shape[1]))
    share = d_positive / m
    for j in range(m):
        np.add.at(d_anchor, idx[:, j], share)
    return d_anchor


def _squared_row_distances(anchor, positive, negatives):
    diff_p = anchor - positive
    sq_p = np.einsum("ij,ij->i", diff_p, diff_p)
    diffs_n = [anchor - neg for neg in negatives]
    sqs_n = [np.einsum("ij,ij->i", d, d) for d in diffs_n]
    return diff_p, sq_p, diffs_n, sqs_n


def triplet_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: list[np.ndarray],
    alpha: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Hinged triplet loss, averaged over nodes and negatives.

    loss = mean_i (1/k) sum_j max(d(h_i, h_i+)^2 - d(h_i, h_ij-)^2 + alpha, 0)
    """
    if not negatives:
        raise InputError("need at least one negative")
    if anchor.shape != positive.shape:
        raise InputError(f"shape mismatch {anchor.shape} vs {positive.shape}")
    n, k = anchor.shape[0], len(negatives)
    diff_p, sq_p, diffs_n, sqs_n = _squared_row_distances(anchor, positive, negatives)
    loss = 0.0
    d_anchor = np.zeros_like(anchor)
    d_positive = np.zeros_like(positive)
    for diff_n, sq_n in zip(diffs_n, sqs_n):
        bracket = sq_p - sq_n + alpha
        act = bracket > 0.0
        loss += bracket[act].sum()
        d_anchor[act] += diff_p[act] - diff_n[act]
        d_positive[act] -= diff_p[act]
    scale = 1.0 / (n * k)
    return loss * scale, d_anchor * (2.0 * scale), d_positive * (2.0 * scale)


def upper_bound_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: list[np.ndarray],
    alpha: float,
    beta: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalty for negatives pushed beyond d(h, h+)^2 + alpha + beta.

    loss = mean_i -(1/k) sum_j min(d(h_i, h_i+)^2 - d(h_i, h_ij-)^2 + alpha + beta, 0)

    Always >= 0; keeps within-class spread bounded instead of letting the
    triplet term expand distances indefinitely.
    """
    if not negatives:
        raise InputError("need at least one negative")
    if anchor.shape != positive.shape:
        raise InputError(f"shape mismatch {anchor.shape} vs {positive.shape}")
    n, k = anchor.shape[0], len(negatives)
    diff_p, sq_p, diffs_n, sqs_n = _squared_row_distances(anchor, positive, negatives)
    loss = 0.0
    d_anchor = np.zeros_like(anchor)
    d_positive = np.zeros_like(positive)
    for diff_n, sq_n in zip(diffs_n, sqs_n):
        bracket = sq_p - sq_n + alpha + beta
        act = bracket < 0.0
        loss -= bracket[act].sum()
        d_anchor[act] -= diff_p[act] - diff_n[act]
        d_positive[act] += diff_p[act]
    scale = 1.0 / (n * k)
    return loss * scale, d_anchor * (2.0 * scale), d_positive * (2.0 * scale)


@dataclass
class LossOutput:
    """Combined objective value, its three components, and input gradients."""

    total: float
    l_struct: float
    l_neighbor: float
    l_upper: float
    grad_anchor: np.ndarray
    grad_positive_struct: np.ndarray
    grad_positive_neighbor: np.ndarray


def total_loss(batch: EmbeddingBatch, cfg: LossConfig) -> LossOutput:
    """L = omega1 * L_S + omega2 * L_N + L_U.

    L_S and L_U use the structural positive from the target network, L_N the
    neighbor-sampled positive; the upper-bound weight is fixed at 1.
    """
    batch.validate()
    l_s, ga_s, gp_s = triplet_loss(
        batch.anchor, batch.positive_struct, batch.negatives, cfg.alpha
    )
    l_n, ga_n, gp_n = triplet_loss(
        batch.anchor, batch.positive_neighbor, batch.negatives, cfg.alpha
    )
    l_u, ga_u, gp_u = upper_bound_loss(
        batch.anchor, batch.positive_struct, batch.negatives, cfg.alpha, cfg.beta
    )
    return LossOutput(
        total=cfg.omega1 * l_s + cfg.omega2 * l_n + l_u,
        l_struct=l_s,
        l_neighbor=l_n,
        l_upper=l_u,
        grad_anchor=cfg.omega1 * ga_s + cfg.omega2 * ga_n + ga_u,
        grad_positive_struct=cfg.omega1 * gp_s + gp_u,
        grad_positive_neighbor=cfg.omega2 * gp_n,
    )


def l2_normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize to unit length; returns (normalized, clamped norms)."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    norms = np.maximum(norms, 1e-12)
    return x / norms[:, None], norms


def l2_normalize_backward(
    normalized: np.ndarray, norms: np.ndarray, d_normalized: np.ndarray
) -> np.ndarray:
    """Backprop through row normalization: g -> (g - u (u . g)) / r."""
    dots = np.einsum("ij,ij->i", normalized, d_normalized)
    return (d_normalized - normalized * dots[:, None]) / norms[:, None]
