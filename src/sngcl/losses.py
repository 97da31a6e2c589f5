"""The SNGCL objective and the positives and negatives it compares.

L = omega1 * L_S + omega2 * L_N + L_U is one improved triplet loss, and its
three hinge terms share the anchor's squared Euclidean distances to the
structural positive, to the neighbor positive and to each negative.
``total_loss`` computes each of those once, in one pass that gathers each
negative into the same buffer, derives the three hinge masks from them, and
forms the input gradients from per-row coefficients.  The negatives are
treated as constants even though their rows alias anchor rows, so no
gradient is ever routed through a permutation.  At an exactly-zero hinge
bracket the subgradient 0 is chosen.

The neighbor positive is linear in the anchor: ``S @ anchor`` for the sparse
row-stochastic sampling operator S of :func:`neighbor_operator`, whose
transpose carries the gradient back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
        # written so that NaN fails too: it would switch every hinge off
        for name in ("alpha", "beta", "omega1", "omega2"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise InputError(f"{name} must be finite and >= 0, got {value}")
        if self.k < 1:
            raise InputError(f"need at least one negative, got k={self.k}")
        if self.n_neighbors < 1:
            raise InputError(f"need at least one neighbor sample, got {self.n_neighbors}")


@dataclass
class EmbeddingBatch:
    """Anchor and positives (n x d); negative j is ``negative_rows[permutations[j]]``."""

    anchor: np.ndarray
    positive_struct: np.ndarray
    positive_neighbor: np.ndarray
    negative_rows: np.ndarray
    permutations: list[np.ndarray]

    def validate(self) -> None:
        shape = self.anchor.shape
        for name in ("positive_struct", "positive_neighbor"):
            if getattr(self, name).shape != shape:
                raise InputError(f"{name} shape != anchor shape {shape}")
        if not self.permutations:
            raise InputError("need at least one negative")
        # the gather clips, so an index out of range would pass silently
        rows = len(self.negative_rows)
        for i, perm in enumerate(self.permutations):
            if perm.shape != shape[:1] or ((perm < 0) | (perm >= rows)).any():
                raise InputError(f"permutation {i} must hold {shape[0]} indices in [0, {rows})")


def sample_neighbor_indices(
    graph: Graph, n_neighbors: int, rng: np.random.Generator
) -> np.ndarray:
    """(n, n_neighbors) node indices drawn from each node's 1-hop neighborhood.

    Sampling is uniform: without replacement when the degree allows it, with
    replacement otherwise.  An isolated node samples itself.  The rows whose
    degree allows it take ``n_neighbors`` steps of a partial Fisher-Yates
    shuffle over their slices of a copy of the CSR column indices, each step
    one draw for all of them; then the other rows draw in one call.
    """
    if n_neighbors < 1:
        raise InputError(f"n_neighbors must be >= 1, got {n_neighbors}")
    adj = graph.adjacency
    start, deg = adj.indptr[:-1], np.diff(adj.indptr)
    out = np.empty((graph.n_nodes, n_neighbors), dtype=np.int64)
    full = np.flatnonzero(deg >= n_neighbors)
    if full.size:
        pool = adj.indices.copy()
        first, span = start[full], deg[full]
        for j in range(n_neighbors):
            slot = first + j
            pick = slot + rng.integers(0, span - j)
            out[full, j] = pool[pick]
            # step j never reads ``slot`` again, so only ``pick`` is updated
            pool[pick] = pool[slot]
    short = np.flatnonzero((deg > 0) & (deg < n_neighbors))
    if short.size:
        draws = rng.integers(0, deg[short, None], size=(short.size, n_neighbors))
        out[short] = adj.indices[start[short, None] + draws]
    isolated = np.flatnonzero(deg == 0)
    out[isolated] = isolated[:, None]
    return out


def neighbor_operator(idx: np.ndarray) -> sp.csr_matrix:
    """Sparse row-stochastic S with ``S @ anchor`` = mean of the rows ``idx[i]``.

    Row i holds 1/m at each of its m sampled columns, so a node sampled twice
    weighs 2/m; ``S.T`` carries the neighbor positive's gradient back onto
    the anchor rows.
    """
    n, m = idx.shape
    return sp.csr_matrix(
        (np.full(n * m, 1.0 / m), idx.ravel(), np.arange(0, n * m + 1, m)), shape=(n, n)
    )


@dataclass
class LossOutput:
    """Combined objective value, its three components, and the gradients of
    the anchor and the neighbor positive (the structural positive belongs to
    the frozen target and takes none)."""

    total: float
    l_struct: float
    l_neighbor: float
    l_upper: float
    grad_anchor: np.ndarray
    grad_positive_neighbor: np.ndarray


def _row_sq(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def total_loss(batch: EmbeddingBatch, cfg: LossConfig) -> LossOutput:
    """L = omega1 * L_S + omega2 * L_N + L_U, in one pass over the negatives.

    With d+ the squared distance from h_i to its structural (S) or neighbor
    (N) positive and d-_j the one to its j-th negative:

    L_S, L_N = mean_i (1/k) sum_j max(d+ - d-_j + alpha, 0)
    L_U = mean_i -(1/k) sum_j min(d+_S - d-_j + alpha + beta, 0)

    L_U is always >= 0 and keeps within-class spread bounded instead of
    letting the triplet terms expand distances indefinitely; its weight is
    fixed at 1.
    """
    batch.validate()
    anchor = batch.anchor
    n, k = anchor.shape[0], len(batch.permutations)
    diff_s = anchor - batch.positive_struct
    diff_n = anchor - batch.positive_neighbor
    sq_s, sq_n = _row_sq(diff_s), _row_sq(diff_n)
    l_s = l_n = l_u = 0.0
    # Each active hinge adds +-(diff to its positive - diff to the negative)
    # to the anchor gradient; coef_* hold each row's signed weight of the
    # positive differences, neg_term the weighted negative differences.
    coef_s, coef_n = np.zeros(n), np.zeros(n)
    neg_term = np.zeros_like(anchor)
    diff = np.empty_like(anchor)
    for perm in batch.permutations:
        # validate() checked the range; mode="raise" would gather into a temporary
        np.take(batch.negative_rows, perm, axis=0, mode="clip", out=diff)
        np.subtract(anchor, diff, out=diff)
        sq = _row_sq(diff)
        b_s = sq_s - sq + cfg.alpha
        b_n = sq_n - sq + cfg.alpha
        b_u = b_s + cfg.beta
        act_s, act_n, act_u = b_s > 0.0, b_n > 0.0, b_u < 0.0
        l_s += b_s[act_s].sum()
        l_n += b_n[act_n].sum()
        l_u -= b_u[act_u].sum()
        w_s = cfg.omega1 * act_s - act_u
        w_n = cfg.omega2 * act_n
        coef_s += w_s
        coef_n += w_n
        neg_term += (w_s + w_n)[:, None] * diff
    scale = 1.0 / (n * k)
    l_s, l_n, l_u = l_s * scale, l_n * scale, l_u * scale
    g_s = (2.0 * scale) * coef_s[:, None] * diff_s
    g_n = (2.0 * scale) * coef_n[:, None] * diff_n
    return LossOutput(
        total=cfg.omega1 * l_s + cfg.omega2 * l_n + l_u,
        l_struct=l_s,
        l_neighbor=l_n,
        l_upper=l_u,
        grad_anchor=g_s + g_n - (2.0 * scale) * neg_term,
        grad_positive_neighbor=-g_n,
    )
