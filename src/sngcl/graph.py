"""Graph data model and the stacked low-pass smoothing filters.

The two propagation operators are built from the self-loop augmented
adjacency ``A_hat = A + I`` with degree ``d_hat``:

* random-walk:  ``H = D_hat^-1 A_hat``          (row-stochastic, global view)
* symmetric:    ``H = D_hat^-1/2 A_hat D_hat^-1/2``  (symmetric, local view)

Smoothing applies ``H`` to the feature matrix ``t`` times as sparse-dense
products; the dense power ``H^t`` is never materialized.  For sparse
features, :func:`smoothed_operator` goes one step further and never forms
``H^t X`` either: it is the linear operator ``H^t X``, so a first layer
``(H^t X) W`` is computed as ``H^t (X W)`` from sparse products alone.

The fixed operators these read (each mode's ``H``, the CSR form of ``X`` and
its nonzero count) are derived once per graph, on first use, and kept by it;
the smoothed ``H^t X`` itself is recomputed by every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InputError

RANDOM_WALK = "random-walk"
SYMMETRIC = "symmetric"
MODES = (RANDOM_WALK, SYMMETRIC)


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph.

    ``adjacency`` is a symmetric CSR matrix with unit weights and no stored
    self-loops.  ``labels`` may be None (unlabeled graph) or an int array
    where -1 marks individually unlabeled nodes.

    A graph keeps the operators derived from its fields (``_derived``, see
    :func:`propagation_matrix`), so it is frozen, and :func:`build_graph`
    makes its arrays read-only.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray | None = None
    n_classes: int | None = None
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _derive(self, key: str, build):
        """``build(self)``, computed on the first call for ``key`` and kept."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        """Unaugmented degree of every node."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def validate(self) -> None:
        n = self.n_nodes
        if n == 0:
            raise InputError("graph has no nodes")
        if self.adjacency.shape != (n, n):
            raise InputError("adjacency must be square")
        if self.features.shape[0] != n:
            raise InputError(f"feature rows ({self.features.shape[0]}) != n_nodes ({n})")
        bad = ~np.isfinite(self.features)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise InputError(
                f"non-finite feature {self.features[row, col]} at node {row}, column {col}"
            )
        if (self.adjacency != self.adjacency.T).nnz != 0:
            raise InputError("adjacency must be symmetric")
        if self.adjacency.diagonal().any():
            raise InputError("adjacency must not store self-loops")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise InputError(f"label count ({self.labels.shape[0]}) != n_nodes ({n})")
            if self.n_classes is None:
                raise InputError("labels present but n_classes missing")
            check_labels(self.labels, self.n_classes)


def check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Reject the first label outside ``[-1, n_classes)``, naming its node."""
    bad = np.flatnonzero((labels < -1) | (labels >= n_classes))
    if bad.size:
        raise InputError(f"label {labels[bad[0]]} of node {bad[0]} lies outside [-1, {n_classes})")


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that cannot be written through."""
    view = a.view()
    view.flags.writeable = False
    return view


def build_graph(
    edge_list,
    features: np.ndarray,
    labels=None,
    n_classes: int | None = None,
) -> Graph:
    """Build a Graph from undirected edge pairs.

    Pairs are symmetrized, duplicates collapse to a single unit-weight edge,
    and self-loop pairs are dropped.  Node ids must lie in ``[0, n)`` where
    ``n`` is the feature row count.  The graph's arrays are read-only views,
    not copies, of ``features`` and ``labels`` when their dtype fits.
    """
    features = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
    if features.ndim != 2:
        raise InputError("features must be a 2-d matrix")
    n = features.shape[0]

    edges = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        bad = edges[(edges < 0).any(axis=1) | (edges >= n).any(axis=1)][0]
        raise InputError(f"edge ({bad[0]}, {bad[1]}) references a node outside [0, {n})")

    keep = edges[:, 0] != edges[:, 1] if edges.size else np.empty(0, dtype=bool)
    edges = edges[keep]
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.coo_matrix(
        (np.ones(rows.shape[0]), (rows, cols)), shape=(n, n)
    ).tocsr()
    adj.data[:] = 1.0  # collapse duplicate pairs summed by tocsr
    adj.data, adj.indices, adj.indptr = map(_read_only, (adj.data, adj.indices, adj.indptr))

    if labels is not None:
        labels = _read_only(np.asarray(labels, dtype=np.int64))
        if n_classes is None:
            n_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
    graph = Graph(adj, _read_only(features), labels, n_classes)
    graph.validate()
    return graph


def propagation_matrix(graph: Graph, mode: str) -> sp.csr_matrix:
    """Normalized propagation operator over the self-loop augmented graph, as
    sparse CSR; built on the first call per mode and kept by the graph, so
    the caller must not modify it."""
    if mode not in MODES:
        raise InputError(f"unknown propagation mode {mode!r}; known: {MODES}")
    return graph._derive(mode, lambda g: _build_propagation(g, mode))


def _build_propagation(graph: Graph, mode: str) -> sp.csr_matrix:
    # The self-loop guarantees every augmented degree is >= 1, so no
    # division by zero is possible even for isolated nodes.
    n = graph.n_nodes
    a_hat = (graph.adjacency + sp.identity(n, format="csr")).tocsr()
    d_hat = np.asarray(a_hat.sum(axis=1)).ravel()
    if mode == RANDOM_WALK:
        h = sp.diags(1.0 / d_hat) @ a_hat
    else:
        s = sp.diags(1.0 / np.sqrt(d_hat))
        h = s @ a_hat @ s
    return h.tocsr()


def smooth_features(graph: Graph, t: int, mode: str) -> np.ndarray:
    """Apply the stacked t-layer filter: ``H^t X`` via t sparse-dense products.

    ``t = 0`` returns a copy of the raw features.
    """
    if t < 0:
        raise InputError(f"stacking depth t must be >= 0, got {t}")
    x = graph.features.copy()
    if t == 0:
        return x
    h = propagation_matrix(graph, mode)
    for _ in range(t):
        x = h @ x
    return np.ascontiguousarray(x)


@dataclass(frozen=True)
class SmoothedOperator:
    """``H^t X`` as a linear operator that is never formed.

    ``op @ W`` computes ``H^t (X W)`` and ``op.T @ G`` computes
    ``X^T (H^T)^t G``, each from sparse products with ``H`` and the CSR
    ``X``; they equal ``smooth_features(graph, t, mode) @ W`` and its
    transpose up to rounding.  It offers what the MLP reads of an input
    matrix: ``shape``, ``ndim``, ``.T`` and ``@``.
    """

    h: sp.csr_matrix
    x: sp.csr_matrix
    t: int
    ndim = 2

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape

    @property
    def T(self) -> _TransposedOperator:
        return _TransposedOperator(self)

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        out = self.x @ w
        for _ in range(self.t):
            out = self.h @ out
        return out


@dataclass(frozen=True)
class _TransposedOperator:
    op: SmoothedOperator

    def __matmul__(self, g: np.ndarray) -> np.ndarray:
        for _ in range(self.op.t):
            g = self.op.h.T @ g
        return self.op.x.T @ g


def smoothed_operator(graph: Graph, t: int, mode: str) -> SmoothedOperator:
    """The stacked t-layer filter ``H^t X`` as a :class:`SmoothedOperator`."""
    if t < 0:
        raise InputError(f"stacking depth t must be >= 0, got {t}")
    x = graph._derive("csr_features", _build_csr_features)
    return SmoothedOperator(propagation_matrix(graph, mode), x, t)


def _build_csr_features(graph: Graph) -> sp.csr_matrix:
    return sp.csr_matrix(graph.features)


def feature_nonzeros(graph: Graph) -> int:
    """How many feature entries are nonzero, kept by the graph after the
    first call."""
    return graph._derive("feature_nonzeros", lambda g: int(np.count_nonzero(g.features)))
