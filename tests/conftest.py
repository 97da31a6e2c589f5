"""Shared fixtures and helpers for the test suite.

Citation datasets are not vendored; tests needing them look for a data
directory (``SNGCL_DATA`` or ``<repo>/data``) holding the usual
``<name>/<name>.content`` / ``.cites`` pairs and skip loudly when absent.
"""

import os
import struct
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from sngcl.data import SbmConfig, generate_sbm
from sngcl.graph import RANDOM_WALK, build_graph


def data_dir() -> Path:
    env = os.environ.get("SNGCL_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


def planetoid_paths(name: str):
    """(content, cites) paths for a dataset, or None when not present."""
    base = data_dir() / name
    content = base / f"{name}.content"
    cites = base / f"{name}.cites"
    if content.is_file() and cites.is_file():
        return content, cites
    return None


def require_planetoid(name: str):
    paths = planetoid_paths(name)
    if paths is None:
        pytest.skip(
            f"dataset {name!r} not present: put {name}.content and {name}.cites "
            f"under {data_dir() / name} (or point SNGCL_DATA elsewhere)"
        )
    return paths


def random_graph(rng: np.random.Generator, n: int, p: float, n_features: int):
    """Erdos-Renyi style random graph with random features, possibly with
    isolated nodes."""
    draw = rng.random((n, n))
    upper = np.triu(draw < p, k=1)
    edges = list(zip(*np.nonzero(upper)))
    features = rng.standard_normal((n, n_features))
    return build_graph(edges, features)


def sparse_feature_graph(seed: int = 0, n: int = 120, n_features: int = 200):
    """Random graph with 0/1 bag-of-words-like features, 2% of them non-zero,
    and about 1.8 edges per node: sparse enough that training reads its views
    as operators rather than dense matrices."""
    rng = np.random.default_rng(seed)
    draw = rng.random((n, n))
    edges = list(zip(*np.nonzero(np.triu(draw < 0.015, k=1))))
    features = (rng.random((n, n_features)) < 0.02).astype(np.float64)
    labels = rng.integers(0, 3, size=n)
    return build_graph(edges, features, labels=labels, n_classes=3)


def assert_frozen(graph) -> None:
    """A graph's fields cannot be reassigned and its arrays are read-only."""
    adj = graph.adjacency
    arrays = [graph.features, adj.data, adj.indices, adj.indptr]
    if graph.labels is not None:
        arrays.append(graph.labels)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(FrozenInstanceError):
        graph.features = np.zeros_like(graph.features)
    with pytest.raises(FrozenInstanceError):
        graph.labels = None


def dense_smooth_oracle(graph, t: int, mode: str) -> np.ndarray:
    """Reference smoothing: build the dense operator, take its t-th matrix
    power, and multiply once.  Deliberately a different computation path from
    the repeated sparse products in the library."""
    n = graph.n_nodes
    a_hat = graph.adjacency.toarray() + np.eye(n)
    d_hat = a_hat.sum(axis=1)
    if mode == RANDOM_WALK:
        h = a_hat / d_hat[:, None]
    else:
        s = 1.0 / np.sqrt(d_hat)
        h = a_hat * s[:, None] * s[None, :]
    return np.linalg.matrix_power(h, t) @ graph.features


def rel_err(got, want) -> float:
    """Frobenius-norm relative error of ``got`` against ``want``."""
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of the scalar ``f()`` w.r.t. ``x``,
    mutating ``x`` in place entry by entry."""
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


@pytest.fixture()
def path_graph():
    """Three nodes in a path 0 - 1 - 2 with one-hot features."""
    return build_graph([(0, 1), (1, 2)], np.eye(3))


@pytest.fixture(scope="session")
def sbm_tiny():
    """Two well-separated 30-node blocks; shared across tests, do not mutate."""
    return generate_sbm(
        SbmConfig(nodes_per_block=30, n_blocks=2, p_in=0.2, p_out=0.02, seed=7)
    )


def rewrite_checkpoint_metadata(path, old: bytes, new: bytes) -> None:
    """Replace ``old`` by ``new`` in a checkpoint's metadata block, keeping
    its length prefix right and its tensor records as they are."""
    raw = Path(path).read_bytes()
    (meta_len,) = struct.unpack_from("<Q", raw, 6)
    meta = raw[14:14 + meta_len]
    assert old in meta
    meta = meta.replace(old, new)
    Path(path).write_bytes(raw[:6] + struct.pack("<Q", len(meta)) + meta + raw[14 + meta_len:])
