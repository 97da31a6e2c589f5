"""Dataset I/O: citation-network parsing, a canonical on-disk graph format,
a stochastic block model generator, and embedding export.

The canonical dataset files and exported embeddings are tab-separated text,
read with ``np.loadtxt`` and written with ``np.savetxt``."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import InputError, IntegrityError, ParseError
from .graph import Graph, build_graph
from .training import _replacing


@dataclass
class PlanetoidLoadResult:
    """A parsed citation network and its count of skipped citation lines."""

    graph: Graph
    n_dangling: int


def load_planetoid(content_path, cites_path, row_normalize: bool = True) -> PlanetoidLoadResult:
    """Parse the two-file citation format: a ``.content`` file with one
    ``id f_1 ... f_d label`` record per line and a ``.cites`` file with one
    ``cited citing`` pair per line.

    Node and class indices follow first appearance in the content file.
    Citation lines naming unknown ids are skipped and counted; the rest
    become edges as :func:`~sngcl.graph.build_graph` makes them, so
    self-citations are dropped and each pair is symmetrized.
    """
    content_path = Path(content_path)
    cites_path = Path(cites_path)

    ids: dict[str, int] = {}
    label_ids: dict[str, int] = {}
    rows: list[np.ndarray] = []
    labels: list[int] = []
    with open(content_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 3:
                raise ParseError(
                    f"{content_path}:{lineno}: expected id, features and label, "
                    f"got {len(parts)} fields"
                )
            pid, feats, label = parts[0], parts[1:-1], parts[-1]
            if pid in ids:
                raise ParseError(f"{content_path}:{lineno}: duplicate id {pid!r}")
            if rows and len(feats) != rows[0].size:
                raise ParseError(
                    f"{content_path}:{lineno}: {len(feats)} features, "
                    f"previous records had {rows[0].size}"
                )
            try:
                vec = np.array([float(v) for v in feats])
            except ValueError as exc:
                raise ParseError(
                    f"{content_path}:{lineno}: non-numeric feature value"
                ) from exc
            if not np.all(np.isfinite(vec)):
                raise ParseError(f"{content_path}:{lineno}: non-finite feature value")
            ids[pid] = len(rows)
            rows.append(vec)
            labels.append(label_ids.setdefault(label, len(label_ids)))
    if not rows:
        raise ParseError(f"{content_path}: no records")

    edges: list[tuple[int, int]] = []
    n_dangling = 0
    with open(cites_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ParseError(
                    f"{cites_path}:{lineno}: expected two ids, got {len(parts)} fields"
                )
            if parts[0] not in ids or parts[1] not in ids:
                n_dangling += 1
                continue
            edges.append((ids[parts[0]], ids[parts[1]]))

    x = np.vstack(rows)
    if row_normalize:
        sums = x.sum(axis=1, keepdims=True)
        np.divide(x, sums, out=x, where=sums > 0)
    graph = build_graph(edges, x, labels=np.array(labels), n_classes=len(label_ids))
    return PlanetoidLoadResult(graph=graph, n_dangling=n_dangling)


# --- canonical directory format --------------------------------------------

MANIFEST_NAME = "manifest.txt"
EDGES_NAME = "edges.tsv"
FEATURES_NAME = "features.tsv"
LABELS_NAME = "labels.tsv"


def save_canonical(graph: Graph, directory) -> None:
    """Write a graph as manifest.txt / edges.tsv / features.tsv / labels.tsv.

    Each undirected edge is stored once with the smaller endpoint first;
    floats use 17 significant digits so loading reproduces them exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    upper = sp.triu(graph.adjacency, k=1).tocoo()

    manifest = (
        f"n_nodes={graph.n_nodes}\n"
        f"n_features={graph.n_features}\n"
        f"n_classes={graph.n_classes or 0}\n"
        f"n_edges={upper.nnz}\n"
    )
    with _replacing(directory / MANIFEST_NAME) as f:
        f.write(manifest.encode("utf-8"))

    with _replacing(directory / EDGES_NAME) as f:
        np.savetxt(f, np.column_stack([upper.row, upper.col]), fmt="%d", delimiter="\t")

    with _replacing(directory / FEATURES_NAME) as f:
        np.savetxt(f, graph.features, fmt="%.17g", delimiter="\t")

    labels = graph.labels if graph.labels is not None else np.full(graph.n_nodes, -1)
    with _replacing(directory / LABELS_NAME) as f:
        np.savetxt(f, labels, fmt="%d")


def read_key_values(path: Path) -> dict[str, str]:
    """The ``key=value`` lines of a manifest or a ``--config`` file, keys
    and values stripped; blank lines and ``#`` comments are skipped."""
    if not path.is_file():
        raise ParseError(f"{path}: not found")
    kv = {}  # an undecodable byte becomes U+FFFD and fails as a key or a value would
    for lineno, line in enumerate(path.read_text("utf-8", "replace").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        kv[key.strip()] = value.strip()
    return kv


def _manifest_int(kv: dict, key: str, path: Path) -> int:
    if key not in kv:
        raise ParseError(f"{path}: missing {key}")
    try:
        value = int(kv[key])
    except ValueError as exc:
        raise ParseError(f"{path}: {key}={kv[key]!r} is not an integer") from exc
    if value < 0:
        raise ParseError(f"{path}: {key}={value} is negative")
    return value


def _read_table(
    path: Path, dtype, rows: int, width: int, width_error: type, expected: str
) -> np.ndarray:
    """A tab-separated file as a ``(rows, width)`` array of ``dtype``.

    A value that does not parse is a :class:`ParseError`; rows of another
    width, or of unequal widths, raise ``width_error`` saying ``expected``;
    a row count other than ``rows`` is an :class:`IntegrityError`.
    """
    try:
        with warnings.catch_warnings():
            # a file without data, empty or blank lines only, is zero rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, dtype=dtype, delimiter="\t", comments=None, ndmin=2)
    except ValueError as exc:
        # numpy reports a ragged row as "the number of columns changed ..."
        if "number of columns" not in str(exc):
            raise ParseError(f"{path}: {exc}") from exc
        raise width_error(f"{path}: rows of unequal width; expected {expected}") from exc
    if table.shape[0] == 0:  # numpy gives it one column
        table = table.reshape(0, width)
    if table.shape[1] != width:
        raise width_error(f"{path}: {table.shape[1]} columns; expected {expected}")
    if table.shape[0] != rows:
        raise IntegrityError(f"{path}: {table.shape[0]} rows, manifest says {rows}")
    return table


def load_canonical(directory) -> Graph:
    """Read a graph written by :func:`save_canonical`, checking the files
    against the manifest."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    kv = read_key_values(manifest_path)
    n_nodes = _manifest_int(kv, "n_nodes", manifest_path)
    n_features = _manifest_int(kv, "n_features", manifest_path)
    n_classes = _manifest_int(kv, "n_classes", manifest_path)
    n_edges = _manifest_int(kv, "n_edges", manifest_path)

    edges = _read_table(
        directory / EDGES_NAME, np.int64, n_edges, 2, ParseError, "two endpoints per line"
    )
    features = _read_table(
        directory / FEATURES_NAME, np.float64, n_nodes, n_features, IntegrityError,
        f"{n_features} columns, as the manifest says",
    )
    labels = _read_table(
        directory / LABELS_NAME, np.int64, n_nodes, 1, ParseError, "one label per line"
    )[:, 0]
    if np.all(labels < 0):
        labels = None
    try:
        return build_graph(
            edges, features,
            labels=labels,
            n_classes=n_classes if labels is not None else None,
        )
    except InputError as exc:
        raise IntegrityError(f"{directory}: {exc}") from exc


# --- synthetic graphs -------------------------------------------------------

@dataclass
class SbmConfig:
    """Stochastic block model with one mean-shifted Gaussian feature cloud
    per block (block b's mean is ``feature_shift`` along axis b)."""

    nodes_per_block: int = field(default=100, metadata={"help": "nodes in each block"})
    n_blocks: int = field(default=2, metadata={"help": "number of blocks", "flag": "blocks"})
    p_in: float = field(default=0.1, metadata={"help": "within-block edge probability"})
    p_out: float = field(default=0.01, metadata={"help": "between-block edge probability"})
    feature_dim: int = field(default=16, metadata={"help": "feature width"})
    feature_shift: float = field(default=1.0, metadata={"help": "block mean offset"})
    noise_std: float = field(default=1.0, metadata={"help": "feature noise scale"})
    seed: int = field(default=0, metadata={"help": "seed for the edges and the features"})

    def __post_init__(self):
        if self.nodes_per_block < 1 or self.n_blocks < 1:
            raise InputError("need at least one node per block and one block")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise InputError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in} p_out={self.p_out}"
            )
        if self.feature_dim < self.n_blocks:
            raise InputError(
                f"feature_dim={self.feature_dim} cannot hold {self.n_blocks} "
                "orthogonal block means"
            )
        if self.noise_std < 0:
            raise InputError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


SBM_ROWS_PER_DRAW = 1024


def generate_sbm(config: SbmConfig) -> Graph:
    """Sample a block-model graph; block membership doubles as the label.

    The adjacency is drawn before the features in a fixed order, so a seed
    pins down the whole dataset.
    """
    n = config.nodes_per_block * config.n_blocks
    blocks = np.repeat(np.arange(config.n_blocks), config.nodes_per_block)
    rng = np.random.default_rng(config.seed)

    # Pair (i, j) is an edge when the (i, j) entry of an n x n uniform draw
    # falls below its block pair's probability and j > i.  The draw is made
    # SBM_ROWS_PER_DRAW rows at a time, in row-major order, which consumes
    # the stream exactly as one n x n draw would.
    edge_i, edge_j = [], []
    for start in range(0, n, SBM_ROWS_PER_DRAW):
        rows = blocks[start:start + SBM_ROWS_PER_DRAW]
        probs = np.where(rows[:, None] == blocks[None, :], config.p_in, config.p_out)
        i, j = np.nonzero(np.triu(rng.random(probs.shape) < probs, k=1 + start))
        edge_i.append(i + start)
        edge_j.append(j)

    means = np.zeros((config.n_blocks, config.feature_dim))
    means[np.arange(config.n_blocks), np.arange(config.n_blocks)] = config.feature_shift
    features = means[blocks] + config.noise_std * rng.standard_normal(
        (n, config.feature_dim)
    )
    return build_graph(
        np.stack([np.concatenate(edge_i), np.concatenate(edge_j)], axis=1),
        features,
        labels=blocks,
        n_classes=config.n_blocks,
    )


def export_embeddings(path, embeddings: np.ndarray, node_ids=None) -> None:
    """Write embeddings as TSV, one node per row, at full float64 precision.

    ``node_ids``, when given, becomes a leading identifier column.
    """
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2:
        raise InputError(f"embeddings must be 2-d, got shape {embeddings.shape}")
    if node_ids is not None and len(node_ids) != embeddings.shape[0]:
        raise InputError(
            f"{len(node_ids)} node ids for {embeddings.shape[0]} embedding rows"
        )
    fmt = ["%.17g"] * embeddings.shape[1]
    if node_ids is not None:
        embeddings = np.column_stack([np.asarray(node_ids, dtype=object), embeddings])
        fmt = ["%s", *fmt]
    with _replacing(path) as f:
        np.savetxt(f, embeddings, fmt=fmt, delimiter="\t", encoding="utf-8")
