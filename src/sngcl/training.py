"""Training loop wiring smoothing, the siamese pair, losses, and checkpoints.

One epoch: forward the online encoder + predictor on the local view to get
the anchor, forward the frozen target encoder on the global view to get the
structural positive, build the neighbor positive and shuffled negatives from
the anchor, take one Adam step on the combined objective, then EMA-update the
target.

Each encoder reads its view ``H^t X`` in one of two forms, chosen once per
input by :func:`resolve_view_inputs`.  Dense features are smoothed once
before the loop into the dense matrix ``H^t X``.  Sparse features, such as
bag-of-words, stay sparse: the view is the operator ``H^t X`` of
:func:`~sngcl.graph.smoothed_operator`, and the first layer computes
``H^t (X W)`` and its weight gradient ``X^T (H^T)^t dZ`` from sparse
products, never forming ``H^t X``.  The rule compares the multiply-adds of
the two, with a sparse one weighted by ``SPARSE_COST``; it reads only the
input, so a seed still gives byte-identical runs.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np
import scipy.sparse as sp

from .errors import (
    CheckpointCorruptionError,
    CheckpointFormatError,
    CheckpointVersionError,
    InputError,
    TrainingDivergedError,
)
from .graph import (
    Graph,
    RANDOM_WALK,
    SYMMETRIC,
    SmoothedOperator,
    feature_nonzeros,
    smooth_features,
    smoothed_operator,
)
from .losses import (
    EmbeddingBatch,
    LossConfig,
    LossOutput,
    neighbor_operator,
    sample_neighbor_indices,
    total_loss,
)
from .nn import (
    Mlp,
    ModelState,
    adam_step,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
    momentum_update,
)
from .rng import stream_rng

VIEW_BOTH = "both"
VIEW_GLOBAL_ONLY = "global-only"
VIEW_LOCAL_ONLY = "local-only"
# view mode -> (online network's filter, target network's filter)
VIEW_FILTERS = {
    VIEW_BOTH: (SYMMETRIC, RANDOM_WALK),
    VIEW_GLOBAL_ONLY: (RANDOM_WALK, RANDOM_WALK),
    VIEW_LOCAL_ONLY: (SYMMETRIC, SYMMETRIC),
}
VIEW_MODES = tuple(VIEW_FILTERS)

EMBED_ONLINE_LOCAL = "online-local"
EMBED_CONCAT_BOTH = "concat-both"
EMBED_MODES = (EMBED_ONLINE_LOCAL, EMBED_CONCAT_BOTH)

DEFAULT_HIDDEN = 512
DEFAULT_EMBED = 256
DIMS_METAVAR = "D0,D1,..."


@dataclass(kw_only=True)
class TrainConfig:
    """All hyperparameters of a training run.

    Each field, together with the fields of ``loss``, is one row of the
    hyperparameter table (:data:`HYPERPARAMETERS`): its default and its
    ``metadata`` help text and choices give the CLI flag and ``--config`` key,
    and the field order is the order of the checkpoint metadata.
    """

    t: int = field(default=3, metadata={"help": "smoothing filter depth"})
    epochs: int = field(default=500, metadata={"help": "training epochs"})
    lr: float = field(default=1e-3, metadata={"help": "Adam learning rate"})
    momentum: float = field(default=0.8, metadata={"help": "target-network EMA momentum"})
    seed: int = field(default=0, metadata={"help": "seed for init and sampling"})
    view_mode: str = field(default=VIEW_BOTH, metadata={
        "help": "which smoothed views feed the online/target networks",
        "choices": VIEW_MODES,
    })
    encoder_dims: list[int] | None = field(default=None, metadata={
        "help": "encoder layer widths (default: n_features,512,256)",
        "metavar": DIMS_METAVAR,
    })
    predictor_dims: list[int] | None = field(default=None, metadata={
        "help": "predictor layer widths (default: d,512,d)",
        "metavar": DIMS_METAVAR,
    })
    loss: LossConfig = field(default_factory=LossConfig)

    def resolved(self, n_features: int) -> "TrainConfig":
        """Copy with encoder/predictor widths filled in from the data."""
        enc = list(self.encoder_dims) if self.encoder_dims else [
            n_features, DEFAULT_HIDDEN, DEFAULT_EMBED,
        ]
        d = enc[-1]
        pred = list(self.predictor_dims) if self.predictor_dims else [
            d, DEFAULT_HIDDEN, d,
        ]
        return replace(self, encoder_dims=enc, predictor_dims=pred)

    def validate(self, n_features: int) -> None:
        if self.t < 0:
            raise InputError(f"t must be >= 0, got {self.t}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.lr < math.inf:  # NaN fails too
            raise InputError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.momentum <= 1.0:
            raise InputError(f"momentum must lie in [0, 1], got {self.momentum}")
        if self.seed < 0:  # the message of stream_rng, which ablate's split seeds reach first
            raise InputError(f"seed must be >= 0, got {self.seed}")
        _view_filters(self.view_mode)
        if self.encoder_dims is None or self.predictor_dims is None:
            raise InputError("dims must be resolved before validation")
        for name in ("encoder_dims", "predictor_dims"):
            dims = getattr(self, name)
            if len(dims) < 2 or min(dims) < 1:
                raise InputError(f"{name} must be >= 2 positive layer widths, got {dims}")
        if self.encoder_dims[0] != n_features:
            raise InputError(
                f"encoder input dim {self.encoder_dims[0]} != feature width {n_features}"
            )
        if self.predictor_dims[0] != self.encoder_dims[-1]:
            raise InputError(
                f"predictor input dim {self.predictor_dims[0]} != encoder output "
                f"dim {self.encoder_dims[-1]}"
            )
        if self.predictor_dims[-1] != self.encoder_dims[-1]:
            raise InputError(
                "predictor output dim must equal encoder output dim "
                f"({self.predictor_dims[-1]} vs {self.encoder_dims[-1]})"
            )


# --- the hyperparameter table -----------------------------------------------


def int_list(text: str) -> list[int]:
    """Parse comma-separated integers such as ``16,512,256``; at least one."""
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    return values


# field annotation -> (parse text, format value).  The formats are those of
# checkpoint format version 1, such as ``repr`` for floats.
_CODECS = {
    int: (int, str),
    float: (float, repr),
    str: (str, str),
    list[int] | None: (int_list, lambda v: ",".join(str(d) for d in v)),
}


@dataclass(frozen=True)
class Hyperparameter:
    """One row of the hyperparameter table, read off a config field."""

    name: str
    default: object
    help: str
    choices: tuple | None
    metavar: str | None
    parse: Callable[[str], object]  # raises ValueError on malformed text
    format: Callable[[object], str]


# A config class's resolved field annotations, computed once: resolving
# them took about 0.3 ms a class on a 2-vCPU x86-64 host, at every
# checkpoint load.
_type_hints = cache(get_type_hints)


def _table(cls) -> list[Hyperparameter]:
    rows = []
    hints = _type_hints(cls)
    for f in fields(cls):
        kind = hints[f.name]
        if is_dataclass(kind):
            rows += _table(kind)
            continue
        parse, fmt = _CODECS[kind]
        rows.append(Hyperparameter(
            name=f.name, default=f.default, help=f.metadata["help"],
            choices=f.metadata.get("choices"), metavar=f.metadata.get("metavar"),
            parse=parse, format=fmt,
        ))
    return rows


# TrainConfig's fields with the nested LossConfig's spliced in at ``loss``.
HYPERPARAMETERS: tuple[Hyperparameter, ...] = tuple(_table(TrainConfig))


def config_values(config) -> dict[str, object]:
    """Flat name -> value map of a config, in table order."""
    values = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            values.update(config_values(value))
        else:
            values[f.name] = value
    return values


def config_from_values(values, cls=TrainConfig):
    """Build a config dataclass from a flat name -> value map; absent fields
    keep their defaults and names that are no field are ignored."""
    hints = _type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            kwargs[f.name] = config_from_values(values, hints[f.name])
        elif f.name in values:
            kwargs[f.name] = values[f.name]
    return cls(**kwargs)


@dataclass
class TrainedModel:
    """Model state plus the resolved config and per-epoch loss history.

    ``history`` has one row per completed epoch:
    (epoch, total, l_struct, l_neighbor, l_upper).
    """

    model: ModelState
    config: TrainConfig
    history: np.ndarray


def _view_filters(view_mode: str) -> tuple[str, str]:
    try:
        return VIEW_FILTERS[view_mode]
    except KeyError:
        raise InputError(f"unknown view mode {view_mode!r}; known: {VIEW_MODES}") from None


# How many dense multiply-adds one sparse multiply-add costs.  With one BLAS
# thread on a 2-vCPU x86-64 host, a float64 GEMM ran at 25-30 GMAC/s and
# scipy's CSR x dense product at 1.8-2.2 GMAC/s, a ratio of about 14.
SPARSE_COST = 14


def _factorises(graph: Graph, t: int) -> bool:
    """Whether ``H^t (X W)`` costs less than ``(H^t X) W``.

    Per column of ``W``, the factorised product makes ``nnz(X)`` sparse
    multiply-adds for ``X W`` and ``nnz(A + I)`` for each of the t hops; the
    dense one makes ``n * f``.
    """
    a_hat_nnz = graph.adjacency.nnz + graph.n_nodes  # no stored self-loops
    sparse = feature_nonzeros(graph) + t * a_hat_nnz
    return SPARSE_COST * sparse < graph.n_nodes * graph.n_features


def _view_input(graph: Graph, t: int, mode: str) -> np.ndarray | SmoothedOperator:
    """One filter's encoder input: ``H^t X`` as a dense matrix, or as an
    operator when the features are sparse enough to factorise."""
    if _factorises(graph, t):
        return smoothed_operator(graph, t, mode)
    return smooth_features(graph, t, mode)


def resolve_view_inputs(
    graph: Graph, t: int, view_mode: str
) -> tuple[np.ndarray | SmoothedOperator, np.ndarray | SmoothedOperator]:
    """(online input, target input) for a view mode; single-view ablations
    feed the same input to both networks, built once."""
    online_filter, target_filter = _view_filters(view_mode)
    online_input = _view_input(graph, t, online_filter)
    if target_filter == online_filter:
        return online_input, online_input
    return online_input, _view_input(graph, t, target_filter)


@dataclass
class EpochPlan:
    """Frozen stochastic choices for one epoch: the neighbor sampling
    operator S (the neighbor positive is ``S @ anchor``) and the row
    permutations generating the negatives."""

    neighbor_op: sp.csr_matrix
    permutations: list[np.ndarray]


@dataclass
class _EpochForward:
    cache_enc: object
    cache_pred: object
    batch: EmbeddingBatch


def _epoch_forward(
    online: Mlp,
    predictor: Mlp,
    target: Mlp,
    online_input: np.ndarray | SmoothedOperator,
    target_input: np.ndarray | SmoothedOperator,
    plan: EpochPlan,
) -> _EpochForward:
    """One epoch's forward map.  The negatives are the anchor's rows under
    ``plan.permutations``; a batch whose ``negative_rows`` is a copy of the
    anchor holds them constant, as the analytic gradient does."""
    z1, cache_enc = mlp_forward(online, online_input)
    anchor, cache_pred = mlp_forward(predictor, z1)
    positive_struct, _ = mlp_forward(target, target_input)
    batch = EmbeddingBatch(
        anchor=anchor,
        positive_struct=positive_struct,
        positive_neighbor=plan.neighbor_op @ anchor,
        negative_rows=anchor,
        permutations=plan.permutations,
    )
    return _EpochForward(cache_enc=cache_enc, cache_pred=cache_pred, batch=batch)


def _epoch_backward(
    fwd: _EpochForward,
    out: LossOutput,
    online: Mlp,
    predictor: Mlp,
    plan: EpochPlan,
    grads: Sequence[Mlp | None] = (None, None),
) -> tuple[Mlp, Mlp]:
    """Gradients for the online encoder and predictor, written into
    ``grads`` (fresh Mlps where None).

    The neighbor positive is ``S @ anchor``, so its gradient reaches the
    anchor as ``S.T @ grad``; the structural positive belongs to the frozen
    target and receives nothing.
    """
    enc_out, pred_out = grads
    d_anchor = out.grad_anchor + plan.neighbor_op.T @ out.grad_positive_neighbor
    pred_grads, dz1 = mlp_backward(predictor, fwd.cache_pred, d_anchor, grads=pred_out)
    enc_grads, _ = mlp_backward(
        online, fwd.cache_enc, dz1, need_input_grad=False, grads=enc_out
    )
    return enc_grads, pred_grads


def train(graph: Graph, config: TrainConfig, epoch_callback=None) -> TrainedModel:
    """Run the full training loop.

    ``epoch_callback(epoch, state)``, when given, is invoked after each
    epoch's momentum update; useful for instrumentation and invariants.
    """
    config = config.resolved(graph.n_features)
    config.validate(graph.n_features)
    loss_cfg = config.loss

    online_input, target_input = resolve_view_inputs(graph, config.t, config.view_mode)

    rng_init = stream_rng(config.seed, "init")
    rng_shuffle = stream_rng(config.seed, "shuffle")
    rng_neighbor = stream_rng(config.seed, "neighbor")

    online = init_mlp(config.encoder_dims, rng_init)
    predictor = init_mlp(config.predictor_dims, rng_init)
    target = online.copy()
    trained = [online, predictor]
    optimizer = init_adam(trained)
    grads = [net.zeros_like() for net in trained]
    state = ModelState(
        online_encoder=online,
        predictor=predictor,
        target_encoder=target,
        optimizer=optimizer,
    )

    history = np.empty((config.epochs, 5))
    for epoch in range(1, config.epochs + 1):
        idx = sample_neighbor_indices(graph, loss_cfg.n_neighbors, rng_neighbor)
        plan = EpochPlan(
            neighbor_op=neighbor_operator(idx),
            permutations=[rng_shuffle.permutation(graph.n_nodes) for _ in range(loss_cfg.k)],
        )
        fwd = _epoch_forward(online, predictor, target, online_input, target_input, plan)
        # A NaN makes every hinge bracket test False, which would report a
        # loss of 0 instead of failing.
        checked = (("anchor", fwd.batch.anchor), ("structural positive", fwd.batch.positive_struct))
        for name, arr in checked:
            if not np.isfinite(arr).all():
                raise TrainingDivergedError(f"non-finite {name} at epoch {epoch}")
        out = total_loss(fwd.batch, loss_cfg)
        if not np.isfinite(out.total):
            raise TrainingDivergedError(
                f"non-finite loss {out.total} at epoch {epoch}"
            )
        _epoch_backward(fwd, out, online, predictor, plan, grads)
        adam_step(optimizer, trained, grads, config.lr)
        momentum_update(target, online, config.momentum)
        history[epoch - 1] = (epoch, out.total, out.l_struct, out.l_neighbor, out.l_upper)
        if epoch_callback is not None:
            epoch_callback(epoch, state)
    return TrainedModel(model=state, config=config, history=history)


def encode(model: TrainedModel, graph: Graph, output: str = EMBED_ONLINE_LOCAL) -> np.ndarray:
    """Frozen embeddings for downstream evaluation.

    ``online-local`` is the online encoder applied to its training-time
    input; ``concat-both`` appends the target encoder's view of the other
    input, doubling the width.
    """
    if output not in EMBED_MODES:
        raise InputError(f"unknown embedding output {output!r}; known: {EMBED_MODES}")
    cfg = model.config
    if graph.n_features != cfg.encoder_dims[0]:
        raise InputError(
            f"graph feature width {graph.n_features} != training width "
            f"{cfg.encoder_dims[0]}"
        )
    if output == EMBED_ONLINE_LOCAL:
        online_input = _view_input(graph, cfg.t, _view_filters(cfg.view_mode)[0])
        return mlp_forward(model.model.online_encoder, online_input)[0]
    online_input, target_input = resolve_view_inputs(graph, cfg.t, cfg.view_mode)
    z_online, _ = mlp_forward(model.model.online_encoder, online_input)
    z_target, _ = mlp_forward(model.model.target_encoder, target_input)
    return np.hstack([z_online, z_target])


# --- checkpoint format -----------------------------------------------------
#
# magic "SNGCL" + version byte, then a u64-length-prefixed UTF-8 metadata
# block of key=value lines (the config snapshot), then tensor records until
# EOF: u64 name length, name bytes, u64 rank, u64 dims, float64 LE values.
# A checkpoint holds the online and target encoders and the loss history:
# the predictor and the optimizer serve training only.  The reader takes
# only the keys and records it needs, reading each record straight into the
# buffer the config implies and skipping the others, so older files that
# also carry them (predictor/* and optimizer/* records, adam_* keys, and the
# retired normalize_embeddings and anchor_mode keys) load.

CHECKPOINT_MAGIC = b"SNGCL"
CHECKPOINT_VERSION = 1
_MAX_NAME = 1 << 16
_MAX_RANK = 8


def _config_to_lines(config: TrainConfig, rows=HYPERPARAMETERS) -> str:
    values = config_values(config)
    return "".join(f"{h.name}={h.format(values[h.name])}\n" for h in rows)


def _config_from_lines(text: str) -> TrainConfig:
    kv = dict(line.partition("=")[::2] for line in text.splitlines() if line)
    try:
        config = config_from_values({h.name: h.parse(kv[h.name]) for h in HYPERPARAMETERS})
        config.validate(config.encoder_dims[0])
    except KeyError as exc:
        raise CheckpointCorruptionError(f"metadata missing key {exc}") from exc
    except ValueError as exc:  # InputError is a ValueError
        raise CheckpointCorruptionError(f"malformed metadata: {exc}") from exc
    return config


def _tensor_items(model: TrainedModel):
    state = model.model
    for prefix, mlp in (
        ("online_encoder", state.online_encoder),
        ("target_encoder", state.target_encoder),
    ):
        for l in range(mlp.n_layers):
            yield f"{prefix}/w{l}", mlp.weights[l]
            yield f"{prefix}/b{l}", mlp.biases[l]
    yield "history", model.history


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    data = np.ascontiguousarray(arr, dtype="<f8")
    name_bytes = name.encode("utf-8")
    f.write(struct.pack("<Q", len(name_bytes)))
    f.write(name_bytes)
    f.write(struct.pack("<Q", data.ndim))
    f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
    f.write(data.tobytes())


@contextmanager
def _replacing(path):
    """A binary file that takes ``path``'s place only when the block exits
    cleanly; on an error the old file stays and the partial one is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(model: TrainedModel, path) -> None:
    with _replacing(path) as f:
        f.write(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]))
        meta = _config_to_lines(model.config).encode("utf-8")
        f.write(struct.pack("<Q", len(meta)))
        f.write(meta)
        for name, arr in _tensor_items(model):
            _write_tensor(f, name, arr)


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointCorruptionError(
            f"truncated checkpoint: wanted {n} bytes, got {len(data)}"
        )
    return data


def _read_utf8(f, n: int, what: str) -> str:
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptionError(f"malformed {what}: {exc}") from exc


def _read_tensors(f, destinations: dict[str, np.ndarray]) -> None:
    """Read each tensor record straight into its destination array, after
    checking the record's shape against it; skip records that have none.
    Every destination must be filled, once, with finite values."""
    size = os.fstat(f.fileno()).st_size
    seen: set[str] = set()
    while head := f.read(8):
        if len(head) != 8:
            raise CheckpointCorruptionError("truncated checkpoint: partial record header")
        (name_len,) = struct.unpack("<Q", head)
        if name_len == 0 or name_len > _MAX_NAME:
            raise CheckpointCorruptionError(f"implausible tensor name length {name_len}")
        name = _read_utf8(f, name_len, "tensor name")
        if name in seen:
            raise CheckpointCorruptionError(f"duplicate tensor {name!r}")
        seen.add(name)
        (rank,) = struct.unpack("<Q", _read_exact(f, 8))
        if rank > _MAX_RANK:
            raise CheckpointCorruptionError(f"implausible tensor rank {rank}")
        dims = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank))
        n_bytes = 8 * math.prod(dims)
        if n_bytes > size - f.tell():
            raise CheckpointCorruptionError(
                f"truncated checkpoint: tensor {name!r} of shape {dims} needs "
                f"{n_bytes} bytes, {size - f.tell()} left"
            )
        out = destinations.get(name)
        if out is None:  # a record this reader does not use: check its shape, skip its data
            try:
                np.broadcast_to(0.0, dims)
            except ValueError as exc:
                raise CheckpointCorruptionError(f"tensor {name!r}: {exc}") from exc
            f.seek(n_bytes, os.SEEK_CUR)
            continue
        if dims != out.shape:
            raise CheckpointCorruptionError(
                f"tensor {name!r} has shape {dims}, the config implies {out.shape}"
            )
        if f.readinto(out) != n_bytes:
            raise CheckpointCorruptionError(f"truncated checkpoint: tensor {name!r} ends early")
        if sys.byteorder == "big":  # the file holds little-endian values
            out.byteswap(inplace=True)
    for name, out in destinations.items():
        if name not in seen:
            raise CheckpointCorruptionError(f"checkpoint missing tensor {name!r}")
        if not np.all(np.isfinite(out)):
            raise CheckpointCorruptionError(f"tensor {name!r} holds NaN or infinite values")


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint; its ``model.predictor`` and ``model.optimizer``
    are None, as neither is stored."""
    with open(path, "rb") as f:
        head = f.read(6)
        if len(head) < 6 or head[:5] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(
                f"not a checkpoint file (bad magic bytes {head[:5]!r})"
            )
        version = head[5]
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint format version {version} not supported "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        (meta_len,) = struct.unpack("<Q", _read_exact(f, 8))
        if meta_len > (1 << 24):
            raise CheckpointCorruptionError(f"implausible metadata length {meta_len}")
        config = _config_from_lines(_read_utf8(f, meta_len, "metadata"))
        # the two encoders and the epochs x 5 history, checked before either is allocated
        dims = config.encoder_dims
        n_bytes = 8 * (2 * sum((a + 1) * b for a, b in zip(dims, dims[1:])) + 5 * config.epochs)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if n_bytes > left:
            raise CheckpointCorruptionError(
                f"truncated checkpoint: the metadata implies {n_bytes} tensor bytes, {left} left"
            )
        model = TrainedModel(
            model=ModelState(
                online_encoder=Mlp.unset(config.encoder_dims),
                predictor=None,
                target_encoder=Mlp.unset(config.encoder_dims),
            ),
            config=config,
            history=np.empty((config.epochs, 5)),
        )
        _read_tensors(f, dict(_tensor_items(model)))
    return model


HISTORY_HEADER = "epoch\tloss\tl_struct\tl_neighbor\tl_upper"


def write_history(path, history: np.ndarray) -> None:
    """Loss history as TSV with lossless float formatting."""
    with _replacing(path) as f:
        fmt = ["%d"] + ["%.17g"] * 4
        np.savetxt(f, history, fmt=fmt, delimiter="\t", header=HISTORY_HEADER, comments="")
