"""Training loop wiring smoothing, the siamese pair, and losses.

One epoch: forward the online encoder + predictor on the local view to get
the anchor, forward the frozen target encoder on the global view to get the
structural positive, build the neighbor positive and shuffled negatives from
the anchor, take one Adam step on the combined objective, then EMA-update the
target.  The Adam step runs inside backprop: each layer's gradients are
handed to Adam as they form, so training keeps no gradient buffer.

Each encoder reads its view ``H^t X`` in one of two forms, chosen once per
input by :func:`resolve_view_inputs`.  Dense features are smoothed once
before the loop into the dense matrix ``H^t X``.  Sparse features, such as
bag-of-words, stay sparse: the view is the operator ``H^t X`` of
:func:`~sngcl.graph.smoothed_operator`, and the first layer computes
``H^t (X W)`` and its weight gradient ``X^T (H^T)^t dZ`` from sparse
products, never forming ``H^t X``: the forward 64 columns at a time into
arrays the epoch owns, the gradient's ``H^T`` chain in place over ``dZ`` and
its ``X^T`` product in blocks of rows, each of which Adam takes at once.
The rule compares the multiply-adds of the two, with a sparse one weighted
by ``SPARSE_COST``; it reads only the input, so a seed still gives
byte-identical runs.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InputError, TrainingDivergedError
from .graph import (
    Graph,
    RANDOM_WALK,
    SYMMETRIC,
    SmoothedOperator,
    feature_nonzeros,
    smooth_features,
    smoothed_operator,
    sparse_chain,
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
    AdamState,
    Consumer,
    ForwardCache,
    Mlp,
    ModelState,
    adam_step,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
    momentum_update,
    scratch_size,
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
        "help": f"encoder layer widths (default: n_features,{DEFAULT_HIDDEN},{DEFAULT_EMBED})",
        "metavar": DIMS_METAVAR,
    })
    predictor_dims: list[int] | None = field(default=None, metadata={
        "help": f"predictor layer widths (default: d,{DEFAULT_HIDDEN},d)",
        "metavar": DIMS_METAVAR,
    })
    loss: LossConfig = field(default_factory=LossConfig)

    def resolved(self, n_features: int) -> "TrainConfig":
        """Copy with encoder/predictor widths filled in from the data, after
        checking every setting; an out-of-range one is an :class:`InputError`."""
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
        self.loss.validate()  # its fields can be set after construction
        enc = list(self.encoder_dims) if self.encoder_dims else [
            n_features, DEFAULT_HIDDEN, DEFAULT_EMBED,
        ]
        d = enc[-1]
        pred = list(self.predictor_dims) if self.predictor_dims else [
            d, DEFAULT_HIDDEN, d,
        ]
        for name, dims in (("encoder_dims", enc), ("predictor_dims", pred)):
            if len(dims) < 2 or min(dims) < 1:
                raise InputError(f"{name} must be >= 2 positive layer widths, got {dims}")
        if enc[0] != n_features:
            raise InputError(f"encoder input dim {enc[0]} != feature width {n_features}")
        if pred[0] != d:
            raise InputError(f"predictor input dim {pred[0]} != encoder output dim {d}")
        if pred[-1] != d:
            raise InputError(
                f"predictor output dim must equal encoder output dim ({pred[-1]} vs {d})"
            )
        return replace(self, encoder_dims=enc, predictor_dims=pred)


# --- the hyperparameter table -----------------------------------------------


def int_list(text: str) -> list[int]:
    """Parse comma-separated integers such as ``16,512,256``; an empty field
    is an error."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


# field type -> (parse text, format value).  The formats are those of
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


def _table(cls) -> list[Hyperparameter]:
    rows = []
    for f in fields(cls):
        if is_dataclass(f.type):
            rows += _table(f.type)
            continue
        parse, fmt = _CODECS[f.type]
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


def config_lines(config: TrainConfig, rows=HYPERPARAMETERS) -> str:
    """The ``name=value`` lines of a config's ``rows``, as checkpoint metadata."""
    values = config_values(config)
    return "".join(f"{h.name}={h.format(values[h.name])}\n" for h in rows)


def config_from_values(values, cls=TrainConfig):
    """Build a config dataclass from a flat name -> value map; absent fields
    keep their defaults and names that are no field are ignored."""
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            kwargs[f.name] = config_from_values(values, f.type)
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
    cache_enc: ForwardCache
    cache_pred: ForwardCache
    batch: EmbeddingBatch


def _epoch_forward(
    online: Mlp,
    predictor: Mlp,
    target: Mlp,
    online_input: np.ndarray | SmoothedOperator,
    target_input: np.ndarray | SmoothedOperator,
    plan: EpochPlan,
    reuse: _EpochForward | None = None,
) -> _EpochForward:
    """One epoch's forward map.  The negatives are the anchor's rows under
    ``plan.permutations``; a batch whose ``negative_rows`` is a copy of the
    anchor holds them constant, as the analytic gradient does.

    Given ``reuse``, an earlier epoch's forward, every layer and the neighbor
    positive write into its arrays.  The target runs first: its hidden
    layers go into the online encoder's, which the online pass overwrites
    next, and its output into the old structural positive.
    """
    into_target = into_online = into_predictor = into_neighbor = None
    if reuse is not None:
        into_target = ForwardCache(reuse.cache_enc.inputs, reuse.batch.positive_struct)
        into_online, into_predictor = reuse.cache_enc, reuse.cache_pred
        into_neighbor = reuse.batch.positive_neighbor
    positive_struct, _ = mlp_forward(target, target_input, into_target)
    z1, cache_enc = mlp_forward(online, online_input, into_online)
    anchor, cache_pred = mlp_forward(predictor, z1, into_predictor)
    batch = EmbeddingBatch(
        anchor=anchor,
        positive_struct=positive_struct,
        positive_neighbor=sparse_chain([plan.neighbor_op], anchor, into_neighbor),
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
    consumers: Sequence[Consumer],
    scratch: np.ndarray,
) -> None:
    """Backprop of the epoch's loss through the predictor, then the online
    encoder, over the arrays of ``fwd`` and ``out``.

    Each layer's gradients go, as they form, to the matching one of
    ``consumers`` (the encoder's, the predictor's; see
    :func:`~sngcl.nn.mlp_backward`, which also says what ``scratch`` is).

    The neighbor positive is ``S @ anchor``, so its gradient reaches the
    anchor as ``S.T @ grad``, formed in ``out.grad_positive_neighbor``; the
    structural positive belongs to the frozen target and receives nothing.
    """
    enc_consume, pred_consume = consumers
    d_anchor = out.grad_positive_neighbor
    sparse_chain([plan.neighbor_op.T], d_anchor, d_anchor)
    d_anchor += out.grad_anchor
    dz1 = mlp_backward(predictor, fwd.cache_pred, d_anchor, pred_consume, scratch=scratch)
    mlp_backward(
        online, fwd.cache_enc, dz1, enc_consume, need_input_grad=False, scratch=scratch
    )


def _adam_consumer(state: AdamState, net: Mlp, first: Mlp, second: Mlp, lr: float) -> Consumer:
    """A consumer that takes an Adam step on the slice of ``net`` a gradient
    belongs to, with its moments from ``first`` and ``second``."""

    def consume(start: int, grad: np.ndarray) -> None:
        span = slice(start, start + grad.size)
        adam_step(state, net.buffer[span], grad, first.buffer[span], second.buffer[span], lr)

    return consume


def train(graph: Graph, config: TrainConfig, epoch_callback=None) -> TrainedModel:
    """Run the full training loop.

    ``epoch_callback(epoch, state)``, when given, is invoked after each
    epoch's momentum update; useful for instrumentation and invariants.
    """
    config = config.resolved(graph.n_features)
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
    consumers = [
        _adam_consumer(optimizer, net, first, second, config.lr)
        for net, first, second in zip(trained, optimizer.first, optimizer.second)
    ]
    # one array for any single layer's gradients, which Adam takes at once
    scratch = np.empty(max(
        scratch_size(online, isinstance(online_input, SmoothedOperator)),
        scratch_size(predictor),
    ))
    state = ModelState(
        online_encoder=online,
        predictor=predictor,
        target_encoder=target,
        optimizer=optimizer,
    )

    history = np.empty((config.epochs, 5))
    # epoch 1 makes its n-row arrays, the loss's apart from the forward pass's,
    # and each later epoch writes into the previous epoch's
    fwd = out = None
    for epoch in range(1, config.epochs + 1):
        idx = sample_neighbor_indices(graph, loss_cfg.n_neighbors, rng_neighbor)
        plan = EpochPlan(
            neighbor_op=neighbor_operator(idx),
            permutations=[rng_shuffle.permutation(graph.n_nodes) for _ in range(loss_cfg.k)],
        )
        fwd = _epoch_forward(online, predictor, target, online_input, target_input, plan, fwd)
        try:
            out = total_loss(fwd.batch, loss_cfg, out)
        except InputError as exc:  # the batch is well formed, so a value is not finite
            raise TrainingDivergedError(f"{exc} at epoch {epoch}") from exc
        if not np.isfinite(out.total):
            raise TrainingDivergedError(
                f"non-finite loss {out.total} at epoch {epoch}"
            )
        optimizer.step += 1
        _epoch_backward(fwd, out, online, predictor, plan, consumers, scratch)
        # Adam's step is done, and its work array is as long as the EMA's needs to be
        momentum_update(target, online, config.momentum, optimizer.scratch[0])
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
