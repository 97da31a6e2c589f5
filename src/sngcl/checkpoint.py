"""The checkpoint file that ``train``'s model is stored in, and the loss
history's TSV writer.

Both write through :func:`~sngcl.data.replacing`, so a failed write leaves
the previous file in place.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np

from .data import parse_key_values, replacing
from .errors import (
    CheckpointCorruptionError,
    CheckpointFormatError,
    CheckpointVersionError,
    ParseError,
)
from .nn import Mlp, ModelState
from .training import (
    HYPERPARAMETERS,
    TrainConfig,
    TrainedModel,
    config_from_values,
    config_lines,
)


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


def _config_from_lines(text: str) -> TrainConfig:
    try:
        kv = parse_key_values(text, "metadata")
        values = {h.name: h.parse(kv[h.name]) for h in HYPERPARAMETERS}
        config = config_from_values(values).resolved(values["encoder_dims"][0])
    except KeyError as exc:
        raise CheckpointCorruptionError(f"metadata missing key {exc}") from exc
    except (ParseError, ValueError) as exc:  # InputError is a ValueError
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
    f.write(data)  # the array's own bytes, without a copy


def save_checkpoint(model: TrainedModel, path) -> None:
    with replacing(path) as f:
        f.write(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]))
        meta = config_lines(model.config).encode("utf-8")
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
                online_encoder=Mlp(config.encoder_dims),
                predictor=None,
                target_encoder=Mlp(config.encoder_dims),
            ),
            config=config,
            history=np.empty((config.epochs, 5)),
        )
        _read_tensors(f, dict(_tensor_items(model)))
    return model


HISTORY_HEADER = "epoch\tloss\tl_struct\tl_neighbor\tl_upper"


def write_history(path, history: np.ndarray) -> None:
    """Loss history as TSV with lossless float formatting."""
    with replacing(path) as f:
        fmt = ["%d"] + ["%.17g"] * 4
        np.savetxt(f, history, fmt=fmt, delimiter="\t", header=HISTORY_HEADER, comments="")
