"""The checkpoint file's version-1 bytes, pinned."""

import hashlib

import numpy as np

from sngcl.checkpoint import load_checkpoint, save_checkpoint
from sngcl.losses import LossConfig
from sngcl.nn import Mlp, ModelState
from sngcl.training import TrainConfig, TrainedModel

# sha256 and size of the file below as the version-1 writer lays it out.  A
# change to either is a change of the format: the reader must keep loading
# files written before it.
V1_SHA256 = "0a1d71eddf1f0d43b793eacd7793c34a67a2ab8ee24fd4088dd6dded47bc5769"
V1_SIZE = 1114


def _fixed_model() -> TrainedModel:
    """A model built from fixed, exactly representable values, so no BLAS
    build can change its bytes; every hyperparameter is off its default."""
    config = TrainConfig(
        t=2, epochs=3, lr=0.002, momentum=0.75, seed=7, view_mode="global-only",
        encoder_dims=[3, 4, 2], predictor_dims=[2, 3, 2],
        loss=LossConfig(alpha=0.5, beta=2.0, k=3, n_neighbors=4, omega1=0.25, omega2=1.5),
    ).resolved(3)

    def encoder(offset: int) -> Mlp:
        net = Mlp(config.encoder_dims)
        net.buffer[:] = (np.arange(net.buffer.size) - offset) / 8
        return net

    return TrainedModel(
        model=ModelState(online_encoder=encoder(0), predictor=None, target_encoder=encoder(5)),
        config=config,
        history=np.arange(15.0).reshape(3, 5) / 4,
    )


def test_a_fixed_model_saves_to_the_version_1_bytes_and_loads_back(tmp_path):
    model = _fixed_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    assert (hashlib.sha256(raw).hexdigest(), len(raw)) == (V1_SHA256, V1_SIZE)

    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.history.tobytes() == model.history.tobytes()
    for net in ("online_encoder", "target_encoder"):
        assert getattr(loaded.model, net).buffer.tobytes() == (
            getattr(model.model, net).buffer.tobytes()
        )
    assert loaded.model.predictor is None and loaded.model.optimizer is None
