"""Spans and memory peaks around the functions ``sngcl.training`` calls,
recorded from outside the package.

Each stage is wrapped by name in the ``sngcl.training`` namespace, which is
where ``train`` and ``encode`` look those functions up.  A name the module
no longer has is reported as absent rather than failing the run, so the
traced run survives refactors that merge or remove stages.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

# name in sngcl.training -> per-layer span
STAGES = {
    "sample_neighbor_indices": "losses.sample",
    "neighbor_mean": "losses.neighbor_mean",
    "neighbor_mean_backward": "losses.neighbor_backward",
    "total_loss": "losses.loss",
    "mlp_forward": "nn.forward",
    "mlp_backward": "nn.backward",
    "adam_step": "nn.adam",
    "momentum_update": "nn.ema",
    "smooth_features": "graph.smooth",
}
# stages whose temporary allocations the memory pass reports
MEMORY_STAGES = {"total_loss": "losses.loss", "adam_step": "nn.adam"}


class _Patch:
    """Replaces functions in a module namespace and puts them back."""

    def __init__(self, module, names):
        self.module = module
        self.present = {n: getattr(module, n) for n in names if hasattr(module, n)}
        self.absent = sorted(set(names) - set(self.present))

    def install(self, make_wrapper) -> None:
        for name, fn in self.present.items():
            setattr(self.module, name, make_wrapper(name, fn))

    def uninstall(self) -> None:
        for name, fn in self.present.items():
            setattr(self.module, name, fn)


class SpanTracer:
    """Times every call of the wrapped stages.

    ``spans`` holds (span name, start, end, depth) tuples; depth 0 marks a
    call made while no other wrapped call was running, and only those count
    when the epoch's self time is computed.
    """

    def __init__(self, module):
        self.patch = _Patch(module, STAGES)
        self.spans: list[tuple[str, float, float, int]] = []
        self._depth = 0

    def _wrap(self, name, fn):
        span = STAGES[name]
        spans = self.spans
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            depth = self._depth
            self._depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((span, start, clock(), depth))
                self._depth = depth

        return wrapped

    def __enter__(self):
        self.patch.install(self._wrap)
        return self

    def __exit__(self, *exc):
        self.patch.uninstall()


class MemoryTracer:
    """Peak bytes allocated above the baseline, per stage call and per epoch,
    plus the share of active hinges in the batch passed to ``total_loss``.

    Runs with tracemalloc on, in a pass of its own, so its cost never lands
    in a timed span.
    """

    def __init__(self, module, alpha: float, beta: float):
        self.patch = _Patch(module, MEMORY_STAGES)
        self.alpha = alpha
        self.beta = beta
        self.stage_peaks: dict[str, list[float]] = {s: [] for s in MEMORY_STAGES.values()}
        self.epoch_peaks: list[float] = []
        self.active: dict[str, list[float]] = {"struct": [], "neighbor": [], "upper": []}
        self.active_absent = False
        self._epoch_base = 0
        self._epoch_max = 0

    def _fold_peak(self) -> None:
        self._epoch_max = max(self._epoch_max, tracemalloc.get_traced_memory()[1])

    def _wrap(self, name, fn):
        span = MEMORY_STAGES[name]

        def wrapped(*args, **kwargs):
            self._fold_peak()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            self._epoch_max = max(self._epoch_max, peak)
            self.stage_peaks[span].append(peak - base)
            if name == "total_loss":
                self._record_active(args[0] if args else kwargs.get("batch"))
                # keep this check's own arrays out of the epoch's peak
                tracemalloc.reset_peak()
            return result

        return wrapped

    def _record_active(self, batch) -> None:
        try:
            anchor = batch.anchor
            pos_s, pos_n, negatives = batch.positive_struct, batch.positive_neighbor, batch.negatives
        except AttributeError:
            self.active_absent = True
            return
        sq_s = _sq_rows(anchor - pos_s)
        sq_n = _sq_rows(anchor - pos_n)
        sq_neg = np.stack([_sq_rows(anchor - neg) for neg in negatives])
        self.active["struct"].append(float(np.mean(sq_s - sq_neg + self.alpha > 0)))
        self.active["neighbor"].append(float(np.mean(sq_n - sq_neg + self.alpha > 0)))
        self.active["upper"].append(
            float(np.mean(sq_s - sq_neg + self.alpha + self.beta < 0))
        )

    def epoch_end(self) -> None:
        """Close one epoch's window; call from the training epoch callback."""
        self._fold_peak()
        self.epoch_peaks.append(self._epoch_max - self._epoch_base)
        tracemalloc.reset_peak()
        self._epoch_base = self._epoch_max = tracemalloc.get_traced_memory()[0]

    def __enter__(self):
        tracemalloc.start()
        self._epoch_base = self._epoch_max = tracemalloc.get_traced_memory()[0]
        self.patch.install(self._wrap)
        return self

    def __exit__(self, *exc):
        self.patch.uninstall()
        tracemalloc.stop()


def _sq_rows(diff: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", diff, diff)
