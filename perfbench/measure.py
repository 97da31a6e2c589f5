"""The measured path, the checks on its outputs, and the metrics.

One round drives the library the way ``sngcl train`` followed by
``sngcl eval`` does:

    load_canonical -> train (epoch_callback stamps each epoch)
    -> save_checkpoint + write_history
    -> EVAL_REPEATS x (load_checkpoint -> encode -> evaluate_embeddings)

A run repeats whole rounds on the same input until its time is up.  Every
round computes the same outputs, so the checks run once, after the timers
have stopped and the peak RSS has been read, on the last round, and every
other round is compared with it byte for byte.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from sngcl import (
    RANDOM_WALK,
    LossConfig,
    SYMMETRIC,
    SplitSpec,
    TrainConfig,
    encode,
    evaluate_embeddings,
    load_canonical,
    load_checkpoint,
    save_checkpoint,
    smooth_features,
    train,
    write_history,
)
from sngcl import training as sngcl_training

from tracing import STAGES, MemoryTracer, SpanTracer
from workloads import describe

clock = time.perf_counter

SMOOTH_TOL = 1e-10  # acceptance criterion 01
REPRO_EPOCHS = 3
MIN_ROUNDS = 3  # per timed phase, so that setup_s is a median of several
# Evaluations per round.  The checkpoint is evaluated this many times, so a
# run holds three times as many eval_s samples as it holds rounds.
EVAL_REPEATS = 3
CHECKPOINT = "model.ckpt"
HISTORY = "history.tsv"
MB = float(1 << 20)


@dataclass
class Round:
    """Timestamps of one pass over the measured path, digests of what it
    produced, and (for the newest round only) the outputs themselves."""

    start: float
    loaded: float
    epoch_ends: list[float]
    saved: float
    # per evaluation: start, checkpoint loaded, encoded, probed
    evals: list[tuple[float, float, float, float]]
    test_acc: float
    degenerate: bool
    # history, checkpoint file, and the set of distinct (embeddings, accuracy)
    # pairs over the round's evaluations, which holds one pair when they agree
    digests: tuple[str, str, frozenset]
    model: object = None
    embeddings: np.ndarray | None = None

    @property
    def setup_s(self) -> float:
        return self.epoch_ends[0] - self.start

    @property
    def train_s(self) -> float:
        return self.saved - self.epoch_ends[0]

    def eval_s(self) -> list[float]:
        return [probed - start for start, _, _, probed in self.evals]

    def epoch_ms(self) -> list[float]:
        """Wall time of epochs 2..N."""
        return list(np.diff(self.epoch_ends) * 1e3)


def _digest(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_round(workload, data_dir: Path, out_dir: Path, seed: int) -> Round:
    start = clock()
    graph = load_canonical(data_dir)
    loaded = clock()
    epoch_ends: list[float] = []
    model = train(
        graph, TrainConfig(seed=seed, epochs=workload.epochs),
        epoch_callback=lambda epoch, state: epoch_ends.append(clock()),
    )
    save_checkpoint(model, out_dir / CHECKPOINT)
    write_history(out_dir / HISTORY, model.history)
    saved = clock()
    evals, outputs = [], set()
    for _ in range(EVAL_REPEATS):
        restored = emb = None  # release the previous evaluation's outputs first
        began = clock()
        restored = load_checkpoint(out_dir / CHECKPOINT)
        ckpt_loaded = clock()
        emb = encode(restored, graph)
        encoded = clock()
        report = evaluate_embeddings(
            emb, graph.labels, graph.n_classes,
            SplitSpec(train_per_class=workload.train_per_class, val_total=workload.val_total),
            range(workload.probe_splits),
        )
        evals.append((began, ckpt_loaded, encoded, clock()))
        outputs.add((_digest(np.ascontiguousarray(emb)), report.mean_test))
    digests = (
        _digest(np.ascontiguousarray(model.history)),
        _file_digest(out_dir / CHECKPOINT),
        frozenset(outputs),
    )
    return Round(
        start=start, loaded=loaded, epoch_ends=epoch_ends, saved=saved, evals=evals,
        test_acc=report.mean_test, degenerate=report.degenerate, digests=digests,
        model=model, embeddings=emb,
    )


def timed_rounds(workload, data_dir, out_dir, seed, seconds: float) -> list[Round]:
    """At least MIN_ROUNDS whole rounds, and more while another one is
    expected to end within ``seconds``."""
    rounds: list[Round] = []
    begin = clock()
    while len(rounds) < MIN_ROUNDS or clock() + (clock() - begin) / len(rounds) <= begin + seconds:
        if rounds:
            # only the newest round keeps its outputs, so that the peak RSS
            # is that of one pass over the path
            rounds[-1].model = rounds[-1].embeddings = None
        rounds.append(run_round(workload, data_dir, out_dir, seed))
    return rounds


def peak_rss_mb() -> float:
    """High-water RSS of this process.  VmHWM belongs to the current address
    space; ru_maxrss can carry the parent's peak across the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


# --- checks ------------------------------------------------------------------


def oracle_smooth(edges: np.ndarray, x: np.ndarray, t: int, mode: str) -> np.ndarray:
    """H^t X computed here from the edge list: A + I normalised by the
    self-loop degree, applied t times without forming H."""
    n = x.shape[0]
    both = np.concatenate([edges, edges[:, ::-1]])
    a = sp.csr_matrix((np.ones(both.shape[0]), (both[:, 0], both[:, 1])), shape=(n, n))
    deg = 1.0 + np.bincount(both[:, 0], minlength=n)
    for _ in range(t):
        if mode == RANDOM_WALK:
            x = (a @ x + x) / deg[:, None]
        else:
            s = 1.0 / np.sqrt(deg)[:, None]
            x = s * (a @ (s * x) + s * x)
    return x


def check(workload, data_dir: Path, out_dir: Path, rounds: list[Round]) -> tuple[int, list[str]]:
    """Number of rounds whose outputs fail a check, and what failed.

    The checks compare with computations made here or with properties the
    method must have, never with a stored copy of earlier output.
    """
    last = rounds[-1]
    graph = load_canonical(data_dir)
    config = last.model.config
    problems = []

    edges = np.loadtxt(data_dir / "edges.tsv", dtype=np.int64, ndmin=2).reshape(-1, 2)
    for mode in (SYMMETRIC, RANDOM_WALK):
        want = oracle_smooth(edges, graph.features, config.t, mode)
        err = float(np.max(np.abs(smooth_features(graph, config.t, mode) - want)))
        if not err <= SMOOTH_TOL:
            problems.append(f"{mode} view differs from H^t X by {err:.3g}")

    history = last.model.history
    if not (np.all(np.isfinite(history)) and np.all(history[:, 1:] >= 0.0)):
        problems.append("a loss in the history is negative or not finite")
    rows = min(REPRO_EPOCHS, config.epochs)
    again = train(graph, replace(config, epochs=rows)).history
    if again.tobytes() != history[:rows].tobytes():
        problems.append(f"a second training does not reproduce the first {rows} epochs")

    in_memory = encode(last.model, graph)
    restored = encode(load_checkpoint(out_dir / CHECKPOINT), graph)
    if not (in_memory.tobytes() == restored.tobytes() == last.embeddings.tobytes()):
        problems.append("the checkpoint round trip changes the embeddings")

    emb = last.embeddings
    if last.degenerate or not np.all(np.isfinite(emb)) or not np.median(emb.std(axis=0)) > 1e-9:
        problems.append("the embeddings are degenerate")
    if workload.min_test_acc is not None and not last.test_acc >= workload.min_test_acc:
        problems.append(f"test accuracy {last.test_acc:.4f} < {workload.min_test_acc}")

    if problems:
        return len(rounds), problems
    if len(last.digests[2]) != 1:
        problems.append("the evaluations of one checkpoint disagree")
        return len(rounds), problems
    differ = sum(r.digests != last.digests for r in rounds)
    if differ:
        problems.append(f"{differ} round(s) produced outputs that differ from the last one")
    return differ, problems


# --- metrics -----------------------------------------------------------------


def end_to_end(rounds: list[Round], rss_mb: float) -> dict[str, float]:
    """Set-up is the median over rounds; the other timings are the fastest
    sample of the run, because on a shared host interference only ever adds
    time and the fastest sample moves least from run to run."""
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "epoch_ms_min": min(ms for r in rounds for ms in r.epoch_ms()),
        "train_s_min": min(r.train_s for r in rounds),
        "eval_s_min": min(s for r in rounds for s in r.eval_s()),
        "peak_rss_mb": rss_mb,
    }


def _mlp_flops(dims: list[int], rows: int) -> int:
    return 2 * rows * sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def epoch_flops(config: TrainConfig, n: int) -> int:
    """Multiply-adds x 2 that one epoch's forward and backward need, from the
    layer shapes: forward through online, predictor and target; weight
    gradients of online and predictor; input gradients of the predictor and
    of every encoder layer above the first."""
    enc, pred = config.encoder_dims, config.predictor_dims
    forward = 2 * _mlp_flops(enc, n) + _mlp_flops(pred, n)
    backward = _mlp_flops(enc, n) + 2 * _mlp_flops(pred, n) + _mlp_flops(enc[1:], n)
    return forward + backward


EPOCH_STAGES = [
    "losses.sample", "losses.neighbor_mean", "losses.neighbor_backward", "losses.loss",
    "nn.forward", "nn.backward", "nn.adam", "nn.ema",
]


def stage_times(rounds: list[Round], spans) -> tuple[list[float], dict[str, list[float]], list[float]]:
    """Per traced epoch 2..N: its wall time, the summed time of each stage's
    spans inside it, and the time covered by no outermost span (all in s)."""
    spans = sorted(spans, key=lambda s: s[1])
    starts = [s[1] for s in spans]
    walls, self_times = [], []
    per_stage: dict[str, list[float]] = {name: [] for name in EPOCH_STAGES}
    for r in rounds:
        for lo, hi in zip(r.epoch_ends[:-1], r.epoch_ends[1:]):
            inside = spans[bisect.bisect_left(starts, lo):bisect.bisect_right(starts, hi)]
            sums = dict.fromkeys(EPOCH_STAGES, 0.0)
            covered = 0.0
            for name, start, end, depth in inside:
                if name in sums:
                    sums[name] += end - start
                if depth == 0:
                    covered += end - start
            walls.append(hi - lo)
            self_times.append(hi - lo - covered)
            for name, total in sums.items():
                per_stage[name].append(total)
    return walls, per_stage, self_times


def per_layer(untraced, traced, span_tracer, memory, flops: int) -> dict[str, float]:
    walls, per_stage, self_times = stage_times(traced, span_tracer.spans)
    mean_ms = lambda xs: 1e3 * float(np.mean(xs))
    median_ms = lambda xs: 1e3 * statistics.median(xs)
    smooth = [(start, end) for name, start, end, _ in span_tracer.spans if name == "graph.smooth"]
    calls = lambda lo, hi: sum(lo <= start and end <= hi for start, end in smooth)
    # per training plus one evaluation, as one `sngcl train` + `sngcl eval`
    smooth_calls = [
        calls(r.start, r.saved) + np.mean([calls(e[0], e[3]) for e in r.evals]) for r in traced
    ]
    matmul_s = sum(per_stage["nn.forward"]) + sum(per_stage["nn.backward"])
    untraced_min = end_to_end(untraced, 0.0)["epoch_ms_min"]
    traced_min = end_to_end(traced, 0.0)["epoch_ms_min"]

    metrics = {
        "data.load_ms": median_ms([r.loaded - r.start for r in traced]),
        "graph.smooth_ms": median_ms([end - start for start, end in smooth]) if smooth else 0.0,
        "graph.smooth_calls": float(np.mean(smooth_calls)),
    }
    for name in EPOCH_STAGES:
        metrics[f"{name}_ms"] = mean_ms(per_stage[name])
    metrics.update({
        "losses.loss_tmp_mb": _median_mb(memory.stage_peaks["losses.loss"][1:]),
        "losses.active_frac_struct": _mean_or_zero(memory.active["struct"]),
        "losses.active_frac_neighbor": _mean_or_zero(memory.active["neighbor"]),
        "losses.active_frac_upper": _mean_or_zero(memory.active["upper"]),
        "nn.gflops": flops * len(walls) / matmul_s / 1e9 if matmul_s > 0 else 0.0,
        "nn.adam_tmp_mb": _median_mb(memory.stage_peaks["nn.adam"][1:]),
        "training.epoch_ms": mean_ms(walls),
        "training.epoch_self_ms": mean_ms(self_times),
        "training.epoch_tmp_mb": _median_mb(memory.epoch_peaks[1:]),
        "training.save_ms": median_ms([r.saved - r.epoch_ends[-1] for r in traced]),
        "training.load_ckpt_ms": median_ms([e[1] - e[0] for r in traced for e in r.evals]),
        "training.encode_ms": median_ms([e[2] - e[1] for r in traced for e in r.evals]),
        "evaluation.probe_ms": median_ms([e[3] - e[2] for r in traced for e in r.evals]),
        "evaluation.test_acc": traced[-1].test_acc,
        "trace.overhead_pct": 100.0 * (traced_min / untraced_min - 1.0),
    })
    return metrics


def _median_mb(values) -> float:
    return statistics.median(values) / MB if values else 0.0


def _mean_or_zero(values) -> float:
    return float(np.mean(values)) if values else 0.0


# --- one run -----------------------------------------------------------------


def run(workload, data_dir: Path, warmup_workload, warmup_dir: Path, out_dir: Path,
        seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result, details).

    ``result`` carries correct / attempted / failed and the metrics:
    end-to-end with ``trace`` off, per-layer with it on.
    """
    # a round on a tiny graph first, so that lazy imports and library
    # initialisation are not timed
    run_round(warmup_workload, warmup_dir, out_dir, seed)

    details: dict = {}
    if not trace:
        rounds = timed_rounds(workload, data_dir, out_dir, seed, seconds)
        metrics = end_to_end(rounds, peak_rss_mb())
    else:
        untraced = timed_rounds(workload, data_dir, out_dir, seed, seconds / 2)
        untraced[-1].model = untraced[-1].embeddings = None
        with SpanTracer(sngcl_training) as span_tracer:
            traced = timed_rounds(workload, data_dir, out_dir, seed, seconds / 2)
        config = traced[-1].model.config
        graph = load_canonical(data_dir)
        memory = MemoryTracer(sngcl_training, config.loss.alpha, config.loss.beta)
        with memory:
            train(graph, config, epoch_callback=lambda epoch, state: memory.epoch_end())
        flops = epoch_flops(config, graph.n_nodes)
        del graph
        metrics = per_layer(untraced, traced, span_tracer, memory, flops)
        absent = sorted({STAGES[n] for n in span_tracer.patch.absent + memory.patch.absent})
        if memory.active_absent:
            absent.append("losses.active_frac")
        details["absent_spans"] = absent
        rounds = untraced + traced

    failed, problems = check(workload, data_dir, out_dir, rounds)
    details.update({
        "input": describe(load_canonical(data_dir), LossConfig().n_neighbors),
        "test_acc": rounds[-1].test_acc,
        "rounds": len(rounds),
        "problems": problems,
        "setup_s": [r.setup_s for r in rounds],
        "train_s": [r.train_s for r in rounds],
        "eval_s": [s for r in rounds for s in r.eval_s()],
        "epoch_ms": [ms for r in rounds for ms in r.epoch_ms()],
    })
    result = {
        "correct": failed == 0,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    return result, details

