"""Downstream evaluation: stratified splits and a linear probe.

The probe is a deliberately plain multinomial logistic regression trained by
full-batch gradient descent from a zero initialization, so its output is a
pure function of the embeddings and the split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .rng import stream_rng


@dataclass
class SplitSpec:
    """Stratified split sizes: ``train_per_class`` nodes per class for
    training, then either ``val_total`` nodes overall or ``val_per_class``
    nodes per class for validation; every remaining labeled node is test."""

    train_per_class: int
    val_total: int | None = None
    val_per_class: int | None = None

    def __post_init__(self):
        if self.train_per_class < 1:
            raise InputError(
                f"train_per_class must be >= 1, got {self.train_per_class}"
            )
        if (self.val_total is None) == (self.val_per_class is None):
            raise InputError("set exactly one of val_total / val_per_class")
        val = self.val_total if self.val_total is not None else self.val_per_class
        if val < 0:
            raise InputError(f"validation size must be >= 0, got {val}")


@dataclass
class Split:
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray


def make_split(labels: np.ndarray, n_classes: int, spec: SplitSpec, rng) -> Split:
    """Draw a stratified split over the labeled nodes.

    Nodes are visited in one random order; the first ``train_per_class`` seen
    of each class form the training set, validation is filled next, and the
    rest are test.  Unlabeled nodes (label -1) never appear in any part.
    """
    labels = np.asarray(labels)
    labeled = np.flatnonzero(labels >= 0)
    counts = np.bincount(labels[labeled], minlength=n_classes)
    need = spec.train_per_class + (spec.val_per_class or 0)
    for c in range(n_classes):
        if counts[c] < need:
            raise InputError(
                f"class {c} has {counts[c]} labeled nodes, "
                f"fewer than the {need} the split needs"
            )

    order = labeled[rng.permutation(labeled.size)]
    taken_train = np.zeros(n_classes, dtype=np.int64)
    train, rest = [], []
    for i in order:
        c = labels[i]
        if taken_train[c] < spec.train_per_class:
            train.append(i)
            taken_train[c] += 1
        else:
            rest.append(i)

    if spec.val_total is not None:
        if len(rest) < spec.val_total:
            raise InputError(
                f"only {len(rest)} labeled nodes remain after training "
                f"selection, fewer than val_total={spec.val_total}"
            )
        val = rest[: spec.val_total]
        test = rest[spec.val_total:]
    else:
        taken_val = np.zeros(n_classes, dtype=np.int64)
        val, test = [], []
        for i in rest:
            c = labels[i]
            if taken_val[c] < spec.val_per_class:
                val.append(i)
                taken_val[c] += 1
            else:
                test.append(i)

    return Split(
        train_idx=np.sort(np.asarray(train, dtype=np.int64)),
        val_idx=np.sort(np.asarray(val, dtype=np.int64)),
        test_idx=np.sort(np.asarray(test, dtype=np.int64)),
    )


@dataclass
class ProbeConfig:
    lr: float = 1e-2
    epochs: int = 300
    l2: float = 1e-4


@dataclass
class Probe:
    weights: np.ndarray  # (d, n_classes)
    bias: np.ndarray  # (n_classes,)
    losses: np.ndarray | None = None  # objective at each epoch, plus the final value

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(x @ self.weights + self.bias, axis=1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_probe(
    x: np.ndarray, y: np.ndarray, n_classes: int, config: ProbeConfig | None = None
) -> Probe:
    """Fit the linear probe on (x, y) by full-batch gradient descent.

    Cross entropy plus an L2 penalty on the weight matrix only; the bias is
    unregularized.  Zero initialization makes the result deterministic.
    """
    config = config or ProbeConfig()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.shape[0] != y.shape[0]:
        raise InputError(f"{x.shape[0]} rows of features but {y.shape[0]} labels")
    if x.shape[0] == 0:
        raise InputError("cannot fit a probe on an empty training set")
    n, d = x.shape
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    def objective(p):
        ce = -np.log(np.maximum(p[np.arange(n), y], 1e-300)).mean()
        return ce + 0.5 * config.l2 * float(np.sum(w * w))

    losses = np.empty(config.epochs + 1)
    for epoch in range(config.epochs):
        p = _softmax(x @ w + b)
        losses[epoch] = objective(p)
        g = (p - onehot) / n
        w -= config.lr * (x.T @ g + config.l2 * w)
        b -= config.lr * g.sum(axis=0)
    losses[-1] = objective(_softmax(x @ w + b))
    return Probe(weights=w, bias=b, losses=losses)


def accuracy(predicted: np.ndarray, expected: np.ndarray) -> float:
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    expected = np.asarray(expected)
    if predicted.shape != expected.shape:
        raise InputError(
            f"prediction shape {predicted.shape} != label shape {expected.shape}"
        )
    if predicted.size == 0:
        raise InputError("accuracy of an empty index set is undefined")
    return float(np.mean(predicted == expected))


@dataclass
class EvalRow:
    seed: int
    acc_val: float
    acc_test: float


@dataclass
class EvalReport:
    """Per-seed probe accuracies plus their mean and sample std."""

    rows: list[EvalRow]
    mean_val: float
    std_val: float
    mean_test: float
    std_test: float
    degenerate: bool = False

    def to_tsv(self) -> str:
        lines = ["seed\tacc_val\tacc_test"]
        for row in self.rows:
            lines.append(f"{row.seed}\t{row.acc_val:.17g}\t{row.acc_test:.17g}")
        lines.append(f"mean\t{self.mean_val:.17g}\t{self.mean_test:.17g}")
        lines.append(f"std\t{self.std_val:.17g}\t{self.std_test:.17g}")
        return "\n".join(lines) + "\n"


def evaluate_embeddings(
    embeddings: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    spec: SplitSpec,
    seeds,
    probe_config: ProbeConfig | None = None,
) -> EvalReport:
    """Probe accuracy over one stratified split per seed.

    Each seed draws its split from that seed's dedicated stream, so reports
    are reproducible independently of anything trained beforehand.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.shape[0] != labels.shape[0]:
        raise InputError(
            f"{embeddings.shape[0]} embedding rows but {labels.shape[0]} labels"
        )
    seeds = list(seeds)
    if not seeds:
        raise InputError("need at least one evaluation seed")
    degenerate = bool(np.all(embeddings.std(axis=0) < 1e-12))

    rows = []
    for seed in seeds:
        split = make_split(labels, n_classes, spec, stream_rng(seed, "split"))
        probe = train_probe(
            embeddings[split.train_idx], labels[split.train_idx], n_classes, probe_config
        )
        rows.append(
            EvalRow(
                seed=seed,
                acc_val=accuracy(probe.predict(embeddings[split.val_idx]), labels[split.val_idx]),
                acc_test=accuracy(probe.predict(embeddings[split.test_idx]), labels[split.test_idx]),
            )
        )
    vals = np.array([r.acc_val for r in rows])
    tests = np.array([r.acc_test for r in rows])
    std = lambda a: float(a.std(ddof=1)) if a.size > 1 else 0.0
    return EvalReport(
        rows=rows,
        mean_val=float(vals.mean()),
        std_val=std(vals),
        mean_test=float(tests.mean()),
        std_test=std(tests),
        degenerate=degenerate,
    )


@dataclass
class AblationRow:
    view_mode: str
    seed: int
    acc_val: float
    acc_test: float


@dataclass
class AblationSummary:
    view_mode: str
    mean_val: float
    mean_test: float
    std_test: float


@dataclass
class AblationReport:
    rows: list[AblationRow]
    summaries: list[AblationSummary]

    def mean_test(self, view_mode: str) -> float:
        for s in self.summaries:
            if s.view_mode == view_mode:
                return s.mean_test
        raise InputError(f"no ablation summary for view mode {view_mode!r}")


def run_ablation(
    graph,
    base_config,
    train_seeds,
    spec: SplitSpec,
    view_modes=None,
    embed_output: str | None = None,
    probe_config: ProbeConfig | None = None,
) -> AblationReport:
    """Train and probe once per (view mode, seed) pair.

    The seed drives initialization, sampling and the evaluation split, so
    the split draw is paired across view modes and their means compare on
    identical splits.
    """
    from .training import EMBED_ONLINE_LOCAL, VIEW_MODES, encode, train

    if graph.labels is None:
        raise InputError("ablation needs a labeled graph")
    view_modes = list(view_modes) if view_modes is not None else list(VIEW_MODES)
    embed_output = embed_output or EMBED_ONLINE_LOCAL
    train_seeds = list(train_seeds)
    if not train_seeds:
        raise InputError("need at least one training seed")

    rows = []
    summaries = []
    for mode in view_modes:
        accs_val, accs_test = [], []
        for seed in train_seeds:
            config = replace(base_config, seed=seed, view_mode=mode)
            model = train(graph, config)
            emb = encode(model, graph, embed_output)
            split = make_split(graph.labels, graph.n_classes, spec, stream_rng(seed, "split"))
            probe = train_probe(
                emb[split.train_idx], graph.labels[split.train_idx],
                graph.n_classes, probe_config,
            )
            acc_val = accuracy(probe.predict(emb[split.val_idx]), graph.labels[split.val_idx])
            acc_test = accuracy(probe.predict(emb[split.test_idx]), graph.labels[split.test_idx])
            rows.append(AblationRow(view_mode=mode, seed=seed, acc_val=acc_val, acc_test=acc_test))
            accs_val.append(acc_val)
            accs_test.append(acc_test)
        tests = np.array(accs_test)
        summaries.append(
            AblationSummary(
                view_mode=mode,
                mean_val=float(np.mean(accs_val)),
                mean_test=float(tests.mean()),
                std_test=float(tests.std(ddof=1)) if tests.size > 1 else 0.0,
            )
        )
    return AblationReport(rows=rows, summaries=summaries)
