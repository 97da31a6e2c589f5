"""Downstream evaluation: stratified splits and a linear probe.

The probe is multinomial logistic regression on standardised features, solved
to a gradient tolerance by L-BFGS from zero, so its output is a pure function
of the embeddings and the split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .rng import stream_rng


@dataclass
class SplitSpec:
    """Stratified split sizes: ``train_per_class`` nodes per class for
    training, then ``val_total`` nodes overall for validation; every
    remaining labeled node is test."""

    train_per_class: int
    val_total: int = 500

    def __post_init__(self):
        if self.train_per_class < 1:
            raise InputError(
                f"train_per_class must be >= 1, got {self.train_per_class}"
            )
        if self.val_total < 0:
            raise InputError(f"val_total must be >= 0, got {self.val_total}")


@dataclass
class Split:
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray


def make_split(labels: np.ndarray, n_classes: int, spec: SplitSpec, rng) -> Split:
    """Draw a stratified split over the labeled nodes.

    Nodes are visited in one random order; the first ``train_per_class`` seen
    of each class form the training set, the next ``val_total`` of the rest
    are validation, and the remainder are test.  Unlabeled nodes (label -1)
    never appear in any part, and a split that would leave the validation or
    the test part empty is an error.
    """
    labels = np.asarray(labels)
    labeled = np.flatnonzero(labels >= 0)
    counts = np.bincount(labels[labeled], minlength=n_classes)
    for c in range(n_classes):
        if counts[c] < spec.train_per_class:
            raise InputError(
                f"class {c} has {counts[c]} labeled nodes, "
                f"fewer than the {spec.train_per_class} the split needs"
            )

    if spec.val_total < 1:
        raise InputError(f"val_total={spec.val_total} leaves the validation part empty")

    taken = np.zeros(n_classes, dtype=np.int64)
    train, rest = [], []
    for i in labeled[rng.permutation(labeled.size)]:
        full = taken[labels[i]] >= spec.train_per_class
        taken[labels[i]] += not full
        (rest if full else train).append(i)
    if len(rest) <= spec.val_total:
        raise InputError(
            f"only {len(rest)} labeled nodes remain after training selection, "
            f"so val_total={spec.val_total} leaves the test part empty"
        )
    val, test = rest[: spec.val_total], rest[spec.val_total:]

    return Split(
        train_idx=np.sort(np.asarray(train, dtype=np.int64)),
        val_idx=np.sort(np.asarray(val, dtype=np.int64)),
        test_idx=np.sort(np.asarray(test, dtype=np.int64)),
    )


# The probe has no settings: it solves one convex objective to a tolerance.
PROBE_L2 = 1e-4  # penalty 0.5 * PROBE_L2 * ||W||^2; the bias is not penalised
PROBE_TOLERANCE = 1e-5  # stop once max |gradient| <= this
PROBE_MAX_ITERATIONS = 500
PROBE_HISTORY = 10  # L-BFGS correction pairs
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass
class Probe:
    weights: np.ndarray  # (d, n_classes)
    bias: np.ndarray  # (n_classes,)
    losses: np.ndarray  # objective at the start and at each accepted iterate
    iterations: int
    converged: bool

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(x @ self.weights + self.bias, axis=1)


def train_probe(x: np.ndarray, y: np.ndarray, n_classes: int) -> Probe:
    """Fit multinomial logistic regression on (x, y) to convergence: mean
    cross entropy plus ``0.5 * PROBE_L2 * ||W||^2`` on features standardised
    with the training rows' mean and std, which are folded into the result.
    L-BFGS from zero with Armijo backtracking; a line search that finds no
    descent step ends the fit as not converged."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.shape[0] != y.shape[0]:
        raise InputError(f"{x.shape[0]} rows of features but {y.shape[0]} labels")
    if x.shape[0] == 0:
        raise InputError("cannot fit a probe on an empty training set")
    n, d = x.shape
    mean, std = x.mean(axis=0), x.std(axis=0)
    std[std == 0] = 1.0
    z = (x - mean) / std
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    def objective(theta):
        w, b = theta[:-n_classes].reshape(d, n_classes), theta[-n_classes:]
        logits = z @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits).sum(axis=1))
        g = (np.exp(logits - lse[:, None]) - onehot) / n
        value = np.mean(lse - logits[np.arange(n), y]) + 0.5 * PROBE_L2 * np.sum(w * w)
        return value, np.concatenate([(z.T @ g + PROBE_L2 * w).ravel(), g.sum(axis=0)])

    theta = np.zeros((d + 1) * n_classes)
    f, g = objective(theta)
    losses, pairs = [f], []
    converged = bool(np.max(np.abs(g)) <= PROBE_TOLERANCE)
    while not converged and len(losses) <= PROBE_MAX_ITERATIONS:
        # two-loop recursion: direction = -H g from the stored (s, y) pairs
        q, alphas = g.copy(), []
        for s, yv in reversed(pairs):
            alphas.append(s @ q / (yv @ s))
            q -= alphas[-1] * yv
        if pairs:
            q *= pairs[-1][0] @ pairs[-1][1] / (pairs[-1][1] @ pairs[-1][1])
        for (s, yv), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - yv @ q / (yv @ s)) * s
        direction, slope = -q, -(g @ q)
        if not slope < 0:
            direction, slope, pairs = -g, -(g @ g), []
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            f_new, g_new = objective(theta + step * direction)
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break  # no descent step: stop with converged False
        s, yv = step * direction, g_new - g
        if s @ yv > 1e-12 * np.sqrt((s @ s) * (yv @ yv)):
            pairs = (pairs + [(s, yv)])[-PROBE_HISTORY:]
        theta, f, g = theta + s, f_new, g_new
        losses.append(f)
        converged = bool(np.max(np.abs(g)) <= PROBE_TOLERANCE)

    w, b = theta[:-n_classes].reshape(d, n_classes), theta[-n_classes:]
    weights, bias = w / std[:, None], b - (mean / std) @ w
    return Probe(weights, bias, np.array(losses), len(losses) - 1, converged)


def accuracy(predicted: np.ndarray, expected: np.ndarray) -> float:
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    expected = np.asarray(expected)
    if predicted.shape != expected.shape:
        raise InputError(f"prediction shape {predicted.shape} != label shape {expected.shape}")
    if predicted.size == 0:
        raise InputError("accuracy of an empty index set is undefined")
    return float(np.mean(predicted == expected))


def _std(values) -> float:
    """Sample std (``ddof=1``); 0.0 for a single value."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


@dataclass
class EvalRow:
    """One split's probe: its accuracies, iterations and convergence."""

    seed: int
    acc_val: float
    acc_test: float
    probe_iterations: int
    probe_converged: bool


@dataclass
class EvalReport:
    """Per-seed probe rows; the summaries are read off them: the means and
    sample stds of the accuracies, the most iterations any split's probe
    took and how many did not converge."""

    rows: list[EvalRow]
    degenerate: bool = False

    @property
    def mean_val(self) -> float:
        return float(np.mean([r.acc_val for r in self.rows]))

    @property
    def std_val(self) -> float:
        return _std([r.acc_val for r in self.rows])

    @property
    def mean_test(self) -> float:
        return float(np.mean([r.acc_test for r in self.rows]))

    @property
    def std_test(self) -> float:
        return _std([r.acc_test for r in self.rows])

    @property
    def probe_iterations(self) -> int:
        return max(r.probe_iterations for r in self.rows)

    @property
    def probe_unconverged(self) -> int:
        return sum(not r.probe_converged for r in self.rows)


def evaluate_embeddings(
    embeddings: np.ndarray, labels: np.ndarray, n_classes: int, spec: SplitSpec, seeds
) -> EvalReport:
    """Probe accuracy over one stratified split per seed.

    Each seed draws its split from that seed's dedicated stream, so reports
    are reproducible independently of anything trained beforehand.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.shape[0] != labels.shape[0]:
        raise InputError(f"{embeddings.shape[0]} embedding rows but {labels.shape[0]} labels")
    if not np.all(np.isfinite(embeddings)):
        raise InputError("embeddings contain NaN or infinite values")
    seeds = list(seeds)
    if not seeds:
        raise InputError("need at least one evaluation seed")

    rows = []
    for seed in seeds:
        split = make_split(labels, n_classes, spec, stream_rng(seed, "split"))
        probe = train_probe(embeddings[split.train_idx], labels[split.train_idx], n_classes)
        rows.append(EvalRow(
            seed=seed,
            acc_val=accuracy(probe.predict(embeddings[split.val_idx]), labels[split.val_idx]),
            acc_test=accuracy(probe.predict(embeddings[split.test_idx]), labels[split.test_idx]),
            probe_iterations=probe.iterations,
            probe_converged=probe.converged,
        ))
    return EvalReport(rows, degenerate=bool(np.all(embeddings.std(axis=0) < 1e-12)))


@dataclass
class AblationReport:
    """One report per view mode, each with one row per training seed."""

    reports: dict[str, EvalReport]

    def mean_test(self, view_mode: str) -> float:
        if view_mode not in self.reports:
            raise InputError(f"no ablation report for view mode {view_mode!r}")
        return self.reports[view_mode].mean_test


def run_ablation(
    graph, base_config, train_seeds, spec: SplitSpec, embed_output: str | None = None,
) -> AblationReport:
    """Train and probe once per (view mode, seed) pair.

    The seed drives initialization, sampling and the evaluation split, so
    the split draw is paired across view modes and their means compare on
    identical splits.  Every seed's split is drawn before any training, so
    a split the labels cannot fill fails at once.
    """
    from .training import EMBED_ONLINE_LOCAL, VIEW_MODES, encode, train

    if graph.labels is None:
        raise InputError("ablation needs a labeled graph")
    embed_output = embed_output or EMBED_ONLINE_LOCAL
    train_seeds = list(train_seeds)
    if not train_seeds:
        raise InputError("need at least one training seed")
    for seed in train_seeds:
        make_split(graph.labels, graph.n_classes, spec, stream_rng(seed, "split"))

    reports = {}
    for mode in VIEW_MODES:
        rows, degenerate = [], False
        for seed in train_seeds:
            model = train(graph, replace(base_config, seed=seed, view_mode=mode))
            emb = encode(model, graph, embed_output)
            report = evaluate_embeddings(emb, graph.labels, graph.n_classes, spec, [seed])
            rows += report.rows
            degenerate |= report.degenerate
        reports[mode] = EvalReport(rows, degenerate)
    return AblationReport(reports)
