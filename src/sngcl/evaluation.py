"""Downstream evaluation: stratified splits and a linear probe.

The probe is multinomial logistic regression on standardised features, solved
to a gradient tolerance by L-BFGS from zero, so its output is a pure function
of the embeddings and the split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .graph import check_labels
from .rng import stream_rng
from .training import EMBED_ONLINE_LOCAL, VIEW_MODES, encode, train


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
    never appear in any part.  A label outside ``[-1, n_classes)``, a class
    too small for the training set, or a split that would leave the
    validation or the test part empty is an error.
    """
    labels = np.asarray(labels)
    check_labels(labels, n_classes)
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

    visit = labeled[rng.permutation(labeled.size)]
    # each node's rank among the nodes of its class, in visit order
    by_class = np.argsort(labels[visit], kind="stable")
    rank = np.empty(visit.size, dtype=np.int64)
    rank[by_class] = np.arange(visit.size) - np.repeat(np.cumsum(counts) - counts, counts)
    chosen = rank < spec.train_per_class
    rest = visit[~chosen]
    if rest.size <= spec.val_total:
        raise InputError(
            f"only {rest.size} labeled nodes remain after training selection, "
            f"so val_total={spec.val_total} leaves the test part empty"
        )

    return Split(
        train_idx=np.sort(visit[chosen]),
        val_idx=np.sort(rest[: spec.val_total]),
        test_idx=np.sort(rest[spec.val_total:]),
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
    rows = np.arange(n)
    onehot = np.zeros((n, n_classes))
    onehot[rows, y] = 1.0

    # Vector dot products are written ``a.dot(b)``, the same BLAS call as
    # ``a @ b`` with less overhead, and a mean is a sum over the count, as
    # in np.mean: each float is the one the plain expressions give.
    def objective(theta):
        w, b = theta[:-n_classes].reshape(d, n_classes), theta[-n_classes:]
        logits = z @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits).sum(axis=1))
        g = (np.exp(logits - lse[:, None]) - onehot) / n
        value = (lse - logits[rows, y]).sum() / n + 0.5 * PROBE_L2 * (w * w).sum()
        return value, np.concatenate([(z.T @ g + PROBE_L2 * w).ravel(), g.sum(axis=0)])

    theta = np.zeros((d + 1) * n_classes)
    f, g = objective(theta)
    losses, pairs = [f], []
    converged = bool(np.abs(g).max() <= PROBE_TOLERANCE)
    while not converged and len(losses) <= PROBE_MAX_ITERATIONS:
        # two-loop recursion: direction = -H g from the stored (s, y, y.s)
        q, alphas = g.copy(), []
        for s, yv, ys in reversed(pairs):
            alphas.append(s.dot(q) / ys)
            q -= alphas[-1] * yv
        if pairs:
            q *= pairs[-1][0].dot(pairs[-1][1]) / pairs[-1][1].dot(pairs[-1][1])
        for (s, yv, ys), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - yv.dot(q) / ys) * s
        direction, slope = -q, -g.dot(q)
        if not slope < 0:
            direction, slope, pairs = -g, -g.dot(g), []
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            s = step * direction
            trial = theta + s
            f_new, g_new = objective(trial)
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break  # no descent step: stop with converged False
        yv = g_new - g
        if s.dot(yv) > 1e-12 * np.sqrt(s.dot(s) * yv.dot(yv)):
            pairs = (pairs + [(s, yv, yv.dot(s))])[-PROBE_HISTORY:]
        theta, f, g = trial, f_new, g_new
        losses.append(f)
        converged = bool(np.abs(g).max() <= PROBE_TOLERANCE)

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


def run_ablation(
    graph, base_config, train_seeds, spec: SplitSpec, embed_output: str = EMBED_ONLINE_LOCAL,
) -> dict[str, EvalReport]:
    """Train and probe once per (view mode, seed) pair; one report per view
    mode, each with one row per training seed.

    The seed drives initialization, sampling and the evaluation split, so
    the split draw is paired across view modes and their means compare on
    identical splits.  Every seed's split is drawn before any training, so
    a split the labels cannot fill fails at once.
    """
    if graph.labels is None:
        raise InputError("ablation needs a labeled graph")
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
    return reports
