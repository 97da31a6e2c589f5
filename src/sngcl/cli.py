"""Command line front end.

Subcommands cover the whole pipeline: ``gen-sbm`` and ``preprocess`` produce
canonical dataset directories, ``train`` fits a model and writes a run
directory (checkpoint, loss history, run record), ``eval``/``embed`` consume
checkpoints, and ``ablate`` compares view modes.  ``run_command`` is the
testable entry point; it returns the process exit code instead of calling
``sys.exit``.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    SbmConfig,
    export_embeddings,
    generate_sbm,
    load_canonical,
    load_planetoid,
    save_canonical,
)
from .errors import InputError, ParseError, SngclError
from .evaluation import SplitSpec, evaluate_embeddings, run_ablation
from .graph import RANDOM_WALK, SYMMETRIC, smooth_features
from .training import (
    EMBED_MODES,
    EMBED_ONLINE_LOCAL,
    HYPERPARAMETERS,
    _config_to_lines,
    config_from_values,
    encode,
    int_list,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history,
)

# File names inside a training run directory.
CHECKPOINT_NAME = "model.ckpt"
HISTORY_NAME = "history.tsv"
RECORD_NAME = "record.txt"


def read_config_file(path) -> dict[str, str]:
    """key=value lines; blank lines and ``#`` comments are skipped."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"{path}: config file not found")
    kv = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        kv[key.strip()] = value.strip()
    return kv


def _flag_given(argv, dest: str) -> bool:
    flag = "--" + dest.replace("_", "-")
    return any(a == flag or a.startswith(flag + "=") for a in argv)


def _apply_config_file(args, argv) -> None:
    """Fill hyperparameters from ``--config``; flags on the command line win."""
    if args.config is None:
        return
    table = {h.name: h for h in HYPERPARAMETERS}
    for key, raw in read_config_file(args.config).items():
        if key not in table:
            raise ParseError(f"{args.config}: unknown config key {key!r}")
        if _flag_given(argv, key):
            continue
        try:
            setattr(args, key, table[key].parse(raw))
        except ValueError as exc:
            raise ParseError(f"{args.config}: {key}: {exc}") from exc


def _split_spec(args) -> SplitSpec:
    if args.val_per_class is not None:
        return SplitSpec(args.train_per_class, val_per_class=args.val_per_class)
    val_total = args.val_total if args.val_total is not None else 500
    return SplitSpec(args.train_per_class, val_total=val_total)


@dataclass
class RunRecord:
    """A run's settings (key=value lines) plus named TSV sections."""

    metadata: dict
    sections: list  # (name, header, rows)

    def to_text(self) -> str:
        lines = [f"{k}={v}" for k, v in self.metadata.items()]
        for name, header, rows in self.sections:
            lines.append("")
            lines.append(f"[{name}]")
            lines.append(header)
            for row in rows:
                lines.append("\t".join(str(c) for c in row))
        return "\n".join(lines) + "\n"


def _emit(record: RunRecord, path) -> None:
    if path is None:
        sys.stdout.write(record.to_text())
    else:
        Path(path).write_text(record.to_text(), encoding="utf-8")


def cmd_gen_sbm(args, argv) -> int:
    config = SbmConfig(
        nodes_per_block=args.nodes_per_block,
        n_blocks=args.blocks,
        p_in=args.p_in,
        p_out=args.p_out,
        feature_dim=args.feature_dim,
        feature_shift=args.feature_shift,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    graph = generate_sbm(config)
    save_canonical(graph, args.out)
    print(
        f"wrote {graph.n_nodes} nodes / {graph.adjacency.nnz // 2} edges "
        f"/ {graph.n_classes} blocks to {args.out}"
    )
    return 0


def cmd_preprocess(args, argv) -> int:
    result = load_planetoid(args.content, args.cites, row_normalize=not args.raw_features)
    save_canonical(result.graph, args.out)
    g = result.graph
    print(
        f"{g.n_nodes} nodes, {g.n_features} features, {g.n_classes} classes, "
        f"{g.adjacency.nnz // 2} undirected edges -> {args.out}"
    )
    if result.n_dangling:
        print(f"skipped {result.n_dangling} citation line(s) naming unknown ids")
    if args.views_out is not None:
        out = Path(args.views_out)
        out.mkdir(parents=True, exist_ok=True)
        for name, mode in (("x_global.tsv", RANDOM_WALK), ("x_local.tsv", SYMMETRIC)):
            x = smooth_features(g, args.t, mode)
            np.savetxt(out / name, x, fmt="%.17g", delimiter="\t")
        print(f"smoothed views (t={args.t}) -> {out}")
    return 0


def cmd_train(args, argv) -> int:
    _apply_config_file(args, argv)
    t0 = time.perf_counter()
    graph = load_canonical(args.data)
    t_load = time.perf_counter()
    model = train(graph, config_from_values(vars(args)))
    t_train = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / CHECKPOINT_NAME)
    write_history(out / HISTORY_NAME, model.history)
    t_save = time.perf_counter()

    metadata = {"command": "train", "data": args.data, "out": str(out)}
    for line in _config_to_lines(model.config, model.model.optimizer).splitlines():
        key, _, value = line.partition("=")
        metadata[key] = value
    metadata["load_s"] = f"{t_load - t0:.3f}"
    metadata["train_s"] = f"{t_train - t_load:.3f}"
    metadata["save_s"] = f"{t_save - t_train:.3f}"
    metadata["total_s"] = f"{t_save - t0:.3f}"
    _emit(RunRecord(metadata=metadata, sections=[]), out / RECORD_NAME)

    last = model.history[-1]
    print(f"trained {int(last[0])} epochs, final loss {last[1]:.6g} -> {out / CHECKPOINT_NAME}")
    return 0


def cmd_eval(args, argv) -> int:
    t0 = time.perf_counter()
    graph = load_canonical(args.data)
    if graph.labels is None:
        raise InputError(f"{args.data}: dataset has no labels to evaluate against")
    model = load_checkpoint(args.checkpoint)
    t_load = time.perf_counter()
    emb = encode(model, graph, args.embedding)
    t_encode = time.perf_counter()
    seeds = args.seeds if args.seeds is not None else list(range(args.splits))
    spec = _split_spec(args)
    report = evaluate_embeddings(emb, graph.labels, graph.n_classes, spec, seeds)
    t_probe = time.perf_counter()
    if report.degenerate:
        print("warning: embeddings have zero variance in every column", file=sys.stderr)

    metadata = {
        "command": "eval",
        "data": args.data,
        "checkpoint": args.checkpoint,
        "embedding": args.embedding,
        "train_per_class": spec.train_per_class,
        "seeds": ",".join(str(s) for s in seeds),
        "degenerate": int(report.degenerate),
    }
    if spec.val_total is not None:
        metadata["val_total"] = spec.val_total
    else:
        metadata["val_per_class"] = spec.val_per_class
    metadata["load_s"] = f"{t_load - t0:.3f}"
    metadata["encode_s"] = f"{t_encode - t_load:.3f}"
    metadata["probe_s"] = f"{t_probe - t_encode:.3f}"
    metadata["total_s"] = f"{t_probe - t0:.3f}"
    record = RunRecord(
        metadata=metadata,
        sections=[
            (
                "results",
                "seed\tacc_val\tacc_test",
                [(r.seed, f"{r.acc_val:.17g}", f"{r.acc_test:.17g}") for r in report.rows],
            ),
            (
                "summary",
                "metric\tvalue",
                [
                    ("mean_val", f"{report.mean_val:.17g}"),
                    ("std_val", f"{report.std_val:.17g}"),
                    ("mean_test", f"{report.mean_test:.17g}"),
                    ("std_test", f"{report.std_test:.17g}"),
                ],
            ),
        ],
    )
    _emit(record, args.out)
    if args.out is not None:
        print(
            f"test accuracy {report.mean_test:.4f} +/- {report.std_test:.4f} "
            f"over {len(seeds)} split(s) -> {args.out}"
        )
    return 0


def cmd_embed(args, argv) -> int:
    graph = load_canonical(args.data)
    model = load_checkpoint(args.checkpoint)
    emb = encode(model, graph, args.embedding)
    ids = list(range(graph.n_nodes)) if args.with_index else None
    export_embeddings(args.out, emb, node_ids=ids)
    print(f"wrote {emb.shape[0]}x{emb.shape[1]} embeddings to {args.out}")
    return 0


def cmd_ablate(args, argv) -> int:
    _apply_config_file(args, argv)
    t0 = time.perf_counter()
    graph = load_canonical(args.data)
    spec = _split_spec(args)
    report = run_ablation(
        graph,
        config_from_values(vars(args)),
        args.train_seeds,
        spec,
        embed_output=args.embedding,
    )
    record = RunRecord(
        metadata={
            "command": "ablate",
            "data": args.data,
            "train_seeds": ",".join(str(s) for s in args.train_seeds),
            "train_per_class": spec.train_per_class,
            "epochs": args.epochs,
            "t": args.t,
            "total_s": f"{time.perf_counter() - t0:.3f}",
        },
        sections=[
            (
                "results",
                "view_mode\tseed\tacc_val\tacc_test",
                [
                    (r.view_mode, r.seed, f"{r.acc_val:.17g}", f"{r.acc_test:.17g}")
                    for r in report.rows
                ],
            ),
            (
                "summary",
                "view_mode\tmean_val\tmean_test\tstd_test",
                [
                    (s.view_mode, f"{s.mean_val:.17g}", f"{s.mean_test:.17g}", f"{s.std_test:.17g}")
                    for s in report.summaries
                ],
            ),
        ],
    )
    _emit(record, args.out)
    if args.out is not None:
        for s in report.summaries:
            print(f"{s.view_mode}: test accuracy {s.mean_test:.4f} +/- {s.std_test:.4f}")
        print(f"ablation report -> {args.out}")
    return 0


def _hyper_parser() -> argparse.ArgumentParser:
    """One flag per row of the hyperparameter table, plus ``--config``."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("model hyperparameters")
    for h in HYPERPARAMETERS:
        flag = "--" + h.name.replace("_", "-")
        if h.kind is bool:
            g.add_argument(flag, action="store_true", default=h.default, help=h.help)
        else:
            g.add_argument(
                flag, type=h.parse, default=h.default, choices=h.choices,
                metavar=h.metavar, help=h.help,
            )
    g.add_argument(
        "--config", type=Path, default=None, metavar="PATH",
        help="key=value file supplying hyperparameter defaults; flags win",
    )
    return p


def _add_split_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("evaluation split")
    g.add_argument("--train-per-class", type=int, default=20, help="training nodes per class")
    g.add_argument(
        "--val-total", type=int, default=None,
        help="validation nodes overall (default 500 unless --val-per-class is set)",
    )
    g.add_argument(
        "--val-per-class", type=int, default=None,
        help="validation nodes per class instead of a flat total",
    )


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="sngcl",
        description="Self-supervised node embeddings from smoothed graph views.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    hyper = _hyper_parser()

    p = sub.add_parser(
        "gen-sbm", formatter_class=fmt,
        help="sample a block-model graph and write it in canonical form",
    )
    p.add_argument("--nodes-per-block", type=int, default=100)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--p-in", type=float, default=0.1, help="within-block edge probability")
    p.add_argument("--p-out", type=float, default=0.01, help="between-block edge probability")
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--feature-shift", type=float, default=1.0, help="block mean offset")
    p.add_argument("--noise-std", type=float, default=1.0, help="feature noise scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="DIR", help="output dataset directory")
    p.set_defaults(func=cmd_gen_sbm)

    p = sub.add_parser(
        "preprocess", formatter_class=fmt,
        help="parse a citation network into a canonical dataset directory",
    )
    p.add_argument("--content", required=True, metavar="PATH", help=".content file")
    p.add_argument("--cites", required=True, metavar="PATH", help=".cites file")
    p.add_argument(
        "--raw-features", action="store_true",
        help="keep raw feature rows instead of normalizing each to sum 1",
    )
    p.add_argument("--out", required=True, metavar="DIR", help="output dataset directory")
    p.add_argument(
        "--views-out", default=None, metavar="DIR",
        help="also write the two smoothed feature matrices as TSV here",
    )
    p.add_argument("--t", type=int, default=3, help="smoothing depth for --views-out")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser(
        "train", parents=[hyper], formatter_class=fmt,
        help="train on a canonical dataset and write a run directory",
    )
    p.add_argument("--data", required=True, metavar="DIR", help="canonical dataset directory")
    p.add_argument(
        "--out", required=True, metavar="DIR",
        help=f"run directory for {CHECKPOINT_NAME}, {HISTORY_NAME} and {RECORD_NAME}",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "eval", formatter_class=fmt,
        help="probe a checkpoint's embeddings over stratified splits",
    )
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument(
        "--embedding", choices=EMBED_MODES, default=EMBED_ONLINE_LOCAL,
        help="which embedding matrix to evaluate",
    )
    _add_split_args(p)
    p.add_argument(
        "--splits", type=int, default=10,
        help="evaluate over split seeds 0..N-1",
    )
    p.add_argument(
        "--seeds", type=int_list, default=None, metavar="S0,S1,...",
        help="explicit split seeds (overrides --splits)",
    )
    p.add_argument("--out", default=None, metavar="PATH", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "embed", formatter_class=fmt,
        help="export a checkpoint's embeddings as TSV",
    )
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--embedding", choices=EMBED_MODES, default=EMBED_ONLINE_LOCAL)
    p.add_argument("--with-index", action="store_true", help="prefix each row with its node index")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser(
        "ablate", parents=[hyper], formatter_class=fmt,
        help="compare view modes: train and probe each over several seeds",
    )
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument(
        "--train-seeds", type=int_list, default=[0, 1, 2], metavar="S0,S1,...",
        help="one training run per seed per view mode",
    )
    _add_split_args(p)
    p.add_argument("--embedding", choices=EMBED_MODES, default=EMBED_ONLINE_LOCAL)
    p.add_argument("--out", default=None, metavar="PATH", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_ablate)

    return parser


def run_command(argv) -> int:
    """Parse and run one command; returns the exit code.

    Usage problems exit 2 (argparse convention), runtime failures print a
    one-line diagnostic and exit 1.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args, list(argv))
    except SngclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run_command(sys.argv[1:]))
