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
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .data import (
    SbmConfig,
    export_embeddings,
    generate_sbm,
    load_canonical,
    load_planetoid,
    read_key_values,
    save_canonical,
)
from .errors import InputError, ParseError, SngclError
from .evaluation import EvalReport, SplitSpec, evaluate_embeddings, run_ablation
from .graph import smooth_features
from .training import (
    EMBED_MODES,
    EMBED_ONLINE_LOCAL,
    HYPERPARAMETERS,
    VIEW_BOTH,
    VIEW_FILTERS,
    TrainConfig,
    _config_to_lines,
    _replacing,
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


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _train_config(args) -> TrainConfig:
    """The table defaults, overlaid by the ``--config`` file, overlaid by the
    flags given (absent flags set no attribute).  The file may set only the
    command's own hyperparameters, ``args.hyperparameters``."""
    values = {}
    if args.config is not None:
        table = {h.name: h for h in args.hyperparameters}
        for key, raw in read_key_values(args.config).items():
            if key not in table:
                raise ParseError(f"{args.config}: unknown config key {key!r}")
            try:
                values[key] = table[key].parse(raw)
            except ValueError as exc:
                raise ParseError(f"{args.config}: {key}: {exc}") from exc
    values.update(vars(args))
    return config_from_values(values)


def _emit(metadata: list[str], sections: list, path) -> None:
    """Write a run record: the ``key=value`` lines of ``metadata``, then each
    ``(name, header, rows)`` section as TSV, to ``path`` or else stdout."""
    lines = list(metadata)
    for name, header, rows in sections:
        lines += ["", f"[{name}]", header]
        lines += ["\t".join(str(c) for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with _replacing(path) as f:
            f.write(text.encode("utf-8"))


def _warn(report: EvalReport, prefix: str = "") -> None:
    """Print the report's degenerate and unconverged warnings to stderr."""
    if report.degenerate:
        print(f"warning: {prefix}embeddings have zero variance in every column", file=sys.stderr)
    if report.probe_unconverged:
        print(
            f"warning: {prefix}probe did not converge on {report.probe_unconverged} "
            f"of {len(report.rows)} splits",
            file=sys.stderr,
        )


def cmd_gen_sbm(args) -> int:
    graph = generate_sbm(config_from_values(vars(args), SbmConfig))
    save_canonical(graph, args.out)
    print(
        f"wrote {graph.n_nodes} nodes / {graph.adjacency.nnz // 2} edges "
        f"/ {graph.n_classes} blocks to {args.out}"
    )
    return 0


def cmd_preprocess(args) -> int:
    result = load_planetoid(args.content, args.cites, row_normalize=not args.raw_features)
    g = result.graph
    # both views are smoothed before anything is written, so a bad --t writes nothing
    if args.views_out is not None:
        views = [smooth_features(g, args.t, mode) for mode in VIEW_FILTERS[VIEW_BOTH]]
    save_canonical(g, args.out)
    print(
        f"{g.n_nodes} nodes, {g.n_features} features, {g.n_classes} classes, "
        f"{g.adjacency.nnz // 2} undirected edges -> {args.out}"
    )
    if result.n_dangling:
        print(f"skipped {result.n_dangling} citation line(s) naming unknown ids")
    if args.views_out is not None:
        out = Path(args.views_out)
        out.mkdir(parents=True, exist_ok=True)
        for name, x in zip(("x_local.tsv", "x_global.tsv"), views):
            export_embeddings(out / name, x)
        print(f"smoothed views (t={args.t}) -> {out}")
    return 0


def cmd_train(args) -> int:
    config = _train_config(args)
    t0 = time.perf_counter()
    graph = load_canonical(args.data)
    t_load = time.perf_counter()
    model = train(graph, config)
    t_train = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / CHECKPOINT_NAME)
    write_history(out / HISTORY_NAME, model.history)
    t_save = time.perf_counter()

    metadata = [
        "command=train",
        f"data={args.data}",
        f"out={out}",
        *_config_to_lines(model.config).splitlines(),
        f"load_s={t_load - t0:.3f}",
        f"train_s={t_train - t_load:.3f}",
        f"save_s={t_save - t_train:.3f}",
        f"total_s={t_save - t0:.3f}",
    ]
    _emit(metadata, [], out / RECORD_NAME)

    last = model.history[-1]
    print(f"trained {int(last[0])} epochs, final loss {last[1]:.6g} -> {out / CHECKPOINT_NAME}")
    return 0


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    graph = load_canonical(args.data)
    if graph.labels is None:
        raise InputError(f"{args.data}: dataset has no labels to evaluate against")
    model = load_checkpoint(args.checkpoint)
    t_load = time.perf_counter()
    emb = encode(model, graph, args.embedding)
    t_encode = time.perf_counter()
    seeds = range(args.splits)
    spec = SplitSpec(args.train_per_class, args.val_total)
    report = evaluate_embeddings(emb, graph.labels, graph.n_classes, spec, seeds)
    t_probe = time.perf_counter()
    _warn(report)

    metadata = [
        "command=eval",
        f"data={args.data}",
        f"checkpoint={args.checkpoint}",
        f"embedding={args.embedding}",
        f"train_per_class={spec.train_per_class}",
        "seeds=" + ",".join(str(s) for s in seeds),
        f"degenerate={int(report.degenerate)}",
        f"probe_iterations={report.probe_iterations}",
        f"probe_unconverged={report.probe_unconverged}",
        f"val_total={spec.val_total}",
        f"load_s={t_load - t0:.3f}",
        f"encode_s={t_encode - t_load:.3f}",
        f"probe_s={t_probe - t_encode:.3f}",
        f"total_s={t_probe - t0:.3f}",
    ]
    sections = [
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
    ]
    _emit(metadata, sections, args.out)
    if args.out is not None:
        print(
            f"test accuracy {report.mean_test:.4f} +/- {report.std_test:.4f} "
            f"over {len(seeds)} split(s) -> {args.out}"
        )
    return 0


def cmd_embed(args) -> int:
    graph = load_canonical(args.data)
    model = load_checkpoint(args.checkpoint)
    emb = encode(model, graph, args.embedding)
    ids = list(range(graph.n_nodes)) if args.with_index else None
    export_embeddings(args.out, emb, node_ids=ids)
    print(f"wrote {emb.shape[0]}x{emb.shape[1]} embeddings to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    config = _train_config(args)
    t0 = time.perf_counter()
    graph = load_canonical(args.data)
    spec = SplitSpec(args.train_per_class, args.val_total)
    reports = run_ablation(graph, config, args.train_seeds, spec, embed_output=args.embedding)
    for mode, r in reports.items():
        _warn(r, f"{mode}: ")
    metadata = [
        "command=ablate",
        f"data={args.data}",
        "train_seeds=" + ",".join(str(s) for s in args.train_seeds),
        *_config_to_lines(config.resolved(graph.n_features), args.hyperparameters).splitlines(),
        f"train_per_class={spec.train_per_class}",
        f"val_total={spec.val_total}",
        f"embedding={args.embedding}",
        f"total_s={time.perf_counter() - t0:.3f}",
    ]
    sections = [
        (
            "results",
            "view_mode\tseed\tacc_val\tacc_test",
            [
                (mode, row.seed, f"{row.acc_val:.17g}", f"{row.acc_test:.17g}")
                for mode, r in reports.items()
                for row in r.rows
            ],
        ),
        (
            "summary",
            "view_mode\tmean_val\tmean_test\tstd_test",
            [
                (mode, f"{r.mean_val:.17g}", f"{r.mean_test:.17g}", f"{r.std_test:.17g}")
                for mode, r in reports.items()
            ],
        ),
    ]
    _emit(metadata, sections, args.out)
    if args.out is not None:
        for mode, r in reports.items():
            print(f"{mode}: test accuracy {r.mean_test:.4f} +/- {r.std_test:.4f}")
        print(f"ablation report -> {args.out}")
    return 0


def _hyper_parser(rows) -> argparse.ArgumentParser:
    """One flag per given row of the hyperparameter table, plus ``--config``;
    the rows become the default of ``args.hyperparameters``."""
    p = argparse.ArgumentParser(add_help=False)
    p.set_defaults(hyperparameters=rows)
    g = p.add_argument_group("model hyperparameters")
    for h in rows:
        # only a flag given sets its attribute, so it wins over --config
        g.add_argument(
            _flag(h.name), type=h.parse, default=argparse.SUPPRESS, choices=h.choices,
            metavar=h.metavar, help=f"{h.help} (default: {h.default})",
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
        "--val-total", type=int, default=SplitSpec.val_total, help="validation nodes overall",
    )


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="sngcl",
        description="Self-supervised node embeddings from smoothed graph views.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "gen-sbm", formatter_class=fmt,
        help="sample a block-model graph and write it in canonical form",
    )
    hints = get_type_hints(SbmConfig)
    for f in fields(SbmConfig):
        name = f.metadata.get("flag", f.name)
        p.add_argument(
            _flag(name), dest=f.name, type=hints[f.name], default=f.default,
            metavar=name.upper(), help=f.metadata["help"],
        )
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
    p.add_argument("--t", type=int, default=TrainConfig.t, help="smoothing depth for --views-out")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser(
        "train", parents=[_hyper_parser(HYPERPARAMETERS)], formatter_class=fmt,
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

    # ablate trains every view mode on every --train-seeds seed
    ablated = [h for h in HYPERPARAMETERS if h.name not in ("seed", "view_mode")]
    p = sub.add_parser(
        "ablate", parents=[_hyper_parser(ablated)], formatter_class=fmt,
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
        return args.func(args)
    except SngclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
