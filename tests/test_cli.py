"""Exercise the command line surface through run_command."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import rewrite_checkpoint_metadata

import sngcl
from sngcl.cli import run_command
from sngcl.data import load_canonical, read_key_values
from sngcl.errors import ParseError
from sngcl.graph import RANDOM_WALK, SYMMETRIC, smooth_features
from sngcl.training import (
    HYPERPARAMETERS,
    TrainConfig,
    config_values,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture()
def sbm_dir(tmp_path):
    out = tmp_path / "sbm"
    code = run_command([
        "gen-sbm", "--nodes-per-block", "20", "--blocks", "2",
        "--p-in", "0.3", "--p-out", "0.02", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    return out


TRAIN_FAST = [
    "--epochs", "3",
    "--encoder-dims", "16,8,4",
    "--predictor-dims", "4,6,4",
]


def _sngcl(*argv, cwd) -> subprocess.CompletedProcess:
    """Run the ``sngcl`` script's entry point in a fresh interpreter, so
    stderr holds everything the process prints, tracebacks and log lines
    included."""
    return subprocess.run(
        [sys.executable, "-c", "from sngcl.cli import main; main()", *map(str, argv)],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(Path(sngcl.__file__).parents[1])},
    )


def test_gen_sbm_writes_a_loadable_dataset(sbm_dir, capsys):
    assert (sbm_dir / "manifest.txt").is_file()
    assert (sbm_dir / "edges.tsv").is_file()
    from sngcl.data import load_canonical

    g = load_canonical(sbm_dir)
    assert g.n_nodes == 40 and g.n_classes == 2


def test_gen_sbm_defaults_are_the_sbm_config_defaults(tmp_path, capsys):
    from dataclasses import fields

    from sngcl.data import SbmConfig, generate_sbm, load_canonical

    assert run_command(["gen-sbm", "--out", str(tmp_path / "d")]) == 0
    got, want = load_canonical(tmp_path / "d"), generate_sbm(SbmConfig())
    assert (got.adjacency != want.adjacency).nnz == 0
    np.testing.assert_array_equal(got.features, want.features)
    np.testing.assert_array_equal(got.labels, want.labels)

    capsys.readouterr()
    assert run_command(["gen-sbm", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    for f in fields(SbmConfig):
        flag = "--" + f.metadata.get("flag", f.name).replace("_", "-")
        assert f"{flag} " in out
        assert f"{f.metadata['help']} (default: {f.default})" in out


def test_full_pipeline_train_eval_embed(sbm_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_command([
        "train", "--data", str(sbm_dir), *TRAIN_FAST, "--out", str(run_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "trained 3 epochs" in out
    ckpt = run_dir / "model.ckpt"
    assert ckpt.is_file()
    hist = run_dir / "history.tsv"
    assert len(hist.read_text().splitlines()) == 4  # header + 3 epochs
    record = (run_dir / "record.txt").read_text()
    assert "command=train" in record
    assert "epochs=3" in record  # resolved config is in the record
    assert "encoder_dims=16,8,4" in record
    assert "train_s=" in record and "total_s=" in record

    report = tmp_path / "report.txt"
    assert run_command([
        "eval", "--data", str(sbm_dir), "--checkpoint", str(ckpt),
        "--train-per-class", "5", "--val-total", "10", "--splits", "2",
        "--out", str(report),
    ]) == 0
    text = report.read_text()
    assert "command=eval" in text
    assert "[results]" in text and "[summary]" in text
    assert "mean_test" in text

    emb_path = tmp_path / "emb.tsv"
    assert run_command([
        "embed", "--data", str(sbm_dir), "--checkpoint", str(ckpt),
        "--out", str(emb_path), "--with-index",
    ]) == 0
    rows = emb_path.read_text().splitlines()
    assert len(rows) == 40
    assert rows[0].split("\t")[0] == "0"
    assert len(rows[0].split("\t")) == 5  # index + 4 embedding dims


def test_eval_report_goes_to_stdout_without_out_flag(sbm_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_command(["train", "--data", str(sbm_dir), *TRAIN_FAST, "--out", str(run_dir)])
    capsys.readouterr()
    assert run_command([
        "eval", "--data", str(sbm_dir), "--checkpoint", str(run_dir / "model.ckpt"),
        "--train-per-class", "5", "--val-total", "10", "--splits", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command=eval")
    assert "seeds=0,1" in out  # --splits N expands to seeds 0..N-1
    assert "[summary]" in out


def test_usage_errors_exit_2(capsys):
    assert run_command([]) == 2
    assert run_command(["no-such-command"]) == 2
    assert run_command(["train"]) == 2  # missing --data/--out
    assert run_command(["gen-sbm", "--out", "x", "--p-in", "lots"]) == 2
    # an empty integer list is no list
    assert run_command(["train", "--data", "d", "--out", "o", "--encoder-dims", ""]) == 2
    assert run_command(["train", "--data", "d", "--out", "o", "--predictor-dims", ","]) == 2
    assert run_command(["ablate", "--data", "d", "--train-seeds", ""]) == 2


def test_help_exits_0_and_shows_defaults(capsys):
    assert run_command(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--momentum" in out
    assert "0.8" in out  # ArgumentDefaultsHelpFormatter shows the default
    assert "--config" in out


# ablate trains each view mode on each --train-seeds seed, so it takes neither
ABLATE_SETS = ("seed", "view_mode")


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_help_shows_every_hyperparameter_with_its_dataclass_default(command, capsys):
    assert run_command([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for h in HYPERPARAMETERS:
        if command == "ablate" and h.name in ABLATE_SETS:
            continue
        assert "--" + h.name.replace("_", "-") in out
        assert f"{h.help} (default: {h.default})" in out


# A valid value other than the default for every hyperparameter, as --config
# text.  A new row in the table fails the test below until it gets one here.
NON_DEFAULT = {
    "t": "2",
    "epochs": "2",
    "lr": "0.002",
    "momentum": "0.75",
    "seed": "3",
    "view_mode": "global-only",
    "encoder_dims": "16,8,4",
    "predictor_dims": "4,6,4",
    "alpha": "0.9",
    "beta": "0.5",
    "k": "3",
    "n_neighbors": "2",
    "omega1": "0.5",
    "omega2": "2.0",
}


@pytest.mark.parametrize("source", ["flags", "config"])
def test_every_hyperparameter_reaches_the_record_and_the_checkpoint(
    source, sbm_dir, tmp_path
):
    assert set(NON_DEFAULT) == {h.name for h in HYPERPARAMETERS}
    if source == "flags":
        args = []
        for h in HYPERPARAMETERS:
            args += ["--" + h.name.replace("_", "-"), NON_DEFAULT[h.name]]
    else:
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in NON_DEFAULT.items()))
        args = ["--config", str(cfg)]
    run_dir = tmp_path / "run"
    assert run_command(["train", "--data", str(sbm_dir), *args, "--out", str(run_dir)]) == 0

    record = (run_dir / "record.txt").read_text().splitlines()
    values = config_values(load_checkpoint(run_dir / "model.ckpt").config)
    for h in HYPERPARAMETERS:
        assert f"{h.name}={NON_DEFAULT[h.name]}" in record
        assert values[h.name] == h.parse(NON_DEFAULT[h.name])
        assert values[h.name] != h.default


@pytest.mark.parametrize("source", ["flags", "config"])
def test_every_ablate_hyperparameter_reaches_the_ablate_record(source, sbm_dir, tmp_path):
    given = {k: v for k, v in NON_DEFAULT.items() if k not in ABLATE_SETS}
    if source == "flags":
        args = [a for k, v in given.items() for a in ("--" + k.replace("_", "-"), v)]
    else:
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in given.items()))
        args = ["--config", str(cfg)]
    out = tmp_path / "ablation.txt"
    assert run_command([
        "ablate", "--data", str(sbm_dir), *args, "--train-seeds", "0,2",
        "--train-per-class", "5", "--val-total", "10", "--embedding", "concat-both",
        "--out", str(out),
    ]) == 0
    record = out.read_text().split("[results]")[0].splitlines()
    for k, v in given.items():
        assert f"{k}={v}" in record
    for line in ("train_seeds=0,2", "train_per_class=5", "val_total=10", "embedding=concat-both"):
        assert line in record
    assert not [line for line in record if line.startswith(("seed=", "view_mode="))]


def test_ablate_rejects_the_seed_and_view_mode_it_sets_itself(sbm_dir, tmp_path, capsys):
    ablate = ["ablate", "--data", str(sbm_dir), "--out", str(tmp_path / "a.txt")]
    assert run_command([*ablate, "--seed", "7"]) == 2
    assert run_command([*ablate, "--view-mode", "local-only"]) == 2
    for key, value in (("seed", "7"), ("view_mode", "local-only")):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}={value}\n")
        capsys.readouterr()
        assert run_command([*ablate, "--config", str(cfg)]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "a.txt").exists()


@pytest.mark.parametrize("flag", ["--alpha", "--beta", "--omega1", "--omega2", "--lr"])
def test_non_finite_or_negative_weights_exit_1_naming_the_field(flag, sbm_dir, tmp_path, capsys):
    for value in ("nan", "inf", "-1"):
        assert run_command([
            "train", "--data", str(sbm_dir), *TRAIN_FAST, f"{flag}={value}",
            "--out", str(tmp_path / "m"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag[2:]} must be finite and >= 0" in err
    assert not (tmp_path / "m").exists()


def test_runtime_errors_exit_1_with_diagnostic(tmp_path, capsys):
    assert run_command([
        "train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "m"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")

    # a NaN feature fails at load time instead of training to loss 0.0
    nan_dir = tmp_path / "nan"
    run_command(["gen-sbm", "--nodes-per-block", "5", "--out", str(nan_dir)])
    rows = (nan_dir / "features.tsv").read_text().splitlines()
    rows[2] = "\t".join(["nan"] + rows[2].split("\t")[1:])
    (nan_dir / "features.tsv").write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert run_command([
        "train", "--data", str(nan_dir), "--epochs", "2", "--out", str(tmp_path / "n"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite feature" in err

    # corrupt checkpoint -> dataset loads, checkpoint read fails
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"JUNKJUNKJUNK")
    sbm = tmp_path / "d"
    run_command(["gen-sbm", "--nodes-per-block", "5", "--out", str(sbm)])
    assert run_command([
        "embed", "--data", str(sbm), "--checkpoint", str(bogus), "--out", str(tmp_path / "e"),
    ]) == 1
    assert "error:" in capsys.readouterr().err


def test_checkpoint_with_a_transposed_weight_exits_1(sbm_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_command(["train", "--data", str(sbm_dir), *TRAIN_FAST, "--out", str(run_dir)]) == 0
    model = load_checkpoint(run_dir / "model.ckpt")
    online = model.model.online_encoder
    online.weights[1] = online.weights[1].T.copy()  # (8, 4) stored as (4, 8)
    save_checkpoint(model, run_dir / "model.ckpt")
    capsys.readouterr()
    assert run_command([
        "eval", "--data", str(sbm_dir), "--checkpoint", str(run_dir / "model.ckpt"),
        "--train-per-class", "5", "--val-total", "5", "--splits", "1",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'online_encoder/w1' has shape (4, 8)" in err


@pytest.mark.parametrize("width", [b"-5", b"0"])
def test_checkpoint_with_a_width_below_one_exits_1(sbm_dir, tmp_path, capsys, width):
    run_dir = tmp_path / "run"
    assert run_command(["train", "--data", str(sbm_dir), *TRAIN_FAST, "--out", str(run_dir)]) == 0
    ckpt = run_dir / "model.ckpt"
    rewrite_checkpoint_metadata(ckpt, b"encoder_dims=16,8,4", b"encoder_dims=16," + width + b",4")
    capsys.readouterr()
    assert run_command([
        "eval", "--data", str(sbm_dir), "--checkpoint", str(ckpt),
        "--train-per-class", "5", "--val-total", "5", "--splits", "1",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "encoder_dims must be >= 2 positive layer widths" in err


@pytest.mark.parametrize("old, new", [
    (b"epochs=1\n", b"epochs=100000000000000\n"),
    (b"encoder_dims=16,512,256\n", b"encoder_dims=16,5120000000,256\n"),
])
def test_checkpoint_implying_more_bytes_than_it_holds_exits_1(
    sbm_dir, tmp_path, capsys, old, new
):
    run_dir = tmp_path / "run"
    assert run_command(["train", "--data", str(sbm_dir), "--epochs", "1", "--out", str(run_dir)]) == 0
    rewrite_checkpoint_metadata(run_dir / "model.ckpt", old, new)
    capsys.readouterr()
    assert run_command([
        "eval", "--data", str(sbm_dir), "--checkpoint", str(run_dir / "model.ckpt"),
        "--train-per-class", "5", "--val-total", "5", "--splits", "1",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: truncated checkpoint: the metadata implies")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen-sbm", "--seed", "-1", "--out", "neg"],
    ["train", "--data", "{data}", "--seed", "-1", "--epochs", "1", "--out", "neg"],
    ["train", "--data", "{data}", "--config", "{config}", "--out", "neg"],
    ["ablate", "--data", "{data}", "--train-seeds", "-1", "--epochs", "1",
     "--train-per-class", "5", "--val-total", "5"],
], ids=["gen-sbm", "train", "train-config", "ablate"])
def test_a_negative_seed_exits_1_without_a_traceback(sbm_dir, tmp_path, argv):
    config = tmp_path / "neg.cfg"
    config.write_text("seed=-1\nepochs=1\n")
    out = _sngcl(*(a.format(data=sbm_dir, config=config) for a in argv), cwd=tmp_path)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize("command", ["eval", "embed"])
def test_checkpoint_with_a_negative_seed_exits_1(sbm_dir, tmp_path, capsys, command):
    # no train run writes seed=-1, so a checkpoint holding it is corrupt
    run_dir = tmp_path / "run"
    assert run_command(["train", "--data", str(sbm_dir), *TRAIN_FAST, "--out", str(run_dir)]) == 0
    ckpt = run_dir / "model.ckpt"
    rewrite_checkpoint_metadata(ckpt, b"\nseed=0\n", b"\nseed=-1\n")
    capsys.readouterr()
    extra = {
        "eval": ["--train-per-class", "5", "--val-total", "5", "--splits", "1"],
        "embed": ["--out", str(tmp_path / "emb.tsv")],
    }[command]
    assert run_command([command, "--data", str(sbm_dir), "--checkpoint", str(ckpt), *extra]) == 1
    assert capsys.readouterr().err == "error: malformed metadata: seed must be >= 0, got -1\n"
    assert not (tmp_path / "emb.tsv").exists()


@pytest.mark.parametrize("manifest, labels, message", [
    ("n_nodes=2\nn_features=-1\nn_classes=0\nn_edges=0\n", "-1\n-1\n", "n_features=-1 is negative"),
    ("n_nodes=0\nn_features=2\nn_classes=0\nn_edges=0\n", "", "graph has no nodes"),
], ids=["negative-feature-count", "no-nodes"])
def test_a_dataset_with_an_empty_dimension_exits_1_without_a_traceback(
    tmp_path, manifest, labels, message
):
    # features.tsv is empty in both: before, the first raised numpy's
    # reshape ValueError and the second loaded and divided by zero in the loss
    data = tmp_path / "ds"
    data.mkdir()
    (data / "manifest.txt").write_text(manifest)
    (data / "labels.tsv").write_text(labels)
    for name in ("edges.tsv", "features.tsv"):
        (data / name).write_text("")
    out = _sngcl("train", "--data", data, "--epochs", "1", "--out", "run", cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert message in out.stderr
    assert not (tmp_path / "run").exists()


def test_checkpoint_with_a_nan_weight_exits_1(sbm_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_command(["train", "--data", str(sbm_dir), *TRAIN_FAST, "--out", str(run_dir)]) == 0
    model = load_checkpoint(run_dir / "model.ckpt")
    model.model.online_encoder.weights[0][3, 7] = np.nan
    save_checkpoint(model, run_dir / "model.ckpt")
    capsys.readouterr()
    assert run_command([
        "eval", "--data", str(sbm_dir), "--checkpoint", str(run_dir / "model.ckpt"),
        "--train-per-class", "5", "--val-total", "5", "--splits", "1",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'online_encoder/w0' holds NaN" in err


def test_eval_warns_when_a_probe_does_not_converge(sbm_dir, tmp_path, capsys, monkeypatch):
    from sngcl import evaluation

    run_dir = tmp_path / "run"
    assert run_command(["train", "--data", str(sbm_dir), *TRAIN_FAST, "--out", str(run_dir)]) == 0
    evaluate = [
        "eval", "--data", str(sbm_dir), "--checkpoint", str(run_dir / "model.ckpt"),
        "--train-per-class", "5", "--val-total", "10", "--splits", "3",
        "--out", str(tmp_path / "report.txt"),
    ]
    capsys.readouterr()
    assert run_command(evaluate) == 0
    assert "warning:" not in capsys.readouterr().err
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "probe_unconverged=0" in lines
    assert int(next(l for l in lines if l.startswith("probe_iterations="))[17:]) > 1

    monkeypatch.setattr(evaluation, "PROBE_MAX_ITERATIONS", 1)
    assert run_command(evaluate) == 0
    assert "warning: probe did not converge on 3 of 3 splits" in capsys.readouterr().err
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "probe_iterations=1" in lines and "probe_unconverged=3" in lines


def test_config_file_supplies_defaults_but_flags_win(sbm_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small run\n"
        "epochs=4\n"
        "lr=0.002\n"
        "encoder_dims=16,8,4\n"
        "predictor_dims=4,6,4\n"
    )
    assert run_command([
        "train", "--data", str(sbm_dir), "--config", str(cfg),
        "--out", str(tmp_path / "m1"),
    ]) == 0
    hist = tmp_path / "m1" / "history.tsv"
    assert len(hist.read_text().splitlines()) == 1 + 4  # epochs from the file

    assert run_command([
        "train", "--data", str(sbm_dir), "--config", str(cfg), "--epochs", "2",
        "--out", str(tmp_path / "m2"),
    ]) == 0
    hist2 = tmp_path / "m2" / "history.tsv"
    assert len(hist2.read_text().splitlines()) == 1 + 2  # flag beats the file


@pytest.mark.parametrize("flag", [["--epoch", "2"], ["--epoch=2"], ["--ep", "2"]])
def test_abbreviated_flag_beats_the_config_file(flag, sbm_dir, tmp_path):
    # argparse accepts an unambiguous prefix of a flag; it counts as given.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=4\nencoder_dims=16,8,4\npredictor_dims=4,6,4\n")
    assert run_command([
        "train", "--data", str(sbm_dir), "--config", str(cfg), *flag,
        "--out", str(tmp_path / "m"),
    ]) == 0
    assert len((tmp_path / "m" / "history.tsv").read_text().splitlines()) == 1 + 2


def test_config_file_errors(tmp_path, sbm_dir):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_knob=1\n")
    assert run_command([
        "train", "--data", str(sbm_dir), "--config", str(bad), "--out", str(tmp_path / "m"),
    ]) == 1

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("epochs\n")
    with pytest.raises(ParseError, match="key=value"):
        read_key_values(malformed)

    undecodable = tmp_path / "undecodable.cfg"
    undecodable.write_bytes(b"epochs=2\n\xff=1\n")
    assert run_command([
        "train", "--data", str(sbm_dir), "--config", str(undecodable),
        "--out", str(tmp_path / "m"),
    ]) == 1


def test_retired_anchor_and_normalization_settings_are_rejected(tmp_path, sbm_dir, capsys):
    train = ["train", "--data", str(sbm_dir), "--epochs", "1", "--out", str(tmp_path / "m")]
    assert run_command([*train, "--anchor-mode", "encoder"]) == 2
    assert run_command([*train, "--normalize-embeddings"]) == 2
    for key, value in (("anchor_mode", "encoder"), ("normalize_embeddings", "1")):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}={value}\n")
        capsys.readouterr()
        assert run_command([*train, "--config", str(cfg)]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_an_empty_dims_list_in_the_config_file_is_rejected(tmp_path, sbm_dir, capsys):
    # an empty list must not stand for the default widths
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("epochs=1\nencoder_dims=\n")
    assert run_command([
        "train", "--data", str(sbm_dir), "--config", str(cfg), "--out", str(tmp_path / "m"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "encoder_dims: expected comma-separated integers" in err
    assert not (tmp_path / "m").exists()


def test_read_config_file_parses_and_strips(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("  t = 4 \n\n# comment\nview_mode=global-only\n")
    assert read_key_values(cfg) == {"t": "4", "view_mode": "global-only"}
    with pytest.raises(ParseError, match="not found"):
        read_key_values(tmp_path / "absent.cfg")


def test_preprocess_builds_canonical_dir_and_optional_views(tmp_path, capsys):
    content = tmp_path / "toy.content"
    cites = tmp_path / "toy.cites"
    content.write_text(
        "p1\t1\t0\tA\n"
        "p2\t0\t1\tB\n"
        "p3\t1\t1\tA\n"
    )
    cites.write_text("p1\tp2\np2\tp3\n")
    data_dir = tmp_path / "toy"
    views_dir = tmp_path / "views"
    assert run_command([
        "preprocess", "--content", str(content), "--cites", str(cites),
        "--out", str(data_dir), "--views-out", str(views_dir), "--t", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "3 nodes, 2 features, 2 classes" in out

    from sngcl.data import load_canonical

    g = load_canonical(data_dir)
    assert g.n_nodes == 3 and g.n_features == 2
    from sngcl.graph import RANDOM_WALK, SYMMETRIC, smooth_features

    for name, mode in (("x_global.tsv", RANDOM_WALK), ("x_local.tsv", SYMMETRIC)):
        written = np.loadtxt(views_dir / name, delimiter="\t")
        assert written.shape == (3, 2)
        np.testing.assert_array_equal(written, smooth_features(g, 2, mode))


def test_preprocess_views_default_to_the_training_depth(tmp_path, capsys):
    content, cites = _planetoid_toy(tmp_path, 1)
    views = tmp_path / "views"
    assert run_command([
        "preprocess", "--content", str(content), "--cites", str(cites),
        "--out", str(tmp_path / "toy"), "--views-out", str(views),
    ]) == 0
    t = TrainConfig().t
    assert f"smoothed views (t={t})" in capsys.readouterr().out
    g = load_canonical(tmp_path / "toy")
    for name, mode in (("x_global.tsv", RANDOM_WALK), ("x_local.tsv", SYMMETRIC)):
        written = np.loadtxt(views / name, delimiter="\t")
        np.testing.assert_array_equal(written, smooth_features(g, t, mode))


def test_preprocess_with_a_negative_depth_writes_nothing(tmp_path):
    # both views are smoothed before the dataset is written
    content, cites = _planetoid_toy(tmp_path, 1)
    out = _sngcl(
        "preprocess", "--content", content, "--cites", cites, "--out", "toy",
        "--views-out", "views", "--t", "-1", cwd=tmp_path,
    )
    assert out.returncode == 1
    assert out.stderr == "error: stacking depth t must be >= 0, got -1\n"
    assert out.stdout == ""
    assert not (tmp_path / "toy").exists() and not (tmp_path / "views").exists()


def test_preprocess_reports_skipped_citations_once_on_stdout(tmp_path):
    content, cites = _planetoid_toy(tmp_path, 1)
    cites.write_text("p1\tp2\np9\tp1\np2\tp3\n")  # p9 is no paper
    out = _sngcl(
        "preprocess", "--content", content, "--cites", cites, "--out", "toy", cwd=tmp_path
    )
    assert out.returncode == 0
    assert out.stdout.count("skipped 1") == 1
    assert out.stderr == ""


def test_ablate_reports_all_view_modes(sbm_dir, tmp_path):
    out = tmp_path / "ablation.txt"
    assert run_command([
        "ablate", "--data", str(sbm_dir), *TRAIN_FAST,
        "--train-seeds", "0", "--train-per-class", "5", "--val-total", "10",
        "--out", str(out),
    ]) == 0
    text = out.read_text()
    for mode in ("both", "global-only", "local-only"):
        assert mode in text
    assert "[summary]" in text
    # three result rows: one per view mode for the single seed
    results = text.split("[results]")[1].split("[summary]")[0].strip().splitlines()
    assert len(results) == 1 + 3  # header + rows


def test_ablate_prints_the_eval_warnings_per_view_mode(
    sbm_dir, tmp_path, capsys, monkeypatch
):
    from sngcl import evaluation

    ablate = [
        "ablate", "--data", str(sbm_dir), *TRAIN_FAST,
        "--train-seeds", "0,1", "--train-per-class", "5", "--val-total", "10",
        "--out", str(tmp_path / "ablation.txt"),
    ]
    assert run_command(ablate) == 0
    assert "warning:" not in capsys.readouterr().err
    monkeypatch.setattr(evaluation, "PROBE_MAX_ITERATIONS", 1)
    assert run_command(ablate) == 0
    err = capsys.readouterr().err
    for mode in ("both", "global-only", "local-only"):
        assert f"warning: {mode}: probe did not converge on 2 of 2 splits" in err

    from sngcl import training

    monkeypatch.setattr(training, "encode", lambda model, graph, mode: np.ones((40, 4)))
    assert run_command(ablate) == 0
    err = capsys.readouterr().err
    for mode in ("both", "global-only", "local-only"):
        assert f"warning: {mode}: embeddings have zero variance in every column" in err


class _DiskFullFile:
    """A file whose first write stores half its bytes and then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)


def _planetoid_toy(tmp_path, extra_word):
    content, cites = tmp_path / "toy.content", tmp_path / "toy.cites"
    content.write_text(f"p1\t1\t0\tA\np2\t0\t1\tB\np3\t1\t{extra_word}\tA\n")
    cites.write_text("p1\tp2\np2\tp3\n")
    return content, cites


def _write_views(tmp_path, version):
    from sngcl.cli import build_parser

    content, cites = _planetoid_toy(tmp_path, version)
    argv = [
        "preprocess", "--content", str(content), "--cites", str(cites),
        "--out", str(tmp_path / "toy"), "--views-out", str(tmp_path / "out"),
    ]
    args = build_parser().parse_args(argv)
    args.func(args)  # run_command would turn the OSError into exit 1


def _write_record(tmp_path, version):
    from sngcl.cli import _emit

    _emit([f"version={version}"], [], tmp_path / "out" / "record.txt")


def _write_canonical(tmp_path, version):
    from sngcl.data import SbmConfig, generate_sbm, save_canonical

    save_canonical(generate_sbm(SbmConfig(nodes_per_block=5, p_in=0.8, seed=version)), tmp_path / "out")


def _write_embeddings(tmp_path, version):
    from sngcl.data import export_embeddings

    export_embeddings(tmp_path / "out" / "emb.tsv", np.full((3, 2), float(version)))


@pytest.mark.parametrize("writer, target", [
    (_write_record, "record.txt"),
    (_write_canonical, "manifest.txt"),
    (_write_canonical, "edges.tsv"),
    (_write_canonical, "features.tsv"),
    (_write_canonical, "labels.tsv"),
    (_write_embeddings, "emb.tsv"),
    (_write_views, "x_global.tsv"),
    (_write_views, "x_local.tsv"),
])
def test_a_write_failing_partway_keeps_the_earlier_file(tmp_path, monkeypatch, writer, target):
    import builtins

    import sngcl.training as training

    out = tmp_path / "out"
    out.mkdir()
    writer(tmp_path, 0)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert target in before

    def open_failing_target(path, mode):
        f = builtins.open(path, mode)
        return _DiskFullFile(f) if f".{target}." in str(path) else f

    monkeypatch.setattr(training, "open", open_failing_target, raising=False)
    with pytest.raises(OSError, match="no space"):
        writer(tmp_path, 1)
    assert (out / target).read_bytes() == before[target]
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
