"""Exercise the command line surface through run_command."""

import numpy as np
import pytest

from sngcl.cli import read_config_file, run_command
from sngcl.errors import ParseError
from sngcl.training import HYPERPARAMETERS, config_values, load_checkpoint


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


def test_gen_sbm_writes_a_loadable_dataset(sbm_dir, capsys):
    assert (sbm_dir / "manifest.txt").is_file()
    assert (sbm_dir / "edges.tsv").is_file()
    from sngcl.data import load_canonical

    g = load_canonical(sbm_dir)
    assert g.n_nodes == 40 and g.n_classes == 2


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
        "--train-per-class", "5", "--val-total", "10", "--seeds", "0,1",
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


def test_help_exits_0_and_shows_defaults(capsys):
    assert run_command(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--momentum" in out
    assert "0.8" in out  # ArgumentDefaultsHelpFormatter shows the default
    assert "--config" in out


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_help_shows_every_hyperparameter_with_its_dataclass_default(command, capsys):
    assert run_command([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for h in HYPERPARAMETERS:
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
    "normalize_embeddings": "1",
    "anchor_mode": "encoder",
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
            args.append("--" + h.name.replace("_", "-"))
            if h.kind is not bool:
                args.append(NON_DEFAULT[h.name])
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


def test_config_file_errors(tmp_path, sbm_dir):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_knob=1\n")
    assert run_command([
        "train", "--data", str(sbm_dir), "--config", str(bad), "--out", str(tmp_path / "m"),
    ]) == 1

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("epochs\n")
    with pytest.raises(ParseError, match="key=value"):
        read_config_file(malformed)


def test_read_config_file_parses_and_strips(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("  t = 4 \n\n# comment\nview_mode=global-only\n")
    assert read_config_file(cfg) == {"t": "4", "view_mode": "global-only"}
    with pytest.raises(ParseError, match="not found"):
        read_config_file(tmp_path / "absent.cfg")


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
