"""Citation-file parsing, the canonical directory format, SBM generation,
and embedding export."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import assert_frozen

import sngcl.data as data
from sngcl.data import (
    SbmConfig,
    export_embeddings,
    generate_sbm,
    load_canonical,
    load_planetoid,
    save_canonical,
)
from sngcl.errors import InputError, IntegrityError, ParseError
from sngcl.graph import build_graph

CONTENT = """\
paper_a\t1\t0\t1\ttheory
paper_b\t0\t1\t0\tsystems
paper_c\t1\t1\t0\ttheory
paper_d\t0\t0\t1\tml
"""

CITES = """\
paper_a\tpaper_b
paper_b\tpaper_a
paper_c\tpaper_a
paper_c\tpaper_c
paper_x\tpaper_a
paper_d\tpaper_c
"""


def write_planetoid(tmp_path, content=CONTENT, cites=CITES):
    content_path = tmp_path / "toy.content"
    cites_path = tmp_path / "toy.cites"
    content_path.write_text(content)
    cites_path.write_text(cites)
    return content_path, cites_path


def test_load_planetoid_first_appearance_indexing(tmp_path):
    content_path, cites_path = write_planetoid(tmp_path)
    result = load_planetoid(content_path, cites_path, row_normalize=False)
    g = result.graph
    assert g.labels.tolist() == [0, 1, 0, 2]
    assert g.n_classes == 3
    np.testing.assert_array_equal(
        g.features,
        [[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]],
    )


def test_load_planetoid_symmetrizes_and_cleans_citations(tmp_path):
    content_path, cites_path = write_planetoid(tmp_path)
    result = load_planetoid(content_path, cites_path)
    # a<->b collapses to one undirected edge; c-a and d-c survive; the
    # self-citation and the dangling paper_x line are dropped.
    assert result.graph.adjacency.nnz // 2 == 3
    assert result.n_dangling == 1


def test_load_planetoid_row_normalizes_by_default(tmp_path):
    content_path, cites_path = write_planetoid(tmp_path)
    result = load_planetoid(content_path, cites_path)
    sums = result.graph.features.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_load_planetoid_keeps_zero_feature_rows_finite(tmp_path):
    content = "a\t0\t0\tx\nb\t1\t1\tx\n"
    cites = "a\tb\n"
    content_path, cites_path = write_planetoid(tmp_path, content, cites)
    result = load_planetoid(content_path, cites_path)
    assert np.all(np.isfinite(result.graph.features))
    np.testing.assert_array_equal(result.graph.features[0], [0.0, 0.0])


@pytest.mark.parametrize(
    "content, message",
    [
        ("a\t1\tx\na\t1\tx\n", "duplicate id"),
        ("a\t1\t0\tx\nb\t1\ty\n", "features"),
        ("a\tone\tx\n", "non-numeric"),
        ("a\tnan\tx\n", "non-finite"),
        ("a\tx\n", "expected id"),
        ("", "no records"),
    ],
)
def test_load_planetoid_content_errors(tmp_path, content, message):
    content_path, cites_path = write_planetoid(tmp_path, content, "a\tb\n")
    with pytest.raises(ParseError, match=message):
        load_planetoid(content_path, cites_path)


def test_load_planetoid_cites_errors(tmp_path):
    content_path, cites_path = write_planetoid(tmp_path, CONTENT, "a\tb\tc\n")
    with pytest.raises(ParseError, match="two ids"):
        load_planetoid(content_path, cites_path)


def test_canonical_roundtrip_is_the_identity(tmp_path):
    rng = np.random.default_rng(0)
    features = rng.standard_normal((9, 4)) * np.pi  # awkward decimals on purpose
    labels = np.array([0, 1, 2, 0, -1, 1, 2, -1, 0])
    g = build_graph(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 8), (5, 6)], features,
        labels=labels, n_classes=3,
    )
    save_canonical(g, tmp_path / "ds")
    loaded = load_canonical(tmp_path / "ds")
    assert (loaded.adjacency != g.adjacency).nnz == 0
    assert loaded.features.tobytes() == g.features.tobytes()
    np.testing.assert_array_equal(loaded.labels, g.labels)
    assert loaded.n_classes == 3


def test_canonical_roundtrip_unlabeled_graph(tmp_path):
    g = build_graph([(0, 1)], np.zeros((3, 2)))
    save_canonical(g, tmp_path / "ds")
    loaded = load_canonical(tmp_path / "ds")
    assert loaded.labels is None
    assert loaded.n_classes is None


def test_canonical_missing_manifest(tmp_path):
    with pytest.raises(ParseError, match="manifest"):
        load_canonical(tmp_path)


def test_canonical_detects_count_mismatches(tmp_path):
    g = build_graph([(0, 1), (1, 2)], np.eye(3), labels=np.array([0, 1, 0]))
    save_canonical(g, tmp_path / "ds")
    edges = tmp_path / "ds" / "edges.tsv"
    edges.write_text("0\t1\n")  # one edge fewer than the manifest claims
    with pytest.raises(IntegrityError, match="manifest says 2"):
        load_canonical(tmp_path / "ds")


def test_canonical_detects_out_of_range_endpoints(tmp_path):
    g = build_graph([(0, 1)], np.eye(2))
    save_canonical(g, tmp_path / "ds")
    (tmp_path / "ds" / "edges.tsv").write_text("0\t9\n")
    with pytest.raises(IntegrityError, match="outside"):
        load_canonical(tmp_path / "ds")


def test_canonical_detects_feature_width_mismatch(tmp_path):
    g = build_graph([(0, 1)], np.eye(2))
    save_canonical(g, tmp_path / "ds")
    (tmp_path / "ds" / "features.tsv").write_text("1.0\n0.0\t1.0\n")
    with pytest.raises(IntegrityError, match="columns"):
        load_canonical(tmp_path / "ds")


def test_canonical_rejects_a_label_below_minus_one(tmp_path):
    g = build_graph([(0, 1), (1, 2)], np.eye(3), labels=np.array([0, 1, 0]))
    save_canonical(g, tmp_path / "ds")
    (tmp_path / "ds" / "labels.tsv").write_text("0\n-2\n1\n")
    with pytest.raises(IntegrityError, match="label -2 of node 1"):
        load_canonical(tmp_path / "ds")


def test_an_undecodable_manifest_is_a_parse_error(tmp_path):
    g = build_graph([(0, 1)], np.eye(2))
    save_canonical(g, tmp_path / "ds")
    (tmp_path / "ds" / "manifest.txt").write_bytes(b"n_nodes=\xff2\n")
    with pytest.raises(ParseError, match="not an integer"):
        load_canonical(tmp_path / "ds")


@pytest.mark.parametrize("loader", ["load_canonical", "generate_sbm", "load_planetoid"])
def test_loaded_graphs_are_frozen(tmp_path, loader):
    if loader == "load_canonical":
        g = build_graph([(0, 1), (1, 2)], np.eye(3), labels=np.array([0, 1, -1]))
        save_canonical(g, tmp_path / "ds")
        graph = load_canonical(tmp_path / "ds")
    elif loader == "generate_sbm":
        graph = generate_sbm(SbmConfig(nodes_per_block=5, n_blocks=2))
    else:
        graph = load_planetoid(*write_planetoid(tmp_path)).graph
    assert_frozen(graph)


def test_canonical_manifest_parse_errors(tmp_path):
    g = build_graph([(0, 1)], np.eye(2))
    save_canonical(g, tmp_path / "ds")
    (tmp_path / "ds" / "manifest.txt").write_text("n_nodes=two\n")
    with pytest.raises(ParseError, match="not an integer"):
        load_canonical(tmp_path / "ds")


@pytest.mark.parametrize(
    "edges, features, labels, edges_text",
    [
        ([], np.arange(12.0).reshape(4, 3) / 7, np.array([0, 1, 1, 0]), None),
        ([(0, 1), (1, 2)], np.array([[0.1], [-2.5], [np.pi]]), np.array([1, 0, -1]), None),
        ([(0, 2), (1, 2)], np.pi * np.eye(3), None, None),
        ([], np.arange(12.0).reshape(4, 3) / 7, np.array([0, 1, 1, 0]), "\n\n"),
    ],
    ids=["edgeless", "one-feature", "all-unlabeled", "blank-lines-as-no-edges"],
)
def test_canonical_roundtrip_edge_cases_are_exact_and_silent(
    tmp_path, edges, features, labels, edges_text
):
    g = build_graph(edges, features, labels=labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        save_canonical(g, tmp_path / "ds")
        if edges_text is not None:
            (tmp_path / "ds" / "edges.tsv").write_text(edges_text)
        loaded = load_canonical(tmp_path / "ds")
    assert loaded.adjacency.shape == g.adjacency.shape
    assert (loaded.adjacency != g.adjacency).nnz == 0
    assert loaded.features.shape == g.features.shape
    assert loaded.features.tobytes() == g.features.tobytes()
    if labels is None:
        assert loaded.labels is None and loaded.n_classes is None
    else:
        assert loaded.labels.tobytes() == g.labels.tobytes()
        assert loaded.n_classes == g.n_classes


@pytest.mark.parametrize(
    "name, text, error, message",
    [
        ("features.tsv", "1\t0\n0\tabc\n0\t0\n", ParseError, None),
        ("edges.tsv", "0\t1\n1\t2.5\n", ParseError, None),
        ("edges.tsv", "0\t1\n1\t2\t0\n", ParseError, "two endpoints"),
        ("edges.tsv", "0\t1\t2\n1\t2\t0\n", ParseError, "two endpoints"),
        ("labels.tsv", "0\nx\n1\n", ParseError, None),
        ("features.tsv", "1\t0\n0\t1\n", IntegrityError, "2 rows, manifest says 3"),
        ("features.tsv", "1\n0\n0\n", IntegrityError, "columns"),
    ],
    ids=[
        "non-numeric-feature", "non-integer-endpoint", "three-field-edge-line",
        "three-field-edge-lines", "non-integer-label", "too-few-feature-rows",
        "too-narrow-feature-rows",
    ],
)
def test_canonical_malformed_files_keep_their_error_and_name_the_file(
    tmp_path, name, text, error, message
):
    g = build_graph([(0, 1), (1, 2)], np.eye(3)[:, :2], labels=np.array([0, 1, 0]))
    save_canonical(g, tmp_path / "ds")
    (tmp_path / "ds" / name).write_text(text)
    with pytest.raises(error, match=name) as info:
        load_canonical(tmp_path / "ds")
    assert message is None or message in str(info.value)


def test_canonical_features_are_written_with_seventeen_significant_digits(tmp_path):
    features = np.array([[np.pi, -0.0, 1e-300], [5e-324, -3 * np.pi, 1e20 * np.pi]])
    save_canonical(build_graph([(0, 1)], features), tmp_path / "ds")
    assert (tmp_path / "ds" / "features.tsv").read_text() == (
        "3.1415926535897931\t-0\t1e-300\n"
        "4.9406564584124654e-324\t-9.4247779607693793\t3.1415926535897933e+20\n"
    )
    assert (tmp_path / "ds" / "edges.tsv").read_text() == "0\t1\n"
    assert (tmp_path / "ds" / "labels.tsv").read_text() == "-1\n-1\n"


def test_export_embeddings_writes_a_pinned_format(tmp_path):
    emb = np.array([[0.1, -2 / 3], [1e-310, -0.0], [np.pi / 7, 2.5e17]])
    rows = [
        "0.10000000000000001\t-0.66666666666666663\n",
        "9.9999999999999694e-311\t-0\n",
        "0.44879895051282759\t2.5e+17\n",
    ]
    export_embeddings(tmp_path / "plain.tsv", emb)
    assert (tmp_path / "plain.tsv").read_text() == "".join(rows)
    export_embeddings(tmp_path / "ids.tsv", emb, node_ids=[0, "n1", "nœud"])
    assert (tmp_path / "ids.tsv").read_text(encoding="utf-8") == (
        f"0\t{rows[0]}n1\t{rows[1]}nœud\t{rows[2]}"
    )


def test_generate_sbm_shape_and_labels():
    g = generate_sbm(SbmConfig(nodes_per_block=25, n_blocks=3, p_in=0.3, p_out=0.02, seed=0))
    assert g.n_nodes == 75
    assert g.n_features == 16
    assert g.n_classes == 3
    assert np.bincount(g.labels).tolist() == [25, 25, 25]
    g.validate()


def test_generate_sbm_is_deterministic_per_seed():
    cfg = dict(nodes_per_block=20, n_blocks=2, p_in=0.3, p_out=0.05)
    a = generate_sbm(SbmConfig(seed=3, **cfg))
    b = generate_sbm(SbmConfig(seed=3, **cfg))
    c = generate_sbm(SbmConfig(seed=4, **cfg))
    assert (a.adjacency != b.adjacency).nnz == 0
    assert a.features.tobytes() == b.features.tobytes()
    assert a.features.tobytes() != c.features.tobytes()


def dense_sbm(config: SbmConfig):
    """The block model drawn the direct way: one n x n uniform matrix against
    an n x n probability matrix, then the features."""
    n = config.nodes_per_block * config.n_blocks
    blocks = np.repeat(np.arange(config.n_blocks), config.nodes_per_block)
    rng = np.random.default_rng(config.seed)
    probs = np.where(blocks[:, None] == blocks[None, :], config.p_in, config.p_out)
    edge_i, edge_j = np.nonzero(np.triu(rng.random((n, n)) < probs, k=1))
    means = np.zeros((config.n_blocks, config.feature_dim))
    means[np.arange(config.n_blocks), np.arange(config.n_blocks)] = config.feature_shift
    features = means[blocks] + config.noise_std * rng.standard_normal((n, config.feature_dim))
    return build_graph(
        list(zip(edge_i.tolist(), edge_j.tolist())), features,
        labels=blocks, n_classes=config.n_blocks,
    )


@pytest.mark.parametrize("rows_per_draw", [None, 1, 7, 64])
@pytest.mark.parametrize("config", [
    SbmConfig(nodes_per_block=100, n_blocks=2, p_in=0.1, p_out=0.01, seed=0),
    SbmConfig(nodes_per_block=13, n_blocks=5, p_in=0.4, p_out=0.05, seed=3),
    SbmConfig(nodes_per_block=1, n_blocks=3, p_in=1.0, p_out=0.5, feature_dim=3, seed=9),
    SbmConfig(nodes_per_block=550, n_blocks=2, p_in=0.02, p_out=0.002, seed=11),
])
def test_generate_sbm_equals_the_dense_draw(config, rows_per_draw, monkeypatch):
    if rows_per_draw is not None:
        monkeypatch.setattr(data, "SBM_ROWS_PER_DRAW", rows_per_draw)
    got, want = generate_sbm(config), dense_sbm(config)
    assert (got.adjacency != want.adjacency).nnz == 0
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_generate_sbm_edge_counts_track_the_probabilities():
    # 2 blocks of 100: 9900 within-block pairs at p=0.1 (mean 990, sd 29.8),
    # 10000 cross pairs at p=0.01 (mean 100, sd 9.9).  4 sd either way.
    g = generate_sbm(SbmConfig(nodes_per_block=100, n_blocks=2, p_in=0.1, p_out=0.01, seed=0))
    same = g.labels[:, None] == g.labels[None, :]
    adj = g.adjacency.toarray()
    within = np.triu(adj * same, k=1).sum()
    cross = np.triu(adj * ~same, k=1).sum()
    assert 990 - 4 * 29.9 <= within <= 990 + 4 * 29.9
    assert 100 - 4 * 10.0 <= cross <= 100 + 4 * 10.0


def test_generate_sbm_block_means_are_shifted():
    g = generate_sbm(
        SbmConfig(nodes_per_block=400, n_blocks=2, p_in=0.05, p_out=0.01,
                  feature_shift=2.0, noise_std=1.0, seed=1)
    )
    block0 = g.features[g.labels == 0]
    block1 = g.features[g.labels == 1]
    # noise sd 1 over 400 samples -> standard error 0.05; allow 5 of those
    assert abs(block0[:, 0].mean() - 2.0) < 0.25
    assert abs(block1[:, 1].mean() - 2.0) < 0.25
    assert abs(block0[:, 1].mean()) < 0.25


def test_sbm_config_validation():
    with pytest.raises(InputError):
        SbmConfig(nodes_per_block=0, n_blocks=2, p_in=0.1, p_out=0.01)
    with pytest.raises(InputError):
        SbmConfig(nodes_per_block=10, n_blocks=2, p_in=0.01, p_out=0.1)
    with pytest.raises(InputError):
        SbmConfig(nodes_per_block=10, n_blocks=2, p_in=1.5, p_out=0.1)
    with pytest.raises(InputError):
        SbmConfig(nodes_per_block=10, n_blocks=4, p_in=0.1, p_out=0.01, feature_dim=3)
    with pytest.raises(InputError):
        SbmConfig(nodes_per_block=10, n_blocks=2, p_in=0.1, p_out=0.01, noise_std=-1)


def test_export_embeddings_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(5)
    emb = rng.standard_normal((6, 3)) / 2.9
    path = tmp_path / "emb.tsv"
    export_embeddings(path, emb)
    back = np.loadtxt(path, delimiter="\t").reshape(6, 3)
    np.testing.assert_array_equal(back, emb)  # 17 significant digits


def test_export_embeddings_with_id_column(tmp_path):
    emb = np.array([[1.5, 2.5], [3.5, 4.5]])
    path = tmp_path / "emb.tsv"
    export_embeddings(path, emb, node_ids=["n0", "n1"])
    lines = path.read_text().splitlines()
    assert lines[0].split("\t")[0] == "n0"
    assert float(lines[1].split("\t")[2]) == 4.5


def test_export_embeddings_input_checks(tmp_path):
    with pytest.raises(InputError):
        export_embeddings(tmp_path / "x.tsv", np.zeros(3))
    with pytest.raises(InputError):
        export_embeddings(tmp_path / "x.tsv", np.zeros((2, 2)), node_ids=["a"])


def test_save_canonical_stores_each_edge_once(tmp_path):
    g = build_graph([(0, 1), (1, 2)], np.eye(3))
    save_canonical(g, tmp_path / "ds")
    lines = (tmp_path / "ds" / "edges.tsv").read_text().splitlines()
    assert lines == ["0\t1", "1\t2"]
    manifest = dict(
        line.split("=") for line in (tmp_path / "ds" / "manifest.txt").read_text().splitlines()
    )
    assert manifest["n_edges"] == "2"
    assert manifest["n_nodes"] == "3"
