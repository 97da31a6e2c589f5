"""The model's numbers, pinned: two 25-epoch training runs compared with
``tests/data/golden.tsv``.

One run trains the acceptance SBM, whose dense features are smoothed once
into matrices; the other trains ``conftest.sparse_feature_graph()``, whose
views stay factorised operators.  For each the file holds the loss history
and the per-column sums of ``encode``'s output.  A change that means to move
the model's numbers rewrites the file with ``tests/data/regenerate_golden.py``
and says so; any other change leaves every number in it as it is.
"""

from pathlib import Path

import numpy as np
from conftest import sparse_feature_graph

from sngcl.data import SbmConfig, generate_sbm
from sngcl.graph import SmoothedOperator
from sngcl.training import TrainConfig, encode, resolve_view_inputs, train

GOLDEN = Path(__file__).parent / "data" / "golden.tsv"
EPOCHS = 25
# Loose enough for another BLAS build's summation order, tight enough that
# any change of the arithmetic shows.
RTOL = 1e-9


def _graphs():
    """(name, graph, whether its views are operators) of each pinned run."""
    sbm = generate_sbm(SbmConfig(nodes_per_block=100, n_blocks=2, p_in=0.1, p_out=0.01, seed=0))
    return [("sbm-200", sbm, False), ("sparse-features", sparse_feature_graph(), True)]


def golden_runs() -> dict[str, np.ndarray]:
    """Each pinned quantity, by its section name in the golden file."""
    runs = {}
    for name, graph, factorised in _graphs():
        config = TrainConfig(seed=0, epochs=EPOCHS)
        online_input, _ = resolve_view_inputs(graph, config.t, config.view_mode)
        assert isinstance(online_input, SmoothedOperator) == factorised
        model = train(graph, config)
        runs[f"{name} history"] = model.history
        runs[f"{name} embedding column sums"] = encode(model, graph).sum(axis=0)[None, :]
    return runs


def format_golden(runs: dict[str, np.ndarray]) -> str:
    """The golden file's text: a ``[name]`` line, then the rows of that
    quantity, tab-separated and written with ``%.17g``."""
    lines = []
    for name, table in runs.items():
        lines.append(f"[{name}]")
        lines += ["\t".join(f"{v:.17g}" for v in row) for row in table]
    return "\n".join(lines) + "\n"


def parse_golden(text: str) -> dict[str, np.ndarray]:
    runs, rows = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            rows = runs.setdefault(line[1:-1], [])
        else:
            rows.append([float(v) for v in line.split("\t")])
    return {name: np.array(rows) for name, rows in runs.items()}


def test_training_reproduces_the_golden_numbers():
    want = parse_golden(GOLDEN.read_text("utf-8"))
    got = golden_runs()
    assert list(got) == list(want)
    for name, table in got.items():
        np.testing.assert_allclose(table, want[name], rtol=RTOL, atol=0, err_msg=name)
