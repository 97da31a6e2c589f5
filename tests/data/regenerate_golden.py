"""Rewrite ``golden.tsv`` beside this script from the current code.

Run it by hand, from the repository root, only for a change that declares
that it moves the model's numbers::

    PYTHONPATH=src python tests/data/regenerate_golden.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, format_golden, golden_runs  # noqa: E402

GOLDEN.write_text(format_golden(golden_runs()), "utf-8")
print(f"wrote {GOLDEN}")
