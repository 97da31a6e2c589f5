"""Import rules between the package's modules, read from their source."""

import ast
from pathlib import Path

import sngcl

SOURCES = sorted(Path(sngcl.__file__).parent.glob("*.py"))


def _sibling_imports(path: Path):
    """(module, name) of each ``from .module import name``, ``from . import
    module`` (as (module, module)) and ``from sngcl.module import name`` in a
    source file, at any depth, so imports inside functions count too."""
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and (node.module or "").startswith("sngcl."):
            module = node.module.removeprefix("sngcl.")
        else:
            continue
        for alias in node.names:
            yield module or alias.name, alias.name


def test_no_module_imports_a_siblings_private_name():
    private = [
        f"{path.name}: from .{module} import {name}"
        for path in SOURCES
        for module, name in _sibling_imports(path)
        if name.startswith("_")
    ]
    assert SOURCES and private == []


def test_the_data_module_does_not_depend_on_training():
    (data,) = [path for path in SOURCES if path.name == "data.py"]
    assert "training" not in {module for module, _ in _sibling_imports(data)}
