"""The witness modules need only the graph and the range.

``zeroset`` reads its chain's sigma off the graph's Kuhn pass and
``isolation`` falls back to the all-ones assignment, so neither needs
the extraction of ``edmonds`` or anything of ``mvv``, the algorithms
whose error bounds they count.  The imports are read with ``ast``, as
``tests/test_benchmark_targets.py`` reads ``perfbench/layers.py``, so
an import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wmatch"
FORBIDDEN = {"wmatch.edmonds", "wmatch.mvv"}


def imported_modules(path):
    """Every module a file imports, relative imports resolved against
    the ``wmatch`` package; ``from . import x`` names ``wmatch.x``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("wmatch" + "." * bool(node.module) if node.level else "") + (node.module or "")
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("name", ["zeroset.py", "isolation.py"])
def test_witness_module_imports_no_algorithm(name):
    modules = imported_modules(SRC / name)
    assert "wmatch.graphs" in modules  # the reader found the imports
    assert modules & FORBIDDEN == set()
