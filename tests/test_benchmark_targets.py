"""Every program function the benchmark's traced run wraps exists.

``perfbench/layers.py`` names its targets as ``"wmatch.<module>:<name>"``
strings (``<name>`` may be ``Class.method``) and builds one
``wmatch.verify:<check>`` target per name in ``VERIFY_CHECKS``.  A label
none of whose targets exists is left out of the traced result, so
deleting or renaming such a function silently drops metrics from the
benchmark; this test makes that a test failure instead.  The file is
read as text, not imported: it imports the harness's ``tracer`` module
by bare name.
"""

import ast
import importlib
import re
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
TARGET = re.compile(r"(wmatch\.\w+):(\w+(?:\.\w+)?)")


def benchmark_targets():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = TARGET.fullmatch(node.value)
            if match:
                targets.add(match.groups())
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "VERIFY_CHECKS" for t in node.targets
        ):
            targets.update(("wmatch.verify", name) for name in ast.literal_eval(node.value))
    return sorted(targets)


def test_every_traced_target_is_a_callable():
    targets = benchmark_targets()
    # One target from each source, so a parse that found nothing fails.
    assert ("wmatch.mvv", "edge_in_unique_min_pm") in targets
    assert ("wmatch.verify", "check_mvv_success_rate") in targets
    missing = []
    for module_name, name in targets:
        obj = importlib.import_module(module_name)
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}:{name}")
    assert missing == []
