"""``tools/same_output.py`` keeps comparing when a command raises: the
exception is that command's result, reported as a difference, and the
other commands are still compared.  Its corpus's fallback ``decide``
runs do reach the extraction's later tiers."""

import importlib.util
import json
import shutil
from pathlib import Path

from wmatch import edmonds
from wmatch.graphs import parse_graph
from wmatch.linalg import det_bareiss
from wmatch.rng import derive_seed

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_output.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_output", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_raising_command_is_reported_and_the_rest_compared(tmp_path, capsys):
    tool = load_tool()
    # A copy of src/ whose find trial raises; decide and hungarian do
    # not run it.
    broken = tmp_path / "broken" / "src"
    shutil.copytree(ROOT / "src", broken, ignore=shutil.ignore_patterns("__pycache__"))
    mvv = broken / "wmatch" / "mvv.py"
    with mvv.open("a", encoding="utf-8") as f:
        f.write("\n\ndef mvv_trial(g, seed):\n    raise RuntimeError('trial broken')\n")
    workdir = tmp_path / "corpus"
    workdir.mkdir()
    (workdir / "k33.graph").write_text("3\n1 1 1\n1 1 1\n1 1 1\n", encoding="utf-8")
    (workdir / "three.weights").write_text("3\n4 0 2\n1 5 3\n0 2 6\n", encoding="utf-8")
    commands = [
        ["decide", "k33.graph", "--format", "json"],
        ["find", "k33.graph", "--format", "json"],
        ["hungarian", "three.weights"],
        ["decide", "missing.graph"],
    ]
    (workdir / "commands.json").write_text(json.dumps(commands), encoding="utf-8")

    base, head = tool.run_both(ROOT / "src", broken, workdir)
    assert len(base) == len(head) == len(commands)
    assert base[1][0] == 0 and head[1][0].startswith("raised RuntimeError ")
    assert [base[t] == head[t] for t in range(len(commands))] == [True, False, True, True]
    assert base[3][0] == 2  # a failing command keeps its exit code

    assert tool.compare(commands, base, head) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "differs (exit code, stdout): wmatch find k33.graph --format json"
    assert out[1].startswith("  base: 0; this tree: raised RuntimeError ")
    assert len(out) == 2


def test_fallback_decide_runs_reach_the_fallback():
    # Each of these decide runs answers YES from a sample whose first
    # tier fails, so the corpus compares the later tiers' bytes too.
    tool = load_tool()
    for n, seeds in tool.FALLBACK_DECIDE:
        g = parse_graph(tool.ci_graph(n))
        for seed in seeds:
            samples = (edmonds.lovasz_sample(g, derive_seed(seed, t)) for t in range(10))
            b = next(b for b in samples if det_bareiss(b))
            assert edmonds.extract_pattern_mod(b, g.row_masks, g.matching_columns) is None
