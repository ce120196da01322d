"""``tools/code_lines.py`` counts what the size figures in CHANGES.md
count: code lines, not blank, comment-only or docstring lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
no docstring"""
        return (text,
                os.sep)
'''


def test_counts_only_code_lines():
    # import, class, def, the two lines of text, the two of return.
    assert load_tool().code_lines(SAMPLE) == 7


def test_every_module_counted(capsys):
    tool = load_tool()
    assert tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[1] for line in lines]
    assert names[:-1] == sorted(p.name for p in tool.SRC.glob("*.py"))
    assert "zeroset.py" in names and names[-1] == "total"
    counts = [int(line.split()[0]) for line in lines]
    assert sum(counts[:-1]) == counts[-1] > 0
