"""The code-line counter that CI prints for src/ (tools/code_lines.py)."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    y = """a string value,
    not a docstring"""
    return x


class C:
    """Class docstring."""

    z = 1
'''


def test_docstrings_comments_and_blank_lines_are_left_out(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def, the two lines of y, return, class, z
    assert code_lines.code_lines(path) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["7", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["8", "total"]]
