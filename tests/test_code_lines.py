import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines_tool)

# Four code lines: the import, the def, and the two lines of the split return.
SOURCE = '''"""A module docstring
over two lines."""

import os

# a comment line


def join(x):
    """A function docstring."""
    return os.path.join(
        x, "y")
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    assert code_lines_tool.code_lines(SOURCE) == 4


def test_main_total_is_the_sum_of_the_module_rows(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1  # a trailing comment\n\ny = [\n    x,\n]\n")
    assert code_lines_tool.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["4", "a.py"], ["4", "b.py"], ["8", "total"]]
    # the default package: the total row is the sum of the module rows
    assert code_lines_tool.main(["code_lines.py"]) == 0
    *modules, (total, name) = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert name == "total" and len(modules) > 1
    assert int(total) == sum(int(count) for count, _ in modules)


def test_a_bad_argument_or_an_empty_directory_prints_the_usage_line(tmp_path, capsys):
    # a count of nothing is refused, not printed as a total of 0 lines
    (tmp_path / "notes.txt").write_text("x = 1\n")
    cases = [["--help"], ["-h"], [str(tmp_path / "missing")], [str(tmp_path)], ["src/ghn", "extra"]]
    for args in cases:
        assert code_lines_tool.main(["code_lines.py", *args]) == 2, args
        out, err = capsys.readouterr()
        assert (out, err) == ("", code_lines_tool.USAGE + "\n"), args
