"""tools/code_lines.py counts code lines by the rules its docstring states:
blank lines, comment lines and docstrings are left out, and every other line
that holds a token counts."""

import ast
import importlib.util

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("code_lines", REPO_ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# one of each kind of line that the rules name
SAMPLE = '''\
"""Module docstring,
over two lines."""

# a comment line
import math  # code, with a comment


class Shape:
    """Class docstring."""

    sides = 4

    def area(self, x):
        """Function
        docstring."""
        # comment inside a body
        label = """a string literal
that is not a docstring"""
        total = (x +
                 math.pi)
        return label, total
'''
# hand-counted: import, class, sides, def, the literal's two lines, the
# statement's two lines and return
SAMPLE_CODE_LINES = 9


def test_counts_a_sample_module(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert code_lines.count(path) == (len(SAMPLE.splitlines()), SAMPLE_CODE_LINES)


def test_docstring_lines_cover_module_class_and_function():
    assert code_lines.docstring_lines(ast.parse(SAMPLE)) == {1, 2, 9, 14, 15}


def test_total_row_is_the_sum_of_the_rows(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "other.py").write_text("x = 1\n\n# note\ny = [\n    2]\n", encoding="utf-8")
    code_lines.main(["code_lines.py", str(tmp_path)])
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "code"]
    counts = {name: (int(lines), int(code)) for name, lines, code in map(str.split, rows)}
    assert counts == {"other.py": (5, 3), "sample.py": (len(SAMPLE.splitlines()), SAMPLE_CODE_LINES)}
    name, lines, code = total.split()
    assert name == "total"
    assert (int(lines), int(code)) == tuple(map(sum, zip(*counts.values())))
