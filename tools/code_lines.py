"""Count the lines of each module of src/drillvol.

Prints, per module and in total, all lines and the code lines: lines that
hold a token other than a comment, leaving out blank lines, comment lines and
docstrings (the string that opens a module, class or function body).

    python tools/code_lines.py [package directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """All lines and code lines of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(text.splitlines()), len(code)


def main(argv: list) -> None:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "drillvol"
    rows = [(p.name, *count(p)) for p in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main(sys.argv)
