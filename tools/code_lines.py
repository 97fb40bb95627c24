"""Count the code lines of the package: lines of ``src/lpcascade/*.py`` that
hold code, outside docstrings, comments and blank lines.

A docstring is the string literal that opens a module, class or function
body (``ast``); a line counts when a token other than a comment, a line
break, an indent or a dedent starts or runs on it (``tokenize``), and no
docstring spans it.  Prints one line per module and the total:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lpcascade"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a module's bodies."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one source file."""
    source = path.read_text(encoding="utf-8")
    skipped = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:12} {count:6,}")
    print(f"{'total':12} {total:6,}")


if __name__ == "__main__":
    main()
