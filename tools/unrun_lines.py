"""List the package's statements that the tests never run.

Runs pytest in this process (by default tier-1: the ``testpaths`` of
``pyproject.toml``, with ``src`` on the path) under ``sys.settrace`` and
``threading.settrace``, so the threads of the build's and calibration's
pools (``norms.in_parts``) are traced too, and records every line of
``src/lpcascade/*.py`` that runs.  A statement ran when a line it spans,
outside the statements nested in it, did.  Definitions, imports,
docstrings (a statement whose first line ``code_lines.docstring_lines``
holds) and the headers of ``try`` blocks, which run no code of their own,
are not counted.  Prints each statement that never ran as its
path, line and first line of source, then the count per module and in
total.  Arguments are passed on to pytest, with paths taken from the
repository root, and the exit code is never that of the tests: the
report is the output.  Needs only the standard library and pytest:

    python tools/unrun_lines.py
    python tools/unrun_lines.py tests/test_cli.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest
from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lpcascade"
# statements that run no code of their own
_UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
              ast.ImportFrom, ast.Try)


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of each counted statement of one module: the
    lines it spans outside its nested statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = docstring_lines(tree)
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _UNCOUNTED)
                or node.lineno in docstrings):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        found.append((node.lineno, own))
    return found


def main(args: list[str]) -> None:
    files = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        # only the package's frames are traced line by line
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        # from the root, with no paths given, pytest runs its testpaths
        os.chdir(ROOT)
        pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = {}
    for name, ran in files.items():
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        unrun = sorted(first for first, own in statements(path) if not own & ran)
        counts[path.stem] = len(unrun)
        for first in unrun:
            print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    for stem, count in counts.items():
        print(f"{stem:12} {count:6,}")
    print(f"{'total':12} {sum(counts.values()):6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
