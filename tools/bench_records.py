"""Check where the benchmark records come from.

Each ``BENCH_*.json`` at the repository root holds a ``--trace 0`` and a
``--trace 1`` record of perfbench, and each record names the commit it ran
on (``meta.git_rev``).  For every file this checks that

* both records name the same commit, and that commit is in HEAD's history;
* the source the records ran (``src`` and ``perfbench``) is the source of
  the last commit that wrote the file (``git diff --quiet``), or of the
  working tree while the file has uncommitted changes;

and prints how many commits between that rev and HEAD change ``src`` or
``perfbench``, the records' staleness.  It exits 1 when a check fails,
never on staleness alone:

    python tools/bench_records.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ("src", "perfbench")


def git(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=check)


def problems(path: Path) -> tuple[list[str], str | None]:
    """The failed checks of one records file, and the rev its records name."""
    records = json.loads(path.read_text(encoding="utf-8"))
    revs = {records[trace]["meta"]["git_rev"] for trace in ("trace0", "trace1")}
    if len(revs) != 1:
        return [f"its records name different commits: {sorted(revs)}"], None
    (rev,) = revs
    if git("merge-base", "--is-ancestor", rev, "HEAD", check=False).returncode != 0:
        return [f"its records' commit {rev} is not in HEAD's history"], rev
    name = path.relative_to(ROOT).as_posix()
    dirty = git("status", "--porcelain", "--", name).stdout.strip()
    writer = [] if dirty else [git("log", "-1", "--format=%H", "--", name).stdout.strip()]
    if not dirty and not writer[0]:
        return ["no commit wrote it"], rev
    if git("diff", "--quiet", rev, *writer, "--", *SOURCE, check=False).returncode != 0:
        where = writer[0][:7] if writer else "the working tree"
        return [f"{' and '.join(SOURCE)} at {where}, which wrote it, differ from "
                f"{rev[:7]}, the commit its records ran"], rev
    return [], rev


def main() -> int:
    failed = False
    for path in sorted(ROOT.glob("BENCH_*.json")):
        found, rev = problems(path)
        if rev is not None and not found:
            stale = git("rev-list", "--count", f"{rev}..HEAD", "--", *SOURCE).stdout.strip()
            print(f"{path.name}: records of {rev[:7]}, behind HEAD by {stale} "
                  "source-changing commit(s)")
        for problem in found:
            failed = True
            print(f"{path.name}: {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
