"""Span tracing at the library's module boundaries, installed from outside.

The benchmark swaps selected module attributes for wrappers that record one
span per call: its name, start, end, parent span, the query id the benchmark
sets around each range query, and a few shape attributes.  Spans stay in
memory until the run writes them out.  Nothing inside the library changes;
a boundary that a refactor renamed or removed is listed in ``missing`` and
the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    query: int | None
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows_attrs(args, kwargs) -> dict:
    rows, norm = args[0], args[2]
    return {"rows": int(rows.shape[0]), "dim": int(rows.shape[1]),
            "norm": norm.label()}


def _level_attrs(args, kwargs) -> dict:
    return {"dim_out": int(args[1].dim_out)}


def _partition_attrs(args, kwargs) -> dict:
    return {"dim_out": int(args[1].block_count)}


# (module, attribute, span name, attribute extractor).  The package-level
# names are the public API the benchmark calls; the module-level ones are the
# library's own internal calls into the norms, projection and covariance
# layers.  distances_to_point is wrapped separately where tree and oracle
# import it, so index work and oracle scans stay apart.
BOUNDARIES = (
    ("lpcascade.tree", "distances_to_point", "tree.distances_to_point", _rows_attrs),
    ("lpcascade.tree", "project_level", "tree.project_level", _level_attrs),
    ("lpcascade.tree", "project_rows", "tree.project_rows", _level_attrs),
    ("lpcascade.tree", "fit_adaptive_level", "tree.fit_adaptive_level", _partition_attrs),
    ("lpcascade.projection", "first_principal_component",
     "projection.first_principal_component", None),
    ("lpcascade.oracle", "distances_to_point", "oracle.distances_to_point", _rows_attrs),
    ("lpcascade", "range_query", "tree.range_query", None),
    ("lpcascade", "build_index", "tree.build_index", None),
    ("lpcascade", "save_index", "tree.save_index", None),
    ("lpcascade", "load_index", "tree.load_index", None),
    ("lpcascade", "calibrate_epsilon", "oracle.calibrate_epsilon", None),
    ("lpcascade", "brute_force_range", "oracle.brute_force_range", None),
)


class Tracer:
    """Records spans while installed; one tracer per run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.query: int | None = None
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def installed(self):
        """Wrap every boundary found for the duration of the block."""
        saved = []
        for module_name, attr, span_name, describe in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                label = f"{module_name}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, describe))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if describe is not None:
                try:
                    attrs = describe(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    attrs = {}
            parent = self._stack[-1] if self._stack else None
            sid = self._next
            self._next += 1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.query, attrs))
        return traced

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Calls run on one thread, so children never overlap and their
        durations add up to the covered part.
        """
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {span.sid: span.duration - covered[span.sid] for span in self.spans}

    def write(self, path) -> None:
        """One JSON object per line, in the order the spans closed."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
