"""Command-line front end: build indexes, run queries, benchmark cells.

Configuration comes from a flat key=value file, a matching set of flags
(flags win), or both.  Exit codes: 0 success, 1 input error, 2 internal
invariant violation (the benchmark harness re-verifies a subsample of every
cell against the brute-force oracle and refuses to report numbers that
disagree with it).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    BenchRow,
    DataSet,
    SyntheticSpec,
    generate,
    load_csv,
    load_fvecs,
    write_report,
)
from .norms import as_norm_order
from .oracle import CalibrationSpec, brute_force_range, calibrate_epsilon
from .projection import ADAPTIVE, ORTHOGONAL
from .reference import REFERENCE_TABLES, match_reference
from .tree import (
    DimensionSchedule,
    build_index,
    estimate_cost,
    fit_const,
    load_index,
    range_query,
    save_index,
)

__all__ = ["BenchConfig", "InternalCheckError", "run_build", "run_query",
           "run_bench", "main"]


class CliInputError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    """A result disagreed with the oracle; reported numbers would be wrong."""


@dataclass(frozen=True)
class BenchConfig:
    """Dataset source, schedule, and benchmark matrix for build/bench runs."""

    data: str | None = None
    model: str = "iid-uniform"
    count: int = 2000
    dim: int = 64
    block_size: int = 4
    correlation: float = 0.5
    window: int = 4
    schedule: tuple[int, ...] = (64, 16, 4)
    modes: tuple[str, ...] = ("orthogonal",)
    norms: tuple[str, ...] = ("2",)
    epsilon: float | None = None
    target_nn: int = 52
    calibration_sample: int = 400
    queries: int = 400
    verify_queries: int = 20
    seed: int = 0
    out: str | None = None
    format: str = "csv"

    def dataset(self) -> DataSet:
        if self.data is not None:
            return load_vector_file(self.data)
        return generate(SyntheticSpec(
            count=self.count, dim=self.dim, model=self.model,
            block_size=self.block_size, correlation=self.correlation,
            window=self.window, rng_seed=self.seed))


_LIST_KEYS = {"schedule", "modes", "norms"}
_INT_KEYS = {"count", "dim", "block_size", "window", "target_nn",
             "calibration_sample", "queries", "verify_queries", "seed"}
_FLOAT_KEYS = {"correlation", "epsilon"}
_KEY_ALIASES = {"s": "count", "n": "dim", "m": "block_size", "rho": "correlation"}
_FORMATS = ("csv", "json")


def _coerce(key: str, value: str):
    if key == "schedule":
        return tuple(int(part) for part in value.split(",") if part)
    if key in _LIST_KEYS:
        return tuple(part.strip() for part in value.split(",") if part.strip())
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys rejected."""
    known = {f.name for f in fields(BenchConfig)}
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise CliInputError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        if key not in known:
            raise CliInputError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, value.strip())
        except ValueError as exc:
            raise CliInputError(f"{path}:{lineno}: {exc}") from None
    return values


def load_vector_file(path) -> DataSet:
    """Route a dataset/query file by extension (.fvecs or .csv)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return load_csv(path)
    return load_fvecs(path)


def _config_from_args(args) -> BenchConfig:
    config = BenchConfig()
    if args.config:
        config = replace(config, **parse_config_file(args.config))
    overrides = {}
    for spec_field in fields(BenchConfig):
        value = getattr(args, spec_field.name, None)
        if value is not None:
            overrides[spec_field.name] = value
    if overrides:
        config = replace(config, **overrides)
    return config


def _check_matrix(config: BenchConfig) -> None:
    """Reject unknown modes or report formats, from flags or a file, before any cell runs."""
    unknown = sorted(set(config.modes) - {ORTHOGONAL, ADAPTIVE})
    if unknown:
        raise CliInputError(f"unknown modes {unknown}")
    if config.format not in _FORMATS:
        raise CliInputError(f"unknown report format {config.format!r}")


def run_build(config: BenchConfig, log=print) -> list[str]:
    """Build one index per (mode, norm) cell and persist each to disk."""
    if config.out is None:
        raise CliInputError("build requires an output path (--out or out=)")
    _check_matrix(config)
    data = config.dataset()
    schedule = DimensionSchedule(config.schedule)
    cells = [(mode, norm) for mode in sorted(set(config.modes))
             for norm in _sorted_norms(config.norms)]
    if not cells:
        raise CliInputError("no (mode, norm) cells configured")
    out = Path(config.out)
    written = []
    for mode, norm in cells:
        index = build_index(data, schedule, mode, norm)
        if len(cells) == 1:
            target = out
        else:
            target = out.with_name(f"{out.stem}_{mode}_l{norm}{out.suffix}")
        save_index(index, target)
        log(f"built {mode} l_{norm} index over {index.count} x {data.dim} "
            f"-> {target}")
        for entry in index.diversion_summary():
            log(f"  level {entry['level']} (block size {entry['block_size']}): "
                f"max diversion {entry['max_diversion']:.6f}, "
                f"mean {entry['mean_diversion']:.6f}")
        written.append(str(target))
    return written


def run_query(index_path, queries_path, epsilon: float, data_path=None,
              out_path=None, log=print) -> list:
    """Run a range query for every vector in the query file."""
    data = load_vector_file(data_path) if data_path else None
    index = load_index(index_path, data=data)
    queries = load_vector_file(queries_path)
    if queries.dim != index.schedule.dims[0]:
        raise CliInputError(f"query dim {queries.dim} != index dim "
                            f"{index.schedule.dims[0]}")
    reports = []
    for row, query in enumerate(queries.vectors):
        report = range_query(index, query, epsilon)
        reports.append(report)
        hits = " ".join(f"{ident}:{dist:.6g}" for ident, dist in report.matches)
        log(f"query {row}: {len(report.matches)} matches within {epsilon:g}"
            + (f" [{hits}]" if hits else ""))
        log(f"  survivors {list(report.survivors)}, cost_s {report.cost_s}, "
            f"cost_l {report.cost_l}, ratio {report.ratio:.2f}")
    if out_path is not None:
        payload = [{
            "query": row,
            "epsilon": report.epsilon,
            "matches": [[ident, dist] for ident, dist in report.matches],
            "survivors": list(report.survivors),
            "cost_s": report.cost_s,
            "cost_l": report.cost_l,
            "ratio": report.ratio,
        } for row, report in enumerate(reports)]
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        log(f"wrote {len(reports)} query reports -> {out_path}")
    return reports


def _sorted_norms(labels) -> list[str]:
    return sorted(set(labels), key=lambda label: as_norm_order(label).p)


def run_bench(config: BenchConfig, log=print) -> list[BenchRow]:
    """Execute the benchmark matrix and return one row per (mode, norm) cell.

    Queries are a disjoint sample: the sampled rows are removed from the
    indexed set.  Per cell, epsilon is either the configured fixed value or
    calibrated under that cell's norm; the first verify_queries results are
    checked against the brute-force oracle, so at least one must be.
    """
    if config.verify_queries < 1:
        raise CliInputError(f"verify_queries {config.verify_queries} must be at "
                            "least 1: every cell is checked against the oracle")
    _check_matrix(config)
    full = config.dataset()
    if config.queries < 1 or config.queries >= len(full):
        raise CliInputError(f"query sample {config.queries} must be in "
                            f"[1, {len(full) - 1}]")
    schedule = DimensionSchedule(config.schedule)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    chosen = rng.choice(len(full), size=config.queries, replace=False)
    mask = np.ones(len(full), dtype=bool)
    mask[chosen] = False
    scanned = DataSet(vectors=full.vectors[mask], ids=full.ids[mask])
    queries = full.vectors[chosen]

    rows = []
    for mode in sorted(set(config.modes)):
        for norm_label in _sorted_norms(config.norms):
            norm = as_norm_order(norm_label)
            index = build_index(scanned, schedule, mode, norm)
            if config.epsilon is not None:
                epsilon = float(config.epsilon)
            else:
                spec = CalibrationSpec(
                    sample_size=min(config.calibration_sample, len(scanned) - 1),
                    target_nn=config.target_nn)
                epsilon = calibrate_epsilon(scanned, spec, norm,
                                            rng_seed=config.seed + 1)
            reports = [range_query(index, query, epsilon) for query in queries]
            for query, report in zip(queries, reports[:config.verify_queries]):
                expected = [ident for ident, _ in
                            brute_force_range(scanned, query, epsilon, norm)]
                if list(report.match_ids) != expected:
                    raise InternalCheckError(
                        f"cell ({mode}, l_{norm_label}): cascade matches diverge "
                        f"from the brute-force oracle at epsilon {epsilon}")
            try:
                const = fit_const(reports, schedule)
            except ValueError:
                const = math.nan
            estimated = (estimate_cost(schedule, len(scanned), const)
                         if math.isfinite(const) and const > 0 else math.nan)
            survivor_means = np.mean([report.survivors for report in reports],
                                     axis=0)
            row = BenchRow(
                mode=mode,
                norm=norm_label,
                epsilon=epsilon,
                mean_cost=float(np.mean([r.cost_s for r in reports])),
                mean_ratio=float(np.mean([r.ratio for r in reports])),
                mean_survivors=tuple(float(v) for v in survivor_means),
                fitted_const=const,
                estimated_cost=estimated,
            )
            rows.append(row)
            log(f"cell {mode} l_{norm_label}: epsilon {epsilon:.6g}, "
                f"mean cost {row.mean_cost:.1f}, mean ratio {row.mean_ratio:.2f}")

    reference = match_reference(full.dim, len(full))
    if reference is not None:
        log(f"dataset shape matches the {reference} reference corpus; "
            "full-scale reference figures:")
        for ref in REFERENCE_TABLES[reference]["rows"]:
            log(f"  {ref.mode} l_{ref.norm}: epsilon {ref.epsilon:g}, "
                f"mean cost {ref.mean_cost:.0f}, ratio {ref.mean_ratio:.2f}")

    if config.out is not None:
        write_report(rows, config.out, config.format)
        log(f"wrote {len(rows)} rows -> {config.out}")
    return rows


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--data", help="dataset file (.fvecs or .csv)")
    parser.add_argument("--model", choices=("iid-uniform", "block-correlated",
                                            "piecewise-smooth"))
    parser.add_argument("--count", "-s", type=int, help="synthetic dataset size")
    parser.add_argument("--dim", "-n", type=int, help="synthetic dimensionality")
    parser.add_argument("--block-size", "-m", dest="block_size", type=int)
    parser.add_argument("--rho", dest="correlation", type=float)
    parser.add_argument("--window", type=int)
    parser.add_argument("--schedule", type=lambda v: _coerce("schedule", v),
                        help="comma-separated dims, e.g. 64,16,4")
    parser.add_argument("--modes", type=lambda v: _coerce("modes", v),
                        help="comma-separated subset of orthogonal,adaptive")
    parser.add_argument("--norms", type=lambda v: _coerce("norms", v),
                        help="comma-separated, e.g. 1,2,4,inf")
    parser.add_argument("--epsilon", type=float,
                        help="fixed epsilon (omit to calibrate)")
    parser.add_argument("--target-nn", dest="target_nn", type=int)
    parser.add_argument("--calibration-sample", dest="calibration_sample", type=int)
    parser.add_argument("--queries", type=int, help="query sample size")
    parser.add_argument("--verify-queries", dest="verify_queries", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output path")
    parser.add_argument("--format", choices=_FORMATS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lpcascade",
                     description="Exact l_p range search over subspace cascades")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", parents=[], help="build and persist indexes")
    _add_config_flags(build)

    query = commands.add_parser("query", help="run range queries against an index")
    query.add_argument("--index", required=True, help="index container file")
    query.add_argument("--queries", required=True, help="query vector file")
    query.add_argument("--epsilon", type=float, required=True)
    query.add_argument("--data", help="original dataset, for containers saved "
                                      "without embedded vectors")
    query.add_argument("--out", help="also write the reports as JSON")

    bench = commands.add_parser("bench", help="run the benchmark matrix")
    _add_config_flags(bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "build":
            run_build(_config_from_args(args))
        elif args.command == "query":
            run_query(args.index, args.queries, args.epsilon,
                      data_path=args.data, out_path=args.out)
        else:
            run_bench(_config_from_args(args))
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except (CliInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
