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
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import (
    MODELS,
    BenchRow,
    DataSet,
    SyntheticSpec,
    generate,
    load_csv,
    load_fvecs,
)
from .norms import NormOrder, as_norm_order
from .oracle import CalibrationSpec, brute_force_range, calibrate_epsilon
from .projection import MODES, ORTHOGONAL
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


def _check_epsilon(epsilon: float) -> None:
    """A search radius is finite and above 0; checked before any data."""
    if not 0.0 < epsilon < math.inf:
        raise CliInputError(f"epsilon {epsilon} must be finite and above 0")


def _check_out(path) -> None:
    """A report path names no directory, and its directory exists and is
    writable; checked before any data are made or an index is loaded, so
    that a report that cannot be written is not found after all the work."""
    target = Path(path)
    if not target.parent.is_dir():
        raise CliInputError(f"{path}: no directory {target.parent}")
    if target.is_dir():
        raise CliInputError(f"{path}: is a directory")
    if not os.access(target.parent, os.W_OK | os.X_OK):
        raise CliInputError(f"{path}: directory {target.parent} is not writable")


def _write_json(payload, path) -> None:
    """Write a report as strict JSON: a non-finite float raises before the
    file is opened, since NaN and Infinity are not JSON."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def _help(default, text: str | None = None, bench: bool = False):
    """A BenchConfig field's default with its flag's help text; a ``bench``
    field is a flag of ``bench`` only, since ``build`` never reads it."""
    return field(default=default, metadata={"help": text, "bench": bench})


@dataclass(frozen=True)
class BenchConfig:
    """Dataset source, schedule, and benchmark matrix for build/bench runs.

    Every field is a config-file key (``block_size=4``) and a flag
    (``--block-size 4``), read as its declared type: a tuple from
    comma-separated values, ``X | None`` as X.  The five fields marked
    ``bench`` are flags of ``bench`` only, and ``build`` ignores them in a
    config file.  ``_ALIASES`` names the paper's letters for four fields.
    The synthetic-data fields default to ``SyntheticSpec``'s values.
    Unknown modes or norm labels, an empty mode or norm list and a fixed
    epsilon that is not finite and above 0 are rejected here, so before any
    data are loaded or generated.
    Each cell is listed once: ``modes`` is kept sorted without repeats and
    ``norms`` as canonical labels (``NormOrder.label``) sorted by p, so
    ``2,2.0,inf,oo`` is the two cells ``2`` and ``inf``.
    """

    data: str | None = _help(None, "dataset file (.fvecs or .csv)")
    model: str = _help(SyntheticSpec.model, "synthetic model: " + ", ".join(MODELS))
    count: int = _help(2000, "synthetic dataset size")
    dim: int = _help(64, "synthetic dimensionality")
    block_size: int = SyntheticSpec.block_size
    correlation: float = SyntheticSpec.correlation
    window: int = SyntheticSpec.window
    schedule: tuple[int, ...] = _help((64, 16, 4), "comma-separated dims, e.g. 64,16,4")
    modes: tuple[str, ...] = _help((ORTHOGONAL,),
                                   "comma-separated subset of " + ",".join(MODES))
    norms: tuple[str, ...] = _help(("2",), "comma-separated, e.g. 1,2,4,inf")
    epsilon: float | None = _help(None, "fixed epsilon (omit to calibrate)", bench=True)
    target_nn: int = _help(52, bench=True)
    calibration_sample: int = _help(400, bench=True)
    queries: int = _help(400, "query sample size", bench=True)
    verify_queries: int = _help(20, bench=True)
    seed: int = 0
    out: str | None = _help(None, "output path (bench: a JSON report)")

    def __post_init__(self) -> None:
        if not self.modes or not self.norms:
            raise CliInputError("no (mode, norm) cells configured")
        unknown = sorted(set(self.modes) - set(MODES))
        if unknown:
            raise CliInputError(f"unknown modes {unknown}")
        orders = set()
        for label in self.norms:
            try:
                orders.add(as_norm_order(label).p)
            except ValueError as exc:
                raise CliInputError(f"norms: {label!r} is not a norm order: {exc}") from None
        object.__setattr__(self, "modes", tuple(sorted(set(self.modes))))
        object.__setattr__(self, "norms", tuple(NormOrder(p).label() for p in sorted(orders)))
        if self.epsilon is not None:
            _check_epsilon(self.epsilon)

    def dataset(self) -> DataSet:
        if self.data is not None:
            return load_vector_file(self.data)
        return generate(SyntheticSpec(
            count=self.count, dim=self.dim, model=self.model,
            block_size=self.block_size, correlation=self.correlation,
            window=self.window, rng_seed=self.seed))


# the paper's letters for four keys, in a config file and as flags
_ALIASES = {"s": "count", "n": "dim", "m": "block_size", "rho": "correlation"}


def _parser(hint):
    """The function that reads a value of type ``hint`` from its text."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        item = _parser(args[0])
        return lambda text: tuple(item(part.strip()) for part in text.split(",")
                                  if part.strip())
    if type(None) in args:  # X | None
        return _parser(args[0])
    return hint


# each BenchConfig field's name and the parser of its declared type
_KEYS = {name: _parser(hint) for name, hint in get_type_hints(BenchConfig).items()}


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys rejected."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise CliInputError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = _ALIASES.get(key.strip(), key.strip())
        if key not in _KEYS:
            raise CliInputError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key](value.strip())
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
    values = parse_config_file(args.config) if args.config else {}
    # a file key this command has no flag for (a bench key, under build) is
    # ignored; flags win over the file
    values = {key: value for key, value in values.items() if key in vars(args)}
    values.update((key, getattr(args, key)) for key in _KEYS
                  if getattr(args, key, None) is not None)
    return BenchConfig(**values)


def run_build(config: BenchConfig, log=print) -> list[str]:
    """Build one index per (mode, norm) cell and persist each to disk."""
    if config.out is None:
        raise CliInputError("build requires an output path (--out or out=)")
    _check_out(config.out)
    data = config.dataset()
    schedule = DimensionSchedule(config.schedule)
    cells = [(mode, norm) for mode in config.modes for norm in config.norms]
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
        for entry, grid, term in zip(index.diversion_summary(), index.grids, index.grid_terms):
            grid = "" if grid is None else f", grid step {grid[1]:.6g}, grid term {term:.6g}"
            log(f"  level {entry['level']} (block size {entry['block_size']}): "
                f"max diversion {entry['max_diversion']:.6f}, "
                f"mean {entry['mean_diversion']:.6f}{grid}")
        written.append(str(target))
    return written


def run_query(index_path, queries_path, epsilon: float, out_path=None,
              log=print) -> list:
    """Run a range query for every vector in the query file."""
    _check_epsilon(epsilon)
    if out_path is not None:
        _check_out(out_path)
    index = load_index(index_path)
    queries = load_vector_file(queries_path)
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
        _write_json(payload, out_path)
        log(f"wrote {len(reports)} query reports -> {out_path}")
    return reports


def run_bench(config: BenchConfig, log=print) -> list[BenchRow]:
    """Execute the benchmark matrix and return one row per (mode, norm) cell.

    Queries are a disjoint sample: the sampled rows are removed from the
    indexed set.  Epsilon is the configured fixed value or is calibrated
    once per norm, before any build; the first verify_queries results of a
    cell are checked against the brute-force oracle, so at least one must be.
    """
    if config.verify_queries < 1:
        raise CliInputError(f"verify_queries {config.verify_queries} must be at "
                            "least 1: every cell is checked against the oracle")
    if config.out is not None:
        _check_out(config.out)
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

    norms = {label: as_norm_order(label) for label in config.norms}
    epsilons = dict.fromkeys(norms, config.epsilon)
    if config.epsilon is None:
        # the held-out sample leaves at least target_nn rows to search
        spec = CalibrationSpec(
            min(config.calibration_sample, max(1, len(scanned) - config.target_nn)),
            config.target_nn)
        epsilons = {label: calibrate_epsilon(scanned, spec, norm, rng_seed=config.seed + 1)
                    for label, norm in norms.items()}
    rows = []
    for mode in config.modes:
        for norm_label, norm in norms.items():
            epsilon = float(epsilons[norm_label])
            index = build_index(scanned, schedule, mode, norm)
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
            except ValueError:  # every survivor count is zero
                const = None
            estimated = (None if const is None
                         else estimate_cost(schedule, len(scanned), const))
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
        _write_json([asdict(row) for row in rows], config.out)
        log(f"wrote {len(rows)} rows -> {config.out}")
    return rows


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _add_config_flags(parser: argparse.ArgumentParser, bench: bool) -> None:
    """``--config`` and one flag per BenchConfig field, with its aliases;
    the fields marked ``bench`` only if ``bench``."""
    parser.add_argument("--config", help="flat key=value config file")
    for spec in fields(BenchConfig):
        if spec.metadata.get("bench") and not bench:
            continue
        names = [spec.name, *(alias for alias, key in _ALIASES.items() if key == spec.name)]
        flags = [f"-{name}" if len(name) == 1 else "--" + name.replace("_", "-")
                 for name in names]
        parser.add_argument(*flags, dest=spec.name, type=_KEYS[spec.name],
                            help=spec.metadata.get("help"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="lpcascade",
                     description="Exact l_p range search over subspace cascades")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", parents=[], help="build and persist indexes")
    _add_config_flags(build, bench=False)

    query = commands.add_parser("query", help="run range queries against an index")
    query.add_argument("--index", required=True, help="index container file")
    query.add_argument("--queries", required=True, help="query vector file")
    query.add_argument("--epsilon", type=float, required=True)
    query.add_argument("--out", help="also write the reports as JSON")

    bench = commands.add_parser("bench", help="run the benchmark matrix")
    _add_config_flags(bench, bench=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "build":
            run_build(_config_from_args(args))
        elif args.command == "query":
            run_query(args.index, args.queries, args.epsilon, out_path=args.out)
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
