"""lpcascade benchmark: named workloads run against the public library API.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

A run generates its inputs from the seed in a child process, sets up the
indexes, then runs a closed loop with one client for --seconds: each range
query is sent when the previous one returns.  Every run checks its queries
against brute_force_range (all of them, or a seeded subset of stated size)
and fails on any difference.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the loop untraced
for half the time, replays the same queries with spans recorded at the
library's module boundaries (tracing.py), asserts that the replay matches
the untraced answers and survivor counts, and prints the per-layer metrics.
The last stdout line is one JSON object; the full result with run metadata,
and the spans of a traced run, are written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NPROC = len(os.sched_getaffinity(0))

# BLAS reads its thread count once, when numpy loads: one thread per CPU,
# whatever the caller's environment says.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import lpcascade as lp  # noqa: E402

if not Path(lp.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"lpcascade was imported from {lp.__file__}, not from {ROOT / 'src'}")

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    """Inputs and set-up of one workload; the seed picks the data."""

    name: str
    data: dict                      # SyntheticSpec fields except rng_seed and count
    count: int                      # indexed rows; queries are held out on top
    schedule: tuple[int, ...]
    mode: str
    norms: tuple[str, ...]          # queries go round-robin over these
    pool: int                       # held-out query rows
    epsilon: tuple[int, int] | float  # (sample size, target_nn) to calibrate, or a value
    reload: bool                    # set-up is build + save + load
    setup_repeats: int
    verify_cap: int                 # most queries checked against the scan per run


WORKLOADS = {w.name: w for w in (
    Workload("desk", dict(dim=64, model="block-correlated", block_size=4, correlation=0.8),
             20_000, (64, 16, 4), "adaptive", ("1", "2", "4", "inf"), pool=2048,
             epsilon=(400, 52), reload=False, setup_repeats=1, verify_cap=200),
    Workload("gist-deep", dict(dim=960, model="block-correlated", block_size=4, correlation=0.8),
             20_000, (960, 480, 240, 120, 60, 30, 10, 5), "adaptive", ("2",), pool=256,
             epsilon=(50, 52), reload=False, setup_repeats=1, verify_cap=16),
    Workload("rgb-reload", dict(dim=12_288, model="piecewise-smooth", window=16),
             4_096, (12_288, 768, 48, 12), "orthogonal", ("1",), pool=512,
             # A reloading service does not recalibrate; it runs with a configured
             # epsilon: the median of calibrate_epsilon (16 samples, 52-NN, l_1)
             # over 29 datasets of this model.  Calibrating in every run from a
             # small sample moved survivors, and so latency, by up to 25%.
             epsilon=989_000.0, reload=True, setup_repeats=3, verify_cap=8),
)}

MAX_LEVELS = max(len(w.schedule) - 1 for w in WORKLOADS.values())
NORM_NAMES = {"1": "l1", "2": "l2", "4": "l4", "inf": "linf"}

END_TO_END = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p75": "ms",
    "qps": "1/s",
    "peak_rss_mb": "MiB",
    "index_mb": "MiB",
    "counted_ratio": "ratio",
}


def _per_layer_units() -> dict[str, str]:
    units = {"norms.dist_calls": "calls/query", "norms.dist_elems": "elems/query"}
    units.update({f"norms.{n}.elems_per_s": "1/s" for n in NORM_NAMES.values()})
    units["norms.computed_gb_s"] = "GB/s"
    for k in range(1, MAX_LEVELS + 1):
        units.update({f"tree.level{k}.candidates": "rows", f"tree.level{k}.survivors": "rows",
                      f"tree.level{k}.keep_frac": "ratio", f"tree.level{k}.dist_ms": "ms",
                      f"tree.level{k}.margin": "distance"})
    units.update({"tree.counted_ops": "ops", "tree.scan_ops": "ops",
                  "tree.verify.dist_ms": "ms", "tree.verify.candidates": "rows",
                  "tree.verify.hit_frac": "ratio", "tree.query_self_ms": "ms",
                  "tree.project_query_ms": "ms"})
    for n in NORM_NAMES.values():
        units[f"tree.{n}.query_ms_p50"] = "ms"
        units[f"tree.{n}.counted_ratio"] = "ratio"
    units["tree.build_s"] = "s"
    for k in range(1, MAX_LEVELS + 1):
        units[f"projection.level{k}.fit_s"] = "s"
        units[f"projection.level{k}.project_s"] = "s"
    units.update({"covariance.pca_calls": "count", "covariance.pca_s": "s",
                  "covariance.unconverged": "count",
                  "tree.save_s": "s", "tree.load_s": "s", "tree.file_mb": "MiB",
                  "oracle.calibrate_s": "s", "oracle.calibrate_scans": "count",
                  "oracle.scan_ms_p50": "ms", "baseline.gemm_scan_ms": "ms",
                  "tree.wall_ratio": "ratio", "data.generate_s": "s",
                  "trace.overhead": "ratio", "trace.missing": "count"})
    return units


PER_LAYER = _per_layer_units()


@dataclass(frozen=True)
class Sample:
    """One timed query: its place in the loop and what came back."""

    pos: int
    norm: str
    row: int
    seconds: float
    report: object | None
    error: str | None


def generate_inputs(w: Workload, seed: int, workdir: Path):
    """Indexed DataSet, held-out query rows, and the generator's seconds."""
    spec = dict(w.data, count=w.count + w.pool, rng_seed=seed, pool=w.pool)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("gendata.py")), str(workdir),
         json.dumps(spec)], capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    generate_s = json.loads(proc.stdout.strip().splitlines()[-1])["generate_s"]
    data = lp.DataSet.from_array(np.load(workdir / "indexed.npy"))
    queries = np.load(workdir / "queries.npy")
    return data, queries, generate_s


def settle(workdir: Path) -> None:
    """Flush the files this run wrote, so that the kernel's write-back of
    inputs and saved indexes does not run inside a later timed phase."""
    for path in workdir.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def set_up(w: Workload, data, seed: int, workdir: Path):
    """(indexes by norm, epsilon by norm, set-up seconds)."""
    start = time.perf_counter()
    if isinstance(w.epsilon, tuple):
        sample, target_nn = w.epsilon
        spec = lp.CalibrationSpec(sample_size=sample, target_nn=target_nn)
        epsilons = {norm: lp.calibrate_epsilon(data, spec, norm, rng_seed=seed + 1)
                    for norm in w.norms}
    else:
        epsilons = {norm: w.epsilon for norm in w.norms}
    schedule = lp.DimensionSchedule(w.schedule)
    indexes = {}
    for norm in w.norms:
        index = lp.build_index(data, schedule, w.mode, norm)
        if w.reload:
            path = workdir / f"index-l{norm}.lpc"
            lp.save_index(index, path)
            index = lp.load_index(path, mmap_data=True)
        indexes[norm] = index
    return indexes, epsilons, time.perf_counter() - start


def closed_loop(w: Workload, indexes, epsilons, queries, seconds=None, count=None,
                tracer=None):
    """One client, each query sent when the previous returns.

    Runs for ``seconds`` or for exactly ``count`` queries.  Position i always
    sends pool row i mod pool under norm i mod len(norms), so a replay with
    ``count`` repeats the same queries.  Returns (samples, phase seconds).
    """
    samples = []
    phase_start = time.perf_counter()
    pos = 0
    while count is None or pos < count:
        norm = w.norms[pos % len(w.norms)]
        row = pos % len(queries)
        if tracer is not None:
            tracer.query = pos
        start = time.perf_counter()
        try:
            report, error = lp.range_query(indexes[norm], queries[row], epsilons[norm]), None
        except Exception as exc:  # noqa: BLE001 - a raising query is counted, not fatal
            report, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        samples.append(Sample(pos, norm, row, end - start, report, error))
        pos += 1
        if count is None and end - phase_start >= seconds:
            break
    if tracer is not None:
        tracer.query = None
    return samples, time.perf_counter() - phase_start


def verify_positions(n: int, cap: int, seed: int) -> list[int]:
    """All n positions, or a fixed seeded subset of ``cap`` of them."""
    if n <= cap:
        return list(range(n))
    rng = np.random.Generator(np.random.Philox(key=seed + 2))
    return sorted(int(p) for p in rng.choice(n, size=cap, replace=False))


def verify(data, queries, epsilons, samples, positions):
    """Check the given positions against brute_force_range.

    Returns (failures, checked positions, scan seconds, expected ids by
    position).  A query that raised is a failure wherever it sits.
    """
    failures = [f"query {s.pos} (l_{s.norm}, pool row {s.row}) raised {s.error}"
                for s in samples if s.error is not None]
    checked = {s.pos for s in samples if s.error is not None}
    scans = []
    expected = {}
    for pos in positions:
        s = samples[pos]
        if s.error is not None:
            continue
        start = time.perf_counter()
        truth = lp.brute_force_range(data, queries[s.row], epsilons[s.norm], s.norm)
        scans.append(time.perf_counter() - start)
        expected[pos] = tuple(ident for ident, _ in truth)
        checked.add(pos)
        got = tuple(s.report.match_ids)
        if got != expected[pos]:
            missing = len(set(expected[pos]) - set(got))
            extra = len(set(got) - set(expected[pos]))
            failures.append(f"query {s.pos} (l_{s.norm}, pool row {s.row}): {missing} "
                            f"matches missing, {extra} extra against brute_force_range")
    return failures, checked, scans, expected


def gemm_scan(data, rows, epsilon: float, chunk: int = 128):
    """Exact batched l_2 range scan: id tuples for each query row.

    ||x||^2 + ||q||^2 - 2 x.q by one GEMM per chunk of queries (the exact
    scan of Johnson, Douze and Jegou, arXiv 1702.08734).  Rows within a
    rounding margin of epsilon^2 are rechecked with the oracle's own
    arithmetic, so the answer equals the serial scan's.
    """
    vectors = data.vectors
    x_sq = np.einsum("ij,ij->i", vectors, vectors)
    # a gamma_n bound on the expansion's rounding, with room to spare
    slack = (4 * vectors.shape[1] + 16) * np.finfo(np.float64).eps
    out = []
    for start in range(0, len(rows), chunk):
        block = rows[start:start + chunk]
        q_sq = np.einsum("ij,ij->i", block, block)
        scale = x_sq[None, :] + q_sq[:, None]
        d_sq = scale - 2.0 * (block @ vectors.T)
        near = d_sq < epsilon * epsilon + slack * scale
        for query, mask in zip(block, near):
            cand = np.nonzero(mask)[0]
            diff = np.abs(vectors[cand] - query)
            exact = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            out.append(tuple(int(i) for i in data.ids[cand[exact < epsilon]]))
    return out


def percentile_ms(samples, q) -> float:
    return float(np.percentile([s.seconds for s in samples], q)) * 1e3


def index_mib(indexes) -> float:
    """Feature matrices plus the levels' own arrays (directions, scales)."""
    total = 0
    for index in indexes.values():
        total += sum(f.nbytes for f in index.features)
        for level in index.levels:
            total += sum(v.nbytes for v in vars(level).values() if isinstance(v, np.ndarray))
    return total / 2**20


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(samples, phase_s, setup_times, peak_mib, indexes) -> dict[str, float]:
    reports = [s.report for s in samples if s.report is not None]
    return {
        "setup_s": statistics.median(setup_times),
        "query_ms_p50": percentile_ms(samples, 50),
        "query_ms_p75": percentile_ms(samples, 75),
        "qps": len(samples) / phase_s,
        "peak_rss_mb": peak_mib,
        "index_mb": index_mib(indexes),
        "counted_ratio": float(np.mean([r.ratio for r in reports])) if reports else 0.0,
    }


def layer_metrics(w: Workload, tracer: Tracer, untraced, traced, indexes, extra) -> dict:
    """Per-layer metrics from the spans and the untraced reports.

    Levels and norms a workload does not have report 0.
    """
    dims = w.schedule
    levels = len(dims) - 1
    spans = tracer.spans
    names = {s.sid: s.name for s in spans}
    m = {}

    def total(name, **attrs):
        return sum(s.duration for s in spans if s.name == name
                   and all(s.attrs.get(k) == v for k, v in attrs.items()))

    in_query = [s for s in spans if s.query is not None]
    n_traced = max(1, len(traced))
    # the query kernel only: calibration and oracle scans are reported under oracle
    dist = [s for s in in_query if s.name == "tree.distances_to_point"]
    elems = sum(s.attrs.get("rows", 0) * s.attrs.get("dim", 0) for s in dist)
    m["norms.dist_calls"] = len(dist) / n_traced
    m["norms.dist_elems"] = elems / n_traced
    for label, name in NORM_NAMES.items():
        mine = [s for s in dist if s.attrs.get("norm") == label]
        busy = sum(s.duration for s in mine)
        m[f"norms.{name}.elems_per_s"] = (
            sum(s.attrs["rows"] * s.attrs["dim"] for s in mine) / busy if busy else 0.0)
    busy = sum(s.duration for s in dist)
    m["norms.computed_gb_s"] = 8 * elems / busy / 1e9 if busy else 0.0

    reports = [s.report for s in untraced if s.report is not None]
    surv = np.array([r.survivors for r in reports], dtype=np.float64)
    rows = next(iter(indexes.values())).count

    def dist_ms(dim):
        """Mean ms per traced query in distances at one level's dimension."""
        return 1e3 * sum(s.duration for s in in_query if s.name == "tree.distances_to_point"
                         and s.attrs.get("dim") == dim) / n_traced

    for k in range(1, MAX_LEVELS + 1):
        if k <= levels:
            cand = np.full(len(surv), float(rows)) if k == levels else surv[:, k + 1]
            m[f"tree.level{k}.candidates"] = float(cand.mean())
            m[f"tree.level{k}.survivors"] = float(surv[:, k].mean())
            m[f"tree.level{k}.keep_frac"] = float(surv[:, k].sum() / cand.sum())
            m[f"tree.level{k}.dist_ms"] = dist_ms(dims[k])
            m[f"tree.level{k}.margin"] = max(float(i.prune_margins[k - 1])
                                             for i in indexes.values())
        else:
            for key in ("candidates", "survivors", "keep_frac", "dist_ms", "margin"):
                m[f"tree.level{k}.{key}"] = 0.0
    m["tree.counted_ops"] = float(np.mean([r.cost_s for r in reports]))
    m["tree.scan_ops"] = float(np.mean([r.cost_l for r in reports]))
    m["tree.verify.dist_ms"] = dist_ms(dims[0])
    m["tree.verify.candidates"] = float(surv[:, 1].mean())
    verified = surv[:, 1].sum()
    m["tree.verify.hit_frac"] = float(surv[:, 0].sum() / verified) if verified else 0.0
    self_times = tracer.self_times()
    queries = [s for s in spans if s.name == "tree.range_query"]
    m["tree.query_self_ms"] = 1e3 * sum(self_times[s.sid] for s in queries) / n_traced
    m["tree.project_query_ms"] = 1e3 * sum(
        s.duration for s in in_query if s.name == "tree.project_level") / n_traced
    for label, name in NORM_NAMES.items():
        mine = [s for s in untraced if s.norm == label]
        m[f"tree.{name}.query_ms_p50"] = percentile_ms(mine, 50) if mine else 0.0
        ratios = [s.report.ratio for s in mine if s.report is not None]
        m[f"tree.{name}.counted_ratio"] = float(np.mean(ratios)) if ratios else 0.0

    m["tree.build_s"] = total("tree.build_index")
    for k in range(1, MAX_LEVELS + 1):
        dim_out = dims[k] if k <= levels else -1
        m[f"projection.level{k}.fit_s"] = total("tree.fit_adaptive_level", dim_out=dim_out)
        m[f"projection.level{k}.project_s"] = total("tree.project_rows", dim_out=dim_out)
    pca = [s for s in spans if s.name == "projection.first_principal_component"]
    m["covariance.pca_calls"] = len(pca)
    m["covariance.pca_s"] = sum(s.duration for s in pca)
    m["covariance.unconverged"] = sum(
        level["unconverged_fits"] for index in indexes.values()
        for level in index.diversion_summary())
    m["tree.save_s"] = total("tree.save_index")
    m["tree.load_s"] = total("tree.load_index")
    m["tree.file_mb"] = extra["file_bytes"] / 2**20

    m["oracle.calibrate_s"] = total("oracle.calibrate_epsilon")
    m["oracle.calibrate_scans"] = sum(
        1 for s in spans if s.name == "oracle.distances_to_point"
        and names.get(s.parent) == "oracle.calibrate_epsilon")
    scans = [s.duration for s in spans if s.name == "oracle.brute_force_range"]
    m["oracle.scan_ms_p50"] = 1e3 * statistics.median(scans) if scans else 0.0
    m["baseline.gemm_scan_ms"] = extra["gemm_ms"]
    untraced_p50 = percentile_ms(untraced, 50)
    m["tree.wall_ratio"] = m["oracle.scan_ms_p50"] / untraced_p50
    m["data.generate_s"] = extra["generate_s"]
    m["trace.overhead"] = percentile_ms(traced, 50) / untraced_p50
    m["trace.missing"] = len(tracer.missing)
    return m


def compare_runs(untraced, traced) -> list[str]:
    """Differences in matches or survivors between the two passes."""
    failures = []
    for a, b in zip(untraced, traced):
        if (a.error is None) != (b.error is None):
            failures.append(f"query {a.pos}: raised in one pass only")
        elif a.report is not None and (a.report.matches != b.report.matches
                                       or a.report.survivors != b.report.survivors):
            failures.append(f"query {a.pos} (l_{a.norm}, pool row {a.row}): traced "
                            "matches or survivors differ from the untraced run")
    if len(untraced) != len(traced):
        failures.append(f"traced replay ran {len(traced)} of {len(untraced)} queries")
    return failures


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run: the outcome counts, metrics, failures and details."""
    data, queries, generate_s = generate_inputs(w, seed, workdir)
    settle(workdir)
    if trace:
        return _run_traced(w, seed, seconds, workdir, data, queries, generate_s)
    setup_times = []
    indexes = None
    for _ in range(w.setup_repeats):
        indexes = None  # a reloaded index maps its file; release it before rewriting
        indexes, epsilons, secs = set_up(w, data, seed, workdir)
        setup_times.append(secs)
        settle(workdir)
    samples, phase_s = closed_loop(w, indexes, epsilons, queries, seconds=seconds)
    peak_mib = peak_rss_mib()  # before the oracle's scans, which are not the service's
    failures, checked, scans, _ = verify(data, queries, epsilons, samples,
                                         verify_positions(len(samples), w.verify_cap, seed))
    reports = [s.report for s in samples if s.report is not None]
    detail = {"setup_times_s": setup_times, "generate_s": generate_s, "epsilons": epsilons,
              "scan_ms_p50": 1e3 * statistics.median(scans) if scans else None,
              "query_ms_p90": percentile_ms(samples, 90),
              "query_ms_p99": percentile_ms(samples, 99),
              "survivors_mean": np.mean([r.survivors for r in reports], axis=0).tolist()}
    return {"correct": not failures, "attempted": len(samples), "failed": len(failures),
            "metrics": end_to_end_metrics(samples, phase_s, setup_times, peak_mib, indexes),
            "failures": failures, "checked": len(checked), "detail": detail, "tracer": None}


def _run_traced(w: Workload, seed: int, seconds: float, workdir: Path, data, queries,
                generate_s: float) -> dict:
    """Traced set-up, an untraced pass, then a traced replay of its queries."""
    tracer = Tracer()
    with tracer.installed():
        indexes, epsilons, _ = set_up(w, data, seed, workdir)
    settle(workdir)
    file_bytes = sum(p.stat().st_size for p in workdir.glob("index-*.lpc"))
    untraced, _ = closed_loop(w, indexes, epsilons, queries, seconds=seconds / 2)
    with tracer.installed():
        traced, _ = closed_loop(w, indexes, epsilons, queries, count=len(untraced),
                                tracer=tracer)
        failures, checked, _, expected = verify(
            data, queries, epsilons, traced, verify_positions(len(traced), w.verify_cap, seed))
    failures += compare_runs(untraced, traced)
    gemm_ms = 0.0
    if "2" in w.norms:
        l2 = [s for s in traced if s.norm == "2"]
        start = time.perf_counter()
        found = gemm_scan(data, queries[[s.row for s in l2]], epsilons["2"])
        gemm_ms = 1e3 * (time.perf_counter() - start) / max(1, len(l2))
        failures += [f"query {s.pos} (l_2, pool row {s.row}): GEMM scan baseline "
                     "disagrees with brute_force_range"
                     for s, ids in zip(l2, found)
                     if s.pos in expected and ids != expected[s.pos]]
    metrics = layer_metrics(w, tracer, untraced, traced, indexes,
                            {"file_bytes": file_bytes, "gemm_ms": gemm_ms,
                             "generate_s": generate_s})
    detail = {"trace_missing": tracer.missing, "epsilons": epsilons, "spans": len(tracer.spans)}
    return {"correct": not failures, "attempted": len(untraced) + len(traced),
            "failed": len(failures), "metrics": metrics, "failures": failures,
            "checked": len(checked), "detail": detail, "tracer": tracer}


def metadata(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    try:
        why = {x["name"]: x["why"] for x in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}.get(w.name, "")
    except (OSError, ValueError, KeyError):
        why = ""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    git_rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        git_rev = proc.stdout.strip() or git_rev
    return {"workload": w.name, "why": why, "seed": seed, "seconds": seconds,
            "trace": trace, "git_rev": git_rev, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": NPROC,
            "closed_loop_clients": 1, "schedule": list(w.schedule), "mode": w.mode,
            "norms": list(w.norms), "indexed_rows": w.count, "query_pool": w.pool}


def result_line(result: dict, trace: bool) -> str:
    """The final stdout line: outcome counts and every metric with its unit."""
    units = PER_LAYER if trace else END_TO_END
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    meta = metadata(w, args.seed, args.seconds, trace)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(w, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if trace:
        result["tracer"].write(out / f"{stem}-spans.jsonl")
    record = {key: value for key, value in result.items() if key != "tracer"}
    record["meta"] = meta
    record["error_rate"] = result["failed"] / max(1, result["checked"])
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(f"# meta {json.dumps(meta)}")
    if result["detail"].get("trace_missing"):
        print(f"# trace: boundary names not found: {result['detail']['trace_missing']}")
    for name, value in result["metrics"].items():
        print(f"{name} {value!r} {units[name]}")
    if not trace:
        for q in (90, 99):
            beyond = result["attempted"] * (100 - q) // 100
            print(f"# query_ms_p{q} {result['detail'][f'query_ms_p{q}']!r} ms, "
                  f"{beyond} of {result['attempted']} queries beyond it (not gated)")
    print(f"# error_rate {record['error_rate']!r}: {result['failed']} failed of "
          f"{result['checked']} checked against brute_force_range, "
          f"{result['attempted']} queries timed")
    for failure in result["failures"]:
        print(f"# FAILED {failure}", file=sys.stderr)
    print(result_line(result, trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
