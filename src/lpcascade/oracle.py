"""Brute-force ground truth and epsilon calibration.

The scan is the defining oracle for the index: every cascade result must
equal it exactly.  Calibration reconstructs the "epsilon for ~k neighbors"
protocol: sample queries, hold them out of the scanned set, take the median
k-th neighbor distance.  Each k-th distance is the float a kernel sweep
over every row gives, found more cheaply under every kernel norm by one
screened pass (``_screened_kth``): a cheap estimate of every row's kernel
distance with a proven error bound leaves the kernel to the few rows near
or below the k-th neighbor.  Under l_2 and l_4 the estimate is a GEMM
expansion that ``norms.l2_band`` or ``norms.l4_band`` screens, one block
of samples at a time, with a scalar pre-screen ahead of the band; under
l_1 and l_inf it is the exact distance between the rows' int16 grid codes
(``norms._code_rows``), each sample on a pool of threads.  Under any
other p each sample's sweep runs as it is, on threads.
"""

from __future__ import annotations

import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import DataSet
from .norms import (
    _EPS,
    L2,
    L4,
    _code_rows,
    _coded,
    _grid_term,
    as_norm_order,
    as_vector,
    distances_to_point,
    l2_band,
    l2_expansion,
    l2_half_width,
    l4_band,
    l4_half_width,
    row_chunks,
    sweep,
)

__all__ = ["CalibrationSpec", "brute_force_range", "calibrate_epsilon"]

# Sample blocks of the l_2 and l_4 screens span this many
# ``norms.CHUNK_BYTES`` of float64 products with every row.  On perfbench's
# gist-deep inputs (50 samples of 20,000 x 960, seed 1, 2 CPUs) l_2
# calibration took 0.19-0.27 s with one and 0.10-0.14 s with four, at the
# same epsilon.
_BLOCK_CHUNKS = 4


@dataclass(frozen=True)
class CalibrationSpec:
    """Protocol constants for epsilon estimation; the sample's k-th
    neighbor distances are always aggregated by their median."""

    sample_size: int = 400
    target_nn: int = 52

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.target_nn < 1:
            raise ValueError(f"target_nn must be >= 1, got {self.target_nn}")


def brute_force_range(data: DataSet, y, epsilon: float, p) -> list[tuple[int, float]]:
    """All (id, distance) pairs with distance strictly below epsilon.

    Scans the whole dataset; cost is s * n by definition.  Returned in
    ascending id order.
    """
    query = as_vector(y, data.dim)
    dist = sweep(data.vectors, None, query, as_norm_order(p), distances_to_point)
    hits = np.nonzero(dist < float(epsilon))[0]
    return [(int(data.ids[i]), float(dist[i])) for i in hits]


def calibrate_epsilon(data: DataSet, spec: CalibrationSpec, p,
                      rng_seed: int = 0) -> float:
    """Median target_nn-th neighbor distance over a held-out query sample.

    The sampled queries are removed from the scanned set, so a query never
    counts itself (or another query) among its neighbors: each sample's
    k-th distance (k = target_nn) is that of a kernel sweep over every row
    in place, with the held-out rows at distance +inf, which leaves the
    k-th smallest distance as it would be without them.  Every k-th
    distance is that sweep's float, so the median is too:

    * Under l_2 and l_4 the samples go in blocks whose (samples x rows)
      float64 products span ``_BLOCK_CHUNKS`` (4) ``norms.CHUNK_BYTES``, 26
      samples for 20,000 rows, in one mapping that every block reuses.  Per
      block, one GEMM (l_2) or three (l_4, with x^2 and x^3 formed one 1 MiB
      row chunk at a time) expand every row's distance, and each sample's
      screened pass runs the kernel on the few rows near or below its k-th
      distance (``_gemm_kth``), which a scalar pre-screen and the band find.
    * Under l_1 and l_inf the rows are coded once on one int16 grid, a
      quarter of the vectors' bytes, freed on return, column-major below
      ``norms._CODE_NARROW`` (128) columns.  Each sample's exact code
      distance to every row bounds the kernel's distance within the grid
      term, and its screened pass runs the kernel on the few rows near or
      below its k-th distance (``_coded_kth``).
    * Under every other norm each sample's sweep runs as it is.

    Under l_1, l_inf and other p the samples split into
    min(``_usable_cpus()``, samples) contiguous parts: the calling thread
    takes the first and a thread pool the rest, each thread writing its own
    samples' slots.
    """
    s = len(data)
    if spec.sample_size > s:
        raise ValueError(f"sample_size {spec.sample_size} exceeds dataset size {s}")
    remaining = s - spec.sample_size
    if spec.target_nn > remaining:
        raise ValueError(
            f"target_nn {spec.target_nn} exceeds the {remaining} points left "
            f"after holding out {spec.sample_size} queries")
    norm = as_norm_order(p)
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    chosen = rng.choice(s, size=spec.sample_size, replace=False)
    vectors, k = data.vectors, spec.target_nn
    kth = np.empty(spec.sample_size)
    if norm in (L2, L4):
        _gemm_kth(vectors, chosen, norm, k, kth)
        return float(np.median(kth))
    codes = step = None
    if _coded(norm):
        codes, (_, step) = _code_rows(vectors)

    def sweep_part(part):
        for pos in part:
            if codes is None:
                kth[pos] = _kth_by_sweep(vectors, chosen, chosen[pos], norm, k)
            else:
                kth[pos] = _coded_kth(vectors, codes, step, chosen, chosen[pos], norm, k)

    parts = np.array_split(np.arange(chosen.size), min(_usable_cpus(), chosen.size))
    with ThreadPoolExecutor(max(1, len(parts) - 1)) as pool:
        # the calling thread sweeps the first part: one pool thread
        # fewer, whose heap would keep its scan buffers resident
        futures = [pool.submit(sweep_part, part) for part in parts[1:]]
        sweep_part(parts[0])
        for future in futures:
            future.result()  # re-raises a worker's exception
    return float(np.median(kth))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a ``taskset`` or cgroup cpuset narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kth_by_sweep(vectors: np.ndarray, chosen: np.ndarray, row, norm, k: int) -> float:
    """The k-th smallest kernel distance from ``vectors[row]`` to the rows
    not in ``chosen``: one sweep of every row."""
    dist = sweep(vectors, None, vectors[row], norm, distances_to_point)
    dist[chosen] = np.inf
    return np.partition(dist, k - 1)[k - 1]


def _screened_kth(vectors: np.ndarray, chosen: np.ndarray, row, norm, k: int,
                  estimate: np.ndarray, reach, maybe_below) -> float:
    """``_kth_by_sweep``'s float for sample ``row``, the kernel run on a
    screened few rows.

    ``estimate`` holds a cheap per-row estimate of the kernel distance (it
    is overwritten: the held-out rows go to +inf), ``reach(i)`` an upper
    bound on row i's kernel distance, and ``maybe_below(tau)`` a mask that
    is false only on rows whose kernel distance is surely at or above tau.
    tau is set just above the reach of the row of k-th smallest estimate
    (infinite if that is not finite), so that the k rows of smallest
    estimate are normally below it, and the kernel runs on every row not
    held out that ``maybe_below(tau)`` keeps.  If at least k of those
    distances are below tau, every row at a smaller distance than the k-th
    is among them, and the k-th smallest of them is the sweep's.  Otherwise
    the sample takes the full sweep.
    """
    estimate[chosen] = np.inf
    near = np.argpartition(estimate, k - 1)[k - 1]
    bound = reach(near)
    tau = math.nextafter(bound, math.inf) if bound < math.inf else math.inf  # nan too
    screened = maybe_below(tau)
    screened[chosen] = False
    dist = sweep(vectors, np.flatnonzero(screened), vectors[row], norm, distances_to_point)
    below = dist[dist < tau]
    if below.size >= k:
        return np.partition(below, k - 1)[k - 1]
    return _kth_by_sweep(vectors, chosen, row, norm, k)


def _gemm_kth(vectors: np.ndarray, chosen: np.ndarray, norm, k: int,
              kth: np.ndarray) -> None:
    """Fill ``kth`` with ``_kth_by_sweep``'s floats under l_2 or l_4,
    screened by a GEMM expansion of every row's distance.

    Each row's sum of squares (l_2) or of fourth powers (l_4) is summed
    once, and so is their largest.  Per block of samples
    (``_BLOCK_CHUNKS``), one GEMM forms their inner products with every row
    (l_2), or three GEMMs their cross terms (``_l4_cross``), into a view of
    one mapping (``_mapped``) made per call for the first, largest block:
    the blocks fault its pages in once, not once each (15,700 minor faults
    per desk calibration against 1,000).  Per sample, the expansion g
    (``norms.l2_expansion``, or ``xxxx + qqqq`` plus the cross terms) is
    the estimate of ``_screened_kth``, in the norm's p-th power; the reach
    of the row of k-th smallest g is the p-th root of g + 2 w, w the band's
    half-width with g standing in for tau^p, and the band
    (``norms.l2_band`` or ``norms.l4_band``) keeps every row whose distance
    may be below tau, run only on the rows a scalar pre-screen keeps
    (``_band_mask``).  A non-finite g, w or reach (an overflowed power, norm
    or product) puts a row in the band or makes tau infinite, never a row
    outside.
    """
    n = vectors.shape[1]
    quartic = norm == L4
    half_width = l4_half_width if quartic else l2_half_width
    root = (lambda v: math.sqrt(math.sqrt(v))) if quartic else math.sqrt
    # an overflow only puts rows in the band, or makes tau infinite
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _fourth_powers(vectors) if quartic else np.einsum("ij,ij->i", vectors, vectors)
        widest = powers.max()
        blocks = list(row_chunks(chosen.size, vectors.shape[0], _BLOCK_CHUNKS))
        products = _mapped(blocks[0].stop, vectors.shape[0])  # the first block is the largest
        for block in blocks:
            samples = vectors[chosen[block]]
            cross = products[:samples.shape[0]]
            if quartic:
                _l4_cross(vectors, samples, cross)
            else:
                np.matmul(samples, vectors.T, out=cross)
            for pos, row_cross in zip(range(block.start, block.stop), cross):
                row = chosen[pos]
                qq = powers[row]
                g = powers + qq + row_cross if quartic else l2_expansion(powers, qq, row_cross)
                kth[pos] = _screened_kth(
                    vectors, chosen, row, norm, k, g,
                    lambda i: root(max(g[i] + 2.0 * half_width(powers[i], qq, g[i], n), 0.0)),
                    lambda tau: _band_mask(g, powers, qq, tau, n, quartic, widest))


def _band_mask(g, powers, qq, tau, n: int, quartic: bool, widest) -> np.ndarray:
    """The rows ``norms.l2_band`` (``l4_band`` if ``quartic``) leaves inside
    or in the band, as a mask, with the band run only on the rows a scalar
    pre-screen keeps.

    The pre-screen takes the half-width w* at ``widest``, the largest of
    ``powers``, and drops a row only where g is finite and g - w* >= tau^p,
    tau^p formed as the band forms it.  A row's own w is the same formula
    at its own power, and every step of it rounds monotonically, so w <= w*
    and fl(g - w) >= fl(g - w*): the band would call every dropped row
    outside, and the mask is the band's own.  A non-finite g stays in, as
    the band keeps it; a non-finite w* (an overflowed power or tau^p) keeps
    every row.  Callers hold ``np.errstate(over="ignore", invalid="ignore")``.
    """
    bound = tau * tau
    if quartic:
        bound *= bound
    w = (l4_half_width if quartic else l2_half_width)(widest, qq, bound, n)
    mask = ~(g - w >= bound)
    mask |= g == math.inf
    kept = np.flatnonzero(mask)
    band = l4_band if quartic else l2_band
    mask[kept] = np.logical_or(*band(g[kept], powers[kept], qq, tau, n))
    return mask


def _fourth_powers(vectors: np.ndarray) -> np.ndarray:
    """Each row's sum of x_i^4, with x^4 = x^2 * x^2, one row chunk at a
    time."""
    out = np.empty(vectors.shape[0])
    for chunk in row_chunks(*vectors.shape):
        squares = vectors[chunk] * vectors[chunk]
        out[chunk] = np.einsum("ij,ij->i", squares, squares)
    return out


def _mapped(count: int, rows: int) -> np.ndarray:
    """An uninitialised (count x rows) float64 array in an anonymous memory
    mapping of its own, unmapped when the array goes.  The blocks'
    products are the one allocation of the l_2 and l_4 screens above 1
    MiB, made once per ``_gemm_kth`` call; freed through malloc, they would
    raise glibc's dynamic mmap and trim thresholds for the rest of the
    process, which then keeps more of its heap resident (gist-deep's
    ``peak_rss_mb`` read 346 MiB against 340 in 10 of 10 perfbench runs,
    and 341 against 335 in-process, where a fixed
    ``MALLOC_TRIM_THRESHOLD_`` made both 333)."""
    return np.frombuffer(mmap.mmap(-1, 8 * count * rows), dtype=np.float64).reshape(count, rows)


def _l4_cross(vectors: np.ndarray, samples: np.ndarray, out: np.ndarray) -> None:
    """Write the (samples x rows) cross terms -4 x^3.q + 6 x^2.q^2 - 4 x.q^3
    of ``norms.l4_band``'s expansion to ``out``: three GEMMs per 1 MiB row
    chunk, whose x^2 and x^3 are formed there, never as whole-matrix
    copies."""
    squares = samples * samples
    cubes = squares * samples
    for chunk in row_chunks(*vectors.shape):
        x = vectors[chunk]
        x2 = x * x
        part = squares @ x2.T
        part *= 6.0
        part -= 4.0 * (cubes @ x.T)
        x2 *= x
        part -= 4.0 * (samples @ x2.T)
        out[:, chunk] = part


def _coded_kth(vectors: np.ndarray, codes: np.ndarray, step: float, chosen: np.ndarray,
               row, norm, k: int) -> float:
    """``_kth_by_sweep``'s float for sample ``row`` under l_1 or l_inf,
    screened by the rows' exact code distances S to it.

    ``codes`` are the rows coded on one grid of this step (``norms._code_rows``);
    the sample is a row, so no value is clipped.  The int16 kernel returns
    every S exactly, which is the estimate of ``_screened_kth``, and step S
    is within the grid term G (``norms._grid_term``) of a row's exact
    distance, which the kernel's float is within kappa = gamma_{2n+16} of
    (``tree.level_margins``).  ``_code_bounds`` turns these into the reach
    of a code distance and the code distance from which a row is surely at
    or above tau.
    """
    reach, limit = _code_bounds(norm, vectors.shape[1], step)
    dist = sweep(codes, None, codes[row], norm, distances_to_point)
    return _screened_kth(vectors, chosen, row, norm, k, dist,
                         lambda i: reach(dist[i]), lambda tau: dist < limit(tau))


def _code_bounds(norm, n: int, step: float):
    """``(reach, limit)`` for rows of width n coded on a grid of this step:
    ``reach(S)`` is at least the kernel's distance of every row whose code
    distance is S or less, and every row whose code distance is at least
    ``limit(tau)`` has a kernel distance at or above tau.

    With G the grid term and D a row's exact distance, |step S - D| <= G,
    and the kernel returns c with |c - D| <= kappa D, kappa =
    gamma_{2n+16} (u = 2^-53).  With f = 1 + 2 kappa + 2^-48, computed
    within 3u,

        reach(S) = (step S + G) f    >= (step S + G) (1 + kappa) >= c
        limit(tau) = (tau + G) f / step

    where each side is formed with at most three roundings, 2^-48 covering
    them.  A row with S >= limit(tau) has D >= step S - G >= tau (1 + 2
    kappa), so c >= tau (1 + 2 kappa) (1 - kappa) >= tau.  step S is
    exact, a power of two times an integer below 2^53, or inf, and limit
    divides by the power of two exactly, as (tau + G) f >= G >= step, or
    overflows to inf, which screens every row.
    """
    grid = _grid_term(norm, n, step)
    kappa = (2 * n + 16) * (_EPS / 2) / (1.0 - (2 * n + 16) * (_EPS / 2))
    widen = 1.0 + 2.0 * kappa + 2.0 ** -48
    return (lambda s: (step * s + grid) * widen,
            lambda tau: (tau + grid) * widen / step)
