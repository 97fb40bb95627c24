"""Brute-force ground truth and epsilon calibration.

The scan is the defining oracle for the index: every cascade result must
equal it exactly.  Calibration reconstructs the "epsilon for ~k neighbors"
protocol: sample queries, hold them out of the scanned set, take the median
k-th neighbor distance.  Each k-th distance is the float a kernel sweep
over every row gives, found more cheaply: under l_2 by a blocked GEMM whose
expansion the l_2 band (``norms.l2_band``) screens, so that the kernel runs
on the few rows near the k-th neighbor only, and under every other norm by
the samples' sweeps run on a pool of threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import DataSet
from .norms import (
    L2,
    as_norm_order,
    as_vector,
    distances_to_point,
    l2_band,
    l2_expansion,
    l2_half_width,
    row_chunks,
    sweep,
)

__all__ = ["CalibrationSpec", "brute_force_range", "calibrate_epsilon"]


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

    * Under l_2 one GEMM per block of samples screens every row and the
      kernel runs on the few rows near or below the k-th distance
      (``_l2_kth``).
    * Under every other norm each sample's sweep runs as it is, the samples
      split into min(``_usable_cpus()``, samples) contiguous parts: the
      calling thread sweeps the first and a thread pool the rest, each
      thread writing its own samples' slots.
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
    if norm == L2:
        _l2_kth(vectors, chosen, k, kth)
    else:
        def sweep_part(part):
            for pos in part:
                kth[pos] = _kth_by_sweep(vectors, chosen, chosen[pos], norm, k)

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


def _l2_kth(vectors: np.ndarray, chosen: np.ndarray, k: int, kth: np.ndarray) -> None:
    """Fill ``kth`` with ``_kth_by_sweep``'s floats under l_2, screened.

    The squared row norms xx are summed once.  The samples go in blocks
    whose (samples x rows) float64 inner products fit ``norms.CHUNK_BYTES``
    (at least one sample), each block one GEMM.  Per sample, g
    (``norms.l2_expansion``) puts the held-out rows at +inf, its k-th
    smallest value g_k is found with a partition, and tau is set strictly
    above sqrt(g_k + 2 w_k), w_k the band's half-width at that row, so that
    the k rows of smallest g are normally inside.  The kernel then runs on
    every row ``norms.l2_band`` does not put outside, that is on every row
    whose distance may be below tau.  If at least k of those distances are
    below tau, every row at a smaller distance than the k-th is among them
    and the k-th smallest of them is the sweep's.  Otherwise the sample
    takes the full sweep.  A non-finite g, w or g_k (an overflowed norm or
    dot) puts a row in the band or makes tau infinite, never a row outside.
    """
    n = vectors.shape[1]
    # an overflow only puts rows in the band, or sends a sample to the sweep
    with np.errstate(over="ignore", invalid="ignore"):
        xx = np.einsum("ij,ij->i", vectors, vectors)
        for block in row_chunks(chosen.size, vectors.shape[0]):
            dots = vectors[chosen[block]] @ vectors.T
            for pos, row_dots in zip(range(block.start, block.stop), dots):
                row = chosen[pos]
                qq = xx[row]
                g = l2_expansion(xx, qq, row_dots)
                g[chosen] = np.inf
                near = np.argpartition(g, k - 1)[k - 1]
                reach = g[near] + 2.0 * l2_half_width(xx[near], qq, g[near], n)
                tau = math.inf
                if reach < math.inf:  # neither inf nor nan
                    tau = math.nextafter(math.sqrt(max(reach, 0.0)), math.inf)
                inside, band = l2_band(g, xx, qq, tau, n)
                screened = inside | band
                screened[chosen] = False
                dist = sweep(vectors, np.flatnonzero(screened), vectors[row], L2,
                             distances_to_point)
                below = dist[dist < tau]
                kth[pos] = (np.partition(below, k - 1)[k - 1] if below.size >= k
                            else _kth_by_sweep(vectors, chosen, row, L2, k))
