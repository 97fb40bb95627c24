"""Brute-force ground truth and epsilon calibration.

The scan is the defining oracle for the index: every cascade result must
equal it exactly.  Calibration reconstructs the "epsilon for ~k neighbors"
protocol: sample queries, hold them out of the scanned set, take the median
k-th neighbor distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataSet
from .norms import as_norm_order, as_vector, distances_to_point, sweep

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
    counts itself (or another query) among its neighbors: each scan covers
    every row in place and gives the held-out rows distance +inf, which
    leaves the target_nn-th smallest distance as it would be without them.
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
    kth = np.empty(spec.sample_size)
    for pos, row in enumerate(chosen):
        dist = sweep(data.vectors, None, data.vectors[row], norm, distances_to_point)
        dist[chosen] = np.inf
        kth[pos] = np.partition(dist, spec.target_nn - 1)[spec.target_nn - 1]
    return float(np.median(kth))
