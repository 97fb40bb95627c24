"""Unchunked references for the chunked distance sweeps.

Each function here is the library's code path as it stood before scans and
cascade levels walked their rows in cache-sized chunks: one kernel call on
the whole (gathered) matrix, with a fresh temporary per step.  Tests hold the
chunked code to these bit for bit.
"""

import numpy as np

from lpcascade import QueryReport, as_norm_order, lp_norm, project_level
from lpcascade.norms import _encode
from lpcascade.tree import level_margins


def unchunked_distances(rows, y, norm):
    """The distance kernel on whole matrices: ``|rows - y|``, its powers, and
    a reduction of each row, in order below 32 columns and by numpy's
    pairwise ``sum`` from 32 up, returned as float64.  Integer arithmetic
    when rows and y are both int16 codes (l_1 and l_inf; sums in int64),
    float32 arithmetic when both are float32 (an l_2 or l_4 row whose
    float32 sum is not in [2^-100, inf) is recomputed in float64), float64
    otherwise; the max-divided form always in float64."""
    p = norm.p
    if not (norm.is_infinite or p in (1.0, 2.0, 4.0)):
        return max_divided_distances(np.abs(rows - np.asarray(y, dtype=np.float64)), p)
    if rows.dtype == np.int16 and np.asarray(y).dtype == np.int16:
        diff = np.abs(rows.astype(np.int64) - y)
        return (diff.max(axis=1) if norm.is_infinite else diff.sum(axis=1)).astype(np.float64)
    diff = np.abs(rows - y)
    single = diff.dtype == np.float32
    if norm.is_infinite:
        return diff.max(axis=1).astype(np.float64)
    # a sum that overflowed or may have lost terms to underflow takes the
    # max-divided form under l_2 and l_4, or the float64 kernel in float32
    with np.errstate(over="ignore"):
        terms = diff if p == 1.0 else diff * diff
        if p == 4.0:
            terms = terms * terms
        if diff.shape[1] < 32:
            total = np.zeros(diff.shape[0], dtype=diff.dtype)
            for column in terms.T:
                total += column
        else:
            total = terms.sum(axis=1)
    if p == 1.0:
        return total.astype(np.float64)
    out = (np.sqrt(total) if p == 2.0 else np.sqrt(np.sqrt(total))).astype(np.float64)
    fallback = ~((total >= (2.0 ** -100 if single else 2.0 ** -800)) & (total < np.inf))
    if single:
        out[fallback] = unchunked_distances(rows[fallback], y.astype(np.float64), norm)
    else:
        out[fallback] = max_divided_distances(diff[fallback], p)
    return out


def max_divided_distances(diff, p):
    """l_p lengths of rows of absolute differences, each divided by its
    maximum before the power: 0 for a zero row, inf for an infinite one."""
    m = diff.max(axis=1)
    finite = (m > 0.0) & (m < np.inf)
    safe = np.where(finite, m, 1.0)
    out = safe * np.sum((diff / safe[:, None]) ** p, axis=1) ** (1.0 / p)
    return np.where(finite, out, m)


def kernel_points(index, y):
    """The query projected to every level as range_query hands it to the
    distance kernel: float64 at level 0, and at every level k >= 1, after
    the float64 projection chain, coded on the level's grid (l_1 and
    l_inf) or rounded to float32."""
    points = [np.asarray(y, dtype=np.float64)]
    for level in index.levels:
        points.append(project_level(points[-1], level))
    with np.errstate(over="ignore"):  # only under infinite margins
        points[1:] = [point.astype(np.float32) if grid is None
                      else _encode(point, *grid).astype(np.int16)
                      for point, grid in zip(points[1:], index.grids)]
    return points


def level_distances(index, k, rows, point):
    """Level-k distances of feature rows from a kernel point, as range_query
    compares them with tau_k: the code distance times the grid's step at a
    coded level."""
    dist = unchunked_distances(rows, point, index.norm)
    if index.grids[k - 1] is not None:
        with np.errstate(over="ignore"):
            dist = dist * index.grids[k - 1][1]
    return dist


def gather_everything_query(index, y, epsilon):
    """range_query with every level gathering all its candidates' rows at once."""
    query = np.asarray(y, dtype=np.float64)
    projected = kernel_points(index, query)
    dims = index.schedule.dims
    t = index.schedule.levels
    s = index.count
    survivors = [0] * (t + 1)
    candidates = np.arange(s)
    cost = 0
    with np.errstate(over="ignore"):
        margins = level_margins(index.schedule, lp_norm(query, index.norm) + epsilon,
                                index.norm)
    for k in range(t, 0, -1):
        rows = index.features[k - 1][candidates]
        # a query beyond the float32 range (infinite margins) differences inf - inf
        with np.errstate(invalid="ignore"):
            level_dist = level_distances(index, k, rows, projected[k])
        cost += candidates.size * dims[k]
        tau = epsilon + margins[k - 1] + index.grid_terms[k - 1]
        # an infinite margin prunes nothing, not even rows at distance inf
        keep = (level_dist < tau) | (tau == np.inf)
        candidates = candidates[keep]
        survivors[k] = int(candidates.size)
    exact = unchunked_distances(index.data[candidates], query, index.norm)
    cost += candidates.size * dims[0]
    hit = exact < epsilon
    survivors[0] = int(np.count_nonzero(hit))
    matches = tuple((int(index.ids[row]), float(dist))
                    for row, dist in zip(candidates[hit], exact[hit]))
    return QueryReport(matches=matches, survivors=tuple(survivors), cost_s=cost,
                       cost_l=s * dims[0], epsilon=float(epsilon))


def unchunked_brute_force(data, y, epsilon, p):
    """brute_force_range as one kernel call over the whole dataset."""
    dist = unchunked_distances(data.vectors, np.asarray(y, dtype=np.float64),
                               as_norm_order(p))
    return [(int(data.ids[i]), float(dist[i])) for i in np.nonzero(dist < epsilon)[0]]


def unchunked_kth(data, spec, p, rng_seed=0):
    """Each sample's target_nn-th distance in calibrate_epsilon, from a scan
    of a copy of the dataset without the held-out rows."""
    s = len(data)
    norm = as_norm_order(p)
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    chosen = rng.choice(s, size=spec.sample_size, replace=False)
    mask = np.ones(s, dtype=bool)
    mask[chosen] = False
    scanned = data.vectors[mask]
    kth = np.empty(spec.sample_size)
    for pos, row in enumerate(chosen):
        dist = unchunked_distances(scanned, data.vectors[row], norm)
        kth[pos] = np.partition(dist, spec.target_nn - 1)[spec.target_nn - 1]
    return kth


def unchunked_calibration(data, spec, p, rng_seed=0):
    """calibrate_epsilon as the median of ``unchunked_kth``."""
    return float(np.median(unchunked_kth(data, spec, p, rng_seed)))
