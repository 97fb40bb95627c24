"""The subspace index: cascaded projection levels, exact range queries, and
cost accounting.

A schedule [dim(U_0), ..., dim(U_t)] chains t projection levels.  Every
projected copy of the database is a contraction image of the previous one,
so a query can discard an item as soon as one projected distance reaches
epsilon, and whatever survives every level is verified against the original
vectors.  Matches therefore equal the brute-force answer exactly; the win
is that most items die at the cheap coarse levels.

Cost model: evaluating one item's distance at level k is charged dim(U_k)
operations.  With sigma_i = number of items whose level-i distance stays
below epsilon, a query costs

    cost_s = sum_{i=1..t} sigma_i * dim(U_{i-1}) + s * dim(U_t)

against cost_l = s * dim(U_0) for a straight scan.  The query code counts
operations directly; the formula is the invariant tests hold it to.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import DataSet
from .norms import L2, NormOrder, as_norm_order, distances_to_point, sweep
from .projection import (
    ADAPTIVE,
    ORTHOGONAL,
    BlockPartition,
    ProjectionLevel,
    fit_adaptive_level,
    orthogonal_level,
    project_level,
    project_rows,
)

__all__ = [
    "DimensionSchedule",
    "SubspaceIndex",
    "QueryReport",
    "build_index",
    "range_query",
    "estimate_cost",
    "fit_const",
    "save_index",
    "load_index",
]

_MAGIC = b"LPCASIDX"
# Version 2 divides adaptive features by the Hölder scale ||d||_p*, clamped
# at 1 only for p >= 2; version 1 divided them by max(1, ||d||_p*) for every
# p.  The layouts are the same, and load_index reads both.
_VERSION = 2
_READABLE_VERSIONS = (1, 2)
# Worst-case relative inflation of a distance computed against float32-rounded
# features; added to epsilon when pruning on reloaded feature matrices.
_F32_RELATIVE_SLACK = 2.0 ** -23
# float64 machine epsilon (2^-52) and smallest normal number (2^-1022): the
# relative and absolute terms of the l_2 screen's band half-width.
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class DimensionSchedule:
    """Strictly decreasing dimensions [dim(U_0), ..., dim(U_t)].

    Every dimension must divide its predecessor.  Adjacent ratios outside
    [2, 16] only warn: small ratios are the regime block filters work in,
    but coarse jumps are legal and sometimes useful.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("schedule must contain at least one dimension")
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        for prev, cur in zip(dims, dims[1:]):
            if cur >= prev:
                raise ValueError(f"schedule must be strictly decreasing, got {dims}")
            if prev % cur != 0:
                raise ValueError(f"{prev} is not divisible by {cur} in {dims}")
            if not 2 <= prev // cur <= 16:
                warnings.warn(
                    f"level ratio {prev}/{cur} = {prev // cur} is outside [2, 16]; "
                    "pruning power may degrade", stacklevel=2)

    @property
    def levels(self) -> int:
        """Number of projection levels t (schedule length minus one)."""
        return len(self.dims) - 1


@dataclass(frozen=True)
class QueryReport:
    """Result of one range query: matches plus per-level accounting."""

    matches: tuple[tuple[int, float], ...]
    survivors: tuple[int, ...]
    cost_s: int
    cost_l: int
    epsilon: float

    @property
    def ratio(self) -> float:
        """Scan cost over cascade cost; above 1 means the cascade won."""
        return self.cost_l / self.cost_s

    @property
    def match_ids(self) -> tuple[int, ...]:
        return tuple(ident for ident, _ in self.matches)


@dataclass(frozen=True)
class SubspaceIndex:
    """Immutable index: levels, projected database copies, original data.

    ``features[i]`` holds the level-(i+1) projection of every database row.
    ``prune_margins`` widen the pruning threshold per level; they are zero
    for freshly built indexes and absorb float32 rounding for reloaded ones.
    Queries are read-only and safe to run concurrently.

    Under l_2 the index also derives ``sq_norms``: ``sq_norms[0]`` holds the
    float64 squared norm of every row of ``data`` and ``sq_norms[k]`` that of
    every row of ``features[k-1]``, so a query can screen a level with one
    matrix-vector product (see ``_l2_screen``).  They are computed here, not
    passed in or stored in the container, so built and loaded indexes derive
    them alike; for a memory-mapped ``data`` that reads the vectors once.
    Other norms derive nothing (``sq_norms == ()``).
    """

    schedule: DimensionSchedule
    norm: NormOrder
    mode: str
    levels: tuple[ProjectionLevel, ...]
    features: tuple[np.ndarray, ...]
    data: np.ndarray
    ids: np.ndarray
    prune_margins: tuple[float, ...] = field(default=())
    sq_norms: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.prune_margins:
            object.__setattr__(self, "prune_margins", (0.0,) * len(self.levels))
        sq_norms = ()
        if self.norm == L2:
            with np.errstate(over="ignore"):  # an inf norm defers rows to the kernel
                sq_norms = tuple(np.einsum("ij,ij->i", m, m)
                                 for m in (self.data, *self.features))
        object.__setattr__(self, "sq_norms", sq_norms)

    @property
    def count(self) -> int:
        return int(self.data.shape[0])

    def diversion_summary(self) -> list[dict]:
        """Per-level max/mean diversion.

        ``unconverged_fits`` is always 0, since directions come from a direct
        eigensolver; the key is kept so existing consumers keep working.
        """
        summary = []
        for depth, level in enumerate(self.levels, start=1):
            values = level.diversions()
            summary.append({
                "level": depth,
                "block_size": level.partition.block_size,
                "max_diversion": float(values.max()) if values.size else 0.0,
                "mean_diversion": float(values.mean()) if values.size else 0.0,
                "unconverged_fits": 0,
            })
        return summary


def build_index(data: DataSet, schedule: DimensionSchedule, mode: str,
                p) -> SubspaceIndex:
    """Build the level chain over a dataset.

    Adaptive levels are fitted on the projected data of the previous level,
    then every row is projected one level further.  Deterministic given the
    data order.
    """
    if not isinstance(data, DataSet):
        data = DataSet.from_array(data)
    if mode not in (ORTHOGONAL, ADAPTIVE):
        raise ValueError(f"unknown mode {mode!r}")
    norm = as_norm_order(p)
    if data.dim != schedule.dims[0]:
        raise ValueError(f"data dim {data.dim} != schedule head {schedule.dims[0]}")
    levels = []
    features = []
    current = data.vectors
    for dim_in, dim_out in zip(schedule.dims, schedule.dims[1:]):
        partition = BlockPartition.for_dims(dim_in, dim_out)
        if mode == ADAPTIVE:
            level = fit_adaptive_level(current, partition, norm)
        else:
            level = orthogonal_level(partition, norm)
        current = project_rows(current, level)
        levels.append(level)
        features.append(current)
    return SubspaceIndex(
        schedule=schedule,
        norm=norm,
        mode=mode,
        levels=tuple(levels),
        features=tuple(features),
        data=data.vectors,
        ids=data.ids,
    )


def range_query(index: SubspaceIndex, y, epsilon: float) -> QueryReport:
    """All items within strict l_p distance epsilon of y, with counters.

    Filters coarse-to-fine: items are evaluated level by level, and
    whatever reaches level 0 is verified against the stored vectors.  The
    level-major sweep evaluates exactly the pairs the per-item two-loop
    cascade would, so counters match the cost model verbatim.  Each level
    walks its candidates in cache-sized chunks (``norms.sweep``), so a query
    never copies a whole feature or data matrix.  Under l_2 a level first
    screens its candidates with one matrix-vector product (``_l2_screen``)
    and runs the distance kernel only on the rows the screen leaves
    undecided, plus, at level 0, on the matches whose distances it reports;
    every decision and reported float is the kernel's own.
    """
    query = np.asarray(y, dtype=np.float64)
    if query.ndim != 1 or query.size != index.schedule.dims[0]:
        raise ValueError(
            f"query shape {query.shape} != index dim {index.schedule.dims[0]}")
    if not np.all(np.isfinite(query)):
        raise ValueError("query contains non-finite components")
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    projected = [query]
    for level in index.levels:
        projected.append(project_level(projected[-1], level))

    dims = index.schedule.dims
    t = index.schedule.levels
    s = index.count
    survivors = [0] * (t + 1)
    candidates = np.arange(s)
    cost = 0
    for k in range(t, 0, -1):
        matrix = index.features[k - 1]
        tau = epsilon + index.prune_margins[k - 1]
        cost += candidates.size * dims[k]
        if index.norm == L2:
            keep, band = _l2_screen(index, k, candidates, projected[k], tau)
            keep[band] = sweep(matrix, candidates[band], projected[k], index.norm,
                               distances_to_point) < tau
        else:
            keep = sweep(matrix, candidates, projected[k], index.norm,
                         distances_to_point) < tau
        candidates = candidates[keep]
        survivors[k] = int(candidates.size)
    cost += candidates.size * dims[0]
    if index.norm == L2:
        inside, band = _l2_screen(index, 0, candidates, query, epsilon)
        candidates = candidates[inside | band]
    exact = sweep(index.data, candidates, query, index.norm, distances_to_point)
    hit = exact < epsilon
    survivors[0] = int(np.count_nonzero(hit))
    matches = tuple(
        (int(index.ids[row]), float(dist))
        for row, dist in zip(candidates[hit], exact[hit])
    )
    return QueryReport(
        matches=matches,
        survivors=tuple(survivors),
        cost_s=cost,
        cost_l=s * dims[0],
        epsilon=epsilon,
    )


def _dot(block: np.ndarray, point: np.ndarray, norm) -> np.ndarray:
    """A ``sweep`` kernel: the inner product of each row with ``point``."""
    return block @ point


def _l2_screen(index: SubspaceIndex, k: int, candidates: np.ndarray,
               point: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Split candidates at level k by the l_2 kernel's verdict ``dist < tau``.

    Returns boolean masks over ``candidates``: ``inside``, the rows whose
    kernel distance is surely below ``tau``, and ``band``, the rows the
    screen cannot decide; every other row's kernel distance is surely at
    least ``tau``.  With xx the stored squared row norm and qq = q.q,

        g = xx + qq - 2 x.q        (one GEMV: M @ q, or per 1 MiB gather)
        w = (4n + 16) eps (xx + qq + tau^2) + 2^-1022

    a row is inside if g + w < tau^2, outside if g - w >= tau^2, and in the
    band otherwise or when g or w is not finite (an overflowed norm or dot).

    Why w decides as the kernel does (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3; n = dim, u = eps/2 = 2^-53, gamma_j =
    j u / (1 - j u); D = sum (x_i - q_i)^2 and S = |x|^2 + |q|^2 exactly):

    * Expansion.  xx, qq and x.q are dot products, accurate to gamma_n
      times the sum of |terms| in any summation order (BLAS blocking and
      thread count included), and sum |x_i q_i| <= S/2.  So
      xx + qq - 2 x.q is within 2 gamma_n S of D; the two roundings forming
      g add u (xx + qq) + u |g| <= 3u S to first order, as D <= 2S.  Hence
      |g - D| <= (2n + 3) u S + O(u^2).
    * Kernel.  ``distances_to_point`` returns c = fl(sqrt(fl(sum
      fl(x_i - q_i)^2))): each difference carries a factor (1 + d), |d| <= u,
      the sum of squares gamma_n, the root one more u, so c^2 lies within
      gamma_{n+4} D of D.  Thus c < tau whenever D < tau^2 (1 - gamma_{n+4}),
      and c >= tau whenever D >= tau^2 (1 + 2 gamma_{n+4}).
    * Comparisons.  fl(tau * tau) and fl(g +- w) are each rounded once more,
      so "inside" gives D < tau^2 (1 + 3u) - (w - |g - D|) and "outside"
      gives D >= tau^2 (1 - 3u) + (w - |g - D|).  Both verdicts then match
      the kernel once w >= |g - D| + (2 gamma_{n+4} + 3u) tau^2, about
      (2n + 3) u S + (2n + 11) u tau^2.

    w = (8n + 32) u (xx + qq + tau^2) is at least three times that bound,
    leaving room for the O(u^2) terms, for computed xx + qq standing in for
    S and for the rounding of w itself.  Gradual underflow adds an absolute
    error of at most 2^-1075 per product (about 6n of them in g and the
    kernel), which the 2^-1022 term covers for any n < 2^50.  An overflowed tau^2 makes w infinite, so every row falls in
    the band.  The constant family is that of the exact GEMM scan of
    Johnson, Douze and Jegou (arXiv 1702.08734).
    """
    matrix = index.data if k == 0 else index.features[k - 1]
    # an overflow only puts rows in the band, which the kernel then decides
    with np.errstate(over="ignore", invalid="ignore"):
        if candidates.size == matrix.shape[0]:
            dots = matrix @ point
            xx = index.sq_norms[k]
        else:
            dots = sweep(matrix, candidates, point, index.norm, _dot)
            xx = index.sq_norms[k][candidates]
        qq = float(point @ point)
        tau_sq = tau * tau
        g = xx + qq - 2.0 * dots
        w = (4 * matrix.shape[1] + 16) * _EPS * (xx + qq + tau_sq) + _TINY
        decided = np.isfinite(g) & np.isfinite(w)
        inside = decided & (g + w < tau_sq)
        band = ~inside & ~(decided & (g - w >= tau_sq))
    return inside, band


def estimate_cost(schedule: DimensionSchedule, s: int, const: float) -> float:
    """Analytic cost estimate (1/const) * sum of level ratios + dim(U_t) * s.

    A reporting aid only; queries never consult it.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not const > 0.0:
        raise ValueError(f"const must be positive, got {const}")
    ratios = sum(prev / cur for prev, cur in zip(schedule.dims, schedule.dims[1:]))
    return ratios / const + schedule.dims[-1] * s


def fit_const(reports, schedule: DimensionSchedule) -> float:
    """Least-squares fit of const in const * sigma_i = 1/dim(U_{i+1}).

    Pools (sigma_i, dim(U_{i+1})) pairs with sigma_i > 0 across reports;
    errors when every survivor count is zero.
    """
    num = 0.0
    den = 0.0
    for report in reports:
        if len(report.survivors) != schedule.levels + 1:
            raise ValueError("report and schedule disagree on level count")
        for i in range(schedule.levels):
            sigma = report.survivors[i]
            if sigma > 0:
                num += sigma / schedule.dims[i + 1]
                den += sigma * sigma
    if den == 0.0:
        raise ValueError("cannot fit const: all survivor counts are zero")
    return num / den


def save_index(index: SubspaceIndex, path, include_data: bool = True) -> None:
    """Persist an index: directions at float64, feature matrices at float32.

    Feature rounding cannot cause false dismissals on reload because
    load_index widens the pruning threshold by the worst-case rounding
    error per level.  ``include_data`` embeds the original vectors
    (float64) so the file is self-contained for querying.
    """
    header = {
        "format": "lpcascade-index",
        "version": _VERSION,
        "norm": index.norm.label(),
        "mode": index.mode,
        "schedule": list(index.schedule.dims),
        "count": index.count,
        "data_included": bool(include_data),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<IQ", _VERSION, len(blob)))
        handle.write(blob)
        handle.write(index.ids.astype("<i8").tobytes())
        if include_data:
            handle.write(index.data.astype("<f8").tobytes())
        for level, feats in zip(index.levels, index.features):
            if level.directions is not None:
                handle.write(level.directions.astype("<f8").tobytes())
            handle.write(feats.astype("<f4").tobytes())


def load_index(path, data: DataSet | None = None,
               mmap_data: bool = False) -> SubspaceIndex:
    """Reload a persisted index.

    If the file does not embed the original vectors, the caller must supply
    the dataset it was built from.  ``mmap_data`` maps the embedded vectors
    read-only instead of loading them; the cascade touches level 0 only for
    final verification, so mapping keeps the resident set near the feature
    matrices.  Those are stored at float32 but loaded upcast to float64, so
    in memory they weigh 8 bytes per feature, which for a fine first level
    is a large share of the data's own size.  Being float32-rounded, each
    level's features get a pruning margin covering the worst-case rounding;
    pruning then errs only toward extra survivors and exactness is
    unaffected.  A version-1 container stored adaptive l_p features, p < 2,
    under a scale the query no longer uses; those are projected again from
    the vectors (float64, no margin), which reads the whole dataset once.
    """
    with open(path, "rb") as handle:
        prefix = handle.read(len(_MAGIC) + 12)
        if len(prefix) < len(_MAGIC) + 12 or prefix[:len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path}: not an index container")
        version, header_len = struct.unpack_from("<IQ", prefix, len(_MAGIC))
        if version not in _READABLE_VERSIONS:
            raise ValueError(f"{path}: unsupported container version {version}")
        header = json.loads(handle.read(header_len).decode("utf-8"))

        norm = as_norm_order(header["norm"])
        mode = header["mode"]
        schedule = DimensionSchedule(tuple(header["schedule"]))
        count = int(header["count"])
        dims = schedule.dims

        def take(dtype, shape):
            items = int(np.prod(shape))
            arr = np.fromfile(handle, dtype=dtype, count=items)
            if arr.size != items:
                raise ValueError(f"{path}: truncated container")
            return arr.reshape(shape)

        ids = take("<i8", (count,)).astype(np.int64)
        vectors = None
        if header["data_included"]:
            if mmap_data and data is None:
                vectors = np.memmap(path, dtype="<f8", mode="r",
                                    offset=handle.tell(),
                                    shape=(count, dims[0]))
                handle.seek(count * dims[0] * 8, 1)
            else:
                vectors = take("<f8", (count, dims[0])).astype(np.float64)
        elif data is None:
            raise ValueError(f"{path}: container has no embedded data; "
                             "pass the original dataset")
        if data is not None:
            if data.dim != dims[0] or len(data) != count:
                raise ValueError(f"dataset shape ({len(data)}, {data.dim}) does "
                                 f"not match container ({count}, {dims[0]})")
            vectors = data.vectors

        levels = []
        features = []
        margins = []
        for dim_in, dim_out in zip(dims, dims[1:]):
            partition = BlockPartition.for_dims(dim_in, dim_out)
            directions = None
            if mode == ADAPTIVE:
                directions = take("<f8", (dim_out, partition.block_size))
            level = ProjectionLevel(partition=partition, norm=norm,
                                    directions=directions)
            feats = take("<f4", (count, dim_out)).astype(np.float64)
            row_norms = sweep(feats, None, np.zeros(dim_out), norm, distances_to_point)
            margins.append(_F32_RELATIVE_SLACK * float(row_norms.max(initial=0.0)))
            levels.append(level)
            features.append(feats)
        if handle.read(1):
            raise ValueError(f"{path}: trailing bytes after the last section")

    if version == 1 and mode == ADAPTIVE and norm.p < 2.0:
        # Stored under the scale 1 = max(1, ||d||_p*), not the ||d||_p* the
        # query is projected with; each level feeds the next, so the whole
        # chain is projected again from the vectors, as build_index would.
        features = []
        current = vectors
        for level in levels:
            current = project_rows(current, level)
            features.append(current)
        margins = [0.0] * len(levels)

    return SubspaceIndex(
        schedule=schedule,
        norm=norm,
        mode=mode,
        levels=tuple(levels),
        features=tuple(features),
        data=vectors,
        ids=ids,
        prune_margins=tuple(margins),
    )
