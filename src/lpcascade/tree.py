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

import contextlib
import json
import math
import operator
import os
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import DataSet, _int64_ids, _integer
from .norms import (
    _CODE_MAX,
    _EPS,
    _F32_U,
    L2,
    NormOrder,
    _coded,
    _column_major,
    _encode,
    _grid_term,
    _row_powers,
    _stored,
    _stored_dtype,
    as_norm_order,
    as_vector,
    band_screen,
    distances_to_point,
    lp_norm,
    row_chunks,
    sweep,
)
from .projection import (
    ADAPTIVE,
    MODES,
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
    "level_margins",
]

_MAGIC = b"LPCASIDX"
_FORMAT = "lpcascade-index"
# The only version read or written.
_VERSION = 4
# Smallest normal float32 (2^-126), the floor of a stored feature's relative
# rounding, and the query scale from which a match's features may overflow
# float32 (its largest value is just under 2^128).
_F32_TINY = float(np.finfo(np.float32).tiny)
_F32_SAFE = 2.0 ** 127
# Smallest subnormal float64, the unit of a coded level's underflow term.
_F64_MIN = 2.0 ** -1074
# Share of a level's rows from which the l_2 screen forms its dot products
# by one whole-matrix GEMV, indexed by the candidates, instead of gathering
# the candidates' rows chunk by chunk.  Alternating the two over float32
# features of 20k random rows (2 CPUs, OpenBLAS 2 threads), the gather costs
# as much as the whole GEMV at about 10-11% of the rows for 64 columns,
# 11-14% for 16, 16-21% for 240, 21-22% for 960 and 22-27% for 480; a sixth
# sits inside that range.  The gather serves sparse levels: on perfbench's
# seed-1 inputs desk's level-0 verification gathers in 99 of 200 l_2
# queries and gist-deep's in 1 of 60, and on multi-scale data, whose coarse
# levels prune, most finer levels do (README "Query engine" has timings).
_GEMV_SHARE = 1 / 6


@dataclass(frozen=True)
class DimensionSchedule:
    """Strictly decreasing integer dimensions [dim(U_0), ..., dim(U_t)].

    Every dimension must divide its predecessor.  Adjacent ratios outside
    [2, 16] only warn: small ratios are the regime block filters work in,
    but coarse jumps are legal and sometimes useful.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(_integer(d, "dimension") for d in self.dims)
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


class Matches(Sequence):
    """The (id, distance) pairs of a query, held as one int64 and one float64
    array (``ids`` and ``distances``, read-only).

    It behaves as the tuple of ``(int, float)`` pairs it stands for:
    iteration and indexing build the pairs on demand, as Python numbers, and
    keep none of them; ``len``, ``in`` and ``hash`` are those of the tuple;
    it equals another ``Matches``, or a tuple or list of pairs, holding the
    same pairs in the same order; and a slice is a ``Matches`` again.  So a
    kept report costs 16 bytes per match and a fixed few hundred bytes, where
    a tuple of tuples took about 120 bytes per match.
    """

    __slots__ = ("ids", "distances")

    def __init__(self, ids, distances) -> None:
        ids = np.array(ids, dtype=np.int64)
        distances = np.array(distances, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != distances.shape:
            raise ValueError(f"ids {ids.shape} and distances {distances.shape} "
                             "must be 1-d arrays of one length")
        ids.flags.writeable = False
        distances.flags.writeable = False
        self.ids = ids
        self.distances = distances

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        return zip(self.ids.tolist(), self.distances.tolist())

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Matches(self.ids[item], self.distances[item])
        return int(self.ids[item]), float(self.distances[item])

    def __eq__(self, other) -> bool:
        if isinstance(other, Matches):
            return (np.array_equal(self.ids, other.ids)
                    and np.array_equal(self.distances, other.distances))
        if isinstance(other, (tuple, list)):
            return list(self) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Matches({tuple(self)!r})"


@dataclass(frozen=True)
class QueryReport:
    """Result of one range query: matches plus per-level accounting.

    ``matches`` may be given as any iterable of (id, distance) pairs and is
    held as ``Matches``, which compares and hashes as the tuple of pairs.
    """

    matches: Matches
    survivors: tuple[int, ...]
    cost_s: int
    cost_l: int
    epsilon: float

    def __post_init__(self) -> None:
        if not isinstance(self.matches, Matches):
            pairs = tuple(self.matches)
            object.__setattr__(self, "matches", Matches(
                [operator.index(ident) for ident, _ in pairs],
                [dist for _, dist in pairs]))

    @property
    def ratio(self) -> float:
        """Scan cost over cascade cost; above 1 means the cascade won."""
        return self.cost_l / self.cost_s

    @property
    def match_ids(self) -> tuple[int, ...]:
        return tuple(self.matches.ids.tolist())


@dataclass(frozen=True)
class SubspaceIndex:
    """Immutable index: levels, projected database copies, original data.

    ``features[i]`` holds the level-(i+1) projection of every database row
    as the one store makes it (``norms._stored``) and the container holds
    it, so a built index and its saved-and-reloaded copy are the same
    object bit for bit, and ``grids[i]`` holds the level's grid slot as the
    store returns it.  Under l_1 and l_inf the features are an int16 array
    of grid codes c in [0, 2^15 - 1], and ``grids[i] = (lo, step)`` the
    level's grid lo + c step (``norms._fit_grid``), 2 bytes a feature; under
    every other norm a float32 array, and ``grids[i]`` is None.  A narrow
    level (``norms._column_major``: below ``norms._NARROW``, 32 columns, of
    float32 features and below ``norms._CODE_NARROW``, 128, of int16
    codes) is held column-major and a wider one row-major, whatever
    layout it was passed in: the distance kernel reduces narrow rows down
    the columns of a transposed buffer, which a column-major level already
    is, and wide rows along a row-major one.  Construction sets that
    layout, so built, loaded and hand-built indexes hold one
    representation; the container is row-major whatever the layout
    (``save_index``).
    Construction is the one check that the parts agree, built or loaded,
    and one pass over the levels.  It raises ``ValueError`` unless ``mode``
    is in ``projection.MODES``, ``data`` is (count, dims[0]) with count at
    least 1, ``ids`` (count,) integers, held as int64 as the container
    stores them, and the levels, feature matrices and grid slots number
    ``schedule.levels`` each.  Then, for each level k in turn, it checks
    that the level maps dims[k-1] to dims[k] under ``norm``, as exactness
    needs; that the features have the dtype the store gives the norm
    (``norms._stored_dtype``), then the shape (count, dims[k]); that the
    grid slot holds a grid exactly where that dtype is int16 (l_1, l_inf)
    and None elsewhere; and that a grid has a finite lo and a step that is
    a positive power of two, and no code is negative.  It then lays the
    features out as above and derives the level's grid term.  Level k
    prunes a row when its level distance reaches epsilon plus a margin
    that covers the rounding of the features and of projection and
    distances.  The margin (``level_margins``) reads only the schedule,
    the index's norm, epsilon and the query's norm; a coded level adds its
    grid term ``grid_terms[k-1]``, n_k^(1/p) step_k (1 + 2^-32)
    (``norms._grid_term``), and a float32 level adds 0.  ``prune_margins``
    holds the per-level margins of a query with ``||y||_p + epsilon = 1``,
    which a query's own margins scale in proportion to.  Queries are
    read-only and safe to run concurrently.

    ``grid_terms``, ``prune_margins`` and ``sq_norms`` are derived fields:
    set once at construction, never passed in (passing one raises
    ``TypeError``) and not stored in the container, so built and loaded
    indexes derive them alike.  ``sq_norms`` has one slot per level k =
    0..t, as ``grids`` has one per level k >= 1.  Under l_2 ``sq_norms[0]``
    holds the squared norm of every row of ``data`` and ``sq_norms[k]``
    that of every row of ``features[k-1]``, each summed in float64, so a
    query can screen a level with one matrix-vector product and
    ``norms.band_screen``, whose pre-screen takes its w* at the largest of
    the candidates' (see ``_screen``).  Under every other norm each slot is
    None, and the kernel decides every row.  For a memory-mapped ``data``
    deriving them reads the vectors once.
    """

    schedule: DimensionSchedule
    norm: NormOrder
    mode: str
    levels: tuple[ProjectionLevel, ...]
    features: tuple[np.ndarray, ...]
    data: np.ndarray
    ids: np.ndarray
    grids: tuple[tuple[float, float] | None, ...]
    sq_norms: tuple[np.ndarray | None, ...] = field(init=False, repr=False, compare=False)
    grid_terms: tuple[float, ...] = field(init=False, repr=False, compare=False)
    prune_margins: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        dims = self.schedule.dims
        data, ids = np.shape(self.data), np.shape(self.ids)
        if len(data) != 2 or data[1] != dims[0] or ids != data[:1]:
            raise ValueError(f"data {data}, ids {ids}: not (count, {dims[0]}) and (count,)")
        if data[0] < 1:
            raise ValueError(f"count {data[0]} must be at least 1")
        # the container stores int64 ids: a float id would come back truncated
        object.__setattr__(self, "ids", _int64_ids(self.ids))
        if {len(self.levels), len(self.features), len(self.grids)} != {self.schedule.levels}:
            raise ValueError(f"{len(self.levels)} levels, {len(self.features)} feature matrices "
                             f"and {len(self.grids)} grid slots for a "
                             f"{self.schedule.levels}-level schedule under {self.norm}")
        dtype, coded = _stored_dtype(self.norm), _coded(self.norm)
        features, terms = [], []
        parts = zip(dims, dims[1:], self.levels, self.features, self.grids)
        for k, (n_in, n_out, level, feats, grid) in enumerate(parts, start=1):
            if (level.dim_in, level.dim_out, level.norm) != (n_in, n_out, self.norm):
                raise ValueError(f"level {k} maps {level.dim_in} to {level.dim_out} under "
                                 f"{level.norm}, not {n_in} to {n_out} under {self.norm}")
            if np.asarray(feats).dtype != dtype:
                raise ValueError(f"feature matrices must be {np.dtype(dtype)} arrays "
                                 f"under {self.norm}")
            if np.shape(feats) != (data[0], n_out):
                raise ValueError(f"features {k}: {np.shape(feats)}, not {data[0], n_out}")
            if (grid is None) == coded:
                raise ValueError(f"grid slot {k}: {grid} under {self.norm}, where a level "
                                 f"holds {'a grid' if coded else 'None'}")
            if coded:
                lo, step = grid
                if not math.isfinite(lo):
                    raise ValueError(f"grid {k}: lo {lo} is not finite")
                if not (0.0 < step < math.inf and math.frexp(step)[0] == 0.5):
                    raise ValueError(f"grid {k}: step {step} is not a positive power of two")
                # int16 holds no code above _CODE_MAX
                if feats.size and feats.min() < 0:
                    raise ValueError(f"features {k}: codes outside [0, {_CODE_MAX}]")
            # one layout for built, loaded and hand-built indexes: a narrow level
            # column-major, the kernel's transposed buffer (norms.distances_to_point)
            features.append(np.asarray(feats, order="F" if _column_major(dtype, n_out) else "C"))
            # what the level adds to its threshold for its grid (level_margins)
            terms.append(_grid_term(self.norm, n_out, step) if coded else 0.0)
        object.__setattr__(self, "features", tuple(features))
        object.__setattr__(self, "grid_terms", tuple(terms))
        object.__setattr__(self, "prune_margins", level_margins(self.schedule, 1.0, self.norm))
        # an inf norm defers rows to the kernel
        object.__setattr__(self, "sq_norms", tuple(
            _row_powers(m) if self.norm == L2 else None for m in (self.data, *features)))

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
                "max_diversion": float(values.max()),
                "mean_diversion": float(values.mean()),
                "unconverged_fits": 0,
            })
        return summary


def build_index(data: DataSet, schedule: DimensionSchedule, mode: str,
                p) -> SubspaceIndex:
    """Build the level chain over a dataset.

    Adaptive levels are fitted on the projected data of the previous level,
    then every row is projected one level further.  Deterministic given the
    data order.  Each level is fitted and projected from the unrounded
    float64 values of the one before, and only its stored copy is kept,
    made by the one store (``norms._stored``, once per level): under l_1
    and l_inf its grid codes, on a grid fitted to those values, and under
    every other norm its float32 copy, whose grid slot is None; the grid
    slots are passed on as the store returns them.  So the features equal
    those ``save_index`` stores and ``load_index`` reads back, and at most
    two levels are ever held at float64.

    The fit (``fit_adaptive_level``), the projection (``project_rows``),
    the store's grid fit and store and, under l_2, the rows' squared norms
    (``SubspaceIndex``) each work fixed row chunks on one thread per usable
    CPU (``norms.in_parts``), the calling thread among them; the fit adds
    its per-chunk moments, and the grid fit its per-chunk extremes, in
    chunk order.  So the index is the same, bit for bit, for any number of
    CPUs.  ``project_rows`` and ``fit_adaptive_level`` are called through
    this module's names, once per level, on the calling thread.
    """
    if not isinstance(data, DataSet):
        data = DataSet.from_array(data)
    norm = as_norm_order(p)
    if data.dim != schedule.dims[0]:
        raise ValueError(f"data dim {data.dim} != schedule head {schedule.dims[0]}")

    levels = []
    features = []
    grids = []
    current = data.vectors
    for dim_in, dim_out in zip(schedule.dims, schedule.dims[1:]):
        partition = BlockPartition.for_dims(dim_in, dim_out)
        if mode == ADAPTIVE:
            levels.append(fit_adaptive_level(current, partition, norm))
        else:
            levels.append(orthogonal_level(partition, norm))
        current = project_rows(current, levels[-1])
        values, grid = _stored(current, norm)
        features.append(values)
        grids.append(grid)
    return SubspaceIndex(
        schedule=schedule,
        norm=norm,
        mode=mode,
        levels=tuple(levels),
        features=tuple(features),
        data=data.vectors,
        ids=data.ids,
        grids=tuple(grids),
    )


def level_margins(schedule: DimensionSchedule, scale: float,
                  norm: NormOrder) -> tuple[float, ...]:
    """What each level adds to epsilon before it prunes, for a query y with
    ``scale = ||y||_p + epsilon`` on an index under ``norm``: level k keeps a
    row while its kernel distance is below ``epsilon + margin_k``.  With
    n_k = dim(U_k), block sizes m_j = n_{j-1} / n_j, eps = 2^-52 and
    v = 2^-24,

        margin_k = (c_k + f_k) (scale + n_k 2^-126)
        c_k = s + (2 n_0 + 2 n_k + sum_{j=1..k} (4 m_j + 20) + 32) eps
        f_k = gamma'_j = j v / (1 - j v)

    where s = 2^-23 covers the float32 storage of the features, and f_k,
    the float32 term, has j = (n_k + 8) / 2 under l_2, (n_k + 20) / 4 under
    l_4 and 2 under every other norm but l_1 and l_inf: every float32 level
    runs the kernel against the query rounded to float32
    (``range_query``).  Under l_1 and l_inf s = f_k = 0 and

        margin_k = c_k scale + a_k
        a_k = (4 + sum_{j=1..k} (m_j n_{j-1} + n_j)) 2^-1074,

    a float64 underflow bound in place of the float32 one: their levels
    are coded on a grid lo_k + c step_k, and level k keeps a row while
    S < (epsilon + margin_k + G_k) / step_k, in code units, with S the
    exact code distance and G_k >= n_k^(1/p) step_k (1 + 2^-33) the
    level's grid term (b + b 2^-32 + 2^-1074, b = n_k step_k under l_1 and
    step_k under l_inf; ``SubspaceIndex.grid_terms``), which takes the
    place of s.
    Every margin is infinite, so that no level prunes, once scale is not
    below 2^127.  The rule reads the schedule, the norm and the scale only,
    never a stored row, so memory-mapped vectors stay untouched; the grid
    term reads the level's step.

    Why no match is pruned (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3; u = eps/2 = 2^-53, gamma_j = j u / (1 - j u), bounds
    to first order in u; x is a match, so its level-0 kernel distance is
    below epsilon; a hat marks computed values):

    * Kernel.  ``distances_to_point`` at dimension n returns the l_p length
      of the difference of its inputs within a relative kappa(n) =
      gamma_{2n+16}, for every p, in any order of summation (float rows
      narrower than 32 columns are summed in order down a transposed
      buffer, wider ones pairwise; code sums are exact integers), and a
      row's distance is the same float in a buffer of any size, whether
      ``sweep`` gathers it or slices every row.
      After differences that round once, it takes one of three forms: l_1
      sums n nonnegative terms (gamma_n) and l_inf is exact; l_2 and l_4
      square once or twice, sum (gamma_{n+6} on the sum) and take one or
      two roots (1/p of that plus under 2u), falling back to the last form
      for a row whose sum is not in [2^-800, inf), so that overflow and
      underflow never count; the last form, for any other p, divides by
      the row maximum, raises n terms to p (about (p + 4) u each, divided
      by p under the final root), and the root, its exponent and the
      product add a few u more.  So D = ||x - y||_p < epsilon (1 +
      kappa(n_0)), and ||y||_p, the kernel's distance from y to the origin
      (``lp_norm``), is within kappa(n_0) too.
    * Level maps.  Exactly, a level map is linear and 1-Lipschitz in l_p
      (Hölder; see ``projection``).  Its one coefficient, 1/||d||_p*, is
      computed, which can raise the Lipschitz constant to 1 +
      gamma_{2m+16} (the kernel's bound, and one pow).  A feature is a dot
      product of m terms, scaled: it is off by gamma_{m+2} times the map
      applied to absolute values, which Hölder also bounds by the block's
      l_p length.  Level k+1 is projected from the unrounded level k, so
      ||x_k^ - y_k^||_p <= D (1 + sum_{j<=k} gamma_{2 m_j + 16}) +
      sum_{j<=k} gamma_{m_j + 2} (||x||_p + ||y||_p), and ||x_k^||_p <=
      ||x||_p.
    * Storage.  Rounding to float32 moves a feature by at most 2^-24 of its
      magnitude, or by 2^-150 among subnormals: the stored row lies within
      2^-24 (||x||_p + n_k 2^-126) of x_k^.  No match overflows, because
      ||x_k^||_p <= ||x||_p < ||y||_p + D stays below 2^127 (times 1 + O(u))
      while scale does.
    * Sum.  As epsilon <= scale and ||x||_p + ||y||_p < 2 scale, the level-k
      kernel distance of x exceeds epsilon by at most scale (2^-24 +
      kappa(n_0) + kappa(n_k) + sum_{j<=k} (gamma_{2 m_j + 16} + 2
      gamma_{m_j + 2})) + 2^-24 n_k 2^-126, which is c_k (scale + n_k
      2^-126) / 2.

    The other half of c_k covers the O(u^2) terms, the rounding of scale, of
    the margin and of epsilon + margin (a few u of scale, for any n_0 <
    2^20), and at a float32 level float64 underflow, at most sqrt(n
    2^-1074) in any kernel distance and far below c_k n_k 2^-126 / 2
    (coded levels take a_k instead, below).

    * Float32 levels (f_k).  A level k >= 1 under any norm but l_1 and
      l_inf runs the kernel on the stored row x' against q' = fl32(y_k^)
      (gamma'_j = j v / (1 - j v)).  Rounding moves each y_k^_i by at most
      v |y_k^_i|, or 2^-150 among subnormals, so ||q' - y_k^||_p <=
      v ||y_k^||_p + n 2^-150; no q'_i overflows while scale < 2^127.
      Under l_2 and l_4 the kernel works in float32, and each float32
      difference rounds once (exactly, if subnormal).  l_2 and l_4 square
      once or twice (gamma'_3 or gamma'_7 per term with the difference)
      and may lose 2^-150 per term to underflow; the sum is within
      gamma'_{n+2} or gamma'_{n+6} of sum e_i^p (e = x' - q') plus
      n 2^-150, under n 2^-49 of it, as a row whose float32 sum s is not in
      [2^-100, inf) takes the float64 kernel (within kappa(n)) instead; the
      one root adds half of that and v, the two roots a quarter and 3v/2.
      So the kernel returns c' within kappa' of A' = ||x' - q'||_p,
      relatively and with no absolute term: kappa' = (n + 6) v / 2 under
      l_2 and (n + 14) v / 4 under l_4 (to first order, for n < 2^26).  c'
      is returned as float64, exactly, and compared with tau_k in float64.
      A match's differences stay below 2^127 (times 1 + O(v)), so none
      overflows.  With A = ||x' - y_k^||_p,
      the float64 kernel's level distance of a match was within kappa(n_k)
      of A, so A - epsilon is at most the bound of Sum less scale
      kappa(n_k), and A + ||y_k^||_p <= scale (1 + 2^-22) by the bounds
      above.  The triangle inequality gives

          c' - epsilon <= (A - epsilon) + v ||y_k^||_p
                          + kappa' (A + v ||y_k^||_p) + (1 + kappa') n 2^-150,

      and as kappa' >= v, v ||y_k^||_p + kappa' A <= kappa' (A + ||y_k^||_p)
      <= kappa' scale (1 + 2^-22).  f_k exceeds kappa' by at least v, which
      covers kappa' (2^-22 + v) <= v / 4 for n_k < 2^20, the O(v^2) terms
      and the rounding of f_k and of the margin; f_k n_k 2^-126 >= j n_k
      2^-150 >= 2 n_k 2^-150 covers the absolute term, as kappa' <= 1.
      Under any other p the kernel takes x' and q' into float64 exactly, and
      its max-divided form is within kappa(n_k) of A', so c' - epsilon <=
      (A - epsilon) + kappa(n_k) A + (1 + kappa(n_k)) (v ||y_k^||_p +
      n 2^-150): the bound of Sum covers the first two terms, and f_k =
      gamma'_2 the rest, with v of scale to spare.  The term is stated
      relative to scale, the one input of the rule: the query's rounding is
      relative to ||y_k^||_p, not to the level distance, so a bound by
      kappa' tau_k, tighter by about epsilon / scale in its kappa' part,
      would need epsilon and ||y||_p apart.
    * Coded levels (l_1 and l_inf, G_k).  Level k stores each feature x^_i
      of a row as a code c in [0, 2^15 - 1] of the grid g(c) = lo + c step,
      which covers [lo, hi], the least and greatest finite feature of the
      level, so x^ of a match (finite, as ||x^||_p <= ||x||_p < 2 scale)
      lies in the grid's range.  The query's q~ = clip(y_k^) to the range
      moves no |x^_i - y_k^_i| up, as clipping to an interval is
      1-Lipschitz and fixes x^_i.  Each code is within (1/2 + 2^-38) step
      of its value (``_encode``): the row's g(c_x) of x^, the query's
      g(c_q) of q~; overflow and nan only clip.  By the triangle
      inequality, ||g(c_x) - g(c_q)||_p <= ||x^ - y_k^||_p + n_k^(1/p) step
      (1 + 2^-37).  The kernel takes c_x and c_q in int16 and returns the
      exact S = ||c_x - c_q||_p (differences and absolute values fit int16,
      an l_1 sum int32 or int64, and S < 2^53 is exact in float64), and
      step S = ||g(c_x) - g(c_q)||_p in exact arithmetic.
      ||x^ - y_k^||_p - epsilon is at most the bound of Sum without its
      storage and level-kernel terms (2^-24 and kappa(n_k)), inside
      margin_k with s = f_k = 0.  G_k covers the codes' (1 + 2^-37) step in
      each column, and its 2^-33 the rounding of its addition to epsilon +
      margin_k (an inf G_k prunes nothing); c_k covers that of epsilon +
      margin_k as before.  So step S < tau_k for every match.  The level
      compares S with tau_k / step_k, which is exact in float64: tau_k >=
      G_k >= step_k, so the quotient is at least 1, and dividing by a power
      of two is exact there, or +inf beyond the float64 range.  So S <
      tau_k / step_k exactly when step S < tau_k, however large or small
      (subnormal) step is; an infinite quotient keeps every row, as step S
      < tau_k does for every S < 2^53 then.
    * Coded levels' underflow (a_k).  Under l_1 and l_inf the level-0
      kernel and ||y||_p carry no absolute error, as a difference or a sum
      that lands among subnormals is exact.  A level map does: each of a
      feature's m_j products d_i x_i may lose 2^-1075 to underflow, and the
      division by ||d||_p*, at least 1/sqrt(m_j) for a unit d, one more, so
      a level-j feature carries at most (m_j^(3/2) + 1) 2^-1075, and n_j of
      them at most (n_{j-1} sqrt(m_j) + n_j) 2^-1075 in l_1 length (less in
      l_inf).  Later level maps carry it on, 1-Lipschitz up to 1 + O(u),
      so x_k^ and y_k^ together are off by at most sum_{j<=k} (m_j n_{j-1}
      + n_j) 2^-1074 beyond the relative bounds above.  Coding is exact to
      (1/2 + 2^-38) step at any scale, S and tau_k / step_k are exact, and
      c_k scale loses at most 2^-1075 where it underflows: the 4 2^-1074 of
      a_k covers that and the O(u) factors.  So coded levels prune data of
      any scale down to about a_k (a_2 = 344 2^-1074 for the schedule 64,
      16, 4), where a float32 term c_k n_k 2^-126 would keep every row
      below about 1e-49.

    A non-match may be kept or pruned freely; verification at level 0
    decides it.
    """
    dims = schedule.dims
    if not scale < _F32_SAFE:
        return (math.inf,) * schedule.levels
    coded = _coded(norm)
    storage = 0.0 if coded else 2.0 ** -23
    margins = []
    maps = 0
    underflow = 4
    for k in range(1, len(dims)):
        maps += 4 * (dims[k - 1] // dims[k]) + 20
        underflow += dims[k - 1] // dims[k] * dims[k - 1] + dims[k]
        c_k = storage + (2 * dims[0] + 2 * dims[k] + maps + 32) * _EPS
        if coded:
            margins.append(c_k * scale + underflow * _F64_MIN)
        else:
            j = {2.0: (dims[k] + 8) / 2, 4.0: (dims[k] + 20) / 4}.get(norm.p, 2)
            f_k = j * _F32_U / (1.0 - j * _F32_U)
            margins.append((c_k + f_k) * (scale + dims[k] * _F32_TINY))
    return tuple(margins)


def range_query(index: SubspaceIndex, y, epsilon: float) -> QueryReport:
    """All items within strict l_p distance epsilon of y, with counters.

    One filter walks the levels k = t..0 coarse to fine, and every level is
    one stage: its stored matrix, its squared-norm slot
    (``SubspaceIndex.sq_norms``), the query projected to it and a limit in
    the units of its kernel's output.  Each stage screens its candidates
    (``_screen``), sweeps the rest with the distance kernel in cache-sized
    chunks (``norms.sweep``), so a query never copies a whole feature or
    data matrix, keeps a row while the kernel's distance is below the limit
    and compacts the candidates.  At level k >= 1 every match's level
    distance lies below tau_k = epsilon plus the level's margin
    (``level_margins``) and grid term.  Verification is level 0, over the
    stored vectors with limit epsilon, and its survivors are the matches;
    there the kernel also runs on every row the screen keeps, so every
    decision and reported float is the kernel's own.  The level-major
    sweep evaluates exactly the pairs the per-item two-loop cascade would,
    so counters match the cost model verbatim.  Every level k >= 1 hands
    the kernel, and the screen, the
    query projected in float64 and then taken to the dtype of its features,
    and the kernel picks the arithmetic from its inputs.  Under l_1 and
    l_inf the point is coded on the level's grid (``_encode``), the kernel
    returns the exact code distance S in integer arithmetic, and the limit
    is tau_k / step_k, in code units and exact.  Under every other norm the
    point is rounded to float32, the limit is tau_k, and the kernel works in
    float32 under l_2 and l_4 and in float64 in the max-divided form, which
    the margins' float32 term covers.  Level 0 works in float64.
    """
    query = as_vector(y, index.schedule.dims[0])
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    points = [query]
    for level in index.levels:
        points.append(project_level(points[-1], level))
    with np.errstate(over="ignore"):  # an overflowed norm: no level prunes
        scale = lp_norm(query, index.norm) + epsilon
        # the dtype of the features; a point overflows only under infinite
        # margins, which prune nothing
        points[1:] = [point.astype(np.float32) if grid is None
                      else _encode(point, *grid).astype(np.int16)
                      for point, grid in zip(points[1:], index.grids)]
        margins = level_margins(index.schedule, scale, index.norm)
        # tau_k, over a coded level's step: exact, or inf (level_margins)
        limits = [epsilon, *((epsilon + margin + term) / (1.0 if grid is None else grid[1])
                             for margin, term, grid in
                             zip(margins, index.grid_terms, index.grids))]

    dims = index.schedule.dims
    s = index.count
    survivors = [0] * len(dims)
    candidates = np.arange(s)
    cost = 0
    stages = list(zip((index.data, *index.features), index.sq_norms, points, limits))
    for k in reversed(range(len(dims))):
        matrix, sq_norms, point, limit = stages[k]
        cost += candidates.size * dims[k]
        keep, band = _screen(matrix, sq_norms, candidates, point, limit)
        if k == 0 and keep is not None:
            band = keep | band  # every reported distance is the kernel's float
        dist = sweep(matrix, candidates[band], point, index.norm, distances_to_point)
        hit = dist < limit
        if keep is None:
            keep = hit
        else:
            keep[band] = hit
        if k:
            # only level 0 reports its distances; freeing a finer level's
            # before compacting measurably keeps glibc from trimming and
            # re-faulting the heap between sweeps
            dist = None
        candidates = candidates[keep]
        survivors[k] = int(candidates.size)
    return QueryReport(
        matches=Matches(index.ids[candidates], dist[hit]),
        survivors=tuple(survivors),
        cost_s=cost,
        cost_l=s * dims[0],
        epsilon=epsilon,
    )


def _dot(block: np.ndarray, point: np.ndarray, norm, scratch: bool = False) -> np.ndarray:
    """A ``sweep`` kernel: the inner product of each row with ``point``;
    it writes no block, so ``scratch`` changes nothing."""
    return block @ point


def _screen(matrix: np.ndarray, sq_norms: np.ndarray | None, candidates: np.ndarray,
            point: np.ndarray, limit: float):
    """Decide what the kernel's verdict ``dist < limit`` on the ``matrix``
    rows ``candidates`` against ``point`` is without running the kernel;
    one stage of ``range_query`` passes its own arrays and limit.

    Returns ``(keep, band)``: ``keep`` is a boolean mask over
    ``candidates``, true for rows surely kept, and ``band`` selects the rows
    only the kernel can decide, whose ``keep`` entries the caller overwrites
    with its verdict; every other row is surely pruned.  When the kernel
    decides every row, ``keep`` is None and ``band`` is ``slice(None)``.

    * An infinite limit keeps every row, even at distance inf: a match's
      stored features may have overflowed float32 (``level_margins``).
    * With the rows' squared norms ``sq_norms`` (l_2), a matrix-vector
      product screens the rows: ``keep`` holds those inside and ``band`` is
      a mask.
    * With a None slot (every other norm) the kernel decides every row, so
      a level is one sweep and one comparison.

    The l_2 screen forms g = xx + qq + cross (``norms.band``), with xx the
    stored squared row norm, qq = q.q and cross = -2 x.q,
    the inner products x.q, scaled in place, by one whole-matrix GEMV
    ``M @ q``, indexed, once the
    candidates reach ``_GEMV_SHARE`` of the rows, and else by one GEMV per
    1 MiB gather.  They take the matrix and q as the kernel does: float64
    at level 0, and float32 at a level k >= 1, whose float32 query
    (``range_query``) keeps its GEMV in float32 BLAS, so that no float64
    copy of its rows is ever made; qq is summed in float64 either way, as
    xx is.  ``norms.band_screen`` then splits the candidates into inside,
    band and outside, as ``norms.band`` would, with w* taken at the
    candidates' largest xx: its two-sided scalar pre-screen decides most
    rows, and the band runs on the rest.  The same screen serves
    calibration (``oracle._gemm_kth``); ``norms.band``'s docstring derives
    the half-width that makes each verdict the kernel's.
    """
    if limit == math.inf:
        keep = np.ones(candidates.size, dtype=bool)
        return keep, ~keep
    if sq_norms is None:
        return None, slice(None)
    rows, n = matrix.shape
    # an overflow only puts rows in the band, which the kernel then decides
    with np.errstate(over="ignore", invalid="ignore"):
        if candidates.size >= _GEMV_SHARE * rows:
            # one whole-matrix GEMV, which BLAS splits over its threads; it
            # reads every row (see _GEMV_SHARE)
            dots = matrix @ point
            xx = sq_norms
            if candidates.size < rows:
                dots = dots[candidates]
                xx = xx[candidates]
        else:
            dots = sweep(matrix, candidates, point, L2, _dot)
            xx = sq_norms[candidates]
        dots *= -2.0  # a fresh array on every path above
        # summed in float64, as xx is: a float32 point's own dot is float32
        qq = float(np.einsum("i,i->", point, point, dtype=np.float64))
        return band_screen(xx + qq + dots, xx, xx.max(initial=0.0), qq, limit, n,
                           single=point.dtype == np.float32)


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


def save_index(index: SubspaceIndex, path) -> None:
    """Persist an index: a prefix and a JSON header, then the arrays
    ``_sections`` lists, in its order and at its dtypes: the ids at int64
    and the vectors at float64, then every level's directions at float64,
    its grid (lo, step) at float64 and its features, int16 codes under l_1
    and l_inf (``norms._coded``) and float32 under every other norm, whose
    grid slots are None and whose grid sections are empty.  Both modes
    share the layout.

    Nothing is rounded, so ``load_index`` returns the same index bit for
    bit.  The vectors are always embedded: the search is exact only over the
    rows the levels were projected from.  Each array is written in 1 MiB
    row chunks (``_write_rows``), so saving holds no second copy of one.
    The container is written to a new file beside ``path``, which takes the
    old file's place only once it is whole: a save that fails leaves
    ``path`` as it was, and an index loaded from ``path`` with
    ``mmap_data=True`` can be saved back to it.  A column-major level
    (``SubspaceIndex``) is written row-major, one chunk copy at a time.
    """
    header = {
        "format": _FORMAT,
        "norm": index.norm.label(),
        "mode": index.mode,
        "schedule": list(index.schedule.dims),
        "count": index.count,
        "data_included": True,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    head = _MAGIC + struct.pack("<IQ", _VERSION, len(blob)) + blob
    arrays = [index.ids, index.data]
    for level, grid, feats in zip(index.levels, index.grids, index.features):
        arrays += [level.directions, np.array(grid or (), dtype=np.float64), feats]
    sections = _sections(index.count, index.schedule.dims, _coded(index.norm))
    # written beside the target, which is replaced only once the new file is
    # whole: a failed save leaves the old file as it was, and an index
    # mapping it keeps its bytes
    partial = f"{os.fspath(path)}.{os.urandom(4).hex()}.partial"
    try:
        with open(partial, "xb") as handle:
            if hasattr(os, "posix_fallocate"):
                # blocks reserved before the first write: ext4 flushes a file
                # whose blocks are still unallocated when os.replace puts it
                # over an existing one, 0.4 s for a 403 MB container
                os.posix_fallocate(handle.fileno(), 0, len(head) + _nbytes(sections))
            handle.write(head)
            for array, (dtype, _) in zip(arrays, sections):
                _write_rows(handle, array, dtype)
        # one step: until it returns the old file is whole, and after it the
        # partial name no longer exists
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _sections(count: int, dims: tuple[int, ...],
              coded: bool) -> list[tuple[str, tuple[int, ...]]]:
    """The arrays a container holds after its header, in file order, as
    (dtype, shape) pairs: the ids and the vectors, then for each level its
    directions, its grid (lo, step) and its features, int16 codes when
    ``coded`` (``norms._coded``) and float32 otherwise.  A float32 level's
    grid section is empty.  ``save_index`` writes against this list, and
    ``load_index`` checks the file's size against it and reads it."""
    sections = [("<i8", (count,)), ("<f8", (count, dims[0]))]
    for dim_in, dim_out in zip(dims, dims[1:]):
        sections += [("<f8", (dim_out, dim_in // dim_out)),
                     ("<f8", (2 if coded else 0,)),
                     ("<i2" if coded else "<f4", (count, dim_out))]
    return sections


def _nbytes(sections: list[tuple[str, tuple[int, ...]]]) -> int:
    """Bytes that ``sections`` span in a container."""
    return sum(np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in sections)


def _write_rows(handle, array: np.ndarray, dtype: str) -> None:
    """Write an array row-major at ``dtype``, one 1 MiB chunk of rows at a
    time; a chunk is copied only if it needs a cast or is not row-major."""
    for chunk in row_chunks(len(array), math.prod(array.shape[1:])):
        np.ascontiguousarray(array[chunk], dtype=dtype).tofile(handle)


def load_index(path, mmap_data: bool = False) -> SubspaceIndex:
    """Reload a persisted index, equal bit for bit to the one that was saved.

    The header's count, schedule and norm give the arrays that follow it
    (``_sections``): the file's size must be the one they span, and they
    are read in their order, each with ``np.fromfile`` but the embedded
    vectors under ``mmap_data``, which are mapped read-only.  The cascade
    touches level 0 only for final verification, so mapping keeps the
    resident set near the feature matrices.  A verification reads
    every row once its candidates reach ``norms._DENSE_SHARE`` of them (the
    kernel sweeps slices of every row) or, under l_2, ``_GEMV_SHARE`` (the
    screen's whole-matrix GEMV).  The feature matrices are kept at the
    dtype they are read as, int16 codes (2 bytes per feature) under l_1
    and l_inf and float32 (4 bytes) under every other norm; a level
    narrower than 128 columns of codes or 32 of float32 features is copied
    once into column-major order (``SubspaceIndex``), and an empty grid
    section is read as a None grid slot.  Every level is
    rebuilt from its stored directions, so the mode is only a label.  Only
    version 4 is read.  A container of another format or version, whose
    header is not an object, lacks a field, holds an invalid norm or
    schedule, a count that is not an integer of at least 1 or a
    ``data_included`` that is not ``true``, whose size is not the one its
    header describes, whose directions are not finite unit rows, or whose
    grid has a lo that is not finite, a step that is not a positive power
    of two or a code outside [0, 2^15 - 1], raises a ``ValueError`` whose
    message starts with the path; so does an unknown mode, which
    ``SubspaceIndex`` rejects, as it rejects a bad grid.
    """
    try:
        return _read_container(path, mmap_data)
    except (TypeError, ValueError, RecursionError) as err:
        # header fields of the wrong type raise TypeError, and a header
        # nested too deep for the JSON decoder RecursionError
        raise ValueError(f"{path}: {err}") from err


def _read_container(path, mmap_data: bool) -> SubspaceIndex:
    """``load_index`` without the path in its error messages."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        prefix = handle.read(len(_MAGIC) + 12)
        if len(prefix) < len(_MAGIC) + 12 or prefix[:len(_MAGIC)] != _MAGIC:
            raise ValueError("not an index container")
        version, header_len = struct.unpack_from("<IQ", prefix, len(_MAGIC))
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version}")
        if header_len > size - len(prefix):
            raise ValueError(f"a {header_len}-byte header does not fit "
                             f"in a {size}-byte container")
        header = json.loads(handle.read(header_len).decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("container header is not a JSON object")
        if header.get("format") != _FORMAT:
            raise ValueError(f"unknown container format {header.get('format')!r}")
        mode = header.get("mode")
        for key in ("norm", "schedule", "count", "data_included"):
            if key not in header:
                raise ValueError(f"container header has no {key!r}")

        norm = as_norm_order(header["norm"])
        schedule = DimensionSchedule(tuple(header["schedule"]))
        count = _integer(header["count"], "count")
        if count < 1:
            raise ValueError(f"count {count} must be at least 1")
        if header["data_included"] is not True:
            raise ValueError(f"data_included {header['data_included']!r} is not True: "
                             "every container embeds its vectors")
        sections = _sections(count, schedule.dims, _coded(norm))
        # the one size check, before any section is allocated: a hostile
        # count or schedule is rejected here, and every read below is whole
        expected = len(prefix) + header_len + _nbytes(sections)
        if size != expected:
            raise ValueError(f"container holds {size} bytes, its header describes {expected}")
        arrays = []
        for dtype, shape in sections:
            if mmap_data and len(arrays) == 1:  # the vectors
                array = np.memmap(path, dtype=dtype, mode="r", offset=handle.tell(), shape=shape)
                handle.seek(array.nbytes, 1)
            else:
                array = np.fromfile(handle, dtype=dtype, count=math.prod(shape)).reshape(shape)
                array = array.astype(array.dtype.newbyteorder("="), copy=False)
            arrays.append(array)

    ids, vectors, *levels = arrays
    return SubspaceIndex(
        schedule=schedule,
        norm=norm,
        mode=mode,
        levels=tuple(ProjectionLevel(norm, directions) for directions in levels[0::3]),
        features=tuple(levels[2::3]),
        data=vectors,
        ids=ids,
        grids=tuple(tuple(grid.tolist()) if grid.size else None for grid in levels[1::3]),
    )
