"""l_p norms and the shared machinery every layer measures and stores with.

* The distance kernel (``distances_to_point``), the package's one l_p
  length, and its chunked sweep over a matrix's rows (``sweep``).  The
  Chebyshev norm is a distinct case, never approximated by a large finite
  exponent.
* The thread split (``in_parts``) over fixed row chunks (``row_chunks``)
  or samples, which the build, calibration and the row powers share.
* The level store (``_stored``): what an index under a norm stores for a
  matrix, int16 codes on a fitted grid (``_fit_grid``, ``_encode``) under
  l_1 and l_inf and float32 under every other norm, in the kernel's layout
  (``_column_major``).
* The band screen of l_2 and l_4: one half-width rule (``half_width``)
  and one band (``band``) for both powers, and ``band_screen``, which
  decides most of a query's or a calibration sample's verdicts from a
  GEMV or GEMM expansion g = powers + qq + cross.

Norm-equivalence checks (``check_norm_equivalence``) serve the tests.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormOrder",
    "L1",
    "L2",
    "L4",
    "LINF",
    "as_norm_order",
    "as_vector",
    "lp_norm",
    "distances_to_point",
    "sweep",
    "check_norm_equivalence",
]


@dataclass(frozen=True)
class NormOrder:
    """Exponent of an l_p norm, any real number (numpy's too) but a bool;
    ``p = math.inf`` selects the Chebyshev norm."""

    p: float

    def __post_init__(self) -> None:
        if isinstance(self.p, bool) or not isinstance(self.p, numbers.Real):
            raise ValueError(f"norm order must be a number, got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))
        if math.isnan(self.p) or self.p < 1.0:
            raise ValueError(f"norm order must satisfy p >= 1, got {self.p}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.p)

    @property
    def dual(self) -> "NormOrder":
        """Dual exponent p* with 1/p + 1/p* = 1 (p=1 <-> p=inf)."""
        if self.is_infinite:
            return NormOrder(1.0)
        if self.p == 1.0:
            return NormOrder(math.inf)
        return NormOrder(self.p / (self.p - 1.0))

    def label(self) -> str:
        """Short printable form: "1", "2", "4", "inf", "2.5", ..."""
        if self.is_infinite:
            return "inf"
        if self.p == int(self.p):
            return str(int(self.p))
        return repr(self.p)

    def __str__(self) -> str:
        return f"l_{self.label()}"


L1 = NormOrder(1.0)
L2 = NormOrder(2.0)
L4 = NormOrder(4.0)
LINF = NormOrder(math.inf)

# Byte budget of one chunk of float64 rows in a distance sweep: small
# enough that the chunk and the kernel's buffer stay in L2.
CHUNK_BYTES = 2 ** 20
# Float rows narrower than this are reduced down the columns of a
# transposed buffer, in order (``_sums``: numpy's own sum turns pairwise
# from 8 terms on, in a one-row buffer only) or by a maximum; wider rows
# along themselves.  A 20k-row l_inf scan (2 CPUs) takes 1.0 ms that way
# against 3.1 ms row-major at 16 columns, but 8.2 against 5.6 ms at 64:
# they meet between 32 and 48 columns.  ``einsum`` is not used: above
# 8,192 columns (``np.getbufsize()``) it gives a row in a one-row or
# three-row buffer another float than in a larger one.  An index holds its
# float32 levels narrower than this column-major (``_column_major``,
# ``tree.SubspaceIndex``), which is the transposed buffer's layout: a sweep
# then reads contiguous columns, with no per-chunk transpose.
_NARROW = 32
# The same width for int16 grid codes (``_column_major``), whose integer
# sums and maxima are exact in any order: codes narrower than this are
# stored (``_stored``) and held (``tree.SubspaceIndex``) column-major,
# reduced down the columns by one ``np.add.reduce`` or maximum, and swept
# in chunks of CHUNK_BYTES of their 2-byte items.  Dense sweeps of 20k
# random rows (alternated, 2 CPUs, medians of 21) took, column-major
# against row-major, l_1 0.56 against 1.17 ms at 48 columns, 0.99 against
# 1.64 at 64 and 1.73 against 2.23 at 128, and l_inf 0.45 against 1.86,
# 0.58 against 1.99 and 0.90 against 2.07; l_1 met between 128 and 192
# columns (3.33 against 3.24 ms there) and l_inf near 384.  Gathered
# sweeps of fewer than ``_DENSE_SHARE`` of the rows pay for the column
# gather instead: at 64 columns l_1 took 0.79 against 0.62 ms over 0.3 of
# the rows and 1.48 against 0.93 over 0.6, so the width stays at the
# lower of the two crossings.
_CODE_NARROW = 128
# Share of a matrix's rows from which ``sweep`` runs the kernel on plain
# slices of every row and indexes the distances, instead of gathering the
# candidates' rows chunk by chunk.  Timed l_1, l_4 and l_inf sweeps of 20k
# random rows (2 CPUs) break even near 0.3 of the rows at 4 columns, 0.4-0.6
# at 16 and 64 and 0.6-0.7 at 768 and 960.  A later timing that alternated
# float32 rows (the index's features, then cast into a float64 buffer at
# every level) with float64 rows of the same values put both near 0.3 at 4
# columns and 0.75 at 16 and 64; at 768 and 960 columns float32 rows broke
# even at 0.75-0.9 against 0.7-0.75, their dense sweeps running up to 7%
# slower and their gathers no slower.  Two thirds stays, for both dtypes.
# Alternated l_1 and l_inf sweeps of int16 codes (the levels of such an
# index; 2 CPUs, medians of 15-41) break even near 0.3 of the rows or below
# at 4 columns (20k and 4,096 rows), 0.5-0.67 at 16, 0.75-0.85 at 48 and
# 0.75-0.95 at 768: the narrow widths want a lower share and the wide ones
# a higher, so two thirds stays for codes too.  Re-timed once narrow levels
# were held column-major and gathers differenced in place (alternated, 2
# CPUs, medians of 15, 20k rows, 4,096 at 768 columns): column-major int16
# levels break even near 0.4-0.5 of the rows at 4 columns and 0.2-0.5 at
# 16, column-major float32 l_4 levels near 0.6-0.67 at 4 and 16; row-major
# int16 levels at 0.75-0.85 from 48 to 768 columns, float32 l_4 levels at
# 0.6-0.85 and float64 l_1 and l_inf rows (level 0) at 0.85 or above.  No
# one share serves every width, so two thirds stays.
_DENSE_SHARE = 2 / 3
# Smallest sum of squares (l_2) or of fourth powers (l_4) the kernel takes as
# it is: from here up, the at most 2^-1074 a term can lose to underflow is
# under 2^-274 of the sum.
_FLOOR = 2.0 ** -800
# The same for the float32 kernel: from 2^-100 up, the at most 2^-150 a
# float32 term can lose to underflow is under 2^-50 of the sum.
_F32_FLOOR = 2.0 ** -100
# float64 machine epsilon (2^-52) and smallest normal float64 (2^-1022): the
# relative and absolute terms of the band's half-width (``half_width``).  A
# block moment below 2^-1022 has underflowed (``projection``).
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1022
# float32 unit roundoff (2^-24) and smallest subnormal (2^-149): the
# relative and absolute terms float32 inner products add to the band.
_F32_U = 2.0 ** -24
_F32_MIN = 2.0 ** -149
# Largest grid code of an integer-coded level (``tree``) or calibration
# sweep (``oracle``): codes and their differences fit in int16.
_CODE_MAX = 2 ** 15 - 1
_EQUIVALENCE_TOL = 1e-9  # relative slack of ``check_norm_equivalence``


def as_norm_order(p) -> NormOrder:
    """Coerce a NormOrder, number, or string like "2" / "inf" to NormOrder."""
    if isinstance(p, NormOrder):
        return p
    if isinstance(p, str):
        text = p.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return LINF
        return NormOrder(float(text))
    return NormOrder(p)


def _coded(norm: NormOrder) -> bool:
    """The one rule for int16 codes: whether lengths under ``norm`` may be
    taken on grid codes, l_1 and l_inf, whose code distances are exact
    integers.  An index under such a norm stores its levels as codes
    (``_stored``), calibration screens its samples through them (``oracle``),
    and the kernel takes int16 inputs in integer arithmetic only under it."""
    return norm.p == 1.0 or norm.is_infinite


def _column_major(dtype, n: int) -> bool:
    """The one layout rule: whether rows of width n whose kernel buffer has
    this dtype are reduced down the columns of a transposed buffer, and so
    held column-major by an index (``tree.SubspaceIndex``) and by
    calibration's codes (``_stored``).  int16 codes are below
    ``_CODE_NARROW`` (128) columns, every float dtype below ``_NARROW``
    (32)."""
    return n < (_CODE_NARROW if dtype == np.int16 else _NARROW)


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """``v`` as a float64 array, checked to be a nonempty 1-d vector of
    finite components, ``dim`` of them when given: every query is checked
    here before it reaches the kernel."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0 or (dim is not None and arr.size != dim):
        expected = "a nonempty 1-d vector" if dim is None else f"a {dim}-vector"
        raise ValueError(f"expected {expected}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite components")
    return arr


def lp_norm(v, p) -> float:
    """(sum |x_i|^p)^(1/p) for finite p; max |x_i| for the Chebyshev norm:
    the distance kernel's length of ``v`` from the zero vector."""
    vec = as_vector(v)
    return float(distances_to_point(vec[None, :], np.zeros_like(vec), as_norm_order(p))[0])


def distances_to_point(rows: np.ndarray, y: np.ndarray, norm: NormOrder,
                       scratch: bool = False) -> np.ndarray:
    """l_p distance from each row of ``rows`` to ``y``, vectorized, as float64.

    The package's one l_p length: scans, cascade levels, projection scales
    and ``lp_norm`` all call it.  Inputs are assumed validated (``y``
    finite, matching dims); scans and levels feed it one chunk of rows at
    a time (see ``sweep``).  It takes the differences in one buffer
    (``_differences``) and works in it in place.  The buffer is new unless
    ``scratch`` is set: then the caller gives ``rows`` up (``sweep`` does so
    with its private gathers), and under l_1, l_inf and the max-divided
    form the kernel takes the differences in ``rows`` itself when they
    share ``y``'s dtype and already have the buffer's layout.  l_2 and l_4
    always take a new buffer, because their fallback below re-reads the
    rows.  Without ``scratch`` no row is written.  The dtypes select the
    arithmetic of the first two forms below: integer when ``rows`` and
    ``y`` are both int16 under l_1 or l_inf (the grid codes of every level
    k >= 1 of such an index, whose query ``tree.range_query`` codes on the
    same grid), float32 when both are float32 (every level k >= 1 of an
    index under another norm, whose query is rounded to float32), float64
    otherwise, where a float32 or int16 row is cast into the float64 buffer
    and so is at the distance of its float64 copy.  The third form is
    float64 arithmetic whatever the dtypes.  A row whose difference
    overflows, or holds an infinite component, is at distance inf under
    every norm, and so is one whose l_1 sum overflows; no overflow warns.
    There are three forms:

    * l_1 and l_inf: the sum or the maximum of the absolute differences.
      Codes lie in [0, 2^15 - 1], so their differences and absolute values
      are exact in int16, and l_1 sums them in int32 (int64 from n (2^15 -
      1) >= 2^31 up): the distance is the exact integer, as float64.  The
      float64 maximum is taken over the buffer's int64 view, the same float
      in about half the time along rows of 64 columns (2,048 of them: 132
      against 248 us): an absolute value has its sign bit clear, and for
      nonnegative doubles, subnormals, zeros and +inf alike, the order of
      their bits is the order of their values (a nan's bits exceed every
      other's, so a row holding one is at nan, as ``max`` gives it).
    * l_2 and l_4: the differences squared (twice under l_4) and summed
      give s = sum d_i^p within gamma_{n+6} in any order of summation (at
      most gamma_7 per term from the difference and the products, n - 1
      roundings in the sum; u = 2^-53, gamma_j = j u / (1 - j u)), and the
      distance, one square root of s (two under l_4), adds 1/p of that and
      under 2u more, so it is within gamma_{n+6} of exact.  A row whose s is
      not in [2^-800, inf) has overflowed, or may have lost terms to
      underflow (an exact duplicate has s = 0), and takes the next form
      instead, which is within gamma_{2n+16}.  In float32 the same holds
      with u = 2^-24 for s in [2^-100, inf) (``_F32_FLOOR``), and a row whose
      s is not takes the float64 kernel, against ``y`` converted exactly.
    * Any other p: every term is divided by the row's maximum before the
      power, so none overflows, and the root is multiplied back.

    One rule reduces the rows of the first two forms, so a row's distance
    is the same float whatever the layout of ``rows`` and however many rows
    share its buffer (``_column_major``): float rows narrower than
    ``_NARROW`` (32) columns, and int16 codes narrower than
    ``_CODE_NARROW`` (128), down the columns of a transposed (n x rows)
    buffer, by a maximum or a sum (``_sums``: in order for floats), and
    wider rows along themselves by numpy's pairwise ``sum`` or ``max``,
    whose order depends on n alone.  Column-major narrow rows (an index's
    narrow levels, ``tree.SubspaceIndex``, and calibration's codes,
    ``_stored``) are that transposed buffer's layout, so their
    differences are read, or taken in place, without a transpose.
    """
    if rows.dtype == y.dtype == np.int16:
        return _distances(rows, y, norm, scratch)  # codes: nothing overflows
    # an overflowed difference or sum is the documented inf, or falls back below
    with np.errstate(over="ignore"):
        return _distances(rows, y, norm, scratch)


def _distances(rows: np.ndarray, y: np.ndarray, norm: NormOrder,
               scratch: bool) -> np.ndarray:
    """``distances_to_point``'s body; the caller holds
    ``np.errstate(over="ignore")`` unless ``rows`` and ``y`` are int16
    codes, whose differences, sums and powers stay in range."""
    p = norm.p
    if not _coded(norm) and y.dtype == np.int16:
        y = y.astype(np.float64)  # integer powers would overflow
    if not (p in (1.0, 2.0, 4.0) or norm.is_infinite):
        diff = _differences(rows, y.astype(np.float64, copy=False), False, scratch)
        return _max_divided(np.abs(diff, out=diff), p)
    narrow = _column_major(y.dtype if rows.dtype == y.dtype else np.float64, rows.shape[1])
    diff = _differences(rows, y, narrow, scratch and p in (1.0, math.inf))
    if norm.is_infinite:
        axis = 0 if narrow else 1
        np.abs(diff, out=diff)
        if diff.dtype == np.float64:
            return diff.view(np.int64).max(axis=axis).view(np.float64)
        return diff.max(axis=axis).astype(np.float64, copy=False)
    if p == 1.0:
        total = None
        if diff.dtype == np.int16:
            total = np.int32 if rows.shape[1] * _CODE_MAX < 2 ** 31 else np.int64
        return _sums(np.abs(diff, out=diff), narrow, total).astype(np.float64, copy=False)
    for _ in range(int(p) // 2):  # l_2 squares once, l_4 twice; (-a)^2 == a^2
        np.multiply(diff, diff, out=diff)
    total = _sums(diff, narrow)
    out = np.sqrt(total)
    if p == 4.0:
        np.sqrt(out, out=out)
    out = out.astype(np.float64, copy=False)
    single = diff.dtype == np.float32
    floor = _F32_FLOOR if single else _FLOOR
    # two reductions clear a chunk whose rows are all in range without a mask
    if total.size and not (total.min() >= floor and total.max() < math.inf):
        fallback = ~((total >= floor) & (total < math.inf))
        if single:
            out[fallback] = distances_to_point(rows[fallback], y.astype(np.float64), norm)
        else:
            out[fallback] = _max_divided(np.abs(rows[fallback] - y), p)
    return out


def _differences(rows: np.ndarray, y: np.ndarray, transpose: bool,
                 scratch: bool) -> np.ndarray:
    """``rows - y`` in a C-ordered buffer, (n x rows) if ``transpose``: a
    buffer of their dtype when ``rows`` and ``y`` share it (int16 codes,
    float32 or float64), and a float64 one otherwise.  With ``scratch``,
    rows that share ``y``'s dtype and are already that buffer, C-ordered
    (column-major if ``transpose``) and writeable, are differenced in
    place; else the buffer is new.  Rows of another dtype than ``y`` are
    cast into a new float64 buffer first and differenced in place: the
    same floats for float32 rows, which convert exactly, in 10-25% less
    time than numpy's mixed-dtype subtraction (20k-row sweeps, 4 to 768
    columns, every kernel norm)."""
    if transpose:
        rows, y = rows.T, y[:, None]
    if rows.dtype != y.dtype:
        diff = rows.astype(np.float64, order="C")
        return np.subtract(diff, y, out=diff)
    if scratch and rows.flags.c_contiguous and rows.flags.writeable:
        return np.subtract(rows, y, out=rows)
    return np.subtract(rows, y, order="C")


def _sums(terms: np.ndarray, narrow: bool, dtype=None) -> np.ndarray:
    """Each row's sum of terms, accumulated in ``dtype`` (the terms' own by
    default): numpy's pairwise ``sum`` along a (rows x n) buffer, or, for a
    ``narrow`` (n x rows) one, ((t_0 + t_1) + t_2) + ... down its columns,
    in the same order for one column as for many.  Integer terms (int16
    codes) are summed down the columns by one ``np.add.reduce``, in
    whatever order numpy takes: their sums are exact."""
    if not narrow:
        return terms.sum(axis=1, dtype=dtype)
    if terms.dtype == np.int16:
        return np.add.reduce(terms, axis=0, dtype=dtype)
    total = terms[0].astype(dtype or terms.dtype)
    for row in terms[1:]:
        total += row
    return total


def _max_divided(diff: np.ndarray, p: float) -> np.ndarray:
    """l_p lengths of the rows of a buffer of absolute differences, each
    divided by its maximum m before the power so that no term overflows,
    then scaled back by m: m * (sum (d_i / m)^p)^(1/p).  A row with m = 0
    is at 0 and one with m = inf at inf.  Overwrites ``diff``."""
    m = diff.max(axis=1)
    finite = (m > 0.0) & (m < math.inf)
    safe = np.where(finite, m, 1.0)
    np.divide(diff, safe[:, None], out=diff)
    np.power(diff, p, out=diff)
    out = safe * np.sum(diff, axis=1) ** (1.0 / p)
    return np.where(finite, out, m)


def row_chunks(count: int, dim: int, chunks: int = 1, itemsize: int = 8):
    """Slices covering ``range(count)`` in order, each spanning at most
    ``chunks`` CHUNK_BYTES of rows of width ``dim`` whose items take
    ``itemsize`` bytes, float64 by default (at least one row)."""
    step = max(1, chunks * CHUNK_BYTES // (itemsize * dim))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def in_parts(work, items) -> list:
    """``[work(item) for item in items]``, with the items dealt in order to
    min(``_usable_cpus()``, len(items)) contiguous parts: the calling thread
    works the first part and a ``ThreadPoolExecutor`` made for the call the
    rest, one thread a part (no pool for one part).  Each result goes to
    its item's slot, so the list, and whatever the caller folds from it in
    item order, is the same for any split.  A worker's exception is raised
    here.  Callers pass fixed items, such as ``row_chunks`` or sample
    positions, and a ``work`` that spends its time in numpy calls that
    release the GIL.  numpy's error state is per thread: a ``work`` that
    may overflow sets its own."""
    items = list(items)
    count = min(_usable_cpus(), len(items))
    if count < 2:
        return [work(item) for item in items]  # one item or one CPU: no pool
    results = [None] * len(items)

    def work_part(part):
        for pos in part:
            results[pos] = work(items[pos])

    parts = np.array_split(np.arange(len(items)), count)
    with ThreadPoolExecutor(count - 1) as pool:
        # the calling thread works the first part: one pool thread fewer,
        # whose heap would keep its buffers resident
        futures = [pool.submit(work_part, part) for part in parts[1:]]
        work_part(parts[0])
        for future in futures:
            future.result()
    return results


def _row_powers(matrix: np.ndarray, quartic: bool = False) -> np.ndarray:
    """Each row's sum of x_i^2, or of x_i^4 = x^2 * x^2 if ``quartic``,
    summed in float64, one row chunk at a time ``in_parts``.  float32
    squares are exact in float64, and ``einsum`` casts as it sums, so no
    float64 copy of a float32 matrix is made.  An overflow gives inf, with
    no warning."""
    out = np.empty(matrix.shape[0])

    def power(chunk):
        rows = matrix[chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            if quartic:
                rows = rows * rows
            out[chunk] = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)

    in_parts(power, row_chunks(*matrix.shape))
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a ``taskset`` or cgroup cpuset narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(matrix: np.ndarray, rows: np.ndarray | None, point: np.ndarray,
          norm: NormOrder, kernel) -> np.ndarray:
    """Distances from ``point`` to ``matrix[rows]``, one cache-sized chunk at a time.

    ``rows`` are ascending distinct row numbers, or None for every row.
    Each chunk (``row_chunks``) is passed to ``kernel(chunk, point, norm,
    scratch=...)`` -- ``distances_to_point`` as the caller's module sees it
    -- so no sweep copies the whole matrix.  Once ``rows`` reach
    ``_DENSE_SHARE`` of the matrix, every chunk is a plain slice of the
    matrix, passed with ``scratch=False``: the kernel runs on every row,
    with no gather and without writing the matrix, and the candidates'
    distances are indexed out of the result.  Below that share each chunk
    gathers the next candidates' rows into a private copy, in the matrix's
    own layout (column-major for a column-major matrix), and passes it with
    ``scratch=True``, so the kernel may take its differences in that copy
    rather than in a second buffer.  A row's distance is the same float
    either way (see ``distances_to_point``).  Chunks span CHUNK_BYTES of
    float64 rows, the kernel's buffer under every float sweep, but of
    2-byte items when int16 codes are swept against codes under l_1 or
    l_inf below ``_CODE_NARROW`` columns: their buffer is a transposed
    int16 one, so 1 MiB holds 8,192 rows of 64 codes.  Wider codes,
    reduced along their rows, keep the float64 budget: with it two threads'
    sweeps of 960-column codes hold under two CHUNK_BYTES, and with 2-byte
    chunks they held 0.2 MB more.
    """
    dense = rows is None or rows.size >= _DENSE_SHARE * matrix.shape[0]
    count = matrix.shape[0] if dense else rows.size
    # a column-major gather: take each column's candidates, then transpose
    columns = matrix.flags.f_contiguous and not matrix.flags.c_contiguous
    n = matrix.shape[1]
    # codes against codes below _CODE_NARROW: a transposed int16 buffer
    codes = (_coded(norm) and matrix.dtype == point.dtype == np.int16
             and _column_major(np.int16, n))
    out = np.empty(count)
    for chunk in row_chunks(count, n, itemsize=2 if codes else 8):
        if dense:
            out[chunk] = kernel(matrix[chunk], point, norm, scratch=False)
        elif columns:
            out[chunk] = kernel(np.take(matrix.T, rows[chunk], axis=1).T, point, norm,
                                scratch=True)
        else:
            out[chunk] = kernel(matrix[rows[chunk]], point, norm, scratch=True)
    if dense and rows is not None and rows.size < count:
        out = out[rows]
    return out


def _fit_grid(features: np.ndarray) -> tuple[float, float]:
    """(lo, step) of the grid lo + c step, c in [0, _CODE_MAX], that covers
    the finite values of ``features``: lo is their least, and step the
    smallest power of two, 2^-1074 at the least, with lo + _CODE_MAX step
    at or above the greatest, found in exact integer arithmetic.  Each row
    chunk's extremes are read ``in_parts``, in ``_stored``'s chunks, and
    folded in chunk order.  A level with no finite value gets lo = 0."""

    def extremes(chunk):
        block = features[chunk]
        finite = block[np.isfinite(block)]
        return float(finite.min(initial=math.inf)), float(finite.max(initial=-math.inf))

    lo, hi = math.inf, -math.inf
    for low, high in in_parts(extremes, row_chunks(*features.shape, itemsize=16)):
        lo, hi = min(lo, low), max(hi, high)
    if lo > hi:
        lo = hi = 0.0
    # hi - lo = span / den exactly, den the larger power-of-two denominator
    (a, b), (c, d) = hi.as_integer_ratio(), lo.as_integer_ratio()
    den = max(b, d)
    span = a * (den // b) - c * (den // d)
    exponent = -1074
    if span:
        # at most two below the answer
        exponent = max(exponent, span.bit_length() - (_CODE_MAX * den).bit_length() - 1)
    # span / den > _CODE_MAX 2^exponent, both sides times den 2^-exponent
    while span << max(0, -exponent) > (_CODE_MAX * den) << max(0, exponent):
        exponent += 1
    return lo, math.ldexp(1.0, exponent)


def _encode(values: np.ndarray, lo: float, step: float) -> np.ndarray:
    """The grid codes of ``values``, as a float64 array: each value clipped
    to [lo, lo + _CODE_MAX step] and rounded to the nearest code.  A nan
    takes code 0.  A value on the grid's range is off its code by at most
    (1/2 + 2^-38) step: (v - lo) / step rounds once, by at most _CODE_MAX u.
    Below step 1 a value on the range cannot overflow v - lo, and from 1
    up v / step cannot overflow; a value beyond the range that overflows
    is clipped like any other.  Each branch works in the one new array its
    first step makes."""
    with np.errstate(over="ignore"):
        if step < 1.0:
            codes = np.subtract(values, lo)
            codes /= step
        else:
            codes = np.divide(values, step)
            codes -= lo / step
    np.rint(codes, out=codes)
    np.fmax(codes, 0.0, out=codes)  # fmax takes 0 over a nan
    return np.fmin(codes, _CODE_MAX, out=codes)


def _stored_dtype(norm: NormOrder):
    """The dtype an index under ``norm`` stores its levels at: int16 grid
    codes under l_1 and l_inf (``_coded``), float32 under every other."""
    return np.int16 if _coded(norm) else np.float32


def _stored(matrix: np.ndarray, norm: NormOrder):
    """(values, grid): what an index under ``norm`` stores for the float64
    ``matrix``, the one store of the build's levels (``tree.build_index``)
    and of calibration's codes (``oracle.calibrate_epsilon``).  Under l_1
    and l_inf the values are the int16 codes of ``matrix`` on a grid
    fitted to it (``_fit_grid``, ``_encode``) and grid is that grid's
    (lo, step); under every other norm they are ``matrix`` rounded to
    float32, a value beyond its range becoming inf as it would on disk,
    and grid is None.  The values are written straight into the layout the
    kernel reduces them in (``_column_major``), so that neither an index
    nor calibration copies them to another, and no float64 copy of the
    matrix is made.  The grid fit and the store each work fixed row chunks
    ``in_parts``; a chunk spans CHUNK_BYTES of its float64 rows and of the
    float64 codes made from them (``row_chunks(..., itemsize=16)``), so two
    coding threads hold what one thread held in whole-CHUNK_BYTES chunks.
    Every value is that of its own row, so the result is the same for any
    split."""
    dtype = _stored_dtype(norm)
    grid = _fit_grid(matrix) if dtype == np.int16 else None
    order = "F" if _column_major(dtype, matrix.shape[1]) else "C"
    values = np.empty(matrix.shape, dtype=dtype, order=order)

    def store(chunk):
        with np.errstate(over="ignore"):
            values[chunk] = matrix[chunk] if grid is None else _encode(matrix[chunk], *grid)

    in_parts(store, row_chunks(*matrix.shape, itemsize=16))
    return values, grid


def _grid_term(norm: NormOrder, n: int, step: float) -> float:
    """G = b + b 2^-32 + 2^-1074 with b = n^(1/p) step, for rows of width n
    coded on a grid of this step: b = n step under l_1 and step under l_inf.
    The difference of two rows' coding errors is at most (1 + 2^-37) step
    in each column (``_encode``), so its l_p length is at most b (1 +
    2^-37), and G >= b (1 + 2^-33) covers that and one more rounding.  b is
    exact (a power of two times an integer), or inf, and G holds its slack
    where b is subnormal too: b 2^-32 then loses at most 2^-1075, and the
    sums are exact, where b (1 + 2^-32) would round back to b."""
    base = (n if norm.p == 1.0 else 1) * step
    return base + base * 2.0 ** -32 + 2.0 ** -1074


def half_width(powers, qq, bound, n: int, quartic: bool = False, single: bool = False):
    """w, the half-width of ``band`` for rows of width n with sums of
    squares ``powers`` (of fourth powers if ``quartic``), the query's qq
    and bound = tau^2 (tau^4):

        l_2:  w = (r + (4n + 16) eps) (xx + qq + tau^2) + a
        l_4:  w = (8n + 72) eps (xxxx + qqqq + tau^4) + 2^-1022

    with r = 0 and a = 2^-1022 for float64 inner products and kernel, and
    for float32 ones (``single``, l_2 only)

        r = gamma'_{n+4} = (n + 4) v / (1 - (n + 4) v),   v = 2^-24
        a = (2n + 8) 2^-149
    """
    if quartic:
        scale, a = (8 * n + 72) * _EPS, _TINY
    elif single:
        scale = (n + 4) * _F32_U / (1.0 - (n + 4) * _F32_U) + (4 * n + 16) * _EPS
        a = (2 * n + 8) * _F32_MIN
    else:
        scale, a = (4 * n + 16) * _EPS, _TINY
    return scale * (powers + qq + bound) + a


def band(g, powers, qq, tau, n: int, quartic: bool = False, single: bool = False):
    """Decide the kernel's verdict ``distances_to_point(x, q, L2) < tau``
    (``L4`` if ``quartic``) for rows x of width n from the expansion

        g = powers + qq + cross

    alone, where that is safe.  Under l_2, powers and qq are the sums of
    squares of x and of q, each summed in float64, and cross = -2 x.q.
    Under l_4 they are the sums of fourth powers, and cross = -4 x^3.q +
    6 x^2.q^2 - 4 x.q^3 (``oracle._l4_cross``), the three inner products
    of q, q^2 and q^3 with x^3, x^2 and x, all in float64, with x^2 = x * x,
    x^3 = x^2 * x and x^4 = x^2 * x^2 (and so for q).

    Returns boolean masks ``(inside, band)`` shaped like g (which broadcasts
    with powers, qq and tau): ``inside`` rows are surely below tau, ``band``
    rows only the kernel can decide, and every other row is surely at or
    above tau.  With bound = tau^2 (tau^4 = (tau tau)^2 under l_4) and w the
    half-width (``half_width``), a row is inside if g + w < bound, outside
    if g - w >= bound, and in the band otherwise or when g or w is not
    finite (an overflowed power, norm, product or bound).  Under l_2 the
    inner products take the kernel's own x and q, both float64 (level 0 of
    the index, calibration's GEMM) or both float32 (``single``: a level's
    feature matrix and the float32 query ``tree.range_query`` hands its
    kernel, so that no float64 copy of the rows is ever made), and the
    kernel's arithmetic follows them; under l_4 both are float64.  Callers
    hold ``np.errstate(over="ignore", invalid="ignore")``.

    Why w decides as the kernel does under l_2 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3; u = eps/2 = 2^-53, gamma_j =
    j u / (1 - j u) and gamma'_j = j v / (1 - j v); D = sum (x_i - q_i)^2
    and S = |x|^2 + |q|^2 exactly, for x and q as the kernel takes them,
    whose float32 values float64 holds exactly):

    * Expansion.  xx and qq are float64 dot products (float32 squares are
      exact in float64), accurate to gamma_n times the sum of their terms
      in any summation order (BLAS blocking and thread count, GEMV or GEMM,
      included), and with float64 inner products so is x.q, to
      gamma_n sum |x_i q_i| <= gamma_n S/2.  The cross term -2 x.q scales
      the computed x.q exactly (or overflows where 2 x.q would), so xx +
      qq - 2 x.q is within 2 gamma_n S of D; the two roundings forming g
      add u (xx + qq) + u |g| <= 3u S to first order, as D <= 2S.  Hence
      |g - D| <= (2n + 3) u S + O(u^2) with float64 inner products.
    * Float32 dots.  Each float32 product x_i q_i (fused or not) is off by
      v of itself plus b = 2^-150, half the smallest subnormal, and the
      sum, in any order and any BLAS blocking, by gamma'_{n-1} of the sum
      of |products| (a sum that lands among subnormals is exact).  With
      A = sum |x_i q_i| <= S/2, the computed dot is within gamma'_n A +
      (1 + gamma'_{n-1}) n b of x.q, so twice it is within gamma'_n S +
      (1 + gamma'_{n-1}) n 2^-149 of 2 x.q.  xx + qq and the two float64
      roundings add (n + 3) u S.  A float32 product or partial sum that
      overflows makes g inf or nan: the row is in the band.
    * Kernel.  ``distances_to_point`` returns c = fl(sqrt(fl(sum
      fl(x_i - q_i)^2))): each difference carries a factor (1 + d), |d| <= u,
      the sum of squares gamma_n in any order, the root one more u, so c^2
      lies within gamma_{n+4} D of D.  Thus c < tau whenever D < tau^2 (1 - gamma_{n+4}),
      and c >= tau whenever D >= tau^2 (1 + 2 gamma_{n+4}).  A row whose
      sum of squares is not in [2^-800, inf) falls back to the max-divided
      form, whose c is within gamma_{2n+16} of sqrt(D): then c < tau
      whenever D < tau^2 (1 - 2 gamma_{2n+16}) and c >= tau whenever
      D >= tau^2 (1 + 2 gamma_{2n+16}), to first order.
    * Float32 kernel.  In float32 each term of c^2 carries at most n + 4
      factors (1 + d), |d| <= v, so (1 - (n + 4) v) D <= c^2 <= D / (1 -
      (n + 4) v): c < tau whenever D < tau^2 (1 - gamma'_{n+4}), and c >= tau
      whenever D >= tau^2 (1 + gamma'_{n+4}).  A square that underflows
      loses at most 2^-150, in all at most n 2^-50 of a float32 sum in
      [2^-100, inf), so under n 2^-48 S as D <= 2S.  A row whose float32
      sum is not in that range takes the float64 kernel against q converted
      exactly, which decides as above.
    * Comparisons.  fl(tau * tau) and fl(g +- w) are each rounded once more,
      so "inside" gives D < tau^2 (1 + 3u) - (w - |g - D|) and "outside"
      gives D >= tau^2 (1 - 3u) + (w - |g - D|).  Both verdicts then match
      the kernel once w >= |g - D| + (2 gamma_{n+4} + 3u) tau^2, about
      (2n + 3) u S + (2n + 11) u tau^2 with float64 inner products, and for
      a fallback row once w >= |g - D| + (2 gamma_{2n+16} + 3u) tau^2,
      about (2n + 3) u S + (4n + 35) u tau^2.  The float32 kernel's verdict
      needs w >= |g - D| + (gamma'_{n+4} + 3u) tau^2 + n 2^-48 S.

    (4n + 16) eps (xx + qq + tau^2) = (8n + 32) u (xx + qq + tau^2) is at
    least three times the first float64 bound and exceeds the second by
    (6n + 29) u S + (4n - 3) u tau^2, at least u (S + tau^2) for every
    n >= 1: room for the O(u^2) terms, for computed xx + qq standing in for
    S and for the rounding of w itself, while n^2 u is far below 1.
    Gradual underflow adds an absolute error of at most 2^-1075 per float64
    product (about 6n of them in g and the kernel), which the 2^-1022 term
    covers for any n < 2^50.  With float32 inner products and kernel the
    same float64 term covers the float64 part of |g - D|, now (n + 3) u S,
    the comparisons and a row the float32 kernel hands to the float64 one.
    r = gamma'_{n+4}, computed within u, covers the float32 kernel's
    gamma'_{n+4} tau^2 and exceeds gamma'_n, the dots' share of S, by at
    least 4v: that leaves v S for the kernel's underflow, n 2^-48 S, and
    more than 2v S for the rounding of w and xx + qq standing in for S.  a
    covers (1 + gamma'_{n-1}) n 2^-149 and the float64 underflow, as
    gamma'_{n-1} <= 1.  Both hold for every n < 2^22.  An overflowed tau^2
    makes w infinite, so every row falls in the band.  The constant family
    is that of the exact GEMM scan of Johnson, Douze and Jegou (arXiv
    1702.08734), with the float32 term added.

    Why w decides as the kernel does under l_4 (u = eps/2 = 2^-53, gamma_j =
    j u / (1 - j u), to first order in u; D = sum (x_i - q_i)^4, A = sum x_i^4,
    B = sum q_i^4 and M = sum (|x_i| + |q_i|)^4, exactly):

    * Expansion.  Each of the five terms is a sum of n products that carry
      at most three roundings each (a square, a cube or fourth power, the
      product), so in any order of summation (BLAS blocking, thread count
      and fused multiply-adds included) it is within gamma_{n+2} of the sum
      of its products' magnitudes.  Weighted by 1, 4, 6, 4 and 1, those
      magnitudes sum to M, by the binomial theorem.  g is formed from the
      five terms by four additions and one multiplication by 6 (those by 4
      are exact), each rounding by at most u of a value below M (1 +
      gamma_{n+2}).  So |g - D| <= (n + 7) u M, and M <= 8 (A + B), as
      (a + b)^4 <= 8 (a^4 + b^4) for a, b >= 0.
    * Kernel.  ``distances_to_point`` returns c with c^4 within
      gamma_{n+12} of D: each term of its sum carries seven roundings (the
      difference and two squarings), the sum n - 1 more in any order, and
      the two roots six more in c^4.  A row whose sum is not in [2^-800,
      inf) takes the max-divided form, with c within gamma_{2n+16} of
      D^(1/4), so c^4 within (8n + 64) u of D.  As c < tau exactly when
      c^4 < tau^4, c < tau whenever D < tau^4 (1 - (8n + 64) u), and
      c >= tau whenever D >= tau^4 (1 + (8n + 64) u).
    * Comparisons.  tau^4 rounds three times and g +- w once, so "inside"
      gives D < tau^4 (1 + 4u) - (w - |g - D|) and "outside" gives
      D >= tau^4 (1 - 4u) + (w - |g - D|).  Both verdicts are the kernel's
      once w >= 8 (n + 7) u (A + B) + (8n + 68) u tau^4.

    (8n + 72) eps = (16n + 144) u is at least twice each constant, which
    leaves room for the O(u^2) terms, for the computed xxxx + qqqq standing
    in for A + B and for the rounding of w itself.  Gradual underflow adds
    at most 2^-1075 to a product below 2^-1022, which the later products
    of its term carry scaled by up to four factors of x_i or q_i: at most
    2^-1075 (1 + x_i^4 + q_i^4) each, three in a term, weights 16 in all.
    The A + B part of that is far inside w's slack, and the 2^-1022 term
    covers 48 n 2^-1075 and tau^4's own for every n < 2^46.  The kernel's
    underflow is relative, as under l_2.
    """
    bound = tau * tau
    if quartic:
        bound *= bound
    w = half_width(powers, qq, bound, n, quartic, single)
    decided = np.isfinite(g) & np.isfinite(w)
    inside = decided & (g + w < bound)
    return inside, ~inside & ~(decided & (g - w >= bound))


def band_screen(g, powers, widest, qq, tau, n: int, quartic: bool = False,
                single: bool = False):
    """``band``'s masks ``(inside, band)`` for the 1-d expansions g of rows
    of width n, with ``band`` run only on the rows a two-sided scalar
    pre-screen leaves undecided: the one screen of queries
    (``tree._screen``) and calibration (``oracle._gemm_kth``).

    ``powers`` are the rows' sums of squares (of fourth powers if
    ``quartic``), ``widest`` their largest (or any larger value), qq the
    query's, and ``single`` marks float32 inner products and kernel, as in
    ``band``.  The pre-screen takes w*, the half-width (``half_width``) at
    ``widest``, and compares g with two floats found once per call from
    fl(tau^p -+ w*), tau^p formed as ``band`` forms it: ``below``, stepped
    down until fl(below + w*) < tau^p, and ``above``, stepped up until
    fl(above - w*) >= tau^p.  A row with finite g is inside if g <= below
    and outside if g >= above; every other row goes to ``band`` at its own
    power, and so does every row when w* is infinite (an overflowed power,
    qq or tau^p), which decides no finite g.

    Why the pre-screen's verdicts are the band's own: a row's w is w*'s
    formula at its own power, and every step of it rounds monotonically,
    so w <= w*; fl(a + b) is monotone in a and in b, so g <= below gives
    fl(g + w) <= fl(below + w*) < tau^p, and g >= above gives fl(g - w) >=
    fl(above - w*) >= tau^p.  With g and w finite ``band`` then calls the
    row inside, or outside, as the pre-screen does.  That holds only for
    finite g: -inf lies below every ``below`` and +inf above every
    ``above``, while ``band`` leaves both, and a nan, to the kernel.  So
    whenever g.g is not finite, every row of non-finite g is put in the
    band, as ``band`` puts it, after ``band`` has run on the undecided
    finite rows (calibration's held-out rows are at +inf).  Callers hold
    ``np.errstate(over="ignore", invalid="ignore")``.
    """
    bound = tau * tau
    if quartic:
        bound *= bound
    wide = half_width(widest, qq, bound, n, quartic, single)
    # an infinite w* leaves below at -inf (nan if tau^p is inf) and above at inf
    below, above = bound - wide, bound + wide
    while below + wide >= bound:
        below -= max(math.ulp(below), math.ulp(bound))
    while above - wide < bound:
        above += max(math.ulp(above), math.ulp(bound))
    inside = g <= below
    undecided = g < above
    undecided ^= inside
    kept = np.flatnonzero(undecided)
    if kept.size:
        inside[kept], undecided[kept] = band(g[kept], powers[kept], qq, tau, n, quartic, single)
    if not math.isfinite(g @ g):  # as is a finite g beyond 1e154
        finite = np.isfinite(g)
        inside &= finite
        undecided |= ~finite
    return inside, undecided


def band_reach(g, power, qq, n: int, quartic: bool = False) -> float:
    """The p-th root of g + 2 w for one row of expansion g (p = 2, or 4 if
    ``quartic``), w the half-width (``half_width``) at the row's power with
    g standing in for tau^p: about the largest kernel distance the row can
    have, which ``oracle._screened_kth`` sets tau just above.  An
    overflowed g or w gives inf or nan, and so an infinite tau."""
    reach = math.sqrt(max(g + 2.0 * half_width(power, qq, g, n, quartic), 0.0))
    return math.sqrt(reach) if quartic else reach


def check_norm_equivalence(v, q, p) -> bool:
    """True iff ||v||_p <= ||v||_q <= m^(1/q - 1/p) * ||v||_p within _EQUIVALENCE_TOL.

    Requires q < p (q finite; p finite or infinite, with 1/inf taken as 0).
    A property-test helper; the query path never calls this.
    """
    qn = as_norm_order(q)
    pn = as_norm_order(p)
    if qn.is_infinite or not qn.p < pn.p:
        raise ValueError(f"need finite q < p, got q={qn}, p={pn}")
    vec = as_vector(v)
    m = vec.shape[0]
    norm_p = lp_norm(vec, pn)
    norm_q = lp_norm(vec, qn)
    inv_p = 0.0 if pn.is_infinite else 1.0 / pn.p
    factor = m ** (1.0 / qn.p - inv_p)
    scale = max(norm_p, norm_q, 1.0)
    slack = _EQUIVALENCE_TOL * scale
    return norm_p <= norm_q + slack and norm_q <= factor * norm_p + slack
