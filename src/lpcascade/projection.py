"""Per-block 1-Lipschitz scalar features.

A level splits R^n into f contiguous blocks of size m and maps each block
to its inner product with a unit direction over the Hölder scale ||d||_p*,
so |<d, x>| <= ||d||_p* ||x||_p makes the level a contraction under l_p:
the index prunes without false dismissals.  The modes differ only in the
directions: the fixed m-secting (1, ..., 1) / sqrt(m) for "orthogonal"
(block mean times m^(1/p)), fitted principal ones for "adaptive".

Adaptive directions are the dominant eigenvectors of the blocks' raw
second-moment matrices, solved for every block of a level at once by one
batched symmetric eigensolver call.  Fitting and projecting a matrix run
over fixed row chunks, worked on threads (``norms.in_parts``), and give
the same floats for any number of threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .norms import (
    CHUNK_BYTES,
    _TINY,
    NormOrder,
    as_norm_order,
    distances_to_point,
    in_parts,
    row_chunks,
)

__all__ = [
    "ORTHOGONAL",
    "ADAPTIVE",
    "MODES",
    "BlockPartition",
    "ProjectionLevel",
    "PrincipalComponent",
    "first_principal_component",
    "project_level",
    "project_rows",
    "q_mapping_norm",
    "orthogonal_level",
    "fit_adaptive_level",
]

ORTHOGONAL = "orthogonal"
ADAPTIVE = "adaptive"
# every direction choice a level, an index or a container may name
MODES = (ORTHOGONAL, ADAPTIVE)

# largest |A - A^T| entry first_principal_component accepts, relative to max|A|
_SYMMETRY_TOL = 1e-9
# largest deviation of a direction's l_2 norm from 1
_UNIT_TOL = 1e-9
# Widest block whose moments are summed as m (m + 1) / 2 column products
# (``_moment_sums``) rather than by a batched matrix product.  Fitting
# 20,000 x 960 block-correlated rows (2 CPUs, medians of 7) took 30 ms by
# column products against 57 by the product at m = 2, about as long either
# way at m = 3 (40-42 against 40-53) and 54 against 32 at m = 4.
_COLUMN_PRODUCTS = 2
# A fit's row chunk holds at least this many rows per block column, so that
# a chunk's (f, m, m) moments take at most 1/512 of its bytes.  With 64
# rows a column, gist-deep's first fit held 148 partials of 15 KB, and a
# pool thread's heap kept enough of them resident to raise the build's
# peak RSS by 1.4 MiB; with 512 it holds 20, and the fit takes as long.
_ROWS_PER_COLUMN = 512


@dataclass(frozen=True)
class BlockPartition:
    """Split of an n-dimensional space into contiguous equal blocks."""

    dim_in: int
    block_count: int
    block_size: int

    def __post_init__(self) -> None:
        if self.dim_in < 1 or self.block_count < 1 or self.block_size < 1:
            raise ValueError("partition dimensions must be positive")
        if self.dim_in != self.block_count * self.block_size:
            raise ValueError(
                f"dim_in {self.dim_in} != block_count {self.block_count}"
                f" * block_size {self.block_size}"
            )

    @classmethod
    def for_dims(cls, dim_in: int, dim_out: int) -> "BlockPartition":
        """Partition mapping dim_in features onto dim_out block scalars."""
        if dim_out < 1 or dim_in % dim_out != 0:
            raise ValueError(f"{dim_in} is not divisible by {dim_out}")
        return cls(dim_in=dim_in, block_count=dim_out, block_size=dim_in // dim_out)


def _secting_directions(count: int, m: int) -> np.ndarray:
    """``count`` rows of the m-secting unit direction (1, ..., 1) / sqrt(m)."""
    return np.full((count, m), 1.0 / math.sqrt(m))


@dataclass(frozen=True)
class ProjectionLevel:
    """One cascade stage: f block features sharing a norm.

    ``directions`` is an (f, m) array of unit rows, one per block (all
    m-secting when orthogonal, fitted when adaptive).  A block's feature is
    its inner product with its direction divided by the row's ``scales``
    entry ||d||_p*, the smallest divisor that |<d, x>| <= ||d||_p* ||x||_p
    shows non-expansive.  ``partition`` and ``scales`` are derived.
    """

    norm: NormOrder
    directions: np.ndarray
    partition: BlockPartition = field(init=False, repr=False, compare=False)
    scales: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        norm = as_norm_order(self.norm)
        directions = np.asarray(self.directions, dtype=np.float64)
        if directions.ndim != 2 or directions.size == 0:
            raise ValueError(f"directions shape {directions.shape} is not (f, m)")
        # negated, so that a nan entry fails the check
        if not np.all(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= _UNIT_TOL):
            raise ValueError("directions must be finite with unit l_2 norm")
        f, m = directions.shape
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "partition", BlockPartition(f * m, f, m))
        object.__setattr__(self, "scales",
                           distances_to_point(directions, np.zeros(m), norm.dual))

    @property
    def dim_in(self) -> int:
        return self.partition.dim_in

    @property
    def dim_out(self) -> int:
        return self.partition.block_count

    def diversions(self) -> np.ndarray:
        """Per-block sqrt(m) - |<direction, ones>|: distance of each direction
        from the m-secting line, so 0 when orthogonal.  Cauchy-Schwarz makes
        it nonnegative; the clamp removes rounding below 0."""
        m = self.partition.block_size
        return np.maximum(math.sqrt(m) - np.abs(self.directions.sum(axis=1)), 0.0)


def project_level(x, level: ProjectionLevel) -> np.ndarray:
    """Map one vector of dim n to its f per-block features."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size != level.dim_in:
        raise ValueError(f"vector shape {arr.shape} != level input dim {level.dim_in}")
    return _project(arr[None, :], level)[0]


def project_rows(rows: np.ndarray, level: ProjectionLevel) -> np.ndarray:
    """Project each row of an (s, n) matrix to (s, f) features, one 1 MiB
    row chunk at a time (``norms.row_chunks``) into one output, the chunks
    worked ``in_parts``.  A row's features are the same floats in a chunk
    of any size, so ``project_level``, which projects its one row on the
    calling thread, gives that row's features of a whole-matrix call."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != level.dim_in:
        raise ValueError(f"rows shape {rows.shape} != level input dim {level.dim_in}")
    feats = np.empty((rows.shape[0], level.dim_out))
    in_parts(lambda chunk: _project(rows[chunk], level, feats[chunk]), row_chunks(*rows.shape))
    return feats


def _project(rows: np.ndarray, level: ProjectionLevel, out=None) -> np.ndarray:
    """The (s, f) features of an (s, n) block of rows, into ``out`` if given."""
    out = np.einsum("sfm,fm->sf", rows.reshape(-1, *level.directions.shape),
                    level.directions, out=out)
    return np.divide(out, level.scales, out=out)  # in place: held once


def q_mapping_norm(m: int, p) -> float:
    """Induced operator norm m^((p-2)/p) of the l_p-normalized mean mapping.

    Exceeds 1 exactly when p > 2, where the mapping can inflate lengths; it
    is a diagnostic only and never participates in pruning.
    """
    norm = as_norm_order(p)
    if norm.is_infinite:
        raise ValueError("the mapping norm is undefined for the Chebyshev norm")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return float(m) ** ((norm.p - 2.0) / norm.p)


def orthogonal_level(partition: BlockPartition, norm) -> ProjectionLevel:
    """Level on the fixed m-secting direction: block mean times m^(1/p)."""
    return ProjectionLevel(norm, _secting_directions(partition.block_count,
                                                     partition.block_size))


@dataclass(frozen=True)
class PrincipalComponent:
    """Dominant eigenpair: unit direction, nonnegative eigenvalue."""

    direction: np.ndarray
    eigenvalue: float


def _dominant_eigenpairs(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit dominant eigenvectors (k, m) and eigenvalues (k,) of a (k, m, m)
    stack of symmetric PSD matrices, from one batched eigh call.

    Each vector's sign makes its sum nonnegative (tie: first nonzero entry
    positive).  An all-zero matrix gets the m-secting direction, the fitting
    fallback for blocks that carry no energy.
    """
    values, vectors = np.linalg.eigh(moments)
    top = vectors[:, :, -1]
    sums = top.sum(axis=1)
    first = top[np.arange(top.shape[0]), np.argmax(top != 0.0, axis=1)]
    flip = (sums < 0.0) | ((sums == 0.0) & (first < 0.0))
    top = np.where(flip[:, None], -top, top)
    top[~moments.any(axis=(1, 2))] = _secting_directions(1, moments.shape[1])
    return top, np.maximum(values[:, -1], 0.0)


def first_principal_component(cov) -> PrincipalComponent:
    """Dominant eigenpair of a symmetric PSD matrix.

    The single-matrix case of the solver fit_adaptive_level runs, with the
    same sign convention and zero-matrix fallback.
    """
    mat = np.asarray(cov, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix contains non-finite entries")
    scale = float(np.abs(mat).max())
    if float(np.abs(mat - mat.T).max()) > _SYMMETRY_TOL * max(1.0, scale):
        raise ValueError("matrix is not symmetric within tolerance")
    directions, eigenvalues = _dominant_eigenpairs(mat[None])
    return PrincipalComponent(direction=directions[0], eigenvalue=float(eigenvalues[0]))


def fit_adaptive_level(rows: np.ndarray, partition: BlockPartition,
                       norm) -> ProjectionLevel:
    """Fit per-block directions to data and assemble an adaptive level.

    Each block's direction is the dominant eigenvector of its raw
    second-moment matrix (moment about the origin, not the centered
    covariance): features are inner products with raw vectors, so the
    direction that best preserves their length is the one carrying the most
    raw energy, mean included.  Blocks with zero moment fall back to the
    m-secting direction.  One batched product forms every block's moment.
    When finite rows have moments that overflow, or a nonzero block's
    largest moment is below 2^-1022 and so has lost precision to underflow,
    the fit is run again on every block scaled by the power of two of its
    largest |entry|, which leaves its dominant eigenvector as it is.

    The moments are summed over fixed row chunks of at least 512 m rows
    (and 1 MiB), one partial sum per chunk (``_moment_sums``), the chunks
    worked ``in_parts`` and their partials added in chunk order: the
    directions are the same floats for any number of threads.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != partition.dim_in:
        raise ValueError(f"rows shape {rows.shape} != partition dim {partition.dim_in}")
    if rows.shape[0] == 0:
        raise ValueError("cannot fit directions to zero rows")
    blocks = rows.reshape(rows.shape[0], partition.block_count, partition.block_size)
    # chunks of at least _ROWS_PER_COLUMN m rows, whose partials are small
    least = _ROWS_PER_COLUMN * partition.block_size * 8 * rows.shape[1]
    chunks = row_chunks(*rows.shape, chunks=-(-least // CHUNK_BYTES))
    partials = in_parts(lambda chunk: _moment_sums(blocks[chunk]), chunks)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        moments = partials[0]
        for partial in partials[1:]:
            moments += partial
        moments /= rows.shape[0]
    finite = np.all(np.isfinite(moments))
    # a PSD moment's largest entry lies on its diagonal; nan fails the test
    largest = moments.max(axis=(1, 2))
    if not (finite and np.all(largest >= _TINY)):
        # max and min, not abs: no copy of the rows; a nan propagates
        peaks = np.maximum(blocks.max(axis=(0, 2)), -blocks.min(axis=(0, 2)))
        if not np.all(np.isfinite(peaks)):
            raise ValueError("rows contain non-finite values")
        # scaled, a nonzero block's largest moment is at least 1 / (4 s), so
        # the second fit never scales again; an all-zero block stays zero
        if not finite or np.any((peaks > 0.0) & (largest < _TINY)):
            scaled = np.ldexp(blocks, -np.frexp(peaks)[1][:, None])
            return fit_adaptive_level(scaled.reshape(rows.shape), partition, norm)
    directions, _ = _dominant_eigenpairs(moments)
    return ProjectionLevel(norm=norm, directions=directions)


def _moment_sums(blocks: np.ndarray) -> np.ndarray:
    """The (f, m, m) sums over the rows of an (s, f, m) stack of blocks of
    each block's outer products x x^T; an overflow gives inf, with no
    warning.  Up to ``_COLUMN_PRODUCTS`` (2) columns a block, each of the
    m (m + 1) / 2 distinct entries is one ``einsum`` over strided columns;
    wider blocks take one batched product (f, m, s) @ (f, s, m) of strided
    views, so BLAS reads the rows in place."""
    m = blocks.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        if m > _COLUMN_PRODUCTS:
            return blocks.transpose(1, 2, 0) @ blocks.transpose(1, 0, 2)
        sums = np.empty((blocks.shape[1], m, m))
        for a, b in itertools.combinations_with_replacement(range(m), 2):
            sums[:, a, b] = sums[:, b, a] = np.einsum("sf,sf->f", blocks[:, :, a],
                                                       blocks[:, :, b])
    return sums
