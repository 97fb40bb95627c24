"""Per-block 1-Lipschitz scalar features.

A level splits R^n into f contiguous blocks of size m and maps each block
to one signed scalar: either the block mean scaled by m^(1/p) (the fixed
"orthogonal" feature, exact length of the rank-1 mean projection), or the
inner product with a fitted unit direction divided by a dual-norm scale
(the "adaptive" feature).  Both satisfy |feature(x) - feature(y)| <=
||x - y||_p per block, which makes the full level a contraction under any
l_p and is what lets the index prune without false dismissals.

Adaptive directions are the dominant eigenvectors of the blocks' raw
second-moment matrices, solved for every block of a level at once by one
batched symmetric eigensolver call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import NormOrder, as_norm_order, lp_norm

__all__ = [
    "ORTHOGONAL",
    "ADAPTIVE",
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

# largest |A - A^T| entry first_principal_component accepts, relative to max|A|
_SYMMETRY_TOL = 1e-9
# largest deviation of an adaptive direction's l_2 norm from 1
_UNIT_TOL = 1e-9


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


def _coefficient(block_size: int, norm: NormOrder) -> float:
    """Feature scale c = m^(1/p); 1 for the Chebyshev norm."""
    if norm.is_infinite:
        return 1.0
    return float(block_size) ** (1.0 / norm.p)


@dataclass(frozen=True)
class ProjectionLevel:
    """One cascade stage: f block features sharing a norm.

    ``directions`` is None for an orthogonal level (block means) and an
    (f, m) array of unit rows for an adaptive one.  ``scales`` is derived:
    each adaptive row's Lipschitz scale max(1, ||direction||_p*), which keeps
    its feature non-expansive under the level's norm; None when orthogonal.
    """

    partition: BlockPartition
    norm: NormOrder
    directions: np.ndarray | None = None
    scales: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        norm = as_norm_order(self.norm)
        object.__setattr__(self, "norm", norm)
        scales = None
        if self.directions is not None:
            directions = np.asarray(self.directions, dtype=np.float64)
            shape = (self.partition.block_count, self.partition.block_size)
            if directions.shape != shape:
                raise ValueError(f"directions shape {directions.shape} != {shape}")
            if np.any(np.abs(np.linalg.norm(directions, axis=1) - 1.0) > _UNIT_TOL):
                raise ValueError("adaptive directions must have unit l_2 norm")
            object.__setattr__(self, "directions", directions)
            scales = np.array([max(1.0, lp_norm(row, norm.dual)) for row in directions])
        object.__setattr__(self, "scales", scales)

    @property
    def mode(self) -> str:
        return ORTHOGONAL if self.directions is None else ADAPTIVE

    @property
    def dim_in(self) -> int:
        return self.partition.dim_in

    @property
    def dim_out(self) -> int:
        return self.partition.block_count

    def diversions(self) -> np.ndarray:
        """Per-block sqrt(m) - |<direction, ones>|: distance of each fitted
        direction from the m-secting line; identically 0 in orthogonal mode."""
        if self.directions is None:
            return np.zeros(self.partition.block_count)
        return math.sqrt(self.partition.block_size) - np.abs(self.directions.sum(axis=1))


def project_level(x, level: ProjectionLevel) -> np.ndarray:
    """Map one vector of dim n to its f per-block features."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size != level.dim_in:
        raise ValueError(f"vector shape {arr.shape} != level input dim {level.dim_in}")
    return project_rows(arr[None, :], level)[0]


def project_rows(rows: np.ndarray, level: ProjectionLevel) -> np.ndarray:
    """Project each row of an (s, n) matrix to (s, f) features."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != level.dim_in:
        raise ValueError(f"rows shape {rows.shape} != level input dim {level.dim_in}")
    part = level.partition
    blocks = rows.reshape(rows.shape[0], part.block_count, part.block_size)
    if level.directions is None:
        return blocks.mean(axis=2) * _coefficient(part.block_size, level.norm)
    feats = np.einsum("sfm,fm->sf", blocks, level.directions)
    return feats / level.scales[None, :]


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
    """Level of parameter-free block-mean features."""
    return ProjectionLevel(partition=partition, norm=norm)


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
    top[~moments.any(axis=(1, 2))] = 1.0 / math.sqrt(moments.shape[1])
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
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != partition.dim_in:
        raise ValueError(f"rows shape {rows.shape} != partition dim {partition.dim_in}")
    if rows.shape[0] == 0:
        raise ValueError("cannot fit directions to zero rows")
    blocks = rows.reshape(rows.shape[0], partition.block_count, partition.block_size)
    # (f, m, s) @ (f, s, m): strided views, so BLAS reads the rows in place
    moments = blocks.transpose(1, 2, 0) @ blocks.transpose(1, 0, 2) / rows.shape[0]
    if not np.all(np.isfinite(moments)):
        raise ValueError("rows contain non-finite values")
    directions, _ = _dominant_eigenpairs(moments)
    return ProjectionLevel(partition=partition, norm=norm, directions=directions)
