"""Dataset ingestion, synthetic data generation, and the benchmark row.

Synthetic generation runs on the counter-based Philox-4x64-10 generator, so
every fixture is reproducible from (model, parameters, seed) alone.
"""

from __future__ import annotations

import csv
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MODELS",
    "DataSet",
    "SyntheticSpec",
    "generate",
    "load_fvecs",
    "write_fvecs",
    "load_csv",
    "BenchRow",
]

MODELS = ("iid-uniform", "block-correlated", "piecewise-smooth")


@dataclass(frozen=True)
class DataSet:
    """Immutable id-indexed collection of dense vectors of one dimension."""

    vectors: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise ValueError(f"vectors must be a nonempty 2-d matrix, got {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vectors contain non-finite values")
        ids = np.asarray(self.ids)
        if ids.shape != (vectors.shape[0],):
            raise ValueError(f"ids shape {ids.shape} != ({vectors.shape[0]},)")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "ids", _int64_ids(ids))

    @classmethod
    def from_array(cls, vectors) -> "DataSet":
        """``vectors`` with the ordinal ids 0, 1, ..., count - 1."""
        vectors = np.asarray(vectors, dtype=np.float64)
        ids = np.arange(vectors.shape[0], dtype=np.int64) if vectors.ndim == 2 else None
        return cls(vectors=vectors, ids=ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return int(self.vectors.shape[0])


def _integer(value, what: str) -> int:
    """``value`` as an int: an integer, numpy's included, but never a bool,
    a float (8.9 or 8.0) or a string."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} {value!r} is not an integer")
    return operator.index(value)


def _int64_ids(ids) -> np.ndarray:
    """``ids`` as an int64 array: integers of any dtype int64 holds, but
    never bools or floats (0.5, or 1.0), which a cast would truncate."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.int64):
        raise ValueError(f"ids must be integers int64 holds, not {ids.dtype} values")
    return ids.astype(np.int64, copy=False)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic dataset; generation is seed-deterministic.
    count, dim, block_size, window and rng_seed are integers (numpy's
    included, never a bool, float or string), checked at construction."""

    count: int
    dim: int
    model: str = "iid-uniform"
    block_size: int = 4
    correlation: float = 0.5
    window: int = 4
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("count", "dim", "block_size", "window", "rng_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.count < 1 or self.dim < 1:
            raise ValueError("count and dim must be positive")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.model == "block-correlated":
            if self.block_size < 1 or self.dim % self.block_size != 0:
                raise ValueError(
                    f"dim {self.dim} not divisible by block_size {self.block_size}")
            if not 0.0 <= self.correlation <= 1.0:
                raise ValueError(f"correlation must lie in [0, 1], got {self.correlation}")
        if self.model == "piecewise-smooth" and self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


def generate(spec: SyntheticSpec) -> DataSet:
    """Generate a synthetic dataset per spec.

    iid-uniform: components U[0,1].  block-correlated: x_j = rho*g +
    sqrt(1-rho^2)*e_j with a shared standard-normal g per block, shifted so
    the whole matrix is nonnegative.  piecewise-smooth: a U[0,255] coarse
    grid repeated window-wise, plus U[-5,5] noise, clamped to [0,255]
    (stands in for 8-bit image rows).
    """
    rng = np.random.Generator(np.random.Philox(key=spec.rng_seed))
    s, n = spec.count, spec.dim
    if spec.model == "iid-uniform":
        matrix = rng.random((s, n))
    elif spec.model == "block-correlated":
        m = spec.block_size
        rho = spec.correlation
        shared = rng.standard_normal((s, n // m))
        noise = rng.standard_normal((s, n))
        matrix = rho * np.repeat(shared, m, axis=1) + math.sqrt(1.0 - rho * rho) * noise
        low = float(matrix.min())
        if low < 0.0:
            matrix -= low
    else:
        w = spec.window
        coarse = rng.uniform(0.0, 255.0, (s, -(-n // w)))
        matrix = np.repeat(coarse, w, axis=1)[:, :n]
        matrix = matrix + rng.uniform(-5.0, 5.0, (s, n))
        np.clip(matrix, 0.0, 255.0, out=matrix)
    return DataSet.from_array(matrix)


def load_fvecs(path) -> DataSet:
    """Read records of [int32 dim][dim float32] (little-endian); ids are ordinals."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) == 0:
        raise ValueError(f"{path}: empty file")
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated record 0")
    dim = struct.unpack_from("<i", raw, 0)[0]
    if dim < 1:
        raise ValueError(f"{path}: record 0 has invalid dimension {dim}")
    record_bytes = 4 + 4 * dim
    if len(raw) % record_bytes != 0:
        raise ValueError(f"{path}: truncated file ({len(raw)} bytes, "
                         f"record size {record_bytes})")
    count = len(raw) // record_bytes
    view = np.frombuffer(raw, dtype="<i4").reshape(count, 1 + dim)
    dims = view[:, 0]
    bad = np.nonzero(dims != dim)[0]
    if bad.size:
        raise ValueError(f"{path}: record {bad[0]} has dimension {dims[bad[0]]}, "
                         f"expected {dim}")
    vectors = np.frombuffer(raw, dtype="<f4").reshape(count, 1 + dim)[:, 1:]
    vectors = vectors.astype(np.float64)
    if not np.all(np.isfinite(vectors)):
        raise ValueError(f"{path}: non-finite values in the payload")
    return DataSet.from_array(vectors)


def write_fvecs(path, vectors) -> None:
    """Write rows at float32 precision in the format load_fvecs reads."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    count, dim = vectors.shape
    out = np.empty((count, 1 + dim), dtype="<f4")
    out.view("<i4")[:, 0] = dim
    out[:, 1:] = vectors.astype("<f4")
    with open(path, "wb") as handle:
        handle.write(out.tobytes())


def load_csv(path) -> DataSet:
    """One vector per row of decimal floats; uniform column count enforced."""
    rows = []
    width = None
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"{path}:{lineno}: row has {len(row)} columns, "
                                 f"expected {width}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return DataSet.from_array(np.array(rows, dtype=np.float64))


@dataclass(frozen=True)
class BenchRow:
    """One benchmark cell: a (projection mode, norm) pair and its measured means.

    The fields, in order, are the keys of the cell's object in a report.
    ``fitted_const`` and ``estimated_cost`` are None (JSON null) when no
    const fits, because every survivor count of the cell is zero.
    """

    mode: str
    norm: str
    epsilon: float
    mean_cost: float
    mean_ratio: float
    mean_survivors: tuple[float, ...]
    fitted_const: float | None
    estimated_cost: float | None
