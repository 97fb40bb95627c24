"""Working-set bounds of the chunked sweeps: no whole-matrix copies.

tracemalloc sees numpy's data buffers, so its peak during a call bounds
every temporary the call allocated.
"""

import tracemalloc

import numpy as np
import pytest

from lpcascade import (
    CalibrationSpec,
    DimensionSchedule,
    SyntheticSpec,
    build_index,
    calibrate_epsilon,
    generate,
    range_query,
)
from lpcascade import norms, tree
from lpcascade.norms import L1, L2, L4, LINF, NormOrder, distances_to_point, sweep


@pytest.fixture(scope="module")
def wide_data():
    return generate(SyntheticSpec(count=8000, dim=960, rng_seed=60))


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unpruned_query_allocates_under_a_quarter_of_the_data(wide_data):
    index = build_index(wide_data, DimensionSchedule((960, 240, 60)), "orthogonal", 2)
    report = range_query(index, wide_data.vectors[0], 1e9)
    # nothing is pruned: every level and the verification see all 8000 rows
    assert report.survivors == (8000, 8000, 8000)
    peak = peak_bytes(lambda: range_query(index, wide_data.vectors[0], 1e9))
    assert peak < wide_data.vectors.nbytes / 4


def test_dense_pruned_query_allocates_under_a_quarter_of_the_data():
    # block-correlated rows, unlike iid ones, differ in their block means, so
    # the coarse level prunes a few hundred of them
    data = generate(SyntheticSpec(count=8000, dim=960, model="block-correlated",
                                  block_size=4, correlation=0.8, rng_seed=62))
    index = build_index(data, DimensionSchedule((960, 240, 60)), "orthogonal", 2)
    y = data.vectors[0] + 0.01
    epsilon = np.sort(sweep(data.vectors, None, y, L2, distances_to_point))[5]
    report = range_query(index, y, epsilon)
    # verification screens a pruned candidate set above the dense share: one
    # whole-matrix GEMV over the vectors, indexed, copying no rows
    assert tree._GEMV_SHARE * 8000 <= report.survivors[1] < 8000
    peak = peak_bytes(lambda: range_query(index, y, epsilon))
    assert peak < data.vectors.nbytes / 4


def test_l2_query_holds_no_float64_copy_of_a_feature_matrix(wide_data):
    # the l_2 screen meets each level's float32 features with a float32 copy
    # of the query; a float64 query vector would make numpy upcast the whole
    # matrix, twice the matrix's own size, which the data/4 bounds above
    # only just catch
    index = build_index(wide_data, DimensionSchedule((960, 240, 60)), "orthogonal", 2)
    widest = index.features[0]
    assert widest.dtype == np.float32
    y = wide_data.vectors[0] + 0.01
    exact = np.sort(sweep(wide_data.vectors, None, y, L2, distances_to_point))
    for epsilon in (exact[5], exact[4000], 1e9):
        # iid rows: no level prunes, so each is screened by one whole-matrix GEMV
        assert range_query(index, y, epsilon).survivors[1:] == (8000, 8000)
        peak = peak_bytes(lambda: range_query(index, y, epsilon))
        assert peak < widest.nbytes / 2


def test_calibration_allocates_under_a_quarter_of_the_data(monkeypatch, wide_data):
    # under l_2 and l_4 the 20 samples share one GEMM block of 4 CHUNK_BYTES,
    # held in a memory mapping of its own that tracemalloc does not see (l_4
    # forms x^2 and x^3 one chunk at a time): what numpy allocates beside it
    # stays under a quarter of the data.  l_1 and l_inf code the rows once,
    # as int16: exactly a quarter
    # of the data, and on top of it one chunk of coding and the two
    # threads' sweep buffers, within two CHUNK_BYTES
    monkeypatch.setattr(norms, "_usable_cpus", lambda: 2)
    quarter = wide_data.vectors.nbytes / 4
    for p, samples in ((1, 3), ("inf", 3), (2, 20), (4, 20)):
        spec = CalibrationSpec(sample_size=samples, target_nn=5)
        peak = peak_bytes(lambda: calibrate_epsilon(wide_data, spec, p, rng_seed=61))
        if p in (1, "inf"):
            assert quarter <= peak < quarter + 2 * norms.CHUNK_BYTES
        else:
            assert peak < quarter


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
@pytest.mark.parametrize("p", [1, 2])
def test_build_holds_two_float64_levels_and_the_stored_features(monkeypatch, wide_data,
                                                                 mode, p):
    # each level is projected from the float64 level before it into a new
    # float64 matrix and then stored, as int16 codes (l_1) or float32 (l_2):
    # the peak comes at level 2, which holds the float64 levels 1 and 2 and
    # level 1's stored copy.  On top of them each of the two threads holds
    # at most two CHUNK_BYTES: the row chunks are read in place, never
    # gathered, and the per-chunk partial moments are a small fraction of
    # a level
    monkeypatch.setattr(norms, "_usable_cpus", lambda: 2)
    dims = (960, 480, 240, 120, 30)
    count = len(wide_data)
    stored = (2 if p == 1 else 4) * count * dims[1]
    held = 8 * count * (dims[1] + dims[2]) + stored
    peak = peak_bytes(lambda: build_index(wide_data, DimensionSchedule(dims), mode, p))
    assert held <= peak < held + 2 * 2 * norms.CHUNK_BYTES


@pytest.mark.parametrize("p", [1, "inf"])
def test_column_major_calibration_codes_allocate_a_quarter_of_the_data(monkeypatch, p):
    # 64-column rows are coded column-major in place, below
    # norms._CODE_NARROW: exactly a quarter of the data, never a second
    # copy in the other layout.  On top of it each of the two sweeping
    # threads holds one chunk's int16 difference buffer, CHUNK_BYTES
    # (CHUNK_BYTES / 128 rows of 64 codes); that chunk's int32 sums and
    # float64 distances, 12 bytes a row, 3/32 CHUNK_BYTES; and two vectors
    # of 8 bytes per row of the matrix: the sweep's distances and the
    # argpartition indices of the screen.  So the peak stays under a
    # quarter plus 2 (35/32 CHUNK_BYTES + 16 rows), 8.7 MB here, where a
    # column-major copy of the codes would add another 5.1 MB
    data = generate(SyntheticSpec(count=40000, dim=64, rng_seed=65))
    monkeypatch.setattr(norms, "_usable_cpus", lambda: 2)
    quarter = data.vectors.nbytes / 4
    spec = CalibrationSpec(sample_size=3, target_nn=5)
    peak = peak_bytes(lambda: calibrate_epsilon(data, spec, p, rng_seed=61))
    assert quarter <= peak < quarter + 2 * (norms.CHUNK_BYTES * 35 // 32 + 16 * len(data))


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("norm", [L1, L2, L4, LINF], ids=str)
def test_dense_sweep_holds_one_chunk_and_one_distance_vector(norm, width):
    # candidates above _DENSE_SHARE of the rows are swept as slices: the
    # sweep holds one chunk's kernel buffer and a distance vector over every
    # row, where gathering would hold a copy of each chunk's rows besides
    rng = np.random.Generator(np.random.Philox(key=63))
    matrix = rng.standard_normal((20000, width))
    point = rng.standard_normal(width)
    rows = np.flatnonzero(rng.random(20000) < 0.9)
    assert rows.size >= norms._DENSE_SHARE * 20000
    want = sweep(matrix, None, point, norm, distances_to_point)[rows]
    np.testing.assert_array_equal(sweep(matrix, rows, point, norm, distances_to_point), want)
    peak = peak_bytes(lambda: sweep(matrix, rows, point, norm, distances_to_point))
    # a quarter chunk of room for the kernel's per-row outputs
    assert peak <= norms.CHUNK_BYTES * 5 // 4 + 8 * matrix.shape[0]


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("norm", [L1, L2, NormOrder(3), L4, LINF], ids=str)
def test_gathered_sweep_holds_one_chunk_and_one_distance_vector(norm, width):
    # below _DENSE_SHARE of the rows each chunk gathers its candidates' rows
    # into a private copy, in the matrix's layout -- here an index level's,
    # column-major below 32 columns -- and l_1 and l_inf take their
    # differences in that copy: the sweep holds one chunk and the distance
    # vector.  The max-divided form does so in row-major copies; l_2 and l_4
    # difference into a second chunk-sized buffer, as their fallback
    # re-reads the rows
    rng = np.random.Generator(np.random.Philox(key=64))
    matrix = np.asarray(rng.standard_normal((20000, width)),
                        order="F" if width < norms._NARROW else "C")
    point = rng.standard_normal(width)
    rows = np.flatnonzero(rng.random(20000) < 0.5)
    assert rows.size < norms._DENSE_SHARE * 20000
    want = sweep(matrix, None, point, norm, distances_to_point)[rows]
    np.testing.assert_array_equal(sweep(matrix, rows, point, norm, distances_to_point), want)
    peak = peak_bytes(lambda: sweep(matrix, rows, point, norm, distances_to_point))
    in_place = norm in (L1, LINF) or norm.p == 3 and matrix.flags.c_contiguous
    chunk_rows = norms.CHUNK_BYTES // (8 * width)
    # room for eight float64 per-row vectors of a chunk: the kernel's outputs
    room = 8 * 8 * chunk_rows
    assert peak <= norms.CHUNK_BYTES * (1 if in_place else 2) + room + 8 * rows.size
