"""Norms, distances, and the norm-equivalence relations."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lpcascade import (
    L1,
    L2,
    L4,
    LINF,
    DataSet,
    DimensionSchedule,
    NormOrder,
    as_norm_order,
    build_index,
    check_norm_equivalence,
    lp_norm,
)
from lpcascade import norms, oracle
from lpcascade.norms import distances_to_point, sweep
from unchunked import kernel_points, max_divided_distances, unchunked_distances


def test_norm_examples():
    assert lp_norm([3, 4], 2) == pytest.approx(5.0)
    assert lp_norm([3, -4], 1) == pytest.approx(7.0)
    assert lp_norm([3, -4], "inf") == pytest.approx(4.0)


def test_distance_examples():
    # a distance is the length of the difference, or the kernel's distance
    assert lp_norm(np.subtract([1, 0], [0, 1]), 1) == pytest.approx(2.0)
    assert lp_norm(np.subtract([1, 0], [0, 1]), 2) == pytest.approx(math.sqrt(2.0))
    x = np.array([0.3, -1.7, 2.2])
    for p in (1, 2, 4, "inf"):
        assert distances_to_point(x[None, :], x, as_norm_order(p))[0] == 0.0


def test_norm_zero_iff_zero_vector():
    assert lp_norm([0.0, 0.0, 0.0], 2) == 0.0
    assert lp_norm([0.0, 1e-300], 4) > 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        lp_norm([1.0, float("nan")], 2)
    with pytest.raises(ValueError):
        lp_norm([1.0, float("inf")], 1)
    with pytest.raises(ValueError):
        lp_norm([], 2)
    # the check every query passes before it reaches the kernel
    with pytest.raises(ValueError, match="expected a 3-vector"):
        norms.as_vector([1, 2], 3)


def test_norm_order_validation():
    with pytest.raises(ValueError):
        NormOrder(0.5)
    with pytest.raises(ValueError):
        NormOrder(float("nan"))
    with pytest.raises(ValueError):
        as_norm_order("bogus")
    assert as_norm_order("inf").is_infinite
    assert as_norm_order(2) == L2
    assert as_norm_order(L1) is L1


@pytest.mark.parametrize("p, expected", [
    (np.int64(2), L2), (np.float32(4.0), L4), (np.float64(np.inf), LINF),
    (True, None), (np.True_, None), (0.5, None),
])
def test_norm_order_takes_any_real_but_a_bool(p, expected):
    # np.bool_ is not a numbers.Real, and True is rejected by name
    if expected is None:
        with pytest.raises(ValueError):
            as_norm_order(p)
    else:
        assert as_norm_order(p) == expected


def test_dual_exponents():
    assert L1.dual == LINF
    assert LINF.dual == L1
    assert L2.dual == L2
    assert NormOrder(4).dual.p == pytest.approx(4.0 / 3.0)
    assert NormOrder(1.5).dual.p == pytest.approx(3.0)


def test_labels():
    assert L1.label() == "1" and LINF.label() == "inf"
    assert NormOrder(2.5).label() == "2.5"
    assert str(L2) == "l_2"


def test_overflow_guard_large_p():
    # naive |x|**p would overflow at p=8 on components ~1e50
    v = np.array([3e50, 4e50, -1e50])
    got = lp_norm(v, 8)
    assert math.isfinite(got)
    assert got == pytest.approx(1e50 * lp_norm(v / 1e50, 8), rel=1e-12)


def test_equivalence_examples():
    assert check_norm_equivalence([1, 1], 1, 2)
    assert check_norm_equivalence([1, 0], 1, 2)
    with pytest.raises(ValueError):
        check_norm_equivalence([1, 1], 2, 2)
    with pytest.raises(ValueError):
        check_norm_equivalence([1, 1], 2, 1)
    with pytest.raises(ValueError):
        check_norm_equivalence([1, 1], "inf", 2)


def test_equivalence_random_q2_p4():
    rng = np.random.Generator(np.random.Philox(key=1))
    for _ in range(1000):
        v = rng.standard_normal(16)
        assert check_norm_equivalence(v, 2, 4)


@pytest.mark.parametrize("p", [1, 2, 4, 7.5, "inf"])
def test_triangle_inequality(p):
    rng = np.random.Generator(np.random.Philox(key=2))
    for _ in range(200):
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        scale = lp_norm(x, p) + lp_norm(y, p)
        assert lp_norm(x + y, p) <= scale + 1e-9 * scale


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_tightened_triangle_inequality(p):
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(200):
        x = rng.standard_normal(24)
        y = rng.standard_normal(24)
        dist = lp_norm(x - y, p)
        scale = max(lp_norm(x, p), lp_norm(y, p), 1.0)
        assert abs(lp_norm(x, p) - lp_norm(y, p)) <= dist + 1e-9 * scale


def test_monotone_in_p():
    rng = np.random.Generator(np.random.Philox(key=4))
    orders = [1, 1.5, 2, 4, 16, "inf"]
    for _ in range(100):
        v = rng.standard_normal(12)
        norms = [lp_norm(v, p) for p in orders]
        for coarse, fine in zip(norms[1:], norms):
            assert coarse <= fine * (1 + 1e-12)


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_scaling(p):
    rng = np.random.Generator(np.random.Philox(key=5))
    v = rng.standard_normal(10)
    for c in (-3.0, 0.25, 1e8):
        assert lp_norm(c * v, p) == pytest.approx(abs(c) * lp_norm(v, p), rel=1e-12)


@pytest.mark.parametrize("p", [1, 2, 4, 3.5, "inf"])
def test_batched_distances_match_scalar(p):
    # lp_norm is the kernel on one row, and the length of a difference is
    # the kernel's distance: the same floats at every width, narrow
    # (transposed) and wide
    rng = np.random.Generator(np.random.Philox(key=6))
    for width in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16):
        rows = rng.standard_normal((50, width))
        y = rng.standard_normal(width)
        batch = distances_to_point(rows, y, as_norm_order(p))
        for row, got in zip(rows, batch):
            assert got == lp_norm(row - y, p)
            assert got == distances_to_point(row[None, :], y, as_norm_order(p))[0]


def test_batched_distances_zero_rows():
    rows = np.zeros((3, 4))
    out = distances_to_point(rows, np.zeros(4), as_norm_order(3))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("p", [1, 2, 4, 3.5, "inf"])
def test_in_place_kernel_matches_unchunked_kernel_bit_for_bit(p):
    rng = np.random.Generator(np.random.Philox(key=7))
    rows = rng.standard_normal((300, 37)) * 10.0
    y = rng.standard_normal(37)
    rows[5] = y  # a zero-distance row takes the m == 0 branch
    before = rows.copy()
    norm = as_norm_order(p)
    want = unchunked_distances(rows, y, norm)
    np.testing.assert_array_equal(distances_to_point(rows, y, norm), want)
    np.testing.assert_array_equal(rows, before)
    # a column-major matrix yields the same floats as its row-major copy
    np.testing.assert_array_equal(distances_to_point(np.asfortranarray(rows), y, norm), want)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
@pytest.mark.parametrize("p", [1, 2, 4, 3.5, "inf"])
def test_narrow_and_wide_rows_match_the_row_major_reference(p, width):
    # below 32 columns every kernel norm reduces a transposed buffer down its
    # columns and gives the floats of the reference's in-order row sums, on
    # rows spanning many orders of magnitude
    rng = np.random.Generator(np.random.Philox(key=8))
    rows = rng.standard_normal((300, width)) * np.exp(rng.uniform(-20.0, 20.0, (300, width)))
    y = rng.standard_normal(width)
    rows[5] = y
    before = rows.copy()
    norm = as_norm_order(p)
    want = unchunked_distances(rows, y, norm)
    np.testing.assert_array_equal(distances_to_point(rows, y, norm), want)
    np.testing.assert_array_equal(rows, before)
    np.testing.assert_array_equal(distances_to_point(np.asfortranarray(rows), y, norm), want)
    assert want[5] == 0.0


def test_linf_rows_below_32_columns_match_the_row_major_reference():
    # l_inf rows of 8 to 31 columns are reduced down a transposed buffer: a
    # maximum is exact in any order, so the floats are the row-major ones,
    # for rows holding inf and rows whose difference overflows too
    rng = np.random.Generator(np.random.Philox(key=14))
    for width in range(8, 32):
        rows = rng.standard_normal((300, width)) * np.exp(rng.uniform(-20.0, 20.0, (300, width)))
        y = rng.standard_normal(width)
        y[0] = rows[:, 0] = -1e308
        rows[5] = y
        rows[6, 0] = 1e308  # the difference overflows
        rows[7, -1] = np.inf
        rows[8] = -np.inf
        with np.errstate(over="ignore"):
            want = unchunked_distances(rows, y, LINF)
            for matrix in (rows, np.asfortranarray(rows)):
                np.testing.assert_array_equal(distances_to_point(matrix, y, LINF), want)
            # a buffer of one row holds the same floats
            np.testing.assert_array_equal(
                [distances_to_point(row[None, :], y, LINF)[0] for row in rows[:12]],
                want[:12])
        assert want[5] == 0.0 and np.isinf(want[6:9]).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 31, 32, 33, 64, 960, 8192, 8193, 12288])
def test_a_rows_distance_is_the_same_float_in_every_buffer(monkeypatch, width, p, dtype):
    # one summation rule per width: around 8 terms, where numpy's sum down a
    # one-row buffer turns pairwise, around the 32-column narrow limit, and
    # past numpy's 8,192-element buffer (np.getbufsize()), where einsum gave
    # a row in a one-row or three-row buffer another float
    norm = as_norm_order(p)
    rng = np.random.Generator(np.random.Philox(key=17))
    count = 24
    rows = (rng.standard_normal((count, width))
            * np.exp(rng.uniform(-3.0, 3.0, (count, width)))).astype(dtype)
    y = rng.standard_normal(width)
    want = distances_to_point(rows, y, norm)
    for size in (1, 2, 3, 7):
        got = np.concatenate([distances_to_point(rows[start:start + size], y, norm)
                              for start in range(0, count, size)])
        np.testing.assert_array_equal(got, want, err_msg=f"buffers of {size} rows")
    # sweeps in chunks of 5 rows: slices of every row, and gathers of a third
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * width * 5)
    gathered = np.arange(0, count, 3)
    np.testing.assert_array_equal(sweep(rows, None, y, norm, distances_to_point), want)
    np.testing.assert_array_equal(sweep(rows, gathered, y, norm, distances_to_point),
                                  want[gathered])


@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
def test_float32_rows_are_at_the_distances_of_their_float64_copies(p):
    # an index's features are float32: against a float64 query the kernel
    # casts them into its float64 buffer, narrow or wide, so every row's
    # distance is that of its float64 copy, for subnormal and infinite
    # entries too
    norm = as_norm_order(p)
    rng = np.random.Generator(np.random.Philox(key=16))
    for width in (1, 2, 4, 7, 8, 9, 16, 31, 32, 64):
        rows = (rng.standard_normal((300, width))
                * np.exp(rng.uniform(-20.0, 20.0, (300, width)))).astype(np.float32)
        y = rng.standard_normal(width)
        rows[0] = y
        rows[1, 0] = np.inf
        rows[2] = 1e-40
        want = unchunked_distances(rows.astype(np.float64), y, norm)
        for matrix in (rows, np.asfortranarray(rows)):
            np.testing.assert_array_equal(distances_to_point(matrix, y, norm), want)
            np.testing.assert_array_equal(sweep(matrix, None, y, norm, distances_to_point), want)
        assert np.isinf(want[1]) and 0.0 < want[0] < 1e-4  # y rounded to float32


@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 31, 32, 33, 64, 768])
def test_float32_arithmetic_matches_the_float32_reference_in_every_buffer(width, p):
    # float32 rows against a float32 query: the kernel differences, powers
    # and reduces in float32 (the max-divided form in float64), and a row
    # has the reference's float in buffers of 1, 2, 3 and 7 rows as in one
    # of 9.  l_4 rows whose float32 differences exceed 2^32 or fall below
    # 2^-37 have fourth-power sums outside [2^-100, inf) and take the
    # float64 kernel; a zero row does too, and an infinite one is at inf
    norm = as_norm_order(p)
    rng = np.random.Generator(np.random.Philox(key=18))
    rows = (rng.standard_normal((9, width))
            * np.exp(rng.uniform(-3.0, 3.0, (9, width)))).astype(np.float32)
    for y in (rng.standard_normal(width).astype(np.float32), np.zeros(width, np.float32)):
        rows[0] = y
        rows[1] = y + np.float32(2.0 ** 34) * rng.uniform(1.0, 2.0, width).astype(np.float32)
        rows[2] = y + np.float32(2.0 ** -40) * rng.standard_normal(width).astype(np.float32)
        rows[3, -1] = np.inf
        want = unchunked_distances(rows, y, norm)
        assert want.dtype == np.float64
        assert want[0] == 0.0 and np.isinf(want[3]) and np.isfinite(want[[1, 2]]).all()
        for size in (1, 2, 3, 7, 9):
            got = np.concatenate([distances_to_point(rows[start:start + size], y, norm)
                                  for start in range(0, 9, size)])
            np.testing.assert_array_equal(got, want, err_msg=f"buffers of {size} rows")
        np.testing.assert_array_equal(distances_to_point(np.asfortranarray(rows), y, norm),
                                      want)
        wide = unchunked_distances(rows, y.astype(np.float64), norm)
        if p == 3:
            np.testing.assert_array_equal(want, wide)
        elif y.any():
            assert not np.array_equal(want[4:], wide[4:])  # float32 arithmetic
    if p == 4:
        # rows 1 and 2 fell back: their fourth powers overflow or underflow
        # float32, and the float64 kernel gives them
        with np.errstate(over="ignore", under="ignore"):
            sums = np.sum((rows[1:3] - y) ** 4, axis=1, dtype=np.float32)
        assert np.isinf(sums[0]) and sums[1] < 2.0 ** -100
        np.testing.assert_array_equal(want[1:3], wide[1:3])


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_float32_kernel_stays_within_its_bound(p):
    # tree.level_margins charges the float32 kernel kappa' of the length of
    # its float32 inputs' difference: 2^-24 under l_inf, gamma'_n under l_1,
    # (n + 6) 2^-24 / 2 under l_2 and (n + 14) 2^-24 / 4 under l_4, in
    # either reduction order; the float64 kernel, within gamma_{2n+16},
    # stands in for the exact length
    norm = as_norm_order(p)
    rng = np.random.Generator(np.random.Philox(key=19))
    v = 2.0 ** -24
    for width in (1, 4, 8, 16, 31, 32, 64, 768):
        kappa = {1: width * v / (1 - width * v), 2: (width + 6) * v / 2,
                 4: (width + 14) * v / 4, math.inf: v}[norm.p]
        gamma = (2 * width + 16) * v * 2.0 ** -29
        rows = (rng.standard_normal((400, width))
                * np.exp(rng.uniform(-8.0, 8.0, (400, width)))).astype(np.float32)
        y = rows[7] + (0.01 * rng.standard_normal(width)).astype(np.float32)
        got = distances_to_point(rows, y, norm)
        want = distances_to_point(rows, y.astype(np.float64), norm)
        assert np.all(np.abs(got - want) <= (kappa + 2 * gamma) * want)


@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
def test_dense_and_gathered_sweeps_give_the_same_floats(monkeypatch, p):
    # just below _DENSE_SHARE of the rows a sweep gathers its candidates'
    # rows, a private copy the kernel may difference in place; from the
    # share up it runs the kernel on slices of every row, writing none, and
    # indexes the result: both give the row-major reference's floats, for
    # float64 rows and for float32 rows against a float32 query, whose l_2
    # and l_4 duplicates and overflowing rows the float64 kernel re-reads
    norm = as_norm_order(p)
    rng = np.random.Generator(np.random.Philox(key=15))
    monkeypatch.setattr(norms, "CHUNK_BYTES", 2 ** 12)  # several chunks a sweep
    chunks = []
    flags = []

    def recording(block, y, norm, scratch):
        chunks.append(block)
        flags.append(scratch)
        return distances_to_point(block, y, norm, scratch)

    count = 300
    above = math.ceil(norms._DENSE_SHARE * count)
    for width in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31, 32, 64):
        rows = rng.standard_normal((count, width)) * np.exp(rng.uniform(-20.0, 20.0, (count, width)))
        y = rng.standard_normal(width)
        rows[0] = y  # at distance 0
        rows[1, 0] = np.inf
        rows[2] = 1e-300  # squares underflow
        rows[3] = 1e300  # squares overflow
        with np.errstate(over="ignore"):
            single = rows.astype(np.float32)
        single[3] = 1e30  # float32 squares overflow
        # the special rows are candidates on both sides of the share
        picked = np.sort(rng.choice(np.arange(4, count), above - 4, replace=False))
        dense_rows = np.concatenate([np.arange(4), picked])
        gathered_rows = np.delete(dense_rows, -1)
        for rows, y in ((rows, y), (single, y.astype(np.float32))):
            with np.errstate(over="ignore"):
                want = unchunked_distances(rows, y, norm)
            for matrix in (rows, np.asfortranarray(rows)):
                before = matrix.copy()
                for candidates, dense in ((dense_rows, True), (gathered_rows, False)):
                    chunks.clear()
                    flags.clear()
                    with np.errstate(over="ignore"):
                        got = sweep(matrix, candidates, y, norm, recording)
                    np.testing.assert_array_equal(got, want[candidates])
                    # only a private gather is handed over as scratch
                    assert all(np.shares_memory(c, matrix) == dense for c in chunks)
                    assert flags == [not dense] * len(chunks)
                    np.testing.assert_array_equal(matrix, before)
                    assert sum(len(c) for c in chunks) == (count if dense else candidates.size)


@pytest.mark.parametrize("width", [1, 4, 16, 31, 32, 64])
def test_linf_maximum_on_int64_bits_is_the_float64_maximum(width):
    # the float64 l_inf kernel takes its row maximum over the int64 view of
    # the absolute differences: bit for bit the float64 maximum on rows whose
    # differences overflow to inf, hold inf, are subnormal, are +0 and -0,
    # or tie, in narrow (transposed) and wide buffers, new or scratch
    rng = np.random.Generator(np.random.Philox(key=20))
    rows = rng.standard_normal((40, width)) * np.exp(rng.uniform(-20.0, 20.0, (40, width)))
    signs = np.where(rng.random((40, width)) < 0.5, -1.0, 1.0)
    y = rng.standard_normal(width)
    y[0] = -1e308
    rows[0] = y
    rows[1] = -0.0 * y  # zeros of both signs
    rows[2, 0] = 1e308  # against y the first difference overflows
    rows[3, -1] = np.inf
    rows[4] = -np.inf
    rows[5] = 5e-324 * signs[5]  # the least subnormal, both signs
    rows[6] = 2.0 ** -1060 * rng.uniform(1.0, 2.0, width) * signs[6]
    rows[7] = 3.0 * signs[7]  # a tie in every column against zero
    rows[8] = 0.0
    rows[8, [0, -1]] = 1e-310, -1e-310  # a subnormal tie
    rows[9] = np.where(np.arange(width) % 2, -0.0, 0.0)
    for point in (y, np.zeros(width), -0.0 * np.ones(width)):
        with np.errstate(over="ignore"):
            reference = np.abs(rows - point).max(axis=1)
            for matrix in (rows, np.asfortranarray(rows)):
                for got in (distances_to_point(matrix, point, LINF),
                            distances_to_point(matrix.copy(order="K"), point, LINF,
                                               scratch=True)):
                    np.testing.assert_array_equal(got.view(np.int64),
                                                  reference.view(np.int64))
                got = sweep(matrix, np.arange(0, 40, 3), point, LINF, distances_to_point)
                np.testing.assert_array_equal(got.view(np.int64),
                                              reference[::3].view(np.int64))
        assert np.isinf(reference[[3, 4]]).all()
        if point is y:
            assert np.isinf(reference[2])
        else:  # against either zero, +0 whatever the zeros' signs
            assert reference.view(np.int64)[9] == 0
    assert reference[5] == 5e-324 and 0.0 < reference[6] < 2.0 ** -1022


@pytest.mark.parametrize("p", [1, "inf"])
def test_narrow_level_sweep_equals_the_row_major_reference(monkeypatch, p):
    # the 4-column level of a 64/16/4 index, its codes swept as slices and
    # as gathers in chunks of 7 rows against the query's codes, gives the
    # floats of one row-major reduction
    rng = np.random.Generator(np.random.Philox(key=11))
    vectors = rng.standard_normal((200, 64)) * np.exp(rng.uniform(-5.0, 5.0, (200, 1)))
    index = build_index(DataSet.from_array(vectors), DimensionSchedule((64, 16, 4)),
                        "adaptive", p)
    level = index.features[-1]
    assert level.shape[1] == 4
    point = kernel_points(index, vectors[3] + 0.01)[-1]
    assert level.dtype == point.dtype == np.int16
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 4 * 7)
    want = unchunked_distances(level, point, index.norm)
    for matrix in (level, np.asfortranarray(level)):
        np.testing.assert_array_equal(
            sweep(matrix, None, point, index.norm, distances_to_point), want)
        rows = np.flatnonzero(rng.random(200) < 0.4)
        np.testing.assert_array_equal(
            sweep(matrix, rows, point, index.norm, distances_to_point), want[rows])


@pytest.mark.parametrize("p", [1, 2, 4, 3.5, "inf"])
@pytest.mark.parametrize("width", [1, 4, 16, 31, 32, 64, norms._CODE_NARROW - 1,
                                   norms._CODE_NARROW, 768])
def test_grid_codes_are_at_their_exact_integer_distances(width, p):
    # int16 codes against int16 codes: l_1 and l_inf in integer arithmetic,
    # the exact sum or maximum of |c_x - c_q| as float64 in a buffer of any
    # size, with rows at both ends of [0, 2^15 - 1]; other norms take the
    # codes as float64 (integer powers would overflow).  Codes narrower than
    # _CODE_NARROW are reduced down the columns of a transposed buffer and
    # wider ones along their rows, from any layout: row-major rows, a slice
    # of a column-major matrix (a dense sweep's chunk) and a gather from one
    # (a gathered chunk, which the kernel may difference in place)
    rng = np.random.Generator(np.random.Philox(key=12))
    rows = rng.integers(0, 2 ** 15, (9, width)).astype(np.int16)
    rows[0], rows[1] = 0, 2 ** 15 - 1
    y = rng.integers(0, 2 ** 15, width).astype(np.int16)
    norm = as_norm_order(p)
    diff = np.abs(rows.astype(np.int64) - y)
    if p == 1:
        want = diff.sum(axis=1).astype(np.float64)
    elif p == "inf":
        want = diff.max(axis=1).astype(np.float64)
    else:
        want = distances_to_point(rows.astype(np.float64), y.astype(np.float64), norm)
    columns = np.asfortranarray(rows)
    for count in (1, 2, 3, 7, 9):
        gathered = np.take(columns.T, np.arange(count), axis=1).T
        assert gathered.flags.f_contiguous
        for layout, scratch in ((rows[:count], False), (columns[:count], False),
                                (gathered, True)):
            got = distances_to_point(layout, y, norm, scratch=scratch)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want[:count])


def one_pass_grid(values):
    """(lo, step) from one pass over every value: lo the least finite value
    (0 if none is finite) and step the smallest power of two from 2^-1074
    up with lo + _CODE_MAX step at or above the greatest, in exact
    rationals."""
    finite = values[np.isfinite(values)]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)
    step = 2.0 ** -1074
    while Fraction(lo) + norms._CODE_MAX * Fraction(step) < Fraction(hi):
        step *= 2.0
    return lo, step


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_chunked_grid_fit_is_the_one_pass_fit(monkeypatch, cpus):
    # the store's grid fit folds each row chunk's finite extremes, read
    # in_parts, in chunk order: with 4 rows a chunk, chunks 1 and 6 hold
    # only +-inf and nan, rows of them sit on either side of the boundaries
    # at rows 12, 20 and 32, and the extremes sit next to them.  The codes
    # are those of one _encode over the whole matrix on that grid
    rng = np.random.Generator(np.random.Philox(key=13))
    rows = rng.standard_normal((42, 6)) * 10.0 + 3.0
    rows[4:8] = np.inf
    rows[5, ::2] = -np.inf
    rows[24:28] = np.nan
    rows[11] = rows[20] = -np.inf
    rows[12, 1:] = rows[31, :3] = np.nan
    rows[19, 2], rows[32, 4] = -100.0, 250.0
    monkeypatch.setattr(norms, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(norms, "CHUNK_BYTES", 16 * 6 * 4)
    assert len(list(norms.row_chunks(42, 6, itemsize=16))) == 11
    for matrix in (rows, np.full((42, 6), np.nan), np.where(rows > 0, np.inf, -np.inf)):
        want = one_pass_grid(matrix)
        assert norms._fit_grid(matrix) == want
        for norm in (L1, LINF):
            codes, grid = norms._stored(matrix, norm)
            assert grid == want and codes.dtype == np.int16
            np.testing.assert_array_equal(codes, norms._encode(matrix, *want))
    assert one_pass_grid(rows)[0] == -100.0
    assert one_pass_grid(np.full((1, 6), np.nan)) == (0.0, 2.0 ** -1074)


@pytest.mark.parametrize("width", [4, 16])
@pytest.mark.parametrize("p", [1, 2, 4, 3.5, "inf"])
def test_overflowed_differences_are_at_distance_inf(p, width):
    # a difference beyond the float64 range, or an infinite component (a
    # float32 feature that overflowed), puts a row at distance inf under
    # every norm; the rows beside it keep their finite distances
    rng = np.random.Generator(np.random.Philox(key=12))
    rows = rng.standard_normal((6, width))
    y = rng.standard_normal(width)
    y[0] = rows[:, 0] = -1e308
    rows[1, 0] = 1e308  # the difference overflows
    rows[2, -1] = np.inf
    rows[3] = -np.inf
    rows[4] = 1e308
    norm = as_norm_order(p)
    with np.errstate(over="ignore"):
        got = distances_to_point(rows, y, norm)
        want = unchunked_distances(rows, y, norm)
    assert np.isinf(got[1:5]).all()
    assert np.isfinite(got[[0, 5]]).all()
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("width", [2, 40])
@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_an_overflowed_distance_is_inf_without_a_warning(p, width):
    # a difference beyond the float64 range is at distance inf under every
    # norm, and so is an l_1 sum beyond it (in order below 32 columns,
    # pairwise from 32 up): documented results, which warn nothing
    norm = as_norm_order(p)
    rows = np.zeros((2, width))
    rows[0, :2] = 1e308
    rows[1, 0] = 1e308
    y = np.zeros(width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summed = distances_to_point(rows[:1], y, norm)
        y[0] = -1e308
        differenced = distances_to_point(rows[1:], y, norm)
    assert np.isinf(summed[0]) == (p == 1)
    assert np.isinf(differenced[0])


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e7])
def test_l4_band_decides_as_the_kernel(offset):
    # rows inside the band's verdict are below tau by the kernel, and rows
    # outside it at or above tau, for tau on and one ulp about the kernel's
    # own distances: under l_4 on float64 rows, and under l_2 on float64
    # rows and on float32 rows against a float32 query (single); an offset
    # makes the expansion cancel, which the half-width's relative term covers
    rng = np.random.Generator(np.random.Philox(key=14))
    for width in (1, 4, 16, 64):
        rows = rng.standard_normal((400, width)) + offset
        rows[::9] = rows[1]  # exact duplicates of the query, at distance 0
        for norm, single in ((L4, False), (L2, False), (L2, True)):
            quartic = norm == L4
            x = rows.astype(np.float32) if single else rows
            q = x[1]
            with np.errstate(over="ignore", invalid="ignore"):
                powers = norms._row_powers(x, quartic)
                if quartic:
                    cross = np.empty((1, x.shape[0]))
                    oracle._l4_cross(x, q[None, :], cross)
                    cross = cross[0]
                else:
                    cross = -2.0 * (x @ q)
                g = powers + powers[1] + cross
                dist = distances_to_point(x, q, norm)
                decided = 0
                for tau in np.sort(dist)[[10, 60, 200, 399]]:
                    for edge in (np.nextafter(tau, 0.0), tau, np.nextafter(tau, np.inf)):
                        if not edge > 0.0:
                            continue
                        inside, band = norms.band(g, powers, powers[1], edge, width,
                                                  quartic, single)
                        assert np.all(dist[inside] < edge)
                        assert np.all(dist[~inside & ~band] >= edge)
                        decided += int(np.count_nonzero(~band))
            if offset == 0.0:
                assert decided > 0


@pytest.mark.parametrize("spread", [1.0, 1e12])
@pytest.mark.parametrize("p, single", [(2, False), (2, True), (4, False)])
def test_band_screen_returns_the_bands_own_masks(monkeypatch, p, single, spread):
    # expansions a few ulps about every row's own band edges tau^p -+ w and
    # about the pre-screen's edges tau^p -+ w*, anywhere within 3 w* of
    # tau^p, and -inf, +inf and nan: the pre-screened masks are the band's,
    # whether the largest power is like the rest or 1e12 times the rest, and
    # the band runs on fewer rows than it is given
    rng = np.random.Generator(np.random.Philox(key=16))
    quartic = p == 4
    band = norms.band
    banded = []
    monkeypatch.setattr(norms, "band", lambda g, *args: banded.append(g.size) or band(g, *args))
    n, m = 16, 3000
    powers = rng.uniform(1.0, 4.0, m)
    powers[0] *= spread
    qq = 2.0
    for tau in (0.5, 1.0, 3.0):
        bound = tau * tau
        if quartic:
            bound *= bound
        w, wide = (norms.half_width(x, qq, bound, n, quartic, single)
                   for x in (powers, powers.max()))
        edges = np.stack(np.broadcast_arrays(bound - w, bound + w, bound - wide, bound + wide))
        g = edges[rng.integers(0, 4, m), np.arange(m)]
        g *= 1.0 + rng.integers(-4, 5, m) * 2.0 ** -52
        g[::7] = bound + wide * rng.uniform(-3.0, 3.0, g[::7].shape)
        g[1:4] = (-math.inf, math.inf, math.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            want = band(g, powers, qq, tau, n, quartic, single)
            got = norms.band_screen(g, powers, powers.max(), qq, tau, n, quartic, single)
        for mask, wanted in zip(got, want):
            np.testing.assert_array_equal(mask, wanted)
        assert banded[-1] < m  # the pre-screen decided rows of its own


@pytest.mark.parametrize("p", [2, 4])
def test_squaring_kernels_are_within_the_kernel_bound_of_the_max_divided_form(p):
    # the l_2 and l_4 kernels against the max-divided formula, to
    # gamma_{2n+16}: rows whose squares or fourth powers overflow or
    # underflow take the max-divided form, and exact duplicates stay at 0
    norm = as_norm_order(p)
    rng = np.random.Generator(np.random.Philox(key=13))
    u = np.finfo(np.float64).eps / 2
    for width in (1, 3, 4, 7, 16, 64):
        gamma = (2 * width + 16) * u / (1 - (2 * width + 16) * u)
        blocks = [rng.standard_normal((40, width)) * scale
                  for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300)]
        # every coordinate at its own scale, from subnormal to near overflow
        blocks.append(rng.standard_normal((200, width))
                      * 10.0 ** rng.uniform(-320.0, 300.0, (200, width)))
        rows = np.vstack(blocks)
        y = np.zeros(width)
        rows[::17] = y
        got = distances_to_point(rows, y, norm)
        want = max_divided_distances(np.abs(rows - y), p)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= gamma * want)
        assert np.all(got[::17] == 0.0) and np.all(got[want > 0.0] > 0.0)
        # and a query away from the origin: differences round once more
        y = rows[45] * (1.0 + 1e-3 * rng.standard_normal(width))
        got = distances_to_point(rows, y, norm)
        want = max_divided_distances(np.abs(rows - y), p)
        assert np.all(np.abs(got - want) <= gamma * want)


def test_l2_lengths_beyond_the_range_of_their_squares_stay_finite():
    # squares overflow above about 1.3e154 and underflow below about 1e-154;
    # such a row's sum of squares is not in [2^-800, inf), and it takes the
    # max-divided form, as under l_4
    np.testing.assert_array_equal(
        distances_to_point(np.array([[1e200, 0.0]]), np.zeros(2), L2), [1e200])
    assert lp_norm([1e200, 1e200], 2) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert lp_norm([3e-200, 4e-200], 2) == pytest.approx(5e-200, rel=1e-15)
    assert lp_norm(np.subtract([1e-170, 0.0], [0.0, 1e-170]), 2) > 0.0


def test_sweep_covers_the_rows_in_budget_sized_chunks(monkeypatch):
    matrix = np.arange(70.0).reshape(14, 5)
    point = np.full(5, 3.0)
    chunks = []

    def recording(block, y, norm, scratch):
        chunks.append(block.copy() if scratch else block)  # before the kernel writes it
        return distances_to_point(block, y, norm, scratch)

    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 5 * 4)
    want = unchunked_distances(matrix, point, L1)
    np.testing.assert_array_equal(sweep(matrix, None, point, L1, recording), want)
    assert [len(block) for block in chunks] == [4, 4, 4, 2]
    assert all(np.shares_memory(block, matrix) for block in chunks)  # plain slices
    # every row listed is the same sweep, still without a gather
    chunks.clear()
    np.testing.assert_array_equal(sweep(matrix, np.arange(14), point, L1, recording), want)
    assert len(chunks) == 4 and all(np.shares_memory(b, matrix) for b in chunks)

    rows = np.array([0, 2, 3, 7, 8, 13])
    chunks.clear()
    np.testing.assert_array_equal(sweep(matrix, rows, point, L1, recording), want[rows])
    assert [len(block) for block in chunks] == [4, 2]
    np.testing.assert_array_equal(np.vstack(chunks), matrix[rows])
    chunks.clear()
    assert sweep(matrix, rows[:0], point, L1, recording).shape == (0,) and chunks == []
    # a row wider than the budget still makes a chunk of one row
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8)
    chunks.clear()
    np.testing.assert_array_equal(sweep(matrix, None, point, L1, recording), want)
    assert len(chunks) == 14


def test_usable_cpus_is_the_affinity_set_else_the_cpu_count(monkeypatch):
    # a platform without sched_getaffinity counts every CPU, and one that
    # cannot tell counts one
    if hasattr(norms.os, "sched_getaffinity"):
        assert norms._usable_cpus() == len(norms.os.sched_getaffinity(0))
    monkeypatch.delattr(norms.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(norms.os, "cpu_count", lambda: 3)
    assert norms._usable_cpus() == 3
    monkeypatch.setattr(norms.os, "cpu_count", lambda: None)
    assert norms._usable_cpus() == 1
