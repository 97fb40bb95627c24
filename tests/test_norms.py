"""Norms, distances, and the norm-equivalence relations."""

import math

import numpy as np
import pytest

from lpcascade import (
    L1,
    L2,
    LINF,
    NormOrder,
    as_norm_order,
    check_norm_equivalence,
    lp_distance,
    lp_norm,
)
from lpcascade import norms
from lpcascade.norms import distances_to_point, sweep
from unchunked import unchunked_distances


def test_norm_examples():
    assert lp_norm([3, 4], 2) == pytest.approx(5.0)
    assert lp_norm([3, -4], 1) == pytest.approx(7.0)
    assert lp_norm([3, -4], "inf") == pytest.approx(4.0)


def test_distance_examples():
    assert lp_distance([1, 0], [0, 1], 1) == pytest.approx(2.0)
    assert lp_distance([1, 0], [0, 1], 2) == pytest.approx(math.sqrt(2.0))
    x = [0.3, -1.7, 2.2]
    for p in (1, 2, 4, "inf"):
        assert lp_distance(x, x, p) == 0.0


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
    with pytest.raises(ValueError):
        lp_distance([1, 2], [1, 2, 3], 2)


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
        dist = lp_distance(x, y, p)
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
    rng = np.random.Generator(np.random.Philox(key=6))
    rows = rng.standard_normal((50, 8))
    y = rng.standard_normal(8)
    batch = distances_to_point(rows, y, as_norm_order(p))
    for row, got in zip(rows, batch):
        assert got == pytest.approx(lp_distance(row, y, p), rel=1e-12, abs=1e-300)


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


def test_sweep_covers_the_rows_in_budget_sized_chunks(monkeypatch):
    matrix = np.arange(70.0).reshape(14, 5)
    point = np.full(5, 3.0)
    chunks = []

    def recording(block, y, norm):
        chunks.append(block)
        return distances_to_point(block, y, norm)

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
