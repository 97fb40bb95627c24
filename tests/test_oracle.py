"""Brute-force ground truth and epsilon calibration."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from lpcascade import (
    CalibrationSpec,
    DataSet,
    SyntheticSpec,
    as_norm_order,
    brute_force_range,
    calibrate_epsilon,
    generate,
)
from lpcascade import norms, oracle
from unchunked import unchunked_brute_force, unchunked_calibration, unchunked_kth


def test_strict_boundary():
    data = DataSet.from_array(np.array([[0.0, 0.0], [3.0, 4.0]]))
    hits = brute_force_range(data, [0.0, 0.0], 5.0, 2)
    assert hits == [(0, 0.0)]  # distance exactly 5 is not a match
    hits = brute_force_range(data, [0.0, 0.0], 5.0001, 2)
    assert [ident for ident, _ in hits] == [0, 1]


def test_dimension_mismatch():
    data = DataSet.from_array(np.ones((2, 3)))
    with pytest.raises(ValueError):
        brute_force_range(data, [1.0, 1.0], 1.0, 2)


def test_oracle_symmetry():
    ds = generate(SyntheticSpec(count=200, dim=8, rng_seed=50))
    epsilon = 0.9
    member = {
        ident: {other for other, _ in brute_force_range(ds, ds.vectors[ident],
                                                        epsilon, 2)}
        for ident in range(50)
    }
    for a in range(50):
        for b in range(50):
            assert (b in member[a]) == (a in member[b])


def test_calibration_spec_validation():
    with pytest.raises(ValueError):
        CalibrationSpec(sample_size=0)
    with pytest.raises(ValueError):
        CalibrationSpec(target_nn=0)


def test_calibrate_on_integer_line():
    line = DataSet.from_array(np.arange(100.0)[:, None])
    spec = CalibrationSpec(sample_size=10, target_nn=1)
    assert calibrate_epsilon(line, spec, 1, rng_seed=42) == 1.0


def test_calibrate_last_neighbor_is_max_distance():
    line = DataSet.from_array(np.arange(100.0)[:, None])
    got = calibrate_epsilon(line, CalibrationSpec(sample_size=1, target_nn=99),
                            1, rng_seed=43)
    rng = np.random.Generator(np.random.Philox(key=43))
    query = int(rng.choice(100, size=1, replace=False)[0])
    assert got == float(max(query, 99 - query))


def test_calibrate_errors():
    line = DataSet.from_array(np.arange(50.0)[:, None])
    with pytest.raises(ValueError):
        calibrate_epsilon(line, CalibrationSpec(sample_size=60, target_nn=1), 1)
    with pytest.raises(ValueError):
        calibrate_epsilon(line, CalibrationSpec(sample_size=1, target_nn=50), 1)
    with pytest.raises(ValueError):
        # only 40 points remain after the holdout; the 45th neighbor is gone
        calibrate_epsilon(line, CalibrationSpec(sample_size=10, target_nn=45), 1)


def test_calibration_monotone_in_target():
    ds = generate(SyntheticSpec(count=400, dim=32, rng_seed=51))
    spec = lambda k: CalibrationSpec(sample_size=50, target_nn=k)
    values = [calibrate_epsilon(ds, spec(k), 2, rng_seed=52)
              for k in (1, 5, 20, 52)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_calibrated_epsilon_yields_target_scale_counts():
    # high-dimensional iid corpus: fresh queries should see roughly the
    # targeted neighbor count (within a factor of two either way)
    full = generate(SyntheticSpec(count=1050, dim=960, rng_seed=40))
    base = DataSet(vectors=full.vectors[:1000], ids=full.ids[:1000])
    fresh = full.vectors[1000:]
    epsilon = calibrate_epsilon(base, CalibrationSpec(sample_size=400,
                                                      target_nn=52),
                                2, rng_seed=41)
    counts = [len(brute_force_range(base, q, epsilon, 2)) for q in fresh]
    assert 26.0 <= float(np.mean(counts)) <= 104.0


@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
def test_chunked_scans_equal_unchunked_references(monkeypatch, p):
    ds = generate(SyntheticSpec(count=700, dim=24, rng_seed=53))
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 24 * 9)  # 78 chunks per scan
    spec = CalibrationSpec(sample_size=30, target_nn=7)
    epsilon = calibrate_epsilon(ds, spec, p, rng_seed=54)
    assert epsilon == unchunked_calibration(ds, spec, p, rng_seed=54)
    for row in (0, 350, 699):
        y = ds.vectors[row] + 0.01
        hits = brute_force_range(ds, y, epsilon, p)
        assert hits and hits == unchunked_brute_force(ds, y, epsilon, p)


def test_wide_calibration_equals_unchunked_reference():
    # default budget: 136 rows of 960 per chunk, so a scan spans 8 chunks
    ds = generate(SyntheticSpec(count=1000, dim=960, rng_seed=55))
    spec = CalibrationSpec(sample_size=20, target_nn=52)
    assert calibrate_epsilon(ds, spec, 2, rng_seed=56) == \
        unchunked_calibration(ds, spec, 2, rng_seed=56)


def spied_calibration(monkeypatch, data, spec, p, rng_seed):
    """calibrate_epsilon's result, each sample's k-th distance (the array
    its median is taken of) and the samples that took the full sweep."""
    taken, swept = [], []
    median, sweep_kth = np.median, oracle._kth_by_sweep

    def spy_median(values, *args, **kwargs):
        taken.append(np.array(values))
        return median(values, *args, **kwargs)

    def spy_sweep(vectors, chosen, row, norm, k):
        swept.append(int(row))
        return sweep_kth(vectors, chosen, row, norm, k)

    with monkeypatch.context() as patch:
        patch.setattr(oracle.np, "median", spy_median)
        patch.setattr(oracle, "_kth_by_sweep", spy_sweep)
        got = calibrate_epsilon(data, spec, p, rng_seed=rng_seed)
    return got, taken[-1], swept


def lattice_twice():
    # every point of {0..3}^3 twice: integer coordinates make every squared
    # distance exact, so many rows tie at each sample's k-th distance
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), axis=-1).reshape(-1, 3)
    return np.concatenate([grid, grid])


def normal(seed, rows, dim):
    return np.random.default_rng(seed).standard_normal((rows, dim))


CALIBRATION_CASES = {
    "tied": (lattice_twice, CalibrationSpec(sample_size=16, target_nn=10)),
    # the same lattice at a spacing of 0.7 about 1e7: the rows' grid codes
    # round, by up to half a step in every column, while many rows still tie
    "tied-1e7": (lambda: lattice_twice() * 0.7 + 1e7,
                 CalibrationSpec(sample_size=16, target_nn=10)),
    # 12 rows 15 times each: the k-th neighbor is an exact duplicate at
    # distance 0, where the kernel takes its max-divided form
    "zero": (lambda: np.repeat(normal(70, 12, 8), 15, axis=0),
             CalibrationSpec(sample_size=20, target_nn=5)),
    # a common offset of 1e8 makes the band wider than the distances
    "offset-1e8": (lambda: normal(71, 300, 16) + 1e8,
                   CalibrationSpec(sample_size=25, target_nn=7)),
    # and one of 1e7 about as wide as the gaps between neighbors
    "offset-1e7": (lambda: normal(72, 300, 16) + 1e7,
                   CalibrationSpec(sample_size=25, target_nn=7)),
    # one column a million times wider than the rest: the grid's step is
    # set by that column, so the others code to a few codes, and the code
    # screen's grid term spans many neighbors
    "wide-column": (lambda: normal(78, 300, 16) * np.r_[1e6, np.ones(15)],
                    CalibrationSpec(sample_size=25, target_nn=7)),
    # squared norms and inner products overflow: g is nan, tau infinite
    "scale-1e154": (lambda: normal(72, 300, 16) * 1e154,
                    CalibrationSpec(sample_size=25, target_nn=7)),
    # fourth powers overflow while squares do not: the l_4 expansion is
    # inf or nan on every row, the l_2 one is not
    "scale-1e78": (lambda: normal(72, 300, 16) * 1e78,
                   CalibrationSpec(sample_size=25, target_nn=7)),
    # squared norms are subnormal: the band's absolute term covers every row
    "scale-1e-160": (lambda: normal(73, 300, 16) * 1e-160,
                     CalibrationSpec(sample_size=25, target_nn=7)),
    # fourth powers underflow while squares do not
    "scale-1e-80": (lambda: normal(73, 300, 16) * 1e-80,
                    CalibrationSpec(sample_size=25, target_nn=7)),
    # the k-th neighbor is the last row left after the holdout
    "last": (lambda: normal(74, 120, 6), CalibrationSpec(sample_size=10, target_nn=110)),
    # one row 1e8 times longer than the rest: the l_2 and l_4 pre-screens'
    # scalar half-width, taken at that row's power, keeps every other row
    # (at 1e6 it would keep every row under l_4 but only about 33 under l_2)
    "outlier": (lambda: normal(80, 300, 16) * np.r_[1e8, np.ones(299)][:, None],
                CalibrationSpec(sample_size=25, target_nn=7)),
}


@pytest.mark.parametrize("case", list(CALIBRATION_CASES))
def test_l2_calibration_equals_unchunked_reference(monkeypatch, case):
    make, spec = CALIBRATION_CASES[case]
    data = DataSet.from_array(make())
    got, kth, swept = spied_calibration(monkeypatch, data, spec, 2, rng_seed=75)
    np.testing.assert_array_equal(kth, unchunked_kth(data, spec, 2, rng_seed=75))
    assert got == unchunked_calibration(data, spec, 2, rng_seed=75)
    # the screened GEMM pass decides every sample; none takes the full sweep
    assert swept == []


@pytest.mark.parametrize("case", list(CALIBRATION_CASES))
@pytest.mark.parametrize("p", [1, 4, "inf"])
def test_screened_calibration_equals_unchunked_reference(monkeypatch, p, case):
    # l_4 screens every row by its GEMM expansion and l_1 and l_inf by its
    # exact code distance; the kernel runs on the rows near the k-th
    # neighbor, and its k-th distance is the full sweep's float
    make, spec = CALIBRATION_CASES[case]
    data = DataSet.from_array(make())
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 16 * 24)  # several chunks and blocks
    got, kth, swept = spied_calibration(monkeypatch, data, spec, p, rng_seed=75)
    np.testing.assert_array_equal(kth, unchunked_kth(data, spec, p, rng_seed=75))
    assert got == unchunked_calibration(data, spec, p, rng_seed=75)
    assert swept == []


@pytest.mark.parametrize("case", list(CALIBRATION_CASES))
@pytest.mark.parametrize("p", [2, 4])
def test_prescreen_sends_the_kernel_the_rows_of_the_band_alone(monkeypatch, p, case):
    # per sample, the scalar pre-screen drops only rows the band would call
    # outside, so the kernel sweeps exactly the rows that the band run on
    # every row sends it, and the epsilon is the same float
    make, spec = CALIBRATION_CASES[case]
    data = DataSet.from_array(make())
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 16 * 24)  # several blocks
    band = norms.l4_band if p == 4 else norms.l2_band
    name = "l4_band" if p == 4 else "l2_band"

    def kernel_rows():
        sent, banded = [], []

        def spy_sweep(matrix, rows, *args):
            sent.append(rows)
            return norms.sweep(matrix, rows, *args)

        def spy_band(g, *args):
            banded.append(g.size)
            return band(g, *args)

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "sweep", spy_sweep)
            patch.setattr(oracle, name, spy_band)
            return calibrate_epsilon(data, spec, p, rng_seed=75), sent, banded

    got, screened, banded = kernel_rows()
    monkeypatch.setattr(oracle, "_band_mask", lambda g, powers, qq, tau, n, *rest:
                        np.logical_or(*band(g, powers, qq, tau, n)))
    want, alone, _ = kernel_rows()
    assert got == want == unchunked_calibration(data, spec, p, rng_seed=75)
    assert len(screened) == len(alone) >= spec.sample_size
    for rows, wanted in zip(screened, alone):
        np.testing.assert_array_equal(rows, wanted)
    if case == "outlier":
        # the scalar half-width keeps every row but the outlier's own
        assert banded == [len(data) - 1] * spec.sample_size


def test_gemm_blocks_share_one_mapping(monkeypatch):
    # 25 samples of 300 rows in blocks of 12: one mapping of 12 x 300
    # products serves all three blocks, under l_2 and l_4 alike
    data = DataSet.from_array(normal(81, 300, 16))
    spec = CalibrationSpec(sample_size=25, target_nn=7)
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 300 * 3)
    assert len(list(norms.row_chunks(25, 300, oracle._BLOCK_CHUNKS))) == 3
    mapped, calls = oracle._mapped, []
    monkeypatch.setattr(oracle, "_mapped", lambda *shape: calls.append(shape) or mapped(*shape))
    for p in (2, 4):
        calls.clear()
        assert calibrate_epsilon(data, spec, p, rng_seed=82) == \
            unchunked_calibration(data, spec, p, rng_seed=82)
        assert calls == [(12, 300)]


@pytest.mark.parametrize("p", [1, "inf"])
def test_code_bounds_hold_in_exact_arithmetic(p):
    # reach(S) is at least (step S + G') (1 + kappa), the largest kernel
    # distance of a row at code distance S, and a row at code distance
    # limit(tau) or more is at least (step S - G') (1 - kappa) >= tau, with
    # G' = n^(1/p) (1 + 2^-37) step the largest coding error and kappa =
    # gamma_{2n+16} the kernel's: checked in rationals, for tau from below
    # the grid term to 2^15 of it, where kappa tau can outweigh the grid
    # term's slack (about 2^-33 of it) once n exceeds 16
    norm = as_norm_order(p)
    u = Fraction(1, 2 ** 53)
    for n in (1, 16, 64, 4096, 2 ** 20):
        kappa = (2 * n + 16) * u / (1 - (2 * n + 16) * u)
        for step in (2.0 ** -1074, 2.0 ** -40, 1.0, 2.0 ** 900):
            reach, limit = oracle._code_bounds(norm, n, step)
            error = (n if p == 1 else 1) * (1 + Fraction(1, 2 ** 37)) * Fraction(step)
            for s in (0, 1, 7, 2 ** 15 - 1, 52 * 2 ** 15):
                bound = reach(float(s))
                if math.isfinite(bound):
                    assert Fraction(bound) >= (Fraction(step) * s + error) * (1 + kappa)
            for ratio in (0.5, 1.0, 3.0, 1000.0, 2.0 ** 15):
                tau = float(error) * ratio
                if not 0.0 < tau < math.inf:
                    continue
                if math.isfinite(limit(tau)):
                    first = math.ceil(limit(tau))
                    assert (Fraction(step) * first - error) * (1 - kappa) >= Fraction(tau)
def test_l2_calibration_of_rows_wider_than_numpys_buffer(monkeypatch):
    # the band leaves one kernel row per sample at k = 1, a one-row chunk:
    # past numpy's 8,192-element buffer einsum gave it another float than
    # the reference's scan over every row
    data = DataSet.from_array(normal(79, 120, 8193))
    spec = CalibrationSpec(sample_size=12, target_nn=1)
    got, kth, swept = spied_calibration(monkeypatch, data, spec, 2, rng_seed=80)
    np.testing.assert_array_equal(kth, unchunked_kth(data, spec, 2, rng_seed=80))
    assert got == unchunked_calibration(data, spec, 2, rng_seed=80)
    assert swept == []


def test_l2_calibration_falls_back_per_sample(monkeypatch):
    # rows at +1e308 and -1e308 in the first coordinate, whose differences
    # overflow: a sample at either end has fewer than k neighbors at a
    # finite distance, so the band leaves too few rows below tau and that
    # sample takes the full sweep, while a sample near 0 does not
    rng = np.random.default_rng(76)
    rows = rng.standard_normal((90, 4))
    rows[:30, 0] = 1e308
    rows[30:60, 0] = -1e308
    data = DataSet.from_array(rows)
    spec = CalibrationSpec(sample_size=12, target_nn=66)
    with np.errstate(over="ignore"):
        got, kth, swept = spied_calibration(monkeypatch, data, spec, 2, rng_seed=77)
        want = unchunked_kth(data, spec, 2, rng_seed=77)
        assert got == unchunked_calibration(data, spec, 2, rng_seed=77)
    np.testing.assert_array_equal(kth, want)
    far = np.flatnonzero(np.abs(rows[:, 0]) == 1e308)
    assert swept and set(swept) <= set(far)
    assert 0 < len(swept) < spec.sample_size and np.isinf(kth).sum() == len(swept)


@pytest.mark.parametrize("p", [1, 3, "inf"])
def test_threaded_calibration_equals_unchunked_reference(monkeypatch, p):
    # more threads than cores, switching every microsecond: a lost or
    # misplaced slot would leave some sample's k-th distance wrong.  Under
    # l_3 every sample takes the full sweep; under l_1 and l_inf every
    # sample takes its code sweep and none the full sweep
    ds = generate(SyntheticSpec(count=600, dim=12, rng_seed=57))
    spec = CalibrationSpec(sample_size=37, target_nn=6)
    threads = set()
    name = "_kth_by_sweep" if p == 3 else "_coded_kth"
    per_sample = getattr(oracle, name)

    def spy(*args):
        threads.add(threading.get_ident())
        return per_sample(*args)

    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(oracle, name, spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, kth, swept = spied_calibration(monkeypatch, ds, spec, p, rng_seed=58)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(kth, unchunked_kth(ds, spec, p, rng_seed=58))
    assert got == unchunked_calibration(ds, spec, p, rng_seed=58)
    assert len(swept) == (spec.sample_size if p == 3 else 0) and len(threads) > 1


@pytest.mark.skipif(not hasattr(oracle.os, "sched_getaffinity"),
                    reason="the platform has no CPU affinity")
def test_calibration_threads_follow_the_affinity_set(monkeypatch):
    # a process pinned to one of 64 CPUs sweeps on the calling thread alone
    ds = generate(SyntheticSpec(count=300, dim=8, rng_seed=59))
    spec = CalibrationSpec(sample_size=20, target_nn=4)
    want = calibrate_epsilon(ds, spec, 1, rng_seed=60)
    pools = []
    executor = oracle.ThreadPoolExecutor

    def recording(max_workers):
        pools.append(max_workers)
        return executor(max_workers)

    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(oracle, "ThreadPoolExecutor", recording)
    assert calibrate_epsilon(ds, spec, 1, rng_seed=60) == want
    assert pools == [1]
