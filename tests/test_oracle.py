"""Brute-force ground truth and epsilon calibration."""

import numpy as np
import pytest

from lpcascade import (
    CalibrationSpec,
    DataSet,
    SyntheticSpec,
    brute_force_range,
    calibrate_epsilon,
    generate,
)
from lpcascade import norms
from unchunked import unchunked_brute_force, unchunked_calibration


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


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
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
