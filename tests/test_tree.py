"""The subspace index: schedules, queries, cost accounting, persistence."""

import math
import warnings

import numpy as np
import pytest

from lpcascade import (
    DataSet,
    DimensionSchedule,
    QueryReport,
    SyntheticSpec,
    brute_force_range,
    build_index,
    estimate_cost,
    fit_const,
    generate,
    load_index,
    range_query,
    save_index,
)

GIST_SCHEDULE = (960, 480, 240, 120, 60, 30, 10, 5)


def small_dataset(seed=30, count=400, dim=64, model="block-correlated"):
    return generate(SyntheticSpec(count=count, dim=dim, model=model,
                                  block_size=4, correlation=0.8, rng_seed=seed))


def recompute_cost(report, dims):
    t = len(dims) - 1
    total = sum(report.survivors[i] * dims[i - 1] for i in range(1, t + 1))
    return total + (report.cost_l // dims[0]) * dims[t]


def test_schedule_validation():
    assert DimensionSchedule((64, 16, 4)).levels == 2
    assert DimensionSchedule((5,)).levels == 0
    with pytest.raises(ValueError):
        DimensionSchedule(())
    with pytest.raises(ValueError):
        DimensionSchedule((16, 16))
    with pytest.raises(ValueError):
        DimensionSchedule((16, 32))
    with pytest.raises(ValueError):
        DimensionSchedule((16, 6))
    with pytest.warns(UserWarning):
        DimensionSchedule((64, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        DimensionSchedule(GIST_SCHEDULE)  # ratios 2..3 never warn


def test_build_two_stage_composition():
    data = DataSet.from_array(np.array([
        [1.0, 3.0, 2.0, 2.0],
        [0.0, 0.0, 0.0, 0.0],
        [4.0, 0.0, 1.0, 3.0],
        [1.0, 1.0, 1.0, 1.0],
    ]))
    index = build_index(data, DimensionSchedule((4, 2, 1)), "orthogonal", 2)
    np.testing.assert_allclose(index.features[0][0], [2 * math.sqrt(2)] * 2,
                               rtol=1e-12)
    np.testing.assert_allclose(index.features[1][0], [4.0], rtol=1e-12)


def test_adaptive_equals_orthogonal_on_secting_line_data():
    scalars = np.array([1.0, 2.0, 5.0, -3.0, 0.5])
    data = DataSet.from_array(np.outer(scalars, np.ones(8)))
    schedule = DimensionSchedule((8, 4, 2))
    fixed = build_index(data, schedule, "orthogonal", 2)
    fitted = build_index(data, schedule, "adaptive", 2)
    for a, b in zip(fixed.features, fitted.features):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_gist_shaped_schedule_builds():
    data = generate(SyntheticSpec(count=1000, dim=960, rng_seed=31))
    index = build_index(data, DimensionSchedule(GIST_SCHEDULE), "adaptive", 2)
    assert len(index.levels) == 7
    assert [f.shape[1] for f in index.features] == [480, 240, 120, 60, 30, 10, 5]


def test_build_validation():
    data = small_dataset()
    with pytest.raises(ValueError):
        build_index(data, DimensionSchedule((128, 64)), "orthogonal", 2)
    with pytest.raises(ValueError):
        build_index(data, DimensionSchedule((64, 16)), "diagonal", 2)


def test_query_everything_pruned_at_coarsest_level():
    data = small_dataset()
    schedule = DimensionSchedule((64, 16, 4))
    index = build_index(data, schedule, "orthogonal", 2)
    far = data.vectors[0] + 1e6
    report = range_query(index, far, 1e-6)
    assert report.matches == ()
    assert report.survivors[-1] == 0
    assert report.cost_s == len(data) * schedule.dims[-1]


def test_query_nothing_pruned():
    data = small_dataset()
    schedule = DimensionSchedule((64, 16, 4))
    index = build_index(data, schedule, "orthogonal", 2)
    report = range_query(index, data.vectors[0], 1e9)
    assert len(report.matches) == len(data)
    assert report.survivors == (len(data),) * 3
    s, dims = len(data), schedule.dims
    assert report.cost_s == s * dims[0] + s * dims[1] + s * dims[2]
    assert report.cost_l == s * dims[0]


def test_cost_example_direct_substitution():
    # s=4, one level 4 -> 2, two level-1 survivors: cost = 2*4 + 4*2 = 16
    data = DataSet.from_array(np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.1, 0.1, 0.1, 0.1],
        [10.0, 10.0, 10.0, 10.0],
        [20.0, 20.0, 20.0, 20.0],
    ]))
    index = build_index(data, DimensionSchedule((4, 2)), "orthogonal", 2)
    report = range_query(index, np.zeros(4), 1.0)
    assert report.survivors[1] == 2
    assert report.cost_s == 2 * 4 + 4 * 2 == 16


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_query_matches_oracle(mode, p):
    data = small_dataset(seed=32, count=600)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
    rng = np.random.Generator(np.random.Philox(key=33))
    for _ in range(5):
        query = data.vectors[rng.integers(len(data))] + rng.standard_normal(64) * 0.05
        epsilon = float(rng.uniform(0.5, 10.0))
        report = range_query(index, query, epsilon)
        oracle = brute_force_range(data, query, epsilon, p)
        assert list(report.matches) == oracle
        assert report.cost_s == recompute_cost(report, index.schedule.dims)
        assert all(a <= b for a, b in zip(report.survivors, report.survivors[1:]))


def test_single_level_schedule_is_a_scan():
    data = small_dataset(count=50)
    index = build_index(data, DimensionSchedule((64,)), "orthogonal", 2)
    report = range_query(index, data.vectors[3], 5.0)
    assert report.cost_s == report.cost_l == 50 * 64
    assert list(report.matches) == brute_force_range(data, data.vectors[3], 5.0, 2)


def test_query_validation():
    data = small_dataset(count=50)
    index = build_index(data, DimensionSchedule((64, 16)), "orthogonal", 2)
    with pytest.raises(ValueError):
        range_query(index, np.zeros(32), 1.0)
    with pytest.raises(ValueError):
        range_query(index, data.vectors[0], 0.0)
    with pytest.raises(ValueError):
        range_query(index, data.vectors[0], -2.0)
    bad = data.vectors[0].copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        range_query(index, bad, 1.0)


def test_query_determinism():
    data = small_dataset(count=300)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 2)
    query = data.vectors[7] + 0.01
    assert range_query(index, query, 4.0) == range_query(index, query, 4.0)
    again = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 2)
    for a, b in zip(index.features, again.features):
        np.testing.assert_array_equal(a, b)


def test_estimate_cost_examples():
    assert estimate_cost(DimensionSchedule((4, 2)), 4, 1.0) == pytest.approx(10.0)
    assert estimate_cost(DimensionSchedule(GIST_SCHEDULE), 10 ** 5,
                         1.0) == pytest.approx(500015.0)
    # single projection level: (1/const) * (n/d) + d*s
    assert estimate_cost(DimensionSchedule((64, 16)), 100,
                         0.5) == pytest.approx(2 * 4 + 16 * 100)
    with pytest.raises(ValueError):
        estimate_cost(DimensionSchedule((4, 2)), 0, 1.0)
    with pytest.raises(ValueError):
        estimate_cost(DimensionSchedule((4, 2)), 4, 0.0)


def _report(survivors, dims):
    s = 10_000
    return QueryReport(matches=(), survivors=tuple(survivors),
                       cost_s=1, cost_l=s * dims[0], epsilon=1.0)


def test_fit_const_examples():
    schedule = DimensionSchedule((960, 480))
    got = fit_const([_report((1, 7), schedule.dims)], schedule)
    assert got == pytest.approx(1.0 / 480.0)

    schedule = DimensionSchedule((960, 480, 240))
    consistent = _report((2, 4, 9), schedule.dims)  # both pairs imply 1/960
    assert fit_const([consistent], schedule) == pytest.approx(1.0 / 960.0)

    schedule = DimensionSchedule((960, 480, 240, 120))
    exact = _report((20, 40, 80, 100), schedule.dims)  # const = 1/9600
    assert fit_const([exact, exact], schedule) == pytest.approx(1.0 / 9600.0,
                                                                rel=1e-6)


def test_fit_const_errors():
    schedule = DimensionSchedule((960, 480))
    with pytest.raises(ValueError):
        fit_const([_report((0, 0), schedule.dims)], schedule)
    with pytest.raises(ValueError):
        fit_const([_report((1, 1, 1), (960, 480, 240))], schedule)


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_save_load_roundtrip(tmp_path, mode):
    data = small_dataset(count=200)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, 2)
    path = tmp_path / "container.idx"
    save_index(index, path)
    loaded = load_index(path)

    np.testing.assert_array_equal(loaded.ids, index.ids)
    np.testing.assert_array_equal(loaded.data, index.data)
    for built, back in zip(index.features, loaded.features):
        np.testing.assert_array_equal(back.astype(np.float32),
                                      built.astype(np.float32))
    for lvl_a, lvl_b in zip(index.levels, loaded.levels):
        if mode == "adaptive":
            np.testing.assert_array_equal(lvl_a.directions, lvl_b.directions)
            np.testing.assert_array_equal(lvl_a.scales, lvl_b.scales)
        else:
            assert lvl_a.directions is lvl_b.directions is None
            assert lvl_a.scales is lvl_b.scales is None
    assert loaded.norm == index.norm and loaded.mode == index.mode
    assert all(margin > 0.0 for margin in loaded.prune_margins)
    assert all(margin == 0.0 for margin in index.prune_margins)


def test_loaded_index_queries_stay_exact(tmp_path):
    data = small_dataset(count=400, seed=34)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 1)
    path = tmp_path / "container.idx"
    save_index(index, path)
    loaded = load_index(path)
    rng = np.random.Generator(np.random.Philox(key=35))
    for _ in range(10):
        query = data.vectors[rng.integers(len(data))] + rng.standard_normal(64) * 0.1
        epsilon = float(rng.uniform(1.0, 30.0))
        got = range_query(loaded, query, epsilon)
        assert list(got.matches) == brute_force_range(data, query, epsilon, 1)


def test_save_without_data_requires_dataset(tmp_path):
    data = small_dataset(count=60)
    index = build_index(data, DimensionSchedule((64, 16)), "orthogonal", 2)
    path = tmp_path / "slim.idx"
    save_index(index, path, include_data=False)
    with pytest.raises(ValueError):
        load_index(path)
    loaded = load_index(path, data=data)
    np.testing.assert_array_equal(loaded.data, data.vectors)
    with pytest.raises(ValueError):
        load_index(path, data=small_dataset(count=61))


def test_features_are_rowwise_projections():
    from lpcascade import project_level

    data = small_dataset(count=80, seed=36)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 2)
    previous = data.vectors
    for level, feats in zip(index.levels, index.features):
        for row in (0, 17, 79):
            np.testing.assert_allclose(feats[row],
                                       project_level(previous[row], level),
                                       rtol=1e-12)
        previous = feats


def test_adaptive_levels_fitted_recursively():
    from lpcascade import BlockPartition, fit_adaptive_level

    data = small_dataset(count=300, seed=37)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 2)
    refit = fit_adaptive_level(index.features[0], BlockPartition.for_dims(16, 4), 2)
    np.testing.assert_array_equal(index.levels[1].directions, refit.directions)


def test_mmap_loaded_index_matches(tmp_path):
    data = small_dataset(count=150, seed=38)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 2)
    path = tmp_path / "mapped.idx"
    save_index(index, path)
    mapped = load_index(path, mmap_data=True)
    assert isinstance(mapped.data, np.memmap)
    np.testing.assert_array_equal(np.asarray(mapped.data), index.data)
    query = data.vectors[5] + 0.02
    assert range_query(mapped, query, 3.0).matches == \
        range_query(index, query, 3.0).matches


def test_load_rejects_corrupt_containers(tmp_path):
    data = small_dataset(count=30)
    index = build_index(data, DimensionSchedule((64, 16)), "orthogonal", 2)
    path = tmp_path / "ok.idx"
    save_index(index, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.idx"
    bad_magic.write_bytes(b"NOTANIDX" + raw[8:])
    with pytest.raises(ValueError):
        load_index(bad_magic)

    truncated = tmp_path / "short.idx"
    truncated.write_bytes(raw[:-100])
    with pytest.raises(ValueError):
        load_index(truncated)

    padded = tmp_path / "long.idx"
    padded.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_index(padded)
