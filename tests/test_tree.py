"""The subspace index: schedules, queries, cost accounting, persistence."""

import dataclasses
import json
import math
import pickle
import re
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from lpcascade import (
    BlockPartition,
    DataSet,
    DimensionSchedule,
    QueryReport,
    SyntheticSpec,
    brute_force_range,
    build_index,
    estimate_cost,
    fit_adaptive_level,
    fit_const,
    generate,
    load_index,
    lp_norm,
    range_query,
    save_index,
)
from lpcascade import norms, projection, tree
from unchunked import (gather_everything_query, kernel_points, level_distances,
                       unchunked_distances)

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
    for dims in ((0,), (16, 0), (-4,)):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            DimensionSchedule(dims)
    # int() would have taken (8.9, 2.2) as (8, 2) and (True,) as (1,)
    for dims in ((8.9, 2.2), (8.0, 2.0), (True,), (8, "2")):
        with pytest.raises(ValueError, match="is not an integer"):
            DimensionSchedule(dims)
    numpy_dims = DimensionSchedule(tuple(np.array([64, 16, 4]))).dims
    assert numpy_dims == (64, 16, 4) and all(type(d) is int for d in numpy_dims)
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
    # stored features are float32 values; the next level is projected from
    # the unrounded ones
    level_1 = projection.project_rows(data.vectors, index.levels[0])
    np.testing.assert_allclose(level_1[0], [2 * math.sqrt(2)] * 2, rtol=1e-12)
    assert index.features[0].tolist() == level_1.astype(np.float32).tolist()
    assert index.features[0][0].tolist() == [float(np.float32(2 * math.sqrt(2)))] * 2
    level_2 = projection.project_rows(level_1, index.levels[1])
    assert index.features[1].tolist() == level_2.astype(np.float32).tolist()
    assert index.features[1][0].tolist() == [4.0]
    # a plain array is built as the DataSet of its rows
    plain = build_index(data.vectors, DimensionSchedule((4, 2, 1)), "orthogonal", 2)
    np.testing.assert_array_equal(plain.ids, index.ids)
    for got, want in zip(plain.features, index.features):
        np.testing.assert_array_equal(got, want)


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


def test_matches_behave_as_a_tuple_of_pairs():
    data = small_dataset(count=300, seed=54)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 2)
    y = data.vectors[7] + 0.05
    epsilon = np.sort(unchunked_distances(data.vectors, y, index.norm))[10]
    report = range_query(index, y, epsilon)
    matches = report.matches
    truth = brute_force_range(data, y, epsilon, 2)
    pairs = tuple(truth)
    assert len(matches) == 10 and tuple(matches) == pairs
    assert all(type(i) is int and type(d) is float for i, d in matches)
    assert type(matches[3][0]) is int and type(matches[3][1]) is float
    # == with tuples and lists of pairs, either way round
    assert matches == pairs and matches == truth
    assert pairs == matches and truth == matches
    assert matches != pairs[1:] and matches != pairs[:-1] + ((pairs[-1][0], 0.0),)
    assert matches != [list(pair) for pair in truth] and matches != "matches"
    # indexing and slicing
    assert matches[0] == pairs[0] and matches[-1] == pairs[-1]
    with pytest.raises(IndexError):
        matches[10]
    assert matches[2:5] == pairs[2:5] and matches[::-3] == pairs[::-3]
    assert matches[5:5] == () and matches[2:5] == matches[2:5]
    assert pairs[4] in matches and (10 ** 9, 0.0) not in matches
    # hashing follows the tuple of pairs, so a report's does too
    assert hash(matches) == hash(pairs)
    twin = dataclasses.replace(report, matches=pairs)
    assert twin == report and hash(twin) == hash(report) and len({twin, report}) == 1
    assert dataclasses.replace(report, matches=truth) == report
    shorter = dataclasses.replace(report, matches=matches[1:])
    assert list(shorter.matches) == truth[1:] and shorter != report
    assert pickle.loads(pickle.dumps(report)) == report
    assert report.match_ids == tuple(i for i, _ in truth)
    assert all(type(i) is int for i in report.match_ids)
    # an empty report, and pairs that are not (integer id, distance)
    empty = dataclasses.replace(report, matches=())
    assert empty.matches == () and not empty.matches and empty.match_ids == ()
    with pytest.raises(TypeError):
        dataclasses.replace(report, matches=[(1.5, 0.0)])
    with pytest.raises(ValueError):
        dataclasses.replace(report, matches=[(1, 0.0, 2)])
    for ids, distances in (([1, 2], [0.5]), ([[1]], [[0.5]])):
        with pytest.raises(ValueError, match="must be 1-d arrays of one length"):
            tree.Matches(ids, distances)
    assert repr(matches[:2]) == f"Matches({pairs[:2]!r})" and repr(empty.matches) == "Matches(())"
    # the arrays are the report's own and cannot be written
    with pytest.raises(ValueError):
        matches.distances[0] = 0.0
    assert not np.shares_memory(matches.ids, index.ids)


def test_kept_reports_hold_their_matches_as_arrays():
    # 400 desk-shaped reports of about 97 matches each, kept as a service or
    # a benchmark keeps them: 16 bytes per match for the two arrays and a
    # fixed share per report, where a tuple of tuples took about 120
    data = small_dataset(count=2000, seed=53)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 1)
    queries = data.vectors[:400] + 0.01
    epsilons = [np.sort(unchunked_distances(data.vectors, y, index.norm))[97]
                for y in queries]
    range_query(index, queries[0], epsilons[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [range_query(index, y, e) for y, e in zip(queries, epsilons)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    matches = sum(len(report.matches) for report in reports)
    assert matches >= 400 * 90
    assert held <= 40 * matches


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


# schedules of one, two and three projection levels
SCHEDULES = [(64, 16), (64, 16, 4), (64, 32, 8, 2)]


@pytest.mark.parametrize("dims", SCHEDULES, ids=lambda dims: ",".join(map(str, dims)))
@pytest.mark.parametrize("p", [2, 3, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_save_load_roundtrip(tmp_path, mode, p, dims):
    # l_2 and l_3 levels are float32 features, l_inf levels int16 codes on
    # a grid
    data = small_dataset(count=200)
    index = build_index(data, DimensionSchedule(dims), mode, p)
    path = tmp_path / "container.idx"
    save_index(index, path)
    loaded = load_index(path)

    np.testing.assert_array_equal(loaded.ids, index.ids)
    np.testing.assert_array_equal(loaded.data, index.data)
    assert loaded.ids.dtype == np.int64 and loaded.data.dtype == np.float64
    assert len(loaded.features) == len(dims) - 1
    for built, back in zip(index.features, loaded.features):
        assert back.dtype == built.dtype == (np.int16 if p == "inf" else np.float32)
        np.testing.assert_array_equal(back, built)
    # one grid slot per level: a grid at an l_inf level, None at a float32 one
    assert loaded.grids == index.grids
    assert [grid is None for grid in index.grids] == [p != "inf"] * (len(dims) - 1)
    for lvl_a, lvl_b in zip(index.levels, loaded.levels):
        # every container stores its levels' directions, whatever the mode
        np.testing.assert_array_equal(lvl_a.directions, lvl_b.directions)
        np.testing.assert_array_equal(lvl_a.scales, lvl_b.scales)
        assert lvl_a.partition == lvl_b.partition
    assert loaded.norm == index.norm and loaded.mode == index.mode
    assert loaded.prune_margins == index.prune_margins
    assert all(margin > 0.0 for margin in index.prune_margins)


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


def test_features_are_rowwise_projections():
    from lpcascade import project_level

    data = small_dataset(count=80, seed=36)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 2)
    previous = data.vectors
    for level, feats in zip(index.levels, index.features):
        exact = projection.project_rows(previous, level)
        for row in (0, 17, 79):
            np.testing.assert_allclose(exact[row],
                                       project_level(previous[row], level),
                                       rtol=1e-12)
        # stored at float32 values, projected on from the unrounded ones
        np.testing.assert_array_equal(feats, exact.astype(np.float32))
        previous = exact


def test_adaptive_levels_fitted_recursively():
    data = small_dataset(count=300, seed=37)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 2)
    # fitted on the level-1 features before they are rounded to float32
    level_1 = projection.project_rows(data.vectors, index.levels[0])
    refit = fit_adaptive_level(level_1, BlockPartition.for_dims(16, 4), 2)
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


def test_a_mapped_index_saved_to_its_own_path_reloads_equal(tmp_path):
    data = small_dataset(count=3000, seed=39)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 1)
    path = tmp_path / "own.idx"
    save_index(index, path)
    mapped = load_index(path, mmap_data=True)
    # a save that truncated the mapped file would make every read of the
    # mapped rows, a traceback's repr of them included, a fatal bus error
    try:
        save_index(mapped, path)
        failure = None
    except OSError as err:
        failure = str(err)
    assert failure is None
    query = data.vectors[7] + 0.02
    assert range_query(mapped, query, 3.0) == range_query(index, query, 3.0)
    again = load_index(path)
    np.testing.assert_array_equal(again.data, index.data)
    for ours, theirs in zip(again.features, index.features):
        np.testing.assert_array_equal(ours, theirs)
    assert [entry.name for entry in tmp_path.iterdir()] == ["own.idx"]


def test_a_failed_save_leaves_the_old_file_untouched(tmp_path, monkeypatch):
    index = build_index(small_dataset(count=3000, seed=40), DimensionSchedule((64, 16, 4)),
                        "orthogonal", 2)
    path = tmp_path / "old.idx"
    save_index(index, path)
    before = path.read_bytes()
    write_rows = tree._write_rows
    written = []

    def failing(handle, matrix, dtype):
        if written:
            raise OSError("disk full")
        written.append(dtype)
        write_rows(handle, matrix, dtype)

    monkeypatch.setattr(tree, "_write_rows", failing)
    with pytest.raises(OSError, match="disk full"):
        save_index(index, path)
    assert written == ["<i8"]  # the ids went out before the failure
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["old.idx"]


def test_a_save_whose_swap_fails_keeps_one_whole_container(tmp_path, monkeypatch):
    data = small_dataset(count=300, seed=41)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 2)
    path = tmp_path / "old.idx"
    save_index(index, path)
    before = path.read_bytes()

    def failing(src, dst):
        raise OSError("swap interrupted")

    monkeypatch.setattr(tree.os, "replace", failing)
    with pytest.raises(OSError, match="swap interrupted"):
        save_index(build_index(data, DimensionSchedule((64, 8)), "orthogonal", 1), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["old.idx"]
    reloaded = load_index(path)
    np.testing.assert_array_equal(reloaded.data, index.data)
    assert reloaded.schedule.dims == (64, 16, 4)


@pytest.mark.parametrize("dims", SCHEDULES, ids=lambda dims: ",".join(map(str, dims)))
@pytest.mark.parametrize("p", [2, 3, "inf"])
def test_load_rejects_corrupt_containers(tmp_path, p, dims):
    data = small_dataset(count=30)
    index = build_index(data, DimensionSchedule(dims), "orthogonal", p)
    path = tmp_path / "ok.idx"
    save_index(index, path)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 12)

    corrupt = {
        "magic": b"NOTANIDX" + raw[8:],
        "short": raw[:-100],
        "long": raw + b"\x00" * 8,
        "one-short": raw[:-1],
        "one-long": raw + b"\x00",
        # hostile headers: each once allocated (or overflowed on) what it
        # names, 7 TiB of vectors, PiBs of directions, a 2^63-byte header,
        # or overran the JSON decoder's recursion limit
        "huge-header": raw[:12] + struct.pack("<Q", 2 ** 63 - 1) + raw[20:],
        "deep-header": raw[:12] + struct.pack("<Q", 200_000) + b"[" * 100_000
        + b"]" * 100_000 + raw[20 + length:],
    }
    edits = {
        "huge-count": {"count": 10 ** 12},
        "huge-schedule": {"schedule": [2 ** 40, 2 ** 39]},
        # a container without its vectors: no other dataset may stand in
        "dataless": {"data_included": False},
    }
    for name in [*corrupt, *edits]:
        bad = tmp_path / f"{name}.idx"
        bad.write_bytes(corrupt.get(name, raw))
        if name in edits:
            rewrite_header(bad, lambda header: {**header, **edits[name]})
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: "):
            load_index(bad)
    with pytest.raises(ValueError, match="data_included False is not True"):
        load_index(tmp_path / "dataless.idx")
    for name, size in (("one-short", len(raw) - 1), ("one-long", len(raw) + 1)):
        bad = tmp_path / f"{name}.idx"
        message = f"{bad}: container holds {size} bytes, its header describes {len(raw)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_index(bad)


def as_version(path, version):
    """Relabel a saved container as another format version, in place."""
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", version)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("version", [1, 2, 3, 5])
def test_other_container_versions_are_rejected(tmp_path, version):
    # version 1 stored adaptive l_1 features under another scale, version 2
    # stored no directions for orthogonal levels and version 3 stored l_1
    # and l_inf features at float32, with no grid; only the version-4
    # layout is read
    data = small_dataset(count=30)
    index = build_index(data, DimensionSchedule((64, 16)), "adaptive", 1)
    path = tmp_path / "other.idx"
    save_index(index, path)
    as_version(path, version)
    with pytest.raises(ValueError, match=f"version {version}$"):
        load_index(path)


@pytest.mark.parametrize("field, value, message", [
    ("lo", math.nan, "lo nan is not finite"),
    ("lo", -math.inf, "lo -inf is not finite"),
    ("step", 3.0, "step 3.0 is not a positive power of two"),
    ("step", 0.75, "step 0.75 is not a positive power of two"),
    ("step", 0.0, "step 0.0 is not a positive power of two"),
    ("step", -0.5, "step -0.5 is not a positive power of two"),
    ("step", math.inf, "step inf is not a positive power of two"),
    ("step", math.nan, "step nan is not a positive power of two"),
    ("code", -1, r"codes outside \[0, 32767\]"),
    ("code", -32768, r"codes outside \[0, 32767\]"),
])
def test_a_hostile_grid_is_rejected(tmp_path, field, value, message):
    # an l_1 container's level-1 grid follows the ids, the 30 x 64 vectors
    # and the level's 16 x 4 directions: (lo, step) as two float64 values,
    # then the int16 codes
    data = small_dataset(count=30)
    index = build_index(data, DimensionSchedule((64, 16)), "orthogonal", 1)
    path = tmp_path / "grid.idx"
    save_index(index, path)
    raw = bytearray(path.read_bytes())
    (length,) = struct.unpack_from("<Q", raw, 12)
    grid = 20 + length + 8 * 30 + 8 * 30 * 64 + 8 * 64
    assert struct.unpack_from("<2d", raw, grid) == index.grids[0]
    if field == "code":
        struct.pack_into("<h", raw, grid + 16 + 2 * 37, value)
    else:
        struct.pack_into("<d", raw, grid + (8 if field == "step" else 0), value)
    path.write_bytes(bytes(raw))
    part = "features 1" if field == "code" else "grid 1"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {part}: {message}$"):
        load_index(path)


def rewrite_header(path, edit=lambda header: header):
    """Replace a saved container's JSON header by ``edit(header)``, in place."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 12)
    header = edit(json.loads(raw[20:20 + length]))
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + length:])


@pytest.mark.parametrize("field, value", [("format", "not-lpcascade"), ("mode", "bogus")])
def test_unknown_format_or_mode_is_rejected(tmp_path, field, value):
    data = small_dataset(count=30)
    index = build_index(data, DimensionSchedule((64, 16)), "orthogonal", 2)
    path = tmp_path / "header.idx"
    save_index(index, path)
    rewrite_header(path)
    assert load_index(path).mode == "orthogonal"
    rewrite_header(path, lambda header: {**header, field: value})
    with pytest.raises(ValueError, match=f"unknown .*'{value}'"):
        load_index(path)


@pytest.mark.parametrize("field", ["norm", "schedule", "count", "data_included",
                                   "non-object"])
def test_incomplete_container_header_is_rejected(tmp_path, field):
    data = small_dataset(count=30)
    index = build_index(data, DimensionSchedule((64, 16)), "orthogonal", 2)
    path = tmp_path / "header.idx"
    save_index(index, path)
    if field == "non-object":
        rewrite_header(path, lambda header: sorted(header.items()))
        message = "not a JSON object"
    else:
        rewrite_header(path, lambda header: {k: v for k, v in header.items() if k != field})
        message = f"has no '{field}'$"
    with pytest.raises(ValueError, match=message):
        load_index(path)


def test_load_with_a_dataset_skips_the_embedded_vectors(tmp_path):
    data = small_dataset(count=4000, dim=256, seed=77)
    index = build_index(data, DimensionSchedule((256, 16, 4)), "orthogonal", 1)
    path = tmp_path / "embedded.idx"
    save_index(index, path)
    tracemalloc.start()
    try:
        loaded = load_index(path, mmap_data=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # mapped, the vectors are not read: only the ids and features are
    assert isinstance(loaded.data, np.memmap)
    np.testing.assert_array_equal(loaded.data, data.vectors)
    for built, back in zip(index.features, loaded.features):
        np.testing.assert_array_equal(back, built)
    # the features are kept as the float32 arrays they are read as, 4 bytes
    # per value: with the ids 0.35 MB, a 23rd of the 8.2 MB data section.
    # A float64 copy made while loading would bring them to 12 bytes per
    # value, about 1 MB
    assert peak < data.vectors.nbytes / 16


def recording_kernel(monkeypatch):
    """Route tree's distance kernel through a wrapper; returns the blocks it saw."""
    blocks = []
    kernel = tree.distances_to_point

    def recording(rows, y, norm, scratch):
        blocks.append(rows)
        return kernel(rows, y, norm, scratch)

    monkeypatch.setattr(tree, "distances_to_point", recording)
    return blocks


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_chunked_query_equals_gather_everything_sweep(monkeypatch, mode, p):
    data = small_dataset(count=500, seed=39)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
    # 5 rows of 64, 20 of 16 or 80 of 4 per chunk: every level of a
    # 500-row index spans several chunks
    budget = 8 * 64 * 5
    monkeypatch.setattr(norms, "CHUNK_BYTES", budget)
    blocks = recording_kernel(monkeypatch)
    queries = [data.vectors[0], data.vectors[7] + 0.05, data.vectors[99] - 0.1]
    reports = []
    for y in queries:
        exact = np.sort(unchunked_distances(data.vectors, y, index.norm))
        for epsilon in (exact[5], exact[50], exact[250], 1e9):
            report = range_query(index, y, epsilon)
            assert report == gather_everything_query(index, y, epsilon)
            reports.append(report)
    far = data.vectors[0] + 1e6
    report = range_query(index, far, 1e-6)
    assert report == gather_everything_query(index, far, 1e-6)
    reports.append(report)

    s = len(data)
    # a level that prunes nothing, one that empties the candidate set, and
    # gathers of a strict subset all occur
    assert any(r.survivors[-1] == s for r in reports)
    assert any(r.survivors[-1] == 0 for r in reports)
    assert any(0 < r.survivors[1] < s for r in reports)
    assert all(block.nbytes <= budget for block in blocks)
    assert len(blocks) > 3 * len(reports)

    # while no row is pruned, every block is a slice of the stored matrix
    blocks.clear()
    range_query(index, queries[0], 1e9)
    matrices = (*index.features, index.data)
    assert all(any(np.shares_memory(block, m) for m in matrices) for block in blocks)


def test_chunked_query_on_mmap_index_equals_gather_everything_sweep(tmp_path, monkeypatch):
    data = small_dataset(count=300, seed=40)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", 1)
    path = tmp_path / "mapped.idx"
    save_index(index, path)
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 64 * 7)
    mapped = load_index(path, mmap_data=True)
    assert isinstance(mapped.data, np.memmap)
    # the margins come from the schedule alone, not from a pass over the rows
    assert mapped.prune_margins == index.prune_margins
    for row in (3, 150):
        y = data.vectors[row] + 0.01
        exact = np.sort(unchunked_distances(data.vectors, y, mapped.norm))
        for epsilon in (exact[10], exact[120], 1e9):
            assert range_query(mapped, y, epsilon) == \
                gather_everything_query(mapped, y, epsilon)


def test_gist_shaped_query_equals_gather_everything_sweep():
    # at the default budget a 960-d row set spans several chunks at level 0
    data = generate(SyntheticSpec(count=1000, dim=960, rng_seed=31))
    index = build_index(data, DimensionSchedule(GIST_SCHEDULE), "adaptive", 2)
    y = data.vectors[4] + 0.01
    exact = np.sort(unchunked_distances(data.vectors, y, index.norm))
    for epsilon in (exact[20], exact[600], 1e9):
        assert range_query(index, y, epsilon) == gather_everything_query(index, y, epsilon)


def test_query_distances_equal_oracle_on_column_major_data():
    # a column-major dataset: the cascade's verification and the oracle's scan
    # must report the same float for every match
    rows = small_dataset(count=200, seed=41).vectors
    data = DataSet.from_array(np.asfortranarray(rows))
    assert data.vectors.flags.f_contiguous
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 1)
    for p_row in (0, 17, 120):
        y = rows[p_row] + 0.02
        report = range_query(index, y, 1e9)
        assert list(report.matches) == brute_force_range(data, y, 1e9, 1)


def test_l2_index_derives_squared_row_norms(tmp_path):
    data = small_dataset(count=120, seed=44)
    schedule = DimensionSchedule((64, 16, 4))
    index = build_index(data, schedule, "adaptive", 2)
    path = tmp_path / "l2.idx"
    save_index(index, path)
    assert struct.unpack_from("<I", path.read_bytes(), 8) == (4,)
    for derived in (index, load_index(path), load_index(path, mmap_data=True)):
        matrices = (np.asarray(derived.data), *derived.features)
        assert len(derived.sq_norms) == len(matrices) == schedule.levels + 1
        for sq, m in zip(derived.sq_norms, matrices):
            assert sq.dtype == np.float64
            # summed in float64, as over a float64 copy of the rows
            wide = m.astype(np.float64)
            np.testing.assert_array_equal(sq, np.einsum("ij,ij->i", wide, wide))
    for p in (1, 4, "inf"):
        assert build_index(data, schedule, "orthogonal", p).sq_norms == ()
    with pytest.raises(TypeError):
        tree.SubspaceIndex(schedule=index.schedule, norm=index.norm, mode=index.mode,
                           levels=index.levels, features=index.features, data=index.data,
                           ids=index.ids, sq_norms=index.sq_norms)


def test_feature_matrices_must_be_float32():
    data = small_dataset(count=50, seed=80)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 2)
    assert [f.dtype for f in index.features] == [np.float32, np.float32]
    first = index.features[0]
    # the dtype is checked before the shape
    for bad in (first.astype(np.float64), first.astype(np.float16), first.tolist(),
                first[:, :8].astype(np.float64)):
        with pytest.raises(ValueError, match="float32"):
            dataclasses.replace(index, features=(bad, index.features[1]))


@pytest.mark.parametrize("change, message", [
    # relabelled l_2, an l_1 index prunes true matches: its levels are
    # divided by the l_inf length of their directions, not the l_2 one
    (lambda index: {"norm": norms.L2}, "level 1 maps 64 to 16 under l_1, not 64 to 16 under l_2"),
    (lambda index: {"schedule": DimensionSchedule((64, 32, 4))}, "not 64 to 32 under l_1"),
    (lambda index: {"features": (index.features[0][:, :8].copy(), index.features[1])},
     r"features 1: \(60, 8\), not \(60, 16\)"),
    (lambda index: {"features": (index.features[0][:-1], index.features[1])},
     r"features 1: \(59, 16\), not \(60, 16\)"),
    (lambda index: {"ids": index.ids[:-1]}, r"ids \(59,\): not \(count, 64\)"),
    (lambda index: {"levels": (projection.ProjectionLevel(norms.L2, index.levels[0].directions),
                               index.levels[1])}, "under l_2, not 64 to 16 under l_1"),
    (lambda index: {"data": index.data[:, :32]}, r"data \(60, 32\), ids"),
    (lambda index: {"levels": index.levels[:1], "features": index.features[:1]},
     "1 levels and 1 feature matrices for a 2-level schedule"),
    # saved, such an index would write a container load_index rejects
    (lambda index: {"mode": "bogus"}, "unknown mode 'bogus'"),
    # an l_1 level is coded: int16 codes on a grid, one per level
    (lambda index: {"features": (index.features[0].astype(np.float32), index.features[1])},
     "feature matrices must be int16 arrays under l_1"),
    (lambda index: {"grids": index.grids[:1]},
     r"grid slots \(\([^)]*\),\) for a 2-level schedule under l_1: one per level"),
    (lambda index: {"grids": (None, index.grids[1])},
     r"grid slots \(None, \([^)]*\)\) for a 2-level schedule under l_1"),
    # a float32 level has no grid: l_2 levels and features keeping l_1's grids
    (lambda index: {"norm": norms.L2, "grids": index.grids,
                    "levels": tuple(projection.ProjectionLevel(norms.L2, level.directions)
                                    for level in index.levels),
                    "features": tuple(f.astype(np.float32) for f in index.features)},
     r"grid slots \(\(.*\)\) for a 2-level schedule under l_2: one per level"),
    (lambda index: {"grids": ((0.0, 0.3), index.grids[1])},
     "grid 1: step 0.3 is not a positive power of two"),
    # saved, a zero-row index would write a container load_index rejects,
    # and its first query would divide by a zero scan cost
    (lambda index: {"data": index.data[:0], "ids": index.ids[:0],
                    "features": tuple(f[:0] for f in index.features)},
     "count 0 must be at least 1"),
    # the container stores int64 ids: saved and reloaded, 0.5 would be 0
    (lambda index: {"ids": index.ids + 0.5}, "ids must be integers int64 holds, not float64"),
    (lambda index: {"ids": index.ids.astype(np.uint64)},
     "ids must be integers int64 holds, not uint64"),
], ids=["norm", "schedule", "feature-width", "feature-rows", "ids", "level-norm",
        "data-width", "level-count", "mode", "feature-dtype", "grid-count", "grid-none",
        "grid-on-float32", "grid-step",
        "zero-rows", "float-ids", "uint64-ids"])
def test_an_index_whose_parts_disagree_is_rejected(change, message):
    data = small_dataset(count=60, seed=81)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 1)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(index, **change(index))


def test_prune_margins_are_derived_not_passed():
    data = small_dataset(count=50, seed=71)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 1)
    assert index.prune_margins == tree.level_margins(index.schedule, 1.0, index.norm)
    with pytest.raises(TypeError):
        tree.SubspaceIndex(schedule=index.schedule, norm=index.norm, mode=index.mode,
                           levels=index.levels, features=index.features, data=index.data,
                           ids=index.ids, prune_margins=(0.0, 0.0))


# Values of tree._GEMV_SHARE that force each way the l_2 screen forms its
# dot products: 0 takes one whole-matrix GEMV at every level, and a share
# above 1 gathers the candidates of every pruned level chunk by chunk.  The
# screen's exactness tests run under both.
SCREEN_SHARES = (0.0, 2.0)


def boundary_epsilons(index, y):
    """Kernel distances at the verification level and at every projection
    level (step times the code distance at a coded level), each exactly and
    one ulp above: the epsilons that sit on the edge of the l_2 screen's
    band."""
    projected = kernel_points(index, y)
    matrices = (np.asarray(index.data), *index.features)
    epsilons = []
    for k, (m, q) in enumerate(zip(matrices, projected)):
        if k:
            dist = np.sort(level_distances(index, k, m, q))
        else:
            dist = np.sort(unchunked_distances(m, q, index.norm))
        for rank in ((1, 20, 150) if k == 0 else (20, 150)):
            epsilons += [dist[rank], np.nextafter(dist[rank], np.inf)]
    return [e for e in epsilons if e > 0.0]


def threshold_epsilons(index, y):
    """Epsilons at which a projection level's threshold tau_k = epsilon +
    margin_k + grid term, formed as range_query forms it, crosses a row's
    level-k distance (the kernel's, or step times the code distance at a
    coded level): the last one below it and the next two.  They put rows
    on the edge of the l_2 screen and of the level kernel at every level
    k >= 1, where boundary_epsilons leaves the margin between a row and
    tau_k."""
    projected = kernel_points(index, y)
    norm_y = lp_norm(y, index.norm)

    def tau(k, epsilon):
        margin = tree.level_margins(index.schedule, norm_y + epsilon, index.norm)[k - 1]
        return epsilon + margin + index.grid_terms[k - 1]

    epsilons = []
    for k in range(1, len(projected)):
        dist = np.sort(level_distances(index, k, index.features[k - 1], projected[k]))
        for target in dist[[20, 150]]:
            if not (math.isfinite(target) and math.isfinite(tau(k, target))):
                continue
            # the margin moves by c_k + f_k, under 2^-17 at 64 columns, of
            # any change in epsilon: a fixed point in a few steps, then ulp
            # steps to the crossing
            epsilon = target
            for _ in range(3):
                epsilon = target - (tau(k, epsilon) - epsilon)
            if not epsilon > 0.0:
                continue
            while tau(k, epsilon) >= target:
                epsilon = np.nextafter(epsilon, -np.inf)
            while tau(k, after := np.nextafter(epsilon, np.inf)) < target:
                epsilon = after
            epsilons += [epsilon, after, np.nextafter(after, np.inf)]
    return epsilons


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e8])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_l2_screen_is_exact_at_the_epsilon_boundary(tmp_path, monkeypatch, mode, offset):
    # a large common offset makes |x|^2 + |q|^2 - 2 x.q cancel heavily, so the
    # band widens until, at 1e8, it holds every row
    base = small_dataset(count=300, seed=45).vectors
    data = DataSet.from_array(base + offset)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, 2)
    path = tmp_path / "l2.idx"
    save_index(index, path)
    # 5 rows of 64, 20 of 16 or 80 of 4 per chunk: pruned levels and the
    # verification gather their candidates in several chunks
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 64 * 5)
    reports = []
    for share in SCREEN_SHARES:
        monkeypatch.setattr(tree, "_GEMV_SHARE", share)
        rng = np.random.Generator(np.random.Philox(key=46))
        for variant in (index, load_index(path), load_index(path, mmap_data=True)):
            for row in (0, 211):
                y = data.vectors[row] + rng.standard_normal(64) * 0.05
                for epsilon in boundary_epsilons(variant, y) + threshold_epsilons(variant, y):
                    report = range_query(variant, y, epsilon)
                    assert report == gather_everything_query(variant, y, epsilon)
                    reports.append(report)
    if offset < 1e8:
        assert any(20 < r.survivors[2] < len(data) for r in reports)
        assert any(5 < r.survivors[1] < len(data) for r in reports)
    else:
        # float32 features resolve 2^-24 of a row norm near 8e8, about 50,
        # far above the rows' spread: no level can prune, only verification
        assert all(r.survivors[1] == len(data) for r in reports)


@pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e3, 1.0), (1e6, 1.0),
                                           (0.0, 1e-160), (0.0, 1e-162)])
def test_l2_screen_is_exact_on_an_equidistant_shell(monkeypatch, offset, scale):
    # every row is q plus a signed permutation of one vector v, so all share
    # the exact distance |v| and differ only by rounding: each epsilon sits
    # on the edge for hundreds of rows at once.  At 1e-160 and below the
    # squares underflow, which only the band's absolute term covers.
    rng = np.random.Generator(np.random.Philox(key=49))
    q = offset + scale * rng.standard_normal(64)
    v = scale * rng.standard_normal(64)
    rows = np.array([q + rng.choice([-1.0, 1.0], 64) * v[rng.permutation(64)]
                     for _ in range(500)])
    index = build_index(DataSet.from_array(rows), DimensionSchedule((64, 16, 4)),
                        "orthogonal", 2)
    dist = np.unique(unchunked_distances(rows, q, index.norm))
    assert dist[-1] > 0.0
    for share in SCREEN_SHARES:
        monkeypatch.setattr(tree, "_GEMV_SHARE", share)
        for epsilon in (*dist, *np.nextafter(dist, np.inf)):
            if epsilon > 0.0:
                assert range_query(index, q, epsilon) == \
                    gather_everything_query(index, q, epsilon)


@pytest.mark.parametrize("scale", [1e19, 1e20, 1e-30, 1e-40, 1.0])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_float32_l2_screen_is_exact_where_float32_products_fail(tmp_path, monkeypatch,
                                                                mode, scale):
    # the screen's float32 levels take x.q in float32 BLAS.  Rows spread from
    # a hundredth of 1e19 or 1e20 to ten times it make some dots overflow
    # float32 (a product or partial sum above 3.4e38: the row goes to the
    # band) and leave others finite, decided by the band's float32 relative
    # term.  Around 1e-30 and 1e-40 every product underflows float32, so the
    # dots are 0 and only the band's float32 absolute term keeps g from
    # deciding.  Around 1 a search over levels of 8, 4, 2 and 1 columns puts
    # tau on every row's own level distance: there the float32 kernel's
    # rounding is a large share of the band's half-width, and a relative
    # term without it (gamma'_n in place of gamma'_{n+4}) misjudges rows of
    # one and two columns.
    base = small_dataset(count=300, seed=45).vectors
    rng = np.random.Generator(np.random.Philox(key=79))
    factors = scale * 10.0 ** rng.uniform(-2.0, 1.0, (300, 1))
    data = DataSet.from_array((base - base.mean(axis=0)) * factors)
    dims = (64, 8, 4, 2, 1) if scale == 1.0 else (64, 16, 4)
    index = build_index(data, DimensionSchedule(dims), mode, 2)
    path = tmp_path / "f32.idx"
    save_index(index, path)
    loaded = load_index(path)
    for share in SCREEN_SHARES:
        monkeypatch.setattr(tree, "_GEMV_SHARE", share)
        for row in (int(np.argmin(factors)), 211):
            y = data.vectors[row] + rng.standard_normal(64) * 0.05 * factors[row]
            for epsilon in boundary_epsilons(index, y) + threshold_epsilons(index, y):
                report = range_query(index, y, epsilon)
                assert report == gather_everything_query(index, y, epsilon)
                assert list(report.matches) == brute_force_range(data, y, epsilon, 2)
                assert range_query(loaded, y, epsilon) == report
            if scale == 1.0:
                points = kernel_points(index, y)
                for k in range(1, len(dims)):
                    dist = level_distances(index, k, index.features[k - 1], points[k])
                    for i, c in enumerate(dist):
                        for tau in (c, np.nextafter(c, np.inf)):
                            keep, band = tree._screen(index, k, np.array([i]), points[k], tau)
                            assert band[0] or keep[0] == (c < tau)


def test_l2_screen_falls_back_to_the_kernel_on_overflowed_norms(monkeypatch):
    # |x|^2 overflows to inf for rows near 1e155 while their differences
    # from a nearby query stay finite: only the kernel can decide them
    rng = np.random.Generator(np.random.Philox(key=47))
    vectors = small_dataset(count=200, seed=48).vectors.copy()
    vectors[:60] = 1e155 * (1.0 + 1e-3 * rng.standard_normal((60, 64)))
    data = DataSet.from_array(vectors)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 2)
    assert np.isinf(index.sq_norms[0][:60]).all()
    assert np.isfinite(index.sq_norms[0][60:]).all()
    queries = (vectors[3] * (1.0 + 1e-5 * rng.standard_normal(64)), vectors[100] + 0.05)
    for share in SCREEN_SHARES:
        monkeypatch.setattr(tree, "_GEMV_SHARE", share)
        for y in queries:
            dist = np.sort(unchunked_distances(vectors, y, index.norm))
            for rank in (1, 30, 59):
                for epsilon in (dist[rank], np.nextafter(dist[rank], np.inf)):
                    report = range_query(index, y, epsilon)
                    assert report == gather_everything_query(index, y, epsilon)
                    assert list(report.matches) == brute_force_range(data, y, epsilon, 2)
        # a huge query row matches itself only through the kernel
        assert range_query(index, vectors[7], 1.0).match_ids == (7,)


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_prescreen_sends_the_kernel_the_rows_of_the_band_alone(monkeypatch, mode):
    # the query twin of the calibration test of that name: the screen's
    # scalar pre-screen decides only rows the band decides alike, so every
    # level's kernel sweeps exactly the rows that the band run on every
    # candidate sends it.  Row 7 is 1e7 times longer than the rest, so the
    # pre-screen's half-width is taken at its power; epsilons within a few
    # parts in 1e13 of its distance put its expansion between the
    # half-widths at its own power and at the other rows'
    vectors = small_dataset(count=300, seed=45).vectors.copy()
    vectors[7] *= 1e7
    data = DataSet.from_array(vectors)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, 2)
    assert all(powers[7] >= 1e12 * np.delete(powers, 7).max() for powers in index.sq_norms)
    sweep, band = tree.sweep, norms.band

    def kernel_rows(y, epsilon):
        sent = []

        def spy_sweep(matrix, rows, point, norm, kernel):
            if kernel is tree.distances_to_point:
                sent.append(rows)
            return sweep(matrix, rows, point, norm, kernel)

        with monkeypatch.context() as patch:
            patch.setattr(tree, "sweep", spy_sweep)
            return range_query(index, y, epsilon), sent

    def plain_band(g, powers, widest, qq, tau, n, single=False):
        return band(g, powers, qq, tau, n, single=single)

    rng = np.random.Generator(np.random.Philox(key=83))
    for share in SCREEN_SHARES:
        monkeypatch.setattr(tree, "_GEMV_SHARE", share)
        for row in (0, 211):
            y = vectors[row] + rng.standard_normal(64) * 0.05
            far = unchunked_distances(vectors[7:8], y, index.norm)[0]
            for epsilon in (boundary_epsilons(index, y) + threshold_epsilons(index, y)
                            + [far * (1.0 + j * 2.0 ** -47) for j in range(-12, 13)]):
                got, screened = kernel_rows(y, epsilon)
                with monkeypatch.context() as patch:
                    patch.setattr(tree, "band_screen", plain_band)
                    want, alone = kernel_rows(y, epsilon)
                assert got == want == gather_everything_query(index, y, epsilon)
                assert len(screened) == len(alone) == index.schedule.levels + 1
                for rows, wanted in zip(screened, alone):
                    np.testing.assert_array_equal(rows, wanted)


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_infinite_margins_prune_no_row_at_any_level(mode, p):
    # rows near 1e40: their float32 features overflow to inf, so a query with
    # ||y||_p + epsilon >= 2^127 has infinite margins and no level may prune,
    # not even a row at level distance inf; only verification decides.  The
    # grid codes of l_1 and l_inf levels cover the float64 features, and the
    # same rule holds for them
    rows = small_dataset(count=200, seed=76).vectors * 1e40
    data = DataSet.from_array(rows)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
    assert all(np.isinf(feats).any() for feats in index.features
               if feats.dtype == np.float32)
    rng = np.random.Generator(np.random.Philox(key=78))
    near = rows[5] * (1.0 + 1e-3 * rng.standard_normal(64))
    dist = np.sort(unchunked_distances(rows, near, index.norm))
    small = rows[9] / 1e40
    cases = [(near, dist[1]), (near, dist[40]), (near, math.inf),
             (small, 2.0 ** 127), (small, math.inf)]
    for y, epsilon in cases:
        scale = lp_norm(y, p) + epsilon
        assert tree.level_margins(index.schedule, scale, index.norm)[0] == math.inf
        report = range_query(index, y, epsilon)
        # the kernel, and the reference with it, puts a row with an infinite
        # feature at distance inf under every norm, l_4 included (it was nan)
        assert report == gather_everything_query(index, y, epsilon)
        assert list(report.matches) == brute_force_range(data, y, epsilon, p)
        assert report.survivors[1:] == (len(data),) * index.schedule.levels
    assert len(range_query(index, near, math.inf).matches) == len(data)


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_l2_kernel_sees_only_matches_and_the_band(monkeypatch, mode):
    # on well-conditioned data the screen decides almost every row, so the
    # exact kernel runs on little more than the matches it must report
    data = small_dataset(count=2000, seed=50)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, 2)
    blocks = recording_kernel(monkeypatch)
    for share in SCREEN_SHARES:
        monkeypatch.setattr(tree, "_GEMV_SHARE", share)
        for row in (0, 50, 999):
            y = data.vectors[row] + 0.05
            exact = np.sort(unchunked_distances(data.vectors, y, index.norm))
            for epsilon in (exact[20], (exact[20] + exact[21]) / 2, exact[40]):
                blocks.clear()
                report = range_query(index, y, epsilon)
                assert report == gather_everything_query(index, y, epsilon)
                seen = sum(len(block) for block in blocks)
                assert len(report.matches) <= seen <= len(report.matches) + 3
                assert 10 * seen < report.cost_s / index.schedule.dims[0]


def test_dense_l2_levels_are_not_gathered(monkeypatch):
    # a level whose candidates reach _GEMV_SHARE of its rows is screened by
    # one whole-matrix GEMV; only a level below that share gathers its rows
    data = small_dataset(count=2000, seed=52)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "orthogonal", 2)
    matrices = (index.data, *index.features)
    gathered = []
    sweep = tree.sweep

    def recording(matrix, rows, point, norm, kernel):
        if kernel is tree._dot:
            gathered.append(next(k for k, m in enumerate(matrices) if m is matrix))
        return sweep(matrix, rows, point, norm, kernel)

    monkeypatch.setattr(tree, "sweep", recording)
    s = len(data)
    t = index.schedule.levels
    seen = set()
    for row in (0, 50, 999):
        y = data.vectors[row] + 0.05
        exact = np.sort(unchunked_distances(data.vectors, y, index.norm))
        for epsilon in (exact[1], exact[20], exact[400]):
            gathered.clear()
            report = range_query(index, y, epsilon)
            assert report == gather_everything_query(index, y, epsilon)
            for k in range(t + 1):
                candidates = s if k == t else report.survivors[k + 1]
                dense = candidates >= tree._GEMV_SHARE * s
                assert gathered.count(k) == (0 if dense else 1)
                seen.add((dense, candidates < s))
    # pruned levels on both sides of the share occur
    assert (True, True) in seen and (False, True) in seen

    # the share itself is dense, one row fewer is gathered
    gathered.clear()
    at_share = math.ceil(tree._GEMV_SHARE * s)
    for size in (at_share, at_share - 1):
        tree._screen(index, 0, np.arange(size), data.vectors[0], 1.0)
    assert gathered == [0]


def test_level_margins_follow_the_schedule_and_the_query_scale():
    schedule = DimensionSchedule((64, 16, 4))
    eps = np.finfo(np.float64).eps
    # c_1 = 2^-23 + (2*64 + 2*16 + (4*4 + 20) + 32) eps, and level 2 adds a map
    c = [2.0 ** -23 + 228 * eps, 2.0 ** -23 + (128 + 8 + 36 + 36 + 32) * eps]
    tiny = 2.0 ** -126
    # every float32 level runs the kernel against the query rounded to
    # float32 and adds gamma'_j = j v / (1 - j v), v = 2^-24, with j =
    # (n + 8) / 2 under l_2, (n + 20) / 4 under l_4, and 2 under the
    # max-divided form (l_3); l_1 and l_inf levels are coded and their
    # exact kernel adds nothing (j = 0)
    v = 2.0 ** -24
    l3 = norms.as_norm_order(3)
    for norm, j in ((norms.L1, (0, 0)), (norms.L2, (12, 6)), (norms.L4, (9, 6)),
                    (norms.LINF, (0, 0)), (l3, (2, 2))):
        f = [j[0] * v / (1 - j[0] * v), j[1] * v / (1 - j[1] * v)]
        for scale in (1.0, 1e6, 1e-310):
            if j == (0, 0):
                # nor do coded levels round their features to float32 (the
                # 2^-23); their absolute term bounds float64 underflow in
                # the level maps: (4 + sum_j (m_j n_{j-1} + n_j)) 2^-1074
                a = [(4 + 4 * 64 + 16) * 2.0 ** -1074,
                     (4 + 4 * 64 + 16 + 4 * 16 + 4) * 2.0 ** -1074]
                want = ((c[0] - 2.0 ** -23) * scale + a[0], (c[1] - 2.0 ** -23) * scale + a[1])
            else:
                want = ((c[0] + f[0]) * (scale + 16 * tiny), (c[1] + f[1]) * (scale + 4 * tiny))
            assert tree.level_margins(schedule, scale, norm) == want
    # a match's features could overflow float32: no level prunes
    for norm in (norms.L1, norms.L2, norms.L4, norms.LINF, l3):
        for scale in (2.0 ** 127, math.inf, math.nan):
            assert tree.level_margins(schedule, scale, norm) == (math.inf, math.inf)
        assert tree.level_margins(DimensionSchedule((64,)), 1.0, norm) == ()


def block_offset_dataset(clusters=8, per=40, seed=72):
    """Rows equal to a cluster's base plus an offset constant on 16-wide
    blocks, so an orthogonal 64/16/4 cascade's level distances from a base
    equal the exact distance.  Half the bases are block-constant too, which
    pulls adaptive directions toward the block means."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    bases = rng.standard_normal((clusters, 64)) * 10
    bases[::2] = np.repeat(bases[::2, :4], 16, axis=1)
    offsets = np.repeat(rng.standard_normal((clusters, per, 4)), 16, axis=2)
    rows = (bases[:, None, :] + offsets).reshape(-1, 64)
    return DataSet.from_array(rows), bases


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_no_match_is_lost_at_the_epsilon_boundary(tmp_path, mode, p):
    # epsilon at, and one ulp above, the kernel distance of a row whose
    # level distances equal its exact one: without a rounding margin, a
    # level distance computed a few ulps high prunes the true match
    data, bases = block_offset_dataset()
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
    path = tmp_path / "boundary.idx"
    save_index(index, path)
    variants = (index, load_index(path), load_index(path, mmap_data=True))
    per = len(data) // len(bases)
    mismatches = [0, 0, 0]
    for c, y in enumerate(bases):
        dist = unchunked_distances(data.vectors, y, index.norm)
        for row in range(c * per, (c + 1) * per, 4):
            for epsilon in (dist[row], np.nextafter(dist[row], np.inf)):
                truth = brute_force_range(data, y, epsilon, p)
                for v, variant in enumerate(variants):
                    if list(range_query(variant, y, epsilon).matches) != truth:
                        mismatches[v] += 1
    assert mismatches == [0, 0, 0]


@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_dense_and_gathered_levels_stay_exact_at_the_epsilon_boundary(monkeypatch, mode, p):
    # epsilon one ulp below, at and one ulp above a row's kernel distance,
    # with levels whose candidates reach norms._DENSE_SHARE of the rows
    # (swept as slices of every row) and levels below it (gathered)
    data = small_dataset(count=600, seed=53)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 64 * 5)  # several chunks a level
    sweep = tree.sweep
    paths = set()

    def recording(matrix, rows, point, norm, kernel):
        if 0 < rows.size < matrix.shape[0]:
            paths.add(bool(rows.size >= norms._DENSE_SHARE * matrix.shape[0]))
        return sweep(matrix, rows, point, norm, kernel)

    monkeypatch.setattr(tree, "sweep", recording)
    rng = np.random.Generator(np.random.Philox(key=54))
    for row in (0, 311):
        y = data.vectors[row] + rng.standard_normal(64) * 0.05
        dist = np.sort(unchunked_distances(data.vectors, y, index.norm))
        for rank in (1, 20, 150, 400):
            for epsilon in (np.nextafter(dist[rank], 0.0), dist[rank],
                            np.nextafter(dist[rank], np.inf)):
                report = range_query(index, y, epsilon)
                assert list(report.matches) == brute_force_range(data, y, epsilon, p)
    # pruned candidate sets on both sides of the share occur
    assert paths == {True, False}


@pytest.mark.parametrize("scale", [1e19, 1e-30])
@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_float32_levels_are_exact_at_every_threshold(monkeypatch, mode, p, scale):
    # level 1 (64 columns, reduced pairwise) and level 2 (8 columns, in
    # order) run the kernel against the query rounded to float32: in float32
    # under l_2 and l_4, and in float64 in the max-divided form (l_3); l_1
    # and l_inf levels run it on grid codes against the query's codes, in
    # integers.  Rows spread from a hundredth of the scale to ten times it.
    # Near 1e19 float32 differences exceed 2^32 and their fourth powers
    # overflow, and some exceed 2^64 and their squares overflow; near 1e-30
    # they fall below 2^-37 and every square and fourth power underflows:
    # such l_2 and l_4 rows take the float64 kernel, recorded below.  Near
    # 1e19 the l_2 screen decides the rows whose squares overflow, so the
    # kernel sees none of them
    base = generate(SyntheticSpec(count=300, dim=256, block_size=4, correlation=0.8,
                                  rng_seed=82)).vectors
    rng = np.random.Generator(np.random.Philox(key=83))
    factors = scale * 10.0 ** rng.uniform(-2.0, 1.0, (300, 1))
    data = DataSet.from_array((base - base.mean(axis=0)) * factors)
    index = build_index(data, DimensionSchedule((256, 64, 8)), mode, p)
    fallback = []
    kernel = norms.distances_to_point

    def recording(rows, y, norm):
        if rows.dtype == np.float32 and y.dtype == np.float64:
            fallback.append(len(rows))
        return kernel(rows, y, norm)

    # the float32 kernel hands its fallback rows to the module's own name
    monkeypatch.setattr(norms, "distances_to_point", recording)
    reports = []
    for row in (int(np.argmin(factors)), 211):
        y = data.vectors[row] + rng.standard_normal(256) * 0.05 * factors[row]
        for epsilon in boundary_epsilons(index, y) + threshold_epsilons(index, y):
            report = range_query(index, y, epsilon)
            assert list(report.matches) == brute_force_range(data, y, epsilon, p)
            assert report == gather_everything_query(index, y, epsilon)
            reports.append(report)
    assert any(0 < r.survivors[2] < len(data) for r in reports)
    assert any(0 < r.survivors[1] < r.survivors[2] for r in reports)
    assert (sum(fallback) > 0) == (p == 4 or p == 2 and scale < 1.0)


def coded_case(case):
    """(rows, queries) for test_coded_levels_are_exact_at_every_threshold."""
    rng = np.random.Generator(np.random.Philox(key=86))
    base = small_dataset(count=300, seed=87).vectors
    near = [base[row] + 0.05 * rng.standard_normal(64) for row in (0, 211)]
    if case == "spread":
        return base, near
    if case == "tight":
        # rows whose orthogonal level distances from their cluster's base
        # equal their exact distance: the codes' rounding alone can lift a
        # match's level distance above epsilon, which the grid term covers
        data, bases = block_offset_dataset()
        return data.vectors, list(bases[:3])
    if case == "outside":
        # projected, these queries lie above the grid in some columns and
        # below it in others, or above or below it in every column
        shift = 6.0 * (base.max() - base.min())
        sides = np.repeat([1.0, -1.0], 32)
        return base, [base[5] + shift * sides, base[9] + shift, base[13] - shift]
    if case == "constant":
        # 8 plus pairs of integers (a, -a): every orthogonal feature is its
        # block's sum, 32 at level 1 and 128 at level 2, a grid of zero
        # range.  Each adaptive column is constant within rounding too, but
        # its direction's sign varies from column to column
        pair = rng.integers(-3, 4, (300, 32, 1)).astype(float)
        rows = 8.0 + np.concatenate([pair, -pair], axis=2).reshape(300, 64)
        return rows, [rows[0] + 0.25, rows[7] - 0.5]
    if case == "subnormal":
        # features near 1e-310, whose range needs a subnormal step
        return base * 1e-310, [y * 1e-310 for y in near]
    # "huge": a few rows near 1e307 stretch every level's range toward the
    # float64 limit, so its step is 2^1006 to 2^1010; the queries sit among
    # the other rows
    rows = base.copy()
    rows[:6] = 1e307 * np.sign(rng.standard_normal((6, 64)))
    return rows, near


@pytest.mark.parametrize("case", ["spread", "tight", "outside", "constant", "subnormal",
                                  "huge"])
@pytest.mark.parametrize("p", [1, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_coded_levels_are_exact_at_every_threshold(monkeypatch, mode, p, case):
    # l_1 and l_inf levels store grid codes and compare step times the
    # exact code distance with tau_k plus the grid term.  boundary_epsilons
    # puts epsilon on a row's code distance and threshold_epsilons puts tau_k
    # on it, at every level, for queries inside the grid (also beside rows
    # whose level distances are their exact ones), outside it on both sides
    # (clipped), on a level of zero range, and on grids whose step is
    # subnormal or near the top of the float64 range
    rows, queries = coded_case(case)
    data = DataSet.from_array(rows)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
    assert [f.dtype for f in index.features] == [np.int16, np.int16]
    steps = [step for _, step in index.grids]
    if case == "constant" and mode == "orthogonal":
        assert steps == [2.0 ** -1074] * 2
    elif case == "subnormal":
        assert all(0.0 < step < 2.0 ** -1022 for step in steps)
    elif case == "huge":
        assert steps[1] >= 2.0 ** 1000
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 64 * 5)  # several chunks a level
    reports = []
    for y in queries:
        for epsilon in boundary_epsilons(index, y) + threshold_epsilons(index, y):
            report = range_query(index, y, epsilon)
            assert list(report.matches) == brute_force_range(data, y, epsilon, p)
            assert report == gather_everything_query(index, y, epsilon)
            reports.append(report)
    assert reports
    if case in ("spread", "tight", "outside", "huge"):
        assert any(r.survivors[1] < len(data) for r in reports)
    if case == "subnormal":
        # the coarsest level prunes the spread rows at 1e-310 too: a coded
        # margin's absolute term bounds float64 underflow (a few hundred
        # 2^-1074), where a float32 one would keep every row below 1e-49
        assert any(r.survivors[2] < len(data) for r in reports)


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_a_wide_l1_level_sums_its_codes_beyond_int32(mode):
    # a level of 2^17 columns whose codes differ by up to 2^15 - 1 in each:
    # a far row's code distance exceeds 2^31 - 1, which an int16 or int32
    # sum would wrap (a negative sum keeps the row), so the kernel sums in
    # int64 and the far rows are pruned at level 1
    rng = np.random.Generator(np.random.Philox(key=88))
    signs = np.sign(rng.standard_normal((16, 1)))
    rows = signs * 100.0 + rng.standard_normal((16, 2 ** 18))
    data = DataSet.from_array(rows)
    # one level, so that the far rows reach it
    index = build_index(data, DimensionSchedule((2 ** 18, 2 ** 17)), mode, 1)
    y = rows[0] + 0.1
    level = kernel_points(index, y)[1]
    far = unchunked_distances(index.features[0], level, index.norm)
    assert far.max() > 2 ** 31
    exact = np.sort(unchunked_distances(rows, y, index.norm))
    for epsilon in (exact[3], np.nextafter(exact[3], np.inf)):
        report = range_query(index, y, epsilon)
        assert list(report.matches) == brute_force_range(data, y, epsilon, 1)
        assert report == gather_everything_query(index, y, epsilon)
        # every row of the other sign is pruned at the level
        assert report.survivors[1] <= np.count_nonzero(signs == signs[0])


@pytest.mark.parametrize("p", [1, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_coded_levels_prune_rows_offset_by_1e8(mode, p):
    # the rows of test_l2_screen_is_exact_at_the_epsilon_boundary, offset by
    # 1e8: float32 features would resolve about 2^-24 of 1e8, far above the
    # rows' spread, so a float32 level could prune nothing.  A grid fitted to
    # the level's own range resolves the spread, and margins without a
    # float32 term stay far below it, so the coarsest level prunes
    data = DataSet.from_array(small_dataset(count=300, seed=45).vectors + 1e8)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
    rng = np.random.Generator(np.random.Philox(key=46))
    reports = []
    for row in (0, 211):
        y = data.vectors[row] + rng.standard_normal(64) * 0.05
        for epsilon in boundary_epsilons(index, y) + threshold_epsilons(index, y):
            report = range_query(index, y, epsilon)
            assert list(report.matches) == brute_force_range(data, y, epsilon, p)
            assert report == gather_everything_query(index, y, epsilon)
            reports.append(report)
    assert any(r.survivors[2] < len(data) for r in reports)


@pytest.mark.parametrize("dims, stride", [((64, 16, 4), 1), ((256, 64, 8), 8)])
def test_a_match_whose_float32_level_sum_rounds_up_at_every_step_is_kept(dims, stride):
    # under orthogonal l_2 a level-1 feature is twice the value of a
    # constant block of 4, so a row of such blocks has exactly the features
    # it is given.  Row 0's features are 1, then squares of 2^-12 + 2^-23
    # just above 2^-24 where the float32 sum adds to the running total that
    # holds the 1: every column of the in-order sum of a narrow level, every
    # eighth along the first partial sum of numpy's pairwise one.  Each
    # addition rounds up by almost 2^-24, so the level distance exceeds the
    # exact one by nearly half (additions) 2^-24 of it, as the root rounds
    # once more: the float32 term (12 and 36 2^-24) covers that, and c_1
    # alone (about 2^-23) does not.  (l_1 and l_inf levels are coded, and
    # their kernel sums integers exactly.)
    n0, n1 = dims[:2]
    additions = (n1 - 1) // stride
    term = 2.0 ** -12 + 2.0 ** -23
    rng = np.random.Generator(np.random.Philox(key=85))
    rows = 10.0 * rng.standard_normal((60, n0))
    features = np.zeros(n1)
    features[0] = 1.0
    features[stride::stride] = term
    rows[0] = np.repeat(features / 2, n0 // n1)
    data = DataSet.from_array(rows)
    index = build_index(data, DimensionSchedule(dims), "orthogonal", 2)
    np.testing.assert_array_equal(index.features[0][0], features)
    y = np.zeros(n0)
    exact = unchunked_distances(data.vectors[:1], y, index.norm)[0]
    level = unchunked_distances(index.features[0][:1], np.zeros(n1, np.float32),
                                index.norm)[0]
    assert level - exact > 0.99 * (additions / 2 - 1) * 2.0 ** -24 * exact
    for epsilon in (np.nextafter(exact, np.inf), exact * (1.0 + 2.0 ** -40)):
        report = range_query(index, y, epsilon)
        assert report.match_ids == (0,)
        assert list(report.matches) == brute_force_range(data, y, epsilon, 2)


@pytest.mark.parametrize("mode, scale", [
    (mode, scale) for mode in ("orthogonal", "adaptive")
    for scale in (1e-150, 1.0, 1e150, 1e200)])
def test_l4_boundary_queries_stay_exact_at_extreme_scales(mode, scale):
    # under l_4 the fourth powers underflow at 1e-150 and overflow from
    # 1e150, under l_2 the squares underflow at 1e-150 and overflow at 1e200,
    # so those rows take the kernel's max-divided fallback, at the levels and
    # at verification; epsilon sits at, and one ulp above, a distance
    data, bases = block_offset_dataset()
    data = DataSet.from_array(data.vectors * scale)
    bases = bases * scale
    per = len(data) // len(bases)
    for p in (2, 4):
        index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
        checked = 0
        for c, y in enumerate(bases[:4]):
            dist = unchunked_distances(data.vectors, y, index.norm)
            assert np.all(np.isfinite(dist)) and np.all(dist > 0.0)
            for row in range(c * per, (c + 1) * per, 8):
                for epsilon in (dist[row], np.nextafter(dist[row], np.inf)):
                    report = range_query(index, y, epsilon)
                    assert list(report.matches) == brute_force_range(data, y, epsilon, p)
                    assert report == gather_everything_query(index, y, epsilon)
                    checked += len(report.matches)
        assert checked > 0


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_one_narrow_l4_candidate_is_verified_as_the_oracle_scans_it(mode):
    # epsilon one ulp above the nearest row's distance leaves one candidate,
    # which verification hands the kernel as a one-row chunk, while the
    # oracle's chunks hold every row: below 8 columns both must sum the
    # row's fourth powers in one order, or that match is lost
    rng = np.random.Generator(np.random.Philox(key=79))
    data = DataSet.from_array(rng.standard_normal((300, 4)))
    index = build_index(data, DimensionSchedule((4, 2, 1)), mode, 4)
    for row in range(300):
        y = data.vectors[row] + 0.3 * rng.standard_normal(4)
        epsilon = np.nextafter(unchunked_distances(data.vectors, y, index.norm).min(), np.inf)
        truth = brute_force_range(data, y, epsilon, 4)
        assert len(truth) == 1
        assert list(range_query(index, y, epsilon).matches) == truth


@pytest.mark.parametrize("p", [2, 4])
def test_rows_wider_than_numpys_buffer_stay_exact_at_their_own_distances(p):
    # verification runs the kernel on the few gathered candidates the levels
    # (l_4) or the screen (l_2) leave, and the oracle on slices of every row,
    # 10 rows a chunk at 12,288 columns: past numpy's 8,192-element buffer
    # einsum gave a row in a one-row or three-row buffer another float, and
    # the cascade kept rows the oracle drops.  Block-constant offsets of
    # spread sizes let the coarse levels prune.
    rng = np.random.Generator(np.random.Philox(key=79))
    y = rng.uniform(size=12288)
    offsets = rng.choice([-1.0, 1.0], (101, 12)) * np.exp(rng.uniform(-1.0, 1.0, (101, 1)))
    data = DataSet.from_array(y + np.repeat(offsets, 1024, axis=1)
                              + rng.uniform(-0.5, 0.5, (101, 12288)))
    index = build_index(data, DimensionSchedule((12288, 768, 48, 12)), "orthogonal", p)
    dist = np.array([d for _, d in brute_force_range(data, y, 1e9, p)])
    for row in np.argsort(dist)[:16]:
        for epsilon in (dist[row], np.nextafter(dist[row], np.inf)):
            report = range_query(index, y, epsilon)
            assert report.matches == brute_force_range(data, y, epsilon, p), (row, epsilon)
            assert report.survivors[1] < 40  # verification gathers its candidates


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_l2_rows_whose_squares_overflow_are_found(mode):
    # a row at l_2 distance 1e200 from the query: its sum of squares
    # overflows, and the kernel's max-divided fallback keeps it finite, so
    # both the oracle and the cascade report it; so is a row near 1e153
    # whose difference from the query overflows.  The raw second moments of
    # the rows at 1e200 overflow too, which adaptive mode fits around.
    cases = [(np.array([2e153, 0.0, -1e153]), -1.5e154, 1.55e154, [1, 2]),
             (np.array([1e200, 0.0, 3e200]), 0.0, 2e200, [0, 1])]
    for first, offset, epsilon, want in cases:
        rows = np.zeros((first.size, 4))
        rows[:, 0] = first
        data = DataSet.from_array(rows)
        index = build_index(data, DimensionSchedule((4, 2, 1)), mode, 2)
        y = np.array([offset, 0.0, 0.0, 0.0])
        truth = brute_force_range(data, y, epsilon, 2)
        assert [item for item, _ in truth] == want
        assert all(math.isfinite(dist) for _, dist in truth)
        assert list(range_query(index, y, epsilon).matches) == truth


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_built_index_is_its_own_reload(tmp_path, mode, p):
    data = small_dataset(count=300, seed=73)
    index = build_index(data, DimensionSchedule((64, 16, 4)), mode, p)
    path = tmp_path / "same.idx"
    save_index(index, path)
    rng = np.random.Generator(np.random.Philox(key=74))
    dtype = np.int16 if p in (1, "inf") else np.float32
    for loaded in (load_index(path), load_index(path, mmap_data=True)):
        for built, back in zip(index.features, loaded.features):
            assert built.dtype == back.dtype == dtype
            np.testing.assert_array_equal(back, built)
        assert loaded.prune_margins == index.prune_margins
        assert loaded.grids == index.grids
        for row in (0, 150, 299):
            y = data.vectors[row] + rng.standard_normal(64) * 0.05
            exact = np.sort(unchunked_distances(data.vectors, y, index.norm))
            for epsilon in (exact[1], exact[30], np.nextafter(exact[30], np.inf), 1e9):
                assert range_query(loaded, y, epsilon) == range_query(index, y, epsilon)
    # saving the reloaded index writes the same bytes again
    again = tmp_path / "again.idx"
    save_index(load_index(path), again)
    assert again.read_bytes() == path.read_bytes()


def split_build(monkeypatch, cpus, data, dims, mode, p):
    """``build_index`` with ``cpus`` usable CPUs, and the sizes of the
    thread pools it made."""
    pools = []
    executor = norms.ThreadPoolExecutor

    def recording(max_workers):
        pools.append(max_workers)
        return executor(max_workers)

    monkeypatch.setattr(norms, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(norms, "ThreadPoolExecutor", recording)
    # threads switching every microsecond: a lost or misplaced chunk would
    # change some feature
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return build_index(data, DimensionSchedule(dims), mode, p), pools
    finally:
        sys.setswitchinterval(interval)
        monkeypatch.undo()


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_the_build_is_the_same_for_any_cpu_count(monkeypatch, mode, p):
    # 5,000 rows of 128 columns span five 1 MiB row chunks, which the build
    # deals to 1, 2, 3 or 8 threads (more than there are chunks); block
    # sizes 2 and 4 take both moment kernels, each level's moments summed
    # chunk by chunk in chunk order
    data = small_dataset(count=5000, dim=128, seed=80)
    dims = (128, 64, 16, 8)
    chunks = len(list(norms.row_chunks(5000, 128)))
    assert chunks == 5
    want, pools = split_build(monkeypatch, 1, data, dims, mode, p)
    assert pools == []  # the calling thread alone
    for cpus in (2, 3, 8):
        got, pools = split_build(monkeypatch, cpus, data, dims, mode, p)
        assert pools and max(pools) == min(cpus, chunks) - 1
        for built, other in zip(want.levels, got.levels):
            np.testing.assert_array_equal(other.directions, built.directions)
        for built, other in zip(want.features, got.features):
            assert other.dtype == built.dtype
            assert other.flags.f_contiguous == built.flags.f_contiguous
            np.testing.assert_array_equal(other, built)
        assert got.grids == want.grids
        assert len(got.sq_norms) == len(want.sq_norms) == (len(dims) if p == 2 else 0)
        for built, other in zip(want.sq_norms, got.sq_norms):
            np.testing.assert_array_equal(other, built)


@pytest.mark.parametrize("dim, m", [(64, 4), (960, 2), (960, 16), (12288, 16)])
def test_a_projected_row_is_that_row_of_the_projected_matrix(monkeypatch, dim, m):
    # desk, gist-deep and rgb-reload widths: project_rows works one row chunk
    # at a time on two threads, and every row's features are the floats of
    # one whole-matrix einsum and of project_level on that row alone, at
    # and about each chunk boundary
    monkeypatch.setattr(norms, "_usable_cpus", lambda: 2)
    step = next(norms.row_chunks(10 ** 9, dim)).stop  # rows in a chunk
    count = 3 * step + 5
    rng = np.random.Generator(np.random.Philox(key=81))
    rows = rng.standard_normal((count, dim)) * 10.0 + 3.0
    partition = BlockPartition.for_dims(dim, dim // m)
    level = fit_adaptive_level(rows, partition, 2)
    feats = projection.project_rows(rows, level)
    whole = np.einsum("sfm,fm->sf", rows.reshape(count, dim // m, m), level.directions)
    np.testing.assert_array_equal(feats, whole / level.scales)
    edges = sorted({0, count - 1} | {k * step + d for k in (1, 2, 3) for d in (-1, 0, 1)})
    for row in edges:
        np.testing.assert_array_equal(projection.project_level(rows[row], level), feats[row])


@pytest.mark.parametrize("p", [1, 2])
def test_containers_of_one_and_two_cpu_builds_are_byte_equal(tmp_path, monkeypatch, p):
    data = small_dataset(count=5000, dim=128, seed=82)
    paths = []
    for cpus in (1, 2):
        index, _ = split_build(monkeypatch, cpus, data, (128, 32, 8), "orthogonal", p)
        paths.append(tmp_path / f"cpus-{cpus}.idx")
        save_index(index, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("p", [1, 2, 3, "inf"])
def test_narrow_levels_are_column_major_in_every_index(tmp_path, p):
    # a level is held column-major, the kernel's transposed buffer, below
    # norms._NARROW (32) columns of float32 features and below
    # norms._CODE_NARROW (128) columns of int16 codes (l_1 and l_inf), and
    # row-major from there up, in built, loaded, mapped and hand-built
    # indexes alike: a 48-column level (rgb-reload's second) is column-major
    # coded and row-major float32.  The container stays row-major, so save,
    # load and save again write the same bytes
    coded = p in (1, "inf")
    width = norms._CODE_NARROW if coded else norms._NARROW
    for schedule in (DimensionSchedule((64, 32, 16, 4)), DimensionSchedule((96, 48, 12))):
        data = small_dataset(count=300, seed=76, dim=schedule.dims[0])
        index = build_index(data, schedule, "adaptive", p)
        path = tmp_path / "layout.idx"
        save_index(index, path)
        narrow = [n < width for n in schedule.dims[1:]]
        assert narrow[0] == coded  # 32 and 48 columns: narrow as codes only
        # by hand from features in the other layout
        swapped = tuple(np.asarray(feats, order="C" if column else "F")
                        for column, feats in zip(narrow, index.features))
        assert [f.flags.f_contiguous for f in swapped] == [not column for column in narrow]
        by_hand = dataclasses.replace(index, features=swapped)
        y = data.vectors[9] + 0.05
        for each in (index, load_index(path), load_index(path, mmap_data=True), by_hand):
            for column, feats, built in zip(narrow, each.features, index.features):
                assert (feats.flags.f_contiguous, feats.flags.c_contiguous) == (column, not column)
                np.testing.assert_array_equal(feats, built)
            assert range_query(each, y, 4.0) == range_query(index, y, 4.0)
        for copy in (load_index(path), by_hand):
            again = tmp_path / "again.idx"
            save_index(copy, again)
            assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("share", [0.0, 2.0])
@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
def test_queries_leave_the_vectors_and_features_unwritten(tmp_path, monkeypatch, p, share):
    # kernels take their differences in place only in a sweep's private
    # gathers: the vectors and every feature matrix keep their bytes, built
    # or mapped read-only, whether every sweep slices every row (share 0)
    # or gathers its candidates (share 2); l_2 screens both ways too
    monkeypatch.setattr(norms, "_DENSE_SHARE", share)
    monkeypatch.setattr(tree, "_GEMV_SHARE", share)
    data = small_dataset(count=400, seed=77)
    index = build_index(data, DimensionSchedule((64, 16, 4)), "adaptive", p)
    path = tmp_path / "read-only.idx"
    save_index(index, path)
    mapped = load_index(path, mmap_data=True)
    assert not mapped.data.flags.writeable
    for each in (index, mapped):
        matrices = (each.data, *each.features)
        before = [np.asarray(m).tobytes() for m in matrices]
        for row in (0, 199):
            y = data.vectors[row] + 0.05
            exact = np.sort(unchunked_distances(data.vectors, y, index.norm))
            for epsilon in (exact[3], exact[100], exact[300], 1e9):
                report = range_query(each, y, epsilon)
                assert list(report.matches) == brute_force_range(data, y, epsilon, p)
        assert [np.asarray(m).tobytes() for m in matrices] == before


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_saved_bytes_follow_the_version_4_layout(tmp_path, monkeypatch, mode, order):
    rows = small_dataset(count=40, seed=75).vectors
    data = DataSet.from_array(np.asarray(rows, order=order))
    # 3 rows of 64 per chunk: every section is written in several chunks
    monkeypatch.setattr(norms, "CHUNK_BYTES", 8 * 64 * 3)
    for label in ("inf", "2"):
        index = build_index(data, DimensionSchedule((64, 16, 4)), mode, label)
        path = tmp_path / f"layout-{label}.idx"
        save_index(index, path)
        header = json.dumps({
            "format": "lpcascade-index", "norm": label, "mode": mode,
            "schedule": [64, 16, 4], "count": 40, "data_included": True,
        }, sort_keys=True).encode("utf-8")
        expected = [b"LPCASIDX", struct.pack("<IQ", 4, len(header)), header,
                    data.ids.astype("<i8").tobytes(), data.vectors.astype("<f8").tobytes()]
        previous = data.vectors
        for level in index.levels:
            # directions for both modes: the mode is a label, not a layout
            expected.append(level.directions.astype("<f8").tobytes())
            previous = projection.project_rows(previous, level)
            if label == "2":
                expected.append(previous.astype("<f4").tobytes())
                continue
            # l_inf: the grid (lo, step), lo the least feature and step the
            # smallest power of two that spans the features in 2^15 - 1
            # steps, then each feature's nearest code as int16
            lo, top = previous.min(), previous.max()
            step = 2.0 ** math.ceil(math.log2((top - lo) / 32767))
            assert (top - lo) / 32767 <= step < 2 * (top - lo) / 32767
            codes = np.clip(np.rint((previous - lo) / step), 0, 32767)
            expected += [struct.pack("<2d", lo, step), codes.astype("<i2").tobytes()]
        assert path.read_bytes() == b"".join(expected)
