"""Command-line surface: config parsing, subcommands, exit codes."""

import dataclasses
import json
import math
import re
import runpy
import struct
import sys

import numpy as np
import pytest

from lpcascade import (
    DimensionSchedule,
    SyntheticSpec,
    build_index,
    calibrate_epsilon,
    generate,
    load_fvecs,
    load_index,
    range_query,
    reference_rows,
    save_index,
    write_fvecs,
)
from lpcascade.cli import (
    _KEYS,
    BenchConfig,
    CliInputError,
    InternalCheckError,
    _build_parser,
    load_vector_file,
    main,
    parse_config_file,
    run_bench,
    run_query,
)


def strict_json(path):
    """A report's contents, read by a parser that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "# benchmark matrix\n"
        "model=block-correlated\n"
        "s=800\n"
        "n=64\n"
        "m=4\n"
        "rho=0.8  # strong within-block correlation\n"
        "schedule=64,16,4\n"
        "modes=orthogonal,adaptive\n"
        "norms=1,2,inf\n"
        "queries=30\n"
        "seed=9\n"
    )
    values = parse_config_file(cfg)
    assert values["model"] == "block-correlated"
    assert values["count"] == 800 and values["dim"] == 64
    assert values["block_size"] == 4 and values["correlation"] == 0.8
    assert values["schedule"] == (64, 16, 4)
    assert values["modes"] == ("orthogonal", "adaptive")
    assert values["norms"] == ("1", "2", "inf")


def test_parse_config_rejects_garbage(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("warp_speed=9\n")
    with pytest.raises(CliInputError, match="unknown key"):
        parse_config_file(bad_key)

    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("schedule 64,16\n")
    with pytest.raises(CliInputError, match="key=value"):
        parse_config_file(bad_line)

    bad_value = tmp_path / "c.cfg"
    bad_value.write_text("s=many\n")
    with pytest.raises(CliInputError):
        parse_config_file(bad_value)


def test_build_single_cell(tmp_path, capsys):
    out = tmp_path / "index.idx"
    code = main([
        "build", "--model", "iid-uniform", "--count", "200", "--dim", "32",
        "--schedule", "32,8", "--modes", "orthogonal", "--norms", "2",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    logged = capsys.readouterr().out
    assert "max diversion 0.000000" in logged
    index = load_index(out)
    assert index.count == 200 and index.mode == "orthogonal"


def test_build_logs_each_coded_levels_grid(tmp_path, capsys):
    # l_1 and l_inf levels are coded: build logs each level's grid step and
    # grid term beside its diversions; an l_2 level has no grid to log
    out = tmp_path / "index.idx"
    assert main(["build", "--model", "block-correlated", "--count", "200", "--dim", "32",
                 "--schedule", "32,8,2", "--modes", "adaptive", "--norms", "1,2,inf",
                 "--seed", "3", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for norm in ("l1", "l2", "linf"):
        index = load_index(tmp_path / f"index_adaptive_{norm}.idx")
        start = next(i for i, line in enumerate(lines) if f"index_adaptive_{norm}.idx" in line)
        for k, line in enumerate(lines[start + 1:start + 3]):
            assert line.startswith(f"  level {k + 1} (block size 4): max diversion ")
            if norm == "l2":
                assert "grid" not in line
            else:
                step, term = index.grids[k][1], index.grid_terms[k]
                assert line.endswith(f", grid step {step:.6g}, grid term {term:.6g}")


def test_build_multiple_cells_fans_out_names(tmp_path):
    out = tmp_path / "index.idx"
    code = main([
        "build", "--model", "iid-uniform", "--count", "150", "--dim", "32",
        "--schedule", "32,8", "--modes", "orthogonal,adaptive",
        "--norms", "2,inf", "--out", str(out),
    ])
    assert code == 0
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == [
        "index_adaptive_l2.idx", "index_adaptive_linf.idx",
        "index_orthogonal_l2.idx", "index_orthogonal_linf.idx",
    ]


def test_a_norm_listed_twice_is_one_cell(tmp_path):
    config = BenchConfig(model="iid-uniform", count=300, dim=32, schedule=(32, 8),
                         modes=("orthogonal", "orthogonal"), norms=("2", "2.0", "inf", "oo"),
                         queries=10, target_nn=5, calibration_sample=20, seed=3)
    assert config.modes == ("orthogonal",) and config.norms == ("2", "inf")
    rows = run_bench(config, log=lambda *a: None)
    assert [(r.mode, r.norm) for r in rows] == [("orthogonal", "2"), ("orthogonal", "inf")]
    out = tmp_path / "index.idx"
    assert main(["build", "--model", "iid-uniform", "--count", "150", "--dim", "32",
                 "--schedule", "32,8", "--norms", "2,2.0", "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["index.idx"]


def test_build_adaptive_on_iid_reports_small_diversion(tmp_path, capsys):
    code = main([
        "build", "--model", "iid-uniform", "--count", "5000", "--dim", "32",
        "--schedule", "32,8", "--modes", "adaptive", "--norms", "2",
        "--seed", "4", "--out", str(tmp_path / "a.idx"),
    ])
    assert code == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if "max diversion" in ln][0]
    assert float(line.split("max diversion ")[1].split(",")[0]) < 0.05


def test_build_indivisible_schedule_is_input_error(tmp_path, capsys):
    code = main([
        "build", "--model", "iid-uniform", "--count", "100", "--dim", "30",
        "--schedule", "30,4", "--out", str(tmp_path / "x.idx"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_a_non_finite_csv_value_is_input_error_naming_file_and_line(value, tmp_path, capsys):
    # the loader names the file and line of a value float64 cannot hold,
    # and no index is written
    data = tmp_path / "bad.csv"
    data.write_text(f"1,2,3,4\n5,6,7,8\n1,{value},2,3\n")
    out = tmp_path / "x.idx"
    assert main(["build", "--data", str(data), "--schedule", "4,2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data}:3: non-finite values in the row\n"
    assert not out.exists()


def test_query_command(tmp_path, capsys):
    out = tmp_path / "q.idx"
    assert main([
        "build", "--model", "block-correlated", "--count", "300", "--dim", "64",
        "--block-size", "4", "--rho", "0.9", "--schedule", "64,16,4",
        "--modes", "orthogonal", "--norms", "2", "--seed", "5",
        "--out", str(out),
    ]) == 0
    index = load_index(out)
    queries = tmp_path / "queries.fvecs"
    write_fvecs(queries, index.data[:3])
    code = main(["query", "--index", str(out), "--queries", str(queries),
                 "--epsilon", "0.5"])
    assert code == 0
    logged = capsys.readouterr().out
    assert logged.count("query ") == 3
    assert "matches within 0.5" in logged
    assert "cost_s" in logged


@pytest.fixture
def query_files(tmp_path):
    """Adaptive index saved as a container, plus its dataset and queries as
    float32-exact .fvecs files."""
    raw = generate(SyntheticSpec(count=300, dim=32, model="block-correlated",
                                 block_size=4, correlation=0.8, rng_seed=10))
    data_path = tmp_path / "data.fvecs"
    write_fvecs(data_path, raw.vectors)
    data = load_fvecs(data_path)
    index = build_index(data, DimensionSchedule((32, 8, 2)), "adaptive", 2)
    full = tmp_path / "full.idx"
    save_index(index, full)
    queries = tmp_path / "queries.fvecs"
    write_fvecs(queries, data.vectors[:4] + 0.05)
    return {"full": full, "data": data_path, "queries": queries}


def test_run_query_writes_reports_json(query_files, tmp_path):
    out = tmp_path / "reports.json"
    reports = run_query(query_files["full"], query_files["queries"], 1.5,
                        out_path=out, log=lambda *a: None)
    written = json.loads(out.read_text())
    assert len(written) == len(reports) == 4
    for row, (entry, report) in enumerate(zip(written, reports)):
        assert entry["query"] == row
        assert entry["epsilon"] == report.epsilon
        assert [tuple(pair) for pair in entry["matches"]] == list(report.matches)
        # ids stay JSON integers and distances JSON floats
        assert all(type(i) is int and type(d) is float for i, d in entry["matches"])
        assert tuple(entry["survivors"]) == report.survivors
        assert entry["cost_s"] == report.cost_s and entry["cost_l"] == report.cost_l
        assert entry["ratio"] == report.ratio
    assert any(entry["matches"] for entry in written)


def test_query_out_flag_writes_file(query_files, tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["query", "--index", str(query_files["full"]),
                 "--queries", str(query_files["queries"]), "--epsilon", "1.5",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 4
    assert f"wrote 4 query reports -> {out}" in capsys.readouterr().out


def test_query_file_of_another_width_is_input_error(query_files, tmp_path, capsys):
    narrow = tmp_path / "narrow.fvecs"
    write_fvecs(narrow, np.ones((2, 16)))
    assert main(["query", "--index", str(query_files["full"]), "--queries", str(narrow),
                 "--epsilon", "1.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: expected a 32-vector, got shape (16,)\n"
    assert "query 0" not in captured.out


def test_query_has_no_data_flag(query_files, capsys):
    code = main(["query", "--index", str(query_files["full"]),
                 "--queries", str(query_files["queries"]), "--epsilon", "1.5",
                 "--data", str(query_files["data"])])
    assert code == 1
    assert "unrecognized arguments: --data" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", ["csv", "fvecs"])
def test_build_bench_and_query_read_data_files(suffix, tmp_path):
    # --data and --queries take a .csv or a .fvecs file (load_vector_file);
    # the rows are float32 values, which both formats hold exactly, and each
    # query lies near l_1 distance 4 from its row
    vectors = generate(SyntheticSpec(count=400, dim=32, model="block-correlated",
                                     block_size=4, correlation=0.8, rng_seed=12)).vectors
    vectors = vectors.astype(np.float32).astype(np.float64)
    data, queries = tmp_path / f"data.{suffix}", tmp_path / f"queries.{suffix}"
    for path, rows in ((data, vectors), (queries, vectors[:3] + 0.125)):
        if suffix == "csv":
            np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        else:
            write_fvecs(path, rows)
    index_path, bench, reports = (tmp_path / name for name in ("index.idx", "bench.json",
                                                                "reports.json"))
    assert main(["build", "--data", str(data), "--schedule", "32,8,2", "--modes", "adaptive",
                 "--norms", "1", "--out", str(index_path)]) == 0
    index = load_index(index_path)
    np.testing.assert_array_equal(index.data, vectors)
    assert main(["bench", "--data", str(data), "--schedule", "32,8,2", "--norms", "1,2",
                 "--queries", "20", "--target-nn", "5", "--calibration-sample", "40",
                 "--out", str(bench)]) == 0
    assert [(row["mode"], row["norm"]) for row in strict_json(bench)] == [
        ("orthogonal", "1"), ("orthogonal", "2")]
    assert main(["query", "--index", str(index_path), "--queries", str(queries),
                 "--epsilon", "5", "--out", str(reports)]) == 0
    written = strict_json(reports)
    assert [[tuple(pair) for pair in entry["matches"]] for entry in written] == [
        list(range_query(index, row, 5.0).matches) for row in load_vector_file(queries).vectors]
    assert all(entry["matches"] for entry in written)


@pytest.mark.parametrize("command", ["build", "bench", "query"])
def test_a_vector_file_of_another_suffix_is_input_error(command, query_files, tmp_path,
                                                        capsys):
    # a CSV file named .txt is an input error that names the file and the
    # two suffixes, not an fvecs read that fails as a truncated record, and
    # nothing is written
    text = tmp_path / "rows.txt"
    np.savetxt(text, load_fvecs(query_files["data"]).vectors, delimiter=",", fmt="%.17g")
    out = tmp_path / "out.json"
    argv = {
        "build": ["build", "--data", str(text), "--schedule", "32,8,2", "--norms", "2"],
        "bench": ["bench", "--data", str(text), "--schedule", "32,8,2", "--queries", "20",
                  "--target-nn", "5", "--calibration-sample", "40"],
        "query": ["query", "--index", str(query_files["full"]), "--queries", str(text),
                  "--epsilon", "1.5"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {text}: not a .csv or .fvecs file\n"
    assert not out.exists()
    # the two suffixes are read in any case
    upper = text.rename(tmp_path / "rows.CSV")
    assert load_vector_file(upper).vectors.shape == (300, 32)
    upper = query_files["queries"].rename(tmp_path / "rows.FVECS")
    assert load_vector_file(upper).vectors.shape == (4, 32)


@pytest.mark.parametrize("mode", ["orthogonal", "adaptive"])
def test_container_with_a_nan_direction_is_input_error(tmp_path, mode, capsys):
    # a nan direction entry fails no "deviation from unit norm > tol" test,
    # and its nan features would prune every row, matches included
    data = generate(SyntheticSpec(count=50, dim=16, model="block-correlated",
                                  block_size=4, correlation=0.8, rng_seed=12))
    path = tmp_path / "nan.idx"
    save_index(build_index(data, DimensionSchedule((16, 4)), mode, 2), path)
    raw = bytearray(path.read_bytes())
    (length,) = struct.unpack_from("<Q", raw, 12)
    # after the prefix, the header, the ids and the embedded vectors
    struct.pack_into("<d", raw, 20 + length + 8 * 50 + 8 * 50 * 16, math.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite"):
        load_index(path)
    queries = tmp_path / "queries.fvecs"
    write_fvecs(queries, data.vectors[:2])
    assert main(["query", "--index", str(path), "--queries", str(queries),
                 "--epsilon", "1.5"]) == 1
    assert f"error: {path}: directions must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("schedule", [16, 3], "16 is not divisible by 3"),
    ("schedule", 16, "object is not iterable"),
    ("norm", "0.5", "p >= 1"),
    ("norm", "bogus", "could not convert"),
    # int() would take 50.7 as 50 and 16.9 as 16, and "no" is truthy
    ("count", 50.7, "count 50.7 is not an integer"),
    ("count", 50.0, "count 50.0 is not an integer"),
    ("count", True, "count True is not an integer"),
    ("schedule", [16.9, 4.2], "dimension 16.9 is not an integer"),
    ("schedule", [16, True], "dimension True is not an integer"),
    ("data_included", "no", "data_included 'no' is not True"),
    ("data_included", 1, "data_included 1 is not True"),
    # a container without its vectors: no dataset may stand in for the rows
    # the levels were projected from
    ("data_included", False, "data_included False is not True"),
    # the size check comes before any section is allocated
    ("count", 10 ** 12, "its header describes"),
])
def test_container_with_a_bad_header_field_is_input_error(tmp_path, capsys, field,
                                                          value, message):
    # the header parses, but a field's value is invalid: load_index and the
    # query command name the file
    data = generate(SyntheticSpec(count=50, dim=16, rng_seed=13))
    path = tmp_path / "bad-header.idx"
    save_index(build_index(data, DimensionSchedule((16, 4)), "orthogonal", 2), path)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 12)
    header = {**json.loads(raw[20:20 + length]), field: value}
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + length:])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
        load_index(path)
    queries = tmp_path / "queries.fvecs"
    write_fvecs(queries, data.vectors[:2])
    assert main(["query", "--index", str(path), "--queries", str(queries),
                 "--epsilon", "1.5"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_container_with_no_rows_is_input_error(tmp_path, capsys):
    # a consistent zero-row container: every section is empty but the
    # directions; loaded, its first query would divide by a zero scan cost
    data = generate(SyntheticSpec(count=50, dim=16, rng_seed=14))
    index = build_index(data, DimensionSchedule((16, 4)), "adaptive", 2)
    path = tmp_path / "empty.idx"
    save_index(index, path)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 12)
    blob = json.dumps({**json.loads(raw[20:20 + length]), "count": 0}).encode("utf-8")
    directions = b"".join(level.directions.astype("<f8").tobytes()
                          for level in index.levels)
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + directions)
    queries = tmp_path / "queries.fvecs"
    write_fvecs(queries, data.vectors[:2])
    assert main(["query", "--index", str(path), "--queries", str(queries),
                 "--epsilon", "1.5"]) == 1
    assert capsys.readouterr().err == f"error: {path}: count 0 must be at least 1\n"


def test_query_missing_file_is_input_error(tmp_path, capsys):
    code = main(["query", "--index", str(tmp_path / "nope.idx"),
                 "--queries", str(tmp_path / "also-nope.fvecs"),
                 "--epsilon", "1.0"])
    assert code == 1


@pytest.mark.parametrize("epsilon, code", [("1.5", 0), ("0", 1)])
def test_the_module_run_as_main_exits_with_mains_code(epsilon, code, query_files, monkeypatch,
                                                       capsys):
    # python -m lpcascade.cli: the __main__ guard passes main's exit code,
    # here for a query that succeeds and one whose epsilon is an input error
    argv = ["query", "--index", str(query_files["full"]), "--queries",
            str(query_files["queries"]), "--epsilon", epsilon]
    assert main(argv) == code
    monkeypatch.setattr(sys, "argv", ["lpcascade.cli", *argv])
    # run from a fresh copy of the module, as python -m does; runpy warns
    # when the module it runs is already imported
    monkeypatch.delitem(sys.modules, "lpcascade.cli")
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("lpcascade.cli", run_name="__main__")
    assert exited.value.code == code


def test_bad_arguments_are_input_errors(capsys):
    assert main(["bench", "--norms"]) == 1
    assert main(["frobnicate"]) == 1


def test_bench_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    config = BenchConfig(
        model="block-correlated", count=1200, dim=64, block_size=4,
        correlation=0.8, schedule=(64, 16, 4),
        modes=("adaptive", "orthogonal"), norms=("2", "1"),
        queries=25, target_nn=10, calibration_sample=40, verify_queries=10,
        seed=6, out=str(out))
    rows = run_bench(config, log=lambda *a: None)
    assert [(r.mode, r.norm) for r in rows] == [
        ("adaptive", "1"), ("adaptive", "2"),
        ("orthogonal", "1"), ("orthogonal", "2")]
    assert strict_json(out) == [
        {**dataclasses.asdict(row), "mean_survivors": list(row.mean_survivors)}
        for row in rows]
    for row in rows:
        assert row.mean_cost > 0 and row.mean_ratio > 0
        assert len(row.mean_survivors) == 3
        assert row.fitted_const > 0
        assert row.estimated_cost > 0


def test_bench_is_deterministic():
    config = BenchConfig(model="iid-uniform", count=600, dim=32,
                         schedule=(32, 8), modes=("orthogonal",),
                         norms=("2",), queries=20, target_nn=5,
                         calibration_sample=30, seed=7)
    first = run_bench(config, log=lambda *a: None)
    second = run_bench(config, log=lambda *a: None)
    assert first == second


def test_bench_fixed_epsilon():
    config = BenchConfig(model="iid-uniform", count=400, dim=32,
                         schedule=(32, 8), modes=("orthogonal",),
                         norms=("1", "2"), epsilon=2.5, queries=15,
                         verify_queries=5, seed=8)
    rows = run_bench(config, log=lambda *a: None)
    assert all(row.epsilon == 2.5 for row in rows)


def test_bench_oracle_disagreement_exits_2(monkeypatch, capsys):
    import lpcascade.cli as cli_module

    def wrong_oracle(data, query, epsilon, norm):
        return [(-12345, 0.0)]

    monkeypatch.setattr(cli_module, "brute_force_range", wrong_oracle)
    code = main(["bench", "--model", "iid-uniform", "--count", "300",
                 "--dim", "32", "--schedule", "32,8", "--modes", "orthogonal",
                 "--norms", "2", "--queries", "10", "--target-nn", "5",
                 "--calibration-sample", "20", "--seed", "9"])
    assert code == 2
    assert "internal check failed" in capsys.readouterr().err


def test_bench_logs_the_reference_corpus_its_shape_matches(monkeypatch):
    import lpcascade.cli as cli_module

    shapes = []
    monkeypatch.setattr(cli_module, "match_reference",
                        lambda dim, count: shapes.append((dim, count)) or "gist960")
    logged = []
    run_bench(BenchConfig(model="iid-uniform", count=300, dim=32, schedule=(32, 8),
                          modes=("orthogonal",), norms=("2",), queries=10, target_nn=5,
                          calibration_sample=20), log=logged.append)
    # the shape is that of the whole dataset, queries included
    assert shapes == [(32, 300)]
    start = logged.index("dataset shape matches the gist960 reference corpus; "
                         "full-scale reference figures:")
    rows = reference_rows("gist960")
    assert logged[start + 1:start + 1 + len(rows)] == [
        f"  {ref.mode} l_{ref.norm}: epsilon {ref.epsilon:g}, "
        f"mean cost {ref.mean_cost:.0f}, ratio {ref.mean_ratio:.2f}" for ref in rows]


def test_reference_rows_of_an_unknown_table_are_rejected():
    with pytest.raises(ValueError, match=r"unknown reference table 'gist'; "
                                         r"available: \['gist960', 'rgb12288'\]"):
        reference_rows("gist")


# flags both build and bench take, and a bench run that uses them
CELL_FLAGS = ["--model", "iid-uniform", "--count", "300", "--dim", "32",
              "--schedule", "32,8", "--modes", "orthogonal", "--norms", "2"]
BENCH_FLAGS = ["bench", *CELL_FLAGS,
               "--queries", "10", "--target-nn", "5", "--calibration-sample", "20"]


@pytest.mark.parametrize("value", ["0", "300", "301"])
def test_bench_query_sample_must_leave_rows_to_search(value, capsys):
    # the queries are held out of the 300 rows: at least one must be, and
    # one row must stay to be searched
    assert main(BENCH_FLAGS + ["--queries", value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: query sample {value} must be in [1, 299]\n"
    assert "cell " not in captured.out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bench_verify_queries_flag_below_one_is_input_error(value, capsys):
    assert main(BENCH_FLAGS + ["--verify-queries", value]) == 1
    assert f"verify_queries {value} must be at least 1" in capsys.readouterr().err
    assert main(BENCH_FLAGS + ["--verify-queries", "1"]) == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bench_verify_queries_config_below_one_is_input_error(value, tmp_path, capsys):
    cfg = tmp_path / "v.cfg"
    cfg.write_text(f"verify_queries={value}\n")
    assert main(BENCH_FLAGS + ["--config", str(cfg)]) == 1
    assert f"verify_queries {value} must be at least 1" in capsys.readouterr().err


def no_data(spec):
    raise AssertionError("data generated before the configuration was checked")


def test_bench_format_config_is_checked_before_any_cell(tmp_path, monkeypatch, capsys):
    # a report is JSON only: format is neither a key nor a flag
    import lpcascade.cli as cli_module

    monkeypatch.setattr(cli_module, "generate", no_data)
    cfg = tmp_path / "f.cfg"
    cfg.write_text("format=csv\n")
    out = tmp_path / "r.csv"
    assert main(BENCH_FLAGS + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'format'\n"
    assert main(BENCH_FLAGS + ["--format", "json", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unrecognized arguments: --format json\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bench_epsilon_is_checked_before_any_data(source, value, tmp_path, monkeypatch,
                                                  capsys):
    import lpcascade.cli as cli_module

    monkeypatch.setattr(cli_module, "generate", no_data)
    flags = BENCH_FLAGS + ["--out", str(tmp_path / "r.json")]
    if source == "flag":
        flags += [f"--epsilon={value}"]
    else:
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"epsilon={value}\n")
        flags += ["--config", str(cfg)]
    assert main(flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: epsilon {float(value)} must be finite and above 0\n"
    assert captured.out == "" and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_query_epsilon_is_checked_before_the_index_is_loaded(value, query_files, tmp_path,
                                                            monkeypatch, capsys):
    import lpcascade.cli as cli_module

    def no_index(path):
        raise AssertionError("index loaded before epsilon was checked")

    monkeypatch.setattr(cli_module, "load_index", no_index)
    out = tmp_path / "q.json"
    assert main(["query", "--index", str(query_files["full"]),
                 "--queries", str(query_files["queries"]), f"--epsilon={value}",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: epsilon {float(value)} must be finite and above 0\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("case", ["missing", "file", "directory", "unwritable"])
def test_report_path_is_checked_before_any_data_or_index(case, query_files, tmp_path,
                                                         monkeypatch, capsys):
    # a report that cannot be written is an input error found before the
    # data are generated or the index is loaded, not after every cell
    import lpcascade.cli as cli_module

    def no_index(path):
        raise AssertionError("index loaded before the report path was checked")

    monkeypatch.setattr(cli_module, "generate", no_data)
    monkeypatch.setattr(cli_module, "load_index", no_index)
    (tmp_path / "plain").write_text("")
    (tmp_path / "dir").mkdir()
    out, message = {
        "missing": (tmp_path / "missing" / "r.json", f"no directory {tmp_path / 'missing'}"),
        "file": (tmp_path / "plain" / "r.json", f"no directory {tmp_path / 'plain'}"),
        "directory": (tmp_path / "dir", "is a directory"),
        "unwritable": (tmp_path / "r.json", f"directory {tmp_path} is not writable"),
    }[case]
    if case == "unwritable":  # a test run as root may write anywhere
        monkeypatch.setattr(cli_module.os, "access", lambda path, mode: False)
    commands = (BENCH_FLAGS + ["--out", str(out)],
                ["query", "--index", str(query_files["full"]),
                 "--queries", str(query_files["queries"]), "--epsilon", "1.5",
                 "--out", str(out)])
    for argv in commands:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: {message}\n"
        assert captured.out == ""
    assert not (tmp_path / "r.json").exists() and not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("case", ["missing", "directory", "absent"])
def test_build_output_path_is_checked_before_any_data(case, tmp_path, monkeypatch, capsys):
    # an index path in no directory, or one that is a directory, is an input
    # error found before any data are made, not a temporary file's error
    # after a cell is built; so is no index path at all
    import lpcascade.cli as cli_module

    monkeypatch.setattr(cli_module, "generate", no_data)
    (tmp_path / "dir").mkdir()
    out, message = {
        "missing": (tmp_path / "missing" / "x.idx",
                    f"{tmp_path / 'missing' / 'x.idx'}: no directory {tmp_path / 'missing'}"),
        "directory": (tmp_path / "dir", f"{tmp_path / 'dir'}: is a directory"),
        "absent": (None, "build requires an output path (--out or out=)"),
    }[case]
    assert main(["build", "--model", "block-correlated", "--count", "300", "--dim", "32",
                 "--schedule", "32,8,2", "--modes", "orthogonal,adaptive", "--norms", "1,2",
                 *([] if out is None else ["--out", str(out)])]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
    assert not any((tmp_path / "dir").iterdir())


def test_bench_and_query_reports_are_strict_json(query_files, tmp_path):
    # 1e-9 leaves every survivor count at zero, so no const fits: null
    bench = tmp_path / "bench.json"
    assert main(BENCH_FLAGS + ["--norms", "1,2,inf", "--out", str(bench)]) == 0
    no_fit = tmp_path / "no-fit.json"
    assert main(BENCH_FLAGS + ["--epsilon", "1e-9", "--out", str(no_fit)]) == 0
    reports = tmp_path / "reports.json"
    assert main(["query", "--index", str(query_files["full"]),
                 "--queries", str(query_files["queries"]), "--epsilon", "1.5",
                 "--out", str(reports)]) == 0
    assert len(strict_json(bench)) == 3 and len(strict_json(reports)) == 4
    (row,) = strict_json(no_fit)
    assert row["fitted_const"] is None and row["estimated_cost"] is None
    assert row["epsilon"] == 1e-9 and row["mean_survivors"][0] == 0.0


def test_default_calibration_sample_leaves_target_nn_rows(capsys):
    # 380 rows after 20 queries: the default sample of 400 is capped at 328,
    # which leaves the default target_nn of 52 rows to search.  The cap
    # min(sample, len(scanned) - target_nn) changes no run that a cap of
    # len(scanned) - 1 let pass: such a run's sample left target_nn rows, so
    # it is under both caps, or its target_nn is 1, where the caps are equal
    assert main(["bench", "--model", "block-correlated", "--count", "400", "--dim", "32",
                 "--schedule", "32,8,2", "--norms", "2", "--queries", "20"]) == 0
    assert "cell orthogonal l_2" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bench_modes_are_checked_before_any_cell(source, tmp_path, capsys):
    flags = [flag for flag in BENCH_FLAGS if flag not in ("--modes", "orthogonal")]
    if source == "flag":
        flags += ["--modes", "adaptive,bogus"]
    else:
        cfg = tmp_path / "m.cfg"
        cfg.write_text("modes=adaptive,bogus\n")
        flags += ["--config", str(cfg)]
    out = tmp_path / "r.csv"
    assert main(flags + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "unknown modes ['bogus']" in captured.err
    assert "cell" not in captured.out and not out.exists()


@pytest.mark.parametrize("command", ["build", "bench"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_norm_labels_are_checked_before_any_data(command, source, tmp_path, monkeypatch,
                                                 capsys):
    import lpcascade.cli as cli_module

    monkeypatch.setattr(cli_module, "generate", no_data)
    flags = [flag for flag in CELL_FLAGS if flag not in ("--norms", "2")]
    if source == "flag":
        flags += ["--norms", "2,bogus"]
    else:
        cfg = tmp_path / "n.cfg"
        cfg.write_text("norms=2,bogus\n")
        flags += ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    assert main([command, *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: norms: 'bogus' is not a norm order: "
                            "could not convert string to float: 'bogus'\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["build", "bench"])
@pytest.mark.parametrize("flag, value", [("--modes", ""), ("--norms", ",")])
def test_an_empty_cell_matrix_is_checked_before_any_cell(command, flag, value, tmp_path,
                                                         capsys):
    out = tmp_path / "out.json"
    flags = [f for f in CELL_FLAGS if f not in ("--modes", "orthogonal", "--norms", "2")]
    assert main([command, *flags, flag, value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no (mode, norm) cells configured\n"
    assert captured.out == "" and not out.exists()


# the BenchConfig fields only bench reads, with a value build used to accept
BENCH_ONLY = {"epsilon": "-5", "queries": "0", "verify_queries": "0", "target_nn": "999",
              "calibration_sample": "0"}


@pytest.mark.parametrize("key", sorted(BENCH_ONLY))
def test_build_rejects_bench_only_flags(key, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "x.idx"
    assert main(["build", *CELL_FLAGS, flag, BENCH_ONLY[key], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {BENCH_ONLY[key]}\n"
    assert not out.exists()


def test_build_takes_twelve_keys_and_ignores_bench_keys_in_a_config_file(tmp_path):
    build = set(vars(_build_parser().parse_args(["build"]))) - {"command", "config"}
    assert build == set(_KEYS) - set(BENCH_ONLY) and len(build) == 12
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in BENCH_ONLY.items()))
    out = tmp_path / "x.idx"
    assert main(["build", *CELL_FLAGS, "--config", str(cfg), "--out", str(out)]) == 0
    assert load_index(out).count == 300


def test_bench_calibrates_once_per_norm(monkeypatch):
    import lpcascade.cli as cli_module

    calls = []

    def counting(data, spec, norm, rng_seed):
        calls.append(norm.label())
        return calibrate_epsilon(data, spec, norm, rng_seed=rng_seed)

    monkeypatch.setattr(cli_module, "calibrate_epsilon", counting)
    config = BenchConfig(model="iid-uniform", count=300, dim=32, schedule=(32, 8),
                         modes=("orthogonal", "adaptive"), norms=("2", "1"),
                         queries=10, target_nn=5, calibration_sample=20, seed=3)
    rows = run_bench(config, log=lambda *a: None)
    assert calls == ["1", "2"]
    assert [(r.mode, r.norm) for r in rows] == [
        ("adaptive", "1"), ("adaptive", "2"), ("orthogonal", "1"), ("orthogonal", "2")]
    # each norm's epsilon serves both modes
    assert rows[0].epsilon == rows[2].epsilon and rows[1].epsilon == rows[3].epsilon


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("model=iid-uniform\ns=500\nn=32\nschedule=32,8\n"
                   "modes=orthogonal\nnorms=2\nqueries=10\ntarget_nn=5\n"
                   "calibration_sample=20\nseed=1\n")
    out = tmp_path / "r.json"
    code = main(["bench", "--config", str(cfg), "--queries", "12", "--out", str(out)])
    assert code == 0
    assert len(strict_json(out)) == 1


# a text for every BenchConfig key, and the value it reads as: none of them
# the default, so a key that is silently dropped shows
KEY_TEXTS = {
    "data": ("d.fvecs", "d.fvecs"),
    "model": ("piecewise-smooth", "piecewise-smooth"),
    "count": ("123", 123),
    "dim": ("48", 48),
    "block_size": ("8", 8),
    "correlation": ("0.25", 0.25),
    "window": ("3", 3),
    "schedule": ("48,12", (48, 12)),
    "modes": ("adaptive,orthogonal", ("adaptive", "orthogonal")),
    "norms": ("1, inf", ("1", "inf")),
    "epsilon": ("2.5", 2.5),
    "target_nn": ("7", 7),
    "calibration_sample": ("99", 99),
    "queries": ("11", 11),
    "verify_queries": ("3", 3),
    "seed": ("42", 42),
    "out": ("r.json", "r.json"),
}
# the paper's letters, documented for the file and the flags alike
KEY_ALIASES = {"s": "count", "n": "dim", "m": "block_size", "rho": "correlation"}


@pytest.mark.parametrize("key", [spec.name for spec in dataclasses.fields(BenchConfig)]
                         + list(KEY_ALIASES))
def test_every_key_works_as_a_flag_and_in_a_config_file(key, tmp_path, monkeypatch):
    import lpcascade.cli as cli_module

    name = KEY_ALIASES.get(key, key)
    text, value = KEY_TEXTS[name]
    assert value != getattr(BenchConfig(), name)
    flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
    cfg = tmp_path / "key.cfg"
    cfg.write_text(f"{key}={text}\n")
    for argv in (["bench", flag, text], ["bench", "--config", str(cfg)]):
        seen = []
        monkeypatch.setattr(cli_module, "run_bench", seen.append)
        assert main(argv) == 0, argv
        assert getattr(seen[0], name) == value, argv
