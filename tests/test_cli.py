"""Command-line surface: config parsing, subcommands, exit codes."""

import json

import numpy as np
import pytest

from lpcascade import (
    DimensionSchedule,
    SyntheticSpec,
    build_index,
    generate,
    load_fvecs,
    load_index,
    read_report,
    save_index,
    write_fvecs,
)
from lpcascade.cli import (
    BenchConfig,
    CliInputError,
    InternalCheckError,
    main,
    parse_config_file,
    run_bench,
    run_query,
)


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
    """Adaptive index saved with and without embedded data, plus its dataset
    and queries as float32-exact .fvecs files."""
    raw = generate(SyntheticSpec(count=300, dim=32, model="block-correlated",
                                 block_size=4, correlation=0.8, rng_seed=10))
    data_path = tmp_path / "data.fvecs"
    write_fvecs(data_path, raw.vectors)
    data = load_fvecs(data_path)
    index = build_index(data, DimensionSchedule((32, 8, 2)), "adaptive", 2)
    full, slim = tmp_path / "full.idx", tmp_path / "slim.idx"
    save_index(index, full)
    save_index(index, slim, include_data=False)
    queries = tmp_path / "queries.fvecs"
    write_fvecs(queries, data.vectors[:4] + 0.05)
    return {"full": full, "slim": slim, "data": data_path, "queries": queries}


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
        assert tuple(entry["survivors"]) == report.survivors
        assert entry["cost_s"] == report.cost_s and entry["cost_l"] == report.cost_l
        assert entry["ratio"] == report.ratio
    assert any(entry["matches"] for entry in written)


def test_query_data_flag_matches_embedded_copy(query_files, tmp_path):
    embedded, supplied = tmp_path / "embedded.json", tmp_path / "supplied.json"
    common = ["query", "--queries", str(query_files["queries"]), "--epsilon", "1.5"]
    assert main(common + ["--index", str(query_files["full"]),
                          "--out", str(embedded)]) == 0
    assert main(common + ["--index", str(query_files["slim"]),
                          "--data", str(query_files["data"]),
                          "--out", str(supplied)]) == 0
    got = json.loads(supplied.read_text())
    assert got == json.loads(embedded.read_text())
    assert any(entry["matches"] for entry in got)


def test_query_out_flag_writes_file(query_files, tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["query", "--index", str(query_files["full"]),
                 "--queries", str(query_files["queries"]), "--epsilon", "1.5",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 4
    assert f"wrote 4 query reports -> {out}" in capsys.readouterr().out


def test_query_dataless_container_needs_data_flag(query_files, capsys):
    code = main(["query", "--index", str(query_files["slim"]),
                 "--queries", str(query_files["queries"]), "--epsilon", "1.5"])
    assert code == 1
    assert "no embedded data" in capsys.readouterr().err


def test_query_missing_file_is_input_error(tmp_path, capsys):
    code = main(["query", "--index", str(tmp_path / "nope.idx"),
                 "--queries", str(tmp_path / "also-nope.fvecs"),
                 "--epsilon", "1.0"])
    assert code == 1


def test_bad_arguments_are_input_errors(capsys):
    assert main(["bench", "--norms"]) == 1
    assert main(["frobnicate"]) == 1


def test_bench_end_to_end(tmp_path):
    out = tmp_path / "report.csv"
    config = BenchConfig(
        model="block-correlated", count=1200, dim=64, block_size=4,
        correlation=0.8, schedule=(64, 16, 4),
        modes=("adaptive", "orthogonal"), norms=("2", "1"),
        queries=25, target_nn=10, calibration_sample=40, verify_queries=10,
        seed=6, out=str(out), format="csv")
    rows = run_bench(config, log=lambda *a: None)
    assert [(r.mode, r.norm) for r in rows] == [
        ("adaptive", "1"), ("adaptive", "2"),
        ("orthogonal", "1"), ("orthogonal", "2")]
    assert read_report(out, "csv") == rows
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


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("model=iid-uniform\ns=500\nn=32\nschedule=32,8\n"
                   "modes=orthogonal\nnorms=2\nqueries=10\ntarget_nn=5\n"
                   "calibration_sample=20\nseed=1\n")
    out = tmp_path / "r.json"
    code = main(["bench", "--config", str(cfg), "--queries", "12",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    rows = read_report(out, "json")
    assert len(rows) == 1
