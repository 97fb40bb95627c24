"""Loaders, synthetic generation, and report serialization."""

import math
import struct

import numpy as np
import pytest

from lpcascade import (
    BenchRow,
    DataSet,
    SyntheticSpec,
    first_principal_component,
    generate,
    load_csv,
    load_fvecs,
    read_report,
    write_fvecs,
    write_report,
)


def test_dataset_validation():
    with pytest.raises(ValueError):
        DataSet.from_array(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DataSet.from_array(np.empty((0, 4)))
    with pytest.raises(ValueError):
        DataSet(vectors=np.ones((3, 2)), ids=np.arange(2))
    ds = DataSet.from_array(np.ones((3, 2)))
    assert len(ds) == 3 and ds.dim == 2
    np.testing.assert_array_equal(ds.ids, [0, 1, 2])


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(count=0, dim=4)
    with pytest.raises(ValueError):
        SyntheticSpec(count=4, dim=4, model="gaussian-mixture")
    with pytest.raises(ValueError):
        SyntheticSpec(count=4, dim=10, model="block-correlated", block_size=3)
    with pytest.raises(ValueError):
        SyntheticSpec(count=4, dim=8, model="block-correlated", correlation=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(count=4, dim=8, model="piecewise-smooth", window=0)


def test_generate_is_seed_deterministic():
    spec = SyntheticSpec(count=10, dim=4, model="iid-uniform", rng_seed=7)
    np.testing.assert_array_equal(generate(spec).vectors, generate(spec).vectors)
    other = SyntheticSpec(count=10, dim=4, model="iid-uniform", rng_seed=8)
    assert not np.array_equal(generate(spec).vectors, generate(other).vectors)


def test_iid_uniform_range():
    ds = generate(SyntheticSpec(count=100, dim=16, rng_seed=1))
    assert ds.vectors.min() >= 0.0 and ds.vectors.max() <= 1.0


def test_block_correlated_degenerate_rho():
    ds = generate(SyntheticSpec(count=50, dim=8, model="block-correlated",
                                block_size=4, correlation=1.0, rng_seed=2))
    blocks = ds.vectors.reshape(50, 2, 4)
    # rho=1: all components within a block coincide (the shift is global)
    assert np.abs(blocks - blocks[:, :, :1]).max() <= 1e-12


def test_block_correlated_is_nonnegative():
    ds = generate(SyntheticSpec(count=500, dim=16, model="block-correlated",
                                block_size=4, correlation=0.3, rng_seed=3))
    assert ds.vectors.min() >= 0.0


def test_block_correlated_principal_direction():
    # rho=0.9, m=2: the covariance eigenvector sits within 2 degrees of the
    # bisecting line
    ds = generate(SyntheticSpec(count=10_000, dim=2, model="block-correlated",
                                block_size=2, correlation=0.9, rng_seed=4))
    component = first_principal_component(np.cov(ds.vectors, rowvar=False))
    bisect = np.ones(2) / math.sqrt(2.0)
    angle = math.degrees(math.acos(min(1.0, abs(float(component.direction @ bisect)))))
    assert angle < 2.0


def test_piecewise_smooth_shape_and_range():
    spec = SyntheticSpec(count=40, dim=30, model="piecewise-smooth", window=4,
                         rng_seed=5)
    ds = generate(spec)
    assert ds.vectors.shape == (40, 30)
    assert ds.vectors.min() >= 0.0 and ds.vectors.max() <= 255.0
    # neighbors inside one window differ only by the +-5 noise
    diff = np.abs(ds.vectors[:, 1] - ds.vectors[:, 2])
    assert diff.max() <= 10.0


def test_fvecs_roundtrip_and_manual_bytes(tmp_path):
    path = tmp_path / "two.fvecs"
    path.write_bytes(
        struct.pack("<i2f", 2, 1.0, 2.0) + struct.pack("<i2f", 2, 3.0, 4.0))
    ds = load_fvecs(path)
    np.testing.assert_array_equal(ds.vectors, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ds.ids, [0, 1])

    out = tmp_path / "copy.fvecs"
    write_fvecs(out, ds.vectors)
    assert out.read_bytes() == path.read_bytes()


def test_fvecs_fixture_byte_count(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=6))
    path = tmp_path / "big.fvecs"
    write_fvecs(path, rng.random((100, 960)))
    assert path.stat().st_size == 100 * (4 + 960 * 4)
    ds = load_fvecs(path)
    assert len(ds) == 100 and ds.dim == 960


def test_fvecs_errors(tmp_path):
    empty = tmp_path / "empty.fvecs"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        load_fvecs(empty)

    truncated = tmp_path / "cut.fvecs"
    truncated.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0)[:-2])
    with pytest.raises(ValueError):
        load_fvecs(truncated)

    mixed = tmp_path / "mixed.fvecs"
    mixed.write_bytes(
        struct.pack("<i2f", 2, 1.0, 2.0) + struct.pack("<i2f", 3, 1.0, 2.0))
    with pytest.raises(ValueError, match="record 1"):
        load_fvecs(mixed)

    nonfinite = tmp_path / "nan.fvecs"
    nonfinite.write_bytes(struct.pack("<i2f", 2, 1.0, float("nan")))
    with pytest.raises(ValueError):
        load_fvecs(nonfinite)


def test_csv_loading(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("1.0,2.0\n3.5,-4.25\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.vectors, [[1.0, 2.0], [3.5, -4.25]])

    headed = tmp_path / "headed.csv"
    headed.write_text("a,b\n1,2\n")
    np.testing.assert_array_equal(load_csv(headed, has_header=True).vectors,
                                  [[1.0, 2.0]])


def test_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n1,2,3\n")
    with pytest.raises(ValueError, match=":2"):
        load_csv(ragged)

    text = tmp_path / "text.csv"
    text.write_text("1,2\n1,zebra\n")
    with pytest.raises(ValueError, match=":2"):
        load_csv(text)

    nonfinite = tmp_path / "nan.csv"
    nonfinite.write_text("1,2\n1,nan\n")
    with pytest.raises(ValueError):
        load_csv(nonfinite)


def sample_rows():
    return [
        BenchRow(mode="orthogonal", norm="1", epsilon=50.0, mean_cost=54268.4,
                 mean_ratio=1.893, mean_survivors=(103.2, 2860.1, 18531.1),
                 fitted_const=0.0001843, estimated_cost=84321.5),
        BenchRow(mode="orthogonal", norm="inf", epsilon=2.25, mean_cost=77538.0,
                 mean_ratio=1.27, mean_survivors=(87.8, 6555.6, 19882.9),
                 fitted_const=0.0002931, estimated_cost=91830.25),
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_roundtrip(tmp_path, fmt):
    rows = sample_rows()
    path = tmp_path / f"report.{fmt}"
    write_report(rows, path, fmt)
    assert read_report(path, fmt) == rows


def test_report_formats_agree(tmp_path):
    rows = sample_rows()
    write_report(rows, tmp_path / "r.json", "json")
    write_report(rows, tmp_path / "r.csv", "csv")
    assert read_report(tmp_path / "r.json", "json") == read_report(
        tmp_path / "r.csv", "csv")


def test_report_empty(tmp_path):
    write_report([], tmp_path / "e.csv", "csv")
    header = (tmp_path / "e.csv").read_text().strip()
    assert header.startswith("mode,norm,epsilon")
    assert read_report(tmp_path / "e.csv", "csv") == []
    write_report([], tmp_path / "e.json", "json")
    assert read_report(tmp_path / "e.json", "json") == []


def test_report_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_report([], tmp_path / "x.bin", "parquet")
    with pytest.raises(ValueError):
        read_report(tmp_path / "x.bin", "parquet")
