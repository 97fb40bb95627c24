"""Loaders, synthetic generation, and the bench report's bytes."""

import dataclasses
import json
import math
import re
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
    write_fvecs,
)
from lpcascade.cli import _write_json


def test_dataset_validation():
    with pytest.raises(ValueError):
        DataSet.from_array(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DataSet.from_array(np.empty((0, 4)))
    with pytest.raises(ValueError):
        DataSet(vectors=np.ones((3, 2)), ids=np.arange(2))
    # ids are integers int64 holds: a cast would truncate 0.5, 1.5, 2.5 to 0, 1, 2
    for ids in ([0.5, 1.5, 2.5], [0.0, 1.0, 2.0], [True, False, True],
                np.arange(3, dtype=np.uint64)):
        with pytest.raises(ValueError, match="ids must be integers int64 holds"):
            DataSet(vectors=np.ones((3, 2)), ids=ids)
    assert DataSet(vectors=np.ones((3, 2)), ids=np.arange(3, dtype=np.int32)).ids.dtype \
        == np.int64
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


@pytest.mark.parametrize("field", ["count", "dim", "block_size", "window", "rng_seed"])
@pytest.mark.parametrize("value", [8.0, True, "8"])
def test_synthetic_spec_fields_must_be_integers(field, value):
    # a float, a bool or a string is refused at construction, not inside
    # generate; numpy integers are taken as the ints they hold
    fields = {"count": 16, "dim": 8, "model": "block-correlated", "block_size": 4,
              "window": 4, "rng_seed": 3}
    with pytest.raises(ValueError, match=f"^{field} .* is not an integer$"):
        SyntheticSpec(**{**fields, field: value})
    spec = SyntheticSpec(**{**fields, field: np.int32(fields[field])})
    assert getattr(spec, field) == fields[field] and type(getattr(spec, field)) is int
    np.testing.assert_array_equal(generate(spec).vectors,
                                  generate(SyntheticSpec(**fields)).vectors)


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

    # a file too short for record 0's dimension, or whose dimension is below 1
    for raw, message in ((b"\x02", "truncated record 0"), (b"\x02\x00", "truncated record 0"),
                         (b"\x02\x00\x00", "truncated record 0"),
                         (struct.pack("<i", 0), "record 0 has invalid dimension 0"),
                         (struct.pack("<if", -1, 1.0), "record 0 has invalid dimension -1")):
        short = tmp_path / "short.fvecs"
        short.write_bytes(raw)
        with pytest.raises(ValueError, match=message):
            load_fvecs(short)

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

    with pytest.raises(ValueError, match="expected a 2-d matrix"):
        write_fvecs(tmp_path / "row.fvecs", np.ones(3))
    assert not (tmp_path / "row.fvecs").exists()


def test_csv_loading(tmp_path):
    path = tmp_path / "tiny.csv"
    # a blank line holds no row
    path.write_text("1.0,2.0\n\n3.5,-4.25\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.vectors, [[1.0, 2.0], [3.5, -4.25]])


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

    # a value float64 cannot hold is named by file and line, as a value
    # that is not a number is, and not by DataSet
    for name, text in (("nan", "nan"), ("inf", "inf"), ("overflow", "1e400")):
        nonfinite = tmp_path / f"{name}.csv"
        nonfinite.write_text(f"1,2\n\n1,{text}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(nonfinite))}:3: non-finite "):
            load_csv(nonfinite)


def test_report_empty(tmp_path):
    _write_json([], tmp_path / "e.json")
    assert (tmp_path / "e.json").read_bytes() == b"[]\n"
    assert json.loads((tmp_path / "e.json").read_text()) == []


def test_report_writer_rejects_non_finite_floats(tmp_path):
    # NaN and Infinity are not JSON: nothing is written
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _write_json([{"epsilon": value}], tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()


def test_report_bytes_are_fixed(tmp_path):
    # key order and float text; a cell with no fitted const holds null
    rows = [
        BenchRow(mode="orthogonal", norm="1", epsilon=50.0, mean_cost=54268.4,
                 mean_ratio=1.893, mean_survivors=(103.2, 2860.1),
                 fitted_const=0.0001843, estimated_cost=84321.5),
        BenchRow(mode="adaptive", norm="inf", epsilon=1e-05, mean_cost=77538.0,
                 mean_ratio=1.27, mean_survivors=(87.8, 6555.6),
                 fitted_const=None, estimated_cost=None),
    ]
    _write_json([dataclasses.asdict(row) for row in rows], tmp_path / "r.json")
    assert (tmp_path / "r.json").read_bytes() == b"""[
  {
    "mode": "orthogonal",
    "norm": "1",
    "epsilon": 50.0,
    "mean_cost": 54268.4,
    "mean_ratio": 1.893,
    "mean_survivors": [
      103.2,
      2860.1
    ],
    "fitted_const": 0.0001843,
    "estimated_cost": 84321.5
  },
  {
    "mode": "adaptive",
    "norm": "inf",
    "epsilon": 1e-05,
    "mean_cost": 77538.0,
    "mean_ratio": 1.27,
    "mean_survivors": [
      87.8,
      6555.6
    ],
    "fitted_const": null,
    "estimated_cost": null
  }
]
"""
