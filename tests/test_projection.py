"""Per-block features: contraction property, diagnostics, fitting."""

import math

import numpy as np
import pytest

from lpcascade import (
    ADAPTIVE,
    ORTHOGONAL,
    BlockPartition,
    ProjectionLevel,
    as_norm_order,
    first_principal_component,
    fit_adaptive_level,
    lp_norm,
    orthogonal_level,
    project_level,
    project_rows,
    q_mapping_norm,
)
from lpcascade.norms import distances_to_point

BISECT2 = np.array([1.0, 1.0]) / math.sqrt(2.0)
EPS = float(np.finfo(np.float64).eps)


def mean_projector_matrix(m):
    """Explicit rank-1 matrix with entries 1/m."""
    return np.full((m, m), 1.0 / m)


def block_mean_feature(block, p):
    """Single-block orthogonal feature of ``block`` through a one-block level."""
    block = np.asarray(block, dtype=np.float64)
    level = orthogonal_level(BlockPartition.for_dims(block.size, 1), p)
    return project_level(block, level)[0]


def adaptive_level(directions, p):
    """Hand-built adaptive level with one block per row of ``directions``."""
    return ProjectionLevel(norm=as_norm_order(p),
                           directions=np.atleast_2d(np.asarray(directions, dtype=np.float64)))


def test_partition_validation():
    part = BlockPartition(dim_in=8, block_count=4, block_size=2)
    assert part.block_size == 2
    with pytest.raises(ValueError):
        BlockPartition(dim_in=8, block_count=3, block_size=2)
    with pytest.raises(ValueError):
        BlockPartition.for_dims(10, 4)
    assert BlockPartition.for_dims(64, 16).block_size == 4


def test_block_mean_feature_examples():
    assert block_mean_feature([1, 3], 2) == pytest.approx(2.0 * math.sqrt(2.0))
    assert block_mean_feature([1, 3], 1) == pytest.approx(4.0)
    assert block_mean_feature([1, 3], "inf") == pytest.approx(2.0)
    # a vector on the m-secting line keeps its full norm
    assert block_mean_feature([5, 5, 5, 5], 2) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        block_mean_feature([], 2)


def test_adaptive_level_feature_examples():
    # the scale is the Hölder bound ||d||_p* for every p, unclamped
    level2 = adaptive_level(BISECT2, 2)
    assert level2.scales[0] == pytest.approx(1.0, rel=2 * EPS)
    assert level2.scales[0] == lp_norm(BISECT2, 2)
    assert project_level([1, 3], level2)[0] == pytest.approx(4.0 / math.sqrt(2.0))
    assert project_level([1, 3], level2)[0] == pytest.approx(block_mean_feature([1, 3], 2))

    axis = adaptive_level([1.0, 0.0], 2)
    assert project_level([1, 3], axis)[0] == pytest.approx(1.0)

    level_inf = adaptive_level(BISECT2, "inf")
    assert level_inf.scales[0] == pytest.approx(math.sqrt(2.0))
    assert project_level([1, 3], level_inf)[0] == pytest.approx(2.0)

    # under l_1 the dual is l_inf: scale 1/sqrt(2) < 1, and the feature of a
    # nonnegative block is its full l_1 norm
    level1 = adaptive_level(BISECT2, 1)
    assert level1.scales[0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert project_level([1, 3], level1)[0] == pytest.approx(4.0)
    assert project_level([1, 3], level1)[0] <= lp_norm([1, 3], 1) * (1 + 1e-12)


def test_adaptive_level_chebyshev_is_lipschitz():
    level = adaptive_level(BISECT2, "inf")
    rng = np.random.Generator(np.random.Philox(key=20))
    x = rng.standard_normal((100_000, 2))
    y = rng.standard_normal((100_000, 2))
    feat_gap = np.abs(project_rows(x, level) - project_rows(y, level))[:, 0]
    true_gap = np.abs(x - y).max(axis=1)
    assert np.all(feat_gap <= true_gap * (1.0 + 1e-12))


def test_projector_validation():
    # one row per block: a nonempty (f, m) array
    with pytest.raises(ValueError):
        ProjectionLevel(norm=as_norm_order(2), directions=BISECT2)
    with pytest.raises(ValueError):
        ProjectionLevel(norm=as_norm_order(2), directions=np.empty((0, 2)))
    part = ProjectionLevel(norm=as_norm_order(2),
                           directions=np.ones((2, 3)) / math.sqrt(3.0)).partition
    assert part == BlockPartition(dim_in=6, block_count=2, block_size=3)
    # rows must be unit vectors
    with pytest.raises(ValueError):
        adaptive_level([[1.0, 1.0], BISECT2], 2)
    with pytest.raises(ValueError):
        adaptive_level([[0.0, 0.0]], 2)
    with pytest.raises(ValueError):
        project_level([1, 2, 3], adaptive_level(BISECT2, 2))


def test_project_level_examples():
    level = orthogonal_level(BlockPartition.for_dims(4, 2), 2)
    got = project_level([1.0, 3.0, 2.0, 2.0], level)
    np.testing.assert_allclose(got, [2.0 * math.sqrt(2.0)] * 2, rtol=1e-12)
    np.testing.assert_array_equal(project_level(np.zeros(4), level), np.zeros(2))
    with pytest.raises(ValueError):
        project_level([1.0, 2.0, 3.0], level)
    for rows in (np.ones((2, 3)), np.ones(4)):
        with pytest.raises(ValueError, match="!= level input dim 4"):
            project_rows(rows, level)


def test_level_mode_consistency():
    # both modes are one operator: unit directions over their Hölder scales
    part = BlockPartition.for_dims(4, 2)
    plain = orthogonal_level(part, 2)
    fitted = adaptive_level([BISECT2, [1.0, 0.0]], 2)
    for level in (plain, fitted):
        assert level.partition == part
        assert level.directions.shape == (2, 2) and level.scales.shape == (2,)
        assert not hasattr(level, "mode")
    np.testing.assert_array_equal(plain.directions, [BISECT2, BISECT2])
    x = np.array([[1.0, 3.0, 2.0, 5.0]])
    np.testing.assert_array_equal(project_rows(x, plain)[:, 0],
                                  project_rows(x, fitted)[:, 0])


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
@pytest.mark.parametrize("mode", [ORTHOGONAL, ADAPTIVE])
def test_level_is_contraction(p, mode):
    rng = np.random.Generator(np.random.Philox(key=21))
    part = BlockPartition.for_dims(64, 16)
    fit_rows = rng.random((500, 64))
    if mode == ORTHOGONAL:
        level = orthogonal_level(part, p)
    else:
        level = fit_adaptive_level(fit_rows, part, p)
    x = rng.standard_normal((2000, 64))
    y = rng.standard_normal((2000, 64))
    norm = as_norm_order(p)
    before = distances_to_point(x - y, np.zeros(64), norm)
    after = distances_to_point(project_rows(x, level) - project_rows(y, level),
                               np.zeros(16), norm)
    assert np.all(after <= before * (1.0 + 1e-12))


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_block_mean_feature_never_exceeds_block_norm(p):
    rng = np.random.Generator(np.random.Philox(key=22))
    for _ in range(300):
        block = rng.standard_normal(4) * 10.0
        assert abs(block_mean_feature(block, p)) <= lp_norm(block, p) * (1 + 1e-12)


@pytest.mark.parametrize("m", [2, 4, 16])
@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_matrix_free_equivalence(m, p):
    rng = np.random.Generator(np.random.Philox(key=23))
    mat = mean_projector_matrix(m)
    for _ in range(100):
        block = rng.standard_normal(m)
        feature = block_mean_feature(block, p)
        assert abs(feature) == pytest.approx(lp_norm(mat @ block, p), rel=1e-12,
                                             abs=1e-300)


def test_adaptive_dominates_orthogonal_on_fitting_distribution():
    # zero-mean anisotropic blocks: the fitted direction explains more length
    rng = np.random.Generator(np.random.Philox(key=24))
    cov_half = np.diag([3.0, 1.0, 0.5, 0.25])
    blocks = rng.standard_normal((20_000, 4)) @ cov_half
    part = BlockPartition.for_dims(4, 1)
    level = fit_adaptive_level(blocks, part, 2)
    adaptive_feats = project_rows(blocks, level)[:, 0]
    orthogonal_feats = blocks.mean(axis=1) * 2.0
    norms = np.linalg.norm(blocks, axis=1)
    assert np.mean(norms - np.abs(adaptive_feats)) <= np.mean(
        norms - np.abs(orthogonal_feats))


def test_diversion_examples():
    got = adaptive_level([BISECT2, [1.0, 0.0], [0.6, 0.8]], 2).diversions()
    np.testing.assert_allclose(
        got, [0.0, math.sqrt(2.0) - 1.0, math.sqrt(2.0) - 1.4], rtol=1e-12, atol=1e-15)
    # cross-check against the explicit rank-1 matrix applied to the ones vector
    z = np.array([0.6, 0.8])
    explicit = math.sqrt(2.0) - np.linalg.norm(np.outer(z, z) @ np.ones(2))
    assert got[2] == pytest.approx(explicit, rel=1e-12)
    plain = orthogonal_level(BlockPartition.for_dims(6, 3), 2)
    np.testing.assert_allclose(plain.diversions(), np.zeros(3), rtol=0, atol=1e-15)


def test_diversion_bounds_on_fitted_nonneg_data():
    rng = np.random.Generator(np.random.Philox(key=25))
    rows = rng.random((2000, 16))
    level = fit_adaptive_level(rows, BlockPartition.for_dims(16, 4), 2)
    values = level.diversions()
    m = level.partition.block_size
    assert np.all(values >= 0.0)
    assert np.all(values <= math.sqrt(m) - 1.0 + 1e-9)


def test_q_mapping_norm():
    assert q_mapping_norm(4, 2) == pytest.approx(2.0 ** 0)
    assert q_mapping_norm(4, 4) == pytest.approx(2.0)
    assert q_mapping_norm(16, 1) == pytest.approx(0.0625)
    for m in (2, 4, 16):
        assert q_mapping_norm(m, 2) == 1.0
        for p in (2.5, 3, 4, 8):
            assert q_mapping_norm(m, p) > 1.0
    with pytest.raises(ValueError):
        q_mapping_norm(4, "inf")
    with pytest.raises(ValueError):
        q_mapping_norm(0, 2)


def test_degenerate_block_falls_back_to_secting_direction():
    rows = np.zeros((10, 4))
    level = fit_adaptive_level(rows, BlockPartition.for_dims(4, 2), 2)
    for direction in level.directions:
        np.testing.assert_allclose(direction, BISECT2, rtol=1e-12)
    np.testing.assert_allclose(level.diversions(), np.zeros(2), atol=1e-12)


def test_fit_adaptive_level_takes_rows_of_any_magnitude():
    # the raw moments of two blocks near 2^600 overflow, so the fit scales
    # each block by a power of two, which leaves its dominant eigenvector
    rng = np.random.Generator(np.random.Philox(key=27))
    rows = rng.random((300, 12))
    part = BlockPartition.for_dims(12, 3)
    plain = fit_adaptive_level(rows, part, 2).directions
    big = rows.copy()
    big[:, :8] *= 2.0 ** 600
    np.testing.assert_allclose(fit_adaptive_level(big, part, 2).directions, plain,
                               rtol=1e-12, atol=1e-15)
    for bad in (math.inf, math.nan):
        big[7, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_adaptive_level(big, part, 2)


def test_fit_adaptive_level_takes_rows_whose_moments_underflow():
    # below about 1e-160 the raw moments lose precision to underflow, and at
    # 1e-300 they vanish: the fit scales each nonzero block by a power of
    # two, while an all-zero block keeps the m-secting direction
    rng = np.random.Generator(np.random.Philox(key=28))
    rows = rng.standard_normal((300, 8)) * [3.0, 1.0, 0.5, 0.2, 2.0, 1.0, 0.1, 0.05]
    part = BlockPartition.for_dims(8, 2)
    plain = fit_adaptive_level(rows, part, 2).directions
    for scale in (1e-150, 1e-165, 1e-300):
        np.testing.assert_allclose(fit_adaptive_level(rows * scale, part, 2).directions,
                                   plain, rtol=0.0, atol=1e-12)
    rows[:, :4] = 0.0
    tiny = fit_adaptive_level(rows * 1e-300, part, 2).directions
    np.testing.assert_array_equal(tiny[0], np.full(4, 0.5))
    np.testing.assert_allclose(tiny[1], plain[1], rtol=0.0, atol=1e-12)


def test_fit_adaptive_level_shapes_and_flags():
    rng = np.random.Generator(np.random.Philox(key=26))
    rows = rng.random((500, 12))
    level = fit_adaptive_level(rows, BlockPartition.for_dims(12, 3), 4)
    assert level.dim_out == 3 and level.partition.block_size == 4
    assert level.directions.shape == (3, 4)
    # under l_4 the dual l_4/3 norm of a unit vector is at least its l_2 norm
    assert np.all(level.scales >= 1.0)
    np.testing.assert_allclose(
        level.scales,
        [lp_norm(d, as_norm_order(4).dual) for d in level.directions], rtol=2 * EPS)
    feats = project_rows(rows, level)
    assert feats.shape == (500, 3)
    with pytest.raises(ValueError):
        fit_adaptive_level(rows[:0], BlockPartition.for_dims(12, 3), 4)
    for bad in (rows[:, :8], rows[0]):
        with pytest.raises(ValueError, match="!= partition dim 12"):
            fit_adaptive_level(bad, BlockPartition.for_dims(12, 3), 4)
    with pytest.raises(ValueError):
        fit_adaptive_level(np.where(rows > 0.99, np.nan, rows), BlockPartition.for_dims(12, 3), 4)


@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_fitted_directions_match_pca_oracle(p):
    # the batched fit agrees block by block with the single-matrix solver
    rng = np.random.Generator(np.random.Philox(key=27))
    rows = rng.random((3000, 24)) @ np.kron(np.eye(6), np.full((4, 4), 0.3) + np.eye(4))
    part = BlockPartition.for_dims(24, 6)
    level = fit_adaptive_level(rows, part, p)
    dual = as_norm_order(p).dual
    for j in range(part.block_count):
        block = rows[:, j * 4:(j + 1) * 4]
        oracle = first_principal_component(block.T @ block / rows.shape[0])
        np.testing.assert_allclose(level.directions[j], oracle.direction, rtol=0, atol=1e-12)
        assert level.scales[j] == pytest.approx(lp_norm(level.directions[j], dual),
                                                rel=2 * EPS)


@pytest.mark.parametrize("m", [2, 3, 4, 16])
@pytest.mark.parametrize("p", [1, 2, 4, "inf"])
def test_orthogonal_level_is_the_secting_direction(p, m):
    level = orthogonal_level(BlockPartition.for_dims(5 * m, 5), p)
    norm = as_norm_order(p)
    np.testing.assert_array_equal(level.directions, np.full((5, m), 1.0 / math.sqrt(m)))
    np.testing.assert_array_equal(
        level.scales, [lp_norm(d, norm.dual) for d in level.directions])
    # the feature is the block mean times m^(1/p), to a few ulps
    rows = np.random.Generator(np.random.Philox(key=28)).random((500, 5 * m))
    coefficient = 1.0 if norm.is_infinite else m ** (1.0 / norm.p)
    np.testing.assert_allclose(project_rows(rows, level),
                               rows.reshape(500, 5, m).mean(axis=2) * coefficient,
                               rtol=8 * EPS, atol=0)
    np.testing.assert_allclose(level.diversions(), np.zeros(5), rtol=0, atol=1e-15)
