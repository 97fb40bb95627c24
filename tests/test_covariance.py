"""The dominant eigenpair solver behind adaptive directions."""

import math

import numpy as np
import pytest

from lpcascade import first_principal_component


def closed_form_2x2(mat):
    """Dominant eigenpair of a symmetric 2x2 matrix, in closed form."""
    a, b, c = mat[0, 0], mat[0, 1], mat[1, 1]
    disc = math.sqrt((a - c) ** 2 + 4.0 * b * b)
    top = (a + c + disc) / 2.0
    v1 = np.array([b, top - a])
    v2 = np.array([top - c, b])
    vec = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    norm = np.linalg.norm(vec)
    vec = np.array([1.0, 0.0]) if norm == 0.0 else vec / norm
    return top, vec


def test_principal_component_examples():
    pc = first_principal_component(np.array([[1.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(pc.direction, np.ones(2) / math.sqrt(2), rtol=1e-9)
    assert pc.eigenvalue == pytest.approx(2.0)

    pc = first_principal_component(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(pc.direction, [1.0, 0.0], atol=1e-9)
    assert pc.eigenvalue == pytest.approx(3.0)

    mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    top, vec = closed_form_2x2(mat)
    pc = first_principal_component(mat)
    assert pc.eigenvalue == pytest.approx(top) and top == pytest.approx(3.0)
    assert abs(float(pc.direction @ vec)) == pytest.approx(1.0)


def test_zero_matrix_falls_back_to_secting_direction():
    pc = first_principal_component(np.zeros((4, 4)))
    np.testing.assert_allclose(pc.direction, np.ones(4) / 2.0)
    assert pc.eigenvalue == 0.0


def test_sign_convention():
    # dominant eigenvector (1,-1)/sqrt(2) sums to zero: first component positive
    mat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    pc = first_principal_component(mat)
    assert pc.eigenvalue == pytest.approx(2.0)
    assert pc.direction[0] > 0.0
    # generic case: component sum nonnegative
    rng = np.random.Generator(np.random.Philox(key=15))
    for _ in range(50):
        r = rng.standard_normal((3, 3))
        pc = first_principal_component(r @ r.T)
        assert pc.direction.sum() >= 0.0


def test_principal_component_input_validation():
    with pytest.raises(ValueError):
        first_principal_component(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        first_principal_component(np.ones((2, 3)))
    with pytest.raises(ValueError):
        first_principal_component(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rayleigh_maximality():
    rng = np.random.Generator(np.random.Philox(key=16))
    r = rng.standard_normal((6, 6))
    mat = r @ r.T
    pc = first_principal_component(mat)
    for _ in range(100):
        probe = rng.standard_normal(6)
        probe /= np.linalg.norm(probe)
        assert float(probe @ mat @ probe) <= pc.eigenvalue * (1.0 + 1e-6)


def test_eigen_residual_bound():
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(200):
        r = rng.standard_normal((4, 4))
        mat = r @ r.T
        pc = first_principal_component(mat)
        residual = np.linalg.norm(mat @ pc.direction - pc.eigenvalue * pc.direction)
        assert residual <= 1e-6 * (pc.eigenvalue + np.trace(mat) / 4.0)


def test_power_vs_closed_form_sample():
    rng = np.random.Generator(np.random.Philox(key=18))
    for _ in range(500):
        r = rng.standard_normal((2, 2))
        mat = r @ r.T
        top, vec = closed_form_2x2(mat)
        pc = first_principal_component(mat)
        assert pc.eigenvalue == pytest.approx(top, rel=1e-8)
        if top - (np.trace(mat) - top) > 1e-6 * np.trace(mat):
            assert abs(float(pc.direction @ vec)) >= 1.0 - 1e-8
