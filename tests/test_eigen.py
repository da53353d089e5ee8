import numpy as np
import pytest

from kinetic_gap.eigen import EigenError, jacobi_eigh

from oracles import sturm_eigvalsh


def test_diagonal_matrix_sorted():
    w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_two_by_two_characteristic_polynomial():
    # det([[2-l, 1], [1, 2-l]]) = l^2 - 4l + 3 -> roots 1 and 3
    w = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))[0]
    assert np.allclose(w, [1.0, 3.0], atol=1e-14)


def test_random_reconstruction():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 50))
    a = a + a.T
    w, v = jacobi_eigh(a)
    assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-9
    assert np.max(np.abs(v.T @ v - np.eye(50))) <= 1e-10


def test_eigenpair_residuals():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    w, v = jacobi_eigh(a)
    scale = np.linalg.norm(a, 2)
    res = np.max(np.linalg.norm(a @ v - v * w[None, :], axis=0))
    assert res <= 1e-10 * scale


def test_asymmetric_rejected():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(EigenError, match="not symmetric"):
        jacobi_eigh(a)


def test_matches_sturm_bisection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 60))
        a = rng.standard_normal((n, n))
        a = a + a.T
        w = jacobi_eigh(a)[0]
        ref = sturm_eigvalsh(a)
        assert np.max(np.abs(w - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
